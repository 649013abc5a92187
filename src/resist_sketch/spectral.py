"""Leverage scores, effective resistances, and a factor of the Laplacian pseudoinverse.

The leverage score of edge i is the i-th diagonal entry of the projection
onto the column space of the weight-scaled incidence matrix, equal to the
squared i-th row norm of any orthonormal basis of that space. Dividing by the
edge weight gives the effective resistance, which this module also computes a
second, independent way (through the Cholesky inverse of the grounded
Laplacian, its assembled diagonal included) so the two paths can be checked
against each other.

This is the exact score oracle: about n^3/3 flops for the factor and m n for
the resistances, intended for desk-scale instances. Approximate scores enter
only through the ``beta`` slack of ``leverage_probabilities``; no
approximation algorithm lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import FactorizationError, ParameterError, check
from .graphs import IncidenceFactors, WeightedGraph, _centre, _components, incidence_factors


@dataclass(frozen=True)
class SpectralProfile:
    """Spectral summary of a graph's weight-scaled incidence matrix.

    leverage        per-edge scores in [0, 1]; they sum to ``rank``
    resistance      per-edge effective resistances, leverage / weight
    rank            n - #components
    pinv_factor     n x rank matrix H with H H^T the Laplacian pseudoinverse;
                    the scaled incidence times H, never formed, is an
                    orthonormal basis of its range (see concentration_check)
    """

    leverage: np.ndarray
    resistance: np.ndarray
    rank: int
    pinv_factor: np.ndarray


#: vertices eliminated per panel before one Schur update of the rest
_PANEL = 32
#: bytes of edge differences per resistance chunk: cache-sized, so the buffers are reused
_EDGE_CHUNK_BYTES = 1 << 18


def spectral_profile(factors: IncidenceFactors) -> SpectralProfile:
    """Exact leverage scores and resistances from a positive LDL^T of the grounded Laplacian.

    One vertex per component is grounded. The rest are eliminated in order,
    carried on the edge weights as Ye (Math. Comp. 2008) does: each pivot is a
    vertex's total weight to the vertices not yet eliminated and to the grounds,
    and each step adds nonnegative fill, so nothing is ever subtracted and the
    factors are accurate entrywise at any weight span. With F = L^-T D^-1/2
    (zero rows at the grounds), edge (u, v) has resistance ||F[u] - F[v]||^2.
    A pivot that underflows to zero, or scores that miss Foster's sum (the
    rank) by over 1e-8 * rank, as when a resistance overflows, mean the
    weights span past float64: FactorizationError.
    """
    if factors.m < 1:
        raise ParameterError("graph has no edges")
    with np.errstate(all="ignore"):
        labels, keep, f = _grounded_factor(factors.n, factors.lo, factors.hi, factors.weights)
        rank = f.shape[1]
        resistance = np.empty(factors.m)
        step = max(1, _EDGE_CHUNK_BYTES // (8 * max(rank, 1)))
        for at in range(0, factors.m, step):
            edges = slice(at, at + step)
            diffs = f[factors.lo[edges]] - f[factors.hi[edges]]
            resistance[edges] = np.einsum("ij,ij->i", diffs, diffs)
        leverage = factors.weights * resistance
        total = float(leverage.sum())
    if not abs(total - rank) <= 1e-8 * rank:  # Foster: leverage sums to the rank
        raise FactorizationError(
            f"leverage scores sum to {total!r}, not the rank {rank}: weights span too far"
        )
    pinv_factor = _centre(f, labels)
    for arr in (leverage, resistance, pinv_factor):
        arr.setflags(write=False)
    return SpectralProfile(
        leverage=leverage, resistance=resistance, rank=rank, pinv_factor=pinv_factor
    )


def _grounded_weights(
    n: int, lo: np.ndarray, hi: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Ground one vertex per component and scale the weights; nothing else does either.

    Returns the labels and non-grounds of ``_components``, h, and the dense
    rank x (rank + 1) weights a, each times 2**(-2h), which centres their span
    on 1: exact, and no weighted degree can overflow. a[i, j] sums the edges
    between the i-th and j-th non-grounds (zero diagonal), a[i, rank] those to
    the grounds. Each consumer undoes the scaling on its result with one ldexp.
    """
    labels, keep = _components(n, lo, hi)
    rank = int(np.count_nonzero(keep))
    half = round((math.log2(weights.max()) + math.log2(weights.min())) / 4) if weights.size else 0
    at = np.where(keep, np.cumsum(keep) - 1, rank)  # every ground maps to column rank
    u, v, w = at[lo], at[hi], np.ldexp(weights, -2 * half)
    size = (rank + 1) ** 2
    both = np.bincount(u * (rank + 1) + v, w, size) + np.bincount(v * (rank + 1) + u, w, size)
    return labels, keep, half, both.reshape(rank + 1, rank + 1)[:rank]


def _grounded_factor(
    n: int, lo: np.ndarray, hi: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels, non-grounds and F = L^-T D^-1/2 of the grounded Laplacian L D L^T.

    F has zero rows at the grounds. The array a of ``_grounded_weights`` is
    eliminated in place and freed before F is formed; the weights' scaling by
    2**(-2h) is undone on F, times 2**-h. Vertices are eliminated in panels of
    _PANEL. Within a panel, each vertex's weight to everything outside it (the
    grounds included) is one running sum. After it, L_KK holds the panel's
    factor, Z = L_KK^-1 a[K, R+g] >= 0 for the rest R and the grounds g, and
    a[R, R+g] gains Z_R^T D_K^-1 Z, one GEMM, while L_RK = -Z_R^T D_K^-1.
    Every off-diagonal entry of L is <= 0, so each triangular solve and
    product sums terms of one sign. L is stored in place, below the diagonal
    of a; only a's upper triangle holds current weights.
    """
    labels, keep, half, a = _grounded_weights(n, lo, hi, weights)
    rank = a.shape[0]
    pivots = np.empty(rank)
    for k0 in range(0, rank, _PANEL):
        k1 = min(k0 + _PANEL, rank)
        panel = a[k0:k1, k0:k1]
        outside = a[k0:k1, k1:].sum(axis=1)
        for k in range(k1 - k0):
            row = panel[k, k + 1 :]
            pivot = pivots[k0 + k] = outside[k] + row.sum()
            ratio = row / pivot
            panel[k + 1 :, k + 1 :] += np.outer(row, ratio)
            outside[k + 1 :] += row * (outside[k] / pivot)
            panel[k + 1 :, k] = -ratio
        z = scipy.linalg.solve_triangular(
            panel, a[k0:k1, k1:], lower=True, unit_diagonal=True, check_finite=False
        )
        a[k1:, k0:k1] = -(z[:, : rank - k1] / pivots[k0:k1, None]).T
        a[k1:, k1:] -= a[k1:, k0:k1] @ z
    bad = np.flatnonzero(~(np.isfinite(pivots) & (pivots > 0.0)))
    if bad.size:
        raise FactorizationError(
            f"pivot {int(bad[0])} of the rank-{rank} grounded Laplacian is "
            f"{float(pivots[bad[0]])!r}: weights span too far"
        )
    # L^T, upper and unit, is a's lower triangle read in Fortran order
    inverse, info = scipy.linalg.lapack.dtrtri(a[:, :rank].T, lower=0, unitdiag=1)
    del a
    if info:
        raise FactorizationError(f"inverting the rank-{rank} triangular factor failed")
    inverse[np.tri(rank, dtype=bool)] = 0.0  # a's weights sat below the diagonal of L^-T
    np.fill_diagonal(inverse, 1.0)
    inverse *= np.ldexp(1.0 / np.sqrt(pivots), -half)
    f = np.zeros((n, rank))
    f[keep] = inverse
    return labels, keep, f


def _grounded_cholesky(
    n: int, lo: np.ndarray, hi: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Upper Cholesky factor U of the grounded Laplacian of ``_grounded_weights``.

    Returns that call's labels, non-grounds and h, and U, Fortran-ordered and
    upper: U^T U is the edges' Laplacian times 2**(-2h) on the non-grounds,
    with a's row sums on its diagonal; the caller undoes the scaling. A failed
    or non-finite factor raises FactorizationError.
    """
    labels, keep, half, a = _grounded_weights(n, lo, hi, weights)
    rank = a.shape[0]
    grounded = -a[:, :rank].T  # symmetric: the transpose is the Fortran-ordered copy
    np.fill_diagonal(grounded, a.sum(axis=1))
    factor, info = scipy.linalg.lapack.dpotrf(grounded, overwrite_a=1)
    if info or not np.all(np.isfinite(factor.diagonal())):
        raise FactorizationError(f"Cholesky of the {rank}x{rank} grounded system matrix failed")
    return labels, keep, half, factor


def effective_resistances(g: WeightedGraph | IncidenceFactors) -> np.ndarray:
    """Per-edge effective resistances through the inverse of the grounded Laplacian.

    Independent of ``spectral_profile``: LAPACK factors the grounded
    Laplacian of ``_grounded_cholesky``, assembled diagonal included, and
    inverts it in place (dpotrf, dpotri). With X that inverse, zero at the
    grounds, edge (u, v) has resistance X[u,u] + X[v,v] - 2 X[u,v], the same
    as through L^+. The weights' scaling by 2**(-2h) commutes exactly with
    both LAPACK steps and is undone on the result. The subtraction loses
    accuracy as the weights spread, so this route is a cross-check, not the
    oracle. Takes a graph or its incidence factors.
    """
    factors = g if isinstance(g, IncidenceFactors) else incidence_factors(g)
    if factors.m == 0:
        return np.zeros(0)
    lo, hi = factors.lo, factors.hi
    _, keep, half, factor = _grounded_cholesky(factors.n, lo, hi, factors.weights)
    inverse, info = scipy.linalg.lapack.dpotri(factor, overwrite_c=1)
    if info:
        k = inverse.shape[0]
        raise FactorizationError(f"inverting the {k}x{k} grounded Laplacian failed")
    # hi > lo is never a ground (each component's first vertex is), so X[lo, hi]
    # sits in the upper triangle dpotri returns; when lo is a ground, X[lo] is zero
    at = np.cumsum(keep) - 1
    a, b = at[lo], at[hi]
    diag = inverse.diagonal()
    scaled = np.where(keep[lo], diag[a] - 2.0 * inverse[a, b], 0.0) + diag[b]
    return np.ldexp(scaled, -2 * half)


#: slack for validating supplied probabilities against the leverage floor
_VALIDATION_TOL = 1e-12


def leverage_probabilities(
    profile: SpectralProfile,
    beta: float = 1.0,
    candidate: np.ndarray | None = None,
) -> np.ndarray:
    """Sampling probabilities proportional to leverage, or validated substitutes.

    With no candidate, returns leverage normalized by its sum (the exact
    distribution; spectral_profile has checked that the sum is the rank, so
    the result sums to one to machine precision and meets the floor for any beta).
    A candidate distribution is accepted only if it sums to one within 1e-12
    and every entry is at least beta * leverage_i / sum(leverage), the
    approximate-probability floor.
    """
    check(beta=beta)
    total = float(profile.leverage.sum())
    if total <= 0.0:
        raise ParameterError("leverage scores sum to zero; nothing to sample")
    if candidate is None:
        p = profile.leverage / total
        p.setflags(write=False)
        return p
    p = np.asarray(candidate, dtype=float)
    if p.shape != profile.leverage.shape:
        raise ParameterError(
            f"candidate has shape {p.shape}, expected {profile.leverage.shape}"
        )
    if abs(p.sum() - 1.0) > _VALIDATION_TOL:
        raise ParameterError(f"candidate probabilities sum to {float(p.sum())!r}, not 1")
    floor = beta * profile.leverage / total
    bad = np.flatnonzero(p + _VALIDATION_TOL < floor)
    if bad.size:
        i = int(bad[0])
        raise ParameterError(
            f"probability {float(p[i])!r} at index {i} is below the "
            f"leverage floor {float(floor[i])!r}"
        )
    return p
