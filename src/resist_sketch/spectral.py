"""Leverage scores, effective resistances, and a factor of the Laplacian pseudoinverse.

The leverage score of edge i is the i-th diagonal entry of the projection
onto the column space of the weight-scaled incidence matrix, equal to the
squared i-th row norm of any orthonormal basis of that space. Dividing by the
edge weight gives the effective resistance, which this module also computes a
second way, by the same positive elimination with the vertex order reversed,
so that the two orders can be checked against each other.

This is the exact score oracle, intended for desk-scale instances: about
n^3/3 flops of GEMM for the factor, n^3/3 more of dtrmm and dtrtri for its
triangular inverse, and m n for the resistances. Each elimination fills one
dense (rank + 1) x rank array, which becomes F in place; the inverse by
halves borrows up to three quarter-size blocks while it runs. The reverse
order can be built in a spent profile's array (``_reverse_resistances``), so
the ``resistance`` mode holds one such array and ``leverage`` one; ``solve``
adds the sampled system's elimination, and ``sparsify`` and ``verify`` that
and the concentration check's rank x rank Gram. Approximate scores enter
only through the ``beta`` slack of ``leverage_probabilities``; no
approximation algorithm lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import FactorizationError, ParameterError, check
from .graphs import (
    IncidenceFactors, WeightedGraph, _centre, _components, _edge_factors, incidence_factors
)


@dataclass(frozen=True)
class SpectralProfile:
    """Spectral summary of a graph's weight-scaled incidence matrix.

    leverage        per-edge scores in [0, 1]; they sum to ``rank``
    resistance      per-edge effective resistances, leverage / weight
    rank            n - #components
    factor          (rank + 1) x rank upper-triangular F = L^-T D^-1/2 of the
                    grounded Laplacian's positive elimination; its last row,
                    the grounds', is zero (see spectral_profile)
    row_map         each vertex's row of F: the i-th non-ground's is i, every
                    ground's is rank
    labels          component labels of the vertices (graphs._components)

    H = F[row_map] centred per component has H H^T = L^+, and the scaled
    incidence times H is an orthonormal basis of its range. Nothing forms H:
    the scores, concentration_check and solve_exact read F, row_map, labels.
    """

    leverage: np.ndarray
    resistance: np.ndarray
    rank: int
    factor: np.ndarray
    row_map: np.ndarray
    labels: np.ndarray


#: vertices eliminated per panel before one Schur update of the rest
_PANEL = 32
#: largest triangle that one dtrtri inverts; larger ones are split in halves
_TRTRI_ORDER = 64
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
    F is upper triangular, so that sum starts at the smaller of the two rows.
    A pivot that underflows to zero, or scores that miss Foster's sum (the
    rank) by over 1e-8 * rank, as when a resistance overflows, mean the
    weights span past float64: FactorizationError.
    """
    return _profile(factors)


def _profile(factors: IncidenceFactors, out: np.ndarray | None = None) -> SpectralProfile:
    """``spectral_profile``, its factor built in out's memory when given (see _grounded_weights)."""
    if factors.m < 1:
        raise ParameterError("graph has no edges")
    with np.errstate(all="ignore"):
        labels, at, f = _grounded_factor(_eliminate(factors, out))
        rank = f.shape[1]
        u, v = at[factors.lo], at[factors.hi]
        first = np.minimum(u, v)  # row u of F is zero left of column u, the grounds' row everywhere
        order = np.argsort(first)
        first, last = first[order], np.maximum(u, v)[order]
        resistance = np.empty(factors.m)
        start = 0
        while start < factors.m:
            c = first[start]
            stop = start + max(1, _EDGE_CHUNK_BYTES // (8 * (rank - c)))
            diffs = f[first[start:stop], c:]
            diffs -= f[last[start:stop], c:]
            resistance[order[start:stop]] = np.einsum("ij,ij->i", diffs, diffs)
            start = stop
        leverage = factors.weights * resistance
        total = float(leverage.sum())
    if not abs(total - rank) <= 1e-8 * rank:  # Foster: leverage sums to the rank
        raise FactorizationError(
            f"leverage scores sum to {total!r}, not the rank {rank}: weights span too far"
        )
    for arr in (leverage, resistance, f, at, labels):
        arr.setflags(write=False)
    return SpectralProfile(
        leverage=leverage, resistance=resistance, rank=rank, factor=f, row_map=at, labels=labels
    )


def _grounded_weights(
    edges: IncidenceFactors, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Ground one vertex per component and scale the weights; nothing else does either.

    Returns the labels of ``_components``, the row map at (the i-th non-ground
    to i, every ground to rank), h, and the dense (rank + 1) x rank weights a,
    each times 2**(-2h), which centres their span on 1: exact, and no weighted
    degree can overflow. For i < j < rank, a[i, j] sums the edges between the
    i-th and j-th non-grounds and a[rank, j] those from the j-th to the
    grounds; the rest of a is zero. Each consumer undoes the scaling on its
    result with one ldexp. a is fresh zeros, or out (a spent factor of as many
    entries, its pages already mapped) zeroed; np.add.at sums into it in edge
    order, so each entry is the same sum in either.
    """
    lo, hi, weights = edges.lo, edges.hi, edges.weights
    labels, keep = _components(edges.n, lo, hi)
    rank = int(np.count_nonzero(keep))
    half = round((math.log2(weights.max()) + math.log2(weights.min())) / 4) if weights.size else 0
    at = np.where(keep, np.cumsum(keep) - 1, rank)
    # hi is never a ground (each component's is its first vertex), so at[lo] < at[hi]
    # or lo is a ground, whose weights land in row rank
    cells, scaled, size = at[lo] * rank + at[hi], np.ldexp(weights, -2 * half), (rank + 1) * rank
    if out is None:
        flat = np.zeros(size)
    else:
        flat = out.reshape(size)
        flat.fill(0.0)
    np.add.at(flat, cells, scaled)
    return labels, at, half, flat.reshape(rank + 1, rank)


@np.errstate(all="ignore")  # a pivot that is not positive and finite is refused below
def _eliminate(edges: IncidenceFactors, out: np.ndarray | None = None) -> tuple:
    """Positive L D L^T of the edges' grounded Laplacian: labels, row map, h, a, pivots D.

    The array a of ``_grounded_weights`` becomes the unit upper L^T in place
    (a[:rank]), L D L^T the grounded Laplacian times 2**(-2h); only the
    finishes below read it. Left-looking, upper triangle only, in panels of
    _PANEL: before panel K, one GEMM, a[K, K+] += (Y^T D) Y over every earlier
    row, Y <= 0 the finished rows of L^T (row rank, the grounds', included),
    gives it its current weights; within it, each vertex costs one sum and one
    rank-1 update (dger), its weight outside the panel being one extra column
    of p; the panel's last vertex keeps only that column, its pivot. Then the
    panel's inverse block, W = L_KK^-1 / -D_K by one small dtrtri, takes its
    weights to the rest of its rows of L^T by one GEMM. Every product sums
    terms of one sign. A pivot that is not positive and finite raises
    FactorizationError.
    """
    labels, at, half, a = _grounded_weights(edges, out)
    rank = a.shape[1]
    ground = a[rank]
    dger = scipy.linalg.blas.dger
    pivots = np.empty(rank)
    for k0 in range(0, rank, _PANEL):
        k1 = min(k0 + _PANEL, rank)
        earlier = a[:k0, k0:k1].T * pivots[:k0]
        a[k0:k1, k0:] += earlier @ a[:k0, k0:]
        ground[k0:k1] += earlier @ ground[:k0]
        p = np.empty((k1 - k0, k1 - k0 + 1))
        p[:, :-1] = a[k0:k1, k0:k1]
        p[:, -1] = a[k0:k1, k1:].sum(axis=1) + ground[k0:k1]
        for k in range(k1 - k0 - 1):
            row = p[k]
            pivot = pivots[k0 + k] = np.add.reduce(row[k + 1 :])
            # p[k+1:, k+1:] += row[k+1:-1, None] row[k+1:] / pivot, in place on the Fortran-
            # ordered transpose of rows k+1:; what lands left of column k+1 is never read
            dger(1.0 / pivot, row, row[k + 1 : -1], 1, 1, p.T[:, k + 1 :], 1, 1, 1)
        pivots[k1 - 1] = p[-1, -1]
        # row k of p still holds the weights it was eliminated with
        block = np.triu(p[:, :-1], 1) / -pivots[k0:k1, None]
        np.fill_diagonal(block, 1.0)
        a[k0:k1, k0:k1] = block
        # W = L_KK^-1 / -D_K <= 0, L_KK = block^T inverted in place (a unit triangle always
        # inverts), takes the panel's weights to its rows of L^T
        scipy.linalg.lapack.dtrtri(block.T, lower=1, unitdiag=1, overwrite_c=1)
        w = block.T / -pivots[k0:k1, None]
        a[k0:k1, k1:] = w @ a[k0:k1, k1:]
        ground[k0:k1] = w @ ground[k0:k1]
    bad = np.flatnonzero(~(np.isfinite(pivots) & (pivots > 0.0)))
    if bad.size:
        raise FactorizationError(
            f"pivot {int(bad[0])} of the rank-{rank} grounded Laplacian is "
            f"{float(pivots[bad[0]])!r}: weights span too far"
        )
    return labels, at, half, a, pivots


def _grounded_factor(elimination: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels, row map and F = L^-T D^-1/2 2**-h, in place of the elimination's a.

    L^T is inverted by ``_invert_unit_upper``, n^3/3 flops of dtrmm and dtrtri,
    and row rank is zeroed for the grounds, so row at[v] of F is vertex v's.
    """
    labels, at, half, a, pivots = elimination
    rank = pivots.size
    a[rank] = 0.0
    if not _invert_unit_upper(a[:rank]):
        raise FactorizationError(f"inverting the rank-{rank} triangular factor failed")
    a *= np.ldexp(1.0 / np.sqrt(pivots), -half)
    return labels, at, a


def _invert_unit_upper(u: np.ndarray) -> bool:
    """Invert the unit upper-triangular u, <= 0 off its diagonal, in place; False if dtrtri fails.

    [[A, B], [0, C]]^-1 = [[A^-1, -A^-1 B C^-1], [0, C^-1]]: the halves recurse
    down to blocks of _TRTRI_ORDER, which dtrtri inverts, and the corner is two
    dtrmm on Fortran-ordered copies of the blocks. A^-1, C^-1 >= 0 and B <= 0,
    so every sum has terms of one sign.
    """
    n = u.shape[0]
    if n <= _TRTRI_ORDER:
        # u^T is lower and Fortran-ordered; dtrtri inverts a block of a larger u in a copy
        inverse, info = scipy.linalg.lapack.dtrtri(u.T, lower=1, unitdiag=1, overwrite_c=1)
        u[...] = inverse.T
        return info == 0
    h = n // 2
    if not (_invert_unit_upper(u[:h, :h]) and _invert_unit_upper(u[h:, h:])):
        return False
    dtrmm = scipy.linalg.blas.dtrmm
    # the corner's transpose, -C^-T B^T A^-T
    corner = dtrmm(-1.0, u[h:, h:].T, u[:h, h:].T, lower=1, diag=1)
    u[:h, h:] = dtrmm(1.0, u[:h, :h].T, corner, side=1, lower=1, diag=1, overwrite_b=1).T
    return True


def _grounded_solve(elimination: tuple, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimal-norm x with L x = b, and L's rank: two triangular solves on L's elimination."""
    labels, at, half, a, pivots = elimination
    keep, lower = at < pivots.size, a[: pivots.size].T  # L, Fortran-ordered
    x, y = np.zeros(b.size), _centre(b, labels)[keep]
    if pivots.size:
        y = scipy.linalg.blas.dtrsv(lower, y, lower=1, diag=1, overwrite_x=1) / pivots
        y = scipy.linalg.blas.dtrsv(lower, y, lower=1, trans=1, diag=1, overwrite_x=1)
        x[keep] = np.ldexp(y, -2 * half)
    return _centre(x, labels), pivots.size


def _factor_solve(profile: SpectralProfile, b: np.ndarray) -> tuple[np.ndarray, int]:
    """x = L^+ b from the profile's F, row map and labels: two triangular products, two centrings.

    L^+ = H H^T, H = F[row_map] centred per component, and F's ground row is
    zero, so H^T b = F[:rank]^T (b centred)[non-grounds].
    """
    rank, labels = profile.rank, profile.labels
    keep, lower = profile.row_map < rank, profile.factor[:rank].T  # F^T, Fortran-ordered
    y = scipy.linalg.blas.dtrmv(lower, _centre(b, labels)[keep], lower=1, overwrite_x=1)
    x = np.zeros(b.size)
    x[keep] = scipy.linalg.blas.dtrmv(lower, y, lower=1, trans=1, overwrite_x=1)
    return _centre(x, labels, out=x), rank


def _grounded_gram(elimination: tuple, f: np.ndarray, row_map: np.ndarray) -> np.ndarray:
    """H^T L H from ``_eliminate`` of L's edges and a profile's F and row map, in the upper triangle.

    With H = F[row_map] centred and Y the rows of F at L's non-grounds minus
    those at their component's ground (its first vertex, as in
    ``_components``), H^T L H = M^T M, M = 2**h D^1/2 L^T Y: the centring and
    the shift cancel in L H. When L keeps F's rank, it keeps the components,
    so the grounds and row map are F's, Y is F[:rank] and M is upper
    triangular; then dlauum writes M M^T, which has M^T M's spectrum, over
    the upper triangle of M in n^3/6 flops. A draw short of F's rank gathers
    Y and forms M^T M whole. Either way the upper triangle is what to read.
    """
    labels, at, half, a, pivots = elimination
    rank, lower = pivots.size, a[: pivots.size].T
    full = rank == f.shape[1]
    if full:
        y = np.array(f[:rank])
    else:
        keep = at < rank
        grounds = np.unique(labels, return_index=True)[1][labels[keep]]
        y = f[row_map[keep]] - f[row_map[grounds]]
    # Y^T L in place of Y^T, both Fortran-ordered, is (L^T Y)^T
    y = scipy.linalg.blas.dtrmm(1.0, lower, y.T, side=1, lower=1, diag=1, overwrite_b=1).T
    y *= np.ldexp(np.sqrt(pivots), half)[:, None]
    if not full:
        return y.T @ y
    # M^T, Fortran-ordered and lower, takes M M^T in its lower triangle: M's upper
    return scipy.linalg.lapack.dlauum(y.T, lower=1, overwrite_c=1)[0].T


def effective_resistances(g: WeightedGraph | IncidenceFactors) -> np.ndarray:
    """Per-edge effective resistances from the positive elimination in reverse vertex order.

    The resistances of ``spectral_profile`` run on the same edges with vertex
    v relabelled n - 1 - v: each component is grounded at its last vertex and
    eliminated from the other end, so the round-off path differs while every
    step still sums positive terms. Against the profile's own resistances
    this is an order-independence check; like the profile it raises
    FactorizationError past float64's range. Takes a graph or its incidence
    factors.
    """
    return _reverse_resistances(g if isinstance(g, IncidenceFactors) else incidence_factors(g))


def _reverse_resistances(
    factors: IncidenceFactors, spent: SpectralProfile | None = None
) -> np.ndarray:
    """``effective_resistances`` of the factors, built in spent's F when given.

    spent is a profile of the same edges that nothing reads again. The reverse
    order keeps the rank, so its elimination fits F's (rank + 1) x rank array
    and overwrites it: a run holds one dense factor, not two, and maps no
    fresh pages for the second. The resistances are the same bit for bit
    (see _grounded_weights).
    """
    if factors.m == 0:
        return np.zeros(0)
    last = factors.n - 1
    flipped = _edge_factors(factors.n, last - factors.hi, last - factors.lo, factors.weights)
    out = None
    if spent is not None:
        out = spent.factor
        out.setflags(write=True)  # a view of _grounded_weights' array, which was never locked
    return _profile(flipped, out).resistance


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
