"""Leverage scores, effective resistances, and a factor of the Laplacian pseudoinverse.

The leverage score of edge i is the i-th diagonal entry of the projection
onto the column space of the weight-scaled incidence matrix, equal to the
squared i-th row norm of any orthonormal basis of that space. Dividing by the
edge weight gives the effective resistance, which this module also computes a
second, independent way (through the dense pseudoinverse of the Laplacian) so
the two paths can be checked against each other.

This is the exact score oracle: cost O(m n^2), intended for desk-scale
instances. Approximate scores enter only through the ``beta`` slack of
``leverage_probabilities``; no approximation algorithm lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import FactorizationError, ParameterError, check
from .graphs import IncidenceFactors, WeightedGraph, _centre, _components, laplacian_of


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


def spectral_profile(factors: IncidenceFactors) -> SpectralProfile:
    """Exact leverage scores and resistances from a QR factor of the grounded incidence.

    Dropping one ground column per component leaves the scaled incidence with
    full column rank; its Householder QR, rows sorted by decreasing weight to
    stay accurate across wide weight ranges (Cox & Higham 1998), gives R. With
    F = R^-1 (zero rows at the grounds), edge (u, v) has resistance
    ||F[u] - F[v]||^2. Scores that miss Foster's sum (the rank) by over
    1e-8 * rank mean the QR lost a bridge too faint to resolve: FactorizationError.
    """
    if factors.m < 1:
        raise ParameterError("graph has no edges")
    labels, keep = _components(factors.incidence.T @ factors.incidence)
    rank = int(np.count_nonzero(keep))
    order = np.argsort(-factors.weights, kind="stable")
    phi = factors.scaled_incidence()[order][:, keep].toarray(order="F")
    f = np.zeros((factors.n, rank))
    try:
        # mode="raw" returns R as rank x rank, where mode="r" copies all m rows
        r = scipy.linalg.qr(phi, overwrite_a=True, mode="raw")[1]
        f[keep] = scipy.linalg.solve_triangular(r, np.eye(rank))
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"QR of the {factors.m}x{rank} grounded incidence matrix failed"
        ) from exc
    del phi  # free the m x rank array before allocating the differences, its same size
    # each row of incidence @ f is one difference f[lo] - f[hi], rounded once
    diffs = factors.incidence @ f
    resistance = np.einsum("ij,ij->i", diffs, diffs)
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


def effective_resistances(g: WeightedGraph) -> np.ndarray:
    """Per-edge effective resistances through the dense Laplacian pseudoinverse.

    Brute-force path, independent of ``spectral_profile``: the resistance of
    edge (u, v) is the (u, v) diagonal entry of the incidence-conjugated
    pseudoinverse, i.e. Lp[u,u] + Lp[v,v] - Lp[u,v] - Lp[v,u].
    """
    lp = np.linalg.pinv(laplacian_of(g).toarray(), hermitian=True)
    u = np.array([e[0] for e in g.edges], dtype=np.int64)
    v = np.array([e[1] for e in g.edges], dtype=np.int64)
    return lp[u, u] + lp[v, v] - lp[u, v] - lp[v, u]


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
