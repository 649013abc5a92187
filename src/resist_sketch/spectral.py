"""Leverage scores, effective resistances, and the orthogonal edge-space basis.

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
from .graphs import IncidenceFactors, WeightedGraph, laplacian_of


@dataclass(frozen=True)
class SpectralProfile:
    """Spectral summary of a graph's weight-scaled incidence matrix.

    leverage        per-edge scores in [0, 1]; they sum to ``rank``
    resistance      per-edge effective resistances, leverage / weight
    rank            numerical rank (n - #components for a valid graph)
    basis           m x rank matrix with orthonormal columns
    singular_values length-rank, descending, all positive
    right_factor    n x rank right singular vectors; the solver uses these
                    with ``singular_values`` to apply the pseudoinverse
    """

    leverage: np.ndarray
    resistance: np.ndarray
    rank: int
    basis: np.ndarray
    singular_values: np.ndarray
    right_factor: np.ndarray


def _svd_rank(singular_values: np.ndarray, shape: tuple[int, int]) -> int:
    # Deterministic relative cutoff: sigma <= max(m, n) * sigma_max * eps is zero.
    if singular_values.size == 0 or singular_values[0] == 0.0:
        return 0
    cutoff = max(shape) * singular_values[0] * np.finfo(float).eps
    return int(np.count_nonzero(singular_values > cutoff))


def _condition_estimate(a: np.ndarray) -> float:
    # Fallback diagnostic via the Gram spectrum; only used on SVD failure.
    try:
        vals = np.abs(scipy.linalg.eigvalsh(a.T @ a))
        vmax = float(vals.max(initial=0.0))
        positive = vals[vals > vmax * np.finfo(float).eps * max(a.shape)]
        if positive.size == 0 or vmax == 0.0:
            return float("inf")
        return float(np.sqrt(vmax / positive.min()))
    except Exception:
        return float("inf")


def spectral_profile(factors: IncidenceFactors) -> SpectralProfile:
    """Exact leverage scores and resistances from the SVD of the scaled incidence.

    Any orthonormal column basis would give the same scores; the SVD is used
    so the singular values and right factor are available to the solver.
    """
    if factors.m < 1:
        raise ParameterError("graph has no edges")
    phi = factors.scaled_incidence().toarray()
    try:
        u, s, vt = scipy.linalg.svd(phi, full_matrices=False)
    except scipy.linalg.LinAlgError:
        try:
            u, s, vt = scipy.linalg.svd(phi, full_matrices=False, lapack_driver="gesvd")
        except scipy.linalg.LinAlgError as exc:
            raise FactorizationError(
                f"SVD of the {factors.m}x{factors.n} scaled incidence matrix failed",
                condition_estimate=_condition_estimate(phi),
            ) from exc
    rank = _svd_rank(s, phi.shape)
    basis = np.ascontiguousarray(u[:, :rank])
    leverage = np.einsum("ij,ij->i", basis, basis)
    resistance = leverage / factors.weights
    for arr in (leverage, resistance, basis):
        arr.setflags(write=False)
    return SpectralProfile(
        leverage=leverage,
        resistance=resistance,
        rank=rank,
        basis=basis,
        singular_values=s[:rank].copy(),
        right_factor=np.ascontiguousarray(vt[:rank].T),
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
    distribution; the sum is the squared Frobenius norm of the basis, so the
    result sums to one to machine precision and meets the floor for any beta).
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
