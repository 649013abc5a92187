"""Independent reference computations the library must agree with.

Everything here deliberately takes a different route than the package:
eigendecomposition instead of singular values, pivoted QR instead of the
SVD basis, pure-Python accumulation instead of sparse assembly, an
inverse-CDF draw sequence instead of multinomial counts. Slow and
dense is fine; these only run on small graphs.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from resist_sketch import WeightedGraph


def eig_pinv(matrix: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix via eigendecomposition."""
    vals, vecs = np.linalg.eigh(matrix)
    cut = np.max(np.abs(vals), initial=0.0) * matrix.shape[0] * np.finfo(float).eps
    keep = np.abs(vals) > cut
    inv = np.zeros_like(vals)
    inv[keep] = 1.0 / vals[keep]
    return (vecs * inv) @ vecs.T


def dense_laplacian(g: WeightedGraph) -> np.ndarray:
    """Laplacian by plain accumulation loops, no incidence factorization."""
    L = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        L[u, u] += w
        L[v, v] += w
        L[u, v] -= w
        L[v, u] -= w
    return L


def resistances_by_eig(g: WeightedGraph) -> np.ndarray:
    """Effective resistances from the eigendecomposition pseudoinverse."""
    lp = eig_pinv(dense_laplacian(g))
    return np.array([lp[u, u] + lp[v, v] - lp[u, v] - lp[v, u] for u, v, _ in g.edges])


def leverage_by_qr(g: WeightedGraph) -> np.ndarray:
    """Leverage scores from a pivoted-QR orthonormal basis, not the SVD one."""
    phi = np.zeros((g.m, g.n))
    for i, (u, v, w) in enumerate(g.edges):
        s = np.sqrt(w)
        lo, hi = (u, v) if u < v else (v, u)
        phi[i, lo] = s
        phi[i, hi] = -s
    q, r, _ = scipy.linalg.qr(phi, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return np.zeros(g.m)
    rank = int(np.sum(diag > diag[0] * max(phi.shape) * np.finfo(float).eps))
    basis = q[:, :rank]
    return np.einsum("ij,ij->i", basis, basis)


def inverse_cdf_draws(probabilities: np.ndarray, r: int, seed: int) -> np.ndarray:
    """r i.i.d. edge indices by inverse CDF: uniforms, cumulative sum, binary search.

    Cumulative rounding can leave the last CDF entry a hair below 1; uniforms
    beyond it belong to the final edge that has any mass.
    """
    uniforms = np.random.default_rng(seed).random(r)
    idx = np.searchsorted(np.cumsum(probabilities), uniforms, side="right")
    idx[idx >= len(probabilities)] = np.flatnonzero(probabilities > 0.0)[-1]
    return idx


def materialized_sampler_product(
    incidence: np.ndarray,
    weights: np.ndarray,
    probabilities: np.ndarray,
    samples: np.ndarray,
) -> np.ndarray:
    """Sparsified Laplacian via the explicit m x r sampling operator."""
    m = incidence.shape[0]
    r = len(samples)
    S = np.zeros((m, r))
    for t, i in enumerate(samples):
        S[i, t] = 1.0 / np.sqrt(r * probabilities[i])
    half = np.sqrt(weights)[:, None] * incidence
    return half.T @ (S @ S.T) @ half
