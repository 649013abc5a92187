"""Independent reference computations the library must agree with.

Everything here deliberately takes a different route than the package:
eigendecomposition instead of triangular factors, column-pivoted QR of the
whole incidence matrix instead of elimination of the grounded Laplacian, exact
rational elimination instead of floating point, pure-Python accumulation
instead of sparse assembly, an inverse-CDF draw sequence instead of
multinomial counts. Slow and dense is fine; these only run on small graphs.
"""

from __future__ import annotations

from fractions import Fraction

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


def pinv_factor(profile) -> np.ndarray:
    """The n x rank factor H, H H^T = L^+, of a SpectralProfile: F[row_map] centred per component.

    Not an independent route: H is a view of the profile's own F, rebuilt
    here with plain numpy so tests can check F against the oracles above.
    """
    h = profile.factor[profile.row_map]
    for label in np.unique(profile.labels):
        rows = profile.labels == label
        h[rows] -= h[rows].mean(axis=0)
    return h


#: widest weight ratio at which resistances_by_eig's eigenvalue cut still holds
_EIG_MAX_SPAN = 1e8


def resistances_by_eig(g: WeightedGraph) -> np.ndarray:
    """Effective resistances from the eigendecomposition pseudoinverse.

    Refuses graphs whose weights span more than 1e8: there eig_pinv's cut,
    max|lambda| n eps, drops genuine eigenvalues (off by up to 1.0 relative on
    70 vertices at 1e+-8), so a test would check this oracle, not the code.
    Wider spans read resistances_exact.
    """
    w = g.weights()
    assert w.max() <= _EIG_MAX_SPAN * w.min(), "weights span past 1e8: use resistances_exact"
    lp = eig_pinv(dense_laplacian(g))
    return np.array([lp[u, u] + lp[v, v] - lp[u, v] - lp[v, u] for u, v, _ in g.edges])


def _grounded_inverse_exact(g: WeightedGraph):
    """G(a, b), the exact inverse of g's Laplacian grounded at vertex 0, zero on the ground.

    g must be connected. Every float weight is a rational number, so
    Gauss-Jordan elimination of [L_g | I] in Fractions gives the inverse exactly.
    """
    n = g.n
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v, w in g.edges:
        w = Fraction(w)
        lap[u][u] += w
        lap[v][v] += w
        lap[u][v] -= w
        lap[v][u] -= w
    k = n - 1
    # [L_g | I], L_g the Laplacian without vertex 0's row and column
    rows = [lap[i][1:] + [Fraction(int(i == j)) for j in range(1, n)] for i in range(1, n)]
    for col in range(k):
        pivot = next(i for i in range(col, k) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for i in range(k):
            f = rows[i][col]
            if i != col and f != 0:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]

    def inverse(a: int, b: int) -> Fraction:
        return rows[a - 1][k + b - 1] if a and b else Fraction(0)

    return inverse


def resistances_exact(g: WeightedGraph) -> np.ndarray:
    """Effective resistances of a connected graph in exact rational arithmetic.

    With G the exact grounded inverse, the resistance of edge (u, v) is
    G[u,u] + G[v,v] - 2 G[u,v], rounded to float once at the end.
    """
    inverse = _grounded_inverse_exact(g)
    return np.array(
        [float(inverse(u, u) + inverse(v, v) - 2 * inverse(u, v)) for u, v, _ in g.edges]
    )


def solve_rational(g: WeightedGraph, b: np.ndarray) -> np.ndarray:
    """Minimal-norm solution of L x = b for a connected graph, in exact rational arithmetic.

    b is centred, x = G b with G the exact grounded inverse, and x centred,
    all in Fractions; x is rounded to float once at the end.
    """
    inverse = _grounded_inverse_exact(g)
    exact_b = [Fraction(float(x)) for x in b]
    mean_b = sum(exact_b) / g.n
    x = [sum(inverse(a, c) * (exact_b[c] - mean_b) for c in range(g.n)) for a in range(g.n)]
    mean_x = sum(x) / g.n
    return np.array([float(v - mean_x) for v in x])


def orthonormal_basis(g: WeightedGraph) -> np.ndarray:
    """m x rank orthonormal basis of the scaled incidence's range: Q of a column-pivoted QR."""
    phi = np.zeros((g.m, g.n))
    for i, (u, v, w) in enumerate(g.edges):
        s = np.sqrt(w)
        lo, hi = (u, v) if u < v else (v, u)
        phi[i, lo] = s
        phi[i, hi] = -s
    rank = _rank(g)
    if rank == 0:
        return np.zeros((g.m, 0))
    q, _, _ = scipy.linalg.qr(phi, mode="economic", pivoting=True)
    return q[:, :rank]


def _rank(g: WeightedGraph) -> int:
    """n minus the number of components: one union per edge joining two components.

    Counted, not read off R's diagonal: the round-off left on a dependent
    column can pass any fixed threshold (two vertices, parallel edges of
    weights 0.01, 41.1 and 25.7 read as rank 2).
    """
    parent = list(range(g.n))

    def root(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    rank = 0
    for u, v, _ in g.edges:
        a, b = root(u), root(v)
        if a != b:
            parent[a] = b
            rank += 1
    return rank


def leverage_by_qr(g: WeightedGraph) -> np.ndarray:
    """Leverage scores: squared row norms of orthonormal_basis(g)."""
    basis = orthonormal_basis(g)
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
