"""Weighted undirected graphs and the incidence factorization of their Laplacians.

A graph is a vertex count plus an ordered list of positively weighted edges;
the edge index is meaningful and preserved by everything derived from it.
The Laplacian is available two ways, which must agree: directly from weighted
degrees, and as the product of the signed incidence matrix with itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

Edge = tuple[int, int, float]


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with ``n`` vertices and positively weighted edges.

    Edges are stored in construction order, exactly as given (endpoint order
    included); parallel edges are permitted and kept distinct. Instances are
    immutable and safe to share.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"vertex count must be >= 2, got {self.n}")
        object.__setattr__(
            self, "edges", tuple((int(u), int(v), float(w)) for u, v, w in self.edges)
        )
        for i, (u, v, w) in enumerate(self.edges):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {i}: endpoint out of range for n={self.n}: ({u}, {v})")
            if u == v:
                raise ValueError(f"edge {i}: self-loop at vertex {u}")
            if not (math.isfinite(w) and w > 0.0):
                raise ValueError(f"edge {i}: weight must be finite and positive, got {w}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def weights(self) -> np.ndarray:
        return np.array([w for _, _, w in self.edges], dtype=float)


@dataclass(frozen=True)
class IncidenceFactors:
    """Signed incidence matrix and edge weights of a graph.

    ``incidence`` is m x n with two nonzeros per row: +1 at the smaller
    endpoint (``lo``), -1 at the larger (``hi``). ``weights`` is the length-m
    vector of edge weights.
    """

    incidence: sparse.csr_matrix
    weights: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def m(self) -> int:
        return self.incidence.shape[0]

    @property
    def n(self) -> int:
        return self.incidence.shape[1]


def incidence_factors(g: WeightedGraph) -> IncidenceFactors:
    """Build the incidence factorization of ``g``.

    Row i of the incidence matrix has +1 at min(u_i, v_i) and -1 at
    max(u_i, v_i); the orientation is arbitrary mathematically, fixed here so
    outputs are deterministic.
    """
    u = np.array([e[0] for e in g.edges], dtype=np.int64)
    v = np.array([e[1] for e in g.edges], dtype=np.int64)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    weights = g.weights()
    weights.setflags(write=False)
    lo.setflags(write=False)
    hi.setflags(write=False)
    return IncidenceFactors(incidence=_incidence(g.n, lo, hi), weights=weights, lo=lo, hi=hi)


def _incidence(n: int, lo: np.ndarray, hi: np.ndarray) -> sparse.csr_matrix:
    """Signed incidence of the edges (lo_i, hi_i): row i is +1 at lo_i, -1 at hi_i."""
    data, indptr = np.tile([1.0, -1.0], lo.size), np.arange(0, 2 * lo.size + 1, 2)
    return sparse.csr_matrix((data, np.column_stack([lo, hi]).ravel(), indptr), (lo.size, n))


def _assemble_laplacian(
    n: int, lo: np.ndarray, hi: np.ndarray, w: np.ndarray
) -> sparse.csr_matrix:
    """Laplacian diag(deg) - A - A^T of the edges (lo_i, hi_i, w_i), lo_i < hi_i.

    A is the strict upper triangle with parallel edges summed once, so the
    (i, j) and (j, i) entries are the same sum and the result is symmetric
    exactly, not just within round-off.
    """
    upper = sparse.csr_matrix((w, (lo, hi)), shape=(n, n))
    deg = np.bincount(lo, w, minlength=n) + np.bincount(hi, w, minlength=n)
    return (sparse.diags(deg, format="csr") - upper - upper.T).tocsr()


def laplacian_of(g: WeightedGraph) -> sparse.csr_matrix:
    """Laplacian of ``g`` as a sparse symmetric PSD matrix.

    Off-diagonal (i, j) entries are minus the total weight between i and j
    (parallel edges sum); diagonal entries are the weighted degrees. Row sums
    are zero, so the all-ones vector is in the null space.
    """
    ends = np.array([e[:2] for e in g.edges], dtype=np.int64).reshape(-1, 2)
    return _assemble_laplacian(g.n, ends.min(axis=1), ends.max(axis=1), g.weights())


def _components(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Component labels of a symmetric matrix's nonzero pattern, and the non-grounds.

    The first vertex of each component is its ground. A Laplacian restricted
    to the other vertices is nonsingular; its rank is their count, n - #components.
    """
    _, labels = csgraph.connected_components(matrix, directed=False)
    keep = np.ones(labels.size, dtype=bool)
    keep[np.unique(labels, return_index=True)[1]] = False
    return labels, keep


def _centre(v: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """v minus the mean of its rows over each component (labels from _components)."""
    member = sparse.csr_matrix((np.ones(labels.size), (labels, np.arange(labels.size))))
    sizes = np.bincount(labels).reshape((-1,) + (1,) * (v.ndim - 1))
    return v - (member @ v / sizes)[labels]


def component_count(g: WeightedGraph) -> int:
    """Number of connected components (isolated vertices count)."""
    _, keep = _components(laplacian_of(g))
    return int(np.count_nonzero(~keep))
