"""Weighted undirected graphs and the incidence factorization of their Laplacians.

A graph is a vertex count plus an ordered list of positively weighted edges;
the edge index is meaningful and preserved by everything derived from it.
The Laplacian is available two ways, which must agree: directly from weighted
degrees, and as the product of the signed incidence matrix with itself.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

Edge = tuple[int, int, float]


class WeightedGraph:
    """Undirected graph with ``n`` vertices and positively weighted edges.

    Edges are stored in construction order, exactly as given (endpoint order
    included); parallel edges are permitted and kept distinct. The storage is
    three read-only arrays, the endpoints (int64, int64) and the weights
    (float64), validated once; ``edges``, the same edges as a tuple of Python
    ``(int, int, float)`` triples, is built from them on first access.
    Instances are immutable and safe to share; two graphs are equal when their
    vertex counts and edge lists are.
    """

    def __init__(self, n: int, edges) -> None:
        _check_vertex_count(n)
        triples = [(int(u), int(v), float(w)) for u, v, w in edges]
        u, v, w = list(zip(*triples)) or ((), (), ())
        try:
            ends = np.array((u, v), dtype=np.int64)
        except OverflowError:  # an endpoint past int64 fails the range check
            ends = np.array((u, v), dtype=object)
        self._init(n, *ends, np.array(w, dtype=float))

    @classmethod
    def _from_arrays(cls, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> WeightedGraph:
        """Graph on arrays of endpoints and weights, validated as the constructor does."""
        _check_vertex_count(n)
        g = cls.__new__(cls)
        g._init(n, u, v, w)
        return g

    def _init(self, n, u, v, w) -> None:
        # each edge's checks in order: endpoints, self-loop, weight; the first
        # edge failing any of them is reported, with its first failed check
        out_of_range = ~((0 <= u) & (u < n) & (0 <= v) & (v < n))
        loop = u == v
        bad_weight = ~(np.isfinite(w) & (w > 0.0))
        bad = np.flatnonzero(out_of_range | loop | bad_weight)
        if bad.size:
            i = int(bad[0])
            if out_of_range[i]:
                raise ValueError(
                    f"edge {i}: endpoint out of range for n={n}: ({int(u[i])}, {int(v[i])})"
                )
            if loop[i]:
                raise ValueError(f"edge {i}: self-loop at vertex {int(u[i])}")
            raise ValueError(f"edge {i}: weight must be finite and positive, got {float(w[i])}")
        arrays = [np.array(a, dtype=t) for a, t in ((u, np.int64), (v, np.int64), (w, float))]
        for a in arrays:
            a.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_arrays", tuple(arrays))

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")

    @functools.cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(zip(*(a.tolist() for a in self._arrays)))

    @property
    def m(self) -> int:
        return self._arrays[2].size

    def weights(self) -> np.ndarray:
        """The edge weights, in edge order (read-only)."""
        return self._arrays[2]

    def _ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Each edge's smaller and larger endpoint."""
        u, v, _ = self._arrays
        return np.minimum(u, v), np.maximum(u, v)

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.n == other.n and all(
            np.array_equal(a, b) for a, b in zip(self._arrays, other._arrays)
        )

    def __hash__(self):
        return hash((self.n,) + tuple(a.tobytes() for a in self._arrays))

    def __repr__(self):
        return f"WeightedGraph(n={self.n!r}, edges={self.edges!r})"


def _check_vertex_count(n) -> None:
    if n < 2:
        raise ValueError(f"vertex count must be >= 2, got {n}")


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
    return _edge_factors(g.n, *g._ends(), g.weights())


def _edge_factors(n: int, lo: np.ndarray, hi: np.ndarray, w: np.ndarray) -> IncidenceFactors:
    """IncidenceFactors of the edges (lo_i, hi_i, w_i), lo_i < hi_i; the arrays kept read-only."""
    for a in (lo, hi, w):
        a.setflags(write=False)
    data, indptr = np.tile([1.0, -1.0], lo.size), np.arange(0, 2 * lo.size + 1, 2)
    incidence = sparse.csr_matrix((data, np.column_stack([lo, hi]).ravel(), indptr), (lo.size, n))
    return IncidenceFactors(incidence=incidence, weights=w, lo=lo, hi=hi)


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
    return _assemble_laplacian(g.n, *g._ends(), g.weights())


def _components(n: int, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component labels of the graph on n vertices with edges (lo_i, hi_i), and the non-grounds.

    The first vertex of each component is its ground. A Laplacian restricted
    to the other vertices is nonsingular; its rank is their count, n - #components.
    """
    adjacency = sparse.csr_matrix((np.ones(lo.size), (lo, hi)), shape=(n, n))
    _, labels = csgraph.connected_components(adjacency, directed=False)
    keep = np.ones(labels.size, dtype=bool)
    keep[np.unique(labels, return_index=True)[1]] = False
    return labels, keep


def _centre(v: np.ndarray, labels: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """v minus the mean of its rows over each component (labels from _components), into out.

    Each component's rows are summed in vertex order, by bincount for a vector.
    """
    sizes = np.bincount(labels)
    if v.ndim == 1:
        return np.subtract(v, (np.bincount(labels, v) / sizes)[labels], out=out)
    member = sparse.csr_matrix((np.ones(labels.size), (labels, np.arange(labels.size))))
    return np.subtract(v, (member @ v / sizes[:, None])[labels], out=out)


def component_count(g: WeightedGraph) -> int:
    """Number of connected components (isolated vertices count)."""
    _, keep = _components(g.n, *g._ends())
    return int(np.count_nonzero(~keep))
