"""Weighted undirected graphs and the incidence factorization of their Laplacians.

A graph is a vertex count plus an ordered list of positively weighted edges;
the edge index is meaningful and preserved by everything derived from it.
The Laplacian is available two ways, which must agree: directly from weighted
degrees, and as IncidenceFactors, the edges that give L = B^T diag(w) B.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import ParameterError

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
    """A graph's edges as the factors of its Laplacian, L = B^T diag(weights) B.

    Edge i joins ``lo[i] < hi[i]`` with weight ``weights[i]``. They give the
    m x n signed incidence matrix B, whose row i has +1 at ``lo[i]`` and -1
    at ``hi[i]``; B is never formed. The arrays are locked read-only. Edges
    with 0 <= lo < hi < n and finite positive weights are what the
    elimination reads; anything else raises ParameterError.
    """

    n: int
    lo: np.ndarray
    hi: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        lo, hi, w = self.lo, self.hi, self.weights
        bad = np.flatnonzero(~((0 <= lo) & (lo < hi) & (hi < self.n) & np.isfinite(w) & (w > 0.0)))
        if bad.size:
            i = int(bad[0])
            raise ParameterError(
                f"edge {i} joins {int(lo[i])} to {int(hi[i])} with weight {float(w[i])!r}; "
                f"edges need 0 <= lo < hi < n={self.n} and a finite positive weight"
            )
        for a in (lo, hi, w):
            a.setflags(write=False)

    @property
    def m(self) -> int:
        return self.weights.size


def incidence_factors(g: WeightedGraph) -> IncidenceFactors:
    """Build the incidence factorization of ``g``.

    Edge i is oriented from min(u_i, v_i) to max(u_i, v_i); the orientation
    is arbitrary mathematically, fixed here so outputs are deterministic.
    """
    return IncidenceFactors(g.n, *g._ends(), g.weights())


def laplacian_of(g: WeightedGraph) -> sparse.csr_matrix:
    """Laplacian of ``g`` as a sparse symmetric PSD matrix, diag(deg) - A - A^T.

    Off-diagonal (i, j) entries are minus the total weight between i and j
    (parallel edges sum); diagonal entries are the weighted degrees. Row sums
    are zero, so the all-ones vector is in the null space. A is the strict
    upper triangle with parallel edges summed once, so the (i, j) and (j, i)
    entries are the same sum and the result is symmetric exactly, not just
    within round-off.
    """
    n, (lo, hi), w = g.n, g._ends(), g.weights()
    upper = sparse.csr_matrix((w, (lo, hi)), shape=(n, n))
    deg = np.bincount(lo, w, minlength=n) + np.bincount(hi, w, minlength=n)
    return (sparse.diags(deg, format="csr") - upper - upper.T).tocsr()


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
    """Vector v minus its mean over each component (labels from _components), into out.

    Each component's entries are summed in vertex order, by bincount.
    """
    means = np.bincount(labels, v) / np.bincount(labels)
    return np.subtract(v, means[labels], out=out)


def component_count(g: WeightedGraph) -> int:
    """Number of connected components (isolated vertices count)."""
    _, keep = _components(g.n, *g._ends())
    return int(np.count_nonzero(~keep))
