"""Built-in graph families: paths, cycles, complete graphs and seeded random graphs."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .graphs import WeightedGraph


def _edge_weights(m: int, weights: Sequence[float] | None) -> list[float]:
    if weights is None:
        return [1.0] * m
    ws = [float(w) for w in weights]
    if len(ws) != m:
        raise ValueError(f"expected {m} weights, got {len(ws)}")
    return ws


def path(n: int, weights: Sequence[float] | None = None) -> WeightedGraph:
    """Path 0-1-...-(n-1); edge i joins i and i+1."""
    ws = _edge_weights(n - 1, weights)
    return WeightedGraph(n, tuple((i, i + 1, ws[i]) for i in range(n - 1)))


def cycle(n: int, weights: Sequence[float] | None = None) -> WeightedGraph:
    """Cycle on n vertices; the last edge closes (n-1, 0)."""
    ws = _edge_weights(n, weights)
    edges = [(i, i + 1, ws[i]) for i in range(n - 1)]
    edges.append((n - 1, 0, ws[n - 1]))
    return WeightedGraph(n, tuple(edges))


def complete(n: int, weights: Sequence[float] | None = None) -> WeightedGraph:
    """Complete graph; edges ordered lexicographically by (i, j), i < j."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ws = _edge_weights(len(pairs), weights)
    return WeightedGraph(n, tuple((i, j, w) for (i, j), w in zip(pairs, ws)))


def random_tree(
    n: int,
    rng: np.random.Generator,
    weight_range: tuple[float, float] = (0.1, 10.0),
) -> WeightedGraph:
    """Random recursive tree: vertex k attaches to a uniform earlier vertex."""
    lo, hi = weight_range
    edges = []
    for k in range(1, n):
        parent = int(rng.integers(0, k))
        edges.append((parent, k, float(rng.uniform(lo, hi))))
    return WeightedGraph(n, tuple(edges))


def random_connected(
    n: int,
    rng: np.random.Generator,
    extra_edge_prob: float = 0.3,
    weight_range: tuple[float, float] = (0.1, 10.0),
) -> WeightedGraph:
    """Random spanning tree plus independent extra edges, Erdos-Renyi style.

    Always connected. Edge order: the n-1 tree edges first, then the extra
    pairs in lexicographic order.
    """
    lo, hi = weight_range
    tree = random_tree(n, rng, weight_range)
    taken = {(min(u, v), max(u, v)) for u, v, _ in tree.edges}
    edges = list(tree.edges)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in taken:
                continue
            if rng.random() < extra_edge_prob:
                edges.append((i, j, float(rng.uniform(lo, hi))))
    return WeightedGraph(n, tuple(edges))
