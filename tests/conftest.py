from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

import resist_sketch as rs


@pytest.fixture
def triangle() -> rs.WeightedGraph:
    return rs.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


@pytest.fixture
def single_edge() -> rs.WeightedGraph:
    return rs.WeightedGraph(2, [(0, 1, 1.0)])


def bridged_triangles(bridge: float = 1.0) -> rs.WeightedGraph:
    """Two unit triangles joined by one edge of weight ``bridge``, the last edge."""
    return rs.WeightedGraph(
        6,
        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0),
         (3, 5, 1.0), (2, 3, bridge)],
    )


@pytest.fixture
def graph_file(tmp_path):
    """Write a graph to a temp file and hand back its path."""

    def write(g: rs.WeightedGraph, name: str = "graph.txt"):
        target = tmp_path / name
        with open(target, "w", encoding="utf-8") as fh:
            rs.save_graph(g, fh)
        return target

    return write


_weights = st.floats(
    min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def weighted_graphs(draw, max_n: int = 12, max_m: int = 24):
    """Arbitrary valid graphs: connectivity not guaranteed, parallel edges allowed."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda t: t[0] != t[1])
    edges = draw(st.lists(st.tuples(pairs, _weights), min_size=1, max_size=max_m))
    return rs.WeightedGraph(n, [(u, v, w) for (u, v), w in edges])


@st.composite
def connected_graphs(draw, max_n: int = 10):
    """Connected graphs: a random tree plus a few extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    extra = draw(st.floats(min_value=0.0, max_value=0.5))
    return rs.random_connected(n, np.random.default_rng(seed), extra_edge_prob=extra)
