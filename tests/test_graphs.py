import numpy as np
import pytest
from hypothesis import given, settings

import resist_sketch as rs
from conftest import weighted_graphs
from oracles import dense_laplacian


class TestWeightedGraph:
    def test_basic_fields(self, triangle):
        assert triangle.n == 3
        assert triangle.m == 3
        assert triangle.weights().tolist() == [1.0, 1.0, 1.0]

    def test_edge_order_preserved(self):
        edges = [(3, 1, 2.0), (0, 1, 1.0), (2, 3, 5.0)]
        g = rs.WeightedGraph(4, edges)
        assert list(g.edges) == [(3, 1, 2.0), (0, 1, 1.0), (2, 3, 5.0)]

    @pytest.mark.parametrize(
        "n,edges",
        [
            (1, [(0, 0, 1.0)]),
            (3, [(0, 0, 1.0)]),
            (3, [(0, 3, 1.0)]),
            (3, [(-1, 2, 1.0)]),
            (3, [(0, 1, 0.0)]),
            (3, [(0, 1, -2.0)]),
            (3, [(0, 1, float("nan"))]),
            (3, [(0, 1, float("inf"))]),
        ],
    )
    def test_rejects_invalid(self, n, edges):
        with pytest.raises(ValueError):
            rs.WeightedGraph(n, edges)

    def test_frozen(self, triangle):
        with pytest.raises(AttributeError):
            triangle.n = 5


class TestIncidence:
    def test_single_edge_row(self):
        f = rs.incidence_factors(rs.WeightedGraph(2, [(0, 1, 1.0)]))
        assert f.incidence.toarray().tolist() == [[1.0, -1.0]]
        assert f.weights.tolist() == [1.0]

    def test_orientation_smaller_index_positive(self):
        f = rs.incidence_factors(rs.WeightedGraph(3, [(2, 0, 3.0)]))
        assert f.incidence.toarray().tolist() == [[1.0, 0.0, -1.0]]
        assert f.weights.tolist() == [3.0]

    def test_triangle_gram(self, triangle):
        f = rs.incidence_factors(triangle)
        b = f.incidence.toarray()
        expected = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        np.testing.assert_allclose(b.T @ b, expected, atol=1e-14)

    def test_rows_sum_to_zero(self, triangle):
        f = rs.incidence_factors(triangle)
        np.testing.assert_allclose(
            np.asarray(f.incidence.sum(axis=1)).ravel(), 0.0, atol=0.0
        )


class TestLaplacian:
    def test_single_unit_edge(self, single_edge):
        np.testing.assert_allclose(
            rs.laplacian_of(single_edge).toarray(), [[1, -1], [-1, 1]]
        )

    def test_triangle(self, triangle):
        np.testing.assert_allclose(
            rs.laplacian_of(triangle).toarray(),
            [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
        )

    def test_weighted_path(self):
        g = rs.path(3, weights=[2.0, 3.0])
        np.testing.assert_allclose(
            rs.laplacian_of(g).toarray(),
            [[2, -2, 0], [-2, 5, -3], [0, -3, 3]],
        )

    def test_parallel_edges_merge(self):
        g = rs.WeightedGraph(2, [(0, 1, 1.0), (1, 0, 2.5)])
        np.testing.assert_allclose(
            rs.laplacian_of(g).toarray(), [[3.5, -3.5], [-3.5, 3.5]]
        )

    @given(weighted_graphs())
    @settings(max_examples=60, deadline=None)
    def test_two_construction_paths_agree(self, g):
        L = rs.laplacian_of(g).toarray()
        f = rs.incidence_factors(g)
        via_factors = f.incidence.T @ (f.weights[:, None] * f.incidence.toarray())
        scale = max(1.0, np.abs(L).max())
        assert np.max(np.abs(L - via_factors)) <= 1e-12 * scale
        np.testing.assert_allclose(L, dense_laplacian(g), atol=1e-12 * scale)

    def test_parallel_edges_exactly_symmetric(self):
        # nine parallel edges whose (0, 1) and (1, 0) sums differ in the last
        # bit when the two triangles are accumulated separately
        weights = [1.0, 1.1] + [1.0] * 6 + [56.706452722149336]
        g = rs.WeightedGraph(2, [(0, 1, w) for w in weights])
        L = rs.laplacian_of(g).toarray()
        assert np.max(np.abs(L - L.T)) == 0.0
        assert L[0, 0] == pytest.approx(sum(weights), rel=1e-15)

    @given(weighted_graphs())
    @settings(max_examples=60, deadline=None)
    def test_laplacian_invariants(self, g):
        L = rs.laplacian_of(g).toarray()
        assert np.max(np.abs(L @ np.ones(g.n))) <= 1e-12 * max(1.0, np.abs(L).max())
        assert np.max(np.abs(L - L.T)) == 0.0
        assert np.linalg.eigvalsh(L).min() >= -1e-10 * max(1.0, np.abs(L).max())


class TestFamilies:
    def test_path_shape(self):
        g = rs.path(5)
        assert g.n == 5 and g.m == 4
        assert rs.component_count(g) == 1

    def test_cycle_closes(self):
        g = rs.cycle(4)
        assert (3, 0, 1.0) in g.edges

    def test_complete_edge_count(self):
        assert rs.complete(6).m == 15

    def test_random_tree_is_tree(self):
        g = rs.random_tree(20, np.random.default_rng(0))
        assert g.m == 19
        assert rs.component_count(g) == 1

    def test_random_connected_is_connected(self):
        for seed in range(5):
            g = rs.random_connected(12, np.random.default_rng(seed))
            assert rs.component_count(g) == 1
            assert g.m >= 11

    def test_component_count_disconnected(self):
        g = rs.WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert rs.component_count(g) == 2
