import io

import numpy as np
import pytest
from hypothesis import given, settings

import resist_sketch as rs
from conftest import weighted_graphs
from oracles import dense_laplacian, incidence_matrix
from resist_sketch.solve import _laplacian_times


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


class TestGraphContract:
    """What the array storage keeps of the edge-tuple graph."""

    @given(weighted_graphs())
    @settings(max_examples=40, deadline=None)
    def test_equal_edge_lists_equal_graphs(self, g):
        twin = rs.WeightedGraph(g.n, list(g.edges))
        assert twin == g and hash(twin) == hash(g)
        buffer = io.StringIO()
        rs.save_graph(g, buffer)
        loaded = rs.load_graph(io.StringIO(buffer.getvalue()))
        assert loaded == g and hash(loaded) == hash(g)

    def test_unequal_graphs(self, triangle):
        assert triangle != rs.WeightedGraph(4, triangle.edges)
        assert triangle != rs.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)])
        assert triangle != rs.WeightedGraph(3, [(1, 0, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert triangle != rs.WeightedGraph(3, triangle.edges[:2])
        assert triangle != triangle.edges

    def test_edges_are_python_scalars(self):
        g = rs.WeightedGraph(
            3, [(np.int64(0), np.int32(2), np.float64(0.1)), (np.uint8(1), 2, np.float32(2.5))]
        )
        assert g.edges == ((0, 2, 0.1), (1, 2, 2.5))
        assert all(type(x) is t for e in g.edges for x, t in zip(e, (int, int, float)))
        buffer = io.StringIO()
        rs.save_graph(g, buffer)
        assert buffer.getvalue() == "3 2\n0 2 0.1\n1 2 2.5\n"

    def test_arrays_read_only(self, triangle):
        for array in (triangle.weights(), rs.incidence_factors(triangle).weights):
            with pytest.raises(ValueError):
                array[0] = 2.0
        assert not any(a.flags.writeable for a in triangle._arrays)

    def test_edges_cannot_be_set_or_deleted(self, triangle):
        with pytest.raises(AttributeError):
            triangle.edges = ()
        with pytest.raises(AttributeError):
            del triangle.n

    @pytest.mark.parametrize(
        "n,edges,message",
        [
            (3, [(0, 1, 1.0), (0, 0, -1.0), (5, 1, 1.0)], "edge 1: self-loop at vertex 0"),
            (
                3,
                [(0, 1, 1.0), (3, 3, float("nan"))],
                "edge 1: endpoint out of range for n=3: (3, 3)",
            ),
            (3, [(0, 1, 0.0), (1, 1, 1.0)], "edge 0: weight must be finite and positive, got 0.0"),
            (
                3,
                [(0, 1, 1.0), (2**70, 0, -1.0), (1, 1, 1.0)],
                "edge 1: endpoint out of range for n=3: (1180591620717411303424, 0)",
            ),
            (
                3,
                [(0, 2, 2.5), (1, 2, float("inf")), (-1, 1, 1.0)],
                "edge 1: weight must be finite and positive, got inf",
            ),
            (1, [(0, 0, 1.0)], "vertex count must be >= 2, got 1"),
        ],
    )
    def test_first_fault_reported(self, n, edges, message):
        # the first bad edge, and its first failed check: endpoints, self-loop, weight
        with pytest.raises(ValueError) as exc:
            rs.WeightedGraph(n, edges)
        assert str(exc.value) == message


class TestIncidence:
    def test_single_edge_row(self):
        f = rs.incidence_factors(rs.WeightedGraph(2, [(0, 1, 1.0)]))
        assert (f.n, f.m, f.lo.tolist(), f.hi.tolist()) == (2, 1, [0], [1])
        assert incidence_matrix(f).toarray().tolist() == [[1.0, -1.0]]
        assert f.weights.tolist() == [1.0]

    def test_orientation_smaller_index_positive(self):
        f = rs.incidence_factors(rs.WeightedGraph(3, [(2, 0, 3.0)]))
        assert (f.lo.tolist(), f.hi.tolist()) == ([0], [2])
        assert incidence_matrix(f).toarray().tolist() == [[1.0, 0.0, -1.0]]
        assert f.weights.tolist() == [3.0]

    def test_triangle_gram(self, triangle):
        f = rs.incidence_factors(triangle)
        b = incidence_matrix(f).toarray()
        expected = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        np.testing.assert_allclose(b.T @ b, expected, atol=1e-14)

    def test_rows_sum_to_zero(self, triangle):
        f = rs.incidence_factors(triangle)
        np.testing.assert_allclose(
            np.asarray(incidence_matrix(f).sum(axis=1)).ravel(), 0.0, atol=0.0
        )

    @pytest.mark.parametrize(
        "lo, hi, w",
        [
            ([0, 4], [1, 3], [1.0, 1e-9]),  # ends swapped: the elimination would drop the edge
            ([0, 1], [1, 1], [1.0, 1.0]),  # a loop
            ([0, -1], [1, 1], [1.0, 1.0]),
            ([0, 1], [1, 6], [1.0, 1.0]),  # an end at n
            ([0, 1], [1, 2], [1.0, -1.0]),
            ([0, 1], [1, 2], [1.0, 0.0]),
            ([0, 1], [1, 2], [1.0, np.inf]),
            ([0, 1], [1, 2], [1.0, np.nan]),
        ],
        ids=["swapped", "loop", "negative-end", "end-at-n", "negative", "zero", "inf", "nan"],
    )
    def test_edges_the_elimination_cannot_read_refused(self, lo, hi, w):
        with pytest.raises(rs.ParameterError, match="edge 1 joins"):
            rs.IncidenceFactors(6, np.array(lo), np.array(hi), np.array(w))

    def test_no_edges_accepted(self):
        no_ends = np.empty(0, dtype=np.int64)
        assert rs.IncidenceFactors(2, no_ends, no_ends, np.empty(0)).m == 0


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
        via_factors = np.column_stack([_laplacian_times(f, e) for e in np.eye(g.n)])
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
