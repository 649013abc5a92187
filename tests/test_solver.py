import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

import resist_sketch as rs
from conftest import bridged_triangles, connected_graphs, weighted_graphs
from oracles import eig_pinv, incidence_matrix, pinv_factor, solve_rational
from resist_sketch.solve import _laplacian_times
from test_spectral import _parallel_pair, _three_components, _wide_weight_graph


def profile_of(g):
    return rs.spectral_profile(rs.incidence_factors(g))


class TestSolveExact:
    def test_two_vertex(self, single_edge):
        L = rs.laplacian_of(single_edge)
        report = rs.solve_exact(L, np.array([1.0, -1.0]))
        np.testing.assert_allclose(report.x, [0.5, -0.5], atol=1e-14)
        assert report.residual_two_norm <= 1e-12
        assert report.rank == 1

    def test_null_space_rhs_gives_zero(self, triangle):
        L = rs.laplacian_of(triangle)
        b = np.ones(3)
        report = rs.solve_exact(L, b)
        np.testing.assert_allclose(report.x, 0.0, atol=1e-12)
        assert report.residual_two_norm == pytest.approx(np.linalg.norm(b), rel=1e-12)

    def test_zero_rhs(self, triangle):
        report = rs.solve_exact(rs.laplacian_of(triangle), np.zeros(3))
        np.testing.assert_allclose(report.x, 0.0, atol=0.0)
        assert report.residual_two_norm == 0.0

    def test_profile_route_matches_direct(self):
        rng = np.random.default_rng(14)
        for _ in range(8):
            g = rs.random_connected(11, rng)
            L = rs.laplacian_of(g)
            b = rng.standard_normal(g.n)
            profile = profile_of(g)
            direct = rs.solve_exact(L, b)
            routed = rs.solve_exact(L, b, profile=profile)
            np.testing.assert_allclose(routed.x, direct.x, atol=1e-9)
            # the factors and the assembled matrix are the same operand
            factors = rs.incidence_factors(g)
            for via_matrix, prof in ((direct, None), (routed, profile)):
                via_edges = rs.solve_exact(factors, b, profile=prof)
                np.testing.assert_array_equal(via_edges.x, via_matrix.x)
                assert via_edges.residual_two_norm == pytest.approx(
                    via_matrix.residual_two_norm, rel=1e-12, abs=1e-14
                )

    @given(weighted_graphs())
    @settings(max_examples=30, deadline=None)
    def test_profile_route_reads_f(self, g):
        # x comes from F by two triangular products, H never formed; on any
        # components it is H (H^T b) for the profile's H
        prof = profile_of(g)
        b = np.random.default_rng(g.n).standard_normal(g.n)
        h = pinv_factor(prof)
        expected = h @ (h.T @ b)
        x = rs.solve_exact(rs.incidence_factors(g), b, profile=prof).x
        np.testing.assert_allclose(x, expected, rtol=0, atol=1e-13 * np.abs(expected).max())

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(8):
            g = rs.random_connected(10, rng)
            L = rs.laplacian_of(g)
            b = rng.standard_normal(g.n)
            x = rs.solve_exact(L, b).x
            x_oracle = eig_pinv(L.toarray()) @ b
            assert np.linalg.norm(x - x_oracle) <= 1e-9 * max(np.linalg.norm(x_oracle), 1.0)

    @pytest.mark.parametrize("span", [8, 12, 16])
    def test_wide_weight_spans_without_profile(self, span):
        # the positive elimination keeps every entry; a Cholesky of the
        # assembled Laplacian was off by 1.8e-9, 2.3e-5 and 7.5e-2 here
        for seed in range(8):
            g = _wide_weight_graph(seed, span)
            b = np.random.default_rng(seed).standard_normal(g.n)
            exact = solve_rational(g, b)
            x = rs.solve_exact(rs.incidence_factors(g), b).x
            np.testing.assert_allclose(x, exact, rtol=0, atol=1e-14 * np.abs(exact).max())

    def test_dimension_mismatch(self, triangle):
        with pytest.raises(rs.ParameterError, match="shape"):
            rs.solve_exact(rs.laplacian_of(triangle), np.ones(4))

    def test_non_finite_rhs(self, triangle):
        with pytest.raises(rs.ParameterError, match="finite"):
            rs.solve_exact(rs.laplacian_of(triangle), np.array([1.0, np.nan, 0.0]))

    @given(connected_graphs(), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_minimal_norm_solution_has_no_null_component(self, g, seed):
        rng = np.random.default_rng(seed)
        L = rs.laplacian_of(g)
        report = rs.solve_exact(L, rng.standard_normal(g.n))
        assert report.null_component <= 1e-8 * max(np.linalg.norm(report.x), 1e-30)

    @given(weighted_graphs())
    @example(rs.WeightedGraph(4, [(0, 1, 17.0), (0, 2, 0.01), (2, 3, 1.0), (2, 3, 84.0)]))
    @settings(max_examples=30, deadline=None)
    def test_pseudoinverse_laws(self, g):
        L = rs.laplacian_of(g).toarray()
        # recover the implied pseudoinverse column by column
        pinv = np.column_stack([rs.solve_exact(L, e).x for e in np.eye(g.n)])
        nL = max(np.linalg.norm(L), 1e-30)
        nP = max(np.linalg.norm(pinv), 1e-30)
        assert np.linalg.norm(L @ pinv @ L - L) <= 1e-10 * nL
        assert np.linalg.norm(pinv @ L @ pinv - pinv) <= 1e-10 * nP
        assert np.linalg.norm(L @ pinv - (L @ pinv).T) <= 1e-10
        assert np.linalg.norm(pinv @ L - (pinv @ L).T) <= 1e-10


class TestInputChecks:
    """What solve._edges reads of a matrix, and the length a solution must have."""

    B = np.array([1.0, 0.0, -1.0])

    def test_stored_zero_is_no_edge(self):
        # a CSR Laplacian may store an explicit zero: no edge, and no weight to scale by
        L = rs.laplacian_of(rs.path(3)).tocoo()
        stored = sparse.csr_matrix(
            (np.r_[L.data, 0.0], (np.r_[L.row, 0], np.r_[L.col, 2])), shape=L.shape
        )
        assert stored.nnz == L.nnz + 1
        assert rs.solve_exact(stored, self.B).x.tobytes() == rs.solve_exact(L, self.B).x.tobytes()
        assert rs.energy_norm(stored, self.B) == rs.energy_norm(L, self.B) == 2.0

    ROUTES = ["solve_exact", "energy_norm", "error_report"]

    def calls(self, M):
        """Each call that reads M as edges, by route."""
        x = rs.solve_exact(rs.incidence_factors(rs.path(3)), self.B)
        return {
            "solve_exact": lambda: rs.solve_exact(M, self.B),
            "energy_norm": lambda: rs.energy_norm(M, self.B),
            "error_report": lambda: rs.error_report(x, x, M, 0.5),
        }

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("entry", [1.0, -math.inf])
    def test_off_diagonal_refused(self, route, entry):
        # no Laplacian has one: read as an edge, its weight is negative or infinite
        M = sparse.csr_matrix(
            np.array([[1.0, entry, -1.0], [entry, 1.0, -1.0], [-1.0, -1.0, 2.0]])
        )
        with pytest.raises(rs.ParameterError, match=rf"off-diagonal entry \(0, 1\) is {entry!r}"):
            self.calls(M)[route]()

    @pytest.mark.parametrize("route", ROUTES)
    def test_non_square_refused(self, route):
        # a Laplacian is square; its vertex count is not its row count alone
        M = sparse.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(rs.ParameterError, match=r"shape \(3, 2\), which is not square"):
            self.calls(M)[route]()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_solution_refused(self, bad):
        # energy_norm read nan, and error_report scored the solution without a word
        factors = rs.incidence_factors(rs.path(3))
        x = np.array([bad, 0.0, 0.0])
        report = rs.SolveReport(x=x, residual_two_norm=0.0, null_component=0.0, rank=2)
        finite = rs.solve_exact(factors, self.B)
        with pytest.raises(rs.ParameterError, match="solution must be finite"):
            rs.energy_norm(factors, x)
        for exact, sparsified in ((report, finite), (finite, report)):
            with pytest.raises(rs.ParameterError, match="solution must be finite"):
                rs.error_report(exact, sparsified, factors, 0.5)

    @pytest.mark.parametrize("size", [2, 4])
    def test_solution_length_checked(self, size):
        # x needs one entry per vertex, as b does; longer and shorter are refused
        factors = rs.incidence_factors(rs.path(3))
        x = np.arange(float(size))
        report = rs.SolveReport(x=x, residual_two_norm=0.0, null_component=0.0, rank=2)
        expected = rf"solution has shape \({size},\), expected \(3,\)"
        with pytest.raises(rs.ParameterError, match=expected):
            rs.energy_norm(factors, x)
        with pytest.raises(rs.ParameterError, match=expected):
            rs.error_report(report, report, factors, 0.5)


class TestSolveSparsified:
    def test_single_edge_matches_exact(self, single_edge):
        factors = rs.incidence_factors(single_edge)
        prof = profile_of(single_edge)
        plan = rs.SamplingPlan(
            probabilities=rs.leverage_probabilities(prof),
            beta=1.0, epsilon=0.5, c0=1.0, r=25, seed=6,
        )
        system = rs.build_sparsifier(factors, plan)
        b = np.array([2.0, -2.0])
        exact = rs.solve_exact(rs.laplacian_of(single_edge), b)
        approx = rs.solve_sparsified(system, b)
        np.testing.assert_allclose(approx.x, exact.x, atol=1e-12)

    def test_null_rhs_gives_zero(self, triangle):
        factors = rs.incidence_factors(triangle)
        prof = profile_of(triangle)
        plan = rs.SamplingPlan(
            probabilities=rs.leverage_probabilities(prof),
            beta=1.0, epsilon=0.5, c0=1.0, r=100, seed=1,
        )
        system = rs.build_sparsifier(factors, plan)
        report = rs.solve_sparsified(system, np.ones(3))
        np.testing.assert_allclose(report.x, 0.0, atol=1e-12)

    def test_rank_recorded(self, triangle):
        factors = rs.incidence_factors(triangle)
        prof = profile_of(triangle)
        plan = rs.SamplingPlan(
            probabilities=rs.leverage_probabilities(prof),
            beta=1.0, epsilon=0.5, c0=1.0, r=1, seed=0,
        )
        # a single draw keeps only one edge: rank 1, below the original 2
        system = rs.build_sparsifier(factors, plan)
        report = rs.solve_sparsified(system, np.array([1.0, 0.0, -1.0]))
        assert report.rank == 1

    def test_residual_past_the_squares_range(self):
        # the seed-3 draw on triangles bridged at 1e-300 solves to x near 3e299
        # and a residual near 1e284, whose squares overflow; its norm is finite
        g = bridged_triangles(1e-300)
        factors = rs.incidence_factors(g)
        plan = rs.SamplingPlan(
            probabilities=rs.leverage_probabilities(rs.spectral_profile(factors)),
            beta=1.0, epsilon=0.5, c0=1.0, r=rs.sample_count(g.n, 0.5), seed=3,
        )
        system = rs.build_sparsifier(factors, plan)
        b = rs.default_rhs(g.n, 3)
        report = rs.solve_sparsified(system, b)
        residual = _laplacian_times(system.factors, report.x) - b
        assert np.abs(residual).max() > 1e280
        assert report.residual_two_norm == pytest.approx(math.hypot(*residual), rel=1e-15, abs=0)


class TestWeightScaling:
    def test_overflowing_degrees_scale_exactly(self):
        # the hub's weighted degree, 5 * 2**1022, overflows float64; both solves
        # read only the edge weights, scaled by a power of two, so they give
        # the unit star's solutions times 2**(60 - 1022), bit for bit
        b = np.array([1.0, -2.0, 0.5, 3.0, -1.5, 0.25])
        solutions = []
        for weight, rhs in ((1.0, b), (2.0**1022, np.ldexp(b, 60))):
            g = rs.WeightedGraph(6, [(leaf, 5, weight) for leaf in range(5)])
            plan = rs.SamplingPlan(
                probabilities=rs.leverage_probabilities(profile_of(g)),
                beta=1.0, epsilon=0.5, c0=1.0, r=40, seed=4,
            )
            system = rs.build_sparsifier(rs.incidence_factors(g), plan)
            exact = rs.solve_exact(rs.laplacian_of(g), rhs)
            solutions.append((rs.solve_sparsified(system, rhs).x, exact.x))
        for unit, heavy in zip(*solutions):
            np.testing.assert_array_equal(heavy, np.ldexp(unit, -962))


class TestEdgeProducts:
    """The products with B read the edge arrays and equal the sparse B's, bit for bit."""

    @pytest.mark.parametrize(
        "g",
        [_parallel_pair(), _three_components(), _wide_weight_graph(11, 12)],
        ids=["parallel", "components", "span-1e12"],
    )
    def test_equal_the_sparse_products(self, g):
        factors = rs.incidence_factors(g)
        B, w = incidence_matrix(factors), factors.weights
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(g.n) * 10.0 ** rng.uniform(-12, 12, g.n)
            assert _laplacian_times(factors, x).tobytes() == (B.T @ (w * (B @ x))).tobytes()
            assert rs.energy_norm(factors, x) == float(np.dot(w, (B @ x) ** 2))


class TestEnergyNorm:
    def test_unit_edge(self, single_edge):
        L = rs.laplacian_of(single_edge)
        assert rs.energy_norm(L, np.array([0.5, -0.5])) == pytest.approx(1.0, abs=1e-12)

    def test_constant_vector_is_null(self, triangle):
        L = rs.laplacian_of(triangle)
        assert rs.energy_norm(L, 3.7 * np.ones(3)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_vector(self, triangle):
        assert rs.energy_norm(rs.laplacian_of(triangle), np.zeros(3)) == 0.0

    @pytest.mark.parametrize(
        "g, x, energy",
        [
            # the flow 1e200 squares past float64, the energy 1e100 does not
            (rs.path(3, [1e-300, 1e-300]), [1e200, 0.0, 0.0], 1e100),
            # five terms near 1e308 once the flows are scaled: the weights are too
            (rs.WeightedGraph(6, [(leaf, 5, 1e308) for leaf in range(5)]), [0.0] * 5 + [1e-5],
             5e298),
            # a weight 2**1074 below the largest, which a scaling to the largest would lose
            (rs.path(3, [1e300, 1e-30]), [0.0, 0.0, 1.0], 1e-30),
        ],
        ids=["flow-1e200", "star-1e308", "faint-1e-30"],
    )
    def test_flows_scaled_before_squaring(self, g, x, energy):
        factors = rs.incidence_factors(g)
        assert rs.energy_norm(factors, np.array(x)) == pytest.approx(energy, rel=1e-15)

    def test_energy_past_float64_refused(self):
        factors = rs.incidence_factors(rs.path(3, [1e300, 1e300]))
        with pytest.raises(rs.FactorizationError, match="past float64's range"):
            rs.energy_norm(factors, np.array([1e10, 0.0, 0.0]))

    @given(weighted_graphs(), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_matrix_and_factor_forms_agree(self, g, seed):
        x = np.random.default_rng(seed).standard_normal(g.n)
        L = rs.laplacian_of(g)
        factors = rs.incidence_factors(g)
        via_matrix = rs.energy_norm(L, x)
        via_factors = rs.energy_norm(factors, x)
        assert abs(via_matrix - via_factors) <= 1e-10 * max(1.0, via_matrix)
        assert via_factors >= 0.0


class TestErrorReport:
    def _scored(self, g, b, r, seed, epsilon=0.5):
        factors = rs.incidence_factors(g)
        prof = profile_of(g)
        L = rs.laplacian_of(g)
        plan = rs.SamplingPlan(
            probabilities=rs.leverage_probabilities(prof),
            beta=1.0, epsilon=epsilon, c0=1.0, r=r, seed=seed,
        )
        exact = rs.solve_exact(L, b, profile=prof)
        approx = rs.solve_sparsified(rs.build_sparsifier(factors, plan), b)
        return exact, rs.error_report(exact, approx, factors, epsilon)

    def test_identical_solutions_succeed(self, triangle):
        factors = rs.incidence_factors(triangle)
        L = rs.laplacian_of(triangle)
        b = np.array([1.0, 0.0, -1.0])
        exact = rs.solve_exact(L, b)
        scored = rs.error_report(exact, exact, factors, 0.5)
        assert scored.energy_error == pytest.approx(0.0, abs=1e-15)
        assert scored.relative_energy_error == pytest.approx(0.0, abs=1e-15)
        assert scored.success is True

    def test_single_edge_always_succeeds(self, single_edge):
        b = np.array([1.0, -1.0])
        _, scored = self._scored(single_edge, b, r=9, seed=123)
        assert scored.success is True
        assert scored.energy_error <= 1e-12

    def test_null_space_rhs_undefined_ratio(self, triangle):
        _, scored = self._scored(triangle, np.ones(3), r=500, seed=3)
        assert scored.relative_energy_error is None
        assert scored.success is True

    def test_faint_bridge_keeps_the_ratio(self):
        # a 1e-18 bridge: ||x||^2 = 1.25e36 outgrows the reference energy 8.3e17,
        # which must still count as nonzero, so the ratio stays defined
        g = bridged_triangles(1e-18)
        b = rs.default_rhs(g.n, 4)
        exact, scored = self._scored(g, b, r=5, seed=4)
        assert exact.x @ exact.x > 1e36
        factors = rs.incidence_factors(g)
        same = rs.error_report(exact, exact, factors, 0.5)
        assert same.relative_energy_error == 0.0 and same.success is True
        reference = rs.energy_norm(factors, exact.x)
        assert scored.relative_energy_error == scored.energy_error / reference

    def test_reasonable_sparsifier_succeeds(self, triangle):
        b = np.array([1.0, 0.0, -1.0])
        _, scored = self._scored(triangle, b, r=rs.sample_count(3, 0.5), seed=8)
        assert scored.success is True
        assert 0.0 <= scored.relative_energy_error <= 0.5

    def test_weights_spanning_past_the_subnormals(self):
        # the 1e-30 edge times 2**-a, a the 1e300 edge's exponent, would underflow
        # to zero; the energies scale the weights only where their sum could overflow
        factors = rs.incidence_factors(rs.path(3, [1e300, 1e-30]))
        exact = rs.SolveReport(
            x=np.array([1.0, 0.0, 0.0]), residual_two_norm=0.0, null_component=1.0, rank=2
        )
        sparsified = dataclasses.replace(exact, x=np.array([1.0, 0.0, 1.0]))
        scored = rs.error_report(exact, sparsified, factors, 0.5)
        assert scored.energy_error == pytest.approx(1e-30, rel=1e-15, abs=0)
        assert scored.success is True

    def test_bad_epsilon_rejected(self, triangle):
        L = rs.laplacian_of(triangle)
        exact = rs.solve_exact(L, np.array([1.0, 0.0, -1.0]))
        with pytest.raises(rs.ParameterError, match="epsilon"):
            rs.error_report(exact, exact, L, 1.0)

    def test_energy_quantities_nonnegative(self, triangle):
        rng = np.random.default_rng(21)
        for seed in range(10):
            b = rng.standard_normal(3)
            _, scored = self._scored(triangle, b, r=50, seed=seed)
            assert scored.energy_error >= -1e-10
            if scored.relative_energy_error is not None:
                assert scored.relative_energy_error >= -1e-10
