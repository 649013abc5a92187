import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

import resist_sketch as rs
from resist_sketch import sampling, spectral
from conftest import bridged_triangles, connected_graphs, sparsifier_laplacian
from oracles import inverse_cdf_draws, materialized_sampler_product, orthonormal_basis


def plan_for(g, r=500, seed=0, beta=1.0, epsilon=0.5):
    prof = rs.spectral_profile(rs.incidence_factors(g))
    p = rs.leverage_probabilities(prof, beta=beta)
    return rs.SamplingPlan(
        probabilities=p, beta=beta, epsilon=epsilon, c0=1.0, r=r, seed=seed
    )


class TestSampleCount:
    def test_known_values(self):
        assert rs.sample_count(30, 0.5) == 33169
        assert rs.sample_count(2, 0.9) == 702

    def test_monotone_in_beta(self):
        assert rs.sample_count(10, 0.5, beta=0.5) >= rs.sample_count(10, 0.5, beta=1.0)

    def test_monotone_in_epsilon(self):
        assert rs.sample_count(10, 0.3) > rs.sample_count(10, 0.6)

    def test_log_argument_guard(self):
        # 36 c0^2 n / (beta eps) must exceed 1
        with pytest.raises(rs.ParameterError, match="36"):
            rs.sample_count(1, 0.9, beta=1.0, c0=0.005)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, epsilon=0.5),
            dict(n=5, epsilon=0.0),
            dict(n=5, epsilon=1.0),
            dict(n=5, epsilon=0.5, beta=0.0),
            dict(n=5, epsilon=0.5, beta=1.0001),
            dict(n=5, epsilon=0.5, c0=0.0),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(rs.ParameterError):
            rs.sample_count(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(c0=math.inf),
            dict(c0=1e200),  # c0^2 overflows
            dict(c0=1e152),  # x is finite, 2 x ln x is not
            dict(epsilon=1e-320),
            dict(beta=1e-320),
        ],
    )
    def test_overflowing_count_refused(self, kwargs):
        with pytest.raises(rs.ParameterError, match="overflows"):
            rs.sample_count(**{"n": 3, "epsilon": 0.5, **kwargs})

    def test_finite_count_past_int64_left_to_the_plan(self):
        r = rs.sample_count(3, 0.5, c0=1e150)
        assert r >= 2**63
        with pytest.raises(rs.ParameterError, match=r"below 2\*\*63"):
            plan_for(rs.complete(3), r=r)

    @given(
        st.integers(min_value=2, max_value=500),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=80, deadline=None)
    def test_formula(self, n, epsilon):
        x = 36.0 * n / epsilon
        assert rs.sample_count(n, epsilon) == math.ceil(2.0 * x * math.log(x))


class TestSamplingPlan:
    def test_validates_probabilities(self):
        with pytest.raises(rs.ParameterError, match="sum"):
            rs.SamplingPlan(
                probabilities=np.array([0.6, 0.6]),
                beta=1.0, epsilon=0.5, c0=1.0, r=10, seed=0,
            )
        with pytest.raises(rs.ParameterError, match="non-negative"):
            rs.SamplingPlan(
                probabilities=np.array([1.5, -0.5]),
                beta=1.0, epsilon=0.5, c0=1.0, r=10, seed=0,
            )

    def test_validates_scalars(self):
        p = np.array([1.0])
        for kwargs in (
            dict(beta=0.0), dict(epsilon=1.0), dict(c0=-1.0),
            dict(r=0), dict(r=2**63), dict(seed=-1), dict(seed=2**64),
        ):
            full = dict(beta=1.0, epsilon=0.5, c0=1.0, r=10, seed=0)
            full.update(kwargs)
            with pytest.raises(rs.ParameterError):
                rs.SamplingPlan(probabilities=p, **full)

    def test_probabilities_are_copied_and_frozen(self):
        p = np.array([0.5, 0.5])
        plan = rs.SamplingPlan(probabilities=p, beta=1.0, epsilon=0.5, c0=1.0, r=5, seed=0)
        p[0] = 0.9
        assert plan.probabilities[0] == 0.5
        with pytest.raises(ValueError):
            plan.probabilities[0] = 0.1


class TestDrawSamples:
    """draw_counts: the per-edge counts of plan.r i.i.d. draws."""

    def test_degenerate_distribution(self):
        plan = rs.SamplingPlan(
            probabilities=np.array([1.0, 0.0, 0.0]),
            beta=1.0, epsilon=0.5, c0=1.0, r=200, seed=3,
        )
        np.testing.assert_array_equal(rs.draw_counts(plan), [200, 0, 0])

    def test_deterministic(self, triangle):
        plan = plan_for(triangle, r=1000, seed=42)
        np.testing.assert_array_equal(rs.draw_counts(plan), rs.draw_counts(plan))

    def test_seed_changes_sequence(self, triangle):
        a = rs.draw_counts(plan_for(triangle, r=1000, seed=1))
        b = rs.draw_counts(plan_for(triangle, r=1000, seed=2))
        assert not np.array_equal(a, b)

    def test_uniform_band(self):
        # ±4 sigma band around r/3 for three equally likely edges
        plan = rs.SamplingPlan(
            probabilities=np.ones(3) / 3,
            beta=1.0, epsilon=0.5, c0=1.0, r=30000, seed=20260818,
        )
        counts = rs.draw_counts(plan)
        assert counts.sum() == 30000
        assert np.all(counts >= 9600) and np.all(counts <= 10400)

    def test_zero_probability_edges_never_drawn(self):
        p = np.array([0.25, 0.0, 0.75, 0.0])
        plan = rs.SamplingPlan(probabilities=p, beta=1.0, epsilon=0.5, c0=1.0, r=5000, seed=11)
        counts = rs.draw_counts(plan)
        assert counts[1] == 0 and counts[3] == 0
        assert counts.sum() == 5000

    def test_trailing_zero_probability_with_short_cdf(self):
        # probabilities whose sum falls a hair short of 1; the rounding
        # remainder must land on an edge with mass, not on the trailing
        # zero-probability one
        p = np.full(7, 1.0 / 7.0)
        p = np.append(p, 0.0)
        p = p / p.sum()
        assert np.cumsum(p)[-1] < 1.0
        plan = rs.SamplingPlan(probabilities=p, beta=1.0, epsilon=0.5, c0=1.0, r=100000, seed=5)
        counts = rs.draw_counts(plan)
        assert counts[7] == 0
        assert counts.sum() == 100000

    def test_counts_frozen_int64(self, triangle):
        counts = rs.draw_counts(plan_for(triangle, r=100, seed=0))
        assert counts.dtype == np.int64 and counts.shape == (3,)
        with pytest.raises(ValueError):
            counts[0] = 1

    def test_histograms_match_inverse_cdf_oracle(self):
        # Both samplers draw multinomial(r, p) counts; over many seeds their
        # per-edge means and variances must agree with r p and r p (1 - p).
        p = np.array([0.4, 0.0, 0.3, 0.15, 0.1, 0.05, 0.0])
        r, seeds = 2000, 400
        ours = np.array([
            rs.draw_counts(rs.SamplingPlan(
                probabilities=p, beta=1.0, epsilon=0.5, c0=1.0, r=r, seed=s
            ))
            for s in range(seeds)
        ])
        oracle = np.array([
            np.bincount(inverse_cdf_draws(p, r, s), minlength=p.size)
            for s in range(seeds)
        ])
        var = r * p * (1.0 - p)
        for counts in (ours, oracle):
            assert np.all(counts.sum(axis=1) == r)
            assert np.all(counts[:, p == 0.0] == 0)
            # mean within 5 standard errors of r p
            assert np.all(np.abs(counts.mean(axis=0) - r * p) <= 5.0 * np.sqrt(var / seeds))
            # sample variance within 30% of the multinomial variance
            live = p > 0.0
            ratio = counts[:, live].var(axis=0, ddof=1) / var[live]
            assert np.all(np.abs(ratio - 1.0) <= 0.3)
        gap = np.abs(ours.mean(axis=0) - oracle.mean(axis=0))
        assert np.all(gap <= 5.0 * np.sqrt(2.0 * var / seeds))


class TestBuildSparsifier:
    def test_single_edge_is_exact(self, single_edge):
        factors = rs.incidence_factors(single_edge)
        plan = plan_for(single_edge, r=17, seed=9)
        system = rs.build_sparsifier(factors, plan)
        np.testing.assert_allclose(
            sparsifier_laplacian(system).toarray(),
            rs.laplacian_of(single_edge).toarray(),
            atol=1e-14,
        )
        assert system.distinct_edges == 1

    def test_matches_materialized_operator(self, triangle):
        factors = rs.incidence_factors(triangle)
        plan = plan_for(triangle, r=400, seed=99)
        counts = rs.draw_counts(plan)
        system = rs.build_sparsifier(factors, plan)
        reference = materialized_sampler_product(
            factors.incidence.toarray(),
            factors.weights,
            plan.probabilities,
            np.repeat(np.arange(triangle.m), counts),
        )
        np.testing.assert_allclose(sparsifier_laplacian(system).toarray(), reference, atol=1e-12)

    def test_aggregated_weights(self, triangle):
        factors = rs.incidence_factors(triangle)
        plan = plan_for(triangle, r=300, seed=4)
        counts = rs.draw_counts(plan)
        system = rs.build_sparsifier(factors, plan)
        np.testing.assert_array_equal(system.edges, np.flatnonzero(counts))
        for i, w in zip(system.edges, system.weights):
            expected = factors.weights[i] * counts[i] / (plan.r * plan.probabilities[i])
            assert w == pytest.approx(expected, rel=1e-14)

    def test_plan_graph_mismatch(self, triangle, single_edge):
        plan = plan_for(single_edge)
        with pytest.raises(rs.ParameterError, match="edges"):
            rs.build_sparsifier(rs.incidence_factors(triangle), plan)

    def test_bit_identical_for_fixed_seed(self, triangle):
        factors = rs.incidence_factors(triangle)
        plan = plan_for(triangle, r=800, seed=123)
        a = rs.build_sparsifier(factors, plan)
        b = rs.build_sparsifier(factors, plan)
        np.testing.assert_array_equal(a.edges, b.edges)
        assert (sparsifier_laplacian(a) != sparsifier_laplacian(b)).nnz == 0
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_zero_probability_hit_rejected(self, monkeypatch):
        # draw_counts never hits a zero-probability edge; a sampler that did
        # must be caught rather than divide by zero
        g = rs.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        plan = rs.SamplingPlan(
            probabilities=np.array([1.0, 0.0]), beta=1.0, epsilon=0.5, c0=1.0, r=4, seed=0
        )
        monkeypatch.setattr(sampling, "draw_counts", lambda plan: np.array([3, 1]))
        with pytest.raises(RuntimeError, match="zero probability"):
            rs.build_sparsifier(rs.incidence_factors(g), plan)

    def test_memory_independent_of_r(self):
        # 10^12 draws on complete(8): counts are O(m), nothing of size r
        g = rs.complete(8)
        factors = rs.incidence_factors(g)
        plan = plan_for(g, r=10**12, seed=1)
        tracemalloc.start()
        try:
            system = rs.build_sparsifier(factors, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert system.distinct_edges == g.m

    @given(connected_graphs(), st.integers(min_value=1, max_value=2000),
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_sparsifier_invariants(self, g, r, seed):
        factors = rs.incidence_factors(g)
        plan = plan_for(g, r=r, seed=seed)
        counts = rs.draw_counts(plan)
        system = rs.build_sparsifier(factors, plan)
        laplacian = sparsifier_laplacian(system)
        lap = laplacian.toarray()
        scale = max(1.0, np.abs(lap).max())
        assert np.max(np.abs(lap @ np.ones(g.n))) <= 1e-10 * scale
        assert np.max(np.abs(lap - lap.T)) == 0.0
        assert np.linalg.eigvalsh(lap).min() >= -1e-10 * scale
        assert system.distinct_edges <= min(r, g.m)
        assert laplacian.nnz <= g.n + 2 * r
        assert system.nnz == laplacian.nnz
        assert counts.sum() == r

    @pytest.mark.parametrize(
        "g",
        [
            # isolated vertices 2 and 6, parallel edges given in both endpoint orders
            rs.WeightedGraph(
                7, [(0, 1, 1.0), (1, 0, 2.5), (3, 4, 0.5), (4, 3, 0.5), (5, 4, 3.0), (0, 1, 1e-3)]
            ),
            rs.WeightedGraph(
                5,
                [(0, 1, 1.0), (1, 0, 2.5), (1, 2, 0.3), (2, 1, 4.0), (2, 3, 1.0),
                 (3, 4, 2.0), (4, 0, 0.7), (0, 4, 1.5), (1, 3, 3.0)],
            ),
        ],
    )
    @pytest.mark.parametrize("r", [1, 4, 500])
    def test_nnz_without_assembly(self, g, r):
        system = rs.build_sparsifier(rs.incidence_factors(g), plan_for(g, r=r, seed=r))
        nnz = system.nnz
        assert "laplacian" not in vars(system)  # counted from the edges, not assembled
        assert nnz == sparsifier_laplacian(system).nnz

    def test_unbiased_mean(self, triangle):
        # trial mean over 500 draws at r=1000 lands entrywise within 0.05
        factors = rs.incidence_factors(triangle)
        L = rs.laplacian_of(triangle).toarray()
        plan0 = plan_for(triangle, r=1000)
        acc = np.zeros_like(L)
        trials = 500
        for t in range(trials):
            plan = dataclasses.replace(plan0, seed=rs.trial_seed(77, t))
            acc += sparsifier_laplacian(rs.build_sparsifier(factors, plan)).toarray()
        assert np.max(np.abs(acc / trials - L)) <= 0.05


def sparsified(g, probabilities=None, r=500, seed=0):
    """Profile, plan and drawn sparsifier of g, at leverage probabilities by default."""
    factors = rs.incidence_factors(g)
    prof = rs.spectral_profile(factors)
    if probabilities is None:
        probabilities = rs.leverage_probabilities(prof)
    plan = rs.SamplingPlan(
        probabilities=probabilities, beta=1.0, epsilon=0.5, c0=1.0, r=r, seed=seed
    )
    return prof, plan, rs.build_sparsifier(factors, plan)


class TestConcentrationCheck:
    def test_single_edge_zero_deviation(self, single_edge):
        prof, _, system = sparsified(single_edge, r=50, seed=2)
        assert rs.concentration_check(prof, system) == 0.0

    def test_equals_singular_value_deviation(self, triangle):
        prof, plan, system = sparsified(triangle, r=400, seed=99)
        samples = np.repeat(np.arange(triangle.m), rs.draw_counts(plan))
        S = np.zeros((triangle.m, plan.r))
        S[samples, np.arange(plan.r)] = 1.0 / np.sqrt(plan.r * plan.probabilities[samples])
        sv = np.linalg.svd(S.T @ orthonormal_basis(triangle), compute_uv=False)
        expected = float(np.max(np.abs(sv**2 - 1.0)))
        assert rs.concentration_check(prof, system) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "g, r",
        [
            (rs.random_connected(12, np.random.default_rng(5), extra_edge_prob=0.4), 150),
            # the Laplacian's assembled rows cancel across a faint bridge:
            # summed that way, this deviation is 1.5e-5 off
            (bridged_triangles(1e-10), 5000),
            # parallel edges in both endpoint orders, read one by one, not summed
            (
                rs.WeightedGraph(
                    5,
                    [(0, 1, 1.0), (1, 0, 2.5), (1, 2, 0.3), (2, 1, 4.0), (2, 3, 1.0),
                     (3, 4, 2.0), (4, 0, 0.7), (0, 4, 1.5), (1, 3, 3.0)],
                ),
                400,
            ),
        ],
        ids=["random", "faint-bridge", "multigraph"],
    )
    def test_matches_oracle_gram(self, g, r):
        # the deviation is that of the edges and rescalings the sparsifier
        # kept, on an independent orthonormal basis of the scaled incidence
        prof, _, system = sparsified(g, r=r, seed=31)
        rows = orthonormal_basis(g)[system.edges]
        scale = system.weights / g.weights()[system.edges]
        eigs = np.linalg.eigvalsh(rows.T @ (rows * scale[:, None]))
        expected = float(np.max(np.abs(eigs - 1.0)))
        assert rs.concentration_check(prof, system) == pytest.approx(expected, rel=1e-12, abs=0)
        # the sparsified solve reads the drawn edges; their assembled matrix agrees
        b = np.random.default_rng(8).standard_normal(g.n)
        via_edges = rs.solve_sparsified(system, b).x
        via_matrix = rs.solve_exact(sparsifier_laplacian(system), b).x
        scale = np.abs(via_matrix).max()
        np.testing.assert_allclose(via_edges, via_matrix, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize(
        "g, probabilities",
        [
            # two unit triangles; the draw never takes the bridge between them
            (bridged_triangles(), np.r_[np.full(6, 1 / 6), 0.0]),
            # a triangle and a separate edge; the draw never takes that edge
            (
                rs.WeightedGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0)]),
                np.r_[np.full(3, 1 / 3), 0.0],
            ),
        ],
        ids=["missed-bridge", "missed-component"],
    )
    def test_split_component_deviation_one(self, g, probabilities):
        prof, _, system = sparsified(g, probabilities, r=6000, seed=3)
        assert rs.concentration_check(prof, system) == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch_rejected(self, triangle, single_edge):
        prof = rs.spectral_profile(rs.incidence_factors(single_edge))
        _, _, system = sparsified(triangle)
        with pytest.raises(rs.ParameterError, match="vertices"):
            rs.concentration_check(prof, system)


def two_blocks(bridge: float, seed: int = 7) -> rs.WeightedGraph:
    """Two random 150-vertex blocks joined by one edge of weight ``bridge``, the last edge."""
    rng = np.random.default_rng(seed)
    a, b = (rs.random_connected(150, rng, extra_edge_prob=0.05) for _ in range(2))
    shifted = [(u + 150, v + 150, w) for u, v, w in b.edges]
    return rs.WeightedGraph(300, list(a.edges) + shifted + [(7, 150 + 11, bridge)])


def oracle_deviation(g, system) -> float:
    """max |lambda - 1| of the sampled Gram matrix on an independent orthonormal basis."""
    rows = orthonormal_basis(g)[system.edges]
    scale = system.weights / g.weights()[system.edges]
    return float(np.max(np.abs(np.linalg.eigvalsh(rows.T @ (rows * scale[:, None])) - 1.0)))


def eigvalsh_deviation(prof, system) -> float:
    """The full-eigendecomposition deviation of the Gram matrix the check forms.

    Either finish, triangular or gathered, leaves it in the upper triangle.
    """
    gram = spectral._grounded_gram(system.elimination, prof.factor, prof.row_map)
    return float(np.max(np.abs(np.linalg.eigvalsh(gram, UPLO="U") - 1.0)))


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Record the shape of every matrix concentration_check hands to eigsh."""
    calls, real = [], sampling.eigsh

    def spy(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(sampling, "eigsh", spy)
    return calls


class TestLanczosDeviation:
    """Gram ranks at or above the Lanczos threshold, where ARPACK finds the deviation."""

    @pytest.mark.parametrize(
        "g",
        [
            rs.random_connected(300, np.random.default_rng(3), extra_edge_prob=0.02),
            # the assembled rows of L' would cancel across this bridge
            two_blocks(1e-10),
        ],
        ids=["random", "faint-bridge"],
    )
    def test_matches_oracle_gram(self, g, eigsh_calls):
        prof, _, system = sparsified(g, r=20000, seed=5)
        assert prof.rank >= sampling._LANCZOS_RANK
        expected = oracle_deviation(g, system)
        assert expected < 1.0  # the draw spans the graph, the bridge included
        assert rs.concentration_check(prof, system) == pytest.approx(expected, rel=1e-12, abs=0)
        assert eigsh_calls == [(prof.rank, prof.rank)]

    @staticmethod
    def missed_bridge():
        """Profile and sparsifier of a draw on two_blocks(1.0) that never takes the bridge."""
        g = two_blocks(1.0)
        leverage = rs.leverage_probabilities(rs.spectral_profile(rs.incidence_factors(g)))
        probabilities = np.r_[leverage[:-1], 0.0] / leverage[:-1].sum()
        prof, _, system = sparsified(g, probabilities, r=50000, seed=3)
        return prof, system

    def test_missed_bridge_deviation_one(self, eigsh_calls):
        prof, system = self.missed_bridge()
        assert rs.concentration_check(prof, system) == pytest.approx(1.0, abs=1e-12)
        assert len(eigsh_calls) == 1

    def test_full_rank_draw_gram_is_triangular(self):
        # a draw that keeps the components has the profile's grounds, so M is
        # upper triangular and M M^T is written over it, its zeros kept below
        prof, _, system = sparsified(two_blocks(1e-3), r=20000, seed=9)
        assert system.elimination[4].size == prof.rank
        gram = spectral._grounded_gram(system.elimination, prof.factor, prof.row_map)
        assert not np.tril(gram, -1).any()

    def test_missed_bridge_gram_is_gathered(self):
        # a rank shortfall gathers Y and forms M^T M whole
        prof, system = self.missed_bridge()
        assert system.elimination[4].size == prof.rank - 1
        gram = spectral._grounded_gram(system.elimination, prof.factor, prof.row_map)
        np.testing.assert_array_equal(gram, gram.T)

    def test_repeat_calls_bit_identical(self):
        prof, _, system = sparsified(two_blocks(1e-3), r=20000, seed=9)
        assert rs.concentration_check(prof, system) == rs.concentration_check(prof, system)

    @pytest.mark.parametrize(
        "error",
        [
            ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0))),
            ArpackError(-9),
        ],
        ids=["no-convergence", "arpack-error"],
    )
    def test_arpack_failure_falls_back_to_eigvalsh(self, monkeypatch, error):
        # one diagonal entry of this Gram matrix is 0.115, where (g - 1) + 1 != g:
        # the fallback must restore the diagonal the Lanczos path shifted
        prof, system = self.missed_bridge()
        raised = []

        def fail(*args, **kwargs):
            raised.append(error)
            raise error

        monkeypatch.setattr(sampling, "eigsh", fail)
        assert rs.concentration_check(prof, system) == eigvalsh_deviation(prof, system)
        assert raised == [error]

    def test_below_threshold_is_eigvalsh_bit_for_bit(self, eigsh_calls):
        g = rs.random_connected(12, np.random.default_rng(5), extra_edge_prob=0.4)
        prof, _, system = sparsified(g, r=150, seed=31)
        assert prof.rank < sampling._LANCZOS_RANK
        assert rs.concentration_check(prof, system) == eigvalsh_deviation(prof, system)
        assert eigsh_calls == []
