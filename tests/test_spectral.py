import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings

import resist_sketch as rs
from resist_sketch import spectral
from conftest import bridged_triangles, connected_graphs, weighted_graphs
from oracles import (
    dense_laplacian,
    eig_pinv,
    leverage_by_qr,
    pinv_factor,
    resistances_by_eig,
    resistances_exact,
)


def profile_of(g):
    return rs.spectral_profile(rs.incidence_factors(g))


class TestSpectralProfile:
    def test_triangle_scores(self, triangle):
        prof = profile_of(triangle)
        np.testing.assert_allclose(prof.leverage, 2.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(prof.resistance, 2.0 / 3.0, atol=1e-12)
        assert prof.rank == 2

    def test_weighted_path_resistances(self):
        # two resistors in series: 1/w each
        prof = profile_of(rs.path(3, weights=[2.0, 3.0]))
        np.testing.assert_allclose(prof.resistance, [0.5, 1.0 / 3.0], atol=1e-12)
        assert prof.rank == 2

    def test_complete4_resistances(self):
        prof = profile_of(rs.complete(4))
        np.testing.assert_allclose(prof.resistance, 0.5, atol=1e-12)
        np.testing.assert_allclose(prof.leverage.sum(), 3.0, atol=1e-12)

    def test_tree_leverage_is_one(self):
        g = rs.random_tree(30, np.random.default_rng(1))
        prof = profile_of(g)
        np.testing.assert_allclose(prof.leverage, 1.0, atol=1e-10)
        np.testing.assert_allclose(prof.resistance * g.weights(), 1.0, atol=1e-10)

    def test_no_edges_rejected(self):
        with pytest.raises(rs.ParameterError):
            rs.spectral_profile(_empty_factors())

    @given(weighted_graphs())
    @settings(max_examples=60, deadline=None)
    # isolated vertices 2 and 6, and parallel edges given in both endpoint orders
    @example(
        rs.WeightedGraph(
            7, [(0, 1, 1.0), (1, 0, 2.5), (3, 4, 0.5), (4, 3, 0.5), (5, 4, 3.0), (0, 1, 1e-3)]
        )
    )
    def test_profile_invariants(self, g):
        prof = profile_of(g)
        assert np.all(prof.leverage >= -1e-12)
        assert np.all(prof.leverage <= 1.0 + 1e-12)
        assert abs(prof.leverage.sum() - prof.rank) <= 1e-8
        assert prof.rank == g.n - rs.component_count(g)
        h = pinv_factor(prof)
        lap = dense_laplacian(g)
        assert np.linalg.norm(h.T @ lap @ h - np.eye(prof.rank)) <= 1e-10
        lp = eig_pinv(lap)
        assert np.linalg.norm(h @ h.T - lp) <= 1e-10 * np.linalg.norm(lp)

    @given(weighted_graphs())
    @settings(max_examples=40, deadline=None)
    # a dependent column whose round-off in R passes a fixed rank threshold
    @example(
        rs.WeightedGraph(2, [(0, 1, 0.01), (0, 1, 41.1403049029678), (0, 1, 25.660478953408123)])
    )
    def test_basis_independent_of_factorization(self, g):
        # same scores from a column-pivoted QR of the whole incidence matrix
        prof = profile_of(g)
        np.testing.assert_allclose(prof.leverage, leverage_by_qr(g), atol=1e-9)

    def test_no_edge_space_basis(self):
        # the profile holds nothing m x rank: the sampled Gram matrix comes
        # from the (rank + 1) x rank factor F
        g = rs.complete(6)
        prof = profile_of(g)
        for field in dataclasses.fields(prof):
            value = getattr(prof, field.name)
            if isinstance(value, np.ndarray) and value.ndim == 2:
                assert value.shape[0] != g.m or value.shape[1] <= 1, field.name


def _wide_weight_graph(seed, span):
    """Connected n=12, m=24 graph, weights log-uniform over 10**[-span, span]."""
    rng = np.random.default_rng(seed)
    pairs = [(int(rng.integers(k)), k) for k in range(1, 12)]
    while len(pairs) < 24:
        u, v = rng.choice(12, size=2, replace=False)
        pairs.append((int(u), int(v)))
    weights = 10.0 ** rng.uniform(-span, span, size=24)
    return rs.WeightedGraph(12, [(u, v, float(w)) for (u, v), w in zip(pairs, weights)])


def _three_components():
    """n=17: connected graphs on vertices 0-8 and 10-16, and vertex 9 isolated."""
    rng = np.random.default_rng(5)
    a, b = rs.random_connected(9, rng), rs.random_connected(7, rng)
    return rs.WeightedGraph(17, list(a.edges) + [(u + 10, v + 10, w) for u, v, w in b.edges])


def _interleaved_components(seed, span=8):
    """n=70, rank 68 > 2 * _PANEL: connected graphs on the even and on the odd vertices.

    Weights are log-uniform over 10**[-span, span], rounded to 8 significant
    bits, which keeps the exact rational oracle quick.
    """
    rng = np.random.default_rng(seed)
    edges = []
    for part in (0, 1):
        order = rng.permutation(35)
        pairs = [(order[rng.integers(k)], order[k]) for k in range(1, 35)]
        pairs += [rng.choice(35, size=2, replace=False) for _ in range(35)]
        edges += [(2 * int(u) + part, 2 * int(v) + part) for u, v in pairs]
    mantissa, exponent = np.frexp(10.0 ** rng.uniform(-span, span, size=len(edges)))
    weights = np.ldexp(np.round(mantissa * 256) / 256, exponent)
    return rs.WeightedGraph(70, [(u, v, float(w)) for (u, v), w in zip(edges, weights)])


def _rounded_connected(n, seed, span=1):
    """Connected graph on n vertices: a random tree plus n more edges, weighted as above."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    pairs = [(order[rng.integers(k)], order[k]) for k in range(1, n)]
    pairs += [rng.choice(n, size=2, replace=False) for _ in range(n)]
    mantissa, exponent = np.frexp(10.0 ** rng.uniform(-span, span, size=len(pairs)))
    weights = np.ldexp(np.round(mantissa * 256) / 256, exponent)
    return rs.WeightedGraph(n, [(int(u), int(v), float(w)) for (u, v), w in zip(pairs, weights)])


_SPANS = [(8, 1e-13), (12, 1e-13), (16, 1e-12)]


def _worst_span_error(span, route=lambda g: profile_of(g).resistance):
    worst = 0.0
    for seed in range(8):
        g = _wide_weight_graph(seed, span)
        exact = resistances_exact(g)
        got = route(g)
        worst = max(worst, float(np.max(np.abs(got - exact) / exact)))
    return worst


class TestExactResistances:
    """Scores against exact rational resistances where weights span many decades."""

    @pytest.mark.parametrize("span, tol", _SPANS)
    def test_wide_weight_spans(self, span, tol):
        assert _worst_span_error(span) <= tol

    @pytest.mark.parametrize("span, tol", _SPANS)
    def test_wide_weight_spans_across_panels(self, monkeypatch, span, tol):
        # 12 vertices in panels of 3: the Schur update between panels runs too
        monkeypatch.setattr(spectral, "_PANEL", 3)
        assert _worst_span_error(span) <= tol

    def test_components_across_panels(self, monkeypatch):
        # three components (one an isolated vertex) spread over panels of 3
        monkeypatch.setattr(spectral, "_PANEL", 3)
        g = _three_components()
        prof = profile_of(g)
        assert prof.rank == 14
        np.testing.assert_allclose(prof.resistance, resistances_by_eig(g), rtol=1e-10)

    def test_two_components_at_the_real_panel(self):
        # rank 68: every panel of 32 after the first takes the GEMM of all the
        # earlier ones, with both components in each panel; each is checked
        # against its own exact resistances, in both vertex orders (the
        # reverse one grounds each component at its last vertex)
        g = _interleaved_components(0)
        prof = profile_of(g)
        assert prof.rank == 68 >= 2 * spectral._PANEL + 1
        routes = (prof.resistance, rs.effective_resistances(g))
        for part in (0, 1):
            mine = [i for i, (u, _, _) in enumerate(g.edges) if u % 2 == part]
            component = rs.WeightedGraph(
                35, [(u // 2, v // 2, w) for u, v, w in (g.edges[i] for i in mine)]
            )
            exact = resistances_exact(component)
            for resistance in routes:
                np.testing.assert_allclose(resistance[mine], exact, rtol=1e-13)

    @pytest.mark.parametrize("rank", [33, 64])
    def test_panel_edges(self, rank):
        # rank 33 leaves the last panel one vertex, which keeps only its pivot;
        # rank 64 fills its two panels exactly
        assert rank % spectral._PANEL in (0, 1)
        g = _rounded_connected(rank + 1, rank)
        exact = resistances_exact(g)
        np.testing.assert_allclose(profile_of(g).resistance, exact, rtol=1e-13)
        np.testing.assert_allclose(rs.effective_resistances(g), exact, rtol=1e-13)

    @pytest.mark.parametrize("span", [8, 16])
    @pytest.mark.parametrize("rank", [64, 65, 96, 129, 200])
    def test_inverse_by_halves_matches_dtrtri(self, rank, span):
        # rank 64 is one dtrtri block; the rest split into halves whose corners
        # are two dtrmm each, so they sum what dtrtri sums: no entry is negative
        assert (rank > spectral._TRTRI_ORDER) == (rank != 64)
        g = _rounded_connected(rank + 1, rank, span)
        upper = np.array(spectral._eliminate(rs.incidence_factors(g)).a[:rank])
        expected, info = scipy.linalg.lapack.dtrtri(upper.T, lower=1, unitdiag=1)
        assert info == 0
        assert spectral._invert_unit_upper(upper)
        np.testing.assert_allclose(upper, expected.T, rtol=1e-14, atol=0)
        assert np.all(upper >= 0.0)

    @pytest.mark.parametrize("k", [-40, -1, 3, 100])
    def test_power_of_four_scaling_is_exact(self, k):
        # weights times 4**k: the builder's 2**(-2h) takes h + k, so the same
        # array is eliminated and every resistance comes back times 4**-k
        g = _interleaved_components(1)
        u, v, w = g._arrays
        prof = profile_of(g)
        scaled = profile_of(rs.WeightedGraph._from_arrays(g.n, u, v, np.ldexp(w, 2 * k)))
        np.testing.assert_array_equal(scaled.resistance, np.ldexp(prof.resistance, -2 * k))
        np.testing.assert_array_equal(scaled.leverage, prof.leverage)
        np.testing.assert_array_equal(scaled.factor, np.ldexp(prof.factor, -k))

    @pytest.mark.parametrize("g", [_three_components(), _interleaved_components(2)])
    def test_trimmed_sums_match_full_width(self, g):
        # the sums skip the columns left of each edge's first row, which F,
        # upper triangular with a zero row for the grounds, holds at zero
        factors = rs.incidence_factors(g)
        prof = rs.spectral_profile(factors)
        f, at, rank = prof.factor, prof.row_map, prof.rank
        assert not np.any(np.tril(f[:rank], -1)) and not np.any(f[rank])
        diffs = f[at[factors.lo]] - f[at[factors.hi]]
        full = np.einsum("ij,ij->i", diffs, diffs)
        np.testing.assert_allclose(prof.resistance, full, rtol=1e-15, atol=0)

    def test_faint_bridge(self):
        # a bridge of weight 1e-18, resistance 1e18, still resolves
        g = bridged_triangles(1e-18)
        exact = resistances_exact(g)
        assert exact[-1] == pytest.approx(1e18, rel=1e-15)
        np.testing.assert_allclose(profile_of(g).resistance, exact, rtol=1e-12)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="past the bridge every row of F carries about 1/sqrt(w) in its last "
        "column, which cancels in ||F[u] - F[v]||^2",
    )
    def test_faint_bridge_between_large_halves(self):
        # two random 90-vertex halves joined by a 1e-20 bridge: the half eliminated
        # last should keep the resistances it has alone (it reads about 2e-10 off)
        halves = [_rounded_connected(90, seed) for seed in (3, 4)]
        edges = list(halves[0].edges) + [(u + 90, v + 90, w) for u, v, w in halves[1].edges]
        g = rs.WeightedGraph(180, edges + [(89, 90, 1e-20)])
        far = profile_of(g).resistance[halves[0].m : -1]
        np.testing.assert_allclose(far, profile_of(halves[1]).resistance, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("bridge", [1e-21, 1e-22, 1e-23, 1e-24, 1e-30, 1e-100])
    def test_far_bridge_resolves(self, bridge):
        g = bridged_triangles(bridge)
        np.testing.assert_allclose(profile_of(g).resistance, resistances_exact(g), rtol=1e-12)

    @pytest.mark.parametrize("bridge", [1e-310, 5e-324])
    def test_lost_bridge_refused(self, bridge):
        # the bridge's resistance overflows float64, or its pivot underflows
        # to zero: no scores come back
        with pytest.raises(rs.FactorizationError, match="rank"):
            profile_of(bridged_triangles(bridge))

    @pytest.mark.parametrize("weight", [1e-300, 1.7e308])
    def test_extreme_uniform_weights(self, weight):
        # weighted degrees of 3 * 1.7e308 would overflow without the scaling
        g = rs.WeightedGraph(4, [(u, v, weight) for u, v, _ in rs.complete(4).edges])
        prof = profile_of(g)
        np.testing.assert_allclose(prof.resistance * weight, 0.5, rtol=1e-14)
        np.testing.assert_allclose(prof.leverage, 0.5, rtol=1e-14)


def _empty_factors():
    no_ends = np.empty(0, dtype=np.int64)
    return rs.IncidenceFactors(n=2, lo=no_ends, hi=no_ends, weights=np.empty(0))


def _parallel_pair():
    """A 4-cycle whose edge (0, 1) has four parallel copies, given in both endpoint orders.

    Their sum depends on its order: in edge order it is 1.5, with the two
    1.1e-16 first it is 1.5000000000000002.
    """
    return rs.WeightedGraph(
        4,
        [(0, 1, 1.0), (1, 0, 1.1e-16), (2, 3, 0.5), (0, 1, 1.1e-16), (1, 2, 2.0), (1, 0, 0.5),
         (3, 0, 0.25)],
    )


class TestEffectiveResistances:
    def test_triangle(self, triangle):
        np.testing.assert_allclose(
            rs.effective_resistances(triangle), 2.0 / 3.0, atol=1e-12
        )

    @pytest.mark.parametrize("span, tol", [(4, 1e-13)] + _SPANS)
    def test_wide_weight_spans(self, span, tol):
        assert _worst_span_error(span, rs.effective_resistances) <= tol

    def test_isolated_vertex_and_components(self):
        # each component grounded at its first vertex, the isolated one included
        g = _three_components()
        np.testing.assert_allclose(rs.effective_resistances(g), resistances_by_eig(g), rtol=1e-10)

    def test_graph_or_its_factors(self):
        g = rs.random_connected(12, np.random.default_rng(3))
        np.testing.assert_array_equal(
            rs.effective_resistances(g), rs.effective_resistances(rs.incidence_factors(g))
        )

    def test_no_edges(self):
        assert rs.effective_resistances(rs.WeightedGraph(3, [])).shape == (0,)

    @pytest.mark.parametrize("weight", [1e-300, 1.7e308])
    def test_extreme_uniform_weights(self, weight):
        # weighted degrees of 3 * 1.7e308 would overflow without the scaling
        g = rs.WeightedGraph(4, [(u, v, weight) for u, v, _ in rs.complete(4).edges])
        np.testing.assert_allclose(rs.effective_resistances(g) * weight, 0.5, rtol=1e-14)

    def test_unfactorable_bridge_refused(self):
        # the reverse-order elimination resolves a 1e-18 bridge as the profile
        # does; at 1e-310 its resistance overflows and it is refused
        resistance = rs.effective_resistances(bridged_triangles(1e-18))
        assert resistance[-1] == pytest.approx(1e18, rel=1e-14, abs=0)
        with pytest.raises(rs.FactorizationError, match="rank"):
            rs.effective_resistances(bridged_triangles(1e-310))

    def test_matches_eig_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = rs.random_connected(9, rng)
            np.testing.assert_allclose(
                rs.effective_resistances(g), resistances_by_eig(g), atol=1e-10
            )
        # past a 1e8 weight ratio the oracle's eigenvalue cut is not to be trusted
        with pytest.raises(AssertionError, match="resistances_exact"):
            resistances_by_eig(bridged_triangles(1e-9))

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_leverage_is_weight_times_resistance(self, g):
        prof = profile_of(g)
        wr = g.weights() * rs.effective_resistances(g)
        assert np.max(np.abs(prof.leverage - wr) / prof.leverage) <= 1e-14


class TestLeverageProbabilities:
    def test_exact_distribution(self, triangle):
        p = rs.leverage_probabilities(profile_of(triangle))
        np.testing.assert_allclose(p, 1.0 / 3.0, atol=1e-12)
        assert abs(p.sum() - 1.0) <= 1e-12

    @given(weighted_graphs())
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one_tightly(self, g):
        p = rs.leverage_probabilities(profile_of(g))
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0)

    def test_candidate_at_exact_floor_accepted(self, triangle):
        # floor with beta=0.6 is 0.6 * (2/3) / 2 = 0.2, hit exactly by the last entry
        candidate = np.array([0.5, 0.3, 0.2])
        p = rs.leverage_probabilities(profile_of(triangle), beta=0.6, candidate=candidate)
        np.testing.assert_array_equal(p, candidate)

    def test_candidate_below_floor_rejected(self, triangle):
        with pytest.raises(rs.ParameterError, match="index 2"):
            rs.leverage_probabilities(
                profile_of(triangle), beta=0.61, candidate=np.array([0.5, 0.3, 0.2])
            )

    def test_candidate_bad_sum_rejected(self, triangle):
        with pytest.raises(rs.ParameterError, match="sum"):
            rs.leverage_probabilities(
                profile_of(triangle), candidate=np.array([0.5, 0.3, 0.3])
            )

    def test_candidate_wrong_shape_rejected(self, triangle):
        with pytest.raises(rs.ParameterError, match="shape"):
            rs.leverage_probabilities(
                profile_of(triangle), candidate=np.array([0.5, 0.5])
            )

    @pytest.mark.parametrize("beta", [0.0, -0.5, 1.5])
    def test_bad_beta_rejected(self, triangle, beta):
        with pytest.raises(rs.ParameterError, match="beta"):
            rs.leverage_probabilities(profile_of(triangle), beta=beta)
