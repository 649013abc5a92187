import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import resist_sketch as rs


def cfg_for(path, mode="leverage", **kwargs):
    return rs.RunConfig(graph_path=str(path), mode=mode, **kwargs)


class TestRunConfig:
    def test_defaults(self, graph_file, triangle):
        cfg = cfg_for(graph_file(triangle))
        assert cfg.epsilon == 0.5
        assert cfg.beta == 1.0
        assert cfg.trials == 100
        assert cfg.r_override is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mode="shred"),
            dict(epsilon=0.0),
            dict(epsilon=1.0),
            dict(beta=1.2),
            dict(c0=0.0),
            dict(seed=-1),
            dict(seed=2**64),
            dict(trials=0),
            dict(r_override=0),
        ],
    )
    def test_rejects_bad_fields(self, graph_file, triangle, kwargs):
        base = dict(graph_path=str(graph_file(triangle)), mode="leverage")
        base.update(kwargs)
        with pytest.raises(rs.ParameterError):
            rs.RunConfig(**base)

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5)])
    def test_accepts_numpy_seeds(self, graph_file, triangle, seed):
        cfg = cfg_for(graph_file(triangle), mode="sparsify", seed=seed)
        reference = cfg_for(graph_file(triangle), mode="sparsify", seed=5)
        a, b = rs.run_report(cfg), rs.run_report(reference)
        a["results"].pop("timings")
        b["results"].pop("timings")
        assert a == b

    @pytest.mark.parametrize("field, mode", [("trials", "verify"), ("r_override", "sparsify")])
    def test_accepts_numpy_counts(self, graph_file, triangle, field, mode):
        cfg = cfg_for(graph_file(triangle), mode=mode, **{field: np.int64(5)})
        reference = cfg_for(graph_file(triangle), mode=mode, **{field: 5})
        a, b = rs.run_report(cfg), rs.run_report(reference)
        a["results"].pop("timings")
        b["results"].pop("timings")
        assert a == b


class TestSeeding:
    def test_default_rhs_zero_sum_and_deterministic(self):
        b1 = rs.default_rhs(40, 7)
        b2 = rs.default_rhs(40, 7)
        np.testing.assert_array_equal(b1, b2)
        assert abs(b1.sum()) <= 1e-12
        assert not np.array_equal(b1, rs.default_rhs(40, 8))

    def test_trial_seeds_distinct(self):
        seeds = [rs.trial_seed(0, t) for t in range(200)]
        assert len(set(seeds)) == 200
        assert all(0 <= s < 2**64 for s in seeds)

    def test_trial_seed_differs_from_rhs_stream(self):
        # sub-stream 0 is reserved for the right-hand side
        assert rs.trial_seed(5, 0) != rs.trial_seed(5, 1)


class TestCmdLeverage:
    def test_triangle_fields(self, graph_file, triangle):
        out = rs.cmd_leverage(cfg_for(graph_file(triangle)))
        assert out["n"] == 3 and out["m"] == 3 and out["rank"] == 2
        np.testing.assert_allclose(out["leverage"], 2.0 / 3.0, atol=1e-10)
        np.testing.assert_allclose(out["probabilities"], 1.0 / 3.0, atol=1e-10)
        assert out["leverage_sum"] == pytest.approx(2.0, abs=1e-10)
        assert out["max_leverage"] == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_tree_leverage_all_one(self, graph_file):
        g = rs.random_tree(17, np.random.default_rng(2))
        out = rs.cmd_leverage(cfg_for(graph_file(g)))
        np.testing.assert_allclose(out["leverage"], 1.0, atol=1e-8)

    def test_disconnected_rank(self, graph_file):
        g = rs.WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        out = rs.cmd_leverage(cfg_for(graph_file(g)))
        assert out["rank"] == 2
        assert out["leverage_sum"] == pytest.approx(2.0, abs=1e-10)


class TestCmdResistance:
    def test_cross_check_field(self, graph_file, triangle):
        out = rs.cmd_resistance(cfg_for(graph_file(triangle), mode="resistance"))
        np.testing.assert_allclose(out["resistance"], 2.0 / 3.0, atol=1e-10)
        assert out["lemma_max_relerr"] <= 1e-8

    def test_heavy_star_passes_the_cross_check(self, graph_file):
        # the hub's weighted degree, 5 * 5e307, overflows unless the weights are scaled
        star = rs.WeightedGraph(6, [(leaf, 5, 5e307) for leaf in range(5)])
        out = rs.cmd_resistance(cfg_for(graph_file(star), mode="resistance"))
        assert out["lemma_max_relerr"] <= 1e-15
        np.testing.assert_allclose(out["resistance"], 1 / 5e307, rtol=1e-15)


class TestCmdSparsify:
    def test_fields_and_rule(self, graph_file, triangle):
        out = rs.cmd_sparsify(cfg_for(graph_file(triangle), mode="sparsify", seed=5))
        assert out["r"] == rs.sample_count(3, 0.5)
        assert out["r_source"] == "rule"
        assert out["off_theorem"] is False
        assert out["nnz"] <= 3 + 2 * out["r"]
        assert out["deviation"] >= 0.0
        assert out["concentration_bound"] == pytest.approx(math.sqrt(0.5) / 2)

    def test_override_flagged(self, graph_file, triangle):
        out = rs.cmd_sparsify(
            cfg_for(graph_file(triangle), mode="sparsify", r_override=64)
        )
        assert out["r"] == 64
        assert out["r_source"] == "override"
        assert out["off_theorem"] is True


class TestCmdSolve:
    def test_single_edge_exact(self, graph_file, single_edge):
        out = rs.cmd_solve(cfg_for(graph_file(single_edge), mode="solve", seed=3))
        assert out["sparsified"]["relative_energy_error"] == pytest.approx(0.0, abs=1e-12)
        assert out["sparsified"]["success"] is True

    def test_schema(self, graph_file, triangle):
        out = rs.cmd_solve(cfg_for(graph_file(triangle), mode="solve", seed=7))
        assert set(out["exact"]) == {"x", "residual_two_norm", "null_component", "rank"}
        assert {"x", "energy_error", "relative_energy_error", "success"} <= set(
            out["sparsified"]
        )
        assert isinstance(out["sparsified"]["success"], bool)
        assert len(out["exact"]["x"]) == 3

    def test_heavy_star_reports_finite_residuals(self, graph_file):
        # the hub's weighted degree, 5 * 5e307, overflows; the residuals read
        # the edges, so neither solve's residual goes to inf (null in the report)
        star = rs.WeightedGraph(6, [(leaf, 5, 5e307) for leaf in range(5)])
        results = rs.run_report(cfg_for(graph_file(star), mode="solve", seed=3))["results"]
        for solve in ("exact", "sparsified"):
            residual = results[solve]["residual_two_norm"]
            assert residual is not None and residual <= 1e-12

    def test_heavy_star_reports_the_energy_ratio(self, graph_file):
        # x is about 1e-308 here, so both energies underflow unless the flows
        # and weights are scaled; the ratio is checked against exact rationals
        star = rs.WeightedGraph(6, [(leaf, 5, 5e307) for leaf in range(5)])
        results = rs.run_report(cfg_for(graph_file(star), mode="solve", seed=3))["results"]
        x = [Fraction(v) for v in results["exact"]["x"]]
        y = [Fraction(v) for v in results["sparsified"]["x"]]

        def energy(d):
            return sum(Fraction(5e307) * (d[leaf] - d[5]) ** 2 for leaf in range(5))

        error = energy([a - b for a, b in zip(x, y)])
        ratio = error / energy(x)
        scored = results["sparsified"]
        assert scored["relative_energy_error"] == pytest.approx(float(ratio), rel=1e-12, abs=0)
        assert scored["energy_error"] == pytest.approx(float(error), rel=1e-12, abs=0)
        assert scored["success"] is (ratio <= Fraction(0.5))

    def test_rhs_from_file(self, graph_file, triangle, tmp_path):
        b_path = tmp_path / "b.txt"
        rs.save_vector(np.array([1.0, 0.0, -1.0]), b_path)
        out = rs.cmd_solve(
            cfg_for(graph_file(triangle), mode="solve", b_path=str(b_path), seed=1)
        )
        assert out["sparsified"]["success"] is True

    def test_rhs_length_mismatch(self, graph_file, triangle, tmp_path):
        b_path = tmp_path / "b.txt"
        rs.save_vector(np.ones(5), b_path)
        with pytest.raises(rs.ParameterError, match="vertices"):
            rs.cmd_solve(
                cfg_for(graph_file(triangle), mode="solve", b_path=str(b_path))
            )


class TestCmdVerify:
    def test_single_edge_always_succeeds(self, graph_file, single_edge):
        cfg = cfg_for(graph_file(single_edge), mode="verify", trials=50, seed=11)
        report = rs.cmd_verify(cfg)
        assert report.trials == 50
        assert report.success_rate == 1.0
        assert report.concentration_pass_rate == 1.0
        assert report.mean_concentration_deviation == pytest.approx(0.0, abs=1e-12)

    def test_report_consistency(self, graph_file, triangle):
        cfg = cfg_for(graph_file(triangle), mode="verify", trials=30, seed=4)
        report = rs.cmd_verify(cfg)
        assert report.success_rate == report.success_count / 30
        assert len(report.records) == 30
        assert report.lemma_max_relerr <= 1e-8
        assert all(rec["deviation"] >= 0.0 for rec in report.records)
        quantiles = report.max_sv_deviation_quantiles
        assert quantiles["q0"] <= quantiles["q50"] <= quantiles["q100"]
        assert report.oversampling_condition["satisfied"] is True

    def test_trials_use_distinct_seeds(self, graph_file, triangle):
        cfg = cfg_for(graph_file(triangle), mode="verify", trials=10, seed=0)
        report = rs.cmd_verify(cfg)
        seeds = [rec["seed"] for rec in report.records]
        assert len(set(seeds)) == 10


def _connected(n, m, seed):
    """A random recursive tree on n vertices plus m - n + 1 other distinct vertex pairs."""
    rng = np.random.default_rng(seed)
    tree = rs.random_tree(n, rng)
    taken = {(u, v) for u, v, _ in tree.edges}
    free = [pair for pair in zip(*np.triu_indices(n, 1)) if pair not in taken]
    extra = rng.choice(len(free), size=m - n + 1, replace=False)
    weights = rng.uniform(0.1, 10.0, extra.size)
    return rs.WeightedGraph(n, list(tree.edges) + [(*free[i], w) for i, w in zip(extra, weights)])


class TestRunReport:
    def test_envelope(self, graph_file, triangle):
        report = rs.run_report(cfg_for(graph_file(triangle)))
        assert set(report) == {"mode", "config", "results", "version"}
        assert report["mode"] == "leverage"
        assert report["version"] == rs.VERSION
        assert report["config"]["epsilon"] == 0.5

    def test_json_serializable_and_finite(self, graph_file, triangle):
        report = rs.run_report(cfg_for(graph_file(triangle), mode="verify", trials=5))
        text = json.dumps(report, allow_nan=False)
        assert json.loads(text)["results"]["trials"] == 5

    def test_solve_deterministic_without_timings(self, graph_file, triangle):
        cfg = cfg_for(graph_file(triangle), mode="solve", seed=12)
        a = rs.run_report(cfg)
        b = rs.run_report(cfg)
        a["results"].pop("timings")
        b["results"].pop("timings")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_verify_deterministic_without_timings(self, graph_file, triangle):
        cfg = cfg_for(graph_file(triangle), mode="verify", trials=10, seed=99)
        a = rs.run_report(cfg)
        b = rs.run_report(cfg)
        a["results"].pop("timings")
        b["results"].pop("timings")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize("mode", ["resistance", "verify"])
    def test_pinv_cross_check_runs_once(self, graph_file, triangle, monkeypatch, mode):
        from resist_sketch import harness

        calls = []
        original = harness.effective_resistances

        def counted(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(harness, "effective_resistances", counted)
        rs.run_report(cfg_for(graph_file(triangle), mode=mode, trials=3))
        assert len(calls) == 1

    def test_resistance_holds_one_dense_factor(self, graph_file):
        # the profile's (rank + 1) x rank F is freed before the reverse elimination
        # allocates its own: a second such array would put the peak past 2.5 of them
        g = _connected(400, 4400, seed=4)
        cfg = cfg_for(graph_file(g), mode="resistance")
        tracemalloc.start()
        try:
            report = rs.run_report(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rank = report["results"]["rank"]
        assert rank == 399
        assert peak < 2.5 * (rank + 1) * rank * 8

    @pytest.mark.parametrize("mode, draws", [("sparsify", 1), ("verify", 7)])
    def test_one_draw_per_sparsifier(self, graph_file, triangle, monkeypatch, mode, draws):
        # the concentration check reads the drawn sparsifier; it draws nothing
        from resist_sketch import sampling

        calls = []
        original = sampling.draw_counts

        def counted(plan):
            calls.append(plan.seed)
            return original(plan)

        monkeypatch.setattr(sampling, "draw_counts", counted)
        rs.run_report(cfg_for(graph_file(triangle), mode=mode, trials=draws))
        assert len(calls) == draws

    def test_one_elimination_per_trial(self, graph_file, triangle, monkeypatch):
        # each trial's sparsified system is eliminated once, and that one
        # factor is what the sparsified solve and then the check finish
        from resist_sketch import sampling, solve

        made, finished = [], []
        eliminate = sampling._eliminate

        def counted(*args):
            made.append(eliminate(*args))
            return made[-1]

        def reading(name, module):
            real = getattr(module, name)

            def read(elimination, *operands):
                finished.append((name, id(elimination)))
                return real(elimination, *operands)

            monkeypatch.setattr(module, name, read)

        monkeypatch.setattr(sampling, "_eliminate", counted)
        reading("_grounded_solve", solve)
        reading("_grounded_gram", sampling)
        rs.run_report(cfg_for(graph_file(triangle), mode="verify", trials=3))
        assert len(made) == 3
        assert finished == [
            (name, id(e)) for e in made for name in ("_grounded_solve", "_grounded_gram")
        ]

    @pytest.mark.parametrize("mode", rs.harness.MODES)
    def test_profile_keeps_no_pinv_factor(self, graph_file, triangle, monkeypatch, mode):
        # one profile per run; the scores, the check and the exact solve read its
        # F, and it caches nothing past its fields, H included
        from resist_sketch import harness

        made = []

        def profiled(factors):
            made.append(rs.spectral_profile(factors))
            return made[-1]

        monkeypatch.setattr(harness, "spectral_profile", profiled)
        rs.run_report(cfg_for(graph_file(triangle), mode=mode, trials=3))
        assert len(made) == 1
        assert set(vars(made[0])) == {f.name for f in dataclasses.fields(made[0])}

    def test_every_mode_reports_timings(self, graph_file, triangle):
        for mode in rs.harness.MODES:
            report = rs.run_report(cfg_for(graph_file(triangle), mode=mode, trials=2))
            assert report["mode"] == mode
            assert set(report["results"]["timings"]) == {"total"}
            assert report["results"]["timings"]["total"] >= 0.0

    def test_jsonable_scrubs_non_finite(self):
        from resist_sketch.harness import _jsonable

        scrubbed = _jsonable(
            {"a": float("nan"), "b": [np.float64("inf"), np.int64(3)], "c": np.bool_(True)}
        )
        assert scrubbed == {"a": None, "b": [None, 3], "c": True}
