import json
import warnings

import numpy as np
import pytest
import scipy.linalg

import conftest
import resist_sketch as rs
from oracles import solve_rational
from resist_sketch import spectral
from resist_sketch.cli import _dumps, main


@pytest.fixture
def tri_file(tmp_path):
    target = tmp_path / "tri.txt"
    target.write_text("3 3\n0 1 1\n1 2 1\n0 2 1\n", encoding="utf-8")
    return str(target)


def bridged_triangles(tmp_path, bridge):
    """Two unit triangles joined by one edge, whose resistance is 1/bridge."""
    target = tmp_path / "bridge.txt"
    with open(target, "w", encoding="utf-8") as fh:
        rs.save_graph(conftest.bridged_triangles(bridge), fh)
    return str(target)


BRIDGED_RHS = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 0.25])


def bridged_rhs(tmp_path):
    """Write BRIDGED_RHS, a right-hand side for the bridged triangles, and hand back its path."""
    target = tmp_path / "b.txt"
    target.write_text("".join(f"{x!r}\n" for x in BRIDGED_RHS.tolist()), encoding="utf-8")
    return str(target)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_leverage_stdout_json(tri_file, capsys):
    code, out, _ = run(capsys, "leverage", "--graph", tri_file)
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "leverage"
    np.testing.assert_allclose(report["results"]["leverage"], 2.0 / 3.0, atol=1e-10)


def test_out_file(tri_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "solve", "--graph", tri_file, "--seed", "5", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text(encoding="utf-8"))
    assert report["mode"] == "solve"
    assert report["results"]["sparsified"]["success"] in (True, False)


def test_verify_mode(tri_file, capsys):
    code, out, _ = run(
        capsys, "verify", "--graph", tri_file, "--trials", "10", "--seed", "3"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["trials"] == 10
    assert len(results["records"]) == 10


def test_r_override_marks_off_theorem(tri_file, capsys):
    code, out, _ = run(
        capsys, "sparsify", "--graph", tri_file, "--r-override", "32"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["r"] == 32 and results["off_theorem"] is True


def test_b_file_used(tri_file, tmp_path, capsys):
    b_path = tmp_path / "b.txt"
    b_path.write_text("1.0\n0.0\n-1.0\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "solve", "--graph", tri_file, "--b", str(b_path), "--seed", "2"
    )
    assert code == 0
    assert json.loads(out)["config"]["b_path"] == str(b_path)


class TestExitCodes:
    def test_missing_graph_file(self, capsys):
        code, _, err = run(capsys, "leverage", "--graph", "/nope/missing.txt")
        assert code == 1
        assert err != ""

    def test_unknown_subcommand(self, tri_file, capsys):
        code, _, _ = run(capsys, "shred", "--graph", tri_file)
        assert code == 1

    def test_bad_epsilon(self, tri_file, capsys):
        code, _, _ = run(capsys, "solve", "--graph", tri_file, "--epsilon", "1.5")
        assert code == 1

    def test_missing_required_option(self, capsys):
        code, _, _ = run(capsys, "solve")
        assert code == 1

    def test_parse_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 0 1.0\n", encoding="utf-8")
        code, _, err = run(capsys, "leverage", "--graph", str(bad))
        assert code == 1
        assert "line 2" in err

    def test_sample_count_parameter_error(self, tri_file, capsys):
        # log argument falls below 1 for tiny c0
        code, _, err = run(
            capsys, "solve", "--graph", tri_file, "--c0", "0.001"
        )
        assert code == 1
        assert "error" in err.lower()

    @pytest.mark.parametrize(
        "option, value",
        [("--c0", "inf"), ("--c0", "1e200"), ("--epsilon", "1e-320"), ("--beta", "1e-320")],
    )
    def test_overflowing_sample_count(self, tri_file, capsys, option, value):
        # in range for click, but 2 x ln x of the sample-count rule overflows float64
        code, _, err = run(capsys, "verify", "--graph", tri_file, "--trials", "1", option, value)
        assert code == 1
        assert err.startswith("error:") and "overflows" in err

    def test_refused_sample_count_stays_short(self, tri_file, capsys):
        # a finite count of about 2.0e205 is refused by the plan's r rule without
        # printing all of its 206 digits
        code, _, err = run(capsys, "verify", "--graph", tri_file, "--trials", "1", "--c0", "1e100")
        assert code == 1
        assert err.startswith("error: sample count must be a positive integer below 2**63, got ")
        assert "e+205" in err and len(err) < 200

    def test_rhs_length_mismatch(self, tri_file, tmp_path, capsys):
        b_path = tmp_path / "b.txt"
        b_path.write_text("1.0\n2.0\n", encoding="utf-8")
        code, _, _ = run(capsys, "solve", "--graph", tri_file, "--b", str(b_path))
        assert code == 1

    def test_factorization_failure_exits_2(self, tri_file, capsys, monkeypatch):
        def dtrtri(c, *args, **kwargs):
            return c, 1  # LAPACK's info for a singular triangle

        monkeypatch.setattr(scipy.linalg.lapack, "dtrtri", dtrtri)
        code, out, err = run(capsys, "leverage", "--graph", tri_file)
        assert code == 2
        assert out == ""
        assert "numerical failure" in err

    @pytest.mark.parametrize(
        "bridge, code",
        [(1.0, 0), (1e-6, 0), (1e-10, 0), (1e-18, 0), (1e-100, 0), (1e-300, 0), (1e-310, 2)],
    )
    def test_resistance_refuses_failed_cross_check(self, tmp_path, capsys, bridge, code):
        # both routes are positive eliminations, so the bridge resolves as far
        # as leverage resolves it; at 1e-310 its resistance overflows and the
        # scores are refused (Foster's sum misses the rank) before any cross-check
        got, out, err = run(
            capsys, "resistance", "--graph", bridged_triangles(tmp_path, bridge)
        )
        assert got == code
        if code == 0:
            results = json.loads(out)["results"]
            assert results["lemma_max_relerr"] <= 1e-14
            assert results["resistance"][-1] == pytest.approx(1.0 / bridge, rel=1e-14, abs=0)
        else:
            assert out == ""
            assert "numerical failure" in err and "rank" in err

    @pytest.mark.parametrize("fault", ["gap", "unfactorable"])
    def test_resistance_refuses_disagreeing_routes(self, tri_file, capsys, monkeypatch, fault):
        # a second route off by a factor of two, or one that cannot be factored
        # (gap inf): resistance prints nothing and exits 2
        from resist_sketch import harness

        monkeypatch.setattr(harness, "effective_resistances", _faulty_routes[fault])
        code, out, err = run(capsys, "resistance", "--graph", tri_file)
        assert code == 2
        assert out == ""
        assert "numerical failure" in err and "leverage route" in err

    def test_lost_bridge_exits_2(self, tmp_path, capsys):
        # at weight 1e-310 the bridge's resistance overflows float64; leverage
        # prints nothing
        code, out, err = run(
            capsys, "leverage", "--graph", bridged_triangles(tmp_path, 1e-310)
        )
        assert code == 2
        assert out == ""
        assert "numerical failure" in err and "rank" in err

    @pytest.mark.parametrize("mode", ["leverage", "resistance", "sparsify", "solve", "verify"])
    def test_extreme_weight_exit_codes(self, tmp_path, capsys, mode):
        # a 5-leaf star whose hub degree, 5 * 5e307, overflows: every mode
        # scales the weights first and exits 0
        star = tmp_path / "star.txt"
        with open(star, "w", encoding="utf-8") as fh:
            rs.save_graph(rs.WeightedGraph(6, [(leaf, 5, 5e307) for leaf in range(5)]), fh)
        code, out, _ = run(capsys, mode, "--graph", str(star), "--trials", "2")
        assert code == 0
        assert json.loads(out)["mode"] == mode
        # a 1e-18 bridge: the scores, the cross-check, the draw, the sparsified
        # solve and the concentration check all resolve it
        code, out, _ = run(
            capsys, mode, "--graph", bridged_triangles(tmp_path, 1e-18), "--trials", "2"
        )
        assert code == 0
        assert json.loads(out)["mode"] == mode

    def test_reweighted_edge_past_float64_exits_2(self, tmp_path, capsys):
        # complete(4) at 1.7e308 scores fine, but one draw reweights its edge
        # by 1 / p = 6, past float64
        target = tmp_path / "heavy.txt"
        with open(target, "w", encoding="utf-8") as fh:
            rs.save_graph(rs.complete(4, [1.7e308] * 6), fh)
        code, out, err = run(capsys, "sparsify", "--graph", str(target), "--r-override", "1")
        assert code == 2
        assert out == "" and "numerical failure" in err and "past float64" in err

    @pytest.mark.parametrize("bridge", [1e-16, 1e-18, 1e-100])
    def test_faint_bridge_sparsified_solve(self, tmp_path, capsys, bridge):
        # x matches the exact rational solution of the sampled system, drawn
        # again here through the API with the same plan
        code, out, _ = run(
            capsys, "solve", "--graph", bridged_triangles(tmp_path, bridge),
            "--b", bridged_rhs(tmp_path), "--seed", "0",
        )
        assert code == 0
        sparsified = json.loads(out)["results"]["sparsified"]
        g = conftest.bridged_triangles(bridge)
        factors = rs.incidence_factors(g)
        plan = rs.SamplingPlan(
            probabilities=rs.leverage_probabilities(rs.spectral_profile(factors)),
            beta=1.0, epsilon=0.5, c0=1.0, r=rs.sample_count(g.n, 0.5), seed=0,
        )
        drawn = rs.build_sparsifier(factors, plan).factors
        sampled = rs.WeightedGraph(g.n, zip(drawn.lo, drawn.hi, drawn.weights))
        assert sparsified["rank"] == 5
        x = np.asarray(sparsified["x"])
        np.testing.assert_allclose(
            x, solve_rational(sampled, BRIDGED_RHS), rtol=0, atol=1e-14 * np.abs(x).max()
        )

    @pytest.mark.parametrize("bridge", [1e-160, 1e-200, 1e-300])
    def test_faint_bridge_energy_ratio(self, tmp_path, capsys, bridge):
        # x reaches 1/bridge, where ||x||^2 overflows; the null-energy floor's
        # norms are scaled as the energies are, so the ratio stays defined and
        # is the 1e-100 bridge's, the draws being the same
        reports = []
        for weight in (1e-100, bridge):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, _ = run(
                    capsys, "solve", "--graph", bridged_triangles(tmp_path, weight),
                    "--b", bridged_rhs(tmp_path), "--seed", "0",
                )
            assert code == 0
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            reports.append(json.loads(out)["results"]["sparsified"])
        reference, faint = (r["relative_energy_error"] for r in reports)
        assert faint == pytest.approx(reference, rel=1e-12, abs=0)
        assert reports[1]["success"] is True

    def test_energy_error_past_the_float_range(self, tmp_path, capsys):
        # the seed-3 draw on triangles bridged at 1e-300 misses the exact
        # solution by an energy near 1e568, which no float64 holds
        code, out, err = run(
            capsys, "solve", "--graph", bridged_triangles(tmp_path, 1e-300), "--seed", "3"
        )
        assert code == 2
        assert out == "" and "numerical failure: energy error" in err and "past float64" in err

    @pytest.mark.parametrize("bridge", [1e-8, 1e-16, 1e-24, 1e-28])
    def test_faint_bridge_deviation(self, tmp_path, capsys, bridge):
        # the bridge's leverage is 1 at any weight, so the draw is the unit
        # bridge's; it keeps the bridge, so the check's Gram is triangular
        deviations = []
        for weight in (1.0, bridge):
            code, out, _ = run(capsys, "sparsify", "--graph", bridged_triangles(tmp_path, weight))
            assert code == 0
            deviations.append(json.loads(out)["results"]["deviation"])
        assert deviations[1] == pytest.approx(deviations[0], rel=1e-12, abs=0)

    @pytest.mark.parametrize("bridge", [1e-16, 1e-18])
    def test_faint_bridge_verifies(self, tmp_path, capsys, bridge):
        # the bridge's leverage is 1 at any weight, so the draws and the true
        # deviations are those of the unit bridge
        runs = []
        for weight in (bridge, 1.0):
            code, out, _ = run(
                capsys, "verify", "--graph", bridged_triangles(tmp_path, weight), "--trials", "3"
            )
            assert code == 0
            runs.append(json.loads(out)["results"]["records"])
        for faint, unit in zip(*runs):
            assert faint["distinct_edges"] == unit["distinct_edges"]
            assert faint["deviation"] == pytest.approx(unit["deviation"], rel=1e-9, abs=0)

    @pytest.mark.parametrize("bridge", [1e-36, 1e-60])
    def test_impossible_deviation_refused(self, tmp_path, capsys, bridge):
        # round-off across the bridge would put the Gram matrix's deviation
        # past its trace, which no positive semidefinite matrix allows
        code, out, err = run(capsys, "sparsify", "--graph", bridged_triangles(tmp_path, bridge))
        assert code == 2
        assert out == "" and "numerical failure" in err and "trace" in err

    def test_verify_only_reports_failed_cross_check(self, tmp_path, capsys, monkeypatch):
        from resist_sketch import harness

        monkeypatch.setattr(harness, "effective_resistances", _faulty_routes["gap"])
        code, out, _ = run(
            capsys, "verify", "--graph", bridged_triangles(tmp_path, 1e-10),
            "--trials", "2",
        )
        assert code == 0
        assert json.loads(out)["results"]["lemma_max_relerr"] == pytest.approx(1.0)

    def test_verify_reports_unfactorable_cross_check_as_null(self, tmp_path, capsys, monkeypatch):
        # a second route that cannot be factored: the gap is inf, null in
        # JSON. One draw per trial leaves each sparsified system a single
        # edge, a rank shortfall that the solve and the check finish from the
        # same elimination as a full-rank draw.
        from resist_sketch import harness

        monkeypatch.setattr(harness, "effective_resistances", _faulty_routes["unfactorable"])
        code, out, _ = run(
            capsys, "verify", "--graph", bridged_triangles(tmp_path, 1e-18),
            "--trials", "2", "--r-override", "1",
        )
        assert code == 0
        assert json.loads(out)["results"]["lemma_max_relerr"] is None


def _unfactorable(factors):
    raise rs.FactorizationError("forced")


#: stand-ins for the second resistance route: off by a factor of two, or refusing
_faulty_routes = {
    "gap": lambda factors: 2.0 * spectral.effective_resistances(factors),
    "unfactorable": _unfactorable,
}


def test_cli_determinism(tri_file, tmp_path, capsys):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a_path, b_path):
        code, _, _ = run(
            capsys,
            "verify", "--graph", tri_file, "--trials", "8", "--seed", "42",
            "--out", str(target),
        )
        assert code == 0
    a = json.loads(a_path.read_text(encoding="utf-8"))
    b = json.loads(b_path.read_text(encoding="utf-8"))
    a["results"].pop("timings")
    b["results"].pop("timings")
    assert a == b


_SUMMARIES = {
    "leverage": "Per-edge leverage scores, resistances, and sampling probabilities.",
    "resistance": "Effective resistances by a reverse-order elimination, with cross-check.",
    "sparsify": "Draw one sparsifier and report its size and concentration deviation.",
    "solve": "Solve the exact and sparsified systems once and compare them.",
    "verify": "Monte Carlo check of the accuracy and concentration guarantees.",
}
_OPTIONS = (
    "--graph", "--b", "--epsilon", "--beta", "--c0", "--seed", "--trials",
    "--r-override", "--out",
)


@pytest.mark.parametrize("mode", rs.harness.MODES)
def test_mode_help(capsys, mode):
    code, out, _ = run(capsys, mode, "--help")
    assert code == 0
    assert out.startswith("Usage: ") and f" {mode} [OPTIONS]\n\n" in out
    assert f"\n  {_SUMMARIES[mode]}\n" in out
    for option in _OPTIONS:
        assert f"\n  {option} " in out
    assert "0<=x<=18446744073709551615" in out


def test_group_help_lists_every_mode(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    listed = [line.split()[0] for line in out.split("Commands:\n", 1)[1].splitlines()]
    assert listed == sorted(_SUMMARIES)


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert rs.VERSION in out


def test_billion_draws_stay_small(tri_file, capsys):
    code, out, _ = run(
        capsys, "sparsify", "--graph", tri_file, "--r-override", "1000000000"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["r"] == 1000000000
    assert results["distinct_edges"] == 3


def test_r_override_beyond_int64_rejected(tri_file, capsys):
    code, _, err = run(
        capsys, "sparsify", "--graph", tri_file, "--r-override", str(2**63)
    )
    assert code == 1
    assert "2**63" in err


@pytest.mark.parametrize("mode", rs.harness.MODES)
def test_report_text_is_the_indented_encoders(tri_file, mode):
    # one verify trial leaves std_error NaN, reported as null
    report = rs.run_report(rs.RunConfig(graph_path=tri_file, mode=mode, trials=1, seed=3))
    assert _dumps(report) == json.dumps(report, indent=2, allow_nan=False)


_RECORD = {
    "trial": 0,
    "seed": 17996766564426832300,
    "energy_error": 0.002846925940015575,
    "relative_energy_error": None,
    "success": True,
    "deviation": 0.06591143766919447,
    "deviation_within_bound": False,
    "distinct_edges": 4397,
    "nnz": 9194,
    "rank": 399,
}
#: shaped like a verify report: no numeric list, nested dicts of scalars
_VERIFY_SHAPED = {
    "mode": "verify",
    "config": {"graph_path": "g\u00e9.txt", "epsilon": 0.5, "seed": 5, "r_override": None},
    "results": {
        "trials": 3,
        "success_rate": 1.0,
        "oversampling_condition": {"lhs": 399.0, "rhs": 0.0555, "satisfied": True},
        "max_sv_deviation_quantiles": {"q0": 0.060956444192505545, "q100": -0.0},
        "lemma_max_relerr": 2.5616747330407717e-15,
        "records": [_RECORD, dict(_RECORD, trial=1, seed=0, success=False), {}],
    },
    "timings": {"total": 1e-300},
    "version": "0.1.0",
}


@pytest.mark.parametrize(
    "value",
    [
        {
            "null": None,
            "empty": [],
            "no keys": {},
            "nested": [[1.0, 2], [], [[0.5, -0.0]], [None, 1.0], [True, 1]],
            "deep": {"a": {"b": [1e-300, 1.7e308, 10**30, -3]}},
            "text": "é\n\"",
            "tuple": (1, 2.5),
            "records": [{"trial": 0, "ok": False}, {}],
        },
        {1: [2.0], "1": None},
        [],
        [[]],
        [1.5],
        None,
        "plain",
        0.1,
        _VERIFY_SHAPED,
    ],
)
def test_report_text_edge_cases(value):
    assert _dumps(value) == json.dumps(value, indent=2, allow_nan=False)


@pytest.mark.parametrize("value", [[float("nan")], {"a": [1.0, float("inf")]}, {"a": -float("inf")}])
def test_report_text_refuses_non_finite(value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        _dumps(value)
