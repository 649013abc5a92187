"""Acceptance gate: one test per criterion, one printed verdict line each.

Statistical criteria run at full scale with frozen master seeds; the seeds
were chosen once, up front, and the tolerances are the contract values, so
a FAIL here means the guarantee is broken, not that the suite is flaky.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

import resist_sketch as rs
from conftest import sparsifier_laplacian
from oracles import eig_pinv

MASTER_SEED = 20260818

VERIFY_GRAPHS = {
    "path10": lambda: rs.path(10),
    "cycle12": lambda: rs.cycle(12),
    "complete8": lambda: rs.complete(8),
    "random15": lambda: rs.random_connected(15, np.random.default_rng(101)),
}
EPSILONS = (0.5, 0.8)


def announce(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def softly_decreasing(values, tolerance=0.10, allowed_inversions=1):
    """Non-increasing, except up to allowed_inversions rises of <= tolerance."""
    inversions = 0
    for prev, nxt in zip(values, values[1:]):
        if nxt > prev:
            inversions += 1
            if nxt > prev * (1.0 + tolerance):
                return False
    return inversions <= allowed_inversions


@pytest.fixture(scope="module")
def verify_reports(tmp_path_factory):
    """The 8 Monte Carlo verification runs shared by criteria 4 and 5."""
    base = tmp_path_factory.mktemp("acceptance")
    reports = {}
    for name, make in VERIFY_GRAPHS.items():
        graph_path = base / f"{name}.txt"
        with open(graph_path, "w", encoding="utf-8") as fh:
            rs.save_graph(make(), fh)
        for epsilon in EPSILONS:
            cfg = rs.RunConfig(
                graph_path=str(graph_path),
                mode="verify",
                epsilon=epsilon,
                seed=MASTER_SEED,
                trials=100,
            )
            reports[(name, epsilon)] = rs.cmd_verify(cfg)
    return reports


def test_criterion_1_leverage_equals_weight_times_resistance(capsys):
    rng = np.random.default_rng(9001)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 41))
        g = rs.random_connected(n, rng)
        profile = rs.spectral_profile(rs.incidence_factors(g))
        wr = g.weights() * rs.effective_resistances(g)
        worst = max(worst, float(np.max(np.abs(profile.leverage - wr) / profile.leverage)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8
    announce(
        capsys, 1, "leverage = weight x resistance on 200 graphs", ok,
        f"max relerr {worst:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_leverage_sum_is_rank(capsys):
    connected = [
        rs.path(10), rs.cycle(12), rs.complete(8),
        rs.path(3, weights=[2.0, 3.0]),
    ]
    rng = np.random.default_rng(424242)
    connected += [rs.random_connected(int(rng.integers(4, 30)), rng) for _ in range(50)]
    disconnected = [
        rs.WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)]),
        rs.WeightedGraph(7, [(0, 1, 2.0), (1, 2, 1.0), (0, 2, 0.5), (4, 5, 1.0), (5, 6, 3.0)]),
    ]
    worst = 0.0
    for g in connected + disconnected:
        profile = rs.spectral_profile(rs.incidence_factors(g))
        expected = g.n - rs.component_count(g)
        worst = max(worst, abs(float(profile.leverage.sum()) - expected))
    ok = worst <= 1e-8
    announce(
        capsys, 2, "leverage sums to n - components", ok,
        f"max |sum - expected| {worst:.2e} over {len(connected) + len(disconnected)} graphs",
    )
    assert ok


def test_criterion_3_tree_scores(capsys):
    rng = np.random.default_rng(5150)
    worst_leverage = 0.0
    worst_resistance = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 65))
        g = rs.random_tree(n, rng)
        profile = rs.spectral_profile(rs.incidence_factors(g))
        worst_leverage = max(worst_leverage, float(np.max(np.abs(profile.leverage - 1.0))))
        worst_resistance = max(
            worst_resistance,
            float(np.max(np.abs(profile.resistance * g.weights() - 1.0))),
        )
    ok = worst_leverage <= 1e-8 and worst_resistance <= 1e-8
    announce(
        capsys, 3, "tree edges have unit leverage and resistance 1/w", ok,
        f"max |l-1| {worst_leverage:.2e}, max rel resist dev {worst_resistance:.2e}",
    )
    assert ok


def test_criterion_4_relative_error_success_rate(capsys, verify_reports):
    rates = {key: rep.success_rate for key, rep in verify_reports.items()}
    worst_key = min(rates, key=rates.get)
    ok = all(rate >= 2.0 / 3.0 for rate in rates.values())
    announce(
        capsys, 4, "energy-error success rate >= 2/3 on 8 configs", ok,
        f"min rate {rates[worst_key]:.2f} at {worst_key}",
    )
    assert ok, rates


def test_criterion_5_concentration(capsys, verify_reports):
    worst_rate = 1.0
    worst_margin = float("inf")
    ok = True
    for rep in verify_reports.values():
        worst_rate = min(worst_rate, rep.concentration_pass_rate)
        if rep.concentration_pass_rate < 2.0 / 3.0:
            ok = False
        allowance = rep.mean_deviation_target + 2.0 * rep.concentration_std_error
        margin = allowance - rep.mean_concentration_deviation
        worst_margin = min(worst_margin, margin)
        if margin < 0.0:
            ok = False
    announce(
        capsys, 5, "per-trial and mean concentration bounds", ok,
        f"min pass rate {worst_rate:.2f}, min mean margin {worst_margin:.3f}",
    )
    assert ok


def test_criterion_6_sparsifier_unbiased(capsys, triangle):
    factors = rs.incidence_factors(triangle)
    profile = rs.spectral_profile(factors)
    L = rs.laplacian_of(triangle).toarray()
    scale = np.linalg.norm(L)
    plan0 = rs.SamplingPlan(
        probabilities=rs.leverage_probabilities(profile),
        beta=1.0, epsilon=0.5, c0=1.0, r=1000, seed=0,
    )
    accumulated = np.zeros_like(L)
    curve = []
    for t in range(500):
        plan = dataclasses.replace(plan0, seed=rs.trial_seed(MASTER_SEED, t))
        accumulated += sparsifier_laplacian(rs.build_sparsifier(factors, plan)).toarray()
        if t + 1 in (125, 250, 500):
            curve.append(float(np.linalg.norm(accumulated / (t + 1) - L) / scale))
    ok = curve[-1] <= 0.05 and softly_decreasing(curve)
    announce(
        capsys, 6, "mean sparsifier converges to the Laplacian", ok,
        "relerr at 125/250/500 trials: " + "/".join(f"{v:.5f}" for v in curve),
    )
    assert ok, curve


def test_criterion_7_error_shrinks_as_r_doubles(capsys):
    g = rs.random_connected(15, np.random.default_rng(101))
    factors = rs.incidence_factors(g)
    profile = rs.spectral_profile(factors)
    p = rs.leverage_probabilities(profile)
    L = rs.laplacian_of(g)
    b = rs.default_rhs(g.n, MASTER_SEED)
    exact = rs.solve_exact(L, b, profile=profile)
    seeds_per_level = 50
    medians = []
    for level, r in enumerate((200, 400, 800, 1600)):
        errors = []
        for t in range(seeds_per_level):
            plan = rs.SamplingPlan(
                probabilities=p, beta=1.0, epsilon=0.5, c0=1.0, r=r,
                seed=rs.trial_seed(MASTER_SEED, level * seeds_per_level + t),
            )
            system = rs.build_sparsifier(factors, plan)
            scored = rs.error_report(exact, rs.solve_sparsified(system, b), factors, 0.5)
            errors.append(scored.relative_energy_error)
        medians.append(float(np.median(errors)))
    ok = softly_decreasing(medians)
    announce(
        capsys, 7, "median energy error non-increasing as r doubles", ok,
        "medians " + "/".join(f"{v:.5f}" for v in medians),
    )
    assert ok, medians


def test_criterion_8_solver_matches_eigendecomposition_oracle(capsys):
    rng = np.random.default_rng(777)
    graphs = [
        rs.path(5), rs.cycle(7), rs.complete(6), rs.path(2),
        rs.random_tree(12, rng), rs.random_connected(12, rng),
        rs.random_connected(9, rng),
        rs.WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)]),
    ]
    worst = 0.0
    for g in graphs:
        L = rs.laplacian_of(g)
        profile = rs.spectral_profile(rs.incidence_factors(g))
        for _ in range(5):
            b = rng.standard_normal(g.n)
            x_oracle = eig_pinv(L.toarray()) @ b
            norm = max(float(np.linalg.norm(x_oracle)), 1e-30)
            for x in (rs.solve_exact(L, b).x, rs.solve_exact(L, b, profile=profile).x):
                worst = max(worst, float(np.linalg.norm(x - x_oracle)) / norm)
    ok = worst <= 1e-9
    announce(
        capsys, 8, "solver agrees with eigendecomposition pseudoinverse", ok,
        f"max rel dev {worst:.2e} on {len(graphs)} graphs x 5 rhs",
    )
    assert ok


def test_criterion_9_verify_is_deterministic(capsys, tmp_path):
    graph_path = tmp_path / "tri.txt"
    with open(graph_path, "w", encoding="utf-8") as fh:
        rs.save_graph(rs.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]), fh)
    cfg = rs.RunConfig(
        graph_path=str(graph_path), mode="verify", trials=25, seed=MASTER_SEED
    )
    first = rs.run_report(cfg)
    second = rs.run_report(cfg)
    first["results"].pop("timings")
    second["results"].pop("timings")
    a, b = json.dumps(first, sort_keys=True), json.dumps(second, sort_keys=True)
    ok = a == b
    announce(
        capsys, 9, "verify reports are bit-identical without timings", ok,
        f"{len(a)} bytes compared",
    )
    assert ok
