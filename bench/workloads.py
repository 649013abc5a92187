"""Workloads of the resist-sketch benchmark: seeded inputs and reference checks.

Inputs come from the benchmark's own ``numpy.random.Generator``, never from
``resist_sketch.families``, so a change to the package cannot change what is
measured. The references use none of the package's routes (no pinv, no SVD):
they come from a dense Laplacian the benchmark assembles itself and a
Cholesky factorization of that Laplacian grounded at vertex 0.

Every check returns a list of failure messages, each starting with the
check's label; an empty list means the report passed. ``PERTURBATIONS``
pairs each label with a one-value change to a real report that the check
must flag, which is how every run shows that its checks can fail.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

#: relative tolerances; the routes agree to ~1e-12 on these inputs, and every
#: perturbation below is at least 1e-6, so no tolerance can hide one
RESISTANCE_RTOL = 1e-9
FOSTER_RTOL = 1e-9
EXACT_RTOL = 1e-9
ENERGY_RTOL = 1e-8
PASS_SHARE = 2.0 / 3.0
#: passed on every call, so the sample-count check does not rest on CLI defaults
BETA = 1.0
C0 = 1.0


@dataclass(frozen=True)
class Workload:
    """One CLI mode on one shape of input.

    key       stream key mixed with --seed: inputs come from
              SeedSequence((key, seed)), CLI seeds from (key, seed, call)
    n, m      vertex and edge count of the connected random graph
    epsilon   passed as --epsilon
    trials    passed as --trials (verify only)
    rhs       whether a right-hand-side file is written and passed as --b
    """

    name: str
    key: int
    mode: str
    n: int
    m: int
    epsilon: float
    trials: int
    rhs: bool

    def argv(self, graph: Path, b: Path | None, seed: int, out: Path) -> list[str]:
        argv = [self.mode, "--graph", str(graph), "--epsilon", repr(self.epsilon)]
        argv += ["--beta", repr(BETA), "--c0", repr(C0)]
        if b is not None:
            argv += ["--b", str(b)]
        if self.mode == "verify":
            argv += ["--trials", str(self.trials)]
        return argv + ["--seed", str(seed), "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        # one-shot scoring: the dense SVD and the pinv route do all the work
        Workload("scores-n800", 1, "resistance", 800, 7200, 0.5, 1, False),
        # per-trial draw, concentration check and sparsified solve dominate
        Workload("verify-n400", 2, "verify", 400, 4400, 0.5, 10, True),
        # r ~ 9.2M draws on a small dense graph: draw time and draw memory
        Workload("solve-high-r", 3, "solve", 200, 10000, 0.02, 1, True),
    )
}


def call_seed(w: Workload, seed: int, call: int) -> int:
    """64-bit CLI seed of one call; call 0 is the warm-up and the repeat."""
    ss = np.random.SeedSequence((w.key, seed, call))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class Inputs:
    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    b: np.ndarray | None
    graph_path: Path
    b_path: Path | None


def _pair_index(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    # position of (i, j), i < j, in np.triu_indices(n, 1) order
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def random_connected(rng: np.random.Generator, n: int, m: int):
    """Simple connected graph with exactly m edges and weights in [0.1, 10].

    A random recursive tree (each vertex of a random order joins a uniformly
    chosen earlier one) keeps it connected; the other m - n + 1 edges are
    distinct vertex pairs drawn without replacement. Edge order and endpoint
    order are shuffled.
    """
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no simple connected graph has n={n}, m={m}")
    order = rng.permutation(n)
    parents = order[(rng.random(n - 1) * np.arange(1, n)).astype(np.int64)]
    lo = np.minimum(order[1:], parents)
    hi = np.maximum(order[1:], parents)
    iu, ju = np.triu_indices(n, 1)
    free = np.ones(iu.size, dtype=bool)
    free[_pair_index(lo, hi, n)] = False
    extra = rng.choice(np.flatnonzero(free), size=m - (n - 1), replace=False)
    u = np.concatenate([lo, iu[extra]])
    v = np.concatenate([hi, ju[extra]])
    perm = rng.permutation(m)
    u, v = u[perm], v[perm]
    flip = rng.random(m) < 0.5
    u, v = np.where(flip, v, u), np.where(flip, u, v)
    return u, v, rng.uniform(0.1, 10.0, m)


def make_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's graph (and right-hand side) and write the files."""
    rng = np.random.default_rng(np.random.SeedSequence((w.key, seed)))
    u, v, wt = random_connected(rng, w.n, w.m)
    graph_path = workdir / "graph.txt"
    lines = [f"{w.n} {w.m}"]
    lines += [f"{a} {c} {x!r}" for a, c, x in zip(u.tolist(), v.tolist(), wt.tolist())]
    graph_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    b = b_path = None
    if w.rhs:
        # deliberately not zero-sum: the solve must discard the constant part
        b = rng.standard_normal(w.n) + 1.0
        b_path = workdir / "b.txt"
        b_path.write_text("".join(f"{x!r}\n" for x in b.tolist()), encoding="utf-8")
    return Inputs(w.n, u, v, wt, b, graph_path, b_path)


@dataclass(frozen=True)
class Reference:
    L: np.ndarray
    resistance: np.ndarray
    x_exact: np.ndarray | None


def reference(inp: Inputs) -> Reference:
    """Dense Laplacian, resistances and minimal-norm solution, via grounded Cholesky."""
    n = inp.n
    L = np.zeros((n, n))
    np.add.at(L, (inp.u, inp.v), -inp.w)
    np.add.at(L, (inp.v, inp.u), -inp.w)
    np.add.at(L, (inp.u, inp.u), inp.w)
    np.add.at(L, (inp.v, inp.v), inp.w)
    factor = scipy.linalg.cho_factor(L[1:, 1:])
    grounded = np.zeros((n, n))
    grounded[1:, 1:] = scipy.linalg.cho_solve(factor, np.eye(n - 1))
    u, v = inp.u, inp.v
    resistance = grounded[u, u] + grounded[v, v] - 2.0 * grounded[u, v]
    x_exact = None
    if inp.b is not None:
        b = inp.b - inp.b.mean()
        x_exact = np.concatenate([[0.0], scipy.linalg.cho_solve(factor, b[1:])])
        x_exact -= x_exact.mean()
    return Reference(L, resistance, x_exact)


def _check_scores(w: Workload, inp: Inputs, ref: Reference, res: dict) -> list[str]:
    out = []
    r = np.asarray(res["resistance"], dtype=float)
    if r.shape != ref.resistance.shape:
        return [f"resistance: {r.size} values for {ref.resistance.size} edges"]
    gap = float(np.max(np.abs(r - ref.resistance) / ref.resistance))
    if not gap <= RESISTANCE_RTOL:
        out.append(f"resistance: max relative gap {gap:.3e} to the Cholesky route")
    foster = float(np.dot(inp.w, r))
    if not abs(foster - (w.n - 1)) <= FOSTER_RTOL * (w.n - 1):
        out.append(f"foster: sum w_e R_e = {foster!r}, expected {w.n - 1}")
    if res["rank"] != w.n - 1:
        out.append(f"rank: {res['rank']}, expected {w.n - 1}")
    return out


def _check_solve(w: Workload, inp: Inputs, ref: Reference, res: dict) -> list[str]:
    out = []
    x_e = np.asarray(res["exact"]["x"], dtype=float)
    x_s = np.asarray(res["sparsified"]["x"], dtype=float)
    gap = float(np.linalg.norm(x_e - ref.x_exact) / np.linalg.norm(ref.x_exact))
    if not gap <= EXACT_RTOL:
        out.append(f"exact: relative gap {gap:.3e} to the grounded minimal-norm solve")
    d = x_e - x_s
    energy = float(d @ ref.L @ d)
    reported = res["sparsified"]["energy_error"]
    if reported is None or not abs(reported - energy) <= ENERGY_RTOL * energy:
        out.append(f"energy: reported {reported!r}, recomputed {energy!r}")
    return out


def _check_verify(w: Workload, inp: Inputs, ref: Reference, res: dict) -> list[str]:
    out = []
    x = 36.0 * C0**2 * w.n / (BETA * w.epsilon)
    r_rule = math.ceil(2.0 * x * math.log(x))
    if res["r"] != r_rule:
        out.append(f"r: reported {res['r']}, rule gives {r_rule}")
    for key in ("success_rate", "concentration_pass_rate"):
        if not res[key] >= PASS_SHARE:
            out.append(f"rates: {key} = {res[key]!r} is below 2/3")
    records = res["records"]
    if [rec["trial"] for rec in records] != list(range(w.trials)):
        out.append(f"records: {len(records)} records for {w.trials} trials")
    cap = min(w.m, res["r"])
    over = [rec["trial"] for rec in records if rec["distinct_edges"] > cap]
    if over:
        out.append(f"distinct: trials {over} report more than min(m, r) = {cap} edges")
    return out


_CALL_CHECKS = {"resistance": _check_scores, "solve": _check_solve, "verify": _check_verify}


def check_call(w: Workload, inp: Inputs, ref: Reference, report: dict) -> list[str]:
    """Failures of one call's report against the references."""
    if report.get("mode") != w.mode:
        return [f"mode: report is for {report.get('mode')!r}"]
    return _CALL_CHECKS[w.mode](w, inp, ref, report["results"])


def run_value(w: Workload, report: dict):
    """What the run-level check needs from one call's report."""
    if w.mode == "solve":
        return report["results"]["sparsified"]["relative_energy_error"]
    return None


def check_run(w: Workload, values: list) -> list[str]:
    """Failures that only a run's calls together can show, from their run_value."""
    if w.mode != "solve" or not values:
        return []
    ok = sum(v is not None and v <= w.epsilon for v in values)
    if ok < PASS_SHARE * len(values):
        return [f"share: relative energy error <= epsilon on {ok} of {len(values)} calls"]
    return []


def _strip_timings(value):
    if isinstance(value, dict):
        return {k: _strip_timings(v) for k, v in value.items() if k != "timings"}
    if isinstance(value, list):
        return [_strip_timings(v) for v in value]
    return value


def check_repeat(first: dict, again: dict) -> list[str]:
    """The same call twice must give the same report, timings aside."""
    if _strip_timings(first) != _strip_timings(again):
        return ["repeat: same seed gave a different report"]
    return []


def _scale_first(key: str, factor: float):
    def perturb(rep):
        rep["results"][key][0] *= factor
    return perturb


def _set(path: tuple, value):
    def perturb(rep):
        target = rep
        for k in path[:-1]:
            target = target[k]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    return perturb


def _halve_successes(values):
    # epsilon < 1, so a relative error of 1 always misses it
    values[: (len(values) + 1) // 2] = [1.0] * ((len(values) + 1) // 2)


#: (label the check reports under, change to one report); label "share"
#: changes the run's run_value list instead
PERTURBATIONS = {
    "resistance": (
        ("resistance", _scale_first("resistance", 1.0 + 1e-6)),
        ("foster", _scale_first("resistance", 1.0 + 1e-3)),
        ("rank", _set(("results", "rank"), lambda r: r - 1)),
    ),
    "solve": (
        ("exact", _set(("results", "exact", "x", 0), lambda x: x + 1e-6)),
        ("energy", _set(("results", "sparsified", "energy_error"), lambda e: 2.0 * e)),
        ("share", _halve_successes),
    ),
    "verify": (
        ("r", _set(("results", "r"), lambda r: r + 1)),
        ("rates", _set(("results", "success_rate"), 0.5)),
        ("rates", _set(("results", "concentration_pass_rate"), 0.5)),
        ("records", lambda rep: rep["results"]["records"].pop()),
        ("distinct", _set(("results", "records", 0, "distinct_edges"), lambda d: 10**9)),
    ),
}


def self_test(
    w: Workload, inp: Inputs, ref: Reference, report: dict, values: list
) -> tuple[int, list[str]]:
    """Perturb a real report, and the run's run_value list, one value at a time.

    Returns how many perturbations were tried and which went unflagged.

    The repeat check is tested both ways: a changed non-timing field must be
    flagged, a changed timing must not.
    """
    missed = []
    for k, (label, perturb) in enumerate(PERTURBATIONS[w.mode]):
        if label == "share":
            bad = list(values)
            perturb(bad)
            failures = check_run(w, bad)
        else:
            bad = copy.deepcopy(report)
            perturb(bad)
            failures = check_call(w, inp, ref, bad)
        if not any(f.startswith(label + ":") for f in failures):
            missed.append(f"{label} (perturbation {k})")
    changed = copy.deepcopy(report)
    changed["results"]["rank"] += 1
    if not check_repeat(report, changed):
        missed.append("repeat (changed rank)")
    retimed = copy.deepcopy(report)
    retimed["results"]["timings"] = {"total": -1.0}
    if check_repeat(report, retimed):
        missed.append("repeat flagged a timing-only change")
    return len(PERTURBATIONS[w.mode]) + 2, missed
