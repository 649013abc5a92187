"""The resist-sketch benchmark: one named workload per process.

    python3 bench/run.py --workload scores-n800 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark generates its inputs from
--seed, drives the real CLI in-process (``resist_sketch.cli.main`` with
``--out``) for --seconds, checks every report against computations made
apart from the package, and prints as its last stdout line one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics; --trace 1 alternates traced and untraced calls and
reports the per-layer ones. See bench/README.md.
"""

from __future__ import annotations

import os
import time


def _since_process_start() -> float:
    """Seconds since this process started (10 ms steps), or 0.0 if /proc cannot tell."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_T0 = time.perf_counter() - _since_process_start()

# one BLAS/OpenMP thread, fixed before numpy loads, so runs are comparable
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"

# the per-layer metrics of BENCHMARK.json, in its order; --trace 1 prints all of them
PER_LAYER = tuple(
    f"{name}.{kind}" for name in spans.FUNCTIONS for kind in ("self_s", "calls")
) + (
    "sampling.draws",
    "sampling.distinct_edges",
    "sampling.distinct_per_draw",
    "sampling.draws_per_s",
    "solve.rank_shortfall",
    "spectral.svd_flops_computed",
    "spectral.dense_bytes_computed",
    "cli.report_bytes",
    "trace.overhead_s",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be a non-negative 63-bit integer")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


class Runner:
    """Calls the CLI on one workload's inputs; counts attempts and failures."""

    def __init__(self, cli, w: workloads.Workload, inp: workloads.Inputs, seed: int, workdir: Path):
        self.cli, self.w, self.inp, self.seed = cli, w, inp, seed
        self.out = workdir / "report.json"
        self.attempted = 0
        self.failed = 0

    def _main(self, argv) -> int:
        try:
            return self.cli.main(argv)
        except Exception:  # a crash is a failed call, as it would be for the CLI process
            traceback.print_exc()
            return 1

    def call(self, i: int, recorder: spans.Recorder | None = None):
        """Run call i; return (seconds, report or None, report bytes)."""
        self.out.unlink(missing_ok=True)
        seed = workloads.call_seed(self.w, self.seed, i)
        argv = self.w.argv(self.inp.graph_path, self.inp.b_path, seed, self.out)
        self.attempted += 1
        if recorder is None:
            t = time.perf_counter()
            code = self._main(argv)
            dt = time.perf_counter() - t
        else:
            with spans.installed(recorder):
                t = time.perf_counter()
                with recorder.span("cli.main", call=i):
                    code = self._main(argv)
                dt = time.perf_counter() - t
        if code != 0:
            self.failed += 1
            print(f"call {i}: exit code {code}", file=sys.stderr)
            return dt, None, 0
        text = self.out.read_text(encoding="utf-8")
        return dt, json.loads(text), len(text.encode("utf-8"))


def layer_metrics(w, recorder, traced, untraced, report_bytes) -> dict:
    """Per-CLI-call layer figures from the traced calls.

    Every per-layer metric is reported on every workload: a function that
    ran no span (a layer the workload never reaches, or a function a later
    version removes or renames) reads 0 calls and 0 s, and so do the
    sampling and solve figures of a workload that neither samples nor solves.
    """
    k = len(traced)
    totals = recorder.totals()
    counts = recorder.counts
    out = {}
    for name in spans.FUNCTIONS:
        t = totals.get(name, {"self": 0.0, "calls": 0})
        out[f"{name}.self_s"] = (t["self"] / k, "s")
        out[f"{name}.calls"] = (t["calls"] / k, "count")
    draws = counts["draws"]
    build_s = totals.get("sampling.build_sparsifier", {}).get("duration", 0.0)
    out["sampling.draws"] = (draws / k, "count")
    out["sampling.distinct_edges"] = (counts["distinct_edges"] / k, "count")
    out["sampling.distinct_per_draw"] = (counts["distinct_edges"] / draws if draws else 0.0, "edges/draw")
    out["sampling.draws_per_s"] = (draws / build_s if build_s > 0 else 0.0, "1/s")
    out["solve.rank_shortfall"] = (counts["rank_shortfall"] / k, "count")
    n, m = w.n, w.m
    profiles = totals.get("spectral.spectral_profile", {}).get("calls", 0)
    pinvs = totals.get("spectral.effective_resistances", {}).get("calls", 0)
    # Golub & Van Loan's R-SVD count for U1, Sigma and V of an m x n matrix
    out["spectral.svd_flops_computed"] = (profiles * (6 * m * n * n + 20 * n**3) / k, "flop")
    # dense phi, U (m x n) and V (n x n) per profile; dense L and pinv per pinv route
    dense = profiles * 8 * (2 * m * n + n * n) + pinvs * 8 * 2 * n * n
    out["spectral.dense_bytes_computed"] = (dense / k, "B")
    out["cli.report_bytes"] = (statistics.median(report_bytes), "B")
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    assert list(out) == list(PER_LAYER), "per-layer metrics out of step with PER_LAYER"
    return out


def run(args, cli, workdir: Path) -> dict:
    w = workloads.WORKLOADS[args.workload]
    t = time.perf_counter()
    inp = workloads.make_inputs(w, args.seed, workdir)
    generate_s = time.perf_counter() - t
    runner = Runner(cli, w, inp, args.seed, workdir)
    _, first, _ = runner.call(0)
    setup_s = time.perf_counter() - _T0 - generate_s

    ref = workloads.reference(inp)
    problems = []
    values = []  # per call, what the run-level check needs; reports are not kept

    def keep(report, i):
        if report is not None:
            problems.extend(f"call {i}: {p}" for p in workloads.check_call(w, inp, ref, report))
            values.append(workloads.run_value(w, report))

    keep(first, 0)
    recorder = spans.Recorder(graph_rank=w.n - 1) if args.trace else None
    # measured: the calls the metrics describe, the traced ones with --trace 1
    measured, untraced, report_bytes = [], [], []
    i = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        if recorder is None:
            order = [None]
        else:
            # one traced and one untraced call, which goes first alternating
            order = [recorder, None] if len(measured) % 2 == 0 else [None, recorder]
        for rec in order:
            i += 1
            dt, report, size = runner.call(i, rec)
            if rec is recorder:
                measured.append(dt)
                report_bytes.append(size)
            else:
                untraced.append(dt)
            keep(report, i)
        if time.perf_counter() >= deadline:
            break

    _, again, _ = runner.call(0)
    if first is None or again is None:
        problems.append("repeat: the warm-up or its repeat failed")
    else:
        problems += workloads.check_repeat(first, again)
    problems += workloads.check_run(w, values)
    if first is None:
        tried, missed = 0, ["no report to perturb"]
    else:
        tried, missed = workloads.self_test(w, inp, ref, first, values)
    problems += [f"self-test: a perturbation went unflagged: {m}" for m in missed]

    if recorder is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "call_s": (statistics.median(measured), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = layer_metrics(w, recorder, measured, untraced, report_bytes)
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "call_seconds": measured,
        "untraced_call_seconds": untraced if recorder is not None else None,
        "generate_s": generate_s,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": problems,
        "self_test_perturbations": tried,
        "self_test_missed": missed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": recorder.spans if recorder is not None else None,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "resist_sketch" / "__init__.py").is_file():
        print(f"error: no resist_sketch package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from resist_sketch import cli  # the benchmark's first import of the package

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: resist_sketch was imported from {cli.__file__}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        result = run(args, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_out = result.pop("spans")
    if spans_out is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans_out), encoding="utf-8")
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")

    for p in result["problems"][:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print("provenance: " + json.dumps(result["provenance"]))
    sampled = "traced (per-layer figures are per call)" if args.trace else "timed (call_s is their median)"
    print(
        f"calls: {len(result['call_seconds'])} {sampled}, "
        f"{result['attempted']} attempted, {result['failed']} failed; "
        f"self-test flagged {result['self_test_perturbations'] - len(result['self_test_missed'])}"
        f" of {result['self_test_perturbations']} perturbed reports"
    )
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
