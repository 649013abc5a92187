"""Print one digest line per CLI report, to check that two source trees report alike.

    python3 tools/report_digests.py SRC > digests.txt

imports ``resist_sketch`` from the directory SRC (a checkout's ``src``) and
runs every mode in-process, through ``cli.main``, at seeds 3 and 4 (``verify``
at 5 trials) on a fixed set of graphs. Each run prints

    <graph> <mode> <seed> <exit code> <SHA-256>

where the hash covers the JSON report with every ``timings`` entry removed,
then what the run wrote to stderr. Two trees report alike when their outputs
are equal, e.g. with the parent commit archived to OLD:

    python3 tools/report_digests.py OLD/src > old.txt
    python3 tools/report_digests.py src > new.txt
    diff old.txt new.txt

The graphs are written here, not by the package under test: a path, a
cycle, a complete graph, two components, a 4-cycle with a parallel edge,
weights spanning 1e-12 to 1e12, two unit triangles bridged at 1e-18,
1e-100, 1e-300 and 1e-310, two random 150-vertex blocks bridged at 1e-10
(rank 299, so the sampled Gram's triangle product runs five row blocks
across a faint cut), and the three benchmark workloads' inputs at seed 1,
from ``bench/workloads.make_inputs`` of this checkout, with their epsilon
and right-hand side.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "bench"))
import workloads  # noqa: E402

SEEDS = (3, 4)
TRIALS = 5


def _write_graph(path: Path, n: int, edges) -> Path:
    lines = [f"{n} {len(edges)}"] + [f"{u} {v} {w!r}" for u, v, w in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _bridged(bridge: float):
    triangles = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]
    return 6, triangles + [(2, 3, bridge)]


def _wide_span():
    """A 12-vertex path plus chords, weights 10**U(-12, 12) from a fixed stream."""
    rng = np.random.default_rng(12)
    pairs = [(i, i + 1) for i in range(11)] + [(0, 5), (2, 9), (3, 11), (1, 7), (4, 10)]
    weights = 10.0 ** rng.uniform(-12.0, 12.0, len(pairs))
    return 12, [(u, v, float(w)) for (u, v), w in zip(pairs, weights)]


def _bridged_blocks(bridge: float):
    """Two ``workloads.random_connected`` blocks of 150 vertices and 600 edges, bridged."""
    rng = np.random.default_rng(150)
    edges = []
    for offset in (0, 150):
        u, v, w = workloads.random_connected(rng, 150, 600)
        edges += [(int(a) + offset, int(b) + offset, float(x)) for a, b, x in zip(u, v, w)]
    return 300, edges + [(149, 150, bridge)]


def graphs(workdir: Path) -> list[tuple[str, Path, Path | None, float]]:
    """(name, graph file, right-hand-side file or None, epsilon) for every graph."""
    small = {
        "path10": (10, [(i, i + 1, 1.0) for i in range(9)]),
        "cycle12": (12, [(i, (i + 1) % 12, 1.0) for i in range(12)]),
        "complete8": (8, [(i, j, 1.0) for i in range(8) for j in range(i + 1, 8)]),
        "two-components": (7, [(0, 1, 2.0), (1, 2, 0.5), (0, 2, 1.0), (3, 4, 3.0),
                               (4, 5, 1.0), (5, 6, 0.25)]),
        "parallel-4cycle": (4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (0, 3, 0.5),
                                (0, 1, 3.0)]),
        "span1e12": _wide_span(),
    }
    for bridge in ("1e-18", "1e-100", "1e-300", "1e-310"):
        small[f"bridged{bridge}"] = _bridged(float(bridge))
    small["blocks1e-10"] = _bridged_blocks(1e-10)
    out = [(name, _write_graph(workdir / f"{name}.txt", *g), None, 0.5)
           for name, g in small.items()]
    for name, w in workloads.WORKLOADS.items():
        folder = workdir / name
        folder.mkdir()
        inputs = workloads.make_inputs(w, 1, folder)
        out.append((name, inputs.graph_path, inputs.b_path, w.epsilon))
    return out


def digest(main, argv: list[str], report: Path) -> tuple[int, str]:
    """Exit code of main(argv) and the SHA-256 of its report, timings removed, then its stderr."""
    report.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(report)])
    text = ""
    if report.exists():
        text = json.dumps(workloads._strip_timings(json.loads(report.read_text(encoding="utf-8"))))
    blob = (text + "\0" + err.getvalue()).encode("utf-8")
    return code, hashlib.sha256(blob).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("src", type=Path, help="directory that holds the resist_sketch package")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from resist_sketch import cli
    from resist_sketch.harness import MODES

    print(f"resist_sketch from {Path(cli.__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        # the report echoes the file names it was given, so they are relative to tmp
        os.chdir(tmp)
        workdir = Path()
        report = workdir / "report.json"
        for name, graph, b, epsilon in graphs(workdir):
            for mode in MODES:
                for seed in SEEDS:
                    argv = [mode, "--graph", str(graph), "--epsilon", repr(epsilon)]
                    argv += ["--seed", str(seed), "--trials", str(TRIALS)]
                    if b is not None:
                        argv += ["--b", str(b)]
                    code, sha = digest(cli.main, argv, report)
                    print(name, mode, seed, code, sha, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
