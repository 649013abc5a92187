"""Command-line interface.

One subcommand per pipeline mode, all sharing the same option set so configs
can be swapped between modes without editing flags. Reports are UTF-8 JSON
on stdout or --out. Exit codes: 0 success, 1 usage or input error, 2
numerical failure inside a factorization.
"""

from __future__ import annotations

import json
import math
import sys
from json.encoder import encode_basestring_ascii as _string

import click
import numpy as np

from .errors import SEED_BOUND, FactorizationError, GraphParseError, ParameterError
from .harness import _COMMANDS, RunConfig, run_report
from .version import VERSION


def _pipeline_options(fn):
    options = [
        click.option(
            "--graph",
            "graph_path",
            required=True,
            type=click.Path(exists=True, dir_okay=False),
            help="Edge-list graph file.",
        ),
        click.option(
            "--b",
            "b_path",
            default=None,
            type=click.Path(exists=True, dir_okay=False),
            help="Right-hand-side vector file, one number per line "
            "(default: seeded zero-sum normal vector).",
        ),
        click.option(
            "--epsilon",
            default=0.5,
            show_default=True,
            type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True),
            help="Target relative accuracy of the sparsified solve.",
        ),
        click.option(
            "--beta",
            default=1.0,
            show_default=True,
            type=click.FloatRange(0.0, 1.0, min_open=True),
            help="Assumed leverage-floor fraction of the sampling probabilities.",
        ),
        click.option(
            "--c0",
            default=1.0,
            show_default=True,
            type=click.FloatRange(0.0, min_open=True),
            help="Oversampling constant in the sample-count rule.",
        ),
        click.option(
            "--seed",
            default=0,
            show_default=True,
            type=click.IntRange(0, SEED_BOUND - 1),
            help="Master seed; fixes the right-hand side and every draw.",
        ),
        click.option(
            "--trials",
            default=100,
            show_default=True,
            type=click.IntRange(min=1),
            help="Trial count for verify mode.",
        ),
        click.option(
            "--r-override",
            default=None,
            type=click.IntRange(min=1),
            help="Use this sample count instead of the rule (flagged off-theorem).",
        ),
        click.option(
            "--out",
            "out_path",
            default=None,
            type=click.Path(dir_okay=False, writable=True),
            help="Write the JSON report here instead of stdout.",
        ),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


@click.group()
@click.version_option(version=VERSION, prog_name="resist-sketch")
def cli() -> None:
    """Leverage-score edge sampling for Laplacian least-squares problems."""


#: the JSON text of the booleans and None; read for those types only, as 1 == True
_CONSTANTS = {True: "true", False: "false", None: "null"}


def _dumps(value, level: int = 0) -> str:
    """json.dumps(value, indent=2, allow_nan=False), byte for byte, but faster.

    With an indent the standard library encodes in pure Python, one
    generator step per token. Here each non-empty list of plain ints and
    floats goes through the C encoder in one call, its item separator
    carrying the line break and indent; dicts with string keys and other
    lists are laid out around it the way the indented encoder lays them out,
    and strings, finite floats, ints, booleans and None are written as it
    writes them. Anything else is json.dumps's own text, re-indented: JSON
    strings never hold a raw line break.
    """
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is int or kind is float and math.isfinite(value):
        return kind.__repr__(value)
    if kind is bool or value is None:
        return _CONSTANTS[value]
    pad = "\n" + "  " * level
    inner = pad + "  "
    if kind is list and value:
        if {float, int}.issuperset(map(type, value)):
            items = json.dumps(value, separators=("," + inner, ":"), allow_nan=False)[1:-1]
        else:
            items = ("," + inner).join(_dumps(x, level + 1) for x in value)
        return "[" + inner + items + pad + "]"
    if kind is dict and value and all(type(k) is str for k in value):
        items = ("," + inner).join(
            _string(k) + ": " + _dumps(v, level + 1) for k, v in value.items()
        )
        return "{" + inner + items + pad + "}"
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", pad)


def _add_subcommand(mode: str, command) -> None:
    def execute(out_path: str | None, **kwargs) -> None:
        report = run_report(RunConfig(mode=mode, **kwargs))
        with click.open_file(out_path or "-", "w", encoding="utf-8") as out:
            click.echo(_dumps(report), file=out)

    summary = command.__doc__.partition("\n")[0]
    cli.command(name=mode, help=summary)(_pipeline_options(execute))


for _mode, _command in _COMMANDS.items():
    _add_subcommand(_mode, _command)


def main(argv: list[str] | None = None) -> int:
    """Entry point with explicit exit-code mapping.

    click's own usage-error exit code is 2; here every usage, parse, or I/O
    problem exits 1 and code 2 is reserved for numerical failures.
    """
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except (GraphParseError, ParameterError, OSError, UnicodeDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except (FactorizationError, np.linalg.LinAlgError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
