"""Command-line front end: config ingestion, running the experiment's
registry entry, and structured output (CSV tables, JSON summaries, gnuplot
companions)."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import warnings
from itertools import chain

import numpy as np

from . import __version__
from .config import RunConfig, parse_config_file, resolve, validate
from .errors import (
    BadDimension,
    NegativeFrequency,
    NoConvergence,
    NonFinite,
    NonHermitianInput,
    NonPositiveInput,
    ParseError,
    PositivityViolation,
    PureStateSingularity,
    QThermoError,
    ResolutionLimit,
    ValidationError,
)
from .experiments import EXPERIMENTS
from .selftest import run_selftest

#: Distinct exit code per library error class (documented in the README).
EXIT_CODES = [
    (ParseError, 2),
    (ValidationError, 3),
    (NonHermitianInput, 4),
    (PositivityViolation, 5),
    (NoConvergence, 6),
    (PureStateSingularity, 9),
    (NegativeFrequency, 12),
    (NonPositiveInput, 13),
    (BadDimension, 14),
    (NonFinite, 15),
    (ResolutionLimit, 17),
    (QThermoError, 16),
]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


#: Rows of a CSV body formatted by one ``%`` and written by one ``write``.
_CSV_CHUNK = 4096


def write_csv(path: str, columns, data) -> None:
    """Write the table ``data`` (column name -> list of values) in the order
    ``columns``, each value by ``_fmt``'s rule.  A column of plain floats is
    formatted by its chunk's ``%``, any other column value by value first."""
    fields, cols = [], []
    for name in columns:
        col = data[name]
        plain = set(map(type, col)) == {float}
        fields.append("%.17g" if plain else "%s")
        cols.append(col if plain else list(map(_fmt, col)))
    line = ",".join(fields) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(cols[0]), _CSV_CHUNK):
            chunk = [col[start : start + _CSV_CHUNK] for col in cols]
            fh.write(line * len(chunk[0]) % tuple(chain.from_iterable(zip(*chunk))))


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def write_summary(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_gnuplot(path: str, experiment: str, csv_name: str, columns, data) -> None:
    xcol, ycol, group = EXPERIMENTS[experiment].plot
    lines = [
        f"# gnuplot companion for the {experiment} data file",
        "set datafile separator ','",
        "set key outside",
    ]
    if xcol is None:
        lines.append(f"print 'no plot defined for {experiment}; see {csv_name}'")
    else:
        xi, yi = columns.index(xcol) + 1, columns.index(ycol) + 1
        lines += [f"set xlabel '{xcol}'", f"set ylabel '{ycol}'"]
        if group is None:
            lines.append(f"plot '{csv_name}' using {xi}:{yi} with linespoints title '{ycol}'")
        else:
            gi = columns.index(group) + 1
            parts = []
            for val in dict.fromkeys(data[group]):
                if isinstance(val, str):
                    cond = f"strcol({gi}) eq '{val}'"
                else:
                    cond = f"column({gi}) == {_fmt(val)}"
                parts.append(
                    f"'{csv_name}' using {xi}:({cond} ? column({yi}) : 1/0) "
                    f"with lines title '{group}={val}'"
                )
            lines.append("plot \\\n    " + ", \\\n    ".join(parts))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def run(cfg: RunConfig, quiet: bool = False) -> int:
    started = time.perf_counter()
    scan = EXPERIMENTS[cfg.experiment].run(**cfg.options)
    os.makedirs(cfg.out_dir, exist_ok=True)
    base = os.path.join(cfg.out_dir, cfg.experiment)
    csv_path = base + ".csv"
    write_csv(csv_path, scan.columns, scan.data)
    write_gnuplot(base + ".gp", cfg.experiment, os.path.basename(csv_path), scan.columns, scan.data)
    payload = {
        "experiment": cfg.experiment,
        "version": __version__,
        "parameters": {"experiment": cfg.experiment, **cfg.options},
        "results": scan.results,
        "csv": os.path.basename(csv_path),
        "wall_time_s": time.perf_counter() - started,
    }
    write_summary(base + ".summary.json", payload)
    if not quiet:
        print(f"{cfg.experiment}: {len(scan.data[scan.columns[0]])} rows -> {csv_path}")
    return 0


@functools.cache  # one parser per process; parse_args keeps no state on it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qthermo",
        description="Dephasing-qubit thermometry simulations and estimation scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file path")
    common.add_argument("--out", help="output directory (default '.')")
    common.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    common.add_argument("--quiet", action="store_true")
    for name in EXPERIMENTS:
        sub.add_parser(name, parents=[common], help=f"run the {name} experiment")
    sub.add_parser("validate", parents=[common], help="check a config file and exit")
    sub.add_parser("selftest", parents=[common], help="run the built-in invariant suite")
    return parser


def _overrides(pairs) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValidationError("param", f"expected KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value.strip()
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # every warning of the request, each time it is raised, goes to stderr
    # before any error line, whatever --quiet says
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if args.command == "selftest":
                ok = run_selftest(out=(lambda *_: None) if args.quiet else print)
                return 0 if ok else 1
            sections = parse_config_file(args.config) if args.config else None
            if args.command != "validate":
                cfg = resolve(args.command, sections, _overrides(args.param), args.out)
                return run(cfg, quiet=args.quiet)
            valid, failures = validate(sections, _overrides(args.param))
            if not failures:
                if not args.quiet:
                    print(f"config valid for: {', '.join(valid)}")
                return 0
            errors = [(f"[{name}] {exc}", exc) for name, exc in failures.items()]
        except QThermoError as exc:
            errors = [(str(exc), exc)]
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
    for message, _ in errors:
        print(f"error: {message}", file=sys.stderr)
    for klass, code in EXIT_CODES:
        if isinstance(errors[0][1], klass):
            return code
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
