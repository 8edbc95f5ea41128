"""Compare the outputs of two qthermo source trees on benchmark requests.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC --workload W --seeds A-B

Each source tree is a checkout's root or its ``src`` directory.  The request
lists are those of ``perfbench/workloads.py`` (read, never written) for the
workload ``W`` (``scans``, ``point_queries``, ``scan_pool`` or ``all``) at
seeds ``A`` to ``B`` inclusive.  Each tree's ``qthermo.cli.main`` runs every
request in this process, one tree after the other, with the workload's
``QTHERMO_WORKERS`` setting.  A request differs when its exit code, CSV,
gnuplot file, summary (its ``wall_time_s`` value aside) or stderr differs;
each such request is printed with the summary's top-level fields that
moved, the ``parameters`` keys added, removed or changed, and the largest
relative deviation in each CSV column and each path of the summary's
``results`` that moved (list indices folded into ``[]``; ``nan`` for a value
that is not a number on both sides), and the exit status is 1 if there is
one.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

OUTPUTS = (".csv", ".gp", ".summary.json")
WALL_TIME = re.compile(r'("wall_time_s": )[^,\n}]*')


def package_dir(tree: str) -> Path:
    root = Path(tree).resolve()
    for src in (root / "src", root):
        if (src / "qthermo" / "cli.py").is_file():
            return src
    raise SystemExit(f"compare_outputs: no qthermo package under {root}")


def import_cli(src: Path):
    """``qthermo.cli`` from ``src``, with every earlier qthermo module dropped."""
    for name in [m for m in sys.modules if m == "qthermo" or m.startswith("qthermo.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        import qthermo.cli as cli
    finally:
        sys.path.remove(str(src))
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"compare_outputs: imported qthermo from {cli.__file__}, not {src}")
    return cli


def outcome(cli, argv, out_dir: str) -> dict:
    """Exit code, stderr and output files of one request."""
    shutil.rmtree(out_dir, ignore_errors=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--out", out_dir, "--quiet"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an outcome to compare too
            code = f"uncaught {type(exc).__name__}: {exc}"
    result = {"exit code": code, "stderr": err.getvalue()}
    for ext in OUTPUTS:
        path = os.path.join(out_dir, argv[0] + ext)
        if os.path.exists(path):
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
            result[ext.lstrip(".")] = WALL_TIME.sub(r"\1null", text) if ext == ".summary.json" else text
    return result


def relative(a, b) -> float:
    """|a - b| relative to the larger magnitude; ``nan`` unless both are numbers."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return math.nan
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x) and math.isfinite(y) else math.nan


def leaves(node, path="results"):
    """(path, value) of every leaf of a JSON tree, list indices folded into ``[]``."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from leaves(child, f"{path}.{key}")
    elif isinstance(node, list):
        for child in node:
            yield from leaves(child, f"{path}[]")
    else:
        yield path, node


def deviations(a: dict, b: dict) -> dict:
    """Largest relative deviation per CSV column and per ``results`` path
    that moved between two outcomes of one request."""
    pairs = []
    if "csv" in a and "csv" in b:
        (head_a, *rows_a), (head_b, *rows_b) = (list(csv.reader(io.StringIO(o["csv"]))) for o in (a, b))
        if head_a != head_b or len(rows_a) != len(rows_b):
            pairs.append(("csv table shape", math.nan))
        else:
            pairs += [(f"csv {name}", relative(x, y))
                      for ra, rb in zip(rows_a, rows_b) for name, x, y in zip(head_a, ra, rb)]
    if "summary.json" in a and "summary.json" in b:
        la, lb = (list(leaves(json.loads(o["summary.json"])["results"])) for o in (a, b))
        if [p for p, _ in la] != [p for p, _ in lb]:
            pairs.append(("results tree shape", math.nan))
        else:
            pairs += [(p, relative(x, y)) for (p, x), (_, y) in zip(la, lb)]
    worst = {}
    for name, dev in pairs:
        if dev != 0.0 and not math.isnan(worst.get(name, 0.0)):
            worst[name] = dev if math.isnan(dev) else max(dev, worst.get(name, 0.0))
    return worst


def _same(x, y) -> bool:
    """JSON values equal as text, so that a ``nan`` equals itself."""
    return json.dumps(x, sort_keys=True) == json.dumps(y, sort_keys=True)


def summary_moves(a: dict, b: dict) -> list[str]:
    """The top-level summary fields that moved between two outcomes, and
    the ``parameters`` keys added, removed or changed."""
    sa, sb = (json.loads(o["summary.json"]) for o in (a, b))
    fields = [k for k in dict.fromkeys([*sa, *sb]) if not _same(sa.get(k), sb.get(k))]
    lines = [f"summary fields moved: {', '.join(fields)}"]
    pa, pb = sa.get("parameters", {}), sb.get("parameters", {})
    for verb, keys in (
        ("added", pb.keys() - pa.keys()),
        ("removed", pa.keys() - pb.keys()),
        ("changed", {k for k in pa.keys() & pb.keys() if not _same(pa[k], pb[k])}),
    ):
        if keys:
            lines.append(f"parameters {verb}: {', '.join(sorted(keys))}")
    return lines


def run_tree(tree: str, jobs, out_dir: str) -> list[dict]:
    cli = import_cli(package_dir(tree))
    results = []
    for workers, argv in jobs:
        if workers is None:
            os.environ.pop("QTHERMO_WORKERS", None)
        else:
            os.environ["QTHERMO_WORKERS"] = workers
        results.append(outcome(cli, argv, out_dir))
    return results


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree of the parent")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seeds", type=seed_range, default=range(1), help="A-B, inclusive")
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    labels, jobs = [], []
    for name in names:
        workers = workloads.WORKLOADS[name][0]
        for seed in args.seeds:
            for i, request in enumerate(workloads.requests(name, seed)):
                labels.append(f"{name} seed {seed} #{i}: {' '.join(request)}")
                jobs.append((workers, request))
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "out")
        parent, change = (run_tree(tree, jobs, out_dir) for tree in (args.parent, args.change))
    differing = 0
    for label, a, b in zip(labels, parent, change):
        fields = [f for f in dict.fromkeys([*a, *b]) if a.get(f) != b.get(f)]
        if fields:
            differing += 1
            print(f"{label}\n    differs in: {', '.join(fields)}")
            if "summary.json" in fields and "summary.json" in a and "summary.json" in b:
                for line in summary_moves(a, b):
                    print(f"    {line}")
            for name, dev in deviations(a, b).items():
                print(f"    {name}: {dev:.2e}")
    print(f"{differing} of {len(jobs)} requests differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
