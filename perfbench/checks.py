"""Output checks for benchmark requests.

A request's outcome is its exit code plus, on success, the CSV table and
the ``results`` block of its summary.  Outcomes are checked three ways:

* against the stored seed-0 reference (``reference/seed0.json.gz``), with a
  relative tolerance looser than central-difference truncation (~1e-9) and
  tight enough to catch a physical change;
* against invariants that hold for any seed (finite values, Fisher
  information ordering, density-matrix bounds, the steady QSNR closed form);
* across passes: the program is deterministic, so every pass of a run must
  produce byte-identical outputs.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os

RTOL = 1e-6
# Absolute floor relative to the largest magnitude in the same CSV column,
# for exact zeros (t = 0) and values at finite-difference noise level.
COLUMN_FLOOR = 1e-9
ATOL = 1e-15

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference", "seed0.json.gz")


def request_key(argv) -> str:
    return " ".join(argv)


def read_outcome(code, out_dir: str, experiment: str) -> dict:
    """Collect a request's outcome from its exit code and output files."""
    outcome = {"exit": code}
    if code != 0:
        return outcome
    base = os.path.join(out_dir, experiment)
    with open(base + ".csv", encoding="utf-8") as fh:
        csv = fh.read()
    with open(base + ".summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    results = json.dumps(summary["results"], sort_keys=True)
    outcome["csv"] = csv
    outcome["results"] = results
    outcome["sha256"] = hashlib.sha256((csv + "\0" + results).encode()).hexdigest()
    outcome["bytes"] = sum(os.path.getsize(base + ext) for ext in (".csv", ".summary.json", ".gp"))
    return outcome


def load_reference(path: str = REFERENCE_FILE) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def write_reference(entries: dict, path: str = REFERENCE_FILE) -> None:
    stored = {k: {f: v[f] for f in ("exit", "csv", "results", "sha256") if f in v}
              for k, v in sorted(entries.items())}
    # mtime=0 keeps the file byte-identical across regenerations
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(json.dumps(stored, sort_keys=True, indent=0).encode())


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.rstrip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(a: float, b: float, floor: float) -> tuple[bool, float]:
    diff = abs(a - b)
    scale = max(abs(a), abs(b))
    return diff <= max(RTOL * scale, floor, ATOL), (diff / scale if scale > 0 else 0.0)


def compare_csv(got: str, ref: str) -> tuple[str | None, float]:
    """(first mismatch or None, largest relative deviation)."""
    g_head, g_rows = _parse_csv(got)
    r_head, r_rows = _parse_csv(ref)
    if g_head != r_head or len(g_rows) != len(r_rows):
        return f"table shape {len(g_head)}x{len(g_rows)} != reference {len(r_head)}x{len(r_rows)}", math.inf
    floors = []
    for j in range(len(r_head)):
        mags = [abs(v) for v in (_number(r[j]) for r in r_rows) if v is not None and math.isfinite(v)]
        floors.append(COLUMN_FLOOR * max(mags, default=0.0))
    worst = 0.0
    for i, (g_row, r_row) in enumerate(zip(g_rows, r_rows)):
        for j, (g, r) in enumerate(zip(g_row, r_row)):
            gv, rv = _number(g), _number(r)
            if gv is None or rv is None:
                if g != r:
                    return f"row {i} column {r_head[j]}: {g!r} != {r!r}", math.inf
                continue
            ok, rel = _close(gv, rv, floors[j])
            worst = max(worst, rel)
            if not ok:
                return f"row {i} column {r_head[j]}: {g} vs reference {r}", worst
    return None, worst


def _flatten(obj, path=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(obj[k], f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{path}[{i}]")
    else:
        yield path, obj


def compare_results(got: str, ref: str) -> tuple[str | None, float]:
    g, r = dict(_flatten(json.loads(got))), dict(_flatten(json.loads(ref)))
    if g.keys() != r.keys():
        return f"results keys differ: {sorted(set(g) ^ set(r))[:3]}", math.inf
    worst = 0.0
    for path, rv in r.items():
        gv = g[path]
        if isinstance(rv, (int, float)) and isinstance(gv, (int, float)) and not isinstance(rv, bool):
            ok, rel = _close(float(gv), float(rv), 0.0)
            worst = max(worst, rel)
            if not ok:
                return f"results{path}: {gv} vs reference {rv}", worst
        elif gv != rv:
            return f"results{path}: {gv!r} vs reference {rv!r}", math.inf
    return None, worst


def invariant_violation(experiment: str, csv: str) -> str | None:
    """Physical and numerical bounds every successful output must meet."""
    head, rows = _parse_csv(csv)
    if not rows:
        return "empty table"
    col = {name: j for j, name in enumerate(head)}
    for i, row in enumerate(rows):
        v = {name: _number(row[j]) for name, j in col.items()}
        for name, x in v.items():
            if x is not None and not math.isfinite(x):
                return f"row {i} column {name} is {row[col[name]]}"
        if v.get("qfi") is not None:
            if v["qfi"] < 0 or v["cfi"] < 0 or v["qsnr"] < 0:
                return f"row {i}: negative Fisher information"
            if v["cfi"] > v["qfi"] + max(RTOL * v["qfi"], 1e-9):
                return f"row {i}: measurement FI {v['cfi']} exceeds QFI {v['qfi']}"
        if v.get("coherence_abs") is not None and not 0.0 <= v["coherence_abs"] <= 0.5 + 1e-9:
            return f"row {i}: coherence {v['coherence_abs']} outside [0, 1/2]"
        if v.get("purity") is not None and not 0.25 - 1e-9 <= v["purity"] <= 1.0 + 1e-9:
            return f"row {i}: purity {v['purity']} outside [1/4, 1]"
        pops = [v[p] for p in ("p0", "p1", "p00", "p01", "p10", "p11") if v.get(p) is not None]
        if pops and (min(pops) < -1e-8 or abs(sum(pops) - 1.0) > 1e-8):
            return f"row {i}: populations {pops} are not a distribution"
        if experiment == "steady_qsnr" and row[col["section"]] == "curve":
            x = v["ratio"]
            exact = (x / math.cosh(x)) ** 2
            if abs(v["qsnr"] - exact) > 1e-9 * max(exact, 1e-300):
                return f"row {i}: steady QSNR {v['qsnr']} != (x sech x)^2 = {exact}"
    return None


class Checker:
    """Classifies each request outcome of a run.

    Status is ``ok`` (exit 0, outputs pass), ``refused`` (a documented
    library error exit that the reference also records, or any library
    error exit where no reference exists), ``recovered`` (the reference
    failed, this run succeeded with valid output) or ``fail``.
    """

    def __init__(self, requests, reference: dict | None, library_exits):
        self.requests = requests
        self.reference = reference
        self.library_exits = set(library_exits)
        self.first: dict[int, tuple[str, str]] = {}
        self.max_rel_dev = 0.0
        self.identical = True if reference is not None else None
        self.failures: list[str] = []

    def check(self, index: int, outcome: dict) -> str:
        """Status of request ``index``; later passes must repeat the first
        pass's outcome byte for byte and then share its status."""
        key = request_key(self.requests[index])
        digest = outcome.get("sha256", f"exit {outcome['exit']}")
        if index in self.first:
            digest0, status = self.first[index]
            if digest == digest0:
                return status
            return self.fail(key, "output differs from the first pass of this run")
        status = self._classify(key, outcome)
        self.first[index] = (digest, status)
        return status

    def _classify(self, key: str, outcome: dict) -> str:
        ref = None
        if self.reference is not None:
            ref = self.reference.get(key)
            if ref is None:
                return self.fail(key, "request missing from the reference")
            if ref["exit"] != outcome["exit"] or ref.get("sha256") != outcome.get("sha256"):
                self.identical = False
        code = outcome["exit"]
        if code != 0:
            if ref is not None and ref["exit"] == code:
                return "refused"
            if ref is None and code in self.library_exits:
                return "refused"
            expected = "no reference" if ref is None else f"reference exit {ref['exit']}"
            return self.fail(key, f"exit {code} ({expected})")
        problem = invariant_violation(key.split()[0], outcome["csv"])
        if problem is None and ref is not None and ref["exit"] == 0:
            for compare, field in ((compare_csv, "csv"), (compare_results, "results")):
                mismatch, dev = compare(outcome[field], ref[field])
                self.max_rel_dev = max(self.max_rel_dev, dev)
                problem = problem or mismatch
        if problem is not None:
            return self.fail(key, problem)
        return "recovered" if ref is not None and ref["exit"] != 0 else "ok"

    def fail(self, key: str, why: str) -> str:
        if len(self.failures) < 20:
            self.failures.append(f"{key}: {why}")
        return "fail"
