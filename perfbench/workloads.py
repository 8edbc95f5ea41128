"""Seeded request generators for the qthermo benchmark.

Each workload is a list of CLI argument lists for ``qthermo.cli.main``; the
program receives only these lists.  Seed 0 reproduces the CLI defaults for
the scans and a fixed draw for ``point_queries``; other seeds vary the sweep
lists and point parameters within the ranges documented in README.md.
"""

from __future__ import annotations

import math
import random

#: workload name -> (QTHERMO_WORKERS value, or None to leave it unset; reason)
WORKLOADS = {
    "scans": (
        "1",
        "figure scans, serial: uniform grids (step-power trajectory, per-state validation, "
        "partial trace, qubit QFI) and log-spaced two-qubit grids (one expm per point)",
    ),
    "point_queries": (
        "1",
        "~300 small independent CLI calls: per-request model/Liouvillian builds, "
        "steady-state search, config and CLI costs that scans amortise",
    ),
    "scan_pool": (
        None,
        "the scans requests at the CLI default of nproc threads, so the experiments "
        "thread pool is measured",
    ),
}

MODELS = ("direct", "probe_ancilla", "two_qubit_local", "two_qubit_common")
# The second two_qubit_configs set of the scans is drawn from this grid, on
# which every request succeeds.  eta2 stays >= 2 * eta1: as eta2 approaches
# eta1 = 0.01 the common bath nears its decoherence-free sector, where
# requests fail (ROADMAP item 3).  Off the grid, isolated points fail too
# (kappa=0.573684, eta2=0.0225049 exits 8, while eta2 = 0.022 and 0.023
# pass).  point_queries keeps covering both.
SCAN_KAPPAS = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2)
SCAN_ETA2S = (0.02, 0.025, 0.03, 0.04, 0.05, 0.07, 0.1)
POINT_REQUESTS = 300
# Upper end of drawn angles: the config accepts [0, pi] and values are
# written with six significant digits, which must not round above pi.
_THETA_MAX = 3.14159


def _num(x: float) -> str:
    return f"{x:.6g}"


def _params(**kw) -> list[str]:
    out = []
    for key, value in kw.items():
        if isinstance(value, list):
            value = ",".join(_num(v) for v in value)
        elif isinstance(value, float):
            value = _num(value)
        out += ["--param", f"{key}={value}"]
    return out


def _sorted_draw(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    return sorted(rng.uniform(lo, hi) for _ in range(n))


def scans(seed: int) -> list[list[str]]:
    """The four uniform-grid scans, then two_qubit_configs (log-spaced grid)
    at its defaults and at a second parameter set."""
    uniform = ["theta_scan", "direct_vs_ancilla", "kappa_sweep", "coherence_parametric"]
    if seed == 0:
        return [[n] for n in uniform] + [["two_qubit_configs"],
                                         ["two_qubit_configs"] + _params(kappa=1.0, eta2=0.02)]
    rng = random.Random(seed)
    return [
        ["theta_scan"] + _params(theta_list=_sorted_draw(rng, 5, 0.0, _THETA_MAX)),
        ["direct_vs_ancilla"] + _params(theta=rng.uniform(0.0, _THETA_MAX)),
        ["kappa_sweep"] + _params(kappa_list=_sorted_draw(rng, 4, 0.5, 1.0)),
        ["coherence_parametric"] + _params(kappa_list=_sorted_draw(rng, 6, 0.2, 1.2)),
        ["two_qubit_configs"],
        ["two_qubit_configs"] + _params(kappa=rng.choice(SCAN_KAPPAS), eta2=rng.choice(SCAN_ETA2S)),
    ]


def _strata(rng: random.Random, n: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """One uniform draw in each of ``n`` equal slices of [lo, hi] (of its
    logarithm if ``log``), in random order: every seed gets the same spread
    of values, so the work in a pass varies little from seed to seed."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    slots = list(range(n))
    rng.shuffle(slots)
    values = [a + (k + rng.random()) * (b - a) / n for k in slots]
    return [math.exp(v) for v in values] if log else values


def point_queries(seed: int) -> list[list[str]]:
    """40 % qfi_point at=steady, 40 % qfi_point at=<t>, 15 % short evolve,
    5 % steady_qsnr; models, parameters and kinds stratified, order shuffled."""
    rng = random.Random(seed)
    n = POINT_REQUESTS
    n_steady, n_at, n_evolve = (4 * n) // 10, (4 * n) // 10, (15 * n) // 100
    kinds = ["steady"] * n_steady + ["at"] * n_at + ["evolve"] * n_evolve
    kinds += ["steady_qsnr"] * (n - len(kinds))
    rng.shuffle(kinds)
    n_model = n_steady + n_at + n_evolve
    models = [MODELS[i % len(MODELS)] for i in range(n_model)]
    rng.shuffle(models)
    columns = {
        "temperature": _strata(rng, n_model, 0.05, 2.0, log=True),
        "kappa": _strata(rng, n_model, 0.2, 1.5),
        "theta": _strata(rng, n_model, 0.0, _THETA_MAX),
        "eta": _strata(rng, n_model, 0.005, 0.1, log=True),
        "eta2": _strata(rng, n_model, 0.005, 0.1, log=True),
    }
    times = iter(_strata(rng, n_at, 0.1, 100.0, log=True))
    spans = iter(_strata(rng, n_evolve, 1.0, 20.0))
    out, j = [], 0
    for kind in kinds:
        if kind == "steady_qsnr":
            out.append(["steady_qsnr"] + _params(
                ratio_min=rng.uniform(0.05, 0.5),
                ratio_max=rng.uniform(4.0, 6.0),
                ratio_points=rng.randint(50, 200),
                n_line=rng.randint(10, 50),
                line_t_min=rng.uniform(0.05, 0.5),
                line_t_max=rng.uniform(1.0, 2.0),
            ))
            continue
        point = {"model": models[j], **{k: v[j] for k, v in columns.items()}}
        if not models[j].startswith("two_qubit"):
            del point["eta2"]
        j += 1
        if kind == "steady":
            out.append(["qfi_point"] + _params(at="steady", **point))
        elif kind == "at":
            out.append(["qfi_point"] + _params(at=_num(next(times)), **point))
        else:
            out.append(["evolve"] + _params(t_max=next(spans), n_points=rng.randint(20, 60), **point))
    return out


def requests(workload: str, seed: int) -> list[list[str]]:
    """The argument lists of one pass of ``workload`` at ``seed``."""
    if workload == "point_queries":
        return point_queries(seed)
    if workload in ("scans", "scan_pool"):
        return scans(seed)
    raise KeyError(workload)
