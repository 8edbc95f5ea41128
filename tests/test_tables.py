"""Experiment tables held as columns and the summary payloads built beside
them: the CSV bytes, the derived row view and the results of every
experiment, against row-by-row references."""

import json

import numpy as np
import pytest

from conftest import reference_csv
from qthermo import experiments
from qthermo.cli import main
from qthermo.closed_forms import optimal_ratio, steady_qsnr
from qthermo.config import resolve
from qthermo.errors import BadDimension, NonPositiveInput
from qthermo.experiments import EXPERIMENTS, ScanResult, make_model
from qthermo.fisher import qsnr, qubit_qfi
from qthermo.dynamics import propagate
from qthermo.master_equation import build_liouvillian
from qthermo.models import initial_state

SMALL = {
    "theta_scan": {"n_points": "40"},
    "direct_vs_ancilla": {"n_points": "40"},
    "kappa_sweep": {"kappa_list": "0.6,0.9", "n_points": "120"},
    "coherence_parametric": {"kappa_list": "0.4,0.8", "n_points": "100"},
    "two_qubit_configs": {"n_points": "30"},
    "steady_qsnr": {"ratio_points": "30", "n_line": "5"},
    "evolve": {"model": "two_qubit_common", "n_points": "30"},
    "qfi_point": {"model": "direct", "at": "3.5"},
}
GRID_AXES = {"theta_scan", "direct_vs_ancilla", "kappa_sweep", "two_qubit_configs"}


def old_grid_rows(axis, labels, grids):
    """The row dicts a label x time-grid table was built from."""
    return [
        {axis: label, **dict(zip(recs, values))}
        for label, recs in zip(labels, grids)
        for values in zip(*recs.values())
    ]


def single_coupling_optimum(kappa, options, times):
    """A coupling's single-model probe+ancilla family, its records on
    ``times`` and its QSNR optimum, from a search of its own."""
    fam = experiments._family(
        "probe_ancilla", options["temperature"], kappa=kappa, eta=options["eta"], cutoff=options["cutoff"],
        theta=options["theta"],
    )
    recs = fam.records(times)
    fn = lambda t: qsnr(fam.temperature, qubit_qfi(*fam.state_and_derivative(t)))  # noqa: E731
    return fam, recs, experiments._refine_max(times, recs["qsnr"], fn)


def old_rows(name, options, grid_args):
    """Row by row, the dicts the experiment's rows are: for a grid table
    from the records its runner tabulated, else from the runner's inputs."""
    if name in GRID_AXES:
        return old_grid_rows(*grid_args)
    if name == "coherence_parametric":
        times = np.linspace(0.0, options["t_max"], options["n_points"])
        rows = []
        for kappa in options["kappa_list"]:
            fam, recs, opt_r = single_coupling_optimum(kappa, options, times)
            opt_c = experiments._refine_max(
                times, recs["coherence_abs"],
                lambda t: experiments._coherence(fam.state_and_derivative(t)[0]),
            )
            rows.append({
                "kappa": float(kappa), "max_coherence": opt_c.value,
                "t_max_coherence": opt_c.argmax, "qsnr_opt": opt_r.value, "t_opt": opt_r.argmax,
            })
        return rows
    if name == "steady_qsnr":
        grid = np.linspace(options["ratio_min"], options["ratio_max"], options["ratio_points"])
        x_star, q_star = optimal_ratio()
        rows = [
            {"section": "curve", "ratio": float(x), "temperature": "", "kappa": "", "qsnr": float(v)}
            for x, v in zip(grid, steady_qsnr(grid))
        ]
        for t in np.linspace(options["line_t_min"], options["line_t_max"], options["n_line"]):
            rows.append({
                "section": "optimal_line", "ratio": x_star, "temperature": float(t),
                "kappa": float(x_star * t), "qsnr": q_star,
            })
        return rows
    kw = {k: options[k] for k in ("temperature", "eta", "eta2", "cutoff", "kappa", "theta")}
    if name == "evolve":
        system = make_model(options["model"], **kw)
        times = np.linspace(0.0, options["t_max"], options["n_points"])
        states, _ = propagate(build_liouvillian(system), initial_state(system), times)
        populations = ("p0", "p1") if states.shape[-1] == 2 else ("p00", "p01", "p10", "p11")
        columns = zip(
            times.tolist(),
            states.diagonal(0, -2, -1).real.tolist(),
            experiments._coherence(states).tolist(),
            np.trace(states @ states, axis1=-2, axis2=-1).real.tolist(),
        )
        return [
            {"t": t, **dict(zip(populations, p)), "coherence_abs": c, "purity": q}
            for t, p, c, q in columns
        ]
    assert name == "qfi_point"
    rec = experiments._family(options["model"], **kw).records(options["at"])
    del rec["t"]
    return [{"at": options["at"], **rec}]


def old_crossover(times, direct, ancilla):
    """The first grid time after 0 from which the ancilla's QFI stays
    strictly above the direct probe's, by testing every later point from
    each candidate on: O(n^2)."""
    n = len(direct)
    for i in range(1, n):
        if all(ancilla[j] > direct[j] for j in range(i, n)):
            return times[i]
    return None


def old_results(name, scan, options):
    """The summary payload derived after the run: by walking the table's
    rows, and for located optima by repeating the runner's searches."""
    rows = scan.rows
    if name == "theta_scan":
        peaks = {}
        for row in rows:
            peaks[row["theta"]] = max(peaks.get(row["theta"], 0.0), row["qfi"])
        return {"peak_qfi_by_theta": peaks}
    if name == "direct_vs_ancilla":
        by = {"direct": ([], []), "ancilla": ([], [])}  # scheme -> (t, qfi)
        for row in rows:
            by[row["scheme"]][0].append(row["t"])
            by[row["scheme"]][1].append(row["qfi"])
        (_, direct), (times, ancilla) = by["direct"], by["ancilla"]
        return {
            "crossover_time": old_crossover(times, direct, ancilla),
            "peak_qfi": {k: max(qfi) for k, (_, qfi) in by.items()},
        }
    if name == "kappa_sweep":
        times = np.linspace(0.0, options["t_max"], options["n_points"])
        optima = []
        for kappa in options["kappa_list"]:
            _, _, o = single_coupling_optimum(kappa, options, times)
            optima.append({"kappa": kappa, "t_opt": o.argmax, "qsnr_opt": o.value})
        return {"optima": optima}
    if name == "coherence_parametric":
        return {"parametric": rows}
    if name == "two_qubit_configs":
        steady, t99 = {}, {}
        for config in experiments.TWO_QUBIT_CONFIGS:
            times = [row["t"] for row in rows if row["config"] == config]
            qfi = [row["qfi"] for row in rows if row["config"] == config]
            steady[config] = qfi[-1]
            i = next(k for k, q in enumerate(qfi) if q >= 0.99 * qfi[-1])
            if i == 0:
                t99[config] = 0.0
                continue
            fam = experiments._family(
                f"two_qubit_{config.split('_')[0]}", options["temperature"],
                kappa=options["kappa"], eta=options["eta1"], eta2=options["eta2"],
                cutoff=options["cutoff"], theta=0.0 if config.endswith("separable") else np.pi / 2,
            )
            (fit,) = experiments._fit(
                lambda s, t: experiments.sector_qfi(*fam.state_and_derivative(t)),
                [(times[i - 1], times[i])], [max(map(abs, qfi))],
            )
            t99[config] = experiments._first_root(fit, times[i - 1], times[i], 0.99 * qfi[-1])
        return {"steady_qfi": steady, "t_99": t99}
    if name == "steady_qsnr":
        curve = [row for row in rows if row["section"] == "curve"]
        ratios = np.array([row["ratio"] for row in curve])
        opt = experiments._refine_max(ratios, [row["qsnr"] for row in curve], steady_qsnr)
        x_star, q_star = optimal_ratio()
        return {
            "located_max": {"ratio": opt.argmax, "qsnr": opt.value},
            "root_condition": {"ratio": x_star, "qsnr": q_star},
        }
    if name == "evolve":
        return {"final_row": rows[-1]}
    assert name == "qfi_point"
    return {"record": rows[0]}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_tables_match_row_by_row_references(name, tmp_path, monkeypatch):
    assert set(SMALL) == set(EXPERIMENTS)
    argv = [name] + [a for k, v in SMALL[name].items() for a in ("--param", f"{k}={v}")]
    assert main(argv + ["--out", str(tmp_path), "--quiet"]) == 0

    grid_args = []
    table = experiments._grid_table
    monkeypatch.setattr(
        experiments, "_grid_table", lambda *args: grid_args.extend(args) or table(*args)
    )
    options = resolve(name, None, SMALL[name]).options
    scan = EXPERIMENTS[name].run(**options)
    # the CLI wrote exactly the rows, row by row
    csv = (tmp_path / f"{name}.csv").read_bytes()
    assert csv == reference_csv(scan.columns, scan.rows).encode("utf-8")
    # repr tells float from np.float64 and compares nan
    rows = old_rows(name, options, grid_args)
    assert repr(scan.rows) == repr(rows)
    if name == "evolve":
        assert repr(scan.results["final_row"]) == repr(rows[-1])
    if name == "qfi_point":
        assert repr(scan.results["record"]) == repr(rows[0])


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_results_match_the_row_walking_derivations(name):
    options = resolve(name).options
    scan = EXPERIMENTS[name].run(**options)
    got, ref = (json.dumps(r, sort_keys=True) for r in (scan.results, old_results(name, scan, options)))
    assert got == ref


class CraftedFamily:
    """Stands in for a family: its records on any grid carry one QFI curve."""

    def __init__(self, qfi):
        self.qfi = qfi

    def records(self, times):
        return {"t": times.tolist(), **{name: list(self.qfi) for name in experiments._RECORD_COLUMNS}}


def crafted_direct_vs_ancilla(monkeypatch, direct, ancilla):
    """run_direct_vs_ancilla on the grid 0, 1, ..., with the given QFI curves."""
    curves = {"direct": direct, "probe_ancilla": ancilla}
    monkeypatch.setattr(experiments, "_family", lambda model, *a, **kw: CraftedFamily(curves[model]))
    return experiments.run_direct_vs_ancilla(t_max=len(direct) - 1.0, n_points=len(direct), workers=1)


@pytest.mark.parametrize("direct, ancilla, expected", [
    ([0.0, 2.0, 2.0, 2.0], [0.0, 1.0, 2.0, 1.0], None),  # never above
    ([0.0, 1.0, 1.0, 1.0], [0.0, 2.0, 2.0, 2.0], 1.0),  # above from the first step after 0
    ([0.0, 1.0, 1.0, 1.0], [0.0, 2.0, 2.0, 1.0], None),  # a tie at the last point
    ([1.0, 1.0, 3.0, 1.0], [0.0, 2.0, 1.0, 2.0], 3.0),  # above again after one dip
    ([0.0, 1.0, np.nan, 1.0], [0.0, 2.0, 2.0, 2.0], 3.0),  # nan is not above
])
def test_crafted_crossovers(direct, ancilla, expected, monkeypatch):
    scan = crafted_direct_vs_ancilla(monkeypatch, direct, ancilla)
    assert scan.results["crossover_time"] == expected
    assert expected == old_crossover([0.0, 1.0, 2.0, 3.0], direct, ancilla)


@pytest.mark.parametrize("seed", range(20))
def test_random_crossovers_match_the_quadratic_scan(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    direct, ancilla = (rng.choice([0.0, 1.0, 2.0, np.nan], size=n, p=[0.3, 0.3, 0.3, 0.1]).tolist()
                       for _ in range(2))
    scan = crafted_direct_vs_ancilla(monkeypatch, direct, ancilla)
    times = scan.data["t"][n:]
    assert scan.results["crossover_time"] == old_crossover(times, direct, ancilla)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_cli_reads_no_row_view(name, tmp_path, monkeypatch):
    # a table's CSV, plot and summary come from its columns and the
    # runner's own values
    def no_rows(scan):
        raise AssertionError(f"{scan.label} built its row dicts")

    monkeypatch.setattr(ScanResult, "rows", property(no_rows))
    argv = [name] + [a for k, v in SMALL[name].items() for a in ("--param", f"{k}={v}")]
    assert main(argv + ["--out", str(tmp_path), "--quiet"]) == 0


class TestScanResult:
    def test_unequal_columns_raise(self):
        with pytest.raises(BadDimension, match="equally long"):
            ScanResult("x", {"a": [1.0, 2.0], "b": [1.0]}, {})

    def test_empty_table_raises(self):
        with pytest.raises(NonPositiveInput, match="no rows"):
            ScanResult("x", {"a": [], "b": []}, {})

    def test_rows_are_a_view_in_column_order(self):
        scan = ScanResult("x", {"b": ["u", "v"], "a": [1, 2]}, {})
        assert [list(row) for row in scan.rows] == [["b", "a"]] * 2
        assert scan.rows == [{"b": "u", "a": 1}, {"b": "v", "a": 2}]
