"""Experiment tables held as columns: the CSV bytes, the derived row view
and the summary rows of every experiment, against row-by-row references."""

import numpy as np
import pytest

from conftest import reference_csv
from qthermo import experiments
from qthermo.cli import main
from qthermo.closed_forms import optimal_ratio, steady_qsnr
from qthermo.config import resolve
from qthermo.errors import BadDimension, NonPositiveInput
from qthermo.experiments import EXPERIMENTS, ScanResult, make_model
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


def old_rows(name, options, grid_args):
    """Row by row, the dicts the experiment's rows are: for a grid table
    from the records its runner tabulated, else from the runner's inputs."""
    if name in GRID_AXES:
        return old_grid_rows(*grid_args)
    if name == "coherence_parametric":
        times = np.linspace(0.0, options["t_max"], options["n_points"])
        rows = []
        for kappa in options["kappa_list"]:
            fam, recs, opt_r = experiments._coupling_optimum(
                kappa, options["temperature"], options["eta"], options["cutoff"],
                options["theta"], times,
            )
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
    scan, results = EXPERIMENTS[name].results(EXPERIMENTS[name].run(**options))
    # the CLI wrote exactly the rows, row by row
    csv = (tmp_path / f"{name}.csv").read_bytes()
    assert csv == reference_csv(scan.columns, scan.rows).encode("utf-8")
    # repr tells float from np.float64 and compares nan
    rows = old_rows(name, options, grid_args)
    assert repr(scan.rows) == repr(rows)
    assert [scan.row(i) for i in range(len(rows))] == scan.rows
    if name == "evolve":
        assert repr(results["final_row"]) == repr(rows[-1])
    if name == "qfi_point":
        assert repr(results["record"]) == repr(rows[0])


@pytest.mark.parametrize("name", sorted(set(EXPERIMENTS) - {"coherence_parametric"}))
def test_cli_reads_no_row_view(name, tmp_path, monkeypatch):
    # a table's CSV, plot and summary come from its columns; only the few
    # rows of coherence_parametric are its summary's payload
    def no_rows(scan):
        raise AssertionError(f"{scan.label} built its row dicts")

    monkeypatch.setattr(ScanResult, "rows", property(no_rows))
    argv = [name] + [a for k, v in SMALL[name].items() for a in ("--param", f"{k}={v}")]
    assert main(argv + ["--out", str(tmp_path), "--quiet"]) == 0


class TestScanResult:
    def test_unequal_columns_raise(self):
        with pytest.raises(BadDimension, match="equally long"):
            ScanResult("x", {}, ("a", "b"), {"a": [1.0, 2.0], "b": [1.0]})

    @pytest.mark.parametrize(
        "data", [{"a": [1.0]}, {"a": [1.0], "b": [2.0], "c": [3.0]}, {"a": [1.0], "c": [2.0]}]
    )
    def test_data_holds_exactly_the_columns(self, data):
        with pytest.raises(BadDimension):
            ScanResult("x", {}, ("a", "b"), data)

    def test_empty_table_raises(self):
        with pytest.raises(NonPositiveInput, match="no rows"):
            ScanResult("x", {}, ("a", "b"), {"a": [], "b": []})

    def test_rows_are_a_view_in_column_order(self):
        scan = ScanResult("x", {}, ("b", "a"), {"a": [1, 2], "b": ["u", "v"]})
        assert [list(row) for row in scan.rows] == [["b", "a"]] * 2
        assert scan.rows == [{"b": "u", "a": 1}, {"b": "v", "a": 2}]
        assert scan.row(-1) == {"b": "v", "a": 2}
