import numpy as np
import pytest

from qthermo.closed_forms import direct_probe_qfi, optimal_ratio, steady_qfi
from qthermo import experiments
from qthermo.errors import NoConvergence, NonPositiveInput, ValidationError
from qthermo.experiments import (
    MODEL_NAMES,
    TWO_QUBIT_CONFIGS,
    TemperatureFamily,
    _family,
    _qubit_record,
    _t99_bracket,
    _two_qubit_record,
    LOOKAHEAD,
    golden_section_max,
    make_model,
    parallel_map,
    run_coherence_parametric,
    run_direct_vs_ancilla,
    run_evolve,
    run_kappa_sweep,
    run_qfi_point,
    run_steady_qsnr_curve,
    run_theta_scan,
    run_two_qubit_configs,
)
from qthermo.fisher import qfi_spectral, qubit_qfi
from qthermo.dynamics import propagate
from qthermo.master_equation import build_liouvillian
from qthermo.models import BathSpec, ProbeAncillaModel, initial_state


@pytest.fixture(scope="module")
def theta_scan_result():
    return run_theta_scan(t_max=50.0, n_points=500, workers=2)


@pytest.fixture(scope="module")
def dva_result():
    return run_direct_vs_ancilla(workers=2)


@pytest.fixture(scope="module")
def kappa_sweep_result():
    return run_kappa_sweep(workers=2)


@pytest.fixture(scope="module")
def parametric_result():
    return run_coherence_parametric(workers=2)


@pytest.fixture(scope="module")
def two_qubit_result():
    return run_two_qubit_configs(workers=2)


def pa_family(kappa, temperature=0.4, eta=0.01, theta=np.pi / 2):
    return TemperatureFamily(ProbeAncillaModel(1.0, 1.0, kappa, BathSpec(eta, 10.0, temperature), theta))


class TestInfrastructure:
    def test_parallel_map_matches_serial(self):
        items = list(range(7))
        f = lambda x: x * x + 1
        assert parallel_map(f, items, workers=1) == parallel_map(f, items, workers=4)

    def test_golden_section(self):
        x, v = golden_section_max(lambda t: -(t - 2.7) ** 2 + 5.0, 1.0, 4.0, tol=1e-8)
        assert x == pytest.approx(2.7, abs=1e-6)
        assert v == pytest.approx(5.0, abs=1e-10)

    def test_golden_section_rejects_an_empty_bracket(self):
        for lo, hi in ((2.0, 1.0), (1.0, 1.0)):
            with pytest.raises(NonPositiveInput, match="bracket"):
                golden_section_max(lambda t: -t * t, lo, hi)

    def test_make_model_names(self):
        for name in MODEL_NAMES:
            make_model(name, temperature=0.4, eta=0.01, cutoff=10.0)
        with pytest.raises(ValidationError, match="model"):
            make_model("nope", temperature=0.4, eta=0.01, cutoff=10.0)


def sequential_golden_section(f, lo, hi, tol):
    """One point per step: the search golden_section_max must reproduce,
    with its number of steps."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    steps = 0
    while (b - a) > tol:
        steps += 1
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x), steps


class TestLookaheadGoldenSection:
    """Values taken in lookahead stacks leave the search's steps unchanged."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_sequential_search(self, seed):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-10.0, 10.0)
        hi = lo + 10.0 ** rng.uniform(-3.0, 2.0)
        x0 = rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo))  # the peak may sit outside
        (w1, w2), top = 10.0 ** rng.uniform(-3.0, 3.0, size=2), 0.2 * (hi - lo) * rng.uniform()
        if seed % 2:  # asymmetric parabola
            f = lambda x: 1.0 - np.where(x < x0, w1, w2) * (x - x0) ** 2  # noqa: E731
        else:  # flat top: equal values exercise the tie branch
            f = lambda x: -np.maximum(np.abs(x - x0) - top, 0.0)  # noqa: E731
        tol = (hi - lo) * 10.0 ** rng.uniform(-12.0, -1.0)
        calls = []

        def fn(points):
            calls.append(len(points))
            return f(points)

        x_ref, v_ref, steps = sequential_golden_section(lambda x: float(f(x)), lo, hi, tol)
        x, v = golden_section_max(fn, lo, hi, tol)
        assert (x, v) == (x_ref, v_ref)
        assert len(calls) <= -(-steps // LOOKAHEAD) + 2
        assert max(calls) <= 2 ** LOOKAHEAD


def sequential_t99_bisection(q, lo, hi, target):
    """One point per step: the bracket _t99_bracket must reproduce, with its
    number of steps."""
    steps = 0
    while steps < 60 and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if q(mid) >= target else (mid, hi)
        steps += 1
    return (lo, hi), steps


def two_qubit_searches(**params):
    """(q, times, grid q, i, target) of each two-qubit config's t_99 search,
    with the run's t_99, for run_two_qubit_configs(**params)."""
    run = run_two_qubit_configs(workers=1, **params)
    times = np.concatenate([[0.0], np.geomspace(0.01, run.params["t_max"], run.params["n_points"] - 1)])
    for config in TWO_QUBIT_CONFIGS:
        fam = _family(
            "two_qubit_local" if config.startswith("local") else "two_qubit_common",
            run.params["temperature"], kappa=run.params["kappa"], eta=run.params["eta1"],
            eta2=run.params["eta2"], cutoff=run.params["cutoff"],
            theta=0.0 if config.endswith("separable") else np.pi / 2,
        )
        qfi = [row["qfi"] for row in run.rows if row["config"] == config]
        target = 0.99 * qfi[-1]
        i = int(np.nonzero(np.array(qfi) >= target)[0][0])
        q = lambda t, fam=fam: qfi_spectral(*fam.state_and_derivative(t))  # noqa: E731
        yield q, times, qfi, i, target, run.params["t_99"][config]


def _draw_two_qubit_params(seed):
    rng = np.random.default_rng(seed)
    return dict(
        temperature=rng.uniform(0.3, 1.0), kappa=rng.uniform(0.3, 1.2),
        eta1=10.0 ** rng.uniform(-2.5, -1.0), eta2=10.0 ** rng.uniform(-2.5, -1.0), n_points=120,
    )


class TestLookaheadBisection:
    """The t_99 bisection, its values taken in lookahead stacks, takes the
    steps of the one-point-at-a-time bisection."""

    @pytest.mark.parametrize("seed", [None, *range(4)])
    def test_matches_the_sequential_bisection(self, seed):
        params = {} if seed is None else _draw_two_qubit_params(seed)
        for q, times, qfi, i, target, t99 in two_qubit_searches(**params):
            calls = []

            def fn(points):
                calls.append(len(points))
                return q(points)

            lo, hi = float(times[i - 1]), float(times[i])
            bracket, steps = sequential_t99_bisection(q, lo, hi, target)
            assert _t99_bracket(fn, times, qfi, i, target) == bracket
            assert t99 == 0.5 * sum(bracket)
            assert len(calls) <= -(-steps // LOOKAHEAD) + 2
            assert max(calls) <= 2 ** LOOKAHEAD


def _with_predictor(monkeypatch, predictor):
    """Make every lookahead search use ``predictor(step)``'s predictions."""
    search = experiments._lookahead_search
    monkeypatch.setattr(
        experiments, "_lookahead_search",
        lambda fn, step, state, guess=None: search(fn, step, state, lambda s, v: predictor(step)),
    )


class TestBadPredictors:
    """A predictor that is always wrong, or random, changes which points are
    evaluated, never the result, and keeps the call bounds."""

    @staticmethod
    def predictors(f, seed):
        rng = np.random.default_rng(seed)

        def wrong(step):  # the branch the step does not take, read off f itself
            return lambda s: 1 - int(step(s)[1](*(float(f(np.array([p]))[0]) for p in step(s)[0])))

        return {"wrong": wrong, "random": lambda step: lambda s: int(rng.integers(2))}

    @pytest.mark.parametrize("kind", ["wrong", "random"])
    @pytest.mark.parametrize("seed", range(8))
    def test_golden_section(self, kind, seed, monkeypatch):
        rng = np.random.default_rng(100 + seed)
        lo, x0 = rng.uniform(-5.0, 5.0), rng.uniform(0.0, 1.0)
        hi, w = lo + 10.0 ** rng.uniform(-2.0, 1.0), 10.0 ** rng.uniform(-2.0, 2.0)
        f = lambda x: 1.0 - w * (x - lo - x0 * (hi - lo)) ** 2  # noqa: E731
        tol = (hi - lo) * 10.0 ** rng.uniform(-10.0, -2.0)
        calls = []

        def fn(points):
            calls.append(len(points))
            return f(points)

        x_ref, v_ref, steps = sequential_golden_section(lambda x: float(f(x)), lo, hi, tol)
        _with_predictor(monkeypatch, self.predictors(f, seed)[kind])
        assert golden_section_max(fn, lo, hi, tol) == (x_ref, v_ref)
        assert len(calls) <= -(-steps // LOOKAHEAD) + 2
        assert max(calls) <= 2 ** LOOKAHEAD

    @pytest.mark.parametrize("kind", ["wrong", "random"])
    def test_bisection(self, kind, monkeypatch):
        for seed, (q, times, qfi, i, target, _) in enumerate(two_qubit_searches(n_points=120)):
            calls = []

            def fn(points):
                calls.append(len(points))
                return q(points)

            bracket, steps = sequential_t99_bisection(q, float(times[i - 1]), float(times[i]), target)
            with monkeypatch.context() as m:
                _with_predictor(m, self.predictors(q, seed)[kind])
                assert _t99_bracket(fn, times, qfi, i, target) == bracket
            assert len(calls) <= -(-steps // LOOKAHEAD) + 2
            assert max(calls) <= 2 ** LOOKAHEAD


class TestSearchCallCounts:
    """Stacked search calls per default request, pinned: the predicted path
    takes at most half the calls of the full lookahead tree (24, 72, 40)."""

    @pytest.mark.parametrize("run, expected", [
        (run_kappa_sweep, 8), (run_coherence_parametric, 28), (run_two_qubit_configs, 21),
    ])
    def test_default_request(self, run, expected, monkeypatch):
        search, calls = experiments._lookahead_search, []

        def counted(fn, *args):
            return search(lambda points: calls.append(len(points)) or fn(points), *args)

        monkeypatch.setattr(experiments, "_lookahead_search", counted)
        run(workers=1)
        assert len(calls) == expected


class TestThetaScan:
    def test_balanced_preparation_is_best(self, theta_scan_result):
        peaks = {}
        for row in theta_scan_result.rows:
            peaks[row["theta"]] = max(peaks.get(row["theta"], 0.0), row["qfi"])
        thetas = sorted(peaks)
        assert peaks[thetas[2]] == max(peaks.values())  # pi/2

    def test_polar_preparations_weak(self, theta_scan_result):
        peaks = {}
        for row in theta_scan_result.rows:
            peaks[row["theta"]] = max(peaks.get(row["theta"], 0.0), row["qfi"])
        best = max(peaks.values())
        assert peaks[np.pi] < 1e-10  # stationary preparation: no signal at all
        assert peaks[0.0] < 0.2 * best  # population-only signal is weak

    def test_polar_preparations_generate_no_coherence(self, theta_scan_result):
        for row in theta_scan_result.rows:
            if row["theta"] in (0.0, np.pi):
                assert row["coherence_abs"] < 1e-12

    def test_records_consistent(self, theta_scan_result):
        for row in theta_scan_result.rows[::97]:
            assert row["cfi"] <= row["qfi"] + 1e-9
            assert row["qsnr"] == pytest.approx(0.16 * row["qfi"], rel=1e-12, abs=1e-15)
            assert row["coherence_abs"] <= 0.5 + 1e-12

    def test_determinism_across_worker_counts(self, theta_scan_result):
        again = run_theta_scan(t_max=50.0, n_points=500, workers=1)
        assert theta_scan_result.rows == again.rows


class TestDirectVsAncilla:
    def test_direct_peaks_first(self, dva_result):
        by = {"direct": [], "ancilla": []}
        for row in dva_result.rows:
            by[row["scheme"]].append(row)
        t_peak_direct = max(by["direct"], key=lambda r: r["qfi"])["t"]
        t_peak_anc = max(by["ancilla"], key=lambda r: r["qfi"])["t"]
        assert t_peak_direct < t_peak_anc

    def test_crossover_exists(self, dva_result):
        by = {"direct": [], "ancilla": []}
        for row in dva_result.rows:
            by[row["scheme"]].append(row)
        n = len(by["direct"])
        t_cross = None
        for i in range(1, n):
            if all(
                by["ancilla"][j]["qfi"] > by["direct"][j]["qfi"] for j in range(i, n)
            ):
                t_cross = by["ancilla"][i]["t"]
                break
        assert t_cross is not None and 0.0 < t_cross <= 50.0

    def test_direct_curve_matches_closed_form(self, dva_result):
        bath = BathSpec(0.01, 10.0, 0.4)
        worst = 0.0
        for row in dva_result.rows:
            if row["scheme"] != "direct":
                continue
            worst = max(worst, abs(row["qfi"] - direct_probe_qfi(row["t"], bath)))
        assert worst < 1e-7


class TestKappaSweep:
    def test_optimal_time_grows_with_coupling(self, kappa_sweep_result):
        _, optima = kappa_sweep_result
        t_opts = [o.argmax for o in optima]
        assert all(a < b for a, b in zip(t_opts, t_opts[1:]))

    def test_optima_are_interior_and_refined(self, kappa_sweep_result):
        _, optima = kappa_sweep_result
        for o in optima:
            assert o.value >= max(o.bracket_values)
            assert o.bracket[0] < o.argmax < o.bracket[1]
            assert o.tolerance <= 1e-6

    def test_frozen_optimum_values(self, kappa_sweep_result):
        # pinned from the converged generator: peaks of T^2 * QFI(t)
        _, optima = kappa_sweep_result
        got = [o.value for o in optima]
        assert np.allclose(got, [0.07606, 0.06452, 0.05628, 0.05036], atol=2e-4)

    def test_persistence_at_long_times(self):
        # stronger coupling holds information longer: compare QFI/t far out
        f6 = _qubit_record(300.0, *pa_family(0.6).state_and_derivative(300.0), 0.4)
        f9 = _qubit_record(300.0, *pa_family(0.9).state_and_derivative(300.0), 0.4)
        assert f9["qfi_per_t"] > f6["qfi_per_t"]

    def test_refinement_calls_only_the_golden_section(self):
        from qthermo.experiments import _refine_max

        calls = []

        def fn(t):
            calls.append(t)
            return 1.0 - (t - 0.52) ** 2

        times = np.linspace(0.0, 1.0, 21)
        values = [1.0 - (t - 0.52) ** 2 for t in times]
        golden_section_max(fn, times[9], times[11], known=list(zip(times[9:12], values[9:12])))
        n_golden, calls[:] = len(calls), []
        opt = _refine_max(times, values, fn)
        # the bracket ends come from the grid values; only the search (with
        # its final midpoint) evaluates fn
        assert len(calls) == n_golden
        assert opt.bracket_values == (values[9], values[11])
        assert opt.argmax == pytest.approx(0.52, abs=1e-6)

    def test_edge_maximum_rejected(self):
        from qthermo.experiments import _refine_max

        times = np.linspace(0.0, 1.0, 20)
        with pytest.raises(NoConvergence):
            _refine_max(times, times**2, lambda t: t**2)


class TestCoherenceParametric:
    def test_coherence_grows_with_coupling(self, parametric_result):
        cs = [row["max_coherence"] for row in parametric_result.rows]
        assert all(a < b for a, b in zip(cs, cs[1:]))
        assert all(c <= 0.5 + 1e-12 for c in cs)

    def test_decoupled_limit(self, parametric_result):
        small = run_coherence_parametric([0.02], workers=1).rows[0]
        first = parametric_result.rows[0]
        assert small["max_coherence"] < first["max_coherence"]
        assert small["qsnr_opt"] < first["qsnr_opt"]
        assert small["max_coherence"] < 0.05

    def test_qsnr_not_monotone_with_zero_frequency_channel(self, parametric_result):
        # the zero-frequency dephasing caps the optimum at strong coupling,
        # so the parametric curve bends back down; pin that shape here
        qs = [row["qsnr_opt"] for row in parametric_result.rows]
        assert max(qs) == pytest.approx(max(qs[:3]), rel=1e-12)
        assert qs[-1] < max(qs)


class TestTwoQubitConfigs:
    def test_all_configs_converge_to_same_value(self, two_qubit_result):
        vals = list(two_qubit_result.params["steady_qfi"].values())
        assert max(vals) - min(vals) < 1e-6

    def test_steady_value_matches_closed_form(self, two_qubit_result):
        exact = steady_qfi(0.6, 0.4)
        for v in two_qubit_result.params["steady_qfi"].values():
            assert v == pytest.approx(exact, rel=1e-6)

    def test_local_separable_fastest(self, two_qubit_result):
        t99 = two_qubit_result.params["t_99"]
        assert t99["local_separable"] <= t99["common_entangled"]
        assert t99["local_separable"] == min(t99.values())

    def test_peak_at_steady_state(self, two_qubit_result):
        by_config = {}
        for row in two_qubit_result.rows:
            by_config.setdefault(row["config"], []).append(row["qfi"])
        for vals in by_config.values():
            assert max(vals) <= vals[-1] + 1e-9


    def test_t99_bisection_stops_at_float_resolution(self, two_qubit_result):
        # the full 60-halving loop of the bracket gives the same t_99 bit for bit
        times = np.concatenate([[0.0], np.geomspace(0.01, 2000.0, 239)])
        for config in TWO_QUBIT_CONFIGS:
            fam = _family(
                "two_qubit_local" if config.startswith("local") else "two_qubit_common",
                0.4, kappa=0.6, eta=0.01, eta2=0.05, cutoff=10.0,
                theta=0.0 if config.endswith("separable") else np.pi / 2,
            )
            qfi = [row["qfi"] for row in two_qubit_result.rows if row["config"] == config]
            target = 0.99 * qfi[-1]
            i = int(np.nonzero(np.array(qfi) >= target)[0][0])
            lo, hi = float(times[i - 1]), float(times[i])
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if fam.records(mid)["qfi"] >= target:
                    hi = mid
                else:
                    lo = mid
            assert two_qubit_result.params["t_99"][config] == 0.5 * (lo + hi)


class TestStackRecords:
    """Record columns computed on whole grids equal the single-state records."""

    @staticmethod
    def per_row(fam, times, record_fn):
        """The grid's columns built from one single-state record per time."""
        rho, drho = fam.state_and_derivative(times)
        rows = [record_fn(t, a, b, fam.temperature) for t, a, b in zip(times, rho, drho)]
        assert all(isinstance(v, float) for row in rows for v in row.values())
        return {k: [row[k] for row in rows] for k in rows[0]}, rho, drho

    def test_qubit_records(self):
        fam = pa_family(0.8)
        times = np.linspace(0.0, 50.0, 120)
        ref, rho, drho = self.per_row(fam, times, _qubit_record)
        assert fam.records(times) == ref
        assert abs(np.trace(rho[0] @ rho[0]).real - 1.0) < 1e-12  # the t = 0 row is pure
        assert ref["qfi"] == [qubit_qfi(a, b) for a, b in zip(rho, drho)]
        assert ref["cfi"][0] == 0.0 and ref["cfi"][1] > 0.0

    def test_two_qubit_records(self):
        fam = _family("two_qubit_common", 0.4, kappa=0.6, eta=0.01,
                      eta2=0.05, cutoff=10.0, theta=np.pi / 2)
        times = np.concatenate([[0.0], np.geomspace(0.01, 500.0, 59)])
        ref, rho, drho = self.per_row(fam, times, _two_qubit_record)
        assert fam.records(times) == ref
        assert ref["qfi"] == [qfi_spectral(a, b) for a, b in zip(rho, drho)]
        assert ref["qfi"][0] == 0.0  # t = 0: the pure, temperature-independent preparation

    def test_grid_matches_single_times(self):
        fam = pa_family(0.8)
        times = np.linspace(0.0, 50.0, 26)
        rho, drho = fam.state_and_derivative(times)
        for t, a, b in zip(times, rho, drho):
            one, d_one = fam.state_and_derivative(t)
            assert np.max(np.abs(one - a)) <= 1e-14
            assert np.max(np.abs(d_one - b)) <= 1e-14 * np.max(np.abs(drho))

    def test_boundary_warning_per_row(self):
        rho = np.array([np.diag([0.0, 0.5, 0.5, 0.0]), np.diag([0.0, 1.0, 0.0, 0.0])], dtype=complex)
        drho = np.array([np.zeros((4, 4)), np.diag([0.0, -1e-6, 1e-6, 0.0])], dtype=complex)
        with pytest.warns(UserWarning, match="boundary-of-support") as caught:
            recs = _two_qubit_record(np.array([1.0, 2.0]), rho, drho, 0.4)
        assert len(caught) == 1
        with pytest.warns(UserWarning, match="boundary-of-support"):
            assert {k: v[1] for k, v in recs.items()} == _two_qubit_record(2.0, rho[1], drho[1], 0.4)


class TestSteadyQsnrCurve:
    def test_maximum_location(self):
        scan = run_steady_qsnr_curve()
        loc = scan.params["located_max"]
        x_star, qsnr_star = optimal_ratio()
        assert loc["ratio"] == pytest.approx(x_star, abs=1e-4)
        assert loc["qsnr"] == pytest.approx(qsnr_star, abs=1e-9)

    def test_ratio_only_dependence(self):
        # same ratio, different scales: identical steady QSNR
        r1 = 0.25 * steady_qfi(0.6, 0.5)
        r2 = 1.0 * steady_qfi(1.2, 1.0)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_endpoints_vanish(self):
        # the grid's interior maximum sits next to the optimal ratio ~1.2
        scan = run_steady_qsnr_curve(ratio_min=1e-4, ratio_max=60.0, ratio_points=51)
        curve = [r for r in scan.rows if r["section"] == "curve"]
        assert curve[0]["qsnr"] < 1e-7
        assert curve[-1]["qsnr"] < 1e-7

    def test_optimal_line(self):
        scan = run_steady_qsnr_curve()
        line = [r for r in scan.rows if r["section"] == "optimal_line"]
        x_star, _ = optimal_ratio()
        for r in line[:: len(line) // 5]:
            assert r["kappa"] == pytest.approx(x_star * r["temperature"], rel=1e-12)


class TestPointRunners:
    def test_evolve_direct(self):
        scan = run_evolve("direct", t_max=10.0, n_points=50)
        first, last = scan.rows[0], scan.rows[-1]
        assert first["coherence_abs"] == pytest.approx(0.5, abs=1e-12)
        assert last["coherence_abs"] < first["coherence_abs"]
        assert last["p0"] == pytest.approx(0.5, abs=1e-10)

    def test_evolve_two_qubit_sector(self):
        scan = run_evolve("two_qubit_local", kappa=0.6, theta=0.0, eta2=0.05,
                          t_max=50.0, n_points=100)
        for row in scan.rows:
            assert abs(row["p00"]) < 1e-10
            assert abs(row["p11"]) < 1e-10

    def test_evolve_rows_read_each_state(self):
        scan = run_evolve("two_qubit_common", eta2=0.03, n_points=40)
        model = make_model("two_qubit_common", temperature=0.4, eta=0.01, eta2=0.03, cutoff=10.0)
        times = np.linspace(0.0, 50.0, 40)
        states, _ = propagate(build_liouvillian(model), initial_state(model), times)
        for row, s in zip(scan.rows, states):
            assert [row[p] for p in ("p00", "p01", "p10", "p11")] == [float(s[k, k].real) for k in range(4)]
            assert row["purity"] == float(np.trace(s @ s).real)

    def test_qfi_point_steady_two_qubit(self):
        scan = run_qfi_point(
            "two_qubit_local", at="steady", kappa=0.6, eta2=0.05
        )
        row = scan.rows[0]
        exact = steady_qfi(0.6, 0.4)
        assert row["qfi"] == pytest.approx(exact, rel=1e-6)
        assert row["cfi"] == pytest.approx(row["qfi"], rel=1e-8)

    def test_qfi_point_steady_probe_ancilla_carries_no_information(self):
        # the dephased reduced probe is temperature independent at t -> inf
        scan = run_qfi_point("probe_ancilla", at="steady")
        assert scan.rows[0]["qfi"] < 1e-12

    def test_qfi_point_at_time(self):
        scan = run_qfi_point("probe_ancilla", at=5.0)
        row = scan.rows[0]
        assert row["qfi"] > 0
        assert row["cfi"] <= row["qfi"] + 1e-9


def _steady_draw(n=100):
    """Seeded (kappa, T, theta, eta, eta2) points: T in [0.01, 3] and eta,
    eta2 in [1e-3, 0.1] log-uniform, kappa / T uniform in [0, 6]."""
    rng = np.random.default_rng(20250808)
    points = []
    for _ in range(n):
        temperature = float(np.exp(rng.uniform(np.log(0.01), np.log(3.0))))
        kappa = float(rng.uniform(0.0, 6.0)) * temperature
        eta, eta2 = (float(np.exp(rng.uniform(np.log(1e-3), np.log(0.1)))) for _ in range(2))
        points.append((kappa, temperature, float(rng.uniform(0.0, np.pi)), eta, eta2))
    return points


STEADY_CASES = [
    # kappa / T from 0.15 to 10
    *[(model, kappa, temperature, theta, 0.01, 0.05)
      for model in ("two_qubit_local", "two_qubit_common")
      for kappa, temperature, theta in [
          (0.3, 2.0, 0.0), (0.6, 0.4, np.pi / 2), (1.2, 0.3, 1.0),
          (1.0, 0.1, np.pi / 2), (2.0, 0.2, 0.3), (0.5, 0.05, 2.5),
      ]],
    # slowest decay rate 4.1e-5: a state accepted at a finite horizon by its
    # residual is 55 % off here
    ("two_qubit_common", 0.10175, 0.0185, np.pi / 2, 0.0049, 0.0061),
    # kappa / T = 8.6, where such a state is 0.45 % off
    ("two_qubit_local", 0.08944, 0.0104, np.pi / 2, 0.01, 0.01),
    # perfbench seed-0 point queries #60 and #205 (slowest rates 2.2e-5 and 5.9e-6)
    ("two_qubit_common", 0.292996, 0.058916, 1.17356, 0.0251423, 0.0262908),
    ("two_qubit_common", 0.201964, 0.0726984, 0.413895, 0.0517224, 0.0527227),
    *[pytest.param(model, *point, id=f"draw{k}-{model}")
      for k, point in enumerate(_steady_draw()) for model in ("two_qubit_local", "two_qubit_common")],
]


class TestClosedFormRegressions:
    """Exact derivatives reproduce the closed forms; a central difference
    over five temperatures missed the direct probe by up to 5e-5 relative
    and the cold two-qubit steady state by up to 70 %, or refused its step."""

    @staticmethod
    def assert_rel(got, ref, rel):
        assert abs(got - ref) <= rel * abs(ref), (got, ref)

    @pytest.mark.parametrize("temperature", [0.05, 0.1, 0.4, 2.0])
    @pytest.mark.parametrize("eta", [0.005, 0.1])
    def test_direct_probe_qfi(self, temperature, eta):
        bath = BathSpec(eta, 10.0, temperature)
        scan = run_direct_vs_ancilla(
            temperature=temperature, eta=eta, t_max=50.0, n_points=101, workers=1
        )
        for row in scan.rows:
            if row["scheme"] == "direct" and row["t"] > 0:
                self.assert_rel(row["qfi"], direct_probe_qfi(row["t"], bath), 1e-9)
        for t in (0.37, 13.1, 50.0):
            row = run_qfi_point("direct", at=t, temperature=temperature, eta=eta).rows[0]
            self.assert_rel(row["qfi"], direct_probe_qfi(t, bath), 1e-9)

    @pytest.mark.parametrize("model, kappa, temperature, theta, eta, eta2", STEADY_CASES)
    def test_two_qubit_steady_qfi(self, model, kappa, temperature, theta, eta, eta2):
        row = run_qfi_point(
            model, at="steady", temperature=temperature, kappa=kappa,
            eta=eta, eta2=eta2, theta=theta,
        ).rows[0]
        self.assert_rel(row["qfi"], steady_qfi(kappa, temperature), 1e-6)

    @pytest.mark.parametrize("model, kw", [
        ("probe_ancilla", dict(temperature=1.84956, kappa=0.624365, theta=2.52883, eta=0.0374362)),
        ("direct", dict(temperature=0.150054, eta=0.095366)),
        # point queries seed 10 #21 and #128, seed 6 #55
        ("probe_ancilla", dict(temperature=0.0707345, kappa=1.00384, theta=1.58788, eta=0.0266398)),
        ("probe_ancilla", dict(temperature=0.0925852, kappa=0.404453, theta=0.384719, eta=0.0119333)),
        ("probe_ancilla", dict(temperature=0.111855, kappa=0.915501, theta=0.194401, eta=0.0234285)),
    ])
    def test_dephased_steady_coherence_is_zero(self, model, kw):
        # a state taken at a finite horizon keeps a remainder of 2.4e-11 and
        # 5.0e-11 on the first two; a solve of L x = 0 with the trace fixed
        # leaves 1.9e-15 to 2.4e-15 on the last three
        row = run_qfi_point(model, at="steady", **kw).rows[0]
        assert row["coherence_abs"] <= 1e-15

    def test_cold_steady_reproducer(self):
        kappa, temperature = 0.4776, 0.0610723
        row = run_qfi_point(
            "two_qubit_local", at="steady", temperature=temperature, kappa=kappa,
            theta=0.202607, eta=0.0216013, eta2=0.0500739,
        ).rows[0]
        self.assert_rel(row["qfi"], steady_qfi(kappa, temperature), 1e-5)


class TestSharedGenerator:
    """A preparation sweep builds one generator per bath and gets the bits
    of families built one by one."""

    @staticmethod
    def count_builds(monkeypatch):
        calls = []

        def counted(model):
            calls.append(model)
            return build_liouvillian(model)

        monkeypatch.setattr(experiments, "build_liouvillian", counted)
        return calls

    @pytest.mark.parametrize("workers", [1, 2])
    def test_theta_scan(self, monkeypatch, workers):
        calls = self.count_builds(monkeypatch)
        scan = run_theta_scan(n_points=60, workers=workers)
        assert len(calls) == 1
        times = np.linspace(0.0, 50.0, 60)
        grids = [
            TemperatureFamily(make_model(
                "probe_ancilla", temperature=0.4, eta=0.01, cutoff=10.0, kappa=0.8, theta=theta,
            )).records(times)
            for theta in experiments.DEFAULT_THETAS
        ]
        assert scan.data == experiments._grid_table("theta", scan.params["theta_list"], grids)

    def test_two_qubit_configs(self, monkeypatch):
        calls = self.count_builds(monkeypatch)
        scan = run_two_qubit_configs(n_points=40, workers=1)
        assert len(calls) == 2
        times = np.concatenate([[0.0], np.geomspace(0.01, 2000.0, 39)])
        grids = [
            TemperatureFamily(make_model(
                f"two_qubit_{config.split('_')[0]}", temperature=0.4, kappa=0.6, eta=0.01,
                eta2=0.05, cutoff=10.0, theta=0.0 if config.endswith("separable") else np.pi / 2,
            )).records(times)
            for config in TWO_QUBIT_CONFIGS
        ]
        assert scan.data == experiments._grid_table("config", TWO_QUBIT_CONFIGS, grids)

    def test_prepared_family_shares_the_generator(self):
        fam = pa_family(0.8, theta=0.0)
        other = fam.prepared(np.pi / 3)
        assert other.liouvillian is fam.liouvillian
        assert other._evolution.basis is fam._evolution.basis
        assert other.model.theta == np.pi / 3 and fam.model.theta == 0.0
        alone = pa_family(0.8, theta=np.pi / 3)
        for got, want in zip(other.state_and_derivative(7.5), alone.state_and_derivative(7.5)):
            assert np.array_equal(got, want)
        with pytest.raises(ValidationError, match="theta"):
            fam.prepared(4.0)
