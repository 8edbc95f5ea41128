import warnings

import numpy as np
import pytest

from qthermo.closed_forms import optimal_ratio, steady_qfi
from qthermo import dynamics, experiments, fisher
from qthermo.config import resolve
from qthermo.errors import NoConvergence, NonFinite, NonPositiveInput, QThermoError, ResolutionLimit, ValidationError
from qthermo.experiments import (
    MODEL_NAMES,
    TWO_QUBIT_CONFIGS,
    TemperatureFamily,
    _family,
    _fit,
    _qubit_record,
    _refine_max,
    _two_qubit_record,
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
from qthermo.fisher import qfi_spectral, qsnr, qubit_qfi, sector_qfi
from qthermo.dynamics import propagate
from qthermo.master_equation import assemble_liouvillian, build_liouvillian
from qthermo.models import BathSpec, LocalBaths, TwoQubitModel, initial_state
from reference import d_rho_dT, direct_probe_qfi, probe_ancilla, steady_state


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
    return TemperatureFamily(probe_ancilla(kappa, BathSpec(eta, 10.0, temperature), theta))


class TestInfrastructure:
    def test_parallel_map_matches_serial(self):
        items = list(range(7))
        f = lambda x: x * x + 1
        assert parallel_map(f, items, workers=1) == parallel_map(f, items, workers=4)

    def test_refine_max_of_a_parabola(self):
        times = np.linspace(1.0, 4.0, 7)
        opt = _refine_max(times, 5.0 - (times - 2.7) ** 2, lambda t: 5.0 - (t - 2.7) ** 2)
        assert opt.argmax == pytest.approx(2.7, abs=1e-12)
        assert opt.value == pytest.approx(5.0, abs=1e-15)
        assert opt.tolerance <= 1e-14

    def test_fit_rejects_an_empty_bracket(self):
        for lo, hi in ((2.0, 1.0), (1.0, 1.0)):
            with pytest.raises(NonPositiveInput, match="bracket"):
                _fit(lambda s, t: -t * t, [(lo, hi)], [1.0])

    def test_fit_of_noise_raises_after_one_call_per_level(self):
        rng, calls = np.random.default_rng(0), []

        def noise(s, points):
            calls.append(len(points))
            return rng.standard_normal(len(points))

        with pytest.raises(NoConvergence, match=r"\[0.0, 1.0\]"):
            _fit(noise, [(0.0, 1.0)], [1.0])
        assert len(calls) <= np.log2(experiments.MAX_PIECES) + 1
        assert calls[-1] == experiments.MAX_PIECES * experiments.NODES

    def test_make_model_names(self):
        for name in MODEL_NAMES:
            make_model(name, temperature=0.4, eta=0.01, cutoff=10.0)
        with pytest.raises(ValidationError, match="model"):
            make_model("nope", temperature=0.4, eta=0.01, cutoff=10.0)


def sequential_golden_section(f, lo, hi, tol):
    """One point per step: golden-section search for the maximum of a unimodal
    ``f`` on ``[lo, hi]``, with its number of steps."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    steps = 0
    # stop once a probe no longer lies strictly inside (a, b): the bracket
    # cannot shrink below the float spacing of its ends
    while (b - a) > tol and a < c < b and a < d < b:
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


def sequential_t99_bisection(q, lo, hi, target):
    """One point per step: the final bracket of the bisection of ``[lo, hi]``
    for ``q = target``, with its number of steps."""
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
    p = {**resolve("two_qubit_configs").options, **params}
    times = np.concatenate([[0.0], np.geomspace(0.01, p["t_max"], p["n_points"] - 1)])
    for config in TWO_QUBIT_CONFIGS:
        fam = _family(
            "two_qubit_local" if config.startswith("local") else "two_qubit_common",
            p["temperature"], kappa=p["kappa"], eta=p["eta1"], eta2=p["eta2"], cutoff=p["cutoff"],
            theta=0.0 if config.endswith("separable") else np.pi / 2,
        )
        qfi = [row["qfi"] for row in run.rows if row["config"] == config]
        target = 0.99 * qfi[-1]
        i = int(np.nonzero(np.array(qfi) >= target)[0][0])
        q = lambda t, fam=fam: sector_qfi(*fam.state_and_derivative(t))  # noqa: E731
        yield q, times, qfi, i, target, run.results["t_99"][config]


def _draw_two_qubit_params(seed):
    rng = np.random.default_rng(seed)
    return dict(
        temperature=rng.uniform(0.3, 1.0), kappa=rng.uniform(0.3, 1.2),
        eta1=10.0 ** rng.uniform(-2.5, -1.0), eta2=10.0 ** rng.uniform(-2.5, -1.0), n_points=120,
    )


class TestFittedSearches:
    """The fitted searches against one-point-at-a-time references."""

    @pytest.mark.parametrize("seed", range(40))
    def test_maximum_matches_the_golden_section(self, seed):
        # analytic peaks, resolved by one piece as the experiments' curves are
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-10.0, 10.0)
        hi = lo + 10.0 ** rng.uniform(-3.0, 2.0)
        x0 = rng.uniform(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo))
        w = 10.0 ** rng.uniform(0.0, 0.5) / (hi - lo)
        a, b, c = 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-0.01, 0.01), rng.uniform(0.0, 1.0)
        f = lambda x: a * (c + 1.0 / np.cosh(w * (x - x0)) ** 2 + b * w * (x - x0))  # noqa: E731
        times = np.linspace(lo, hi, 11)
        opt = _refine_max(times, f(times), f)
        x_ref, v_ref, _ = sequential_golden_section(lambda x: float(f(x)), *opt.bracket, 1e-10 * (hi - lo))
        assert abs(opt.argmax - x_ref) <= 1e-6 * (hi - lo)
        assert opt.value >= v_ref - 4 * np.spacing(v_ref)
        assert opt.tolerance <= experiments.FIT_TOL

    def test_golden_section_reference_stops_at_float_resolution(self):
        # tol = 0: the bracket's ends become adjacent floats, where no probe
        # lies strictly inside it, long before b - a reaches 0
        x0 = 10.0 + 1.1e-4
        x, _, steps = sequential_golden_section(lambda x: -(x - x0) ** 2, 10.0, 10.0 + 2e-4, 0.0)
        assert abs(x - x0) <= 1e-12
        assert steps < 100

    @pytest.mark.parametrize("seed", range(4))
    def test_t99_matches_the_sequential_bisection(self, seed):
        for q, times, qfi, i, target, t99 in two_qubit_searches(**_draw_two_qubit_params(seed)):
            bracket, _ = sequential_t99_bisection(q, float(times[i - 1]), float(times[i]), target)
            assert t99 == pytest.approx(0.5 * sum(bracket), rel=1e-12, abs=0.0)

    def test_stacked_searches_equal_single_searches(self):
        # the maxima of three couplings' QSNR and coherence, and the t_99 of
        # the four two-qubit configurations, searched together and one by one
        times, fam = np.linspace(0.0, 50.0, 100), TemperatureFamily(*(
            probe_ancilla(kappa, BathSpec(0.1, 10.0, 0.4), np.pi / 2) for kappa in (0.4, 0.8, 1.2)))
        fns = [lambda t, k=k: qsnr(fam.temperature, qubit_qfi(*fam.state_and_derivative(t, k))) for k in range(3)]
        fns += [lambda t, k=k: experiments._coherence(fam.state_and_derivative(t, k)[0]) for k in range(3)]
        values = [fn(times) for fn in fns]
        stacked = experiments._refine_maxima(times, values, lambda s, t: np.array(
            [fns[k](x) for k, x in zip(s.tolist(), t)]))
        assert stacked == [_refine_max(times, v, fn) for v, fn in zip(values, fns)]
        searches = list(two_qubit_searches(n_points=120))
        fits = [_fit(lambda s, t, q=q: q(t), [(times[i - 1], times[i])], [max(qfi)])[0]
                for q, times, qfi, i, _, _ in searches]
        brackets = [(times[i - 1], times[i]) for _, times, _, i, _, _ in searches]
        targets = [target for *_, target, _ in searches]
        roots = experiments._first_roots(fits, brackets, targets)
        assert roots == [experiments._first_root(*args) for args in zip(fits, *zip(*brackets), targets)]
        assert roots == [t99 for *_, t99 in searches]

    def test_t99_near_the_decoherence_free_corner(self):
        # eta2/eta = 1.00001: the common-bath QFI carries ~1e-7 relative noise
        run = run_two_qubit_configs(eta2=0.0100001, workers=1)
        assert run.results["t_99"]["common_separable"] == pytest.approx(1979.999935280562, rel=1e-6)


class TestSearchCallCounts:
    """Stacked calls of the searched functions per default request, pinned:
    every search of a sweep advances in one call per level, each fit is one
    16-node piece, and an optimum's results take one more call."""

    @pytest.mark.parametrize("run, searcher, searches, calls", [
        (run_kappa_sweep, "_refine_maxima", 4, 2), (run_coherence_parametric, "_refine_maxima", 12, 2),
        (run_two_qubit_configs, "_fit", 4, 1),
    ])
    def test_default_request(self, run, searcher, searches, calls, monkeypatch):
        sizes = []

        def counted(fn):
            return lambda s, points: sizes.append((len(set(s.tolist())), len(points))) or fn(s, points)

        fit, refine = experiments._fit, experiments._refine_maxima
        if searcher == "_fit":
            monkeypatch.setattr(experiments, "_fit", lambda fn, *args: fit(counted(fn), *args))
        else:  # its fit's levels and its results
            monkeypatch.setattr(experiments, "_refine_maxima", lambda times, values, fn: refine(times, values, counted(fn)))
        run(workers=1)
        assert sizes == [(searches, searches * experiments.NODES), (searches, searches)][:calls]

    @pytest.mark.parametrize("run", [run_kappa_sweep, run_coherence_parametric, run_two_qubit_configs])
    def test_one_eigvals_call_per_solve(self, run, monkeypatch):
        # every piece of every search of a chunk, whatever its trimmed length,
        # in one stacked eigenvalue call; the evolution takes none
        shapes, eigvals = [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(a.shape) or eigvals(a))
        run(workers=1)
        assert len(shapes) == 1


class TestSweepStacks:
    """A sweep is one stack per pool chunk, with the bits of a loop of
    single-model families and single searches."""

    @staticmethod
    def per_point(kappas, times, eta, columns):
        """Each coupling's records and optima, by its own family and searches."""
        out = []
        for kappa in kappas:
            fam = pa_family(kappa, eta=eta)
            recs, state = fam.records(times), fam.state_and_derivative
            fns = {"qsnr": lambda t: qsnr(fam.temperature, qubit_qfi(*state(t))),
                   "coherence_abs": lambda t: experiments._coherence(state(t)[0])}
            out.append((recs, *(_refine_max(times, recs[name], fns[name]) for name in columns)))
        return out

    @pytest.mark.parametrize("workers", [1, 2])
    def test_kappa_sweep_equals_a_per_point_loop(self, workers):
        kappas = [0.6, 0.75, 0.9]
        scan = run_kappa_sweep(kappas, n_points=120, workers=workers)
        loop = self.per_point(kappas, np.linspace(0.0, 120.0, 120), 0.01, ("qsnr",))
        assert scan.data == experiments._grid_table("kappa", kappas, [recs for recs, _ in loop])
        assert scan.results["optima"] == [
            {"kappa": kappa, "t_opt": opt.argmax, "qsnr_opt": opt.value} for kappa, (_, opt) in zip(kappas, loop)
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_coherence_parametric_equals_a_per_point_loop(self, workers):
        kappas = [0.4, 0.8, 1.2]
        scan = run_coherence_parametric(kappas, n_points=100, workers=workers)
        loop = self.per_point(kappas, np.linspace(0.0, 50.0, 100), 0.1, ("qsnr", "coherence_abs"))
        assert scan.rows == [
            {"kappa": kappa, "max_coherence": c.value, "t_max_coherence": c.argmax, "qsnr_opt": r.value, "t_opt": r.argmax}
            for kappa, (_, r, c) in zip(kappas, loop)
        ]
        assert scan.results["parametric"] == scan.rows

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_a_failing_sweep_raises_the_error_of_its_first_failing_point(self, workers):
        def job(chunk):  # a stack names the last of its failing points
            failing = [point for point in chunk if point in "bd"]
            if failing:
                raise ValidationError(failing[-1], "fails")
            return chunk

        with pytest.raises(ValidationError, match="^b: fails$"):
            experiments._sweep(job, "abcde", workers)
        assert experiments._sweep(job, "ace", workers) == list("ace")
        # the couplings 1.2 and 1.0 peak past t_max = 30; 0.6 and 0.8 do not
        with pytest.raises(NoConvergence, match=r"^maximum at grid edge 30\.0; extend the grid"):
            run_kappa_sweep([0.6, 1.2, 0.8, 1.0], t_max=30.0, n_points=100, workers=workers)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_run_serially(self, workers):
        for run, kw in ((run_theta_scan, {"n_points": 40}), (run_kappa_sweep, {"n_points": 60}),
                        (run_coherence_parametric, {"n_points": 60}), (run_two_qubit_configs, {"n_points": 30})):
            assert run(workers=workers, **kw) == run(workers=1, **kw), run.__name__
        assert experiments._sweep(lambda chunk: chunk, "abc", workers) == list("abc")
        assert experiments._sweep(lambda chunk: chunk, "", workers) == []

    @pytest.mark.parametrize("column, skipped", [("coherence_abs", "qubit_qfi"), ("qsnr", "_coherence")])
    def test_a_search_reads_only_its_own_column(self, monkeypatch, column, skipped):
        rows, fn = [], getattr(experiments, skipped)

        def counted(rho, *args):
            rows.append(int(np.prod(np.shape(rho)[:-2])))
            return fn(rho, *args)

        monkeypatch.setattr(experiments, skipped, counted)
        times = np.linspace(0.0, 50.0, 100)
        optima = experiments._coupling_optima([0.4, 0.8], 0.4, 0.1, 10.0, np.pi / 2, times, (column,))
        assert len(optima) == 2
        assert sum(rows) == 2 * len(times)  # the grid records' rows, no search node

    def test_theta_scan_needs_an_angle(self):
        with pytest.raises(NonPositiveInput, match="at least one angle"):
            run_theta_scan([])


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
        t_opts = [o["t_opt"] for o in kappa_sweep_result.results["optima"]]
        assert all(a < b for a, b in zip(t_opts, t_opts[1:]))

    def test_optima_are_interior_and_refined(self, kappa_sweep_result):
        times = np.linspace(0.0, 120.0, 600)
        for kappa, optimum in zip(experiments.DEFAULT_KAPPAS, kappa_sweep_result.results["optima"]):
            ((_, o),) = experiments._coupling_optima([kappa], 0.4, 0.01, 10.0, np.pi / 2, times, ("qsnr",))
            assert optimum == {"kappa": kappa, "t_opt": o.argmax, "qsnr_opt": o.value}
            assert o.value >= max(o.bracket_values)
            assert o.bracket[0] < o.argmax < o.bracket[1]
            assert o.tolerance <= 1e-6

    def test_frozen_optimum_values(self, kappa_sweep_result):
        # pinned from the converged generator: peaks of T^2 * QFI(t)
        got = [o["qsnr_opt"] for o in kappa_sweep_result.results["optima"]]
        assert np.allclose(got, [0.07606, 0.06452, 0.05628, 0.05036], atol=2e-4)

    def test_persistence_at_long_times(self):
        # stronger coupling holds information longer: compare QFI/t far out
        f6 = _qubit_record(300.0, *pa_family(0.6).state_and_derivative(300.0), 0.4)
        f9 = _qubit_record(300.0, *pa_family(0.9).state_and_derivative(300.0), 0.4)
        assert f9["qfi_per_t"] > f6["qfi_per_t"]

    def test_refinement_calls_fn_only_in_its_fit_and_at_its_result(self):
        calls = []

        def fn(t):
            calls.append(t)
            return 1.0 - (t - 0.52) ** 2

        times = np.linspace(0.0, 1.0, 21)
        values = [1.0 - (t - 0.52) ** 2 for t in times]
        _fit(lambda s, t: fn(t), [(times[9], times[11])], [max(np.abs(values))])
        fit_calls, calls[:] = [c.tolist() for c in calls], []
        opt = _refine_max(times, values, fn)
        # the bracket ends come from the grid values; fn is read by the fit
        # and once at the located maximum
        assert [c.tolist() for c in calls] == fit_calls + [[opt.argmax]]
        assert opt.bracket_values == (values[9], values[11])
        assert opt.value == float(fn(np.array([opt.argmax]))[0])
        assert opt.argmax == pytest.approx(0.52, abs=1e-12)

    def test_coarse_grid_finds_the_default_optima(self, kappa_sweep_result):
        # three grid points bracket all of [0, t_max]: the fit finds the
        # global maximum there, not a local one
        coarse = run_kappa_sweep(n_points=3, workers=1).results["optima"]
        for o, ref in zip(coarse, kappa_sweep_result.results["optima"]):
            assert o["qsnr_opt"] == pytest.approx(ref["qsnr_opt"], rel=1e-9, abs=0.0)
            assert o["t_opt"] == pytest.approx(ref["t_opt"], rel=1e-9, abs=0.0)

    def test_edge_maximum_rejected(self):
        from qthermo.experiments import _refine_max

        times = np.linspace(0.0, 1.0, 20)
        edge = r"maximum at grid edge 1\.0; extend the grid to bracket it"
        with pytest.raises(NoConvergence, match=edge):
            _refine_max(times, times**2, lambda t: t**2)
        # a ratio grid that stops below x* = 1.2
        with pytest.raises(NoConvergence, match=edge):
            run_steady_qsnr_curve(ratio_max=1.0)


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
        vals = list(two_qubit_result.results["steady_qfi"].values())
        assert max(vals) - min(vals) < 1e-6

    def test_steady_value_matches_closed_form(self, two_qubit_result):
        exact = steady_qfi(0.6, 0.4)
        for v in two_qubit_result.results["steady_qfi"].values():
            assert v == pytest.approx(exact, rel=1e-6)

    def test_local_separable_fastest(self, two_qubit_result):
        t99 = two_qubit_result.results["t_99"]
        assert t99["local_separable"] <= t99["common_entangled"]
        assert t99["local_separable"] == min(t99.values())

    def test_peak_at_steady_state(self, two_qubit_result):
        by_config = {}
        for row in two_qubit_result.rows:
            by_config.setdefault(row["config"], []).append(row["qfi"])
        for vals in by_config.values():
            assert max(vals) <= vals[-1] + 1e-9


    def test_t99_bisection_stops_at_float_resolution(self, two_qubit_result):
        # the fitted root is the full 60-halving loop's t_99 to rounding
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
            assert two_qubit_result.results["t_99"][config] == pytest.approx(0.5 * (lo + hi), rel=1e-12, abs=0.0)


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
        assert ref["qfi"] == [sector_qfi(a, b) for a, b in zip(rho, drho)]
        assert ref["qfi"] == pytest.approx([qfi_spectral(a, b) for a, b in zip(rho, drho)], rel=1e-12, abs=0.0)
        assert ref["qfi"][0] == 0.0  # t = 0: the pure, temperature-independent preparation

    def test_two_qubit_probabilities_in_closed_form(self, rng):
        # m00, p± = (m11 + m22)/2 ± Re m12 and m33 are Re <b|m|b> on the
        # doublet basis, to rounding of its 1/sqrt(2) entries
        m = rng.normal(size=(50, 4, 4)) + 1j * rng.normal(size=(50, 4, 4))
        m = m + m.conj().transpose(0, 2, 1)
        plus, minus = 0.5 * (m[:, 1, 1] + m[:, 2, 2]).real + np.array([[1.0], [-1.0]]) * m[:, 1, 2].real
        got = fisher._doublet_populations(m)
        assert np.array_equal(got, np.stack([m[:, 0, 0].real, plus, minus, m[:, 3, 3].real], axis=-1))
        basis = experiments._TQ_BASIS
        ref = np.einsum("ik,nij,jk->nk", basis.conj(), m, basis).real
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(m))

    def test_records_skip_the_derivative_check(self, monkeypatch):
        # the dynamics return 0.5 (drho + drho^H), so the records take the
        # sector QFI without sector_qfi's hermiticity check
        fam = _family("two_qubit_local", 0.4, kappa=0.6, eta=0.01, eta2=0.05, cutoff=10.0, theta=np.pi / 2)
        times = np.geomspace(0.01, 500.0, 40)
        want = fam.records(times)
        monkeypatch.setattr(fisher, "_check_derivative", lambda drho: pytest.fail("checked a derivative"))
        assert fam.records(times) == want
        assert run_two_qubit_configs(n_points=40, workers=1).results["t_99"]

    def test_two_qubit_states_stay_on_the_exchange_sector(self, rng):
        # the premise of sector_qfi, which reads only the {|01>, |10>} block,
        # over the benchmark's ranges (measured: 2.7e-15)
        times = np.concatenate([[0.0], np.geomspace(0.01, 2000.0, 119)])
        outside = np.ones((4, 4), dtype=bool)
        outside[1:3, 1:3] = False
        for _ in range(60):
            kw = dict(
                temperature=float(np.exp(rng.uniform(np.log(0.05), np.log(2.0)))),
                kappa=rng.uniform(0.2, 1.5), theta=rng.uniform(0.0, np.pi),
                eta=float(np.exp(rng.uniform(np.log(0.005), np.log(0.1)))),
                eta2=float(np.exp(rng.uniform(np.log(0.005), np.log(0.1)))),
            )
            for model in ("two_qubit_local", "two_qubit_common"):
                rho, drho = TemperatureFamily(make_model(model, cutoff=10.0, **kw)).state_and_derivative(times)
                assert np.abs(rho[:, outside]).max() <= 1e-13, (model, kw)
                assert np.abs(drho[:, outside]).max() <= 1e-13, (model, kw)

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
        loc = scan.results["located_max"]
        x_star, qsnr_star = optimal_ratio()
        assert loc["ratio"] == pytest.approx(x_star, rel=1e-10, abs=0.0)
        assert loc["qsnr"] == pytest.approx(qsnr_star, abs=1e-9)

    def test_maximum_location_on_a_coarse_grid(self):
        # one fit over [ratio_min, ratio_max]; the piece holding the maximum
        # is resolved to FIT_TOL, which bounds how well its derivative root
        # places the ratio
        scan = run_steady_qsnr_curve(ratio_points=3)
        loc = scan.results["located_max"]
        x_star, qsnr_star = optimal_ratio()
        assert loc["ratio"] == pytest.approx(x_star, rel=1e-8, abs=0.0)
        assert loc["qsnr"] == pytest.approx(qsnr_star, rel=1e-15, abs=0.0)

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
    @pytest.mark.parametrize("eta", [0.0, 0.005, 0.1])
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
    """A preparation sweep builds one generator per bath and pool chunk and
    gets the bits of families built one by one."""

    @staticmethod
    def count_builds(monkeypatch):
        calls = []

        def counted(channels):
            calls.append(channels)
            return assemble_liouvillian(channels)

        monkeypatch.setattr(experiments, "assemble_liouvillian", counted)
        return calls

    @staticmethod
    def count_exponentials(monkeypatch):
        shapes = []

        class Numpy:  # the numpy dynamics sees, counting its exp calls
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def exp(x):
                shapes.append(np.shape(x))
                return np.exp(x)

        monkeypatch.setattr(dynamics, "np", Numpy())
        return shapes

    @pytest.mark.parametrize("workers", [1, 2])
    def test_theta_scan(self, monkeypatch, workers):
        calls = self.count_builds(monkeypatch)
        shapes = self.count_exponentials(monkeypatch)
        scan = run_theta_scan(n_points=60, workers=workers)
        # the five preparations share one generator, built before the chunks;
        # each chunk takes one exp(lam t) of the grid for all of its items
        assert len(calls) == 1
        assert shapes == [(60, 16)] * workers
        times = np.linspace(0.0, 50.0, 60)
        grids = [
            TemperatureFamily(make_model(
                "probe_ancilla", temperature=0.4, eta=0.01, cutoff=10.0, kappa=0.8, theta=theta,
            )).records(times)
            for theta in experiments.DEFAULT_THETAS
        ]
        assert scan.data == experiments._grid_table("theta", list(experiments.DEFAULT_THETAS), grids)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_two_qubit_configs(self, monkeypatch, workers):
        calls = self.count_builds(monkeypatch)
        shapes = self.count_exponentials(monkeypatch)
        scan = run_two_qubit_configs(n_points=40, workers=workers)
        assert len(calls) == 2
        # each bath's two preparations share one exp(lam t) of the grid
        assert shapes.count((40, 16)) == 2
        times = np.concatenate([[0.0], np.geomspace(0.01, 2000.0, 39)])
        grids = [
            TemperatureFamily(make_model(
                f"two_qubit_{config.split('_')[0]}", temperature=0.4, kappa=0.6, eta=0.01,
                eta2=0.05, cutoff=10.0, theta=0.0 if config.endswith("separable") else np.pi / 2,
            )).records(times)
            for config in TWO_QUBIT_CONFIGS
        ]
        assert scan.data == experiments._grid_table("config", TWO_QUBIT_CONFIGS, grids)

    def test_preparations_share_the_generator(self):
        fam = TemperatureFamily(*(probe_ancilla(0.8, BathSpec(0.01, 10.0, 0.4), theta) for theta in (0.0, np.pi / 3)))
        assert len(fam.liouvillians) == 1 and fam._generator == [0, 0]
        for item, theta in enumerate((0.0, np.pi / 3)):
            alone = pa_family(0.8, theta=theta)
            for got, want in zip(fam.state_and_derivative(7.5, item), alone.state_and_derivative(7.5)):
                assert np.array_equal(got, want)
        couplings = TemperatureFamily(*(probe_ancilla(kappa, BathSpec(0.01, 10.0, 0.4), 0.0) for kappa in (0.6, 0.7)))
        assert len(couplings.liouvillians) == 2

    def test_each_item_gets_its_own_steady_state(self):
        fam = TemperatureFamily(*(probe_ancilla(0.8, BathSpec(0.01, 10.0, 0.4), theta) for theta in (0.0, np.pi / 3)))
        fam.records(np.inf, 0)
        for item, theta in enumerate((0.0, np.pi / 3)):
            for a, b in zip(fam.state_and_derivative(np.inf, item), pa_family(0.8, theta=theta).state_and_derivative(np.inf)):
                assert a.tobytes() == b.tobytes()

    def test_evolve_builds_its_channels_once(self, monkeypatch):
        calls = []
        real = experiments.jump_channels
        monkeypatch.setattr(experiments, "jump_channels", lambda model: calls.append(model) or real(model))
        run_evolve("two_qubit_common", eta2=0.03, n_points=40)
        assert len(calls) == 1


class TestSteadyRateLaw:
    """Steady states come from the population rate law without a generator;
    every state it does not give is an error of its own."""

    @staticmethod
    def law(model):
        from qthermo.dynamics import rate_law
        from qthermo.master_equation import jump_channels

        return rate_law(jump_channels(model), initial_state(model), TemperatureFamily(model).temperature)

    @pytest.mark.parametrize("model", MODEL_NAMES)
    @pytest.mark.parametrize("kw, rejects", [
        ({"eta2": 0.05}, {}),
        # the precessing exchange coherence of a common bath at eta2 = eta
        ({"theta": 1.0}, {"two_qubit_common": NoConvergence}),
        # the merged +-kappa levels
        ({"temperature": 1e-14, "kappa": 1.2e-14, "eta2": 0.05}, dict.fromkeys(MODEL_NAMES[1:], ResolutionLimit)),
        # overflowing rates
        ({"temperature": 1e300, "eta": 1e300, "eta2": 1e300}, dict.fromkeys(MODEL_NAMES, NonFinite)),
    ])
    def test_steady_request_builds_no_generator(self, model, kw, rejects, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "assemble_liouvillian", lambda ch: calls.append(ch))
        monkeypatch.setattr(experiments, "_Evolution", lambda *a: calls.append(a))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflowing rates
            if model in rejects:
                with pytest.raises(rejects[model]):
                    run_qfi_point(model, **kw)
            else:
                assert run_qfi_point(model, **kw).results["record"]["at"] == "steady"
        assert calls == []

    def test_local_baths_at_two_temperatures_solve_each_sector(self):
        # no Gibbs law: the sectors' stationary populations and their solve with dW/dT
        from qthermo.models import LocalBaths, TwoQubitModel

        with pytest.warns(UserWarning, match="different temperatures"):
            model = TwoQubitModel(0.8, LocalBaths(BathSpec(0.01, 10.0, 0.4), BathSpec(0.05, 10.0, 0.5)), 0.7)
        fam = TemperatureFamily(model)
        rho, drho = steady_state(build_liouvillian(model), initial_state(model))
        got, d_got = fam.state_and_derivative(np.inf)
        assert np.max(np.abs(got - rho)) <= 1e-15 and np.max(np.abs(d_got - drho)) <= 1e-15
        assert fam.records(np.inf) == pytest.approx(_two_qubit_record(np.inf, rho, drho, fam.temperature), rel=1e-12)

    @pytest.mark.parametrize("t", [5.0, np.inf])
    def test_local_baths_at_two_temperatures_shift_jointly(self, t):
        # the family's T is the first bath's; every channel's d_rates enters
        # the derivative, so it is that of (T1 + h, T2 + h), not of T1 alone
        def state(t1, t2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # different temperatures
                baths = LocalBaths(BathSpec(0.01, 10.0, t1), BathSpec(0.05, 10.0, t2))
                return TemperatureFamily(TwoQubitModel(0.8, baths, 0.7)).state_and_derivative(t)

        _, drho = state(0.4, 0.5)
        joint = d_rho_dT(lambda temp: state(temp, temp + 0.1)[0], 0.4, h=1e-5)
        first = d_rho_dT(lambda temp: state(temp, 0.5)[0], 0.4)
        scale = np.max(np.abs(joint))
        assert np.max(np.abs(drho - joint)) <= 1e-8 * scale
        assert np.max(np.abs(drho - first)) > 0.1 * scale

    @pytest.mark.parametrize("temperature", [0.05, 0.07, 0.4])
    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    @pytest.mark.parametrize("model", ["probe_ancilla", "two_qubit_local", "two_qubit_common"])
    def test_degenerate_couplings_take_the_law(self, model, kappa, temperature):
        # kappa = 0 and kappa = 1 make levels of H degenerate
        fam = _family(model, temperature, eta=0.01, eta2=0.05, cutoff=10.0, kappa=kappa, theta=0.7)
        assert not self.law(fam.models[0])[2].any()
        rho, drho = steady_state(build_liouvillian(fam.models[0]), fam.rho0[0])
        got, d_got = fam.state_and_derivative(np.inf)
        assert np.max(np.abs(got - fam._project(rho))) <= 1e-12
        assert np.max(np.abs(d_got - fam._project(drho))) <= 1e-10 * max(1.0, np.max(np.abs(drho)))
        if model != "probe_ancilla":
            exact = steady_qfi(kappa, temperature)
            assert fam.records(np.inf)["qfi"] == pytest.approx(exact, rel=1e-12, abs=1e-300)

    def test_undamped_coherence_precesses_or_stays(self):
        # eta2 = eta leaves the exchange sector's coherence undamped: it
        # precesses at 2 kappa, so there is no steady state; at kappa = 0
        # its levels are one and it stays, with the record read from the state
        fam = _family("two_qubit_common", 0.4, eta=0.02, cutoff=10.0, kappa=0.6, theta=1.0)
        with pytest.raises(NoConvergence, match=r"levels E = -0.6 and 0.6 does not decay: .* Bohr frequency -1.2 "):
            fam.records(np.inf)
        fam = _family("two_qubit_common", 0.4, eta=0.02, cutoff=10.0, kappa=0.0, theta=1.0)
        assert self.law(fam.models[0])[2].any()
        rho, drho = fam.state_and_derivative(np.inf)
        assert np.max(np.abs(rho - fam.rho0[0])) <= 1e-15 and not drho.any()
        ref = steady_state(build_liouvillian(fam.models[0]), fam.rho0[0])
        assert np.max(np.abs(rho - ref[0])) <= 1e-15 and np.max(np.abs(ref[1])) <= 1e-15
        assert fam.records(np.inf) == _two_qubit_record(np.inf, rho, drho, fam.temperature)

    def test_grid_steady_rows_come_from_the_law(self):
        fam = _family("two_qubit_common", 0.07, eta=0.01, eta2=0.05, cutoff=10.0, kappa=1.0, theta=0.7)
        rho, drho = fam.state_and_derivative(np.array([0.0, 5.0, np.inf, np.inf]))
        for k, t in enumerate([0.0, 5.0, np.inf, np.inf]):
            one, d_one = fam.state_and_derivative(t)
            assert np.array_equal(rho[k], one) and np.array_equal(drho[k], d_one)


def _law_draws(n):
    """Seeded ``(model, parameters)`` over the accepted ranges: kappa
    log-uniform in [1e-6, 1e2] or (on a tenth) 0; T in [1e-4, 1e3], eta in
    [1e-4, 5] with eta2 = eta on a fifth, cutoff in [0.1, 1e4], all
    log-uniform; theta 0, pi/2, pi or uniform; the four models in turn."""
    rng = np.random.default_rng(31)

    def log(lo, hi):
        return float(10 ** rng.uniform(np.log10(lo), np.log10(hi)))

    for k in range(n):
        kappa = 0.0 if rng.uniform() < 0.1 else log(1e-6, 1e2)
        temperature, eta = log(1e-4, 1e3), log(1e-4, 5.0)
        eta2 = eta if rng.uniform() < 0.2 else log(1e-4, 5.0)
        cutoff = log(0.1, 1e4)
        theta = [0.0, np.pi / 2, np.pi, float(rng.uniform(0.0, np.pi))][int(rng.integers(4))]
        yield MODEL_NAMES[k % 4], dict(temperature=temperature, kappa=kappa, eta=eta, eta2=eta2,
                                       cutoff=cutoff, theta=theta)


#: The reference projection resolves a generator whose modes each are
#: stationary or undamped to rounding, or decay at least this fast relative
#: to max|lam|, and whose rates are all at least this: rounding in L reaches
#: the limit amplified by the inverse of the slowest rate.  Slower modes
#: (J(w) of a Bohr frequency far above the cutoff, say) the projection
#: calls undamped or misses by up to 100 %, where the rate law is exact.
RESOLVED = 1e-4


def _resolved(fam):
    lam = np.linalg.eigvals(fam.liouvillians[0].superop)
    rel = lam / np.max(np.abs(lam))
    settled = (np.abs(rel) <= 1e-13) | (-rel.real >= RESOLVED) | ((np.abs(rel.real) <= 1e-13) & (np.abs(rel) >= RESOLVED))
    rates = fam.channels[0].rates
    return settled.all() and rates[rates > 0].min(initial=np.inf) >= RESOLVED * np.max(np.abs(lam))


def test_rate_law_matches_the_reference_projection():
    resolved = 0
    for model, kw in _law_draws(800):
        fam = _family(model, **kw)
        outcomes = []
        for steady in (lambda: fam.state_and_derivative(np.inf),
                       lambda: [fam._project(x) for x in steady_state(fam.liouvillians[0], fam.rho0[0])]):
            try:
                outcomes.append(steady())
            except QThermoError as exc:
                outcomes.append(type(exc))
        got, ref = outcomes
        kinds = tuple(x if isinstance(x, type) else "state" for x in outcomes)
        if not _resolved(fam):
            # the one disagreement: a mode too slow for the projection, which
            # it calls undamped or unresolved, while the law gives the state
            assert kinds[0] == kinds[1] or kinds == ("state", NoConvergence), (model, kw, kinds)
            continue
        resolved += 1
        assert kinds[0] == kinds[1], (model, kw, kinds)
        if kinds[1] == "state":
            assert np.max(np.abs(got[0] - ref[0])) <= 1e-12, (model, kw)
            assert np.max(np.abs(got[1] - ref[1])) <= 1e-12 * max(1.0, np.max(np.abs(ref[1]))), (model, kw)
    assert resolved >= 500
