"""Scripted scan runners producing the package's standard data products.

Each runner returns a :class:`ScanResult`: its table, held as columns (one
list of values per column name, in a fixed column order, ready for CSV
serialization), and its headline results (the summary's payload), built
from the grids, optima and records the runner holds; a run's parameters
are its resolved config, the runner's keywords.  :data:`EXPERIMENTS` holds
one :class:`ExperimentSpec` per CLI experiment: the runner itself, whose
signature declares the experiment's config keys and their defaults, and
its plot.  Runs are deterministic: there is no randomness anywhere, and
sweep points are independent jobs that a thread pool may execute in any
order without changing the assembled output.

Each job builds one model and one initial state, and per distinct
generator its channels and, once a finite time asks for them, one Liouvillian
with its closed-form ``dL/dT`` and one decomposition: preparations of one
generator share them (:meth:`TemperatureFamily.prepared`).
:class:`TemperatureFamily` takes the states and their exact temperature
derivatives from them, a time grid's as one stack each, and the grid's
records are computed on whole stacks; steady states come from the
population rate law of the channels.  No experiment takes a finite
difference: closed forms and the central differences of
``tests/reference.py`` are test oracles.

Located optima and ``t_99`` come from one piecewise Chebyshev fit of the
searched function on its grid bracket: every open piece of a level is one
stacked call, and a piece is halved until its trailing coefficients fall to
``FIT_TOL`` of the grid's largest value.  An optimum is the best derivative
root or piece end of the fit, where the function itself is then evaluated;
``t_99`` is the fit's first crossing of its target.
"""

from __future__ import annotations

import copy
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np
from numpy.polynomial import chebyshev as C

from .closed_forms import optimal_ratio, steady_qsnr
from .errors import BadDimension, NoConvergence, NonFinite, NonPositiveInput, ResolutionLimit, ValidationError
from .fisher import cfi_povm, measurement_fi, qsnr, qubit_qfi, sector_qfi
from .linalg import dag, partial_trace, pauli
from .master_equation import assemble_liouvillian, jump_channels
from .models import (
    BathSpec,
    CommonBath,
    DirectProbeModel,
    LocalBaths,
    ProbeAncillaModel,
    TwoQubitModel,
    coupling_operators,
    initial_state,
)
from .dynamics import _Evolution, law_states, rate_law

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "MODEL_NAMES",
    "ScanResult",
    "OptSearchResult",
    "parallel_map",
    "worker_count",
    "make_model",
    "run_theta_scan",
    "run_direct_vs_ancilla",
    "run_kappa_sweep",
    "run_coherence_parametric",
    "run_two_qubit_configs",
    "run_steady_qsnr_curve",
    "run_evolve",
    "run_qfi_point",
]

WORKERS_ENV = "QTHERMO_WORKERS"

DEFAULT_THETAS = (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi)
DEFAULT_KAPPAS = (0.6, 0.7, 0.8, 0.9)
DEFAULT_PARAMETRIC_KAPPAS = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)

# Fixed two-qubit measurement basis: |00>, (|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2, |11>.
_TQ_BASIS = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), 0.0],
        [0.0, 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0), 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ],
    dtype=complex,
).T


@dataclass(frozen=True)
class ScanResult:
    """Output of one experiment: its table (one equally long list of values
    per column, in column order) and its headline results."""

    label: str
    data: dict[str, list]
    results: dict

    def __post_init__(self):
        lengths = {len(col) for col in self.data.values()}
        if len(lengths) != 1:
            raise BadDimension(
                f"experiment {self.label!r}: table columns {list(self.data)} with lengths "
                f"{sorted(lengths)} are not equally long"
            )
        if not lengths.pop():
            raise NonPositiveInput(f"experiment {self.label!r} produced no rows")

    @property
    def columns(self) -> tuple[str, ...]:
        """The column names, in the order of ``data``."""
        return tuple(self.data)

    @property
    def rows(self) -> list[dict]:
        """The table as one dict per row, in column order (built on each read)."""
        return [dict(zip(self.columns, values)) for values in zip(*map(self.data.get, self.columns))]


@dataclass(frozen=True)
class ExperimentSpec:
    """One CLI experiment.  ``run`` is its runner: the config keys are the
    runner's keywords (``workers`` aside) and their defaults are the
    signature's; each key's config type is ``config.KINDS``'s, one per key
    name.  ``plot`` names the gnuplot (x, y, group) columns, ``None`` for
    none."""

    run: Callable[..., ScanResult]
    plot: tuple[str | None, str | None, str | None] = (None, None, None)


@dataclass(frozen=True)
class OptSearchResult:
    """Located interior maximum of a 1-d scan; ``tolerance`` is its fit's
    margin, the largest trailing-coefficient ratio over the pieces."""

    argmax: float
    value: float
    bracket: tuple[float, float]
    bracket_values: tuple[float, float]
    tolerance: float

    def __post_init__(self):
        if not (self.value >= self.bracket_values[0] and self.value >= self.bracket_values[1]):
            raise NoConvergence(
                f"maximum {self.value} at {self.argmax} not interior to bracket {self.bracket}"
            )


def worker_count() -> int:
    env = os.environ.get(WORKERS_ENV, "").strip()
    if not env:
        return os.cpu_count() or 1
    try:
        n = int(env)
    except ValueError:
        raise ValidationError(WORKERS_ENV, f"must be an integer, got {env!r}") from None
    if n < 1:
        raise ValidationError(WORKERS_ENV, f"must be >= 1, got {n}")
    return n


def parallel_map(fn, items, workers: int | None = None) -> list:
    """Order-preserving map over independent jobs."""
    items = list(items)
    if workers is None:
        workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


#: Chebyshev nodes (of the first kind) per piece of a search's fit.
NODES = 16
#: A piece is resolved once its two trailing coefficients are at most FIT_TOL x scale.
FIT_TOL = 1e-7
#: Most pieces a fit may take: a function that needs more raises NoConvergence.
MAX_PIECES = 256

_NODES_S = C.chebpts1(NODES)
#: Values at ``_NODES_S`` times this are the interpolant's Chebyshev coefficients.
_TO_COEFFS = C.chebvander(_NODES_S, NODES - 1) * np.r_[1.0, np.full(NODES - 1, 2.0)] / NODES


def _fit(fn, lo: float, hi: float, scale: float) -> list:
    """Piecewise Chebyshev interpolant on ``[lo, hi]`` of ``fn``, which maps
    an array of points to an array of values: its pieces ``(a, b, c, tail)``
    in order, ``c`` the series in ``s = (2x - a - b) / (b - a)`` and ``tail``
    its larger trailing coefficient relative to ``scale``.

    Every open piece of a level is read in one stacked call of ``fn`` at its
    ``NODES`` nodes; it is done once its ``tail`` is at most ``FIT_TOL``, and
    halved otherwise.
    """
    if not hi > lo:
        raise NonPositiveInput(f"fit bracket needs lo < hi, got [{lo}, {hi}]")
    done, todo = [], [(float(lo), float(hi))]
    while todo:
        if len(done) + len(todo) > MAX_PIECES:
            raise NoConvergence(
                f"no fit of {MAX_PIECES} pieces of {NODES} nodes resolves [{lo}, {hi}] "
                f"to {FIT_TOL} of {scale}"
            )
        ends = np.array(todo)
        x = ends.mean(axis=1, keepdims=True) + 0.5 * np.diff(ends, axis=1) * _NODES_S
        coeffs = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape) @ _TO_COEFFS
        tails = np.abs(coeffs[:, -2:]).max(axis=1) / scale
        done += [(a, b, c, tail) for (a, b), c, tail in zip(todo, coeffs, tails) if tail <= FIT_TOL]
        todo = [half for (a, b), tail in zip(todo, tails) if not tail <= FIT_TOL
                for half in ((a, 0.5 * (a + b)), (0.5 * (a + b), b))]
    return sorted(done, key=lambda piece: piece[0])


MODEL_NAMES = ("direct", "probe_ancilla", "two_qubit_local", "two_qubit_common")


def make_model(
    name: str,
    *,
    temperature: float,
    eta: float,
    cutoff: float,
    kappa: float = 0.8,
    theta: float = np.pi / 2,
    eta2: float | None = None,
):
    """Construct the model ``name``, one of :data:`MODEL_NAMES`, from flat
    scalar parameters (CLI plumbing)."""
    if name not in MODEL_NAMES:
        raise ValidationError("model", f"must be one of {', '.join(MODEL_NAMES)}, got {name!r}")
    bath = BathSpec(eta=eta, cutoff=cutoff, temperature=temperature)
    eta2 = eta if eta2 is None else eta2
    if name == "direct":
        return DirectProbeModel(bath=bath)
    if name == "probe_ancilla":
        return ProbeAncillaModel(kappa=kappa, bath=bath, theta=theta)
    if name == "two_qubit_local":
        cfg = LocalBaths(bath, BathSpec(eta=eta2, cutoff=cutoff, temperature=temperature))
    else:
        cfg = CommonBath(eta1=eta, eta2=eta2, cutoff=cutoff, temperature=temperature)
    return TwoQubitModel(kappa=kappa, bath_config=cfg, theta=theta)


class TemperatureFamily:
    """Probe states of one model as a function of t, with their exact
    derivatives in the model's bath temperature.  One generator serves every
    time and every preparation: its channels, and, once a finite time asks
    for them, its Liouvillian, assembled from those channels, and one
    decomposition, each built on first use.  The steady state (``t = inf``)
    comes from the population rate law (``dynamics.rate_law``) alone.  A
    probe+ancilla model's probe is its first qubit; the other models are
    probes as a whole.
    """

    def __init__(self, model):
        # the first bath's T; local baths at two temperatures (library only,
        # it warns) get the derivative of a joint shift of both, as every
        # channel's d_rates enters it
        self.temperature = float(coupling_operators(model)[0][1].temperature)
        self.model, self.rho0 = model, initial_state(model)
        self._has_ancilla = isinstance(model, ProbeAncillaModel)

    @cached_property
    def channels(self):
        return jump_channels(self.model)

    @cached_property
    def liouvillian(self):
        return assemble_liouvillian(self.channels)

    @cached_property
    def _evolution(self) -> _Evolution:
        return _Evolution(self.liouvillian, self.rho0)

    def prepared(self, theta: float) -> TemperatureFamily:
        """This model's family prepared at angle ``theta``, which enters only
        the initial state: the generator and its decomposition, built here
        if they are not yet, are shared.  A pool's tasks get families
        prepared before it starts, so that they build nothing shared."""
        evolution = self._evolution  # built before the copy, which then shares it
        family = copy.copy(self)
        family.model = replace(self.model, theta=theta)
        family.rho0 = initial_state(family.model)
        family._evolution = evolution.prepared(family.rho0)
        family.__dict__.pop("_steady", None)
        return family

    @cached_property
    def _steady(self):
        """``(p, d log p/dT, kept coherences, rho, drho)`` of the rate law."""
        law = rate_law(self.channels, self.rho0, self.temperature)
        return (*law, *law_states(self.channels.vecs, *law))

    def _project(self, rho):
        return partial_trace(rho, keep=1) if self._has_ancilla else rho

    def state_and_derivative(self, t) -> tuple[np.ndarray, np.ndarray]:
        """State and temperature derivative at time ``t`` (the steady state
        for ``t = inf``), or ``(n_t, d, d)`` stacks of both on a grid ``t``."""
        times = np.asarray(t, dtype=float)
        steady = times == np.inf
        if not steady.any():
            rho, drho = self._evolution(t)
        else:
            rho, drho = np.empty((2, *times.shape, *self.rho0.shape), dtype=complex)
            if not steady.all():
                rho[~steady], drho[~steady] = self._evolution(times[~steady])
            rho[steady], drho[steady] = self._steady[3:]
        return self._project(rho), self._project(drho)

    def records(self, t) -> dict:
        """The record at time ``t`` (``inf``: the steady state), or the
        records on a grid ``t``: a qubit probe's, or a two-qubit probe's,
        read at a steady state without coherences from its populations."""
        rho, drho = self.state_and_derivative(t)
        if rho.shape[-1] == 2:
            return _qubit_record(t, rho, drho, self.temperature)
        if np.ndim(t) == 0 and t == np.inf and not self._steady[2].any():
            return _law_record(self.channels.vecs, *self._steady[:2], rho, self.temperature)
        return _two_qubit_record(t, rho, drho, self.temperature)


def _family(model_name: str, temperature: float, **model_kw) -> TemperatureFamily:
    """Family of ``make_model(model_name, temperature=temperature, **model_kw)``."""
    return TemperatureFamily(make_model(model_name, temperature=temperature, **model_kw))


def _coherence(rho):
    """``|rho_01|`` of a qubit, ``|rho_{01,10}|`` (the exchange pair) of two
    qubits, per state; ``np.hypot`` rounds as the scalar ``abs`` does."""
    c = rho[..., 0, 1] if rho.shape[-1] == 2 else rho[..., 1, 2]
    return np.hypot(c.real, c.imag)


def _records(t, qfi, fi, rho, temperature) -> dict:
    """Record columns ``t, qfi, cfi, qsnr, qfi_per_t, coherence_abs`` from
    per-state values and states: floats at one time ``t``, lists on a grid.

    A non-finite QFI or FI is :class:`NonFinite`, and a measurement FI above
    the QFI (beyond 1e-9) means the states cannot resolve the information:
    :class:`ResolutionLimit`.  Each names its first row.
    """
    t, qfi, fi = (np.asarray(x, dtype=float) for x in (t, qfi, fi))
    for name, col in (("qfi", qfi), ("cfi", fi)):
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            raise NonFinite(f"{name} is {col.flat[bad[0]]} at t = {t.flat[bad[0]]:g}")
    bad = np.flatnonzero(fi > qfi + 1e-9)
    if bad.size:
        k = bad[0]
        raise ResolutionLimit(
            f"measurement FI {fi.flat[k]} exceeds QFI {qfi.flat[k]} at t = {t.flat[k]}"
        )
    columns = {
        "t": t, "qfi": qfi, "cfi": fi, "qsnr": qsnr(temperature, qfi),
        "qfi_per_t": np.divide(qfi, t, out=np.zeros_like(qfi), where=t > 0),
        "coherence_abs": _coherence(rho),
    }
    return {name: np.asarray(col).tolist() for name, col in columns.items()}


def _qubit_record(t, rho, drho, temperature):
    """Probe-qubit record at time ``t`` (state, derivative) or on a grid
    (stacks), measured by sigma_x."""
    fi = measurement_fi(pauli("x"), rho, drho)
    return _records(t, qubit_qfi(rho, drho), fi, rho, temperature)


def _tq_probs(m: np.ndarray) -> np.ndarray:
    """``Re <b_k| m |b_k>`` for the four ``_TQ_BASIS`` vectors, per matrix."""
    bras = _TQ_BASIS.T.conj()[:, None, :]
    kets = _TQ_BASIS.T[:, :, None]
    return (bras @ m[..., None, :, :] @ kets)[..., 0, 0].real


def _two_qubit_record(t, rho, drho, temperature):
    """Two-qubit record, or records on a grid, measured in ``_TQ_BASIS``; a
    basis population below -1e-12 is a :class:`ResolutionLimit` at its ``t``.

    The QFI is :func:`~qthermo.fisher.sector_qfi`'s: every preparation
    ``cos(theta/2)|01> + sin(theta/2)|10>`` has one excitation, and H (the
    qubits' ``sz`` terms and the exchange coupling) and every coupling
    (``sz`` of a qubit, or a sum of them) commute with the excitation
    number, so every jump operator and the generator keep the state and
    its temperature derivative on span{|01>, |10>}."""
    probs = _tq_probs(rho)
    low = np.ravel(probs.min(axis=-1))
    bad = np.flatnonzero(low < -1e-12)
    if bad.size:
        raise ResolutionLimit(f"basis population {low[bad[0]]} below 0 at t = {np.ravel(t)[bad[0]]}")
    fi = cfi_povm(probs, _tq_probs(drho))
    return _records(t, sector_qfi(rho, drho), fi, rho, temperature)


def _law_record(vecs, p, dlog, rho, temperature):
    """Two-qubit steady record from the rate law's populations ``p`` on the
    eigenvectors ``vecs`` and their ``d log p / dT``, measured in
    ``_TQ_BASIS`` (an eigenbasis of H): ``QFI = sum p (d log p)^2``, never
    ``sum dp^2 / p``, whose ``dp^2`` underflows for a minority level."""
    overlap = np.abs(dag(_TQ_BASIS) @ vecs) ** 2
    # a basis vector that is an eigenvector to rounding reads its population exactly
    overlap[overlap < 1e-12] = 0.0
    overlap[overlap > 1.0 - 1e-12] = 1.0
    dp = p * dlog
    qfi = float(np.cumsum(overlap @ (dp * dlog))[-1])
    return _records(np.inf, qfi, cfi_povm(overlap @ p, overlap @ dp), rho, temperature)


def _refine_max(times, values, fn) -> OptSearchResult:
    """Maximum of ``fn`` between the grid points either side of the largest of
    ``values`` on ``times``: the best of its fit's derivative roots and piece
    ends, where ``fn`` itself is then evaluated once."""
    i = int(np.argmax(values))
    if i == 0 or i == len(times) - 1:
        raise NoConvergence(f"maximum at grid edge {times[i]}; extend the grid to bracket it")
    lo, hi = float(times[i - 1]), float(times[i + 1])
    pieces, best = _fit(fn, lo, hi, float(np.max(np.abs(values)))), -np.inf
    for a, b, c, _ in pieces:
        s = np.r_[-1.0, 1.0, np.clip(C.chebroots(C.chebtrim(C.chebder(c))).real, -1.0, 1.0)]
        v = C.chebval(s, c)
        if v.max() > best:
            best, x = v.max(), float(0.5 * (a + b) + 0.5 * (b - a) * s[np.argmax(v)])
    return OptSearchResult(
        argmax=x, value=float(np.asarray(fn(np.array([x])))[0]), bracket=(lo, hi),
        bracket_values=(float(values[i - 1]), float(values[i + 1])),
        tolerance=float(max(piece[3] for piece in pieces)),
    )


def _first_root(fn, lo: float, hi: float, target: float, scale: float) -> float:
    """First root of ``fn - target`` on ``[lo, hi]``, from the fit of ``fn``."""
    for a, b, c, _ in _fit(fn, lo, hi, scale):
        s = C.chebroots(C.chebtrim(C.chebsub(c, target)))
        s = s.real[(s.imag == 0) & (np.abs(s.real) <= 1.0)]
        if s.size:
            return float(0.5 * (a + b) + 0.5 * (b - a) * s.min())
    raise NoConvergence(f"the fit of [{lo}, {hi}] does not reach {target}")


_RECORD_COLUMNS = ("qfi", "cfi", "qsnr", "qfi_per_t", "coherence_abs")


def _grid_table(axis: str, labels, grids) -> dict[str, list]:
    """Columns ``axis, t`` and the record columns of the grids' records,
    block after block, each block's sweep label repeated in column ``axis``."""
    blocks = ([label] * len(recs["t"]) for label, recs in zip(labels, grids))
    table = {axis: list(chain.from_iterable(blocks))}
    for name in ("t", *_RECORD_COLUMNS):
        table[name] = list(chain.from_iterable(recs[name] for recs in grids))
    return table


def run_theta_scan(
    theta_list=DEFAULT_THETAS,
    *,
    temperature: float = 0.4,
    kappa: float = 0.8,
    eta: float = 0.01,
    cutoff: float = 10.0,
    t_max: float = 50.0,
    n_points: int = 500,
    workers: int | None = None,
) -> ScanResult:
    """Reduced-probe QFI(t) for a list of ancilla preparation angles."""
    times = np.linspace(0.0, t_max, n_points)
    thetas = list(map(float, theta_list))
    fam = _family("probe_ancilla", temperature, kappa=kappa, eta=eta, cutoff=cutoff)
    grids = parallel_map(lambda f: f.records(times), [fam.prepared(theta) for theta in thetas], workers)
    peaks = {}  # a repeated angle keeps its larger peak
    for theta, recs in zip(thetas, grids):
        peaks[theta] = max([peaks.get(theta, 0.0), *recs["qfi"]])
    data = _grid_table("theta", thetas, grids)
    return ScanResult("theta_scan", data, {"peak_qfi_by_theta": peaks})


def run_direct_vs_ancilla(
    *,
    temperature: float = 0.4,
    kappa: float = 0.8,
    eta: float = 0.01,
    cutoff: float = 10.0,
    theta: float = np.pi / 2,
    t_max: float = 50.0,
    n_points: int = 500,
    workers: int | None = None,
) -> ScanResult:
    """QFI(t) of the bare dephasing probe against the ancilla-shielded one,
    and the crossover: the first time after 0 from which the ancilla's QFI
    stays strictly above the direct probe's to the end of the grid."""
    times = np.linspace(0.0, t_max, n_points)
    scheme_models = {"direct": "direct", "ancilla": "probe_ancilla"}

    def one(scheme):
        fam = _family(
            scheme_models[scheme], temperature, kappa=kappa, eta=eta, cutoff=cutoff, theta=theta
        )
        return fam.records(times)

    grids = parallel_map(one, scheme_models, workers)
    direct, ancilla = (np.array(recs["qfi"]) for recs in grids)
    # the crossover follows the last point after t = 0 where the ancilla is not above
    below = np.flatnonzero(~(ancilla[1:] > direct[1:]))
    i = 2 + int(below[-1]) if below.size else 1
    results = {
        "crossover_time": grids[1]["t"][i] if i < len(times) else None,
        "peak_qfi": {scheme: max(recs["qfi"]) for scheme, recs in zip(scheme_models, grids)},
    }
    data = _grid_table("scheme", scheme_models, grids)
    return ScanResult("direct_vs_ancilla", data, results)


def _coupling_optimum(kappa, temperature, eta, cutoff, theta, times):
    """Probe+ancilla family at one coupling, its records on ``times`` and
    the located maximum of QSNR(t); the search evaluates the QSNR alone."""
    fam = _family("probe_ancilla", temperature, kappa=kappa, eta=eta, cutoff=cutoff, theta=theta)
    recs = fam.records(times)
    opt = _refine_max(
        times, recs["qsnr"], lambda t: qsnr(fam.temperature, qubit_qfi(*fam.state_and_derivative(t)))
    )
    return fam, recs, opt


def run_kappa_sweep(
    kappa_list=DEFAULT_KAPPAS,
    *,
    temperature: float = 0.4,
    eta: float = 0.01,
    cutoff: float = 10.0,
    theta: float = np.pi / 2,
    t_max: float = 120.0,
    n_points: int = 600,
    workers: int | None = None,
) -> ScanResult:
    """QFI(t), QFI/t and the located QSNR optimum for each coupling."""
    times = np.linspace(0.0, t_max, n_points)
    kappas = list(map(float, kappa_list))
    sweep = parallel_map(
        lambda kappa: _coupling_optimum(kappa, temperature, eta, cutoff, theta, times),
        kappas, workers,
    )
    optima = [
        {"kappa": kappa, "t_opt": opt.argmax, "qsnr_opt": opt.value}
        for kappa, (_, _, opt) in zip(kappas, sweep)
    ]
    data = _grid_table("kappa", kappas, [recs for _, recs, _ in sweep])
    return ScanResult("kappa_sweep", data, {"optima": optima})


def run_coherence_parametric(
    kappa_list=DEFAULT_PARAMETRIC_KAPPAS,
    *,
    temperature: float = 0.4,
    eta: float = 0.1,
    cutoff: float = 10.0,
    theta: float = np.pi / 2,
    t_max: float = 50.0,
    n_points: int = 500,
    workers: int | None = None,
) -> ScanResult:
    """Parametric curve (max coherence generated, optimal QSNR) over coupling."""
    times = np.linspace(0.0, t_max, n_points)

    def one(kappa):
        fam, recs, opt_r = _coupling_optimum(kappa, temperature, eta, cutoff, theta, times)
        opt_c = _refine_max(
            times, recs["coherence_abs"], lambda t: _coherence(fam.state_and_derivative(t)[0])
        )
        return float(kappa), opt_c.value, opt_c.argmax, opt_r.value, opt_r.argmax

    columns = ("kappa", "max_coherence", "t_max_coherence", "qsnr_opt", "t_opt")
    points = parallel_map(one, kappa_list, workers)
    data = {name: [p[k] for p in points] for k, name in enumerate(columns)}
    parametric = [dict(zip(columns, p)) for p in points]
    return ScanResult("coherence_parametric", data, {"parametric": parametric})


TWO_QUBIT_CONFIGS = ("local_separable", "local_entangled", "common_separable", "common_entangled")
#: First nonzero time of the two-qubit grid.
_FIRST_LOG_TIME = 0.01


def run_two_qubit_configs(
    *,
    temperature: float = 0.4,
    kappa: float = 0.6,
    eta1: float = 0.01,
    eta2: float = 0.05,
    cutoff: float = 10.0,
    t_max: float = 2000.0,
    n_points: int = 240,
    workers: int | None = None,
) -> ScanResult:
    """Full-state QFI(t) of the four bath/preparation configurations on a
    shared grid extending to the steady state: t = 0, then ``n_points - 1``
    log-spaced times from 0.01 to ``t_max``.

    The per-configuration time to reach 99% of the steady QFI is the first
    root of ``QFI - target`` of a Chebyshev fit between the grid points that
    bracket it, reported in ``results["t_99"]``; steady values (the QFI at
    ``t_max``) are in ``results["steady_qfi"]``.
    """
    if n_points < 3:
        raise ValidationError("n_points", f"must be >= 3 (t = 0, 0.01 and t_max), got {n_points}")
    if t_max <= _FIRST_LOG_TIME:
        raise ValidationError("t_max", f"must exceed {_FIRST_LOG_TIME}, the grid's first time after 0")
    times = np.concatenate([[0.0], np.geomspace(_FIRST_LOG_TIME, t_max, n_points - 1)])

    baths = {
        bath: _family(f"two_qubit_{bath}", temperature, kappa=kappa, eta=eta1, eta2=eta2, cutoff=cutoff)
        for bath in ("local", "common")
    }

    def t_99(fam, recs):
        target = 0.99 * recs["qfi"][-1]
        i = int(np.nonzero(np.array(recs["qfi"]) >= target)[0][0])
        if i == 0:
            return 0.0
        return _first_root(
            lambda t: sector_qfi(*fam.state_and_derivative(t)),
            float(times[i - 1]), float(times[i]), target, float(np.max(np.abs(recs["qfi"]))),
        )

    families = [
        baths[config.split("_")[0]].prepared(0.0 if config.endswith("separable") else np.pi / 2)
        for config in TWO_QUBIT_CONFIGS
    ]

    def one_bath(pair):
        # both preparations read the grid's exp(lam t) before a fit's nodes
        # take the slot they share
        recs = [fam.records(times) for fam in pair]
        return recs, [t_99(fam, r) for fam, r in zip(pair, recs)]

    per_bath = parallel_map(one_bath, [families[:2], families[2:]], workers)
    grids = list(chain.from_iterable(recs for recs, _ in per_bath))
    t99 = list(chain.from_iterable(fits for _, fits in per_bath))
    results = {
        "steady_qfi": {c: recs["qfi"][-1] for c, recs in zip(TWO_QUBIT_CONFIGS, grids)},
        "t_99": dict(zip(TWO_QUBIT_CONFIGS, t99)),
    }
    data = _grid_table("config", TWO_QUBIT_CONFIGS, grids)
    return ScanResult("two_qubit_configs", data, results)


def run_steady_qsnr_curve(
    *,
    ratio_min: float = 0.05,
    ratio_max: float = 5.0,
    ratio_points: int = 200,
    n_line: int = 50,
    line_t_min: float = 0.05,
    line_t_max: float = 2.0,
) -> ScanResult:
    """Steady QSNR on ``ratio_points`` values of x = kappa/T from
    ``ratio_min`` to ``ratio_max``, its maximum, and the line of (T, kappa)
    pairs realizing the optimal ratio."""
    if ratio_max <= ratio_min:
        raise ValidationError("ratio_max", f"must exceed ratio_min = {ratio_min}, got {ratio_max}")
    ratio_grid = np.linspace(ratio_min, ratio_max, ratio_points)
    values = steady_qsnr(ratio_grid)
    opt = _refine_max(ratio_grid, values, steady_qsnr)
    x_star, qsnr_star = optimal_ratio()
    results = {
        "located_max": {"ratio": opt.argmax, "qsnr": opt.value},
        "root_condition": {"ratio": x_star, "qsnr": qsnr_star},
    }
    line = np.linspace(line_t_min, line_t_max, n_line)
    curve, blank = ["curve"] * len(ratio_grid), [""] * len(ratio_grid)
    data = {
        "section": curve + ["optimal_line"] * n_line,
        "ratio": ratio_grid.tolist() + [x_star] * n_line,
        "temperature": blank + line.tolist(),
        "kappa": blank + (x_star * line).tolist(),
        "qsnr": values.tolist() + [qsnr_star] * n_line,
    }
    return ScanResult("steady_qsnr", data, results)


def run_evolve(
    model: str = "probe_ancilla",
    *,
    temperature: float = 0.4,
    eta: float = 0.01,
    eta2: float | None = None,
    cutoff: float = 10.0,
    kappa: float = 0.8,
    theta: float = np.pi / 2,
    t_max: float = 50.0,
    n_points: int = 500,
) -> ScanResult:
    """Record populations, coherence and purity on the uniform grid
    ``linspace(0, t_max, n_points)``."""
    fam = _family(model, temperature, eta=eta, eta2=eta2, cutoff=cutoff, kappa=kappa, theta=theta)
    times = np.linspace(0.0, t_max, n_points)
    states, _ = fam._evolution(times)
    populations = ("p0", "p1") if states.shape[-1] == 2 else ("p00", "p01", "p10", "p11")
    data = {
        "t": times.tolist(),
        **dict(zip(populations, states.diagonal(0, -2, -1).real.T.tolist())),
        "coherence_abs": _coherence(states).tolist(),
        "purity": np.trace(states @ states, axis1=-2, axis2=-1).real.tolist(),
    }
    final_row = {name: col[-1] for name, col in data.items()}
    return ScanResult("evolve", data, {"final_row": final_row})


def run_qfi_point(
    model: str = "probe_ancilla",
    *,
    at: float | str = "steady",
    temperature: float = 0.4,
    eta: float = 0.01,
    eta2: float | None = None,
    cutoff: float = 10.0,
    kappa: float = 0.8,
    theta: float = np.pi / 2,
) -> ScanResult:
    """Single-point estimate: QFI, measurement FI and QSNR at a time or at
    the steady state."""
    fam = _family(model, temperature, eta=eta, eta2=eta2, cutoff=cutoff, kappa=kappa, theta=theta)
    t = np.inf if at == "steady" else float(at)
    if t == np.inf and not fam.channels.rates.any():
        raise ValidationError("eta", "at=steady needs a bath: with every rate zero no state is stationary")
    rec = fam.records(t)
    record = {"at": "steady" if t == np.inf else t, **{name: rec[name] for name in _RECORD_COLUMNS}}
    data = {name: [value] for name, value in record.items()}
    return ScanResult("qfi_point", data, {"record": record})


EXPERIMENTS: dict[str, ExperimentSpec] = {
    "theta_scan": ExperimentSpec(run_theta_scan, ("t", "qfi", "theta")),
    "direct_vs_ancilla": ExperimentSpec(run_direct_vs_ancilla, ("t", "qfi", "scheme")),
    "kappa_sweep": ExperimentSpec(run_kappa_sweep, ("t", "qfi", "kappa")),
    "coherence_parametric": ExperimentSpec(run_coherence_parametric, ("max_coherence", "qsnr_opt", None)),
    "two_qubit_configs": ExperimentSpec(run_two_qubit_configs, ("t", "qfi", "config")),
    "steady_qsnr": ExperimentSpec(run_steady_qsnr_curve, ("ratio", "qsnr", None)),
    "evolve": ExperimentSpec(run_evolve, ("t", "coherence_abs", None)),
    "qfi_point": ExperimentSpec(run_qfi_point),
}
