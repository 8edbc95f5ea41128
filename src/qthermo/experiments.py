"""Scripted scan runners producing the package's standard data products.

Each runner returns a :class:`ScanResult`: its table, held as columns (one
list of values per column name, in a fixed column order, ready for CSV
serialization), and its headline results (the summary's payload), built
from the grids, optima and records the runner holds; a run's parameters
are its resolved config, the runner's keywords.  :data:`EXPERIMENTS` holds
one :class:`ExperimentSpec` per CLI experiment: the runner itself, whose
signature declares the experiment's config keys and their defaults, and
its plot.  Runs are deterministic: there is no randomness anywhere, and a
sweep's points are split into at most ``workers`` contiguous chunks, pool
jobs whose order does not change the assembled output.

A chunk is one :class:`TemperatureFamily` of all its points' models, its
items (``theta_scan``'s chunks read items of one family, decomposed before
they start): per distinct generator (models that differ only in ``theta``
share one) its channels and, once a finite time asks for them, one
Liouvillian with its closed-form ``dL/dT`` and one decomposition.  The
family takes the states and their exact temperature derivatives from them
in ``(item, t)`` stacks of up to ``STACK_STATES``, and computes records on
stacks; steady states come from the population rate law of the channels.
No experiment takes a finite difference: closed forms and the central
differences of ``tests/reference.py`` are test oracles.

Located optima and ``t_99`` come from piecewise Chebyshev fits of the
searched functions on their grid brackets: each level of every search of a
chunk is one stacked call, and a piece is halved until its trailing
coefficients fall to ``FIT_TOL`` of the grid's largest value.  An optimum is
the best derivative root or piece end of its fit, ``t_99`` the fit's first
crossing of its target: the roots of every piece take one stacked solve per
call, and the optima's function values one more call for every search.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from numpy.polynomial import chebyshev as C

from .closed_forms import optimal_ratio, steady_qsnr
from .errors import BadDimension, NoConvergence, NonFinite, NonPositiveInput, ResolutionLimit, ValidationError
from .fisher import _doublet_populations, _sector_qfi, cfi_povm, measurement_fi, qsnr, qubit_qfi
from .linalg import dag, partial_trace, pauli
from .master_equation import assemble_liouvillian, jump_channels
from .models import (BathSpec, CommonBath, DirectProbeModel, LocalBaths, TwoQubitModel, coupling_operators,
                     generator_key, initial_state)
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
_TQ_BASIS = (np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]])
             / np.sqrt([[1.0], [2.0], [2.0], [1.0]])).astype(complex).T


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


def _sweep(job, points, workers: int | None) -> list:
    """``job(chunk)`` (a result per point) over at most ``workers`` chunks of
    ``points``; a chunk that fails reruns point by point: the first's error."""
    points = list(points)
    n = min(max(1, worker_count() if workers is None else workers), len(points))

    def run(chunk):
        try:
            return job(chunk)
        except Exception:  # a stack may fail at a later point first
            return [result for point in chunk for result in job([point])]

    chunks = [points[k * len(points) // n:(k + 1) * len(points) // n] for k in range(n)]
    return list(chain.from_iterable(parallel_map(run, chunks, n)))


#: Chebyshev nodes (of the first kind) per piece of a search's fit.
NODES = 16
#: A piece is resolved once its two trailing coefficients are at most FIT_TOL x scale.
FIT_TOL = 1e-7
#: Most pieces a fit may take: a function that needs more raises NoConvergence.
MAX_PIECES = 256

_NODES_S = C.chebpts1(NODES)
#: Values at ``_NODES_S`` times this are the interpolant's Chebyshev coefficients.
_TO_COEFFS = C.chebvander(_NODES_S, NODES - 1) * np.r_[1.0, np.full(NODES - 1, 2.0)] / NODES


def _fit(fn, brackets, scales) -> list[list]:
    """Piecewise Chebyshev interpolants of searches: of ``fn(s, x)`` (arrays
    of searches and points to values) on ``brackets[s] = (lo, hi)``, search
    ``s``'s pieces ``(a, b, c, tail)`` in order, ``c`` the series in ``s =
    (2x - a - b) / (b - a)`` and ``tail`` its larger trailing coefficient
    relative to ``scales[s]``.  Each level reads every open piece at its
    ``NODES`` nodes in one call of ``fn``; a piece is done once its ``tail``
    is at most ``FIT_TOL``, and halved otherwise."""
    for lo, hi in brackets:
        if not hi > lo:
            raise NonPositiveInput(f"fit bracket needs lo < hi, got [{lo}, {hi}]")
    done, todo = [[] for _ in brackets], [(s, float(lo), float(hi)) for s, (lo, hi) in enumerate(brackets)]
    while todo:
        owner = np.array([piece[0] for piece in todo])
        for s in np.flatnonzero(np.bincount(owner, minlength=len(done)) + [len(d) for d in done] > MAX_PIECES)[:1]:
            raise NoConvergence(
                f"no fit of {MAX_PIECES} pieces of {NODES} nodes resolves [{brackets[s][0]}, {brackets[s][1]}] "
                f"to {FIT_TOL} of {scales[s]}"
            )
        ends = np.array([piece[1:] for piece in todo])
        x = ends.mean(axis=1, keepdims=True) + 0.5 * np.diff(ends, axis=1) * _NODES_S
        values = np.asarray(fn(np.repeat(owner, NODES), x.ravel()), dtype=float).reshape(x.shape)
        # each search's own product: a one-piece level has the bits of a lone search
        coeffs = np.concatenate([values[owner == s] @ _TO_COEFFS for s in np.unique(owner)])
        tails = np.abs(coeffs[:, -2:]).max(axis=1) / np.take(scales, owner)
        for (s, a, b), c, tail in zip(todo, coeffs, tails):
            done[s] += [(a, b, c, tail)] if tail <= FIT_TOL else []
        todo = [half for (s, a, b), tail in zip(todo, tails) if not tail <= FIT_TOL
                for half in ((s, a, 0.5 * (a + b)), (s, 0.5 * (a + b), b))]
    return [sorted(pieces, key=lambda piece: piece[0]) for pieces in done]


MODEL_NAMES = ("direct", "probe_ancilla", "two_qubit_local", "two_qubit_common")
#: Most states in one grid stack: a bigger one leaves the caches and raises the peak memory.
STACK_STATES = 1200


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
    if name == "probe_ancilla":  # an uncoupled probe: only the ancilla dephases
        cfg = LocalBaths(BathSpec(eta=0.0, cutoff=cutoff, temperature=temperature), bath)
    elif name == "two_qubit_local":
        cfg = LocalBaths(bath, BathSpec(eta=eta2, cutoff=cutoff, temperature=temperature))
    else:
        cfg = CommonBath(eta1=eta, eta2=eta2, cutoff=cutoff, temperature=temperature)
    return TwoQubitModel(kappa=kappa, bath_config=cfg, theta=theta, ancilla=name == "probe_ancilla")


class TemperatureFamily:
    """Probe states of a stack of models, its items, as functions of t, and
    their exact derivatives in the temperature of the first model's first
    coupled bath (the first of ``coupling_operators``).  Models that differ
    only in their preparation share one generator: its channels and, once a
    finite time asks for them, its Liouvillian and one decomposition, each
    built on first use.  The steady state (``t = inf``) comes from the
    population rate law (``dynamics.rate_law``) alone.  The probe of a model
    with the ``ancilla`` preparation is its first qubit, others are whole."""

    def __init__(self, *models):
        # local baths at two temperatures (library only, it warns) get the
        # derivative of a joint shift of both, as every channel's d_rates enters it
        self.temperature = float(coupling_operators(models[0])[0][1].temperature)
        self.models, self.rho0 = models, np.array([initial_state(m) for m in models])
        self._has_ancilla = getattr(models[0], "ancilla", False)
        keys = [generator_key(m) for m in models]
        distinct = list(dict.fromkeys(keys))
        self._generator, self._laws = [distinct.index(key) for key in keys], {}
        self._sources = [models[keys.index(key)] for key in distinct]

    @cached_property
    def channels(self) -> list:
        return [jump_channels(model) for model in self._sources]

    @cached_property
    def liouvillians(self) -> list:
        return [assemble_liouvillian(channels) for channels in self.channels]

    @cached_property
    def _evolution(self) -> _Evolution:
        return _Evolution(self.liouvillians, self.rho0, self._generator)

    def _steady(self, item):
        """``(p, d log p/dT, kept coherences, rho, drho)`` of the item's rate law."""
        if item not in self._laws:
            law = rate_law(channels := self.channels[self._generator[item]], self.rho0[item], self.temperature)
            self._laws[item] = (*law, *law_states(channels.vecs, *law))
        return self._laws[item]

    def _project(self, rho):
        return partial_trace(rho, keep=1) if self._has_ancilla else rho

    def state_and_derivative(self, t, item=0) -> tuple[np.ndarray, np.ndarray]:
        """States and temperature derivatives at the pairs ``(item, t)``
        broadcast together: matrices at one, ``(n_t, d, d)`` stacks of one
        item on a grid ``t`` (where ``t = inf`` is its steady state), and
        ``(k, n_t, d, d)`` of a column of ``k`` items on a finite grid."""
        times = np.asarray(t, dtype=float)
        steady = times == np.inf
        if not steady.any():
            rho, drho = self._evolution(times, item)
        else:
            rho, drho = np.empty((2, *times.shape, *self.rho0.shape[1:]), dtype=complex)
            if not steady.all():
                rho[~steady], drho[~steady] = self._evolution(times[~steady], item)
            rho[steady], drho[steady] = self._steady(int(item))[3:]
        return self._project(rho), self._project(drho)

    def records(self, t, item=0) -> dict:
        """The records at the pairs ``(item, t)`` of :meth:`state_and_derivative`
        (floats at one, nested lists on a stack): a qubit probe's, or a two-qubit
        probe's, read at a steady state without coherences from its populations."""
        rho, drho = self.state_and_derivative(t, item)
        if rho.shape[-1] == 2:
            return _qubit_record(t, rho, drho, self.temperature)
        if rho.ndim == 2 and t == np.inf and not (law := self._steady(int(item)))[2].any():
            return _law_record(self.channels[self._generator[int(item)]].vecs, *law[:2], rho, self.temperature)
        return _two_qubit_record(t, rho, drho, self.temperature)

    def grids(self, times, items=None) -> list[dict]:
        """Records on ``times`` of each of ``items`` (all by default), in stacks of at most ``STACK_STATES``."""
        items = np.arange(len(self.models)) if items is None else np.asarray(items)
        step, out = max(1, STACK_STATES // len(times)), []
        for first in range(0, len(items), step):
            records = self.records(times, items[first:first + step, None])
            out += [dict(zip(records, values)) for values in zip(*records.values())]
        return out


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
    t = t if t.shape == qfi.shape else np.broadcast_to(t, qfi.shape)  # one grid for a column of items
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


def _two_qubit_record(t, rho, drho, temperature):
    """Two-qubit record, or records on a grid, measured in ``_TQ_BASIS``; a
    basis population below -1e-12 is a :class:`ResolutionLimit` at its ``t``.

    The QFI is :func:`~qthermo.fisher.sector_qfi`'s: every preparation
    ``cos(theta/2)|01> + sin(theta/2)|10>`` has one excitation, and H (the
    qubits' ``sz`` terms and the exchange coupling) and every coupling
    (``sz`` of a qubit, or a sum of them) commute with the excitation
    number, so every jump operator and the generator keep the state and
    its temperature derivative on span{|01>, |10>}."""
    probs = _doublet_populations(rho)
    low = np.ravel(probs.min(axis=-1))
    bad = np.flatnonzero(low < -1e-12)
    if bad.size:
        t = np.ravel(np.broadcast_to(t, probs.shape[:-1]))[bad[0]]
        raise ResolutionLimit(f"basis population {low[bad[0]]} below 0 at t = {t}")
    fi = cfi_povm(probs, _doublet_populations(drho))
    return _records(t, _sector_qfi(rho, drho), fi, rho, temperature)


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


def _roots(series: np.ndarray) -> np.ndarray:
    """Roots of the Chebyshev series in the rows of ``series``, each row's with the bits and order of
    ``C.chebroots(C.chebtrim(row))``, then NaN: the rotated companion matrices, built per trimmed
    length and zero-padded to one size (LAPACK isolates the padding), take one ``eigvals`` call."""
    deg = ((series != 0.0) * np.arange(series.shape[1])).max(axis=1, initial=0)
    stack = np.zeros((len(series), series.shape[1] - 1, series.shape[1] - 1))
    for n in np.unique(deg[deg > 1]):  # C.chebcompanion of each row of degree n
        c, i, scl = series[deg == n, :n + 1], np.arange(n - 1), np.r_[1.0, np.full(n - 1, np.sqrt(0.5))]
        mat = np.zeros((len(c), n, n))
        mat[:, i, i + 1] = mat[:, i + 1, i] = np.r_[np.sqrt(0.5), np.full(n - 2, 0.5)]
        mat[:, :, -1] -= (c[:, :-1] / c[:, -1:]) * (scl / scl[-1]) * 0.5
        stack[deg == n, :n, :n] = mat[:, ::-1, ::-1]
    roots = np.linalg.eigvals(stack).astype(complex)
    roots[deg == 1, :1] = -series[deg == 1, :1] / series[deg == 1, 1:2]
    return np.sort(np.where(np.arange(stack.shape[-1]) < deg[:, None], roots, np.nan), axis=-1)


def _stacked(fits):
    """Ends ``a``, ``b`` and series of every piece of ``fits``, and each fit's first piece (then the end)."""
    pieces = [piece for pieces in fits for piece in pieces]
    a, b = np.array([piece[:2] for piece in pieces]).reshape(-1, 2).T
    return a, b, np.array([piece[2] for piece in pieces]).reshape(-1, NODES), np.cumsum([0, *map(len, fits)])


def _refine_maxima(times, values, fn) -> list[OptSearchResult]:
    """Maximum of each search ``s`` of ``fn(s, x)`` between the grid points
    either side of the largest of ``values[s]`` on ``times``: the best of its
    fit's derivative roots and piece ends, where ``fn`` is then evaluated,
    for every search in one call; every piece's derivative roots take one stacked solve."""
    peaks = (values := np.asarray(values, dtype=float)).argmax(axis=1)
    for i in peaks:
        if i == 0 or i == len(times) - 1:
            raise NoConvergence(f"maximum at grid edge {times[i]}; extend the grid to bracket it")
    brackets = [(float(times[i - 1]), float(times[i + 1])) for i in peaks]
    fits = _fit(fn, brackets, np.abs(values).max(axis=1).tolist())
    a, b, coeffs, first = _stacked(fits)
    # candidates -1, 1 and the clipped derivative roots, NaN padding set to -1 (never the first maximum)
    s = np.clip(_roots(C.chebder(coeffs, axis=1)).real, -1.0, 1.0)
    s = np.concatenate([np.tile([-1.0, 1.0], (len(s), 1)), np.where(np.isnan(s), -1.0, s)], axis=1)
    v = C.chebval(s, coeffs.T[..., None], tensor=False)
    piece, top = np.arange(len(v)), v.argmax(axis=1)
    x, v = 0.5 * (a + b) + 0.5 * (b - a) * s[piece, top], v[piece, top]
    best = [float(x[i + np.argmax(v[i:j])]) for i, j in zip(first[:-1], first[1:])]  # a search's first best piece
    found = np.asarray(fn(np.arange(len(best)), np.array(best)), dtype=float)
    return [
        OptSearchResult(x, float(value), bracket, (float(v[i - 1]), float(v[i + 1])), float(max(p[3] for p in pieces)))
        for x, value, bracket, v, i, pieces in zip(best, found, brackets, values, peaks, fits)
    ]


def _refine_max(times, values, fn) -> OptSearchResult:
    """The one search of :func:`_refine_maxima` of ``fn(x)``."""
    return _refine_maxima(times, [values], lambda s, x: fn(x))[0]


def _first_roots(fits, brackets, targets) -> list[float]:
    """First root of ``fit - target`` of each fit of ``[lo, hi]``, every piece's roots in one stacked solve."""
    a, b, coeffs, first = _stacked(fits)
    coeffs[:, 0] -= np.repeat(targets, np.diff(first))  # C.chebsub(c, target)
    s = _roots(coeffs)
    real = (s.imag == 0) & (np.abs(s.real) <= 1.0)
    x = 0.5 * (a + b) + 0.5 * (b - a) * np.where(real, s.real, np.inf).min(axis=1, initial=np.inf)
    for (lo, hi), target, i, j in zip(brackets, targets, first[:-1], first[1:]):
        if np.isinf(x[i:j]).all():  # no piece has a root
            raise NoConvergence(f"the fit of [{lo}, {hi}] does not reach {target}")
    return [float(x[i:j][np.isfinite(x[i:j])][0]) for i, j in zip(first[:-1], first[1:])]


def _first_root(pieces, lo: float, hi: float, target: float) -> float:
    """The one fit of :func:`_first_roots`."""
    return _first_roots([pieces], [(lo, hi)], [target])[0]


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
    if not thetas:
        raise NonPositiveInput("theta_scan needs at least one angle")
    fam = TemperatureFamily(*(make_model("probe_ancilla", temperature=temperature, eta=eta, cutoff=cutoff,
                                         kappa=kappa, theta=theta) for theta in thetas))
    fam._evolution  # the angles' one generator, decomposed once for every chunk
    grids = _sweep(lambda part: fam.grids(times, part), range(len(thetas)), workers)
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


def _coupling_optima(kappas, temperature, eta, cutoff, theta, times, columns) -> list[tuple]:
    """Per coupling, its probe+ancilla records on ``times`` and maxima of ``columns``."""
    fam = TemperatureFamily(*(make_model("probe_ancilla", temperature=temperature, eta=eta, cutoff=cutoff,
                                         kappa=kappa, theta=theta) for kappa in kappas))
    grids, m, snr_column = fam.grids(times), len(columns), np.array(columns) == "qsnr"

    def searched(s, t):  # search s reads the column s % m of the item s // m
        rho, drho = fam.state_and_derivative(t, s // m)
        out, snr = np.empty(len(s)), snr_column[s % m]
        out[snr] = qsnr(fam.temperature, qubit_qfi(rho[snr], drho[snr]))
        out[~snr] = _coherence(rho[~snr])
        return out

    optima = _refine_maxima(times, [recs[name] for recs in grids for name in columns], searched)
    return [(recs, *optima[m * k:m * (k + 1)]) for k, recs in enumerate(grids)]


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
    sweep = _sweep(lambda part: _coupling_optima(part, temperature, eta, cutoff, theta, times, ("qsnr",)),
                   kappas, workers)
    optima = [{"kappa": kappa, "t_opt": opt.argmax, "qsnr_opt": opt.value} for kappa, (_, opt) in zip(kappas, sweep)]
    data = _grid_table("kappa", kappas, [recs for recs, _ in sweep])
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
    kappas = list(map(float, kappa_list))
    sweep = _sweep(
        lambda part: _coupling_optima(part, temperature, eta, cutoff, theta, times, ("qsnr", "coherence_abs")),
        kappas, workers,
    )
    columns = ("kappa", "max_coherence", "t_max_coherence", "qsnr_opt", "t_opt")
    points = [(kappa, c.value, c.argmax, r.value, r.argmax) for kappa, (_, r, c) in zip(kappas, sweep)]
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

    def chunk(part):
        fam = TemperatureFamily(*(make_model(
            f"two_qubit_{config.split('_')[0]}", temperature=temperature, kappa=kappa, eta=eta1, eta2=eta2,
            cutoff=cutoff, theta=0.0 if config.endswith("separable") else np.pi / 2) for config in part))
        grids = fam.grids(times)
        targets = [0.99 * recs["qfi"][-1] for recs in grids]
        first = [int(np.nonzero(np.array(recs["qfi"]) >= target)[0][0]) for recs, target in zip(grids, targets)]
        # a configuration at its target from t = 0 takes no search
        items, t99 = np.flatnonzero(first), np.zeros(len(part))
        brackets = [(float(times[first[k] - 1]), float(times[first[k]])) for k in items]
        fits = _fit(lambda s, t: _sector_qfi(*fam.state_and_derivative(t, items[s])), brackets,
                    [float(np.max(np.abs(grids[k]["qfi"]))) for k in items])
        t99[items] = _first_roots(fits, brackets, [targets[k] for k in items])
        return list(zip(grids, t99.tolist()))

    grids, t99 = zip(*_sweep(chunk, TWO_QUBIT_CONFIGS, workers))
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
    states, _ = fam._evolution(times, 0)
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
    if t == np.inf and not fam.channels[0].rates.any():
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
