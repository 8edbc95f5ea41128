"""Property tests over the parameter ranges the config accepts."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from numpy.polynomial import chebyshev as C  # noqa: E402
from unittest import mock  # noqa: E402

from conftest import reference_csv  # noqa: E402
from qthermo.cli import write_csv  # noqa: E402
from qthermo.dynamics import propagate  # noqa: E402
from qthermo.errors import NoConvergence  # noqa: E402
from qthermo import experiments  # noqa: E402
from qthermo.experiments import TemperatureFamily, make_model  # noqa: E402
from qthermo.linalg import expm, unvec, validate_density_matrix, vec  # noqa: E402
from qthermo.master_equation import build_liouvillian  # noqa: E402
from qthermo.models import initial_state  # noqa: E402

MODELS = ("direct", "probe_ancilla", "two_qubit_local", "two_qubit_common")


@settings(max_examples=25, deadline=None)
@given(
    model=st.sampled_from(MODELS),
    temperature=st.floats(0.05, 2.0),
    kappa=st.floats(0.05, 2.0),
    eta=st.floats(0.005, 0.1),
    eta2=st.floats(0.005, 0.1),
    theta=st.floats(0.0, np.pi),
    t_max=st.floats(1.0, 2000.0),
)
def test_spectral_propagation_matches_exponentials(model, temperature, kappa, eta, eta2, theta, t_max):
    m = make_model(
        model, temperature=temperature, eta=eta, eta2=eta2, cutoff=10.0, kappa=kappa, theta=theta
    )
    liou, rho0 = build_liouvillian(m), initial_state(m)
    times = np.concatenate([[0.0], np.geomspace(1e-2, t_max, 11)])
    stack = propagate(m, rho0, times)[0]
    # an exponential per time, independent of the block route behind
    # propagate
    ref = unvec(np.array([expm(liou.superop * t) @ vec(rho0) for t in times]))
    assert np.max(np.abs(stack - ref)) <= 1e-10
    for rho in stack:
        validate_density_matrix(rho, herm_tol=1e-12, trace_tol=1e-10, eig_floor=-1e-8)


@settings(max_examples=30, deadline=None)
@given(
    model=st.sampled_from(MODELS),
    temperature=st.floats(0.05, 2.0),
    kappa=st.floats(0.05, 2.0),
    eta=st.floats(0.005, 0.1),
    eta2=st.floats(0.005, 0.1),
    theta=st.floats(0.0, np.pi),
    times=st.lists(st.floats(0.0, 2000.0), min_size=1, max_size=12),
    steady=st.booleans(),
)
def test_stacked_states_equal_single_states(model, temperature, kappa, eta, eta2, theta, times, steady):
    # a state has the same bits whether it is evaluated alone or in a stack,
    # so a search that evaluates its points in stacks takes the same steps;
    # a grid without t = inf is evaluated whole, t = 0 included
    fam = TemperatureFamily(make_model(
        model, temperature=temperature, eta=eta, eta2=eta2, cutoff=10.0, kappa=kappa, theta=theta
    ))
    ts = np.array([0.0, *times, *[np.inf] * steady])
    try:
        rho, drho = fam.state_and_derivative(ts)
    except NoConvergence:
        hypothesis.reject()  # next to the decoherence-free corner: no resolved steady state
    for k in range(len(ts)):
        one, d_one = fam.state_and_derivative(ts[k])
        assert np.array_equal(rho[k], one) and np.array_equal(drho[k], d_one)


@settings(max_examples=30, deadline=None)
@given(
    model=st.sampled_from(MODELS),
    temperature=st.floats(0.05, 2.0),
    kappas=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3),
    thetas=st.lists(st.floats(0.0, np.pi), min_size=1, max_size=3),
    eta=st.floats(0.005, 0.1),
    eta2=st.floats(0.005, 0.1),
    times=st.lists(st.floats(0.0, 2000.0), min_size=1, max_size=8),
    points=st.lists(st.tuples(st.integers(0, 8), st.floats(0.0, 2000.0)), min_size=1, max_size=12),
)
def test_sweep_items_equal_single_model_families(model, temperature, kappas, thetas, eta, eta2, times, points):
    # every item of a sweep family (kappa x theta, so items share generators
    # where they differ in theta alone) has the bits of its own single-model
    # family: its column of a grid stack, and each (item, t) point of a search
    models = [
        make_model(model, temperature=temperature, eta=eta, eta2=eta2, cutoff=10.0, kappa=kappa, theta=theta)
        for kappa in kappas for theta in thetas
    ]
    fam, singles = TemperatureFamily(*models), [TemperatureFamily(m) for m in models]
    grid = np.array([0.0, *times])
    rho, drho = fam.state_and_derivative(grid, np.arange(len(models))[:, None])
    records = fam.grids(grid)
    for k, single in enumerate(singles):
        one, d_one = single.state_and_derivative(grid)
        assert np.array_equal(rho[k], one) and np.array_equal(drho[k], d_one)
        assert records[k] == single.records(grid)
    items = np.array([i % len(models) for i, _ in points])
    ts = np.array([t for _, t in points])
    rho, drho = fam.state_and_derivative(ts, items)
    for k, (i, t) in enumerate(zip(items, ts)):
        one, d_one = singles[i].state_and_derivative(t)
        assert np.array_equal(rho[k], one) and np.array_equal(drho[k], d_one)


_SPECIAL_FLOATS = (-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 2.2250738585072014e-308)
_FLOATS = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))
_MIXED = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(),
    st.booleans(),
    st.none(),
    st.just(""),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)
# a pool of values per column, spread over the rows by a seeded draw
_COLUMN = st.tuples(
    st.lists(_FLOATS, min_size=1, max_size=8) | st.lists(_MIXED, min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
)


@pytest.mark.parametrize("n_rows", [1, 2, 4095, 4096, 4097, 8193])
@settings(max_examples=8, deadline=None)
@given(pools=st.lists(_COLUMN, min_size=1, max_size=4))
def test_csv_writer_matches_row_wise_reference(n_rows, pools, tmp_path_factory):
    # chunks of 4096 rows: tables end before, on and after a chunk boundary
    columns = tuple(f"c{k}" for k in range(len(pools)))
    data = {
        name: [pool[k] for k in np.random.default_rng(seed).integers(len(pool), size=n_rows)]
        for name, (pool, seed) in zip(columns, pools)
    }
    path = tmp_path_factory.getbasetemp() / "property.csv"
    write_csv(str(path), columns, data)
    rows = [dict(zip(columns, values)) for values in zip(*data.values())]
    assert path.read_bytes() == reference_csv(columns, rows).encode("utf-8")


#: Chebyshev coefficients: exact zeros often (trailing ones are trimmed), else up to 1e3 in modulus
_COEFF = st.floats(-1e3, 1e3).map(lambda x: x if abs(x) > 1e-9 else 0.0)


def _series(n_rows, length):
    """``n_rows`` series of ``length`` coefficients, each ending in 0 to ``length`` exact zeros."""
    row = st.tuples(st.lists(_COEFF, min_size=length, max_size=length), st.integers(0, length))
    return st.lists(row.map(lambda r: r[0][:length - r[1]] + [0.0] * r[1]), min_size=n_rows, max_size=n_rows)


@st.composite
def _series_stacks(draw):
    return np.array(draw(_series(draw(st.integers(1, 6)), draw(st.integers(1, experiments.NODES)))))


def _same(got, want):
    """Equal bits of real and imaginary parts."""
    return got.shape == np.shape(want) and np.array_equal(got.real, np.real(want)) and np.array_equal(
        got.imag, np.imag(want))


@settings(max_examples=200, deadline=None)
@given(series=_series_stacks())
def test_stacked_roots_equal_numpy_per_series(series):
    # each row's roots have the bits and order of C.chebroots(C.chebtrim(row)),
    # series of length 1 to 3, all-zero ones and ones without a real root in
    # [-1, 1] included; the fit's values at the candidate points of the
    # maxima (ends and clipped derivative roots) are C.chebval's, row by row
    roots = experiments._roots(series)
    assert roots.shape == (len(series), series.shape[1] - 1)
    derivative = C.chebder(series, axis=1)
    candidates = np.clip(experiments._roots(derivative).real, -1.0, 1.0)
    candidates = np.concatenate([np.tile([-1.0, 1.0], (len(series), 1)), candidates], axis=1)
    values = C.chebval(candidates, series.T[..., None], tensor=False)
    for row, got, d, s, v in zip(series, roots, derivative, candidates, values):
        want = C.chebroots(C.chebtrim(row))
        assert _same(got[:len(want)], want) and np.isnan(got[len(want):]).all()
        assert np.array_equal(d, C.chebder(row))
        real = ~np.isnan(s)
        assert np.array_equal(v[real], C.chebval(s[real], row))


def _piece_maximum(pieces):
    """The per-piece maximum search that the stacked one replaced."""
    top = -np.inf
    for a, b, c, _ in pieces:
        s = np.r_[-1.0, 1.0, np.clip(C.chebroots(C.chebtrim(C.chebder(c))).real, -1.0, 1.0)]
        v = C.chebval(s, c)
        if v.max() > top:
            top, x = v.max(), float(0.5 * (a + b) + 0.5 * (b - a) * s[np.argmax(v)])
    return x


def _piece_first_root(pieces, target):
    """The per-piece first root that the stacked one replaced, or None."""
    for a, b, c, _ in pieces:
        s = C.chebroots(C.chebtrim(C.chebsub(c, target)))
        s = s.real[(s.imag == 0) & (np.abs(s.real) <= 1.0)]
        if s.size:
            return float(0.5 * (a + b) + 0.5 * (b - a) * s.min())
    return None


@st.composite
def _fits(draw):
    """Fits of consecutive pieces on [0, 1], each a series of NODES coefficients
    (trimmed to any length), and a target per fit."""
    fits = []
    for size in draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)):
        ends = np.linspace(0.0, 1.0, size + 1)
        fits.append([(float(a), float(b), np.array(c), 0.0)
                     for a, b, c in zip(ends[:-1], ends[1:], draw(_series(size, experiments.NODES)))])
    return fits, draw(st.lists(_COEFF, min_size=len(fits), max_size=len(fits)))


@settings(max_examples=200, deadline=None)
@given(case=_fits())
def test_stacked_searches_equal_the_per_piece_searches(case):
    fits, targets = case
    brackets = [(0.0, 1.0)] * len(fits)
    firsts = [_piece_first_root(pieces, target) for pieces, target in zip(fits, targets)]
    if None in firsts:  # the first fit that misses its target names it
        k = firsts.index(None)
        with pytest.raises(NoConvergence, match=f"does not reach {targets[k]}"):
            experiments._first_roots(fits, brackets, targets)
    else:
        assert experiments._first_roots(fits, brackets, targets) == firsts
    # the maxima on a grid whose peaks bracket [0, 1], with the fits' pieces
    grid = np.tile([-1e9, 0.0, -1e9], (len(fits), 1))
    with mock.patch.object(experiments, "_fit", lambda fn, brackets, scales: fits):
        found = experiments._refine_maxima(np.array([0.0, 0.5, 1.0]), grid, lambda s, x: np.zeros(len(s)))
    assert [opt.argmax for opt in found] == [_piece_maximum(pieces) for pieces in fits]
