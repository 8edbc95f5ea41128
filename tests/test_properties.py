"""Property tests over the parameter ranges the config accepts."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import reference_csv  # noqa: E402
from qthermo.cli import write_csv  # noqa: E402
from qthermo.dynamics import propagate  # noqa: E402
from qthermo.errors import NoConvergence  # noqa: E402
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
    stack = propagate(liou, rho0, times)[0]
    # an exponential per time, independent of the spectral route behind
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
