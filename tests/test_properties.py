"""Property tests over the parameter ranges the config accepts."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
)
def test_stacked_states_equal_single_states(model, temperature, kappa, eta, eta2, theta, times):
    # a state has the same bits whether it is evaluated alone or in a stack,
    # so a search that evaluates its points in stacks takes the same steps
    fam = TemperatureFamily(make_model(
        model, temperature=temperature, eta=eta, eta2=eta2, cutoff=10.0, kappa=kappa, theta=theta
    ))
    ts = np.array([0.0, *times, np.inf])
    try:
        rho, drho = fam.state_and_derivative(ts)
    except NoConvergence:
        hypothesis.reject()  # next to the decoherence-free corner: no resolved steady state
    for k in range(len(ts)):
        one, d_one = fam.state_and_derivative(ts[k])
        assert np.array_equal(rho[k], one) and np.array_equal(drho[k], d_one)
