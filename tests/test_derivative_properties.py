"""Property tests: the exact temperature derivatives agree with the
independent central-difference oracle ``d_rho_dT`` (``tests/reference.py``)
over the parameter ranges the config accepts, on every route a family
offers."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from reference import StepTooLarge, d_rho_dT, steady_state  # noqa: E402
from qthermo.errors import NoConvergence  # noqa: E402
from qthermo.experiments import _family  # noqa: E402
from qthermo.linalg import expm, unvec, vec  # noqa: E402

MODELS = ("direct", "probe_ancilla", "two_qubit_local", "two_qubit_common")

#: Below this scale a derivative is compared absolutely (to 1e-9): the
#: oracle divides the states' rounding by its step h = 1e-4 T, which gave
#: errors of ~1e-10 (measured against scipy.linalg.expm_frechet, which the
#: exact derivative matches to ~1e-17 there).
SCALE_FLOOR = 1e-3


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(MODELS),
    route=st.sampled_from(("grid", "single", "steady")),
    temperature=st.floats(0.2, 2.0),
    kappa=st.floats(0.05, 2.0),
    eta=st.floats(0.0, 0.1),
    eta2=st.floats(0.0, 0.1),
    theta=st.floats(0.0, np.pi),
    t=st.floats(0.01, 200.0),
)
def test_exact_derivative_matches_central_difference(
    model, route, temperature, kappa, eta, eta2, theta, t
):
    kw = dict(kappa=kappa, eta=eta, eta2=eta2, cutoff=10.0, theta=theta)
    family = lambda tv: _family(model, tv, **kw)  # noqa: E731
    at = {"grid": np.linspace(0.0, t, 7), "single": t, "steady": np.inf}[route]
    if route == "steady":

        def state(tv):
            # the reference projection of L: no code in common with the
            # rate law under test
            fam = family(tv)
            return fam._project(steady_state(fam.liouvillian, fam.rho0)[0])
    else:

        def state(tv):
            # propagated independently of the spectral route under test
            fam = family(tv)
            vecs = [expm(fam.liouvillian.superop * ti) @ vec(fam.rho0) for ti in np.atleast_1d(at)]
            return fam._project(np.reshape(unvec(np.array(vecs)), np.shape(at) + fam.rho0.shape))
    fam = family(temperature)
    if route == "steady":
        # no stationary state to differentiate without a bath; and when a
        # mode of L (say near the common bath's decoherence-free sector)
        # decays slower than this, rounding in L amplified by 1 / rate
        # swamps the oracle's difference quotient
        lam = np.linalg.eigvals(fam.liouvillian.superop)
        slowest = -np.max(lam.real[np.abs(lam) > 1e-10 * np.max(np.abs(lam))], initial=-np.inf)
        hypothesis.assume(any(fam.channels.rates) and slowest >= 5e-4)
    _, exact = fam.state_and_derivative(at)
    try:
        oracle = d_rho_dT(state, temperature)
    except (NoConvergence, StepTooLarge):
        # on small or fast-varying entries the oracle's own half-step check
        # refuses its step
        hypothesis.reject()
    scale = max(np.max(np.abs(exact)), SCALE_FLOOR)
    assert np.max(np.abs(exact - oracle)) <= 1e-6 * scale
