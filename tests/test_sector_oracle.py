"""The exact two-qubit oracle of ``reference.two_qubit_sector_qfi`` against
the steady closed form, a high-precision evaluation of the same model, the
engine's default two-qubit scan, and the finite-time requests the engine
still gets wrong."""

import numpy as np
import pytest

from qthermo.closed_forms import steady_qfi
from qthermo.experiments import make_model, run_qfi_point, run_two_qubit_configs
from qthermo.models import LocalBaths
from reference import two_qubit_sector_qfi

MODELS = ("two_qubit_local", "two_qubit_common")


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("temperature", [1e-3, 0.4, 10.0])
def test_steady_limit_is_the_closed_form(model, temperature):
    for ratio in np.concatenate([np.geomspace(1e-6, 300.0, 120), np.linspace(0.5, 300.0, 120)]):
        kappa = ratio * temperature
        m = make_model(model, temperature=temperature, eta=0.01, eta2=0.05, cutoff=10.0, kappa=kappa, theta=0.3)
        want = steady_qfi(kappa, temperature)
        assert two_qubit_sector_qfi(m, np.inf) == pytest.approx(want, rel=1e-13, abs=0.0), ratio


def _mp_sector_qfi(mpmath, model, t):
    """The sector's QFI at 150 digits from the direct forms: ``p_ss`` and
    ``n`` from ``exp``, and ``1 - |r|^2 = 4 (p+ p- - |c|^2)``."""
    cfg = model.bath_config
    local = isinstance(cfg, LocalBaths)
    bath = cfg.bath1 if local else cfg
    with mpmath.workdps(150):
        kappa, temp, cutoff, theta = map(mpmath.mpf, (model.kappa, bath.temperature, bath.cutoff, model.theta))
        if local:
            eta = mpmath.mpf(cfg.bath1.eta) + mpmath.mpf(cfg.bath2.eta)
        else:
            eta = (mpmath.sqrt(mpmath.mpf(cfg.eta1)) - mpmath.sqrt(mpmath.mpf(cfg.eta2))) ** 2
        dx = 2 * kappa / temp**2
        n = 1 / (mpmath.exp(2 * kappa / temp) - 1)
        j = eta * 2 * kappa * mpmath.exp(-2 * kappa / cutoff)
        gamma, d_gamma = 2 * mpmath.pi * j * (2 * n + 1), 4 * mpmath.pi * j * n * (n + 1) * dx
        p = 1 / (1 + mpmath.exp(2 * kappa / temp))
        dp = p * (1 - p) * dx
        a = (1 + mpmath.sin(theta)) / 2 - p
        c2 = mpmath.cos(theta) ** 2 / 4
        t = mpmath.mpf(t)
        e = mpmath.exp(-gamma * t)
        de = -t * d_gamma * e
        p_plus, dp_plus = p + a * e, dp * (1 - e) + a * de
        v = 4 * (p_plus * (1 - p_plus) - c2 * e)
        dv = 4 * (dp_plus * (1 - 2 * p_plus) - c2 * de)
        mixed = dv**2 / (4 * v) if v else 0
        return mixed + 4 * dp_plus**2 + c2 * e * (t * d_gamma) ** 2


def test_float64_oracle_matches_high_precision(rng):
    mpmath = pytest.importorskip("mpmath")
    for _ in range(60):
        temperature = float(np.exp(rng.uniform(np.log(1e-2), 0.0)))
        eta = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.1))))
        # a common bath near the decoherence-free corner on about 30 % of draws
        near = rng.random() < 0.3
        eta2 = eta * (1.0 + rng.uniform(-1e-3, 1e-3)) if near else float(np.exp(rng.uniform(np.log(1e-3), np.log(0.1))))
        m = make_model(
            str(rng.choice(MODELS)), temperature=temperature, eta=eta, eta2=eta2,
            cutoff=float(np.exp(rng.uniform(0.0, np.log(100.0)))),
            kappa=temperature * rng.uniform(1e-3, 60.0), theta=rng.uniform(0.0, np.pi),
        )
        t = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e4))))
        want = float(_mp_sector_qfi(mpmath, m, t))
        assert two_qubit_sector_qfi(m, t) == pytest.approx(want, rel=1e-13, abs=0.0), (m, t)


def test_engine_matches_on_the_default_two_qubit_scan():
    data = run_two_qubit_configs(workers=1).data
    for config, t, qfi in zip(data["config"], data["t"], data["qfi"]):
        bath, prep = config.split("_")
        m = make_model(
            f"two_qubit_{bath}", temperature=0.4, eta=0.01, eta2=0.05, cutoff=10.0, kappa=0.6,
            theta=0.0 if prep == "separable" else np.pi / 2,
        )
        assert qfi == pytest.approx(two_qubit_sector_qfi(m, t), rel=1e-11, abs=0.0), (config, t)


# finite-time point queries of the benchmark's seeds whose QFI the engine
# missed by more than 1e-10 before the records read the sector form (the
# oracle's value, then the engine's value or relative miss at the time):
# cancellation in the propagated state and the eigenvalues of a nearly pure
# one
REPRODUCERS = {
    "seed1-89": (dict(at=1.24072, model="two_qubit_common", temperature=0.0562065, kappa=1.29721,
                      theta=2.18356, eta=0.0225141, eta2=0.0358452), 1.066120e-36),  # 4.123101e-32
    "seed3-8": (dict(at=82.8848, model="two_qubit_local", temperature=0.0656652, kappa=1.34301,
                     theta=1.26286, eta=0.0220974, eta2=0.00966566), 6.769681e-16),  # 1.325914e-30
    "seed3-134": (dict(at=0.172825, model="two_qubit_local", temperature=0.0589228, kappa=1.36886,
                       theta=0.596363, eta=0.0198718, eta2=0.0202638), 1.565393e-36),  # 2.640051e-36
    "seed1-251": (dict(at=1.70909, model="two_qubit_common", temperature=0.05519, kappa=0.980017,
                       theta=1.64617, eta=0.0436587, eta2=0.039369), 1.122673e-28),  # 1.200336e-28
    "seed2-61": (dict(at=2.2783, model="two_qubit_common", temperature=0.0558987, kappa=0.808343,
                      theta=2.65208, eta=0.032432, eta2=0.0335542), 2.624876e-24),  # 2.624939e-24
    "seed3-221": (dict(at=1.04155, model="two_qubit_common", temperature=0.0778816, kappa=1.31289,
                       theta=0.870604, eta=0.0319245, eta2=0.0418702), 6.894681e-27),  # 6.894748e-27
    "seed0-234": (dict(at=84.9336, model="two_qubit_common", temperature=0.0902892, kappa=1.04247,
                       theta=2.19377, eta=0.0846758, eta2=0.0163236), 4.673953e-06),  # 4.673969e-06
    "seed1-1": (dict(at=0.605875, model="two_qubit_local", temperature=0.060473, kappa=1.15607,
                     theta=1.39147, eta=0.0323118, eta2=0.0233608), 4.674054e-29),  # 4.674063e-29
    # common baths with eta2 within 0.6 % of eta, next to the decoherence-free corner
    "seed2-5": (dict(at=1.68781, model="two_qubit_common", temperature=0.0830155, kappa=0.217728,
                     theta=3.07658, eta=0.00681015, eta2=0.00681801), 1.000259e-09),  # off by 2.3e-7
    "seed2-180": (dict(at=2.08273, model="two_qubit_common", temperature=1.85427, kappa=1.35473,
                       theta=2.47133, eta=0.01197, eta2=0.0119715), 6.762053e-11),  # off by 5.6e-8
    "seed3-17": (dict(at=0.346524, model="two_qubit_common", temperature=0.222907, kappa=1.08274,
                      theta=0.8066, eta=0.0369604, eta2=0.0371583), 5.423502e-12),  # off by 6.3e-10
}


def _request(request_id):
    params, value = REPRODUCERS[request_id]
    kw = dict(params)
    t, name = kw.pop("at"), kw.pop("model")
    return name, t, kw, value


@pytest.mark.parametrize("request_id", list(REPRODUCERS))
def test_oracle_values_of_the_finite_time_reproducers(request_id):
    name, t, kw, value = _request(request_id)
    assert two_qubit_sector_qfi(make_model(name, cutoff=10.0, **kw), t) == pytest.approx(value, rel=1e-6)


# the propagated state's own error: seed3-8 is nearly pure and takes the
# spectral form, which cannot resolve its minority eigenvalue; the others
# lose a slow mode's tiny component or cancel near the corner (ROADMAP item 7)
OFF_THE_ORACLE = pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="finite-time two-qubit QFI off the oracle until exact propagation (ROADMAP item 7)",
)
PROPAGATION_LIMITED = ("seed3-8", "seed0-234", "seed2-5", "seed2-180", "seed3-17")


@pytest.mark.parametrize("request_id", [
    pytest.param(r, marks=OFF_THE_ORACLE) if r in PROPAGATION_LIMITED else r for r in REPRODUCERS
])
def test_finite_time_reproducers_match_the_oracle(request_id):
    name, t, kw, _ = _request(request_id)
    got = run_qfi_point(name, at=t, cutoff=10.0, **kw).results["record"]["qfi"]
    assert got == pytest.approx(two_qubit_sector_qfi(make_model(name, cutoff=10.0, **kw), t), rel=1e-10, abs=0.0)
