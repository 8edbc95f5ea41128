import numpy as np
import pytest

from qthermo.closed_forms import optimal_ratio, sech, steady_qfi, steady_qsnr
from qthermo.dynamics import propagate
from qthermo.errors import NonPositiveInput
from qthermo.linalg import partial_trace, validate_density_matrix
from qthermo.master_equation import build_liouvillian
from qthermo.models import BathSpec, ProbeAncillaModel, initial_state
from reference import (
    direct_probe_coherence,
    direct_probe_qfi,
    probe_closed_form_terms,
    probe_state_closed_form,
    steady_two_qubit,
)

BATH = BathSpec(eta=0.01, cutoff=10.0, temperature=0.4)
KAPPA = 0.8


def numeric_reduced_states(t_max=50.0, n_points=251):
    model = ProbeAncillaModel(KAPPA, BATH, np.pi / 2)
    liou = build_liouvillian(model)
    times = np.linspace(0.0, t_max, n_points)
    return times, partial_trace(propagate(liou, initial_state(model), times)[0], keep=1)


class TestProbeClosedForm:
    def test_initial_point(self):
        cf = probe_closed_form_terms(0.0, KAPPA, BATH)
        assert cf.w == pytest.approx(-1.0, abs=1e-14)
        assert abs(cf.x) < 1e-14
        rho0 = probe_state_closed_form(0.0, KAPPA, BATH)
        assert np.allclose(rho0, np.diag([0.0, 1.0]))

    def test_decay_constant_signs(self):
        cf = probe_closed_form_terms(1.0, KAPPA, BATH)
        assert cf.b.real > 0
        assert cf.z2.real > 0
        assert cf.z1.imag > 0

    def test_long_time_limit(self):
        # slowest bare-coherence decay is Im(z1) ~ 8e-4, so go far out
        cf = probe_closed_form_terms(5e4, KAPPA, BATH)
        assert cf.w == pytest.approx(-0.5, abs=1e-12)
        assert abs(cf.x) < 1e-12
        rho = probe_state_closed_form(5e4, KAPPA, BATH)
        assert np.allclose(rho, np.diag([0.25, 0.75]), atol=1e-12)

    def test_density_matrix_invariants_along_curve(self):
        for t in np.linspace(0.0, 100.0, 41):
            validate_density_matrix(probe_state_closed_form(t, KAPPA, BATH))
            cf = probe_closed_form_terms(t, KAPPA, BATH)
            assert abs(cf.w) <= 1.0 + 1e-12
            assert abs(cf.x) <= 0.5 + 1e-12

    def test_population_term_matches_master_equation_exactly(self):
        times, reduced = numeric_reduced_states()
        worst = 0.0
        for t, rho in zip(times, reduced):
            cf = probe_closed_form_terms(t, KAPPA, BATH)
            worst = max(worst, abs((rho[0, 0] - rho[1, 1]).real - cf.w))
        assert worst < 1e-9

    def test_full_dephasing_variant_matches_master_equation(self):
        times, reduced = numeric_reduced_states()
        worst = 0.0
        for t, rho in zip(times, reduced):
            ref = probe_state_closed_form(t, KAPPA, BATH, include_zero_freq_dephasing=True)
            worst = max(worst, float(np.max(np.abs(rho - ref))))
        assert worst < 1e-9

    def test_bare_variant_misses_zero_frequency_envelope(self):
        # the bare coherence deviates from the propagated one by exactly
        # exp(-pi eta T t); both facts are pinned here
        times, reduced = numeric_reduced_states()
        envelope_defect = 0.0
        bare_deviation = 0.0
        rate = np.pi * BATH.eta * BATH.temperature
        for t, rho in zip(times, reduced):
            cf = probe_closed_form_terms(t, KAPPA, BATH)
            bare_deviation = max(bare_deviation, abs(rho[0, 1] - cf.x))
            envelope_defect = max(
                envelope_defect, abs(rho[0, 1] - cf.x * np.exp(-rate * t))
            )
        assert envelope_defect < 1e-9
        assert bare_deviation > 0.05

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(NonPositiveInput):
            probe_closed_form_terms(1.0, 0.0, BATH)


class TestGeneralPreparationOracle:
    """Reduced probe state for an arbitrary ancilla angle.

    Solving the eigenbasis rate equations by hand gives

        W(t) = -sin^2(theta/2) - cos^2(theta/2) cos(2 k t) e^{-Re(B) t},
        X(t) = sin(theta) * X_{pi/2}(t),

    with X_{pi/2} the (zero-frequency corrected) coherence of the balanced
    preparation.  This pins the angle dependence of the generator, which the
    bundled closed form (theta = pi/2 only) cannot.
    """

    @pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 3, 3 * np.pi / 4])
    def test_angle_dependence(self, theta):
        model = ProbeAncillaModel(KAPPA, BATH, theta)
        liou = build_liouvillian(model)
        times = np.linspace(0.0, 40.0, 81)
        reduced = partial_trace(propagate(liou, initial_state(model), times)[0], keep=1)
        re_b = 2 * KAPPA * np.pi * BATH.eta * np.exp(-2 * KAPPA / BATH.cutoff) / np.tanh(
            KAPPA / BATH.temperature
        )
        worst = 0.0
        for t, rho in zip(times, reduced):
            w = -np.sin(theta / 2) ** 2 - np.cos(theta / 2) ** 2 * np.cos(
                2 * KAPPA * t
            ) * np.exp(-re_b * t)
            x = np.sin(theta) * probe_closed_form_terms(
                t, KAPPA, BATH, include_zero_freq_dephasing=True
            ).x
            ref = np.array([[(1 + w) / 2, x], [np.conj(x), (1 - w) / 2]])
            worst = max(worst, float(np.max(np.abs(rho - ref))))
        assert worst < 1e-9


class TestDirectProbe:
    def test_coherence_decay_rate(self):
        g = 4.0 * np.pi * BATH.eta * BATH.temperature
        assert direct_probe_coherence(3.0, BATH) == pytest.approx(0.5 * np.exp(-3.0 * g))

    def test_qfi_zero_at_zero_time(self):
        assert direct_probe_qfi(0.0, BATH) == 0.0

    def test_qfi_positive_and_decaying(self):
        t_grid = np.linspace(1.0, 400.0, 100)
        vals = [direct_probe_qfi(t, BATH) for t in t_grid]
        assert all(v > 0 for v in vals)
        assert vals[-1] < max(vals) / 100.0

    @pytest.mark.parametrize("t", [0.5, 5.0])
    def test_qfi_against_mpmath_down_to_low_temperature(self, rng, t):
        # 1 - e^{-2 G t} cancels once 2 G t << 1; the oracle must not
        mpmath = pytest.importorskip("mpmath")
        eta = 0.01
        for temp in np.exp(rng.uniform(np.log(1e-16), np.log(10.0), size=200)):
            with mpmath.workdps(40):
                g2t = 2 * 4 * mpmath.pi * mpmath.mpf(eta) * mpmath.mpf(float(temp)) * t
                exact = (4 * mpmath.pi * mpmath.mpf(eta) * t) ** 2 / mpmath.expm1(g2t)
            got = direct_probe_qfi(t, BathSpec(eta, 10.0, float(temp)))
            assert abs(got - exact) <= 1e-14 * exact, temp


class TestSteadyTwoQubit:
    def test_eigenvalues(self):
        for kappa, temp in ((0.6, 0.4), (1.0, 0.2), (0.3, 1.5)):
            lam = np.linalg.eigvalsh(steady_two_qubit(kappa, temp))
            th = np.tanh(kappa / temp)
            expected = sorted([0.0, 0.0, (1 - th) / 2, (1 + th) / 2])
            assert np.allclose(lam, expected, atol=1e-12)

    def test_high_temperature_limit(self):
        rho = steady_two_qubit(0.1, 1e6)
        assert abs(rho[1, 2]) < 1e-6

    def test_low_temperature_singlet(self):
        rho = steady_two_qubit(2.0, 0.05)
        singlet = np.zeros(4, dtype=complex)
        singlet[1], singlet[2] = 1.0 / np.sqrt(2), -1.0 / np.sqrt(2)
        assert np.vdot(singlet, rho @ singlet).real == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(NonPositiveInput):
            steady_two_qubit(0.0, 0.4)
        with pytest.raises(NonPositiveInput):
            steady_two_qubit(0.6, 0.0)


class TestSteadyQfi:
    def test_zero_coupling(self):
        assert steady_qfi(0.0, 0.4) == 0.0

    def test_reference_value(self):
        # high-precision evaluation of 2 k^2 / (T^4 (cosh(2k/T) + 1))
        assert steady_qfi(0.48, 0.4) == pytest.approx(2.74517996587, rel=1e-10)
        assert 0.16 * steady_qfi(0.48, 0.4) == pytest.approx(0.439228794539, rel=1e-10)

    def test_two_printed_forms_agree(self, rng):
        for _ in range(25):
            kappa = rng.uniform(0.05, 3.0)
            temp = rng.uniform(0.05, 3.0)
            explicit = 2 * kappa**2 / (temp**4 * (np.cosh(2 * kappa / temp) + 1.0))
            assert steady_qfi(kappa, temp) == pytest.approx(explicit, rel=1e-12)

    def test_overflow_safe(self):
        assert steady_qfi(2.0, 1e-3) == 0.0  # underflows cleanly, no warning

    def test_scaling_identity(self, rng):
        # T^2 * F depends on kappa/T only
        for _ in range(20):
            kappa, temp = rng.uniform(0.1, 2.0, size=2)
            alpha = rng.uniform(0.2, 5.0)
            r1 = temp**2 * steady_qfi(kappa, temp)
            r2 = (alpha * temp) ** 2 * steady_qfi(alpha * kappa, alpha * temp)
            assert r1 == pytest.approx(r2, abs=1e-12, rel=1e-12)


class TestOptimalRatio:
    def test_root_and_value(self):
        x_star, qsnr_star = optimal_ratio()
        assert x_star == pytest.approx(1.19967864026, abs=1e-9)
        assert qsnr_star == pytest.approx(0.43922883989, abs=1e-9)
        assert np.tanh(x_star) == pytest.approx(1.0 / x_star, abs=1e-11)
        assert qsnr_star == pytest.approx(x_star**2 - 1.0, abs=1e-10)

    def test_bisected_once_per_process(self):
        assert optimal_ratio() is optimal_ratio()

    def test_is_local_maximum(self):
        x_star, qsnr_star = optimal_ratio()
        assert steady_qsnr(x_star - 0.1) < qsnr_star
        assert steady_qsnr(x_star + 0.1) < qsnr_star

    def test_steady_qsnr_of_an_array_rounds_as_each_scalar(self):
        # the optimum's fit reads the curve in stacks
        ratios = np.linspace(0.05, 60.0, 4001)
        assert steady_qsnr(ratios).tolist() == [float(steady_qsnr(x)) for x in ratios]

    def test_sech_stable(self):
        assert sech(0.0) == 1.0
        assert sech(800.0) == 0.0 or sech(800.0) < 1e-300
