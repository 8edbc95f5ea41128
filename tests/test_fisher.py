from dataclasses import replace

import numpy as np
import pytest

from reference import StepTooLarge, d_rho_dT, halving_consistency, probe_state_closed_form, steady_two_qubit
from qthermo.closed_forms import sech, steady_qfi
from qthermo.errors import NonFinite, NonPositiveInput, PureStateSingularity, ResolutionLimit
from qthermo.experiments import TemperatureFamily, _records, make_model
from qthermo.fisher import (
    bloch_components,
    cfi_povm,
    measurement_fi,
    qfi_bloch,
    qfi_spectral,
    qsnr,
    qubit_qfi,
    sector_qfi,
    sld,
)
from qthermo.linalg import identity, pauli


def random_qubit_family(rng, radius_max=0.95):
    r = rng.uniform(-1.0, 1.0, size=3)
    r *= rng.uniform(0.05, radius_max) / np.linalg.norm(r)
    dr = rng.uniform(-1.0, 1.0, size=3)
    rho = 0.5 * (
        identity(2) + r[0] * pauli("x") + r[1] * pauli("y") + r[2] * pauli("z")
    )
    drho = 0.5 * (dr[0] * pauli("x") + dr[1] * pauli("y") + dr[2] * pauli("z"))
    return rho, drho


def on_the_exchange_sector(m):
    """A 2x2 matrix as the {|01>, |10>} block of a 4x4 one."""
    out = np.zeros((4, 4), dtype=complex)
    out[1:3, 1:3] = m
    return out


class TestDerivative:
    def test_constant_family(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        d = d_rho_dT(lambda tv: rho, 0.4)
        assert np.max(np.abs(d)) == 0.0

    def test_steady_family_against_analytic(self):
        kappa, temp = 0.6, 0.4
        d = d_rho_dT(lambda tv: steady_two_qubit(kappa, tv), temp)
        expected = (kappa / (2.0 * temp * temp)) * sech(kappa / temp) ** 2
        assert d[1, 2].real == pytest.approx(expected, rel=1e-7)
        assert d[1, 1].real == pytest.approx(0.0, abs=1e-12)
        assert abs(np.trace(d)) < 1e-12
        assert np.max(np.abs(d - d.conj().T)) < 1e-12

    def test_second_order_convergence(self):
        kappa, temp = 0.6, 0.4
        exact = (kappa / (2.0 * temp * temp)) * sech(kappa / temp) ** 2

        def err(h):
            d = (
                steady_two_qubit(kappa, temp + h) - steady_two_qubit(kappa, temp - h)
            ) / (2.0 * h)
            return abs(d[1, 2].real - exact)

        ratio = err(2e-3) / err(1e-3)
        assert 3.5 < ratio < 4.5

    def test_step_too_large_detected(self):
        # rapidly oscillating family breaks the halving consistency check
        def family(tv):
            return np.diag([np.sin(3000.0 * tv), -np.sin(3000.0 * tv)]).astype(complex)

        with pytest.raises(StepTooLarge):
            d_rho_dT(family, 0.4, h=1e-2)

    def test_noisy_constant_family_treated_as_zero(self):
        # evaluation noise far below the 1e-8 floor must not trip the check
        base = np.diag([0.25, 0.75]).astype(complex)

        def family(tv):
            return base + 1e-12 * np.sin(1e4 * tv) * np.diag([1.0, -1.0])

        d = d_rho_dT(family, 0.4)
        assert np.max(np.abs(d)) < 1e-6

    def test_rejects_step_beyond_zero(self):
        with pytest.raises(NonPositiveInput):
            d_rho_dT(lambda tv: np.eye(2, dtype=complex), 0.4, h=0.5)


class TestSpectralQfi:
    def test_classical_binary_reduction(self, rng):
        for _ in range(20):
            m = rng.uniform(-0.9, 0.9)
            dm = rng.uniform(-1.0, 1.0)
            rho = np.diag([(1 + m) / 2, (1 - m) / 2]).astype(complex)
            drho = np.diag([dm / 2, -dm / 2]).astype(complex)
            assert qfi_spectral(rho, drho) == pytest.approx(
                dm * dm / (1 - m * m), rel=1e-12
            )

    def test_zero_derivative(self, rng):
        rho, _ = random_qubit_family(rng)
        assert qfi_spectral(rho, np.zeros((2, 2))) == 0.0

    def test_steady_state_oracle(self):
        kappa, temp = 0.6, 0.4
        rho = steady_two_qubit(kappa, temp)
        drho = d_rho_dT(lambda tv: steady_two_qubit(kappa, tv), temp)
        assert qfi_spectral(rho, drho) == pytest.approx(
            steady_qfi(kappa, temp), rel=1e-6
        )

    def test_degenerate_block_invariance(self, rng):
        # rotating inside a degenerate eigenspace must not change the value
        rho = np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        drho = 0.5 * (m + m.conj().T)
        drho -= np.trace(drho) * identity(4) / 4.0
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u2, _ = np.linalg.qr(g)
        u = identity(4)
        u[:2, :2] = u2
        f1 = qfi_spectral(rho, drho)
        f2 = qfi_spectral(u @ rho @ u.conj().T, u @ drho @ u.conj().T)
        assert f1 == pytest.approx(f2, rel=1e-9)

    def test_boundary_support_warning(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        drho = np.array([[0.0, 0.0], [0.0, 1e-6]], dtype=complex)
        drho -= np.trace(drho) / 2 * identity(2)  # keep it traceless-ish
        rho = np.diag([1.0, 0.0]).astype(complex)
        drho = np.diag([-1e-6, 1e-6]).astype(complex)
        with pytest.warns(UserWarning, match="boundary-of-support"):
            qfi_spectral(rho, drho)


class TestBlochQfi:
    def test_zero_derivative(self):
        r = np.array([0.2, -0.1, 0.4])
        assert qfi_bloch(r, np.array([0.0, 0.0, 0.0])) == 0.0

    def test_matches_spectral_on_random_families(self, rng):
        worst = 0.0
        for _ in range(500):
            rho, drho = random_qubit_family(rng)
            fb = qfi_bloch(bloch_components(rho), bloch_components(drho))
            fs = qfi_spectral(rho, drho)
            worst = max(worst, abs(fb - fs))
        assert worst < 1e-9

    def test_pure_state_routed(self):
        r = np.array([1.0, 0.0, 0.0])
        with pytest.raises(PureStateSingularity):
            qfi_bloch(r, np.array([0.0, 0.0, 1.0]))
        rho = 0.5 * (identity(2) + pauli("x"))
        drho = 0.1 * pauli("z")
        assert qubit_qfi(rho, drho) == pytest.approx(qfi_spectral(rho, drho))

    def test_probe_trajectory_agreement(self, paper_bath):
        ts = np.linspace(0.5, 40.0, 24)
        h = 1e-5
        worst = 0.0
        for t in ts:
            state = lambda tv: probe_state_closed_form(
                t, 0.8, replace(paper_bath, temperature=tv), include_zero_freq_dephasing=True
            )
            rho = state(0.4)
            drho = d_rho_dT(state, 0.4, h)
            fb = qubit_qfi(rho, drho)
            fs = qfi_spectral(rho, drho)
            worst = max(worst, abs(fb - fs))
        assert worst < 1e-9


class TestSld:
    def test_zero_derivative_gives_zero_operator(self):
        lam = sld(np.array([0.1, 0.2, -0.3]), np.array([0.0, 0.0, 0.0]))
        assert np.max(np.abs(lam)) == 0.0

    def test_defining_relation_and_variance(self, rng):
        for _ in range(100):
            rho, drho = random_qubit_family(rng)
            r, dr = bloch_components(rho), bloch_components(drho)
            lam = sld(r, dr)
            defect = 0.5 * (rho @ lam + lam @ rho) - drho
            assert np.max(np.abs(defect)) < 1e-8
            assert abs(np.trace(rho @ lam).real) < 1e-8
            assert np.trace(rho @ lam @ lam).real == pytest.approx(
                qfi_bloch(r, dr), abs=1e-8
            )

    def test_eigenbasis_measurement_is_optimal(self, rng):
        for _ in range(20):
            rho, drho = random_qubit_family(rng)
            r, dr = bloch_components(rho), bloch_components(drho)
            lam = sld(r, dr)
            _, vecs = np.linalg.eigh(lam)
            probs = np.array([(vecs[:, k].conj() @ rho @ vecs[:, k]).real for k in range(2)])
            dprobs = np.array([(vecs[:, k].conj() @ drho @ vecs[:, k]).real for k in range(2)])
            assert cfi_povm(probs, dprobs) == pytest.approx(qfi_bloch(r, dr), abs=1e-7)


class TestCfiPovm:
    def test_steady_doublet_basis_reproduces_qfi(self):
        kappa, temp = 0.6, 0.4
        x = kappa / temp
        probs = np.array([(1 - np.tanh(x)) / 2, (1 + np.tanh(x)) / 2])
        dp = (kappa / (2 * temp * temp)) * sech(x) ** 2
        dprobs = np.array([dp, -dp])
        assert cfi_povm(probs, dprobs) == pytest.approx(steady_qfi(kappa, temp), rel=1e-12)

    def test_uniform_zero_derivative(self):
        assert cfi_povm([0.25] * 4, [0.0] * 4) == 0.0

    def test_never_exceeds_qfi(self, rng):
        kappa, temp = 0.6, 0.4
        rho = steady_two_qubit(kappa, temp)
        drho = d_rho_dT(lambda tv: steady_two_qubit(kappa, tv), temp)
        f_q = qfi_spectral(rho, drho)
        for _ in range(100):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            u, _ = np.linalg.qr(g)
            probs = np.array([(u[:, k].conj() @ rho @ u[:, k]).real for k in range(4)])
            dprobs = np.array([(u[:, k].conj() @ drho @ u[:, k]).real for k in range(4)])
            probs = np.clip(probs, 0.0, None)
            probs /= probs.sum()
            assert cfi_povm(probs, dprobs) <= f_q + 1e-9

    def test_vanishing_outcome_skipped(self):
        # an outcome with p <= 1e-14 adds nothing, whatever its derivative
        assert cfi_povm([1.0, 0.0], [-1e-3, 1e-3]) == 1e-3 * 1e-3
        assert cfi_povm([1.0 - 1e-14, 1e-14], [-1e-3, 1e-3]) == 1e-3 * 1e-3 / (1.0 - 1e-14)

    def test_validates_distribution(self):
        with pytest.raises(NonPositiveInput):
            cfi_povm([0.7, 0.7], [0.0, 0.0])
        with pytest.raises(NonPositiveInput):
            cfi_povm([0.5, 0.5], [0.2, 0.0])

    def test_derivative_sum_checked_on_its_own_scale(self):
        # dp/dT grows as 1/T: at T = 1e-9 derivatives of 4e8 sum to rounding
        # of their own size, and the floor of 1 keeps small ones absolute
        assert cfi_povm([0.5, 0.5], [4e8, -4e8 + 0.5]) > 0.0
        with pytest.raises(NonPositiveInput, match="derivatives sum to 10"):
            cfi_povm([0.5, 0.5], [4e8, -4e8 + 10.0])
        with pytest.raises(NonPositiveInput, match="derivatives sum to 2e-08"):
            cfi_povm([0.5, 0.5], [1e-9, 1.9e-8])


class TestMeasurementFi:
    def test_identity_observable_gives_zero(self, paper_bath):
        # Var(I) = 0: the information (d<I>/dT)^2 <= Var(I) F_Q vanishes with it
        state = lambda tv: probe_state_closed_form(
            5.0, 0.8, replace(paper_bath, temperature=tv), include_zero_freq_dephasing=True
        )
        assert measurement_fi(identity(2), state(0.4), d_rho_dT(state, 0.4)) == 0.0

    def test_sigma_x_formula(self, paper_bath):
        # (d<sx>/dT)^2 / (1 - rx^2) for a qubit family
        t = 7.0
        state = lambda tv: probe_state_closed_form(
            t, 0.8, replace(paper_bath, temperature=tv), include_zero_freq_dephasing=True
        )
        rho = state(0.4)
        drho = d_rho_dT(state, 0.4)
        got = measurement_fi(pauli("x"), rho, drho)
        rx = bloch_components(rho)[..., 0]
        drx = bloch_components(drho)[..., 0]
        assert got == pytest.approx(drx * drx / (1.0 - rx * rx), rel=1e-10)

    def test_bounded_by_qfi(self, paper_bath):
        for t in np.linspace(1.0, 40.0, 14):
            state = lambda tv: probe_state_closed_form(
                t, 0.8, replace(paper_bath, temperature=tv), include_zero_freq_dephasing=True
            )
            rho = state(0.4)
            drho = d_rho_dT(state, 0.4)
            fi = measurement_fi(pauli("x"), rho, drho)
            assert fi <= qubit_qfi(rho, drho) + 1e-9


class TestHermiticityGuards:
    def test_qfi_spectral_rejects_skewed_derivative(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        from qthermo.errors import NonHermitianInput

        with pytest.raises(NonHermitianInput):
            qfi_spectral(rho, skew)

    def test_sector_qfi_rejects_skewed_derivative(self, rng):
        from qthermo.errors import NonHermitianInput

        pairs = [random_qubit_family(rng) for _ in range(4)]
        rho = np.array([on_the_exchange_sector(p[0]) for p in pairs])
        drho = np.array([on_the_exchange_sector(p[1]) for p in pairs])
        drho[2, 0, 3] = 1e-3  # outside the block: the sector form never reads it
        with pytest.raises(NonHermitianInput) as whole:
            sector_qfi(rho, drho)
        with pytest.raises(NonHermitianInput) as single:
            qfi_spectral(rho[2], drho[2])
        assert str(whole.value) == str(single.value)

    def test_measurement_fi_rejects_non_hermitian_observable(self, paper_bath):
        from qthermo.errors import NonHermitianInput

        state = lambda tv: probe_state_closed_form(
            5.0, 0.8, replace(paper_bath, temperature=tv), include_zero_freq_dephasing=True
        )
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NonHermitianInput):
            measurement_fi(bad, state(0.4), d_rho_dT(state, 0.4))


class TestQsnrRecord:
    def test_qsnr(self):
        assert qsnr(0.4, 0.0) == 0.0
        assert qsnr(0.4, 2.745) == pytest.approx(0.16 * 2.745)
        with pytest.raises(NonPositiveInput):
            qsnr(0.4, -1.0)

    def test_qsnr_beyond_the_root_of_the_largest_float(self):
        # T * T overflows above about 1.34e154; T^2 F itself need not
        assert qsnr(1e155, 0.0) == 0.0
        assert qsnr(1e300, 1e-300) == pytest.approx(1e300, rel=1e-15)
        assert qsnr(1e154, 1e-300) == 1e154 * 1e154 * 1e-300
        with pytest.raises(ResolutionLimit, match="T = 1e"), np.errstate(over="ignore"):
            qsnr(1e300, 1.0)

    def test_qsnr_below_the_root_of_the_smallest_normal_float(self):
        # T * T underflows below about 1.5e-154; T (T F) need not
        assert qsnr(1e-300, 6.0085498459721236e+300) == 1e-300 * (1e-300 * 6.0085498459721236e+300)
        assert qsnr(1e-150, 2.0) == 1e-150 * 1e-150 * 2.0

    @pytest.mark.parametrize("qfi, fi, match", [
        ([1.0, np.inf, 1.0], [1.0, 1.0, 1.0], "qfi is inf at t = 2"),
        ([1.0, 1.0, 1.0], [1.0, np.nan, 1.0], "cfi is nan at t = 2"),
        ([1.0, 1.0, 1.0], [1.0, 1.0, np.inf], "cfi is inf at t = 3"),  # not FI > QFI
    ])
    def test_record_rejects_non_finite_information(self, qfi, fi, match):
        rho = np.array([np.diag([0.6, 0.4])] * 3, dtype=complex)
        with pytest.raises(NonFinite, match=match):
            _records(np.array([1.0, 2.0, 3.0]), qfi, fi, rho, 0.4)

    def test_record_rejects_fi_above_qfi(self):
        rho = np.array([np.diag([0.6, 0.4])] * 3, dtype=complex)
        with pytest.raises(ResolutionLimit, match="FI 1.1 exceeds QFI 1.0 at t = 2.0"):
            _records(np.array([1.0, 2.0, 3.0]), [1.0, 1.0, 1.0], [1.0, 1.1, 1.2], rho, 0.4)


class TestStacks:
    """A stack of states gives, per state, what the single-state call gives."""

    def test_halving_check_raises_for_the_offending_state(self, rng):
        d_h = rng.normal(size=(6, 2, 2))
        d_half = d_h * (1.0 + 1e-7)
        d_half[0] = 1e-10  # below the 1e-8 floor: counts as zero, never raises
        d_h[0] = 3e-9
        halving_consistency(d_h, d_half)
        d_half[3] *= 1.0 + 1e-3
        d_half[5] *= 1.0 + 1e-2
        with pytest.raises(StepTooLarge) as whole:
            halving_consistency(d_h, d_half)
        with pytest.raises(StepTooLarge) as single:
            halving_consistency(d_h[3], d_half[3])
        assert str(whole.value) == str(single.value)
        for k in (1, 2, 4):
            halving_consistency(d_h[k], d_half[k])

    def test_qfi_spectral_per_state(self, rng):
        pairs = [random_qubit_family(rng) for _ in range(8)]
        rho = np.array([p[0] for p in pairs])
        drho = np.array([p[1] for p in pairs])
        got = qfi_spectral(rho, drho)
        assert got.shape == (8,)
        assert got.tolist() == [qfi_spectral(r, d) for r, d in pairs]

    def test_boundary_warning_once_per_affected_state(self, rng):
        rho = np.array([random_qubit_family(rng)[0] for _ in range(5)])
        drho = np.zeros_like(rho)
        for k, num in ((1, 1e-6), (3, 2e-6)):
            rho[k] = np.diag([1.0, 0.0])
            drho[k] = np.diag([-num, num])
        with pytest.warns(UserWarning, match="boundary-of-support") as caught:
            qfi_spectral(rho, drho)
        expected = []
        for k in (1, 3):
            with pytest.warns(UserWarning) as one:
                qfi_spectral(rho[k], drho[k])
            expected.append(str(one[0].message))
        assert [str(w.message) for w in caught] == expected

    def test_qubit_qfi_routes_each_state(self, rng):
        pairs = [random_qubit_family(rng) for _ in range(6)]
        pairs[2] = (0.5 * (identity(2) + pauli("x")), 0.1 * pauli("z"))  # pure: spectral
        pairs[4] = (np.diag([1.0, 0.0]).astype(complex), np.zeros((2, 2), dtype=complex))
        rho = np.array([p[0] for p in pairs])
        drho = np.array([p[1] for p in pairs])
        assert qubit_qfi(rho, drho).tolist() == [qubit_qfi(r, d) for r, d in pairs]
        with pytest.raises(PureStateSingularity):
            qfi_bloch(bloch_components(rho), bloch_components(drho))

    def test_sector_qfi_routes_each_state(self, rng):
        pairs = [random_qubit_family(rng) for _ in range(6)]
        pairs[2] = (0.5 * (identity(2) + pauli("x")), 0.1 * pauli("z"))  # pure: spectral
        pairs[4] = (np.diag([1.0, 0.0]).astype(complex), np.zeros((2, 2), dtype=complex))
        rho = np.array([on_the_exchange_sector(p[0]) for p in pairs])
        drho = np.array([on_the_exchange_sector(p[1]) for p in pairs])
        got = sector_qfi(rho, drho)
        assert got.tolist() == [sector_qfi(r, d) for r, d in zip(rho, drho)]
        assert [got[2], got[4]] == [qfi_spectral(rho[2], drho[2]), qfi_spectral(rho[4], drho[4])]
        assert got == pytest.approx(qfi_spectral(rho, drho), rel=1e-12, abs=0.0)
        # the Bloch form of the block read in |±> is the qubit's
        assert got == pytest.approx([qubit_qfi(*p) for p in pairs], rel=1e-12, abs=0.0)

    def test_bloch_components_of_a_stack(self, rng):
        rho = np.array([random_qubit_family(rng)[0] for _ in range(4)])
        r = bloch_components(rho)
        assert r.shape == (4, 3)
        for k in range(4):
            one = bloch_components(rho[k])
            assert np.array_equal(one, r[k])

    def test_measurement_fi_per_state(self, rng):
        pairs = [random_qubit_family(rng) for _ in range(6)]
        pairs[3] = (0.5 * (identity(2) + pauli("x")), 0.1 * pauli("z"))  # Var(sx) = 0
        rho = np.array([p[0] for p in pairs])
        drho = np.array([p[1] for p in pairs])
        for obs in (pauli("x"), pauli("z"), identity(2)):
            got = measurement_fi(obs, rho, drho)
            assert got.shape == (6,)
            assert got.tolist() == [measurement_fi(obs, r, d) for r, d in pairs]
        assert measurement_fi(pauli("x"), rho, drho)[3] == 0.0
        assert measurement_fi(identity(2), rho, drho).tolist() == [0.0] * 6

    def test_measurement_fi_of_sigma_x_keeps_the_trace_form_bits(self, rng):
        # sigma_x's entries are 0 and 1, so each trace is the same sum of exact
        # products as Tr(rho @ x) in every form
        def trace_form(x, rho, drho):
            mean = np.trace(rho @ x, axis1=-2, axis2=-1).real
            var = np.trace(rho @ (x @ x), axis1=-2, axis2=-1).real - mean * mean
            dmean = np.trace(drho @ x, axis1=-2, axis2=-1).real
            return np.divide(dmean * dmean, var, out=np.zeros_like(var), where=var > 1e-14)

        for _ in range(200):
            n = int(rng.integers(1, 600))
            a = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
            rho = a @ a.conj().transpose(0, 2, 1)
            rho /= np.trace(rho, axis1=-2, axis2=-1)[:, None, None]
            drho = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
            drho = drho + drho.conj().transpose(0, 2, 1)
            got = measurement_fi(pauli("x"), rho, drho)
            assert got.tolist() == trace_form(pauli("x"), rho, drho).tolist()

    def test_cfi_povm_per_distribution(self, rng):
        p = rng.dirichlet(np.ones(4), size=5)
        dp = rng.normal(size=(5, 4))
        dp -= dp.mean(axis=-1, keepdims=True)
        p[2] = [0.5, 0.5 - 1e-14, 1e-14, 0.0]  # two outcomes at or below 1e-14: skipped
        got = cfi_povm(p, dp)
        assert got.shape == (5,)
        assert got.tolist() == [cfi_povm(a, b) for a, b in zip(p, dp)]
        assert got[2] == dp[2, 0] ** 2 / 0.5 + dp[2, 1] ** 2 / (0.5 - 1e-14)
        assert cfi_povm(p[None], dp[None]).shape == (1, 5)

    def test_cfi_povm_check_names_the_first_bad_distribution(self, rng):
        p = rng.dirichlet(np.ones(3), size=6)
        dp = np.zeros((6, 3))
        p[2] *= 1.0 + 1e-6
        p[4] *= 1.0 + 1e-3
        with pytest.raises(NonPositiveInput) as whole:
            cfi_povm(p, dp)
        with pytest.raises(NonPositiveInput) as single:
            cfi_povm(p[2], dp[2])
        assert str(whole.value) == str(single.value)
        p[2] /= 1.0 + 1e-6
        dp[1] = [0.1, 0.0, 0.0]
        with pytest.raises(NonPositiveInput, match="derivatives sum to 0.1"):
            cfi_povm(p[:4], dp[:4])

    def test_qsnr_per_value(self):
        f = np.array([0.0, 2.745, 1.0])
        assert qsnr(0.4, f).tolist() == [qsnr(0.4, x) for x in f]
        with pytest.raises(NonPositiveInput, match="got -1.0"):
            qsnr(0.4, np.array([1.0, -1.0, -2.0]))

    def test_exact_derivative_matches_central_difference_oracle(self):
        # measurement_fi on the exact (rho, drho) against the same call with
        # the central-difference derivative of the family T -> rho(t; T)
        def family(temperature):
            model = make_model("probe_ancilla", temperature=temperature, eta=0.01, cutoff=10.0)
            return TemperatureFamily(model)

        for t in (3.0, 17.0, 45.0):
            rho, drho = family(0.4).state_and_derivative(t)
            oracle = d_rho_dT(lambda tv: family(tv).state_and_derivative(t)[0], 0.4)
            exact = measurement_fi(pauli("x"), rho, drho)
            assert exact > 0.0
            assert exact == pytest.approx(measurement_fi(pauli("x"), rho, oracle), rel=1e-8)
