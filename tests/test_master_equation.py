import numpy as np
import pytest

from qthermo.errors import NegativeFrequency, NonHermitianInput, NonPositiveInput
from qthermo.linalg import choi_matrix, expm, identity, kron, pauli, unvec, vec
from qthermo.master_equation import (
    build_liouvillian,
    commutator_superop,
    decoherence_rate,
    jump_operators,
    spectral_density,
    thermal_occupation,
)
from qthermo.models import (
    BathSpec,
    CommonBath,
    DirectProbeModel,
    LocalBaths,
    ProbeAncillaModel,
    TwoQubitModel,
    hamiltonian,
    initial_state,
)

BATH = BathSpec(eta=0.01, cutoff=10.0, temperature=0.4)


def matrix_basis(d):
    out = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            out.append(e)
    return out


class TestRates:
    def test_spectral_density_zero(self):
        assert spectral_density(0.0, BATH) == 0.0

    def test_spectral_density_at_cutoff(self):
        b = BathSpec(eta=0.3, cutoff=2.5, temperature=1.0)
        assert spectral_density(2.5, b) == pytest.approx(0.3 * 2.5 / np.e, rel=1e-14)

    def test_spectral_density_value(self):
        # 0.016 * exp(-0.16), high-precision reference
        assert spectral_density(1.6, BATH) == pytest.approx(0.0136343006235, rel=1e-10)

    def test_spectral_density_negative_frequency(self):
        with pytest.raises(NegativeFrequency):
            spectral_density(-0.1, BATH)

    def test_occupation_log2(self):
        t = 0.7
        assert thermal_occupation(t * np.log(2.0), t) == pytest.approx(1.0, rel=1e-12)

    def test_occupation_value(self):
        # 1 / (e^4 - 1)
        assert thermal_occupation(1.6, 0.4) == pytest.approx(0.0186573603638, rel=1e-10)

    def test_occupation_limits(self):
        assert thermal_occupation(500.0, 0.4) < 1e-300
        assert thermal_occupation(1.0, 2.0) > thermal_occupation(1.0, 1.0)
        assert thermal_occupation(2.0, 1.0) < thermal_occupation(1.0, 1.0)

    def test_occupation_rejects_nonpositive(self):
        with pytest.raises(NonPositiveInput):
            thermal_occupation(0.0, 0.4)
        with pytest.raises(NonPositiveInput):
            thermal_occupation(1.0, 0.0)

    def test_zero_frequency_rate(self):
        # Ohmic limit 2 pi eta T, and continuity of J(w) n(w) at w -> 0
        g0 = decoherence_rate(0.0, BATH)
        assert g0 == pytest.approx(0.0251327412287, rel=1e-10)
        g_small = decoherence_rate(-1e-6, BATH)
        assert g_small == pytest.approx(g0, rel=1e-5)

    def test_no_absorption_at_zero_temperature(self):
        cold = BathSpec(eta=0.01, cutoff=10.0, temperature=1e-4)
        assert decoherence_rate(-1.0, cold) < 1e-300

    def test_detailed_balance(self, rng):
        for _ in range(50):
            w = rng.uniform(0.05, 3.0)
            b = BathSpec(eta=0.02, cutoff=8.0, temperature=rng.uniform(0.1, 2.0))
            ratio = decoherence_rate(w, b) / decoherence_rate(-w, b)
            assert ratio == pytest.approx(np.exp(w / b.temperature), rel=1e-10)


def brute_force_channels(h, a):
    """Independent oracle: sum over all 16 eigenpair combinations, no
    level clustering."""
    vals, vecs = np.linalg.eigh(h)
    chans = {}
    for m in range(len(vals)):
        for n in range(len(vals)):
            w = round(vals[m] - vals[n], 9)
            pn = np.outer(vecs[:, n], vecs[:, n].conj())
            pm = np.outer(vecs[:, m], vecs[:, m].conj())
            chans[w] = chans.get(w, 0) + pn @ a @ pm
    return {w: op for w, op in chans.items() if np.max(np.abs(op)) > 1e-12}


class TestJumpOperators:
    def test_probe_ancilla_three_channels(self):
        model = ProbeAncillaModel(1.0, 1.0, 0.8, BATH, np.pi / 2)
        h = hamiltonian(model)
        a = kron(identity(2), pauli("z"))
        chans = jump_operators(h, a)
        freqs = sorted(c.omega for c in chans)
        assert np.allclose(freqs, [-1.6, 0.0, 1.6], atol=1e-9)
        oracle = brute_force_channels(h, a)
        assert len(oracle) == 3
        for c in chans:
            ref = oracle[round(c.omega, 9)]
            assert np.max(np.abs(c.op - ref)) < 1e-9

    def test_identity_coupling(self):
        h = hamiltonian(ProbeAncillaModel(1.0, 1.0, 0.8, BATH, 0.0))
        chans = jump_operators(h, identity(4))
        assert len(chans) == 1
        assert chans[0].omega == 0.0
        assert np.allclose(chans[0].op, identity(4))

    def test_direct_probe_single_channel(self):
        chans = jump_operators(0.5 * pauli("z"), pauli("z"))
        assert len(chans) == 1 and chans[0].omega == 0.0
        assert np.allclose(chans[0].op, pauli("z"))

    def test_sigma_x_coupling_two_channels(self):
        # non-commuting coupling splits into raising and lowering parts
        chans = jump_operators(0.5 * pauli("z"), pauli("x"))
        freqs = sorted(c.omega for c in chans)
        assert np.allclose(freqs, [-1.0, 1.0])

    def test_ladder_relation(self):
        for kappa in (0.3, 0.8, 1.3):
            h = hamiltonian(ProbeAncillaModel(1.0, 1.0, kappa, BATH, 0.0))
            a = kron(identity(2), pauli("z"))
            for c in jump_operators(h, a):
                defect = c.op @ h - h @ c.op - c.omega * c.op
                assert np.max(np.abs(defect)) < 1e-9

    def test_completeness(self, rng):
        from conftest import random_hermitian

        h = random_hermitian(rng, 4)
        a = random_hermitian(rng, 4)
        chans = jump_operators(h, a)
        total = sum(c.op for c in chans)
        assert np.max(np.abs(total - a)) < 1e-10

    def test_adjoint_pairing(self):
        h = hamiltonian(TwoQubitModel(1.0, 0.6, LocalBaths(BATH, BATH), 0.0))
        chans = {round(c.omega, 9): c.op for c in jump_operators(h, kron(pauli("z"), identity(2)))}
        for w, op in chans.items():
            assert np.max(np.abs(chans[-w] - op.conj().T)) < 1e-10

    def test_degenerate_levels_merged(self):
        # kappa=0 makes |01> and |10> degenerate; projector sum is basis free
        h = hamiltonian(ProbeAncillaModel(1.0, 1.0, 0.0, BATH, 0.0))
        a = kron(identity(2), pauli("z"))
        chans = jump_operators(h, a)
        assert len(chans) == 1 and chans[0].omega == 0.0
        assert np.max(np.abs(chans[0].op - a)) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            jump_operators(np.array([[0, 1], [0, 0]], dtype=complex), pauli("z"))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(NonPositiveInput):
            jump_operators(pauli("z"), pauli("x"), freq_tol=0.0)


def models_under_test():
    pa = ProbeAncillaModel(1.0, 1.0, 0.8, BATH, np.pi / 2)
    direct = DirectProbeModel(1.0, BATH)
    local = TwoQubitModel(1.0, 0.6, LocalBaths(BATH, BathSpec(0.05, 10.0, 0.4)), 0.0)
    common = TwoQubitModel(
        1.0, 0.6, CommonBath(eta1=0.01, eta2=0.05, cutoff=10.0, temperature=0.4), np.pi / 2
    )
    return [pa, direct, local, common]


class TestLiouvillian:
    @pytest.mark.parametrize("model", models_under_test())
    def test_trace_and_hermiticity_preservation(self, model):
        liou = build_liouvillian(model)
        for e in matrix_basis(liou.dim):
            image = liou.apply(e)
            assert abs(np.trace(image)) < 1e-10
            assert np.max(np.abs(liou.apply(e.conj().T) - image.conj().T)) < 1e-10

    def test_unitary_when_decoupled(self):
        model = ProbeAncillaModel(1.0, 1.0, 0.8, BathSpec(0.0, 10.0, 0.4), np.pi / 2)
        liou = build_liouvillian(model)
        h = liou.hamiltonian
        assert np.max(np.abs(liou.superop - commutator_superop(h))) < 1e-14

    def test_swap_symmetric_evolution_common_bath(self):
        model = TwoQubitModel(
            1.0, 0.6, CommonBath(eta1=0.02, eta2=0.02, cutoff=10.0, temperature=0.4), np.pi / 2
        )
        liou = build_liouvillian(model)
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
        rho_t = unvec(expm(liou.superop * 7.3) @ vec(initial_state(model)))
        assert np.max(np.abs(swap @ rho_t @ swap - rho_t)) < 1e-12

    @pytest.mark.parametrize("model", models_under_test())
    def test_choi_positivity(self, model):
        liou = build_liouvillian(model)
        for t in (0.1, 1.0, 10.0):
            choi = choi_matrix(expm(liou.superop * t))
            lam = np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))
            assert lam.min() > -1e-8

    def test_channel_rates_match_convention(self):
        model = ProbeAncillaModel(1.0, 1.0, 0.8, BATH, np.pi / 2)
        liou = build_liouvillian(model)
        for ch, rate in zip(liou.channels, liou.rates):
            assert rate == pytest.approx(decoherence_rate(ch.omega, BATH), rel=1e-14)

    def test_vectorization_convention_fixture(self):
        # frozen fixture: pure dephasing qubit, L = -i[H, .] + g D[sz]
        g = 0.0251327412287183
        liou = build_liouvillian(DirectProbeModel(1.0, BATH))
        sz = pauli("z")
        i2 = identity(2)
        expected = (
            -1j * (kron(i2, 0.5 * sz) - kron(0.5 * sz.T, i2))
            + g * (kron(sz.conj(), sz) - identity(4))
        )
        assert np.max(np.abs(liou.superop - expected)) < 1e-12

    def test_common_bath_cancellation_at_equal_couplings(self):
        # equal couplings to one bath cancel the exchange-sector channels:
        # the entangled preparation then never thermalizes
        model = TwoQubitModel(
            1.0, 0.6, CommonBath(eta1=0.02, eta2=0.02, cutoff=10.0, temperature=0.4), np.pi / 2
        )
        liou = build_liouvillian(model)
        rho0 = initial_state(model)
        rho_t = unvec(expm(liou.superop * 500.0) @ vec(rho0))
        assert np.max(np.abs(rho_t - rho0)) < 1e-8


class TestTemperatureDerivative:
    """``d_superop`` is the exact dL/dT: only n(w) and the zero-frequency rate
    depend on T."""

    @pytest.mark.parametrize("omega", [-2.4, -0.3, 0.0, 0.3, 2.4])
    @pytest.mark.parametrize("temperature", [0.05, 0.4, 2.0])
    def test_rate_derivative(self, omega, temperature):
        from qthermo.master_equation import _rate_and_derivative

        h = 1e-5 * temperature
        rate = lambda tv: decoherence_rate(omega, BathSpec(0.03, 10.0, tv))  # noqa: E731
        g, dg = _rate_and_derivative(omega, BathSpec(0.03, 10.0, temperature))
        assert g == rate(temperature)
        assert dg == pytest.approx((rate(temperature + h) - rate(temperature - h)) / (2 * h), rel=1e-8)

    @pytest.mark.parametrize("name", ["direct", "probe_ancilla", "two_qubit_local", "two_qubit_common"])
    def test_generator_derivative_matches_central_difference(self, name):
        from qthermo.experiments import make_model

        kw = dict(eta=0.03, eta2=0.05, cutoff=10.0, kappa=0.7, theta=1.0)
        temp, h = 0.4, 1e-5
        gen = lambda tv: build_liouvillian(make_model(name, temperature=tv, **kw))  # noqa: E731
        cd = (gen(temp + h).superop - gen(temp - h).superop) / (2 * h)
        exact = gen(temp).d_superop
        assert np.max(np.abs(exact - cd)) <= 1e-8 * np.max(np.abs(exact))
        # dL/dT keeps trace and Hermiticity: it generates no trace and maps
        # Hermitian matrices to Hermitian ones
        d = int(np.sqrt(exact.shape[0]))
        for e in matrix_basis(d):
            image = unvec(exact @ vec(e))
            assert abs(np.trace(image)) < 1e-12
            assert np.max(np.abs(unvec(exact @ vec(e.conj().T)) - image.conj().T)) < 1e-12
