import warnings
from dataclasses import replace

import numpy as np
import pytest

import qthermo.master_equation as me
from qthermo.errors import NegativeFrequency, NonFinite, NonHermitianInput, NonPositiveInput
from qthermo.linalg import choi_matrix, expm, identity, kron, pauli, unvec, vec
from qthermo.master_equation import (
    DEFAULT_FREQ_TOL,
    assemble_liouvillian,
    build_liouvillian,
    commutator_superop,
    decoherence_rate,
    dissipator_superop,
    jump_channels,
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
    coupling_operators,
    hamiltonian,
    initial_state,
)
from reference import jump_operators

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
        model = ProbeAncillaModel(0.8, BATH, np.pi / 2)
        h = hamiltonian(model)
        a = kron(identity(2), pauli("z"))
        omegas, ops = jump_operators(h, a)
        assert np.allclose(omegas, [-1.6, 0.0, 1.6], atol=1e-9)
        oracle = brute_force_channels(h, a)
        assert len(oracle) == 3
        for w, op in zip(omegas.tolist(), ops):
            assert np.max(np.abs(op - oracle[round(w, 9)])) < 1e-9

    def test_identity_coupling(self):
        h = hamiltonian(ProbeAncillaModel(0.8, BATH, 0.0))
        omegas, ops = jump_operators(h, identity(4))
        assert omegas.tolist() == [0.0]
        assert np.allclose(ops[0], identity(4))

    def test_direct_probe_single_channel(self):
        omegas, ops = jump_operators(0.5 * pauli("z"), pauli("z"))
        assert omegas.tolist() == [0.0]
        assert np.allclose(ops[0], pauli("z"))

    def test_sigma_x_coupling_two_channels(self):
        # non-commuting coupling splits into raising and lowering parts
        omegas, _ = jump_operators(0.5 * pauli("z"), pauli("x"))
        assert np.allclose(omegas, [-1.0, 1.0])

    def test_ladder_relation(self):
        for kappa in (0.3, 0.8, 1.3):
            h = hamiltonian(ProbeAncillaModel(kappa, BATH, 0.0))
            a = kron(identity(2), pauli("z"))
            omegas, ops = jump_operators(h, a)
            defect = ops @ h - h @ ops - omegas[:, None, None] * ops
            assert np.max(np.abs(defect)) < 1e-9

    def test_completeness(self, rng):
        from conftest import random_hermitian

        h = random_hermitian(rng, 4)
        a = random_hermitian(rng, 4)
        _, ops = jump_operators(h, a)
        assert np.max(np.abs(ops.sum(axis=0) - a)) < 1e-10

    def test_adjoint_pairing(self):
        h = hamiltonian(TwoQubitModel(0.6, LocalBaths(BATH, BATH), 0.0))
        omegas, ops = jump_operators(h, kron(pauli("z"), identity(2)))
        chans = {round(w, 9): op for w, op in zip(omegas.tolist(), ops)}
        for w, op in chans.items():
            assert np.max(np.abs(chans[-w] - op.conj().T)) < 1e-10

    def test_degenerate_levels_merged(self):
        # kappa=0 makes |01> and |10> degenerate; projector sum is basis free
        h = hamiltonian(ProbeAncillaModel(0.0, BATH, 0.0))
        a = kron(identity(2), pauli("z"))
        omegas, ops = jump_operators(h, a)
        assert omegas.tolist() == [0.0]
        assert np.max(np.abs(ops[0] - a)) < 1e-12

    def test_pruning_is_relative_to_the_coupling(self):
        # the decomposition is linear in a, so a weak coupling keeps its
        # channels: sqrt(eta) scales a common bath's collective operator
        h = hamiltonian(ProbeAncillaModel(0.8, BATH, 0.0))
        a = kron(identity(2), pauli("z"))
        strong = jump_operators(h, a)
        weak = jump_operators(h, 1e-15 * a)
        assert weak[0].tolist() == strong[0].tolist()
        assert np.max(np.abs(weak[1] - 1e-15 * strong[1])) < 1e-28
        omegas, ops = jump_operators(h, 0.0 * a)
        assert omegas.shape == (0,) and ops.shape == (0, 4, 4)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            jump_operators(np.array([[0, 1], [0, 0]], dtype=complex), pauli("z"))


def models_under_test():
    pa = ProbeAncillaModel(0.8, BATH, np.pi / 2)
    direct = DirectProbeModel(BATH)
    local = TwoQubitModel(0.6, LocalBaths(BATH, BathSpec(0.05, 10.0, 0.4)), 0.0)
    common = TwoQubitModel(
        0.6, CommonBath(eta1=0.01, eta2=0.05, cutoff=10.0, temperature=0.4), np.pi / 2
    )
    return [pa, direct, local, common]


class TestLiouvillian:
    @pytest.mark.parametrize("model", models_under_test())
    def test_trace_and_hermiticity_preservation(self, model):
        liou = build_liouvillian(model)
        for e in matrix_basis(len(hamiltonian(model))):
            image = liou.apply(e)
            assert abs(np.trace(image)) < 1e-10
            assert np.max(np.abs(liou.apply(e.conj().T) - image.conj().T)) < 1e-10

    def test_unitary_when_decoupled(self):
        model = ProbeAncillaModel(0.8, BathSpec(0.0, 10.0, 0.4), np.pi / 2)
        liou = build_liouvillian(model)
        h = hamiltonian(model)
        assert np.max(np.abs(liou.superop - commutator_superop(h))) < 1e-14

    def test_swap_symmetric_evolution_common_bath(self):
        model = TwoQubitModel(
            0.6, CommonBath(eta1=0.02, eta2=0.02, cutoff=10.0, temperature=0.4), np.pi / 2
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
        model = ProbeAncillaModel(0.8, BATH, np.pi / 2)
        ch = jump_channels(model)
        assert len(ch.rates) == len(ch.omegas) == len(ch.ops) == len(ch.bath_index) == 3
        for w, rate in zip(ch.omegas.tolist(), ch.rates):
            assert rate == pytest.approx(decoherence_rate(w, BATH), rel=1e-14)

    @pytest.mark.parametrize("eta, temperature, largest", [
        (2e307, 1.0, "1.25664e\\+308"),  # a finite rate whose D[sz] term 2 g overflows
        (1e300, 1e300, "inf"),
    ])
    def test_overflowing_generator_is_non_finite(self, eta, temperature, largest):
        model = DirectProbeModel(BathSpec(eta, 10.0, temperature))
        with pytest.raises(NonFinite, match=f"largest rate {largest}$"), np.errstate(all="ignore"):
            build_liouvillian(model)

    def test_vectorization_convention_fixture(self):
        # frozen fixture: pure dephasing qubit, L = -i[H, .] + g D[sz]
        g = 0.0251327412287183
        liou = build_liouvillian(DirectProbeModel(BATH))
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
            0.6, CommonBath(eta1=0.02, eta2=0.02, cutoff=10.0, temperature=0.4), np.pi / 2
        )
        liou = build_liouvillian(model)
        rho0 = initial_state(model)
        rho_t = unvec(expm(liou.superop * 500.0) @ vec(rho0))
        assert np.max(np.abs(rho_t - rho0)) < 1e-8

    def test_uncoupled_common_bath_is_the_bare_commutator(self):
        # a zero collective operator leaves no channel
        model = TwoQubitModel(
            0.6, CommonBath(eta1=0.0, eta2=0.0, cutoff=10.0, temperature=0.4), np.pi / 2
        )
        ch = jump_channels(model)
        liou = assemble_liouvillian(ch)
        assert ch.omegas.shape == ch.bath_index.shape == ch.rates.shape == (0,)
        assert ch.ops.shape == (0, 4, 4)
        assert liou.superop.tobytes() == commutator_superop(ch.hamiltonian).tobytes()
        assert not liou.d_superop.any()


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

    @pytest.mark.parametrize("omega", [-2.4, 2.4])
    def test_rate_derivative_at_extreme_temperatures(self, omega):
        from qthermo.master_equation import _rate_and_derivative

        # n -> T/|w| as T grows, so dn/dT -> 1/|w| while T^2 and n (n + 1) overflow
        hot = BathSpec(0.03, 10.0, 1e300)
        j = spectral_density(abs(omega), hot)
        g, dg = _rate_and_derivative(omega, hot)
        assert g == pytest.approx(2 * np.pi * j * 1e300 / abs(omega), rel=1e-12)
        assert dg == pytest.approx(2 * np.pi * j / abs(omega), rel=1e-12)
        # exp(-|w|/T) and T^2 underflow to 0 as T -> 0: no absorption, and no T dependence
        g, dg = _rate_and_derivative(omega, replace(hot, temperature=1e-300))
        assert (g, dg) == ((2 * np.pi * j, 0.0) if omega > 0 else (0.0, 0.0))

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


# -- the stacked build against the per-channel one --------------------------


def _cluster(values, tol):
    """Sorted scalars in chains with consecutive gaps <= tol."""
    groups = []
    for v in values:
        if groups and v - groups[-1][-1] <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return groups


def loop_jump_operators(h, a, freq_tol=DEFAULT_FREQ_TOL):
    """The per-level, per-frequency loop decomposition: [(omega, op)]."""
    vals, vecs = me.eig_hermitian(h)
    energies, projectors, idx = [], [], 0
    for g in _cluster(list(vals), freq_tol):
        cols = vecs[:, idx: idx + len(g)]
        energies.append(float(np.mean(g)))
        projectors.append(cols @ cols.conj().T)
        idx += len(g)
    p = np.stack(projectors)
    ops = p[:, None] @ a @ p[None, :]
    raw = [(e_m - e_n, ops[n, m]) for n, e_n in enumerate(energies) for m, e_m in enumerate(energies)]
    raw.sort(key=lambda t: t[0])
    out = []
    for group in _cluster([w for w, _ in raw], freq_tol):
        total = sum(op for w, op in raw if group[0] <= w <= group[-1])
        if np.max(np.abs(total)) <= me.CHANNEL_PRUNE_TOL * np.max(np.abs(a)):
            continue
        omega = float(np.mean(group))
        out.append((0.0 if abs(omega) < freq_tol else omega, total))
    return out


def scalar_rate(omega, bath):
    """Golden-rule rate and its T derivative of one channel, scalar code."""
    if omega == 0.0:
        return 2.0 * np.pi * bath.eta * bath.temperature, 2.0 * np.pi * bath.eta
    aw, temp = abs(omega), bath.temperature
    n = np.exp(-aw / temp) / (-np.expm1(-aw / temp))
    j = bath.eta * aw * np.exp(-aw / bath.cutoff)
    dn = n * (n + 1.0) * aw / temp**2
    return 2.0 * np.pi * j * (n + 1.0 if omega > 0 else n), 2.0 * np.pi * j * dn


def cross_dissipator(a1, a2):
    """Cross terms of a shared bath, pairing two jump operators both ways:
    ``a2 rho a1† - {a1† a2, rho}/2`` plus the same with 1 <-> 2."""
    i_d = identity(a1.shape[0])
    pairs = []
    for x, y in ((a1, a2), (a2, a1)):
        m = x.conj().T @ y
        pairs.append(kron(x.conj(), y) - 0.5 * kron(i_d, m) - 0.5 * kron(m.T, i_d))
    return 0.0 + pairs[0] + pairs[1]


def per_channel_liouvillian(model, freq_tol=DEFAULT_FREQ_TOL):
    """Channel-by-channel build: jump operators per coupling operator, one 2-D
    dissipator per channel.  A common bath is built the local way, one
    operator per qubit on its own eta, plus cross dissipators paired by
    ``round(omega / freq_tol)`` at ``sqrt(J1 J2)``."""
    h = hamiltonian(model)
    superop = commutator_superop(h)
    d_superop = np.zeros_like(superop)
    channels, rates, per_op = [], [], []
    common = is_common(model)
    if common:
        cfg = model.bath_config
        couplings = [(kron(pauli("z"), identity(2)), BathSpec(cfg.eta1, cfg.cutoff, cfg.temperature)),
                     (kron(identity(2), pauli("z")), BathSpec(cfg.eta2, cfg.cutoff, cfg.temperature))]
    else:
        couplings = coupling_operators(model)
    for index, (a, bath) in enumerate(couplings, start=1):
        chans = loop_jump_operators(h, a, freq_tol)
        per_op.append(chans)
        for w, op in chans:
            g, dg = scalar_rate(w, bath)
            dissipator = dissipator_superop(op)
            superop = superop + g * dissipator
            d_superop += dg * dissipator
            channels.append((w, op, index))
            rates.append(g)
    if common:
        cross_bath = BathSpec(float(np.sqrt(cfg.eta1 * cfg.eta2)), cfg.cutoff, cfg.temperature)
        first = {round(w / freq_tol): op for w, op in per_op[0]}
        for w, op2 in per_op[1]:
            key = round(w / freq_tol)
            if key in first:
                g, dg = scalar_rate(w, cross_bath)
                cross = cross_dissipator(first[key], op2)
                superop = superop + g * cross
                d_superop += dg * cross
    return superop, d_superop, channels, rates


def drawn_models(seed, n):
    """Every model kind, a separate eta, cutoff and T per local bath, eta = 0,
    kappa in {0, 1, 1/3, random} at unit frequencies (so degenerate levels,
    and two-qubit levels spaced equally, which puts three terms in a Bohr
    frequency group), eta2 in {0, eta} on a shared bath."""
    rng = np.random.default_rng(seed)

    def bath():
        eta = 0.0 if rng.random() < 0.1 else float(np.exp(rng.uniform(np.log(1e-3), np.log(0.3))))
        temp = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        return BathSpec(eta, float(rng.uniform(0.5, 20.0)), temp)

    def pick(*fixed):
        """Each of ``fixed`` with probability 0.2, else uniform in [0.01, 3]."""
        k = int(rng.random() * 5)
        return fixed[k] if k < len(fixed) else float(rng.uniform(0.01, 3.0))

    out = []
    for i in range(n):
        theta = float(rng.uniform(0.0, np.pi))
        if i % 4 == 0:
            out.append(DirectProbeModel(bath()))
        elif i % 4 == 1:
            out.append(ProbeAncillaModel(pick(0.0, 1.0), bath(), theta))
        elif i % 4 == 2:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # local baths at different T
                out.append(TwoQubitModel(pick(0.0, 1.0, 1 / 3), LocalBaths(bath(), bath()), theta))
        else:
            b = bath()
            eta2 = pick(0.0, b.eta)
            out.append(TwoQubitModel(pick(0.0, 1.0, 1 / 3), CommonBath(b.eta, eta2, b.cutoff, b.temperature), theta))
    return out


def is_common(model):
    return isinstance(getattr(model, "bath_config", None), CommonBath)


class TestStackedBuild:
    def test_generator_equals_per_channel_build_bit_for_bit(self):
        for model in drawn_models(7, 400):
            if is_common(model):
                continue
            superop, d_superop, channels, rates = per_channel_liouvillian(model)
            ch = jump_channels(model)
            liou = assemble_liouvillian(ch)
            assert liou.superop.tobytes() == superop.tobytes(), model
            assert liou.d_superop.tobytes() == d_superop.tobytes(), model
            assert ch.omegas.tolist() == [w for w, _, _ in channels]
            assert ch.bath_index.tolist() == [index for _, _, index in channels]
            assert [op.tobytes() for op in ch.ops] == [op.tobytes() for _, op, _ in channels]
            assert ch.rates.tolist() == rates

    def test_common_bath_equals_local_couplings_with_cross_terms(self):
        # the collective coupling sums the local and cross terms in another
        # order: equal to rounding, not bit for bit
        models = [m for m in drawn_models(7, 400) if is_common(m)]
        assert len(models) == 100
        for model in models:
            superop, d_superop, _, _ = per_channel_liouvillian(model)
            liou = build_liouvillian(model)
            assert np.max(np.abs(liou.superop - superop)) <= 4e-15 * np.max(np.abs(superop)), model
            assert np.max(np.abs(liou.d_superop - d_superop)) <= 4e-15 * np.max(np.abs(d_superop)), model

    def test_draws_cover_degenerate_spectra(self):
        models = drawn_models(7, 400)
        degenerate = sum(len(np.unique(np.round(np.linalg.eigvalsh(hamiltonian(m)), 9))) < len(hamiltonian(m))
                         for m in models)
        assert degenerate >= 20

    @pytest.mark.parametrize("levels", [
        None,  # generic spectrum
        [0.0, 1.0, 2.0, 3.0],  # equally spaced: three terms at one Bohr frequency
        [0.0, 0.0, 0.0, 1.0],  # a threefold level
    ])
    def test_jump_operators_equal_the_loop_decomposition(self, rng, levels):
        from conftest import random_hermitian

        for _ in range(50):
            a = random_hermitian(rng, 4)
            h = random_hermitian(rng, 4)
            if levels is not None:
                # splittings far below freq_tol, so groups hold unequal values
                spec = rng.uniform(0.3, 2.0) * np.array(levels) + 1e-2 * DEFAULT_FREQ_TOL * rng.normal(size=4)
                u = np.linalg.qr(random_hermitian(rng, 4))[0]
                h = u @ np.diag(spec) @ u.conj().T
                h = 0.5 * (h + h.conj().T)
            omegas, ops = jump_operators(h, a)
            got = [(w, op.tobytes()) for w, op in zip(omegas.tolist(), ops)]
            assert got == [(w, op.tobytes()) for w, op in loop_jump_operators(h, a)]

    @pytest.mark.parametrize("model", models_under_test())
    def test_one_eigensystem_per_model(self, model, monkeypatch):
        calls = []
        real = me.eig_hermitian
        monkeypatch.setattr(me, "eig_hermitian", lambda h, *a: calls.append(h) or real(h, *a))
        build_liouvillian(model)
        assert len(calls) == 1


class TestSuperoperatorStacks:
    def test_dissipator_of_a_stack_is_per_matrix(self, rng):
        stack = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        out = dissipator_superop(stack)
        assert out.shape == (5, 16, 16)
        for a, d in zip(stack, out):
            assert d.tobytes() == dissipator_superop(a).tobytes()

    def test_reference_cross_dissipator_is_the_cross_term_of_a_sum(self, rng):
        # D[a1 + a2] = D[a1] + D[a2] + cross terms: the collective coupling
        # of a common bath holds what the reference builds separately
        a1, a2 = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(2))
        expected = dissipator_superop(a1) + dissipator_superop(a2) + cross_dissipator(a1, a2)
        assert np.max(np.abs(dissipator_superop(a1 + a2) - expected)) < 1e-13

    def test_two_d_dissipator_matches_its_definition(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        ada = a.conj().T @ a
        expected = a @ rho @ a.conj().T - 0.5 * (ada @ rho + rho @ ada)
        assert np.allclose(unvec(dissipator_superop(a) @ vec(rho)), expected, atol=1e-12)
