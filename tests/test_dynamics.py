import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from qthermo import dynamics
from qthermo.dynamics import (
    EQUAL_EIG_TOL,
    SPECTRAL_COND_MAX,
    SPECTRAL_RESIDUAL_MAX,
    _Evolution,
    propagate,
)
from qthermo.errors import NoConvergence, NonPositiveInput, PositivityViolation
from qthermo.experiments import TemperatureFamily
from qthermo.linalg import expm, identity, partial_trace, pauli, unvec, vec
from qthermo.master_equation import (
    Liouvillian,
    build_liouvillian,
    _rate_and_derivative,
    commutator_superop,
    dissipator_superop,
)
from qthermo.models import (
    BathSpec,
    CommonBath,
    DirectProbeModel,
    LocalBaths,
    ProbeAncillaModel,
    TwoQubitModel,
    initial_state,
)
from reference import jump_operators, steady_state, steady_two_qubit

BATH = BathSpec(eta=0.01, cutoff=10.0, temperature=0.4)


def evolution_of(liou, rho0):
    """The one-item evolution of ``rho0`` under ``liou``."""
    return _Evolution([liou], [rho0], [0])


def pa_liouvillian(eta=0.01, kappa=0.8, theta=np.pi / 2):
    model = ProbeAncillaModel(kappa, BathSpec(eta, 10.0, 0.4), theta)
    return build_liouvillian(model), initial_state(model)


def custom_liouvillian(h, couplings):
    """Assemble a generator and its dL/dT from explicit (operator, bath) pairs."""
    superop = commutator_superop(h)
    d_superop = np.zeros_like(superop)
    for a, bath in couplings:
        ws, jumps = jump_operators(h, a)
        for w, op in zip(ws.tolist(), jumps):
            g, dg = _rate_and_derivative(w, bath)
            superop = superop + g * dissipator_superop(op)
            d_superop = d_superop + dg * dissipator_superop(op)
    return Liouvillian(superop=superop, d_superop=d_superop)


class TestPropagate:
    def test_identity_at_zero_time(self):
        liou, rho0 = pa_liouvillian()
        rho, drho = propagate(liou, rho0, 0.0)
        assert np.max(np.abs(rho - rho0)) < 1e-14
        assert not np.any(drho)

    def test_eigenstate_stationary_without_bath(self):
        liou, _ = pa_liouvillian(eta=0.0)
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |00> is a Hamiltonian eigenstate
        assert np.max(np.abs(propagate(liou, rho, 17.0)[0] - rho)) < 1e-12

    def test_semigroup(self):
        liou, rho0 = pa_liouvillian()
        one = propagate(liou, rho0, 11.0)[0]
        two = propagate(liou, propagate(liou, rho0, 4.0)[0], 7.0)[0]
        assert np.max(np.abs(one - two)) < 1e-9

    def test_rejects_negative_time(self):
        liou, rho0 = pa_liouvillian()
        with pytest.raises(NonPositiveInput):
            propagate(liou, rho0, -1.0)

    @pytest.mark.parametrize("t", [np.nan, [0.0, 2.0, np.nan], [np.nan, np.inf]])
    def test_rejects_nan_time(self, t):
        liou, rho0 = pa_liouvillian()
        with pytest.raises(NonPositiveInput, match="^propagation time must be >= 0, got nan$"):
            propagate(liou, rho0, t)

    @pytest.mark.parametrize("t", [np.inf, [0.0, 3.0, np.inf]])
    def test_rejects_infinite_time(self, t):
        # the steady state is the rate law's, which a model's family gives
        liou, rho0 = pa_liouvillian()
        with pytest.raises(NonPositiveInput, match="must be finite, got inf: .*TemperatureFamily"):
            propagate(liou, rho0, t)

    @pytest.mark.parametrize("spectral", [True, False])
    def test_initial_state_exactly_at_zero_time(self, monkeypatch, spectral):
        # a grid without t = inf takes every time through one route, t = 0
        # included, whose rows are then rho0 and 0; the exponentials are
        # made inexact at the rounding level, which those rows must not show
        liou, rho0 = pa_liouvillian(theta=0.7)
        if not spectral:
            monkeypatch.setattr(dynamics, "SPECTRAL_COND_MAX", 0.0)
            monkeypatch.setattr(dynamics, "expm", lambda m: expm(m) * (1.0 + 2e-16))
        evolution = evolution_of(liou, rho0)
        assert (evolution.basis[0] is not None) == spectral
        rho, drho = evolution([0.0, 3.0, 0.0], 0)
        assert np.array_equal(rho[[0, 2]], [rho0, rho0]) and not drho[[0, 2]].any()
        assert not np.allclose(rho[1], rho0)

    def test_positivity_violation_detected(self):
        # negative-rate dissipator amplifies coherences: not a valid channel
        sz = pauli("z")
        bad = Liouvillian(superop=-0.1 * dissipator_superop(sz), d_superop=np.zeros((4, 4), dtype=complex))
        rho0 = 0.5 * np.ones((2, 2), dtype=complex)
        with pytest.raises(PositivityViolation):
            propagate(bad, rho0, 5.0)


class TestGrid:
    def test_two_point_grid(self):
        liou, rho0 = pa_liouvillian()
        rho, drho = propagate(liou, rho0, [0.0, 5.0])
        assert rho.shape == drho.shape == (2, 4, 4)
        assert np.max(np.abs(rho[0] - rho0)) < 1e-14

    def test_grid_matches_single_times(self):
        liou, rho0 = pa_liouvillian()
        times = np.linspace(0.0, 20.0, 41)
        rho, drho = propagate(liou, rho0, times)
        for t, state, deriv in zip(times, rho, drho):
            one, d_one = propagate(liou, rho0, t)
            assert np.max(np.abs(state - one)) < 1e-10
            assert np.max(np.abs(deriv - d_one)) < 1e-10

    def test_every_state_valid(self):
        liou, rho0 = pa_liouvillian()
        states = propagate(liou, rho0, np.linspace(0.0, 50.0, 201))[0]
        for s in states:
            assert abs(np.trace(s).real - 1.0) < 1e-10
        for r in partial_trace(states, keep=1):
            assert r.shape == (2, 2)
            assert abs(np.trace(r).real - 1.0) < 1e-10

    def test_sector_populations_frozen(self):
        # starting inside {|01>, |10>}, the |00> and |11> populations stay 0
        model = TwoQubitModel(
            0.6, LocalBaths(BATH, BathSpec(0.05, 10.0, 0.4)), np.pi / 3
        )
        liou = build_liouvillian(model)
        states = propagate(liou, initial_state(model), np.linspace(0.0, 100.0, 101))[0]
        leak = max(
            max(abs(s[0, 0].real), abs(s[3, 3].real)) for s in states
        )
        assert leak < 1e-10

    def test_long_horizon_convergence(self):
        model = TwoQubitModel(
            0.6, LocalBaths(BATH, BathSpec(0.05, 10.0, 0.4)), np.pi / 2
        )
        liou = build_liouvillian(model)
        states = propagate(liou, initial_state(model), np.linspace(0.0, 1000.0, 60))[0]
        gap = np.max(np.abs(states[-1] - states[-2]))
        assert gap < 1e-8


class TestStacks:
    """Grids of states come back as one validated ``(n_t, d, d)`` stack."""

    def test_grid_equals_per_state_loop(self):
        liou, rho0 = pa_liouvillian()
        times = np.linspace(0.0, 50.0, 101)
        states = propagate(liou, rho0, times)[0]
        assert states.shape == (101, 4, 4)
        for t, rho in zip(times, states):
            ref = unvec(expm(liou.superop * t) @ vec(rho0))
            assert np.max(np.abs(rho - 0.5 * (ref + ref.conj().T))) <= 1e-12

    @pytest.mark.parametrize("make", [
        lambda: DirectProbeModel(BATH),
        lambda: ProbeAncillaModel(0.8, BATH, np.pi / 2),
        lambda: TwoQubitModel(0.6, LocalBaths(BATH, BathSpec(0.05, 10.0, 0.4)), np.pi / 2),
        lambda: TwoQubitModel(0.6, CommonBath(0.01, 0.05, 10.0, 0.4), 0.0),
    ])
    def test_spectral_states_match_exponentials(self, make):
        model = make()
        liou, rho0 = build_liouvillian(model), initial_state(model)
        times = np.concatenate([[0.0], np.geomspace(0.01, 2000.0, 59)])
        # the spectral route is taken on every model, not the fallback
        assert evolution_of(liou, rho0).basis[0] is not None
        got = propagate(liou, rho0, times)[0]
        ref = np.array([unvec(expm(liou.superop * t) @ vec(rho0)) for t in times])
        assert got.shape == (60, *rho0.shape)
        assert np.max(np.abs(got - ref)) <= 1e-12
        assert np.array_equal(got[0], rho0)  # t = 0 is rho0 itself

    def test_probe_ancilla_uniform_grid_match(self):
        liou, rho0 = pa_liouvillian()
        times = np.linspace(0.0, 50.0, 500)
        got = propagate(liou, rho0, times)[0]
        ref = unvec(np.array([expm(liou.superop * t) @ vec(rho0) for t in times]))
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_defective_generator_falls_back_to_exponentials(self):
        # Rabi drive at the dephasing rate: the (y, z) Bloch block
        # [[-2g, -g], [g, 0]] is a Jordan block, so L has no eigenbasis
        g = 0.3
        h = 0.5 * g * pauli("x")
        liou = Liouvillian(
            superop=commutator_superop(h) + g * dissipator_superop(pauli("z")),
            d_superop=np.zeros((4, 4), dtype=complex),
        )
        _, v = np.linalg.eig(liou.superop)
        assert np.linalg.cond(v) > SPECTRAL_COND_MAX
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        times = np.linspace(0.0, 20.0, 41)
        assert evolution_of(liou, rho0).basis[0] is None
        got = propagate(liou, rho0, times)[0]
        ref = np.array([unvec(expm(liou.superop * t) @ vec(rho0)) for t in times])
        assert np.array_equal(got, 0.5 * (ref + ref.conj().transpose(0, 2, 1)))

    def test_conditioning_test_is_conservative(self):
        # ||V||_F ||V^-1||_F >= cond_2(V): over the accepted ranges the bound
        # accepts no basis that cond_2 rejects, the decomposition is dropped
        # exactly when the bound or the residual test rejects it, and no draw
        # changes route against the cond_2 test.  The bound can exceed
        # cond_2 by up to d^2, so the last 100 draws aim at the common bath
        # near eta1 = eta2, where V is worst conditioned short of defective.
        rng = np.random.default_rng(28)

        def log(lo, hi):
            return 10 ** rng.uniform(np.log10(lo), np.log10(hi))

        accepted = 0
        for i in range(400):
            temp, kappa, eta, eta2 = log(1e-4, 1e3), log(1e-6, 1e2), rng.uniform(0, 5), log(1e-4, 5)
            cutoff, theta = log(0.1, 1e4), rng.uniform(0, np.pi)
            if i >= 300:  # eta2 = eta1 (1 + delta), |delta| from 1e-12 to 0.1, or exactly eta1
                eta = log(1e-4, 5)
                eta2 = eta * (1 + rng.choice([-1, 1]) * log(1e-12, 0.1)) if i % 4 else eta
            bath = BathSpec(eta, cutoff, temp)
            model = [
                DirectProbeModel(bath),
                ProbeAncillaModel(kappa, bath, theta),
                TwoQubitModel(kappa, LocalBaths(bath, BathSpec(eta2, cutoff, temp)), theta),
                TwoQubitModel(kappa, CommonBath(eta, eta2, cutoff, temp), theta),
            ][3 if i >= 300 else i % 4]
            liou = build_liouvillian(model)
            evolution = evolution_of(liou, initial_state(model))
            _, v = np.linalg.eig(liou.superop)
            v_inv = np.linalg.inv(v)
            bounded = np.linalg.norm(v) * np.linalg.norm(v_inv) <= SPECTRAL_COND_MAX
            conditioned = np.linalg.cond(v) <= SPECTRAL_COND_MAX
            assert conditioned or not bounded, (i, model)
            residual = np.max(np.abs((v * evolution.lam[0]) @ v_inv - liou.superop))
            fits = residual <= SPECTRAL_RESIDUAL_MAX * np.max(np.abs(liou.superop))
            assert (evolution.basis[0] is None) == (not (bounded and fits)), (i, model)
            assert (bounded and fits) == (conditioned and fits), (i, model)
            accepted += evolution.basis[0] is not None
        assert accepted >= 380

    def test_singular_eigenvector_matrix_falls_back(self, monkeypatch):
        liou, rho0 = pa_liouvillian()
        times = [0.0, 1.0, 30.0]
        ref = propagate(liou, rho0, times)

        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        evolution = evolution_of(liou, rho0)
        assert evolution.basis == [None]
        rho, drho = evolution(times, 0)
        assert np.max(np.abs(rho - ref[0])) <= 1e-12
        assert np.max(np.abs(drho - ref[1])) <= 1e-10 * np.max(np.abs(ref[1]))

    @pytest.mark.parametrize("config", [
        LocalBaths(BathSpec(0.01, 0.05, 0.4), BathSpec(0.05, 0.05, 0.4)),
        CommonBath(0.01, 0.05, 0.05, 0.4),
    ])
    @pytest.mark.parametrize("theta", [0.0, np.pi / 2])
    def test_zeroed_decaying_mode_falls_back_to_exponentials(self, config, theta):
        # the two-qubit defaults at cutoff 0.05: a decaying mode within
        # EQUAL_EIG_TOL of 0 is zeroed as stationary, and the zeroed
        # decomposition no longer reproduces L although the eigenbasis is fine
        model = TwoQubitModel(0.6, config, theta)
        liou, rho0 = build_liouvillian(model), initial_state(model)
        lam, v = np.linalg.eig(liou.superop)
        v_inv = np.linalg.inv(v)
        rel = np.abs(lam) / np.max(np.abs(lam))
        assert np.any((rel > 1e-12) & (rel <= EQUAL_EIG_TOL))
        assert np.linalg.cond(v) <= SPECTRAL_COND_MAX
        residual = np.max(np.abs((v * lam) @ v_inv - liou.superop))
        assert residual <= SPECTRAL_RESIDUAL_MAX * np.max(np.abs(liou.superop))
        assert evolution_of(liou, rho0).basis[0] is None
        for t in (1.0, 100.0, 1e4):
            ref = unvec(v @ (np.exp(lam * t) * (v_inv @ vec(rho0))))
            assert np.max(np.abs(propagate(liou, rho0, t)[0] - ref)) <= 1e-11

    def test_propagate_validates_the_stack(self):
        sz = pauli("z")
        bad = Liouvillian(superop=-0.1 * dissipator_superop(sz), d_superop=np.zeros((4, 4), dtype=complex))
        rho0 = 0.5 * np.ones((2, 2), dtype=complex)
        with pytest.raises(PositivityViolation):
            propagate(bad, rho0, [0.0, 1.0, 5.0])
        with pytest.raises(NonPositiveInput):
            propagate(*pa_liouvillian(), [0.0, -1.0])

    def test_shared_evolution_under_thread_contention(self):
        # one two-item evolution of one generator, called by more threads
        # than cores, switching often, on four grids and both items, must
        # give each call the bits of a one-item evolution of its own
        liou, rho0 = pa_liouvillian(theta=0.3)
        other = pa_liouvillian(theta=2.0)[1]
        shared = _Evolution([liou], [rho0, other], [0, 0])
        grids = [np.linspace(0.0, 5.0 + k, 40 + k) for k in range(4)]
        jobs = [(i, g) for i in range(2) for g in range(4)] * 20
        want = {(i, g): evolution_of(liou, (rho0, other)[i])(grids[g], 0) for i, g in jobs[:8]}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda i, g: shared(grids[g], i), i, g) for i, g in jobs]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (i, g), states in zip(jobs, got):
            for a, b in zip(states, want[i, g]):
                assert a.tobytes() == b.tobytes()


class TestExactDerivative:
    """States' temperature derivatives from the decomposition of L."""

    MODELS = [
        lambda: DirectProbeModel(BATH),
        lambda: ProbeAncillaModel(0.8, BATH, np.pi / 2),
        lambda: TwoQubitModel(0.6, LocalBaths(BATH, BathSpec(0.05, 10.0, 0.4)), np.pi / 2),
        lambda: TwoQubitModel(0.6, CommonBath(0.01, 0.05, 10.0, 0.4), 0.3),
    ]

    @pytest.mark.parametrize("make", MODELS)
    def test_spectral_matches_block_exponentials(self, make):
        model = make()
        evolution = evolution_of(build_liouvillian(model), initial_state(model))
        assert evolution.basis[0] is not None
        times = np.concatenate([[0.0], np.geomspace(0.01, 2000.0, 29)])
        rho, drho = evolution(times, 0)
        vecs, dvecs = evolution._exponentials(0, times)
        ref = unvec(dvecs)
        ref = 0.5 * (ref + ref.conj().transpose(0, 2, 1))
        assert np.max(np.abs(rho - unvec(vecs))) <= 1e-12
        assert np.max(np.abs(drho - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert np.array_equal(drho[0], np.zeros_like(drho[0]))  # rho0 does not depend on T

    def test_defective_generator_uses_block_exponentials(self):
        # the Rabi drive at the dephasing rate of the stacks test, with the
        # rate g = 0.3 T / 0.4 so that dL/dT = (0.3 / 0.4) D[sz]
        h = 0.15 * pauli("x")
        gen = lambda temp: commutator_superop(h) + 0.75 * temp * dissipator_superop(pauli("z"))  # noqa: E731
        liou = Liouvillian(superop=gen(0.4), d_superop=0.75 * dissipator_superop(pauli("z")))
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        evolution = evolution_of(liou, rho0)
        assert evolution.basis[0] is None
        times = np.linspace(0.0, 20.0, 11)
        _, drho = evolution(times, 0)
        step = 1e-5
        state = lambda temp: unvec(np.array([expm(gen(temp) * t) @ vec(rho0) for t in times]))  # noqa: E731
        cd = (state(0.4 + step) - state(0.4 - step)) / (2 * step)
        assert np.max(np.abs(drho - cd)) <= 1e-8

    @pytest.mark.parametrize("common", [False, True])
    def test_steady_derivative_matches_closed_form(self, common):
        kappa, temp = 0.6, 0.4
        cfg = (CommonBath(0.01, 0.05, 10.0, temp) if common
               else LocalBaths(BathSpec(0.01, 10.0, temp), BathSpec(0.05, 10.0, temp)))
        model = TwoQubitModel(kappa, cfg, np.pi / 2)
        _, drho = TemperatureFamily(model).state_and_derivative(np.inf)
        exact = np.zeros((4, 4), dtype=complex)
        # d/dT of the exchange coherence tanh(-kappa/T)/2; the populations are fixed by rho0
        exact[1, 2] = exact[2, 1] = 0.5 * kappa / temp**2 / np.cosh(kappa / temp) ** 2
        assert np.max(np.abs(drho - exact)) <= 1e-10


class TestExchangeSectorOracle:
    """Hand-derived solution of the {|01>, |10>} sector dynamics.

    In the coupled basis |+->, the populations follow a two-state rate
    equation with emission/absorption rates summed over the baths (for a
    shared bath: with the cross terms folded in, (sqrt(J1) -+ sqrt(J2))^2
    replaces J1 + J2), and the single coherence precesses at 2*kappa while
    decaying at half the total rate.  Everything else about the generator
    (zero-frequency channels, the {|00>, |11>} block) leaves the sector
    untouched.  This closed form is derived independently of the
    superoperator assembly and pins it end to end.
    """

    @staticmethod
    def sector_rates(kappa, common, eta1, eta2, cutoff, temp):
        from qthermo.master_equation import spectral_density, thermal_occupation

        w = 2.0 * kappa
        n = thermal_occupation(w, temp)
        j1 = spectral_density(w, BathSpec(eta1, cutoff, temp))
        j2 = spectral_density(w, BathSpec(eta2, cutoff, temp))
        j_eff = (np.sqrt(j1) - np.sqrt(j2)) ** 2 if common else j1 + j2
        return 2 * np.pi * j_eff * (n + 1.0), 2 * np.pi * j_eff * n

    @classmethod
    def sector_state(cls, t, theta, kappa, common, eta1, eta2, cutoff, temp):
        down, up = cls.sector_rates(kappa, common, eta1, eta2, cutoff, temp)
        total = down + up
        p_plus_ss = up / total
        p_plus_0 = (1.0 + np.sin(theta)) / 2.0
        p_plus = p_plus_ss + (p_plus_0 - p_plus_ss) * np.exp(-total * t)
        coh = 0.5 * np.cos(theta) * np.exp((-2j * kappa - total / 2.0) * t)
        plus = np.zeros(4, dtype=complex)
        minus = np.zeros(4, dtype=complex)
        plus[1] = plus[2] = 1.0 / np.sqrt(2.0)
        minus[1], minus[2] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
        return (
            p_plus * np.outer(plus, plus.conj())
            + (1.0 - p_plus) * np.outer(minus, minus.conj())
            + coh * np.outer(plus, minus.conj())
            + np.conj(coh) * np.outer(minus, plus.conj())
        )

    @pytest.mark.parametrize("common", [False, True])
    @pytest.mark.parametrize("theta", [0.0, np.pi / 3, np.pi / 2])
    def test_propagation_matches_rate_equations(self, common, theta):
        kappa, eta1, eta2, cutoff, temp = 0.6, 0.01, 0.05, 10.0, 0.4
        if common:
            cfg = CommonBath(eta1=eta1, eta2=eta2, cutoff=cutoff, temperature=temp)
        else:
            cfg = LocalBaths(BathSpec(eta1, cutoff, temp), BathSpec(eta2, cutoff, temp))
        model = TwoQubitModel(kappa, cfg, theta)
        liou = build_liouvillian(model)
        rho0 = initial_state(model)
        for t in (0.0, 0.7, 3.0, 12.0, 60.0):
            got = propagate(liou, rho0, t)[0]
            ref = self.sector_state(t, theta, kappa, common, eta1, eta2, cutoff, temp)
            assert np.max(np.abs(got - ref)) < 1e-12

    @pytest.mark.parametrize("common", [False, True])
    def test_effective_rates_read_off_generator(self, common):
        kappa, eta1, eta2, cutoff, temp = 0.6, 0.01, 0.05, 10.0, 0.4
        if common:
            cfg = CommonBath(eta1=eta1, eta2=eta2, cutoff=cutoff, temperature=temp)
        else:
            cfg = LocalBaths(BathSpec(eta1, cutoff, temp), BathSpec(eta2, cutoff, temp))
        liou = build_liouvillian(TwoQubitModel(kappa, cfg, np.pi / 2))
        plus = np.zeros(4, dtype=complex)
        minus = np.zeros(4, dtype=complex)
        plus[1] = plus[2] = 1.0 / np.sqrt(2.0)
        minus[1], minus[2] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
        image = liou.apply(np.outer(plus, plus.conj()))
        down, up = self.sector_rates(kappa, common, eta1, eta2, cutoff, temp)
        gain = float(np.vdot(minus, image @ minus).real)
        loss = float(np.vdot(plus, image @ plus).real)
        assert gain == pytest.approx(down, rel=1e-12)
        assert loss == pytest.approx(-down, rel=1e-12)
        image_minus = liou.apply(np.outer(minus, minus.conj()))
        assert float(np.vdot(plus, image_minus @ plus).real) == pytest.approx(up, rel=1e-12)


class TestSteadyState:
    """``t = inf``: a model's family takes the rate law, and a hand-built
    generator the reference projection of ``tests/reference.py``."""

    def test_direct_probe_dephases_to_maximally_mixed(self):
        model = DirectProbeModel(BATH)
        rho, drho = TemperatureFamily(model).state_and_derivative(np.inf)
        # the coherence's limit is exactly 0, not a decaying remainder
        assert np.max(np.abs(rho - identity(2) / 2)) <= 1e-15
        assert np.max(np.abs(drho)) <= 1e-15

    def test_unique_nullspace_gives_gibbs(self):
        # transverse coupling thermalizes a qubit: unique stationary state
        h = 0.5 * pauli("z")
        liou = custom_liouvillian(h, [(pauli("x"), BATH)])
        rho, drho = steady_state(liou, np.diag([1.0, 0.0]).astype(complex))
        z = np.exp(-0.5 / 0.4) + np.exp(0.5 / 0.4)
        gibbs = np.diag([np.exp(-0.5 / 0.4), np.exp(0.5 / 0.4)]).astype(complex) / z
        assert np.max(np.abs(rho - gibbs)) < 1e-10
        assert np.max(np.abs(liou.apply(rho))) < 1e-10
        # d/dT of the excited population 1/(1 + exp(1/T)), traceless
        p = 1.0 / (1.0 + np.exp(1.0 / 0.4))
        d_gibbs = np.diag([1.0, -1.0]).astype(complex) * p * (1.0 - p) / 0.4**2
        assert np.max(np.abs(drho - d_gibbs)) < 1e-10

    @pytest.mark.parametrize("theta", [0.0, np.pi / 2])
    @pytest.mark.parametrize("common", [False, True])
    def test_two_qubit_thermalization(self, theta, common):
        if common:
            cfg = CommonBath(eta1=0.01, eta2=0.05, cutoff=10.0, temperature=0.4)
        else:
            cfg = LocalBaths(BATH, BathSpec(0.05, 10.0, 0.4))
        model = TwoQubitModel(0.6, cfg, theta)
        rho, _ = TemperatureFamily(model).state_and_derivative(np.inf)
        assert np.max(np.abs(rho - steady_two_qubit(0.6, 0.4))) < 1e-12

    @pytest.mark.parametrize("make", TestExactDerivative.MODELS)
    def test_limit_of_the_grid(self, make):
        fam = TemperatureFamily(make())
        rho, drho = fam.state_and_derivative(np.array([0.0, 3.0, np.inf]))
        for t, state, deriv in zip((0.0, 3.0, np.inf), rho, drho):
            one, d_one = fam.state_and_derivative(t)
            assert np.max(np.abs(state - one)) <= 1e-15
            assert np.max(np.abs(deriv - d_one)) <= 1e-15 * max(np.max(np.abs(deriv)), 1.0)
        # far out on the grid the states and derivatives reach the limit
        late, d_late = fam.state_and_derivative(1e5)
        assert np.max(np.abs(late - rho[-1])) <= 1e-10
        assert np.max(np.abs(d_late - drho[-1])) <= 1e-8 * max(np.max(np.abs(drho[-1])), 1.0)

    def test_unitary_dynamics_have_no_limit(self):
        fam = TemperatureFamily(ProbeAncillaModel(0.8, BathSpec(0.0, 10.0, 0.4), np.pi / 2))
        with pytest.raises(NoConvergence, match="does not decay"):
            fam.state_and_derivative(np.inf)

    def test_decoherence_free_sector_has_no_limit(self):
        # a common bath with eta1 = eta2 leaves the exchange sector's
        # coherence precessing at 2 kappa forever
        model = TwoQubitModel(5.5, CommonBath(0.02, 0.02, 10.0, 0.4), np.pi / 3)
        with pytest.raises(NoConvergence, match=r"Bohr frequency -?11 forever"):
            TemperatureFamily(model).state_and_derivative(np.inf)

    @pytest.mark.parametrize("finite_first", [False, True])
    @pytest.mark.parametrize("first", [np.pi / 2, np.pi / 3])
    def test_limit_verdict_follows_each_preparation(self, first, finite_first):
        # one common-bath generator at eta1 = eta2: the decoherence-free
        # preparation (theta = pi/2) has its own limit, theta = pi/3 excites
        # the precessing exchange coherence; each item of a family that
        # shares the generator judges its own rho0
        def model(theta):
            return TwoQubitModel(5.5, CommonBath(0.02, 0.02, 10.0, 0.4), theta)

        def limit(fam, item):
            if finite_first:
                fam.state_and_derivative(3.0, item)
            return fam.state_and_derivative(np.inf, item)

        def check(fam, item, theta):
            if theta == np.pi / 2:
                got = limit(fam, item)
                fresh = TemperatureFamily(model(theta)).state_and_derivative(np.inf)
                assert all(np.array_equal(a, b) for a, b in zip(got, fresh))
                assert np.max(np.abs(got[0] - initial_state(model(theta)))) <= 1e-15
            else:
                with pytest.raises(NoConvergence, match=r"Bohr frequency -?11 forever"):
                    limit(fam, item)

        other = np.pi / 3 if first == np.pi / 2 else np.pi / 2
        fam = TemperatureFamily(model(first), model(other))
        assert len(fam.liouvillians) == 1
        check(fam, 0, first)
        check(fam, 1, other)
        check(fam, 0, first)  # the other item's verdict leaves this one's alone

    @pytest.mark.parametrize("kappa", [0.6, 5.5])
    def test_decoherence_free_preparation_is_its_own_limit(self, kappa):
        # theta = pi/2 prepares the exchange state the common bath cannot
        # reach: stationary at every T, though the sector's coherence
        # mode never decays
        model = TwoQubitModel(kappa, CommonBath(0.02, 0.02, 10.0, 0.4), np.pi / 2)
        liou, rho0 = build_liouvillian(model), initial_state(model)
        lam = evolution_of(liou, rho0).lam[0]
        assert np.any((lam != 0) & (np.abs(lam.real) <= 1e-12))
        rho, drho = TemperatureFamily(model).state_and_derivative(np.inf)
        assert np.max(np.abs(rho - rho0)) <= 1e-15
        assert np.max(np.abs(drho)) <= 1e-15

    def test_temperature_that_excites_a_precessing_mode_has_no_limit(self):
        # the populations relax and the coherence precesses undamped; rho0
        # has no coherence at any T, but dL/dT feeds p0 into it, so
        # d rho(t)/dT keeps precessing
        superop = np.zeros((4, 4), dtype=complex)  # column stacking: rho00, rho10, rho01, rho11
        superop[np.ix_([0, 3], [0, 3])] = [[-1.0, 2.0], [1.0, -2.0]]
        superop[1, 1], superop[2, 2] = 1j, -1j
        d_superop = np.zeros_like(superop)
        d_superop[1, 0] = d_superop[2, 0] = 1.0
        liou = Liouvillian(superop=superop, d_superop=d_superop)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(NoConvergence, match=r"lam = \S*[+-]1j"):
            steady_state(liou, rho0)
        # without the feed the limit exists: the populations (2, 1) / 3
        rho, drho = steady_state(replace(liou, d_superop=np.zeros_like(superop)), rho0)
        assert np.max(np.abs(rho - np.diag([2.0, 1.0]) / 3)) <= 1e-15
        assert np.max(np.abs(drho)) <= 1e-15

    def test_non_positive_limit_is_a_positivity_violation(self):
        # L x = tr(x) sigma - x relaxes every state to sigma = diag(3/2, -1/2),
        # keeping the trace: a generator bug that no convergence message may hide
        sigma = vec(np.diag([1.5, -0.5]).astype(complex))
        superop = np.outer(sigma, vec(identity(2))) - np.eye(4)
        liou = Liouvillian(superop=superop, d_superop=np.zeros_like(superop))
        with pytest.raises(PositivityViolation, match="minimum eigenvalue"):
            steady_state(liou, np.diag([1.0, 0.0]).astype(complex))
