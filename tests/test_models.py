import warnings

import numpy as np
import pytest

from qthermo.errors import ValidationError
from qthermo.linalg import eig_hermitian, identity, kron, pauli
from qthermo.models import (
    BathSpec,
    CommonBath,
    DirectProbeModel,
    LocalBaths,
    ProbeAncillaModel,
    TwoQubitModel,
    coupling_operators,
    generator_key,
    hamiltonian,
    initial_state,
)


def bath(T=0.4, eta=0.01):
    return BathSpec(eta=eta, cutoff=10.0, temperature=T)


def pa_model(kappa=0.8, theta=np.pi / 2, T=0.4):
    return ProbeAncillaModel(kappa, bath(T), theta)


def tq_model(kappa=0.6, theta=np.pi / 2, common=False):
    if common:
        cfg = CommonBath(eta1=0.01, eta2=0.05, cutoff=10.0, temperature=0.4)
    else:
        cfg = LocalBaths(bath(eta=0.01), bath(eta=0.05))
    return TwoQubitModel(kappa, cfg, theta)


class TestBathSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            BathSpec(eta=-0.1, cutoff=10.0, temperature=0.4)
        with pytest.raises(ValidationError):
            BathSpec(eta=0.1, cutoff=0.0, temperature=0.4)
        with pytest.raises(ValidationError):
            BathSpec(eta=0.1, cutoff=10.0, temperature=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("eta1", -0.01), ("eta2", -0.01), ("cutoff", 0.0), ("cutoff", -1.0), ("temperature", 0.0),
    ])
    def test_common_bath_validation_names_the_field(self, field, value):
        kw = dict(eta1=0.01, eta2=0.05, cutoff=10.0, temperature=0.4)
        with pytest.raises(ValidationError) as err:
            CommonBath(**{**kw, field: value})
        assert err.value.key == field

    def test_mismatched_local_temperatures_warn(self):
        with pytest.warns(UserWarning, match="different temperatures"):
            TwoQubitModel(0.6, LocalBaths(bath(T=0.4), bath(T=0.5)), 0.0)

    def test_local_temperature_check_is_relative(self):
        # a difference counts on the temperatures' own scale: at any T, not
        # only above an absolute 1e-12, and not at rounding level
        with pytest.warns(UserWarning, match="different temperatures"):
            TwoQubitModel(0.6, LocalBaths(bath(T=1e-13), bath(T=2e-13)), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TwoQubitModel(0.6, LocalBaths(bath(T=1e6), bath(T=np.nextafter(1e6, 2e6))), 0.0)


class TestHamiltonian:
    def test_probe_ancilla_spectrum(self):
        vals, _ = eig_hermitian(hamiltonian(pa_model(kappa=0.8)))
        assert np.allclose(vals, [-1.0, -0.8, 0.8, 1.0], atol=1e-12)

    def test_two_qubit_spectrum(self):
        vals, _ = eig_hermitian(hamiltonian(tq_model(kappa=0.6)))
        assert np.allclose(vals, [-1.0, -0.6, 0.6, 1.0], atol=1e-12)

    def test_uncoupled_diagonal(self):
        h = hamiltonian(pa_model(kappa=0.0))
        assert np.allclose(h, np.diag([1.0, 0.0, 0.0, -1.0]))

    def test_direct(self):
        h = hamiltonian(DirectProbeModel(bath()))
        assert np.allclose(h, 0.5 * pauli("z"))

    @pytest.mark.parametrize("model", [pa_model(), tq_model(), tq_model(common=True)])
    def test_exactly_hermitian(self, model):
        h = hamiltonian(model)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_excitation_conservation(self):
        # XX+YY coupling commutes with the total sigma_z
        h = hamiltonian(pa_model())
        total_z = kron(pauli("z"), identity(2)) + kron(identity(2), pauli("z"))
        assert np.max(np.abs(h @ total_z - total_z @ h)) < 1e-12


class TestCouplingOperators:
    def test_probe_ancilla_acts_on_ancilla_only(self):
        (op, b), = coupling_operators(pa_model())
        assert np.allclose(op, kron(identity(2), pauli("z")))
        assert b.temperature == 0.4

    def test_direct(self):
        (op, _), = coupling_operators(DirectProbeModel(bath()))
        assert np.allclose(op, pauli("z"))

    def test_local_orthogonal_supports(self):
        ops = coupling_operators(tq_model())
        assert len(ops) == 2
        a1, a2 = ops[0][0], ops[1][0]
        assert np.allclose(a1, kron(pauli("z"), identity(2)))
        assert np.allclose(a2, kron(identity(2), pauli("z")))
        assert ops[0][1].eta == 0.01 and ops[1][1].eta == 0.05

    def test_common_shares_temperature_and_cutoff(self):
        # one collective operator on a unit-eta bath at the shared T and cutoff
        (op, b), = coupling_operators(tq_model(common=True))
        expected = np.sqrt(0.01) * kron(pauli("z"), identity(2)) + np.sqrt(0.05) * kron(identity(2), pauli("z"))
        assert np.array_equal(op, expected)
        assert (b.eta, b.cutoff, b.temperature) == (1.0, 10.0, 0.4)


class TestInitialState:
    def test_probe_ancilla_structure(self):
        rho = initial_state(pa_model(theta=np.pi / 2))
        # probe excited, ancilla balanced: reduced ancilla coherence is 1/2
        from qthermo.linalg import partial_trace

        anc = partial_trace(rho, keep=2)
        assert abs(anc[0, 1] - 0.5) < 1e-12
        probe = partial_trace(rho, keep=1)
        assert np.allclose(probe, np.diag([0.0, 1.0]))

    def test_two_qubit_extremes(self):
        sep = initial_state(tq_model(theta=0.0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0
        assert np.allclose(sep, expected)

        ent = initial_state(tq_model(theta=np.pi / 2))
        from qthermo.linalg import partial_trace

        assert np.allclose(partial_trace(ent, keep=1), identity(2) / 2)
        assert np.allclose(partial_trace(ent, keep=2), identity(2) / 2)

    def test_direct_plus_state(self):
        rho = initial_state(DirectProbeModel(bath()))
        assert np.allclose(rho, 0.5 * np.ones((2, 2)))

    @pytest.mark.parametrize(
        "model",
        [pa_model(theta=0.3), tq_model(theta=1.1), DirectProbeModel(bath())],
    )
    def test_pure_and_valid(self, model):
        from qthermo.linalg import validate_density_matrix

        rho = validate_density_matrix(initial_state(model))
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12

    def test_angle_range_enforced(self):
        with pytest.raises(ValidationError):
            pa_model(theta=3.5)
        with pytest.raises(ValidationError):
            tq_model(theta=-0.1)


class TestGeneratorKey:
    """Models that share a key share a generator: ``theta`` enters only the initial state."""

    @pytest.mark.parametrize("make", [
        lambda theta: pa_model(theta=theta),
        lambda theta: tq_model(theta=theta),
        lambda theta: tq_model(theta=theta, common=True),
    ])
    def test_theta_leaves_the_generator(self, make):
        from dataclasses import fields

        from qthermo.master_equation import jump_channels

        models = [make(theta) for theta in (0.0, 0.7, np.pi / 2, np.pi)]
        assert len({generator_key(m) for m in models}) == 1
        channels = [jump_channels(m) for m in models]
        for ch in channels[1:]:
            for f in fields(ch):
                assert np.array_equal(getattr(ch, f.name), getattr(channels[0], f.name)), f.name
        assert len({initial_state(m).tobytes() for m in models}) == len(models)

    def test_other_fields_change_the_key(self):
        keys = {generator_key(m) for m in (
            pa_model(), pa_model(kappa=0.7), pa_model(T=0.5), tq_model(), tq_model(kappa=0.5),
            tq_model(common=True), DirectProbeModel(bath()), DirectProbeModel(bath(T=0.5)),
        )}
        assert len(keys) == 8

