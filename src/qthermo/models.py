"""Physical scenarios: probe qubits, coupling operators, baths, initial states.

All frequencies and energies are expressed in units of the qubit transition
frequency, which is 1 for every qubit, with hbar = k_B = 1.  Temperatures are
in the same units.

Two models cover four scenarios:

* a probe qubit dephasing directly in an Ohmic bath (:class:`DirectProbeModel`),
* two coupled resonant qubits (:class:`TwoQubitModel`) in independent local
  baths or sharing one common bath; a probe qubit shielded from the bath by an
  ancilla qubit that dephases is the local-bath case with an uncoupled probe
  (``eta = 0``) and the ancilla preparation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import identity, kron, pauli

__all__ = [
    "BathSpec",
    "DirectProbeModel",
    "LocalBaths",
    "CommonBath",
    "TwoQubitModel",
    "hamiltonian",
    "coupling_operators",
    "initial_state",
    "generator_key",
]


@dataclass(frozen=True)
class BathSpec:
    """Ohmic bath: spectral density J(w) = eta * w * exp(-w / cutoff) at
    temperature ``temperature``."""

    eta: float
    cutoff: float
    temperature: float

    def __post_init__(self):
        if self.eta < 0:
            raise ValidationError("eta", "must be >= 0")
        if self.cutoff <= 0:
            raise ValidationError("cutoff", "must be > 0")
        if self.temperature <= 0:
            raise ValidationError("temperature", "must be > 0")


@dataclass(frozen=True)
class DirectProbeModel:
    """Single qubit coupled to the bath through sigma_z; prepared in
    ``(|0> + |1>)/sqrt(2)``, the preparation that maximizes the dephasing
    signal."""

    bath: BathSpec


@dataclass(frozen=True)
class LocalBaths:
    """Each qubit sees its own independent reservoir."""

    bath1: BathSpec
    bath2: BathSpec


@dataclass(frozen=True)
class CommonBath:
    """One shared reservoir with per-qubit coupling strengths eta1, eta2.

    A single physical bath fixes one temperature and one cutoff; only the
    coupling of each qubit to it may differ.
    """

    eta1: float
    eta2: float
    cutoff: float
    temperature: float

    def __post_init__(self):
        for name in ("eta1", "eta2"):
            if getattr(self, name) < 0:
                raise ValidationError(name, "must be >= 0")
        if self.cutoff <= 0:
            raise ValidationError("cutoff", "must be > 0")
        if self.temperature <= 0:
            raise ValidationError("temperature", "must be > 0")


@dataclass(frozen=True)
class TwoQubitModel:
    """Two resonant qubits with an exchange (XX+YY) coupling of strength
    ``kappa``, prepared in ``cos(theta/2)|01> + sin(theta/2)|10>``, or with
    ``ancilla`` in ``|1>_P (cos(theta/2)|0> + sin(theta/2)|1>)_A``: the probe
    (first qubit) excited and the ancilla tilted, the probe+ancilla scheme
    when only the ancilla's bath is coupled."""

    kappa: float
    bath_config: "LocalBaths | CommonBath"
    theta: float
    ancilla: bool = False

    def __post_init__(self):
        if self.kappa < 0:
            raise ValidationError("kappa", "must be >= 0")
        if not 0.0 <= self.theta <= np.pi:
            raise ValidationError("theta", "must lie in [0, pi]")
        if isinstance(self.bath_config, LocalBaths):
            t1 = self.bath_config.bath1.temperature
            t2 = self.bath_config.bath2.temperature
            if abs(t1 - t2) > 1e-12 * max(t1, t2):
                warnings.warn(
                    "local baths have different temperatures "
                    f"(T1={t1}, T2={t2}); thermometry runs assume a single T",
                    stacklevel=2,
                )


Model = DirectProbeModel | TwoQubitModel


def _shared(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


# operators with exact 0 / +-1 entries, built once and shared read-only
_SZ = _shared(pauli("z"))
_SZ_1 = _shared(kron(pauli("z"), identity(2)))
_1_SZ = _shared(kron(identity(2), pauli("z")))
_SZ_TOTAL = _shared(_SZ_1 + _1_SZ)
_XX_YY = _shared(kron(pauli("x"), pauli("x")) + kron(pauli("y"), pauli("y")))


def hamiltonian(model: Model) -> np.ndarray:
    """System Hamiltonian of a model (2x2 or 4x4, exactly Hermitian): the
    qubits' ``sz / 2`` terms plus, for two qubits, the exchange coupling."""
    if isinstance(model, DirectProbeModel):
        return 0.5 * _SZ
    if isinstance(model, TwoQubitModel):
        return 0.5 * _SZ_TOTAL + 0.5 * model.kappa * _XX_YY
    raise TypeError(f"unknown model type {type(model).__name__}")


def coupling_operators(model: Model) -> list[tuple[np.ndarray, BathSpec]]:
    """Bath coupling operators with the bath each of them talks to.

    A common bath is one coupling: the collective operator
    ``sqrt(eta1) sz(x)1 + sqrt(eta2) 1(x)sz`` on a unit-eta bath, whose
    dissipator holds both qubits' terms and their cross terms.  A local bath
    with ``eta = 0`` is left out while the other one is coupled, as its
    channels all have rate 0; of two such baths the first stays.
    """
    if isinstance(model, DirectProbeModel):
        return [(_SZ, model.bath)]
    if isinstance(model, TwoQubitModel):
        cfg = model.bath_config
        if isinstance(cfg, LocalBaths):
            local = [(_SZ_1, cfg.bath1), (_1_SZ, cfg.bath2)]
            return [c for c in local if c[1].eta > 0] or local[:1]
        if isinstance(cfg, CommonBath):
            a = np.sqrt(cfg.eta1) * _SZ_1 + np.sqrt(cfg.eta2) * _1_SZ
            return [(a, BathSpec(1.0, cfg.cutoff, cfg.temperature))]
    raise TypeError(f"unknown model type {type(model).__name__}")


def initial_state(model: Model) -> np.ndarray:
    """Pure initial density matrix of a model."""
    if isinstance(model, DirectProbeModel):
        psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    elif isinstance(model, TwoQubitModel):
        # |1>_P (cos(theta/2)|0> + sin(theta/2)|1>)_A, or cos(theta/2)|01> + sin(theta/2)|10>
        psi = np.zeros(4, dtype=complex)
        first = 2 if model.ancilla else 1
        psi[first] = np.cos(model.theta / 2.0)
        psi[first + 1] = np.sin(model.theta / 2.0)
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    return np.outer(psi, psi.conj())


def generator_key(model: Model) -> tuple:
    """Type and fields but the preparation, ``theta`` and ``ancilla`` (only
    :func:`initial_state` reads them): what fixes the generator."""
    return (type(model), *(v for k, v in vars(model).items() if k not in ("theta", "ancilla")))
