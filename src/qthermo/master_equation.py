"""Global Markovian master equation for dephasing-coupled qubits.

The generator is derived in the eigenbasis of the full system Hamiltonian
(including any inter-qubit coupling), which keeps it valid at strong internal
coupling.  For a coupling operator A and Hamiltonian eigenprojectors Pi(n),
the jump operator at Bohr frequency ``w = E_m - E_n`` is

    A(w) = sum_{E_m - E_n = w} Pi(n) A Pi(m),

and it enters the generator as ``rate(w) * D[A(w)]`` with
``D[A] rho = A rho A† - {A†A, rho}/2``.  Summing over *signed* Bohr
frequencies with

    rate(w > 0) = 2 pi J(w) (n(w) + 1)        (emission)
    rate(w < 0) = 2 pi J(|w|) n(|w|)          (absorption)
    rate(0)     = 2 pi eta T                  (Ohmic limit of J(w) n(w))

is equivalent to the usual split into emission and absorption terms at
positive frequencies, because ``A(-w) = A(w)†``.

The zero-frequency rate deserves a note: ``J(w) n(w) -> eta T`` as ``w -> 0``
for an Ohmic density, and emission and absorption coincide in that limit, so
the w = 0 channel appears exactly once with rate ``2 pi eta T``.  This makes
a directly coupled probe's coherence decay at ``4 pi eta T``.

A shared bath additionally produces cross dissipators pairing the jump
operators of the two qubits at the same Bohr frequency, with the geometric
mean ``sqrt(J1 J2)`` in place of J.

Vectorization is column-stacking:

    L = -i (I (x) H - H^T (x) I)
        + sum rate * (conj(A) (x) A - 1/2 I (x) A†A - 1/2 (A†A)^T (x) I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeFrequency, NonPositiveInput
from .linalg import dag, eig_hermitian, identity, kron, unvec, vec
from .models import CommonBath, TwoQubitModel, Model, coupling_operators, hamiltonian

__all__ = [
    "spectral_density",
    "thermal_occupation",
    "decoherence_rate",
    "JumpChannel",
    "jump_operators",
    "Liouvillian",
    "dissipator_superop",
    "cross_dissipator_superop",
    "commutator_superop",
    "build_liouvillian",
]

#: Bohr frequencies closer than this are treated as one level / one channel.
DEFAULT_FREQ_TOL = 1e-9

#: Jump operators with max entry below this are dropped.
CHANNEL_PRUNE_TOL = 1e-12


def spectral_density(omega: float, bath) -> float:
    """Ohmic spectral density ``J(w) = eta * w * exp(-w / cutoff)``, w >= 0."""
    if omega < 0:
        raise NegativeFrequency(f"spectral density needs omega >= 0, got {omega}")
    return bath.eta * omega * np.exp(-omega / bath.cutoff)


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation ``n(w) = 1 / (exp(w/T) - 1)`` for w, T > 0."""
    if omega <= 0 or temperature <= 0:
        raise NonPositiveInput(
            f"thermal occupation needs omega > 0 and T > 0, got ({omega}, {temperature})"
        )
    # e^{-x} / (1 - e^{-x}) avoids overflow at large x and keeps full
    # precision at small x
    e = np.exp(-omega / temperature)
    return e / (-np.expm1(-omega / temperature))


def decoherence_rate(omega: float, bath) -> float:
    """Golden-rule rate of the channel at signed Bohr frequency ``omega``.

    Positive frequencies are emission, ``2 pi J(w) (n(w) + 1)``; negative
    ones absorption, ``2 pi J(|w|) n(|w|)``; zero is the Ohmic dephasing
    limit ``2 pi eta T``.
    """
    return _rate_and_derivative(omega, bath)[0]


def _rate_and_derivative(omega: float, bath) -> tuple[float, float]:
    """:func:`decoherence_rate` and its temperature derivative: only n(w) and
    the zero-frequency rate depend on T, and ``dn/dT = n (n + 1) |w| / T^2``
    for emission and absorption alike."""
    if omega == 0.0:
        return 2.0 * np.pi * bath.eta * bath.temperature, 2.0 * np.pi * bath.eta
    aw = abs(omega)
    n = thermal_occupation(aw, bath.temperature)
    j = spectral_density(aw, bath)
    dn = n * (n + 1.0) * aw / bath.temperature**2
    return 2.0 * np.pi * j * (n + 1.0 if omega > 0 else n), 2.0 * np.pi * j * dn


@dataclass(frozen=True)
class JumpChannel:
    """One Bohr frequency with its jump operator and originating bath index."""

    omega: float
    op: np.ndarray
    bath_index: int = 0


def _cluster(values, tol):
    """Group sorted scalars into chains with consecutive gaps <= tol."""
    groups = []
    for v in values:
        if groups and v - groups[-1][-1] <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return groups


def jump_operators(
    h: np.ndarray,
    a: np.ndarray,
    freq_tol: float = DEFAULT_FREQ_TOL,
    bath_index: int = 0,
) -> list[JumpChannel]:
    """Decompose a coupling operator into jump operators of ``h``.

    Energy levels within ``freq_tol`` are merged (projectors are summed over
    the degenerate subspace, so the arbitrary eigenvector basis inside a
    degenerate block cannot leak into the result).  Channels whose operator
    is entrywise below ``CHANNEL_PRUNE_TOL`` are dropped.  The surviving
    channels satisfy ``[A(w), h] = w A(w)`` and sum back to ``a``.
    """
    if freq_tol <= 0:
        raise NonPositiveInput("freq_tol must be > 0")
    es = eig_hermitian(h)
    groups = _cluster(list(es.eigenvalues), freq_tol)
    energies, projectors = [], []
    idx = 0
    for g in groups:
        cols = es.eigenvectors[:, idx : idx + len(g)]
        energies.append(float(np.mean(g)))
        projectors.append(cols @ cols.conj().T)
        idx += len(g)

    p = np.stack(projectors)
    ops = p[:, None] @ a @ p[None, :]  # ops[n, m] = (P(n) @ a) @ P(m)
    raw = [(e_m - e_n, ops[n, m]) for n, e_n in enumerate(energies) for m, e_m in enumerate(energies)]
    raw.sort(key=lambda t: t[0])

    channels = []
    for group in _cluster([w for w, _ in raw], freq_tol):
        lo, hi = group[0], group[-1]
        total = sum(op for w, op in raw if lo <= w <= hi)
        if np.max(np.abs(total)) < CHANNEL_PRUNE_TOL:
            continue
        omega = float(np.mean(group))
        if abs(omega) < freq_tol:
            omega = 0.0
        channels.append(JumpChannel(omega=omega, op=total, bath_index=bath_index))
    return channels


def commutator_superop(h: np.ndarray) -> np.ndarray:
    """Column-stacked superoperator of ``rho -> -i [h, rho]``."""
    d = h.shape[0]
    i_d = identity(d)
    return -1j * (kron(i_d, h) - kron(h.T, i_d))


def dissipator_superop(a: np.ndarray) -> np.ndarray:
    """Column-stacked superoperator of ``D[a]``."""
    d = a.shape[0]
    i_d = identity(d)
    ada = dag(a) @ a
    return kron(a.conj(), a) - 0.5 * kron(i_d, ada) - 0.5 * kron(ada.T, i_d)


def cross_dissipator_superop(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Cross terms of a shared bath, pairing two jump operators both ways:
    ``a2 rho a1† - {a1† a2, rho}/2`` plus the same with 1 <-> 2."""
    d = a1.shape[0]
    i_d = identity(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for x, y in ((a1, a2), (a2, a1)):
        m = dag(x) @ y
        out += kron(x.conj(), y) - 0.5 * kron(i_d, m) - 0.5 * kron(m.T, i_d)
    return out


@dataclass(frozen=True)
class Liouvillian:
    """Generator of the open-system evolution, ``d rho / dt = L[rho]``.

    ``superop`` acts on column-stacked states.  ``channels`` and ``rates``
    list every local jump channel with its golden-rule rate (cross terms of
    a shared bath pair these channels and are folded into ``superop`` only).
    ``d_superop`` is the exact temperature derivative of ``superop``.
    """

    dim: int
    superop: np.ndarray
    hamiltonian: np.ndarray
    channels: tuple[JumpChannel, ...]
    rates: tuple[float, ...]
    d_superop: np.ndarray

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.superop @ vec(rho))


def build_liouvillian(model: Model, freq_tol: float = DEFAULT_FREQ_TOL) -> Liouvillian:
    """Assemble the global master equation generator of a model.

    Local dissipators are additive across baths.  For a shared bath the
    jump operators of the two qubits are additionally paired at equal Bohr
    frequency with rate ``2 pi sqrt(J1 J2) (n or n+1)``.  Every rate's
    temperature derivative multiplies the same dissipator in ``d_superop``.
    """
    h = hamiltonian(model)
    d = h.shape[0]
    superop = commutator_superop(h)
    d_superop = np.zeros_like(superop)

    all_channels: list[JumpChannel] = []
    all_rates: list[float] = []
    per_op_channels = []
    for index, (a, bath) in enumerate(coupling_operators(model), start=1):
        chans = jump_operators(h, a, freq_tol=freq_tol, bath_index=index)
        per_op_channels.append(chans)
        for ch in chans:
            g, dg = _rate_and_derivative(ch.omega, bath)
            dissipator = dissipator_superop(ch.op)
            superop = superop + g * dissipator
            d_superop += dg * dissipator
            all_channels.append(ch)
            all_rates.append(g)

    if isinstance(model, TwoQubitModel) and isinstance(model.bath_config, CommonBath):
        cross_bath = model.bath_config.cross_bath()
        first = {round(ch.omega / freq_tol): ch for ch in per_op_channels[0]}
        for ch2 in per_op_channels[1]:
            key = round(ch2.omega / freq_tol)
            if key not in first:
                continue
            g, dg = _rate_and_derivative(ch2.omega, cross_bath)
            cross = cross_dissipator_superop(first[key].op, ch2.op)
            superop = superop + g * cross
            d_superop += dg * cross

    return Liouvillian(
        dim=d,
        superop=superop,
        hamiltonian=h,
        channels=tuple(all_channels),
        rates=tuple(all_rates),
        d_superop=d_superop,
    )
