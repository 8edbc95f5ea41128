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

A model's channels come from one stacked pass (:func:`jump_channels`): one
Hamiltonian eigensystem for all coupling operators (so they share one
frequency grouping), and every channel's jump operator in a stack.  The
generator assembles their dissipators, adding the terms channel by channel, so
it has the bits of a channel-by-channel build.  The steady state needs only the
channels (``dynamics.rate_law``).

Vectorization is column-stacking:

    L = -i (I (x) H - H^T (x) I)
        + sum rate * (conj(A) (x) A - 1/2 I (x) A†A - 1/2 (A†A)^T (x) I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeFrequency, NonFinite, NonPositiveInput
from .linalg import _kron, dag, eig_hermitian, identity, kron, unvec, vec
from .models import Model, coupling_operators, hamiltonian

__all__ = [
    "spectral_density",
    "thermal_occupation",
    "decoherence_rate",
    "Channels",
    "jump_channels",
    "Liouvillian",
    "dissipator_superop",
    "commutator_superop",
    "assemble_liouvillian",
    "build_liouvillian",
]

#: Bohr frequencies closer than this are treated as one level / one channel.
#: Absolute: the four-level models' +-kappa levels stay apart while
#: kappa > DEFAULT_FREQ_TOL / 2.
DEFAULT_FREQ_TOL = 1e-13

#: Jump operators whose max entry is at most this fraction of their
#: coupling operator's are dropped (relative, as the decomposition is linear).
CHANNEL_PRUNE_TOL = 1e-12

#: ``T^2`` and ``n (n + 1)`` are formed only while T and n(w) are at most
#: this and T at least its inverse: past about 1.34e154 (the root of the
#: largest float) they overflow, and T^2 underflows to 0 below 1e-162.
SQUARE_RANGE = 1e150


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
    aw, temp = abs(omega), bath.temperature
    n = thermal_occupation(aw, temp)
    j = spectral_density(aw, bath)
    if 1.0 / SQUARE_RANGE <= temp <= SQUARE_RANGE and n <= SQUARE_RANGE:
        dn = n * (n + 1.0) * aw / temp**2
    else:  # n |w| stays near T, where T^2 or n (n + 1) would leave the float64 range
        dn = n * aw / temp / temp * (n + 1.0)
    return 2.0 * np.pi * j * (n + 1.0 if omega > 0 else n), 2.0 * np.pi * j * dn


def _chains(values, tol):
    """Group labels of sorted ``values`` (chains with consecutive gaps <= tol)
    and each group's mean."""
    labels = np.zeros(len(values), dtype=int)
    np.cumsum(values[1:] - values[:-1] > tol, out=labels[1:])
    sums = np.bincount(labels, weights=values)  # left to right, as np.mean adds a few terms
    return labels, sums / np.bincount(labels)


def _jump_stack(h, a):
    """Jump operators of each coupling operator of the ``(k, d, d)`` stack
    ``a`` from one eigensystem of ``h``: ``(omegas, ops, keep, eig)``, the
    Bohr frequency of each group, ``ops[k, g]`` the jump operator of ``a[k]``
    at group ``g``, ``keep[k, g]``, false where it is pruned, and ``eig =
    (vals, vecs, pair_group)``, the eigensystem and the group joining each
    pair of eigenvectors ``(target, source)``."""
    vals, vecs = eig_hermitian(h)
    levels, energies = _chains(vals, DEFAULT_FREQ_TOL)
    v = np.where(levels == np.arange(len(energies))[:, None, None], vecs, 0.0)
    p = v @ dag(v)  # one projector per level group
    # ops[k, n, m] = (P(n) @ a[k]) @ P(m), at Bohr frequency E(m) - E(n)
    ops = p[None, :, None] @ a[:, None, None] @ p[None, None, :]
    w = (energies[None, :] - energies[:, None]).ravel()
    order = np.argsort(w, kind="stable")
    groups, omegas = _chains(w[order], DEFAULT_FREQ_TOL)
    omegas[np.abs(omegas) < DEFAULT_FREQ_TOL] = 0.0
    k, d = a.shape[0], h.shape[0]
    totals = np.zeros((k, len(omegas), d, d), dtype=complex)
    # from zero and in order, as Python's sum adds a group's terms
    np.add.at(totals, (slice(None), groups), ops.reshape(k, -1, d, d)[:, order])
    floor = CHANNEL_PRUNE_TOL * np.abs(a).max(axis=(-2, -1))
    keep = np.abs(totals).max(axis=(-2, -1)) > floor[:, None]
    level_group = np.empty_like(groups)
    level_group[order] = groups
    pair_group = level_group.reshape(len(energies), -1)[levels[:, None], levels[None, :]]
    return omegas, totals, keep, (vals, vecs, pair_group)


def commutator_superop(h: np.ndarray) -> np.ndarray:
    """Column-stacked superoperator of ``rho -> -i [h, rho]``."""
    i_d = identity(h.shape[0])
    return -1j * (kron(i_d, h) - kron(h.T, i_d))


def dissipator_superop(a: np.ndarray) -> np.ndarray:
    """Column-stacked superoperator of ``D[a]``, or of each ``D[a_k]`` of a
    ``(..., d, d)`` stack."""
    i_d = identity(a.shape[-1])
    m = dag(a) @ a
    return _kron(a.conj(), a) - 0.5 * _kron(i_d, m) - 0.5 * _kron(m.swapaxes(-1, -2), i_d)


@dataclass(frozen=True)
class Liouvillian:
    """Generator of the open-system evolution, ``d rho / dt = L[rho]``.

    ``superop`` acts on column-stacked states; ``d_superop`` is its exact
    temperature derivative.  The channels it is assembled from are the
    model's :class:`Channels`.
    """

    superop: np.ndarray
    d_superop: np.ndarray

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.superop @ vec(rho))


@dataclass(frozen=True)
class Channels:
    """A model's jump channels, coupling by coupling in ascending frequency,
    with the Hamiltonian eigensystem they come from.

    ``energies`` ``(d,)`` ascending and ``vecs`` ``(d, d)`` (columns) are
    ``eig_hermitian(hamiltonian)``.  Per channel: ``omegas``, ``ops``
    ``(n, d, d)``, ``bath_index`` (1-based, into ``coupling_operators(model)``),
    ``rates``, their temperature derivatives ``d_rates``, and ``pairs``
    ``(n, d, d)``, true on the eigenvector pairs ``(target, source)`` the
    channel joins: those of the level groups at its Bohr frequency.
    """

    hamiltonian: np.ndarray
    energies: np.ndarray
    vecs: np.ndarray
    omegas: np.ndarray
    ops: np.ndarray
    bath_index: np.ndarray
    rates: np.ndarray
    d_rates: np.ndarray
    pairs: np.ndarray


def jump_channels(model: Model) -> Channels:
    """The jump channels of a model and their rates: one Hamiltonian
    eigensystem for all its coupling operators, so they share one frequency
    grouping."""
    h = hamiltonian(model)
    couplings = coupling_operators(model)
    omegas, ops, keep, (vals, vecs, pair_group) = _jump_stack(h, np.stack([a for a, _ in couplings]))
    coupling, group = np.nonzero(keep)  # coupling by coupling, ascending frequency
    # a handful of channels: scalar rates cost less than array calls
    rates = [_rate_and_derivative(w, couplings[k][1]) for k, w in zip(coupling.tolist(), omegas[group].tolist())]
    # (-1, 2) keeps the shape when no channel survives (a zero coupling)
    g, dg = np.reshape(rates, (-1, 2)).T
    return Channels(hamiltonian=h, energies=vals, vecs=vecs, omegas=omegas[group], ops=ops[keep],
                    bath_index=coupling + 1, rates=g, d_rates=dg,
                    pairs=pair_group[None] == group[:, None, None])


def assemble_liouvillian(ch: Channels) -> Liouvillian:
    """Assemble the global master equation generator from a model's
    :func:`jump_channels`.

    Dissipators are additive across the model's couplings.  Every rate's
    temperature derivative multiplies the same dissipator in ``d_superop``.
    Terms are added in channel order.  :class:`NonFinite` if the generator or
    its derivative leaves the float64 range (finite rates can still overflow
    in the sum), naming the largest rate or the frequency of a nan rate.
    """
    superops = dissipator_superop(ch.ops)
    superop = commutator_superop(ch.hamiltonian)
    d_superop = np.zeros_like(superop)
    for term, d_term in zip(ch.rates[:, None, None] * superops, ch.d_rates[:, None, None] * superops):
        superop += term
        d_superop += d_term
    if not (np.isfinite(superop).all() and np.isfinite(d_superop).all()):
        raise overflow_error(ch)
    return Liouvillian(superop=superop, d_superop=d_superop)


def overflow_error(ch: Channels) -> NonFinite:
    """Error of channels whose generator overflows, naming a nan rate's frequency or the largest rate."""
    nan = np.isnan(ch.rates)  # J(w) at an overflowing w = inf is inf * 0
    if nan.any():
        return NonFinite(f"generator overflows float64; rate nan at omega = {ch.omegas[nan][0]:g}")
    return NonFinite(f"generator overflows float64; largest rate {ch.rates.max(initial=0.0):g}")


def build_liouvillian(model: Model) -> Liouvillian:
    """The generator of a model: :func:`assemble_liouvillian` of its
    :func:`jump_channels`."""
    return assemble_liouvillian(jump_channels(model))
