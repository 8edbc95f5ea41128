"""Closed-form reference expressions used as oracles and fast paths.

Conventions match :mod:`qthermo.models`: resonant qubits at unit transition
frequency, hbar = k_B = 1.

Transient probe state
---------------------
For the probe + ancilla model the reduced probe state is
``[[ (1+W)/2, X ], [X*, (1-W)/2]]`` with

    W(t) = (-2 + (1 + e^{4 i k t}) (sinh(B t) - cosh(B t))) / 4
         = -1/2 - cos(2 k t) e^{-Re(B) t} / 2,
    X(t) = (e^{-Z2 t} - e^{i Z1 t}) / 4,

    B  = 2 k (pi eta e^{-2k/cutoff} coth(k/T) + i),
    Z1 = i pi eta k e^{-2k/cutoff} (coth(k/T) - 1) + k - 1,
    Z2 = pi eta k e^{k (1/T - 2/cutoff)} csch(k/T) + i (k + 1).

The population term W is exact for the global master equation.  The bare
coherence X above omits the zero-frequency dephasing channel: the full
master-equation evolution multiplies it by ``exp(-pi eta T t)``.  Pass
``include_zero_freq_dephasing=True`` to obtain the coherence that matches
the numeric propagation to solver precision; the bare form is kept because
it is the published-style compact expression and is useful for documenting
the difference (see tests).

Steady state of two coupled qubits
----------------------------------
Starting in the ``{|01>, |10>}`` sector the qubits thermalize to

    rho_ss = (|01><01| + |10><10|) / 2
             + tanh(-k/T) (|01><10| + |10><01|) / 2,

whose temperature sensitivity is

    F_ss(k, T) = 2 k^2 / (T^4 (cosh(2k/T) + 1)) = k^2 sech^2(k/T) / T^4,

so the steady signal-to-noise ratio ``T^2 F_ss = x^2 sech^2(x)`` depends on
``x = k/T`` alone and is maximized where ``tanh(x) = 1/x``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveInput
from .models import BathSpec

__all__ = [
    "ProbeClosedForm",
    "probe_closed_form_terms",
    "probe_state_closed_form",
    "direct_probe_coherence",
    "direct_probe_qfi",
    "steady_two_qubit",
    "steady_qfi",
    "steady_qsnr",
    "optimal_ratio",
]


@dataclass(frozen=True)
class ProbeClosedForm:
    """Population term W, coherence X, and the constants they decay with."""

    w: float
    x: complex
    b: complex
    z1: complex
    z2: complex


def _coth(x: float) -> float:
    return 1.0 / np.tanh(x)


def sech(x: float) -> float:
    """Overflow-safe 1/cosh."""
    ax = abs(x)
    e = np.exp(-ax)
    return 2.0 * e / (1.0 + e * e)


def probe_closed_form_terms(
    t: float,
    kappa: float,
    bath: BathSpec,
    include_zero_freq_dephasing: bool = False,
) -> ProbeClosedForm:
    """Evaluate W(t), X(t) and their decay constants at resonance."""
    if kappa <= 0:
        raise NonPositiveInput("closed form needs kappa > 0")
    eta, cut, temp = bath.eta, bath.cutoff, bath.temperature
    cth = _coth(kappa / temp)
    damp = np.pi * eta * np.exp(-2.0 * kappa / cut)
    b = 2.0 * kappa * (damp * cth + 1.0j)
    z1 = 1.0j * kappa * damp * (cth - 1.0) + kappa - 1.0
    z2 = kappa * damp * np.exp(kappa / temp) / np.sinh(kappa / temp) + 1.0j * (kappa + 1.0)
    # sinh(bt) - cosh(bt) == -exp(-bt); the difference form overflows and
    # cancels catastrophically once Re(b) t is large
    w = 0.25 * (-2.0 - (1.0 + np.exp(4.0j * kappa * t)) * np.exp(-b * t))
    x = 0.25 * (np.exp(-z2 * t) - np.exp(1.0j * z1 * t))
    if include_zero_freq_dephasing:
        x = x * np.exp(-np.pi * eta * temp * t)
    return ProbeClosedForm(w=float(w.real), x=complex(x), b=b, z1=z1, z2=z2)


def probe_state_closed_form(
    t: float,
    kappa: float,
    bath: BathSpec,
    include_zero_freq_dephasing: bool = False,
) -> np.ndarray:
    """Reduced probe state ``[[ (1+W)/2, X ], [X*, (1-W)/2]]``."""
    cf = probe_closed_form_terms(t, kappa, bath, include_zero_freq_dephasing)
    return np.array(
        [[(1.0 + cf.w) / 2.0, cf.x], [np.conj(cf.x), (1.0 - cf.w) / 2.0]],
        dtype=complex,
    )


def direct_probe_coherence(t: float, bath: BathSpec) -> float:
    """|rho_01|(t) of the directly dephasing probe started in |+>:
    ``exp(-4 pi eta T t) / 2``."""
    return 0.5 * np.exp(-4.0 * np.pi * bath.eta * bath.temperature * t)


def direct_probe_qfi(t: float, bath: BathSpec) -> float:
    """Temperature QFI of the direct probe,
    ``(4 pi eta t)^2 e^{-2 G t} / (1 - e^{-2 G t})`` with ``G = 4 pi eta T``,
    and 0 at ``t = 0`` or ``eta = 0``, where the probe stays pure."""
    if t == 0.0 or bath.eta == 0.0:
        return 0.0
    g = 4.0 * np.pi * bath.eta * bath.temperature
    amp = (4.0 * np.pi * bath.eta * t) ** 2
    # expm1 keeps 1 - e^{-2 G t} exact where 2 G t << 1 (low T)
    return amp * np.exp(-2.0 * g * t) / -np.expm1(-2.0 * g * t)


def steady_two_qubit(kappa: float, temperature: float) -> np.ndarray:
    """Stationary two-qubit state reached from the ``{|01>, |10>}`` sector."""
    if kappa <= 0 or temperature <= 0:
        raise NonPositiveInput("steady state needs kappa > 0 and T > 0")
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = 0.5
    off = 0.5 * np.tanh(-kappa / temperature)
    rho[1, 2] = rho[2, 1] = off
    return rho


def steady_qfi(kappa: float, temperature: float) -> float:
    """Steady-state temperature QFI, ``k^2 sech^2(k/T) / T^4``."""
    if kappa < 0 or temperature <= 0:
        raise NonPositiveInput("steady QFI needs kappa >= 0 and T > 0")
    s = sech(kappa / temperature)
    return (kappa * s / (temperature * temperature)) ** 2


def steady_qsnr(ratio: float) -> float:
    """Steady signal-to-noise ratio ``x^2 sech^2(x)`` of the ratio x = k/T,
    or of each ratio of an array; ``float_power`` rounds each value as the
    scalar ``** 2`` does, where an array's ``** 2`` would square instead."""
    return np.float_power(ratio * sech(ratio), 2)


@functools.cache  # a constant: bisected once per process
def optimal_ratio() -> tuple[float, float]:
    """Maximize the steady QSNR: bisect ``tanh(x) - 1/x`` on [1, 2] to a
    bracket of 1e-12.

    Returns ``(x_star, qsnr_star)``; at the root ``qsnr_star = x^2 - 1``.
    """
    f = lambda x: np.tanh(x) - 1.0 / x
    lo, hi = 1.0, 2.0
    # tanh(1) - 1 < 0 and tanh(2) - 1/2 > 0: the bracket is always valid
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    x_star = 0.5 * (lo + hi)
    return x_star, steady_qsnr(x_star)
