"""Closed forms of the two-qubit steady state's temperature sensitivity.

Conventions match :mod:`qthermo.models`: resonant qubits at unit transition
frequency, hbar = k_B = 1.

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

import numpy as np

from .errors import NonPositiveInput

__all__ = ["sech", "steady_qfi", "steady_qsnr", "optimal_ratio"]


def sech(x: float) -> float:
    """Overflow-safe 1/cosh."""
    ax = abs(x)
    e = np.exp(-ax)
    return 2.0 * e / (1.0 + e * e)


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
