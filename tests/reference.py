"""Test oracles for the package's exact temperature derivatives.

:func:`d_rho_dT` takes validated central differences of any family
``T -> rho(T)``.  It shares no code with the exact route (``dL/dT`` and
Daleckii-Krein in ``qthermo.dynamics``), which is what makes it an
independent cross-check; no experiment takes a finite difference.
"""

from __future__ import annotations

import numpy as np

from qthermo.errors import NonPositiveInput
from qthermo.fisher import _raise_first


class StepTooLarge(Exception):
    """Finite-difference step failed the half-step consistency check."""


def _central(state_fn, temperature, h):
    return (np.asarray(state_fn(temperature + h)) - np.asarray(state_fn(temperature - h))) / (2.0 * h)


def halving_consistency(d_h: np.ndarray, d_half: np.ndarray) -> None:
    """Require a central difference to agree with its half-step refinement.

    Derivatives below 1e-8 in every entry count as zero (the family is
    temperature independent up to evaluation noise, e.g. a dephased steady
    state, and a relative comparison of noise would be meaningless).  Above
    that floor a relative discrepancy exceeding 1e-5 raises
    :class:`StepTooLarge`.  For ``(..., d, d)`` stacks each matrix is checked
    on its own scale.
    """
    d_h, d_half = np.asarray(d_h), np.asarray(d_half)
    axes = tuple(range(max(d_h.ndim - 2, 0), d_h.ndim))
    big_half = np.abs(d_half).max(axis=axes)
    scale = np.maximum(big_half, np.abs(d_h).max(axis=axes))
    rel = np.abs(d_h - d_half).max(axis=axes) / np.maximum(big_half, 1e-300)
    _raise_first(
        (scale >= 1e-8) & (rel > 1e-5), StepTooLarge,
        "central difference differs from half step by {:.3e} relative", rel,
    )


def d_rho_dT(state_fn, temperature: float, h: float | None = None) -> np.ndarray:
    """Central-difference temperature derivative of a matrix-valued family.

    The derivative at step ``h`` (default ``max(1e-5, 1e-4 T)``) is
    validated against the half-step result via :func:`halving_consistency`.
    """
    if h is None:
        h = max(1e-5, 1e-4 * temperature)
    if temperature - h <= 0:
        raise NonPositiveInput(f"need T - h > 0, got T={temperature}, h={h}")
    d_h = _central(state_fn, temperature, h)
    d_half = _central(state_fn, temperature, 0.5 * h)
    halving_consistency(d_h, d_half)
    return d_h
