"""Test oracles for the package's exact temperature derivatives and its
steady states.

:func:`d_rho_dT` takes validated central differences of any family
``T -> rho(T)``.  It shares no code with the exact route (``dL/dT`` and
Daleckii-Krein in ``qthermo.dynamics``), which is what makes it an
independent cross-check; no experiment takes a finite difference.

:func:`steady_state` is the t -> inf limit of any generator's spectral
decomposition, hand-built generators included; the package takes a model's
steady state from the population rate law (``qthermo.dynamics.rate_law``)
instead, which shares no code with it.
"""

from __future__ import annotations

import numpy as np

from qthermo.errors import NoConvergence, NonPositiveInput, PositivityViolation
from qthermo.fisher import _raise_first
from qthermo.linalg import unvec, validate_density_matrix, vec

#: Eigenvalues of L closer than this to 0, relative to the largest, are
#: stationary; a mode whose real part is this close to 0 does not decay.
STATIONARY_TOL = 1e-10


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


def steady_state(liouvillian, rho0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steady state of ``rho0`` under ``liouvillian`` and its temperature
    derivative: the t -> inf limit of ``V diag(exp(lam t)) V^-1 vec(rho0)``.

    With ``c = V^-1 vec(rho0)`` and ``X = V^-1 (dL/dT) V``, the limit is the
    projection ``V[:, 0] c[0]`` onto the stationary modes (``lam = 0``), and
    its derivative ``-V Y[:, 0] 1`` with ``Y_ij = X_ij c_j / (lam_i -
    lam_j)``, the group-inverse solution ``-L^# (dL/dT) rho_ss`` (Meyer,
    SIAM Rev. 17, 443 (1975)); the conserved quantities (the left null
    space of L) keep the values ``rho0`` gives them.

    Raises ``NoConvergence`` when ``rho0`` (or its T-derivative) excites a
    mode other than the stationary ones that does not decay, or when the
    limit loses its trace: rounding in L reaches it amplified by the inverse
    of the slowest decay rate.  ``PositivityViolation`` if the limit has an
    eigenvalue below -1e-8.
    """
    superop = liouvillian.superop
    lam, v = np.linalg.eig(superop)
    scale = np.max(np.abs(lam))
    lam[np.abs(lam) <= STATIONARY_TOL * scale] = 0.0
    v_inv = np.linalg.inv(v)
    c = v_inv @ vec(rho0)
    x = v_inv @ liouvillian.d_superop @ v
    xc = x * c
    xc[lam == 0] = 0.0  # the conserved quantities do not depend on T
    gap = np.subtract.outer(lam, lam)
    y = np.divide(xc, gap, out=np.zeros_like(xc), where=np.abs(gap) > STATIONARY_TOL * scale)
    # rho0 leaves mode i alone at and around this T if c_i = 0 and dc_i/dT = sum_j Y_ij = 0
    size = np.max(np.abs(c))
    stuck = (lam != 0) & (lam.real >= -STATIONARY_TOL * scale) & (
        (np.abs(c) > STATIONARY_TOL * size)
        | (np.abs(lam * y.sum(axis=1)) > STATIONARY_TOL * size * np.max(np.abs(x)))
    )
    if np.any(stuck):
        raise NoConvergence(
            f"mode lam = {lam[stuck][0]:.6g} of the generator does not decay at a rate above "
            f"{STATIONARY_TOL:g} max|lam| = {STATIONARY_TOL * scale:.3g}: no steady state"
        )
    zero = lam == 0
    rho, drho = unvec(v[:, zero] @ c[zero]), unvec(v @ -y[:, zero].sum(axis=1))
    try:
        # the trace alone first: rounding in L reaches the limit amplified by 1 / (slowest rate)
        validate_density_matrix(rho, herm_tol=np.inf, eig_floor=-np.inf)
    except PositivityViolation as exc:
        raise NoConvergence(
            f"steady state not resolved ({exc}): the slowest mode decays at rate "
            f"{-np.max(lam.real[lam != 0]):.3e} against max|lam| = {scale:.3e}"
        ) from None
    rho = validate_density_matrix(0.5 * (rho + rho.conj().T), herm_tol=1e-12, eig_floor=-1e-8)
    return rho, 0.5 * (drho + drho.conj().T)
