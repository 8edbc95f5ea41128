"""Time evolution under a fixed Liouvillian and steady-state extraction.

The generator is time independent and at most 16x16, so evolution uses the
exact superoperator exponential; there is no integrator truncation error to
account for in comparisons.  A time grid's states come back as one
``(n_t, d, d)`` stack, validated in one call:

* on a uniform grid (:func:`trajectory`) one exponential of the generator
  for the grid step is applied repeatedly;
* on an arbitrary grid (:func:`states_at`) the generator is diagonalised
  once, ``L = V diag(lam) V^-1``, and every state is
  ``V diag(exp(lam t)) V^-1 vec(rho0)``; when that decomposition cannot be
  trusted, each time point gets its own exponential instead.

A single time (:func:`propagate`) always uses its own exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, DegenerateSteadyState, NoConvergence, NonPositiveInput
from .linalg import dag, expm, partial_trace, unvec, validate_density_matrix, vec
from .master_equation import Liouvillian

__all__ = ["propagate", "states_at", "trajectory", "Trajectory", "steady_state", "SteadyStateResult"]

#: ``states_at`` falls back to one exponential per time point when the
#: eigenvector matrix of the generator has a larger condition number (the
#: four models measure 1-2.4 at the defaults) ...
SPECTRAL_COND_MAX = 1e4

#: ... or when ``V diag(lam) V^-1`` misses the generator by more than this,
#: relative to its largest entry.
SPECTRAL_RESIDUAL_MAX = 1e-12


def _evolve_vec(liouvillian: Liouvillian, rho0: np.ndarray, t: float) -> np.ndarray:
    return expm(liouvillian.superop * t) @ vec(rho0)


def _states(vecs: np.ndarray) -> np.ndarray:
    """Validated, re-Hermitized state(s) from column-stacked vector(s).

    Raises ``PositivityViolation`` if a state has an eigenvalue below -1e-8,
    which would signal a defective generator.
    """
    rho = unvec(vecs)
    rho = 0.5 * (rho + dag(rho))
    return validate_density_matrix(rho, herm_tol=1e-12, trace_tol=1e-10, eig_floor=-1e-8)


def propagate(liouvillian: Liouvillian, rho0: np.ndarray, t: float) -> np.ndarray:
    """Evolve a state for time ``t >= 0`` and re-Hermitize the result.

    Raises ``PositivityViolation`` if the output state has an eigenvalue
    below -1e-8, which would signal a defective generator.
    """
    if t < 0:
        raise NonPositiveInput(f"propagation time must be >= 0, got {t}")
    return _states(_evolve_vec(liouvillian, rho0, t))


def _spectral_vecs(superop: np.ndarray, v0: np.ndarray, times: np.ndarray) -> np.ndarray | None:
    """``exp(L t) v0`` for every ``t`` from one eigendecomposition of ``L``,
    or ``None`` when the decomposition cannot be trusted."""
    lam, v = np.linalg.eig(superop)
    if not np.linalg.cond(v) <= SPECTRAL_COND_MAX:
        return None
    v_inv = np.linalg.inv(v)
    residual = np.max(np.abs((v * lam) @ v_inv - superop))
    if not residual <= SPECTRAL_RESIDUAL_MAX * np.max(np.abs(superop)):
        return None
    out = (np.exp(np.multiply.outer(times, lam)) * (v_inv @ v0)) @ v.T
    # exp(L 0) = I exactly, which V (V^-1 v0) reproduces only to rounding
    out[times == 0] = v0
    return out if np.all(np.isfinite(out)) else None


def states_at(liouvillian: Liouvillian, rho0: np.ndarray, times) -> np.ndarray:
    """States at arbitrary times ``t >= 0`` as one ``(n_t, d, d)`` stack.

    One eigendecomposition of the generator serves every time point.  If
    its eigenvector matrix is ill conditioned (``SPECTRAL_COND_MAX``), it
    does not reproduce the generator (``SPECTRAL_RESIDUAL_MAX``) or a state
    overflows, each time point gets its own exponential, as in
    :func:`propagate`.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise NonPositiveInput(f"propagation time must be >= 0, got {times[times < 0][0]}")
    vecs = _spectral_vecs(liouvillian.superop, vec(rho0), times)
    if vecs is None:
        vecs = np.array([_evolve_vec(liouvillian, rho0, t) for t in times])
    return _states(vecs.reshape(len(times), liouvillian.dim**2))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled evolution: ``states`` is the ``(n_t, d, d)`` stack,
    ``reduced`` the ``(n_t, 2, 2)`` probe-qubit stack when requested."""

    times: np.ndarray
    states: np.ndarray
    reduced: np.ndarray | None = None


def trajectory(
    liouvillian: Liouvillian,
    rho0: np.ndarray,
    t_max: float,
    n_points: int,
    reduce: bool = False,
) -> Trajectory:
    """Evolve on the uniform grid ``linspace(0, t_max, n_points)``.

    One exponential of the generator is computed for the grid step and
    applied repeatedly; the sampled states are validated against the
    density matrix invariants as one stack.
    """
    if t_max <= 0:
        raise NonPositiveInput(f"t_max must be > 0, got {t_max}")
    if n_points < 2:
        raise NonPositiveInput(f"n_points must be >= 2, got {n_points}")
    if reduce and liouvillian.dim != 4:
        raise BadDimension("reduce=True needs a two-qubit generator")
    times = np.linspace(0.0, float(t_max), int(n_points))
    step = expm(liouvillian.superop * (times[1] - times[0]))
    vecs = np.empty((len(times), liouvillian.dim**2), dtype=complex)
    vecs[0] = vec(rho0)
    for i in range(1, len(times)):
        vecs[i] = step @ vecs[i - 1]
    states = _states(vecs)
    reduced = partial_trace(states, keep=1) if reduce else None
    return Trajectory(times=times, states=states, reduced=reduced)


@dataclass(frozen=True)
class SteadyStateResult:
    """Stationary state with the route that produced it: ``"nullspace"`` for
    a unique kernel of the generator, ``"dynamical"`` for long-time evolution
    of an initial state inside its conserved sector."""

    state: np.ndarray
    method: str
    residual: float


def _residual(liouvillian: Liouvillian, rho: np.ndarray) -> float:
    return float(np.max(np.abs(liouvillian.apply(rho))))


def steady_state(
    liouvillian: Liouvillian,
    rho0: np.ndarray | None = None,
    residual_tol: float = 1e-10,
    t_limit: float = 1e5,
) -> SteadyStateResult:
    """Solve ``L[rho] = 0``.

    When the null space of the generator is one dimensional it is extracted
    directly.  The dephasing models conserve excitation sectors, so their
    null spaces are degenerate; in that case the supplied ``rho0`` is evolved
    with doubling horizons until the residual ``max |L[rho]|`` drops below
    ``residual_tol``.  ``NoConvergence`` is raised if the residual still
    exceeds 1e-8 at ``t_limit``.
    """
    s = np.linalg.svd(liouvillian.superop, compute_uv=False)
    null_dim = int(np.sum(s < 1e-12 * max(s[0], 1.0)))
    if null_dim == 1:
        _, _, vh = np.linalg.svd(liouvillian.superop)
        rho = unvec(vh[-1].conj())
        rho = 0.5 * (rho + rho.conj().T)
        tr = float(np.trace(rho).real)
        if abs(tr) < 1e-8:
            raise DegenerateSteadyState("null vector is traceless; sector structure suspected")
        rho = rho / tr
        validate_density_matrix(rho, herm_tol=1e-10, trace_tol=1e-10, eig_floor=-1e-10)
        return SteadyStateResult(state=rho, method="nullspace", residual=_residual(liouvillian, rho))

    if rho0 is None:
        raise DegenerateSteadyState(
            f"generator null space has dimension {null_dim}; "
            "supply the initial state that selects the reachable sector"
        )
    t = 1.0
    while True:
        rho = propagate(liouvillian, rho0, t)
        res = _residual(liouvillian, rho)
        if res < residual_tol:
            return SteadyStateResult(state=rho, method="dynamical", residual=res)
        if t >= t_limit:
            if res <= 1e-8:
                return SteadyStateResult(state=rho, method="dynamical", residual=res)
            raise NoConvergence(
                f"residual {res:.3e} after t = {t:.3e}; no stationary state reached"
            )
        t *= 2.0
