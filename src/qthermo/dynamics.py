"""Exact time evolution under a fixed Liouvillian (at most 16x16), exact
temperature derivatives and steady-state extraction.

Every propagation diagonalises the generator once, ``L = V diag(lam) V^-1``,
and takes all requested times from that as one validated ``(n_t, d, d)``
stack: ``vec rho(t) = V (e * c)``, ``e = exp(lam t)``, ``c = V^-1 vec(rho0)``.

Only the bath occupations depend on T, so ``build_liouvillian`` also builds
``dL/dT``, and the same decomposition gives the exact ``d rho(t)/dT``
(Daleckii-Krein divided differences): with ``X = V^-1 (dL/dT) V`` its
eigenbasis coefficients are ``e * (Y 1 + t z) - e Y^T``, where
``Y_ij = X_ij c_j / (lam_i - lam_j)`` for distinct eigenvalues and ``z_i``
sums ``X_ij c_j`` over ``lam_j = lam_i``.  When the decomposition cannot be
trusted, each time gets its own exponential of the block generator
``[[L, dL/dT], [0, L]]`` instead, whose right column holds the state and
its derivative (Van Loan 1978).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, DegenerateSteadyState, NoConvergence, NonPositiveInput
from .linalg import dag, expm, partial_trace, unvec, validate_density_matrix, vec
from .master_equation import Liouvillian

__all__ = ["propagate", "states_at", "trajectory", "Trajectory", "steady_state", "SteadyStateResult"]

#: The spectral route is abandoned for one exponential per time point when
#: the eigenvector matrix of the generator has a larger condition number
#: (the four models measure 1-2.4 at the defaults) ...
SPECTRAL_COND_MAX = 1e4

#: ... or when ``V diag(lam) V^-1`` misses the generator by more than this,
#: relative to its largest entry.
SPECTRAL_RESIDUAL_MAX = 1e-12

#: Eigenvalues closer than this, relative to the largest, are equal in the
#: derivative.  Over the accepted parameter ranges the four models' equal
#: eigenvalues differ numerically by < 5e-16 relative, distinct ones by > 6e-6.
EQUAL_EIG_TOL = 1e-10


def _states(vecs: np.ndarray) -> np.ndarray:
    """Validated, re-Hermitized state(s) from column-stacked vector(s).

    Raises ``PositivityViolation`` if a state has an eigenvalue below -1e-8,
    which would signal a defective generator.
    """
    rho = unvec(vecs)
    rho = 0.5 * (rho + dag(rho))
    return validate_density_matrix(rho, herm_tol=1e-12, trace_tol=1e-10, eig_floor=-1e-8)


class _Evolution:
    """States of ``rho0`` at any times, with their exact temperature
    derivatives, from one decomposition of the generator."""

    def __init__(self, liouvillian: Liouvillian, rho0: np.ndarray):
        self.superop = liouvillian.superop
        self.d_superop = liouvillian.d_superop
        self.v0 = vec(rho0)
        self.spectral = None  # (lam, V, c, Y, z) of a decomposition that passes both tests
        lam, v = np.linalg.eig(self.superop)
        # stationary modes are exactly 0; rounding would drift the trace as exp(lam t)
        lam[np.abs(lam) <= EQUAL_EIG_TOL * np.max(np.abs(lam))] = 0.0
        if not np.linalg.cond(v) <= SPECTRAL_COND_MAX:
            return
        v_inv = np.linalg.inv(v)
        residual = np.max(np.abs((v * lam) @ v_inv - self.superop))
        if not residual <= SPECTRAL_RESIDUAL_MAX * np.max(np.abs(self.superop)):
            return
        c = v_inv @ self.v0
        gap = np.subtract.outer(lam, lam)
        equal = np.abs(gap) <= EQUAL_EIG_TOL * np.max(np.abs(lam))
        xc = (v_inv @ self.d_superop @ v) * c
        # the conserved quantities (the left null space) do not depend on T
        xc[lam == 0] = 0.0
        y = np.divide(xc, gap, out=np.zeros_like(xc), where=~equal)
        z = np.where(equal, xc, 0.0).sum(axis=1)
        self.spectral = (lam, v, c, y, z)

    def _exponentials(self, times):
        n = len(self.v0)
        block = np.block([[self.superop, self.d_superop], [np.zeros_like(self.superop), self.superop]])
        start = np.concatenate([np.zeros(n, dtype=complex), self.v0])
        out = np.array([expm(block * t) @ start for t in times])
        return out[:, n:], out[:, :n]

    def __call__(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Validated ``(n_t, d, d)`` state stack at ``times >= 0`` and its
        Hermitian temperature derivative."""
        times = np.asarray(times, dtype=float).reshape(-1)
        if np.any(times < 0):
            raise NonPositiveInput(f"propagation time must be >= 0, got {times[times < 0][0]}")
        vecs = dvecs = None
        if self.spectral is not None:
            lam, v, c, y, z = self.spectral
            e = np.exp(np.multiply.outer(times, lam))
            vecs = (e * c) @ v.T
            dvecs = (e * (y.sum(axis=1) + np.multiply.outer(times, z)) - e @ y.T) @ v.T
        if vecs is None or not (np.isfinite(vecs).all() and np.isfinite(dvecs).all()):
            vecs, dvecs = self._exponentials(times)
        # exp(L 0) = I exactly, which the decomposition reproduces only to rounding
        vecs[times == 0] = self.v0
        dvecs[times == 0] = 0.0
        drho = unvec(dvecs)
        return _states(vecs), 0.5 * (drho + dag(drho))


def propagate(liouvillian: Liouvillian, rho0: np.ndarray, t: float) -> np.ndarray:
    """Evolve a state for time ``t >= 0`` and re-Hermitize the result.

    Raises ``PositivityViolation`` if the output state has an eigenvalue
    below -1e-8, which would signal a defective generator.
    """
    return _Evolution(liouvillian, rho0)([t])[0][0]


def states_at(liouvillian: Liouvillian, rho0: np.ndarray, times) -> np.ndarray:
    """States at arbitrary times ``t >= 0`` as one ``(n_t, d, d)`` stack.

    One eigendecomposition of the generator serves every time point.  If
    its eigenvector matrix is ill conditioned (``SPECTRAL_COND_MAX``), it
    does not reproduce the generator (``SPECTRAL_RESIDUAL_MAX``) or a state
    overflows, each time point gets its own exponential instead.
    """
    return _Evolution(liouvillian, rho0)(times)[0]


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

    The grid's states come from :func:`states_at` and are validated against
    the density matrix invariants as one stack; ``reduce`` adds the probe
    qubit's reduced states.
    """
    if t_max <= 0:
        raise NonPositiveInput(f"t_max must be > 0, got {t_max}")
    if n_points < 2:
        raise NonPositiveInput(f"n_points must be >= 2, got {n_points}")
    if reduce and liouvillian.dim != 4:
        raise BadDimension("reduce=True needs a two-qubit generator")
    times = np.linspace(0.0, float(t_max), int(n_points))
    states = states_at(liouvillian, rho0, times)
    reduced = partial_trace(states, keep=1) if reduce else None
    return Trajectory(times=times, states=states, reduced=reduced)


@dataclass(frozen=True)
class SteadyStateResult:
    """Stationary state with the route that produced it: ``"nullspace"`` for
    a unique kernel of the generator, ``"dynamical"`` for long-time evolution
    of an initial state inside its conserved sector.  ``derivative`` is the
    exact ``d rho_ss/dT``."""

    state: np.ndarray
    method: str
    residual: float
    derivative: np.ndarray


def steady_state(
    liouvillian: Liouvillian,
    rho0: np.ndarray | None = None,
    residual_tol: float = 1e-10,
    t_limit: float = 1e5,
) -> SteadyStateResult:
    """Solve ``L[rho] = 0``.

    When the null space of the generator is one dimensional it is extracted
    directly.  The dephasing models conserve excitation sectors, so their
    null spaces are degenerate; in that case the supplied ``rho0`` is
    evolved to the doubling horizons ``t = 1, 2, 4, ...`` (all from one
    decomposition), and the first state whose residual ``max |L[rho]|`` is
    below ``residual_tol`` is returned.  ``NoConvergence`` is raised if the
    residual still exceeds 1e-8 at the first horizon past ``t_limit``.

    The derivative solves ``L x = -(dL/dT) rho_ss`` with ``x`` orthogonal to
    the left null space of L, which holds the conserved sector weights that
    ``rho0`` fixes independently of T.
    """
    u, s, vh = np.linalg.svd(liouvillian.superop)
    null_dim = int(np.sum(s < 1e-12 * max(s[0], 1.0)))
    if null_dim == 1:
        rho = unvec(vh[-1].conj())
        rho = 0.5 * (rho + rho.conj().T)
        tr = float(np.trace(rho).real)
        if abs(tr) < 1e-8:
            raise DegenerateSteadyState("null vector is traceless; sector structure suspected")
        rho = rho / tr
        validate_density_matrix(rho, herm_tol=1e-10, trace_tol=1e-10, eig_floor=-1e-10)
        limit = rho
        method = "nullspace"
    elif rho0 is None:
        raise DegenerateSteadyState(
            f"generator null space has dimension {null_dim}; "
            "supply the initial state that selects the reachable sector"
        )
    else:
        horizons = 2.0 ** np.arange(max(int(np.ceil(np.log2(t_limit))), 0) + 1)
        states = states_at(liouvillian, rho0, horizons)
        vecs = states.swapaxes(-1, -2).reshape(len(horizons), -1)  # vec of each state
        residuals = np.abs(vecs @ liouvillian.superop.T).max(axis=1)
        k = int(np.argmax(residuals < residual_tol)) if np.any(residuals < residual_tol) else -1
        if residuals[k] > 1e-8:
            raise NoConvergence(
                f"residual {residuals[k]:.3e} after t = {horizons[k]:.3e}; no stationary state reached"
            )
        # rho_ss for the derivative: the last horizon, free of the decaying
        # remainder that the returned state may keep
        rho = states[k]
        limit = states[-1]
        method = "dynamical"
    left_null = dag(u[:, len(s) - null_dim :])
    x = np.linalg.lstsq(
        np.vstack([liouvillian.superop, left_null]),
        np.concatenate([-liouvillian.d_superop @ vec(limit), np.zeros(null_dim)]),
        rcond=None,
    )[0]
    derivative = 0.5 * (unvec(x) + dag(unvec(x)))
    residual = float(np.max(np.abs(liouvillian.apply(rho))))
    return SteadyStateResult(state=rho, method=method, residual=residual, derivative=derivative)
