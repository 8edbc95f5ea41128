"""Exact time evolution under a fixed Liouvillian (at most 16x16), up to and
including t = inf, with exact temperature derivatives.

Each generator is diagonalised once, ``L = V diag(lam) V^-1``, for all its
initial states and times; a grid's states are one validated ``(n_t, d, d)``
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

The steady state is the t -> inf limit of the same expressions: the
projection ``V[:, 0] c[0]`` onto the stationary modes (``lam = 0``), and
for the derivative ``-V Y[:, 0] 1``, the group-inverse solution
``-L^# (dL/dT) rho_ss`` (Meyer, SIAM Rev. 17, 443 (1975)).  The conserved
quantities (the left null space of L) keep the values ``rho0`` gives them
and do not depend on T.  No limit exists when ``rho0`` excites a mode
other than the stationary ones that does not decay, and none is resolved
when the limit loses its trace: rounding in L reaches it amplified by the
inverse of the slowest decay rate.  A rejected decomposition (the input
that the exponentials serve at finite times) falls back to one solve of
``L x = 0`` with the conserved quantities fixed, whose pseudo-inverse also
gives the derivative.

:func:`rate_law` gives the steady state of a model without L: the Gibbs law
of each sector of the population rate matrix, from the model's channels,
where detailed balance holds and no initial coherence survives.  The
experiments take it wherever it applies and the projection elsewhere.
"""

from __future__ import annotations

import copy

import numpy as np

from .errors import NoConvergence, NonPositiveInput, PositivityViolation
from .linalg import dag, expm, unvec, validate_density_matrix, vec
from .master_equation import CHANNEL_PRUNE_TOL, Channels, Liouvillian

__all__ = ["propagate", "rate_law", "law_states"]

#: The spectral route is abandoned for one exponential per time point when
#: ``||V||_F ||V^-1||_F``, an upper bound on the condition number of the
#: generator's eigenvector matrix ``V``, is larger (at the defaults it reads
#: 4 on the direct probe and 16.8-16.9 on the four-level models, where
#: ``cond_2(V)`` reads 1 and 2.25-2.35).  With unit columns the bound is at
#: most ``d^2 cond_2(V)`` (``V`` is d^2 x d^2), so the effective ``cond_2``
#: cutoff lies between 1e4 / d^2 (625 on the four-level models) and 1e4 ...
SPECTRAL_COND_MAX = 1e4

#: ... or when ``V diag(lam) V^-1`` misses the generator by more than this,
#: relative to its largest entry.
SPECTRAL_RESIDUAL_MAX = 1e-12

#: Eigenvalues closer than this, relative to the largest, are equal in the
#: derivative; one this close to 0 is zeroed as stationary, and a mode whose
#: real part is this close to 0 does not decay.  A decaying mode can sit
#: closer to 0: at kappa 0.6, eta 0.01, eta2 0.05, T 0.4 and cutoff 0.05, one
#: sits at 9.3e-12 (local baths) and 2.3e-12 (common bath) of max|lam|.  Once
#: it is zeroed, ``V diag(lam) V^-1`` misses L by 4.7e-12 and 1.2e-12 relative
#: (3.4e-16 before, with cond(V) 2.25), and every time takes an exponential.
#: Of 11340 generators of the four models (T 1e-4 to 1e3, kappa 1e-6 to 100,
#: eta 0 to 5, cutoff 0.1 to 1e4), 149 take that route, all for this reason.
EQUAL_EIG_TOL = 1e-10


#: Gibbs flows ``W_mk p_k`` and ``W_km p_m`` of a pair of levels that differ
#: by more than this, relative to the larger, break detailed balance.
BALANCE_TOL = 1e-10


def _states(rho: np.ndarray) -> np.ndarray:
    """Validated, re-Hermitized state(s).

    Raises ``PositivityViolation`` if a state has an eigenvalue below -1e-8,
    which would signal a defective generator.
    """
    rho = 0.5 * (rho + dag(rho))
    return validate_density_matrix(rho, herm_tol=1e-12, eig_floor=-1e-8)


def rate_law(channels: Channels, rho0: np.ndarray, temperature: float):
    """Steady populations ``p`` of ``rho0`` on the eigenvectors
    ``channels.vecs`` and their exact ``d log p / dT``, from the population
    rate law; ``None`` where the law does not give the steady state.

    In the eigenbasis, channel ``c`` moves level ``k`` to ``m`` at the rate
    ``g_c |<m|A_c|k>|^2``, each channel masked to its own pairs, and the sum
    over channels is the rate matrix ``W``.  Its connected components are the
    sectors.  Where ``W`` obeys detailed balance, each sector relaxes to its
    Gibbs law ``p_k ~ exp(-E_k / T)``, weighted by ``rho0``'s population of
    the sector, and ``d log p_k / dT = sum_j p_j (E_k - E_j) / T^2`` over
    the sector (Spohn, Lett. Math. Phys. 2, 33 (1977)).

    ``None`` when a channel maps one level to two or two levels to one (its
    dissipator then feeds coherences from populations), when balance fails
    by more than ``BALANCE_TOL``, when ``rho0`` has a coherence that no
    channel damps (one between levels that every channel treats alike), or
    when a rate overflows.
    """
    vecs, energies, live = channels.vecs, channels.energies, channels.rates > 0
    m = np.where(channels.pairs[live], dag(vecs) @ channels.ops[live] @ vecs, 0.0)
    floor = CHANNEL_PRUNE_TOL * np.abs(m).max(initial=0.0)
    m[np.abs(m) <= floor] = 0.0
    nz = m != 0.0
    if (nz.sum(axis=-1) > 1).any() or (nz.sum(axis=-2) > 1).any():
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        w = (channels.rates[live, None, None] * (m.real**2 + m.imag**2)).sum(axis=0)  # W[target, source]
    if not np.isfinite(w).all():  # overflowing rates: the generator's NonFinite names them
        return None

    # the coherence (k, n) is damped if a channel moves one level and not
    # the other, or leaves both in place with unequal amplitudes
    source, target, fixed = nz.any(axis=-2), nz.any(axis=-1), np.diagonal(nz, 0, -2, -1)
    amp = np.diagonal(m, 0, -2, -1)
    damped = ((source[:, :, None] != source[:, None, :]) | (target[:, :, None] != target[:, None, :])
              | (fixed[:, :, None] & fixed[:, None, :] & (np.abs(amp[:, :, None] - amp[:, None, :]) > floor)))
    r0 = dag(vecs) @ rho0 @ vecs
    d = len(energies)
    # a coherence at rounding level excites nothing, as ``_limit`` judges modes
    if (np.abs(r0) > EQUAL_EIG_TOL)[~np.eye(d, dtype=bool) & ~damped.any(axis=0)].any():
        return None

    sector = (w > 0.0) | (w.T > 0.0) | np.eye(d, dtype=bool)
    while not np.array_equal(grown := sector @ sector, sector):
        sector = grown
    gibbs = np.exp(-(energies - np.where(sector, energies, np.inf).min(axis=1)) / temperature)
    flow = w * gibbs  # W_mk p_k
    if (np.abs(flow - flow.T) > BALANCE_TOL * np.maximum(flow, flow.T)).any():
        return None
    q = gibbs / np.where(sector, gibbs, 0.0).sum(axis=1)
    p = q * np.where(sector, np.maximum(r0.diagonal().real, 0.0), 0.0).sum(axis=1)
    # sum_j q_j (E_k - E_j), never E_k - <E>: a two-level sector's minority
    # level keeps its relative precision, and a q_j that underflows adds 0;
    # a level without population keeps d log p = 0 (its T^-2 could overflow)
    spread = np.where(sector, q * (energies[:, None] - energies), 0.0).sum(axis=1)
    dlog = np.zeros_like(p)
    dlog[p > 0.0] = spread[p > 0.0] / temperature / temperature
    return p, dlog


def law_states(vecs: np.ndarray, p: np.ndarray, dlog: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validated state ``U diag(p) U^H`` and its derivative ``U diag(p dlog)
    U^H`` of :func:`rate_law`'s populations on the eigenvectors ``U = vecs``."""
    rho, drho = ((vecs * x) @ dag(vecs) for x in (p, p * dlog))
    return _states(rho), 0.5 * (drho + dag(drho))


class _Evolution:
    """States of ``rho0`` up to ``t = inf`` and their exact temperature
    derivatives, from one decomposition of L, which :meth:`prepared` shares,
    with the last grid's ``exp(lam t)``."""

    def __init__(self, liouvillian: Liouvillian, rho0: np.ndarray):
        self.superop = liouvillian.superop
        self.d_superop = liouvillian.d_superop
        self.basis = None  # (V, V^-1, gap, equal, V^-1 dL/dT V) if both tests pass
        # (times.tobytes(), exp(lam t)) of the last grid: one slot, which the
        # preparations share and racing threads fill with the same bits
        self._last_grid = [(None, None)]
        lam, v = np.linalg.eig(self.superop)
        self.scale = scale = np.max(np.abs(lam))  # zeroing below keeps it
        # stationary modes are exactly 0; rounding would drift the trace as exp(lam t)
        lam[np.abs(lam) <= EQUAL_EIG_TOL * scale] = 0.0
        self.lam = lam
        try:
            v_inv = np.linalg.inv(v)
        except np.linalg.LinAlgError:  # V is singular: L has no eigenbasis
            v_inv = None
        # ||V||_F ||V^-1||_F >= cond_2(V), so this accepts no basis that
        # cond_2 would reject; a NaN bound fails the comparison
        if v_inv is not None and np.linalg.norm(v) * np.linalg.norm(v_inv) <= SPECTRAL_COND_MAX:
            residual = np.max(np.abs((v * lam) @ v_inv - self.superop))
            if residual <= SPECTRAL_RESIDUAL_MAX * np.max(np.abs(self.superop)):
                gap = np.subtract.outer(lam, lam)
                equal = np.abs(gap) <= EQUAL_EIG_TOL * scale
                self.basis = (v, v_inv, gap, equal, v_inv @ self.d_superop @ v)
        self._prepare(rho0)

    def prepared(self, rho0: np.ndarray) -> _Evolution:
        """The evolution of ``rho0`` under the same generator."""
        evolution = copy.copy(self)
        evolution._prepare(rho0)
        return evolution

    def _prepare(self, rho0):
        self.v0 = vec(rho0)
        self.spectral = None  # (V, c, Y, z) of a decomposition that passes both tests
        if self.basis is None:
            return
        lam, (v, v_inv, gap, equal, x) = self.lam, self.basis
        c = v_inv @ self.v0
        xc = x * c
        # the conserved quantities (the left null space) do not depend on T
        xc[lam == 0] = 0.0
        y = np.divide(xc, gap, out=np.zeros_like(xc), where=~equal)
        z = np.where(equal, xc, 0.0).sum(axis=1)
        self.spectral = (v, c, y, z)

    def _exponentials(self, times):
        n = len(self.v0)
        block = np.block([[self.superop, self.d_superop], [np.zeros_like(self.superop), self.superop]])
        start = np.concatenate([np.zeros(n, dtype=complex), self.v0])
        out = np.array([expm(block * t) @ start for t in times])
        return out[:, n:], out[:, :n]

    def _finite(self, times):
        vecs = dvecs = None
        if self.spectral is not None:
            v, c, y, z = self.spectral
            # (n_t, 1, d^2): each time's vector is its own product, so a state
            # has the same bits whether it is evaluated alone or in any stack
            grid = times.tobytes()
            key, e = self._last_grid[0]
            if key != grid:
                e = np.exp(np.multiply.outer(times, self.lam))[:, None]
                self._last_grid[0] = (grid, e)
            tz = np.multiply.outer(times, z)[:, None]
            vecs = ((e * c) @ v.T)[:, 0]
            dvecs = ((e * (y.sum(axis=1) + tz) - e @ y.T) @ v.T)[:, 0]
        if vecs is None or not (np.isfinite(vecs).all() and np.isfinite(dvecs).all()):
            vecs, dvecs = self._exponentials(times)
        return vecs, dvecs

    def _limit(self):
        """vec of the steady state and of its derivative."""
        lam, scale = self.lam, self.scale
        stuck = (lam != 0) & (lam.real >= -EQUAL_EIG_TOL * scale)
        if np.any(stuck) and self.spectral is not None:  # without a decomposition, every mode is excited
            # rho0 leaves mode i alone at and around this T if c_i = 0 and dc_i/dT = sum_j Y_ij = 0
            (_, c, y, _), (*_, x) = self.spectral, self.basis
            size = np.max(np.abs(c))
            stuck &= (np.abs(c) > EQUAL_EIG_TOL * size) | (
                np.abs(lam * y.sum(axis=1)) > EQUAL_EIG_TOL * size * np.max(np.abs(x))
            )
        if np.any(stuck):
            raise NoConvergence(
                f"mode lam = {lam[stuck][0]:.6g} of the generator does not decay at a rate above "
                f"{EQUAL_EIG_TOL:g} max|lam| = {EQUAL_EIG_TOL * scale:.3g}: no steady state"
            )
        if self.spectral is not None:
            v, c, y, _ = self.spectral
            zero = lam == 0
            x, dx = v[:, zero] @ c[zero], v @ -y[:, zero].sum(axis=1)
        else:
            # L x = 0 with the conserved quantities u^H x = u^H vec(rho0) fixed
            n, n_zero = len(lam), int(np.sum(lam == 0))
            left_null = dag(np.linalg.svd(self.superop)[0][:, n - n_zero :])
            solve = np.linalg.pinv(np.vstack([self.superop, left_null]))
            x = solve @ np.concatenate([np.zeros(n), left_null @ self.v0])
            dx = solve @ np.concatenate([-self.d_superop @ x, np.zeros(n_zero)])
        try:
            # the trace alone; __call__ checks the rest of the state
            validate_density_matrix(unvec(x), herm_tol=np.inf, eig_floor=-np.inf)
        except PositivityViolation as exc:
            # rounding in L reaches the limit amplified by 1 / (slowest rate)
            raise NoConvergence(
                f"steady state not resolved ({exc}): the slowest mode decays at rate "
                f"{-np.max(lam.real[lam != 0]):.3e} against max|lam| = {scale:.3e}"
            ) from None
        return x, dx

    def __call__(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Validated state at time ``t >= 0`` (``inf``: the steady state) and
        its Hermitian temperature derivative, or ``(n_t, d, d)`` stacks of
        both on a grid ``t``."""
        times = np.asarray(t, dtype=float).reshape(-1)
        bad = ~(times >= 0)  # a nan too
        if bad.any():
            raise NonPositiveInput(f"propagation time must be >= 0, got {times[bad][0]}")
        steady = times == np.inf
        if not steady.any():
            # each time's vector is its own product, so the t = 0 rows
            # overwritten below leave the other rows' bits alone
            vecs, dvecs = self._finite(times)
        else:
            vecs, dvecs = np.empty((2, len(times), len(self.v0)), dtype=complex)
            finite = ~steady & (times > 0)
            if finite.any():
                vecs[finite], dvecs[finite] = self._finite(times[finite])
            vecs[steady], dvecs[steady] = self._limit()
        # exp(L 0) = I exactly, which the decomposition reproduces only to rounding
        zero = times == 0
        vecs[zero] = self.v0
        dvecs[zero] = 0.0
        rho, drho = _states(unvec(vecs)), unvec(dvecs)
        drho = 0.5 * (drho + dag(drho))
        return (rho[0], drho[0]) if np.ndim(t) == 0 else (rho, drho)


def propagate(liouvillian: Liouvillian, rho0: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """State of ``rho0`` after time ``t >= 0`` and its exact temperature
    derivative: matrices for a scalar ``t``, ``(n_t, d, d)`` stacks for a
    grid, and the steady state for ``t = inf``.

    One eigendecomposition of the generator serves every time.  If its
    eigenvector matrix is ill conditioned (``SPECTRAL_COND_MAX``), it does
    not reproduce the generator (``SPECTRAL_RESIDUAL_MAX``) or a state
    overflows, each finite time gets its own exponential instead, and the
    steady state one linear solve.

    Raises ``NoConvergence`` at ``t = inf`` when ``rho0`` excites a
    non-stationary mode that does not decay, or when the limit loses its
    trace because the slowest mode decays too slowly for the rounding of L
    to leave it resolved; and ``PositivityViolation`` if a state has an
    eigenvalue below -1e-8, which would signal a defective generator.
    """
    return _Evolution(liouvillian, rho0)(t)
