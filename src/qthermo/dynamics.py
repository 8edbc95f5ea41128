"""Exact time evolution under a fixed Liouvillian (at most 16x16), with exact
temperature derivatives, and the steady state from the population rate law.

A stack of items (initial states, each under one of a list of generators)
diagonalises each generator once, ``L = V diag(lam) V^-1``, for all of its
items and times, in one stacked ``eig``; the items' states on a grid are one
validated ``(k, n_t, d, d)`` stack: ``vec rho(t) = V (e * c)``, with one
``e = exp(lam t)`` per generator and grid and ``c = V^-1 vec(rho0)`` per item.

Only the bath occupations depend on T, so ``build_liouvillian`` also builds
``dL/dT``, and the same decomposition gives the exact ``d rho(t)/dT``
(Daleckii-Krein divided differences): with ``X = V^-1 (dL/dT) V`` its
eigenbasis coefficients are ``e * (Y 1 + t z) - e Y^T``, where
``Y_ij = X_ij c_j / (lam_i - lam_j)`` for distinct eigenvalues and ``z_i``
sums ``X_ij c_j`` over ``lam_j = lam_i``.  When the decomposition cannot be
trusted, or an item's state is not finite, each of its times gets its own
exponential of the block generator ``[[L, dL/dT], [0, L]]`` instead, whose
right column holds the state and its derivative (Van Loan 1978).  Times are
finite.

:func:`rate_law` gives a model's steady state (``t = inf``) without L, from
its channels: the Gibbs law of each sector of the population rate matrix,
and the initial coherences that no channel damps within a level.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, NonPositiveInput, QThermoError, ResolutionLimit
from .linalg import dag, expm, unvec, validate_density_matrix
from .master_equation import CHANNEL_PRUNE_TOL, DEFAULT_FREQ_TOL, Channels, Liouvillian, overflow_error

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
#: derivative, and one this close to 0 is zeroed as stationary.  A decaying
#: mode can sit closer to 0: at kappa 0.6, eta 0.01, eta2 0.05, T 0.4 and
#: cutoff 0.05, one sits at 9.3e-12 (local baths) and 2.3e-12 (common bath)
#: of max|lam|.  Once it is zeroed, ``V diag(lam) V^-1`` misses L by 4.7e-12
#: and 1.2e-12 relative (3.4e-16 before, with cond(V) 2.25), and every time
#: takes an exponential: 149 of 11340 generators of the four models (T 1e-4
#: to 1e3, kappa 1e-6 to 100, eta 0 to 5, cutoff 0.1 to 1e4), all for this.
EQUAL_EIG_TOL = 1e-10

#: Gibbs flows ``W_mk p_k`` and ``W_km p_m`` of a pair of levels that differ
#: by more than this, relative to the larger, break detailed balance.
BALANCE_TOL = 1e-10

#: A coherence of ``rho0`` on the eigenvectors that no channel damps stays,
#: or precesses forever, once its modulus exceeds this (absolute: ``rho0``
#: has unit trace).  Below, it is rounding of the eigenvectors: 9.5e-17 on
#: the exchange state of a common bath at eta2 = eta, which the bath cannot
#: reach (the CLI default, ``test_default_common_bath_steady_point``).
COHERENCE_FLOOR = 1e-10


def _states(rho: np.ndarray) -> np.ndarray:
    """Validated, re-Hermitized state(s); ``PositivityViolation`` for an
    eigenvalue below -1e-8, which would signal a defective generator."""
    rho = 0.5 * (rho + dag(rho))
    return validate_density_matrix(rho, herm_tol=1e-12, eig_floor=-1e-8)


def rate_law(channels: Channels, rho0: np.ndarray, temperature: float):
    """Steady state of ``rho0`` on the eigenvectors ``channels.vecs`` from the
    population rate law: populations ``p``, their exact ``d log p / dT`` and
    the ``(d, d)`` coherences of ``rho0`` that stay (zero elsewhere).

    Channel ``c`` moves level ``k`` to ``m`` at the rate ``g_c |<m|A_c|k>|^2``
    (each channel masked to its own pairs); their sum is the rate matrix
    ``W``, whose connected components are the sectors.  Under detailed
    balance each sector relaxes to its Gibbs law, weighted by ``rho0``'s
    population of the sector, with ``d log p_k / dT = sum_j p_j (E_k - E_j)
    / T^2`` (Spohn, Lett. Math. Phys. 2, 33 (1977)).  Baths at several
    temperatures break balance: each sector's stationary law of ``dp/dt =
    (W - diag(1 W)) p`` and its solve with ``dW/dT`` take over.  A coherence
    that no channel damps stays between levels of one energy
    (``DEFAULT_FREQ_TOL``) and raises ``NoConvergence`` between others.
    ``ResolutionLimit`` names an imbalance in a sector with levels that
    ``DEFAULT_FREQ_TOL`` merges but Gibbs tells apart (below T ~ 4e-14),
    ``NonFinite`` an overflowing rate or frequency, and ``QThermoError`` a
    channel joining one level to two (no model has one).
    """
    vecs, energies, live = channels.vecs, channels.energies, channels.rates > 0
    m = np.where(channels.pairs[live], dag(vecs) @ channels.ops[live] @ vecs, 0.0)
    floor = CHANNEL_PRUNE_TOL * np.abs(m).max(initial=0.0)
    m[np.abs(m) <= floor] = 0.0
    nz = m != 0.0
    split = (nz.sum(axis=-1) > 1).any(axis=-1) | (nz.sum(axis=-2) > 1).any(axis=-1)
    if split.any():
        omega = channels.omegas[live][split][0]
        raise QThermoError(f"the channel at omega = {omega:g} joins one level to two: the rate law does not apply")
    with np.errstate(over="ignore", invalid="ignore"):
        w = (channels.rates[live, None, None] * (m.real**2 + m.imag**2)).sum(axis=0)  # W[target, source]
        bohr = np.subtract.outer(energies, energies)  # inf where 2 kappa overflows
    # the generator names overflowing rates, and the nan rates (inf * 0) of infinite frequencies
    if not np.isfinite(w).all() or (np.isnan(channels.rates) & np.isinf(channels.omegas)).any():
        raise overflow_error(channels)

    # the coherence (k, n) is damped if a channel acts on one level and not
    # the other, or leaves them in place with unequal amplitudes (0 for one
    # that it moves)
    source, target, amp = nz.any(axis=-2), nz.any(axis=-1), np.diagonal(m, 0, -2, -1)
    damped = ((source[:, :, None] != source[:, None, :]) | (target[:, :, None] != target[:, None, :])
              | (np.abs(amp[:, :, None] - amp[:, None, :]) > floor))
    r0 = dag(vecs) @ rho0 @ vecs
    d = len(energies)
    undamped = (np.abs(r0) > COHERENCE_FLOOR) & ~np.eye(d, dtype=bool) & ~damped.any(axis=0)
    if (precessing := undamped & (np.abs(bohr) > DEFAULT_FREQ_TOL)).any():
        k, n = np.argwhere(precessing)[0]
        raise NoConvergence(
            f"the coherence of rho0 between the levels E = {energies[k]:.6g} and {energies[n]:.6g} does not "
            f"decay: no channel damps it, and it precesses at the Bohr frequency {bohr[k, n]:.6g} forever"
        )

    sector = (w > 0.0) | (w.T > 0.0) | np.eye(d, dtype=bool)
    while not np.array_equal(grown := sector @ sector, sector):
        sector = grown
    gibbs = np.exp(-(energies - np.where(sector, energies, np.inf).min(axis=1)) / temperature)
    flow = w * gibbs  # W_mk p_k
    unbalanced = np.abs(flow - flow.T) > BALANCE_TOL * np.maximum(flow, flow.T)
    pop = np.where(sector, np.maximum(r0.diagonal().real, 0.0), 0.0).sum(axis=1)
    if unbalanced.any():
        # levels that share their channels' frequencies (DEFAULT_FREQ_TOL) but not their Gibbs weights
        merged = (np.abs(bohr) <= DEFAULT_FREQ_TOL) & (np.abs(bohr) > BALANCE_TOL * temperature)
        if (clash := unbalanced & (sector & merged.any(axis=1)).any(axis=1)[:, None]).any():
            k, n = np.argwhere(clash)[0]
            raise ResolutionLimit(
                f"the rates between the levels E = {energies[k]:.6g} and {energies[n]:.6g} break detailed "
                f"balance at T = {temperature:g}: Gibbs flows {flow[n, k]:.6g} up and {flow[k, n]:.6g} down, "
                f"where levels closer than {DEFAULT_FREQ_TOL:g} share their channels"
            )
        # baths at several temperatures: each sector's first row fixes its population
        dw = (channels.d_rates[live, None, None] * (m.real**2 + m.imag**2)).sum(axis=0)
        lead = sector.argmax(axis=1) == np.arange(d)
        a = np.where(lead[:, None], sector, w - np.diag(w.sum(axis=0)))
        p = np.linalg.solve(a, np.where(lead, pop, 0.0))
        dp = np.linalg.solve(a, np.where(lead, 0.0, dw.sum(axis=0) * p - dw @ p))
        return p, np.divide(dp, p, out=np.zeros_like(p), where=p > 0.0), np.where(undamped, r0, 0.0)
    q = gibbs / np.where(sector, gibbs, 0.0).sum(axis=1)
    p = q * pop
    # sum_j q_j (E_k - E_j), never E_k - <E>: a two-level sector's minority
    # level keeps its relative precision, and a q_j that underflows adds 0;
    # a level without population keeps d log p = 0 (its T^-2 could overflow)
    spread = np.where(sector, q * (energies[:, None] - energies), 0.0).sum(axis=1)
    dlog = np.zeros_like(p)
    dlog[p > 0.0] = spread[p > 0.0] / temperature / temperature
    return p, dlog, np.where(undamped, r0, 0.0)


def law_states(vecs: np.ndarray, p, dlog, kept) -> tuple[np.ndarray, np.ndarray]:
    """Validated state ``U (diag(p) + kept) U^H`` and its derivative ``U
    diag(p dlog) U^H`` of :func:`rate_law`'s steady state on ``U = vecs``."""
    rho, drho = ((vecs * x) @ dag(vecs) for x in (p, p * dlog))
    if kept.any():
        rho += vecs @ kept @ dag(vecs)
    return _states(rho), 0.5 * (drho + dag(drho))


class _Evolution:
    """States at finite times and their exact temperature derivatives of the
    items ``rho0[i]``, each under ``liouvillians[generator[i]]``; one stacked
    ``eig`` decomposes each generator once for all of its items and times."""

    def __init__(self, liouvillians, rho0, generator):
        self.liouvillians, self.generator = liouvillians, np.asarray(generator)
        self.v0 = np.asarray(rho0, dtype=complex).swapaxes(-1, -2).reshape(len(self.generator), -1)  # vec rho0[i]
        # per item (V^-1 vec rho0, Y 1, z) and Y of a basis that passes both tests
        self.c, self.ysum, self.z = np.zeros((3, *self.v0.shape), dtype=complex)
        self.y = np.zeros((*self.v0.shape, self.v0.shape[-1]), dtype=complex)
        # LAPACK decomposes each generator of the stack as it would alone
        self.lam, vecs = np.linalg.eig(np.array([liou.superop for liou in liouvillians]))
        self.basis = [self._prepare(g, v) for g, v in enumerate(vecs)]

    def _prepare(self, g, v):
        """``V`` of generator ``g`` with its items' coefficients, or ``None``."""
        superop, lam = self.liouvillians[g].superop, self.lam[g]
        scale = np.max(np.abs(lam))
        # stationary modes are exactly 0; rounding would drift the trace as exp(lam t)
        lam[np.abs(lam) <= EQUAL_EIG_TOL * scale] = 0.0
        try:
            v_inv = np.linalg.inv(v)
        except np.linalg.LinAlgError:  # V is singular: L has no eigenbasis
            return None
        # ||V||_F ||V^-1||_F >= cond_2(V), so this accepts no basis that
        # cond_2 would reject; a NaN bound or residual fails the comparison
        if not (np.linalg.norm(v) * np.linalg.norm(v_inv) <= SPECTRAL_COND_MAX
                and np.max(np.abs((v * lam) @ v_inv - superop)) <= SPECTRAL_RESIDUAL_MAX * np.max(np.abs(superop))):
            return None
        gap = np.subtract.outer(lam, lam)
        equal = np.abs(gap) <= EQUAL_EIG_TOL * scale
        mine = self.generator == g if len(self.liouvillians) > 1 else slice(None)
        c = (v_inv @ self.v0[mine][..., None])[..., 0]
        xc = (v_inv @ self.liouvillians[g].d_superop @ v) * c[:, None, :]
        # the conserved quantities (the left null space) do not depend on T
        xc[:, lam == 0] = 0.0
        y = np.divide(xc, gap, out=np.zeros_like(xc), where=~equal)
        self.c[mine], self.y[mine], self.ysum[mine] = c, y, y.sum(axis=-1)
        self.z[mine] = np.where(equal, xc, 0.0).sum(axis=-1)
        return v

    def _exponentials(self, item, times):
        liou, n = self.liouvillians[self.generator[item]], self.v0.shape[-1]
        block = np.block([[liou.superop, liou.d_superop], [np.zeros_like(liou.superop), liou.superop]])
        start = np.concatenate([np.zeros(n, dtype=complex), self.v0[item]])
        out = np.array([expm(block * t) @ start for t in times])
        return out[:, n:], out[:, :n]

    def _grid(self, items, times):
        """Vectors ``(k, n_t, d^2)`` of ``items`` (one generator) at ``times``:
        each its own ``(1, d^2)`` product with a stride-0 row of one ``exp(lam
        t)``, the same bits in any stack; a non-finite item takes exponentials."""
        g, n = self.generator[items[0]], self.v0.shape[-1]
        if (v := self.basis[g]) is None:
            vecs, dvecs = np.full((2, len(items), len(times), n), np.nan, dtype=complex)
        else:
            e = np.exp(np.multiply.outer(times, self.lam[g]))[:, None]
            c, ysum, z = (x[items][:, None, None] for x in (self.c, self.ysum, self.z))
            ey = e @ self.y[items].transpose(0, 2, 1)[:, None]
            vecs = ((e * c) @ v.T)[..., 0, :]
            dvecs = ((e * (ysum + times[:, None, None] * z) - ey) @ v.T)[..., 0, :]
        for k in np.flatnonzero(~(np.isfinite(vecs).all(axis=(1, 2)) & np.isfinite(dvecs).all(axis=(1, 2)))):
            vecs[k], dvecs[k] = self._exponentials(items[k], times)
        # exp(L 0) = I exactly, which the decomposition reproduces only to rounding
        if (zero := times == 0).any():
            vecs[:, zero], dvecs[:, zero] = self.v0[items][:, None], 0.0
        return vecs, dvecs

    def __call__(self, t, items) -> tuple[np.ndarray, np.ndarray]:
        """Validated states and Hermitian derivatives at the pairs ``(items,
        t)`` broadcast together, ``t`` finite and ``>= 0``: one item or a
        ``(k, 1)`` column on a grid in one stack, other pairs item by item."""
        times, items = np.asarray(t, dtype=float), np.asarray(items)
        bad = ~(times >= 0)  # a nan too
        if bad.any():
            raise NonPositiveInput(f"propagation time must be >= 0, got {times[bad][0]}")
        if (times == np.inf).any():
            raise NonPositiveInput("propagation time must be finite, got inf: the steady state is TemperatureFamily's")
        n = self.v0.shape[-1]
        if items.ndim == 0 or (items.shape[1:] == (1,) and times.ndim == 1):
            shape, items, times = items.shape[:1] + times.shape, items.reshape(-1), times.reshape(-1)
            if len(self.liouvillians) == 1:
                vecs, dvecs = self._grid(items, times)
            else:
                vecs, dvecs = np.empty((2, len(items), len(times), n), dtype=complex)
                for g in np.unique(generator := self.generator[items]):
                    vecs[generator == g], dvecs[generator == g] = self._grid(items[generator == g], times)
        else:
            shape = np.broadcast_shapes(items.shape, times.shape)
            items, times = (np.broadcast_to(x, shape).reshape(-1) for x in (items, times))
            vecs, dvecs = np.empty((2, len(items), n), dtype=complex)
            for i in np.unique(items):
                vecs[items == i], dvecs[items == i] = (x[0] for x in self._grid(i[None], times[items == i]))
        rho, drho = _states(unvec(vecs.reshape(*shape, n))), unvec(dvecs.reshape(*shape, n))
        return rho, 0.5 * (drho + dag(drho))


def propagate(liouvillian: Liouvillian, rho0: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """State of ``rho0`` after a finite time ``t >= 0`` and its exact
    temperature derivative: matrices for a scalar ``t``, ``(n_t, d, d)``
    stacks for a grid.

    One eigendecomposition of the generator serves every time.  If its
    eigenvector matrix is ill conditioned (``SPECTRAL_COND_MAX``), it does
    not reproduce the generator (``SPECTRAL_RESIDUAL_MAX``) or a state
    overflows, each time gets its own exponential instead.  Raises
    ``NonPositiveInput`` for a time that is not finite and ``>= 0`` (the
    steady state is :func:`rate_law`'s), and ``PositivityViolation`` for a
    state with an eigenvalue below -1e-8 (a defective generator).
    """
    return _Evolution([liouvillian], [rho0], [0])(t, 0)
