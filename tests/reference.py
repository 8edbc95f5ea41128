"""Test oracles: the package's exact temperature derivatives, its steady
states, the closed forms the engine is checked against, and its channel
decomposition of a single coupling operator.

:func:`d_rho_dT` takes validated central differences of any family
``T -> rho(T)``.  It shares no code with the exact route (``dL/dT`` and
Daleckii-Krein in ``qthermo.dynamics``), which is what makes it an
independent cross-check; no experiment takes a finite difference.

:func:`steady_state` is the t -> inf limit of any generator's spectral
decomposition, hand-built generators included; the package takes a model's
steady state from the population rate law (``qthermo.dynamics.rate_law``)
instead, which shares no code with it.  :func:`propagate_generator` takes
any generator's finite-time states from Van Loan exponentials; the package
propagates a model block by block in its Hamiltonian eigenbasis instead.

Conventions of the closed forms match :mod:`qthermo.models`: resonant
qubits at unit transition frequency, hbar = k_B = 1.

Transient probe state
---------------------
For the probe + ancilla model at theta = pi/2 the reduced probe state is
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

Two qubits in the one-excitation sector
---------------------------------------
H, every coupling operator and so every jump operator conserve the number
of excitations, so ``cos(theta/2)|01> + sin(theta/2)|10>`` never leaves
span{|01>, |10>}.  There ``H = k sigma_x`` and both ``sz`` couplings act as
``+-sigma_z``: in the basis ``|+-> = (|01> +- |10>)/sqrt 2`` (energies
``+-k``) the sector is one qubit relaxing through a single transverse
channel at Bohr frequency 2k, with the effective coupling ``eta + eta2``
(local baths) or ``(sqrt(eta1) - sqrt(eta2))^2`` (common bath).
:func:`two_qubit_sector_qfi` is its exact QFI in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qthermo.errors import NoConvergence, NonPositiveInput, PositivityViolation
from qthermo.fisher import _raise_first
from qthermo.linalg import dag, expm, unvec, validate_density_matrix, vec
from qthermo.master_equation import _jump_stack
from qthermo.models import BathSpec, LocalBaths, TwoQubitModel

#: Eigenvalues of L closer than this to 0, relative to the largest, are
#: stationary; a mode whose real part is this close to 0 does not decay.
STATIONARY_TOL = 1e-10


def probe_ancilla(kappa: float, bath: BathSpec, theta: float) -> TwoQubitModel:
    """The probe+ancilla model of ``make_model("probe_ancilla")``: an
    uncoupled probe and an ancilla dephasing in ``bath``."""
    probe = BathSpec(0.0, bath.cutoff, bath.temperature)
    return TwoQubitModel(kappa, LocalBaths(probe, bath), theta, ancilla=True)


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


def propagate_generator(liouvillian, rho0: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """State of ``rho0`` under a hand-built generator after each time ``t``
    and its temperature derivative: one exponential of the block generator
    ``[[L, dL/dT], [0, L]] t`` per time, whose right column holds the state
    and its derivative (Van Loan, IEEE Trans. Autom. Control 23, 395
    (1978)).  Matrices for a scalar ``t``, stacks for a grid; the states are
    validated as the engine's (``PositivityViolation`` below -1e-8).
    """
    superop, n = liouvillian.superop, liouvillian.superop.shape[0]
    block = np.block([[superop, liouvillian.d_superop], [np.zeros_like(superop), superop]])
    start = np.concatenate([np.zeros(n, dtype=complex), vec(rho0)])
    times = np.asarray(t, dtype=float)
    out = np.array([expm(block * s) @ start for s in times.ravel()]).reshape(*times.shape, 2 * n)
    rho, drho = unvec(out[..., n:]), unvec(out[..., :n])
    rho = validate_density_matrix(0.5 * (rho + dag(rho)), herm_tol=1e-12, eig_floor=-1e-8)
    return rho, 0.5 * (drho + dag(drho))


def jump_operators(h: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a coupling operator into jump operators of ``h``: ``(omegas,
    ops)``, ascending Bohr frequencies ``(n,)`` and their ``(n, d, d)`` operators,
    by the stacked pass a model's channels come from
    (``qthermo.master_equation._jump_stack``).

    Energy levels within ``DEFAULT_FREQ_TOL`` are merged (projectors are
    summed over the degenerate subspace, so the arbitrary eigenvector basis
    inside a degenerate block cannot leak into the result).  Channels whose largest
    entry is at most ``CHANNEL_PRUNE_TOL`` times ``a``'s are dropped, so a
    zero ``a`` has none.  The surviving channels satisfy
    ``[A(w), h] = w A(w)`` and sum back to ``a``.
    """
    omegas, ops, keep, _ = _jump_stack(h, np.asarray(a, dtype=complex)[None])
    return omegas[keep[0]], ops[0, keep[0]]


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


def two_qubit_sector_qfi(model, t: float) -> float:
    """Exact temperature QFI of a two-qubit model at time ``t`` (``inf``: the
    steady state), for ``kappa > 0``, from the one-excitation sector.

    With ``n = n(2k)``, ``Gamma = 2 pi J(2k) (2n + 1)`` and ``e = e^{-Gamma t}``,
    ``p+ = p_ss + a e`` with ``p_ss = 1 / (1 + e^{2k/T})`` and ``a = (1 +
    sin theta)/2 - p_ss``, and ``|c|^2 = |<+|rho|->|^2 = (cos^2 theta / 4) e``.  The
    Bloch-form QFI is ``(dv/dT)^2 / (4 v) + 4 (dp+/dT)^2 + 4 |dc/dT|^2`` with
    ``v = 1 - |r|^2 = 4 (1 - e) (p_ss (1 - p_ss) + a^2 e)``, which, unlike
    ``4 (p+ p- - |c|^2)``, keeps a near-pure state's ``v`` to full relative
    precision; ``dn/dT = n (n + 1) 2k / T^2`` and ``dp_ss/dT = p_ss (1 - p_ss)
    2k / T^2``.
    """
    cfg, kappa, theta = model.bath_config, model.kappa, model.theta
    if model.ancilla:  # |1>_P (...)_A leaves the sector
        raise ValueError("the sector oracle needs the exchange preparation")
    if isinstance(cfg, LocalBaths):  # both at one temperature and cutoff
        bath, eta = cfg.bath1, cfg.bath1.eta + cfg.bath2.eta
    else:  # (sqrt(eta1) - sqrt(eta2))^2 without cancellation where eta1 ~ eta2
        bath = cfg
        eta = 0.0 if cfg.eta1 == cfg.eta2 else (cfg.eta1 - cfg.eta2) ** 2 / (np.sqrt(cfg.eta1) + np.sqrt(cfg.eta2)) ** 2
    temp, cutoff = bath.temperature, bath.cutoff
    if kappa <= 0:
        raise NonPositiveInput("the sector oracle needs kappa > 0")
    x = kappa / temp
    dx = 2.0 * x / temp  # -d(2k/T)/dT
    n = 1.0 / np.expm1(2.0 * x)
    dn = n * (n + 1.0) * dx
    e2 = np.exp(-2.0 * x)
    p, q = e2 / (1.0 + e2), 1.0 / (1.0 + e2)  # p_ss and 1 - p_ss, logistic
    dp = p * q * dx
    j = eta * 2.0 * kappa * np.exp(-2.0 * kappa / cutoff)
    gamma, d_gamma = 2.0 * np.pi * j * (2.0 * n + 1.0), 4.0 * np.pi * j * dn
    a = 0.5 * (1.0 + np.sin(theta)) - p
    c2 = 0.25 * np.cos(theta) ** 2
    if t == np.inf:
        e = de = tdg = 0.0
        m = 1.0
    else:
        e = np.exp(-gamma * t)
        tdg = t * d_gamma
        de = -tdg * e
        m = -np.expm1(-gamma * t)  # 1 - e
    pq = p * q
    # v / 4 = m (pq + a^2 e), and its T-derivative term by term (dm = -de,
    # da = -dp, d(pq) = dp (1 - 2 p) = dp tanh(k/T))
    v4 = m * (pq + a * a * e)
    dv4 = -de * pq + m * dp * np.tanh(x) + a * a * de * (1.0 - 2.0 * e) - 2.0 * a * m * e * dp
    dp_plus = dp * m + a * de
    mixed = dv4 * (dv4 / v4) if v4 > 0.0 else 0.0  # (dv/dT)^2 / (4 v), no dv4^2 to underflow
    # 4 |dc/dT|^2 = 4 c2 e (t dGamma / 2)^2
    return float(mixed + 4.0 * dp_plus * dp_plus + c2 * tdg * tdg * e)
