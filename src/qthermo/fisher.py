"""Fisher-information machinery for temperature estimation.

The central objects are a state and its exact temperature derivative,
which the dynamics give.

Quantum Fisher information comes in two equivalent forms:

* the spectral sum ``F = 2 sum_{k,l} |<k| drho |l>|^2 / (lam_k + lam_l)``
  over eigenpairs of rho, valid in any dimension;
* for a single qubit with Bloch vector r and purity P = (1 + |r|^2)/2,

      F = (dP)^2 (1 - |r|^2) / (4 (P - 1)^2) + |dr|^2,

  which is singular at pure states and then routed to the spectral form;
* for two qubits on the one-excitation sector span{|01>, |10>}, the same
  Bloch form of the sector block read in ``|±> = (|01> ± |10>)/sqrt(2)``,
  with ``1 - |r|^2 = 4 (p+ p- - |c|^2)`` formed from its entries.

Measurement Fisher information takes the same ``(rho, drho)`` pairs:

* :func:`measurement_fi` ``(observable, rho, drho)`` gives
  ``(d<X>/dT)^2 / Var(X)``, and 0 where ``Var(X) <= 1e-14``, since
  ``(d<X>/dT)^2 <= Var(X) F_Q`` vanishes with the variance;
* :func:`cfi_povm` ``(probs, dprobs)``, outcomes on the last axis, gives
  ``sum dp^2 / p`` over the outcomes with ``p > 1e-14``, summed outcome by
  outcome as a running total.

Every form accepts one state (distribution) or a stack: a stack gives one
value per state, and a failed check raises what the single-state call
raises for the first offending state.

The Bloch form and the SLD take the real ``(..., 3)`` Pauli components
that :func:`bloch_components` gives.  The symmetric logarithmic derivative
of a mixed qubit is the matrix ``L = c0 I + cx sx + cy sy + cz sz`` with
``c0 = dP / (2 (P - 1))`` and ``c_i = r_i dP / (2 - 2P) + dr_i``; its
eigenbasis is an optimal measurement and ``Tr(rho L^2) = F``.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import NonHermitianInput, NonPositiveInput, PureStateSingularity, ResolutionLimit
from .linalg import dag, eig_hermitian, hermiticity_defect, pauli

__all__ = [
    "qfi_spectral",
    "bloch_components",
    "qfi_bloch",
    "qubit_qfi",
    "sector_qfi",
    "sld",
    "cfi_povm",
    "measurement_fi",
    "qsnr",
]

#: Spectral-sum terms with eigenvalue sum at or below this are skipped.
EIG_CUTOFF = 1e-12

#: Skipped terms whose squared numerator exceeds this trigger a warning.
NUMERATOR_FLOOR = 1e-24

#: States with ``1 - |r|^2`` at or below this count as pure: the Bloch form
#: is singular there.
PURE_GAP = 1e-9

#: Bloch vectors with ``|r|^2`` above this count as pure.
PURE_NORM2 = 1.0 - PURE_GAP


def _raise_first(bad, error, message: str, values) -> None:
    """Raise ``error(message.format(v))`` for the first state flagged in ``bad``."""
    idx = np.flatnonzero(bad)
    if idx.size:
        raise error(message.format(np.ravel(values)[idx[0]]))


def _check_derivative(drho) -> None:
    """:class:`NonHermitianInput` for the first state derivative whose
    hermiticity defect exceeds ``1e-8 max(1, max |drho|)``."""
    defect = np.asarray(hermiticity_defect(drho))
    _raise_first(
        defect > 1e-8 * np.maximum(1.0, np.abs(drho).max(axis=(-2, -1))), NonHermitianInput,
        "state derivative has hermiticity defect {:.3e}", defect,
    )


def qfi_spectral(rho: np.ndarray, drho: np.ndarray):
    """Quantum Fisher information from the eigendecomposition of ``rho``.

    Terms with ``lam_k + lam_l <= EIG_CUTOFF`` are dropped; if such a term
    carries a squared numerator above ``NUMERATOR_FLOOR`` a warning is
    emitted (once per affected state), since that signals information
    sitting on the boundary of the state's support where the float
    representation cannot resolve it.  Returns a float, or an array of one
    value per state for a stack.
    """
    drho = np.asarray(drho, dtype=complex)
    _check_derivative(drho)
    lam, v = eig_hermitian(np.asarray(rho, dtype=complex))
    m = dag(v) @ drho @ v
    s = lam[..., :, None] + lam[..., None, :]
    num = np.float_power(np.hypot(m.real, m.imag), 2)  # rounds as abs(m_kl) ** 2 does
    kept = s > EIG_CUTOFF
    terms = np.divide(2.0 * num, s, out=np.zeros_like(num), where=kept)
    # summed term by term in (k, l) order, as a running total
    total = np.cumsum(terms.reshape(*terms.shape[:-2], -1), axis=-1)[..., -1]
    dropped = np.where(kept | (num <= NUMERATOR_FLOOR), 0.0, num).max(axis=(-2, -1))
    for worst in np.ravel(dropped)[np.ravel(dropped) > 0]:
        warnings.warn(
            f"spectral QFI dropped a boundary-of-support term (|numerator|^2 = {worst:.3e})",
            stacklevel=2,
        )
    return float(total) if total.ndim == 0 else total


def _norm2(r):
    """``|r|^2`` of ``(..., 3)`` components, summed x, y, z in order."""
    return r[..., 0] * r[..., 0] + r[..., 1] * r[..., 1] + r[..., 2] * r[..., 2]


def _dot(r, dr):
    """``r . dr``, summed exactly as ``a @ b`` sums one pair of 3-vectors."""
    return (r[..., None, :] @ dr[..., :, None])[..., 0, 0]


def bloch_components(mat: np.ndarray) -> np.ndarray:
    """Real Pauli components ``(x, y, z)`` of a Hermitian 2x2 matrix (for a
    state: its Bloch vector; for a state derivative: its derivative), on the
    last axis: ``(3,)``, or ``(..., 3)`` for a stack."""
    mat = np.asarray(mat, dtype=complex)
    c = mat[..., 0, 1]
    return np.stack([2.0 * c.real, -2.0 * c.imag, (mat[..., 0, 0] - mat[..., 1, 1]).real], axis=-1)


def qfi_bloch(r: np.ndarray, dr: np.ndarray):
    """Bloch-form QFI of a mixed qubit family from the ``(..., 3)``
    components of its states and their derivatives (per state of a stack).

    Raises :class:`PureStateSingularity` when ``|r|^2 > 1 - 1e-9``; callers
    should fall back to :func:`qfi_spectral` (see :func:`qubit_qfi`).
    """
    n2 = _norm2(r)
    _raise_first(
        n2 > PURE_NORM2, PureStateSingularity, "|r|^2 = {} too close to 1 for the Bloch form", n2
    )
    # 4 (P - 1)^2 = (1 - |r|^2)^2
    return _bloch_form(r, dr, 1.0 - n2)


def _bloch_form(r, dr, v):
    """``(r . dr)^2 / v + |dr|^2``, the Bloch-form QFI with ``v = 1 - |r|^2``."""
    dp = _dot(r, dr)
    f = dp * dp / v + _norm2(dr)
    return float(f) if f.ndim == 0 else f


def _bloch_or_spectral(rho, drho, r, dr, v, pure):
    """The Bloch form of ``(r, dr, v)`` on the states not flagged ``pure``;
    on the others 0 where ``drho`` is exactly 0 (a state that does not
    depend on T, as at t = 0), :func:`qfi_spectral` of ``(rho, drho)``
    elsewhere."""
    if not pure.any():
        return _bloch_form(r, dr, v)
    spectral = pure & drho.any(axis=(-2, -1))
    if pure.ndim == 0:
        return qfi_spectral(rho, drho) if spectral else 0.0
    out, mixed = np.zeros(pure.shape), ~pure
    out[mixed] = _bloch_form(r[mixed], dr[mixed], v[mixed])
    if spectral.any():
        out[spectral] = qfi_spectral(rho[spectral], drho[spectral])
    return out


def qubit_qfi(rho: np.ndarray, drho: np.ndarray):
    """QFI of a qubit family: Bloch form, spectral fallback at pure states.

    A ``(..., 2, 2)`` stack gives one value per state, each by the route
    the single-state call would take.
    """
    rho, drho = np.asarray(rho, dtype=complex), np.asarray(drho, dtype=complex)
    r = bloch_components(rho)
    n2 = _norm2(r)
    return _bloch_or_spectral(rho, drho, r, bloch_components(drho), 1.0 - n2, np.asarray(n2 > PURE_NORM2))


def _exchange_components(m):
    """Pauli components ``(2 Re c, -2 Im c, p+ - p-) = (m11 - m22, 2 Im m12,
    2 Re m12)`` of the {|01>, |10>} block ``[[p+, c], [conj(c), p-]]`` of
    two-qubit matrices in the basis ``|±> = (|01> ± |10>)/sqrt(2)``, where
    ``p± = (m11 + m22)/2 ± Re m12`` and ``c = (m11 - m22)/2 - i Im m12``."""
    z = m[..., 1, 2]
    return np.stack([(m[..., 1, 1] - m[..., 2, 2]).real, 2.0 * z.imag, 2.0 * z.real], axis=-1)


def _doublet_populations(m):
    """``Re <b|m|b>`` of Hermitian two-qubit matrices on ``|00>, |±>, |11>``: ``m00``, ``p±``, ``m33``."""
    mean, re = 0.5 * (m[..., 1, 1].real + m[..., 2, 2].real), m[..., 1, 2].real
    return np.stack([m[..., 0, 0].real, mean + re, mean - re, m[..., 3, 3].real], axis=-1)


def sector_qfi(rho: np.ndarray, drho: np.ndarray):
    """QFI of two-qubit states supported on the one-excitation sector
    span{|01>, |10>} (entries outside it are taken as 0), with derivatives.

    It is the Bloch form of the sector block in ``|±>``, with ``1 - |r|^2``
    formed as ``4 (p+ p- - |c|^2)``, which keeps a small eigenvalue that
    ``1 - |r|^2`` would round away; states where that is at most
    ``PURE_GAP`` take :func:`qfi_spectral` of the full state.  A
    derivative fails :func:`qfi_spectral`'s hermiticity check as it would
    there.  A ``(..., 4, 4)`` stack gives one value per state.
    """
    rho, drho = np.asarray(rho, dtype=complex), np.asarray(drho, dtype=complex)
    _check_derivative(drho)
    return _sector_qfi(rho, drho)


def _sector_qfi(rho, drho):
    """:func:`sector_qfi` of complex arrays, unchecked: the dynamics' derivatives are Hermitian."""
    r = _exchange_components(rho)
    p = _doublet_populations(rho)
    # 4 |c|^2 = r_x^2 + r_y^2
    v = 4.0 * (p[..., 1] * p[..., 2]) - (r[..., 0] * r[..., 0] + r[..., 1] * r[..., 1])
    return _bloch_or_spectral(rho, drho, r, _exchange_components(drho), v, np.asarray(v <= PURE_GAP))


def sld(r: np.ndarray, dr: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative ``c0 I + cx sx + cy sy + cz sz`` of
    a mixed qubit family with Bloch vector ``r`` and derivative ``dr``
    (``(3,)`` arrays)."""
    n2 = _norm2(r)
    if n2 > PURE_NORM2:
        raise PureStateSingularity(f"|r|^2 = {n2} too close to 1 for the SLD coefficients")
    u = float(_dot(r, dr)) / (1.0 - n2)  # dP / (2 - 2P)
    c = u * r + dr
    return -u * np.eye(2, dtype=complex) + c[0] * pauli("x") + c[1] * pauli("y") + c[2] * pauli("z")


def cfi_povm(probs, dprobs):
    """Classical Fisher information ``sum_i (dp_i)^2 / p_i`` of outcome
    distributions (outcomes on the last axis) and their temperature
    derivatives: a float, or one value per distribution of a stack.

    Outcomes with ``p_i <= 1e-14`` are skipped whatever their derivative;
    the kept terms are summed outcome by outcome, as a running total.  A
    probability below -1e-12, a sum off 1 by more than 1e-9 or derivatives
    summing to more than ``1e-8 max(1, sum |dp|)`` raise
    :class:`NonPositiveInput` for the first offending distribution.
    """
    p = np.asarray(probs, dtype=float)
    dp = np.asarray(dprobs, dtype=float)
    if p.shape != dp.shape:
        raise NonPositiveInput("probs and dprobs must have matching shapes")
    low = p.min(axis=-1)
    _raise_first(low < -1e-12, NonPositiveInput, "negative probability {}", low)
    total = p.sum(axis=-1)
    _raise_first(abs(total - 1.0) > 1e-9, NonPositiveInput, "probabilities sum to {}, not 1", total)
    dtotal = dp.sum(axis=-1)
    # on the derivatives' own scale: dp/dT grows as 1/T
    off = abs(dtotal) > 1e-8 * np.maximum(1.0, np.abs(dp).sum(axis=-1))
    _raise_first(off, NonPositiveInput, "probability derivatives sum to {}, not 0", dtotal)
    terms = np.divide(dp * dp, p, out=np.zeros_like(p), where=p > 1e-14)
    f = np.cumsum(terms, axis=-1)[..., -1]
    return float(f) if f.ndim == 0 else f


def measurement_fi(observable: np.ndarray, rho: np.ndarray, drho: np.ndarray):
    """Fisher information ``(d<X>/dT)^2 / Var(X)`` of measuring the
    observable ``X`` on a state with temperature derivative ``drho``: a
    float, or one value per state of a ``(..., d, d)`` stack.

    It is 0 where ``Var(X) <= 1e-14``: ``(d<X>/dT)^2 <= Var(X) F_Q``
    vanishes with the variance.
    """
    x = np.asarray(observable, dtype=complex)
    if hermiticity_defect(x) > 1e-10:
        raise NonHermitianInput("observable must be Hermitian")
    rho, drho = np.asarray(rho, dtype=complex), np.asarray(drho, dtype=complex)
    mean = np.einsum("...ij,ji->...", rho, x).real
    var = np.einsum("...ij,ji->...", rho, x @ x).real - mean * mean
    dmean = np.einsum("...ij,ji->...", drho, x).real
    f = np.divide(dmean * dmean, var, out=np.zeros_like(var), where=var > 1e-14)
    return float(f) if f.ndim == 0 else f


def qsnr(temperature: float, fisher):
    """Signal-to-noise ratio ``T^2 F`` of a Fisher information value, or of
    each value of an array; :class:`ResolutionLimit` if it overflows."""
    f = np.asarray(fisher, dtype=float)
    _raise_first(f < 0, NonPositiveInput, "Fisher information must be >= 0, got {}", f)
    # T^2 leaves the normal floats above about 1.34e154 and below about
    # 1.5e-154, where T (T F) need not
    t2 = temperature * temperature
    out = t2 * f if np.finfo(float).tiny <= t2 < np.inf else temperature * (temperature * f)
    _raise_first(np.isinf(out), ResolutionLimit, f"QSNR at T = {temperature:g} overflows for F = {{}}", f)
    return float(out) if out.ndim == 0 else out
