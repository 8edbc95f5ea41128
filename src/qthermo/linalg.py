"""Dense complex linear algebra for small quantum systems.

Everything in here operates on plain ``numpy`` arrays of fixed small
dimension (2 and 4 for states and operators, 16 for superoperators).  The
column-stacking convention is used throughout: ``vec`` stacks columns, so
``vec(A @ rho @ B) == kron(B.T, A) @ vec(rho)``.

Functions on matrices also accept a ``(..., d, d)`` stack and then act on
each matrix of it; a 2-D input behaves as a single matrix.  A check that
fails on a stack raises what the 2-D call raises for its first offending
matrix.

Basis and sign conventions
--------------------------
* ``|0> = (1, 0)``, ``|1> = (0, 1)``; ``sigma_z |0> = +|0>``.
* Tensor products follow ``numpy.kron``: the first factor is the slow index,
  so the two-qubit basis is ordered ``|00>, |01>, |10>, |11>``.
"""

from __future__ import annotations

import numpy as np

from .errors import BadDimension, NonFinite, NonHermitianInput, PositivityViolation

__all__ = [
    "pauli",
    "identity",
    "kron",
    "eig_hermitian",
    "expm",
    "partial_trace",
    "vec",
    "unvec",
    "dag",
    "choi_matrix",
    "hermiticity_defect",
    "validate_density_matrix",
]

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli(which: str) -> np.ndarray:
    """Return a copy of the 2x2 Pauli matrix ``sigma_x``, ``sigma_y`` or
    ``sigma_z`` for ``which`` in ``{"x", "y", "z"}``."""
    try:
        return _PAULI[which].copy()
    except KeyError:
        raise BadDimension(f"unknown Pauli axis {which!r}") from None


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two 2-D arrays with the first factor on the slow
    (left) index, equal entry for entry to ``np.kron``.  Raises
    ``BadDimension`` for a factor that is not 2-D."""
    if np.ndim(a) != 2 or np.ndim(b) != 2:
        raise BadDimension(f"kron needs 2-D factors, got {np.shape(a)} and {np.shape(b)}")
    return _kron(a, b)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`kron` of the last two axes, broadcast over the leading ones."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def dag(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def hermiticity_defect(m: np.ndarray):
    """Max entrywise deviation of ``m`` from its own adjoint: a float, or one
    value per matrix of a stack."""
    defect = np.abs(m - dag(m)).max(axis=(-2, -1))
    return float(defect) if defect.ndim == 0 else defect


def _first(bad) -> int | None:
    """Flat index of the first set entry of a per-matrix flag, or None."""
    bad = np.asarray(bad)
    return int(np.argmax(bad)) if bad.any() else None


def eig_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(eigenvalues, eigenvectors)`` of a Hermitian
    matrix (or of each in a stack) with deterministic phases: the eigenvalues
    are real and ascending, and the columns of ``eigenvectors`` are the
    matching orthonormal eigenvectors, each with its first component above
    1e-8 in modulus made real and positive.

    Raises
    ------
    NonHermitianInput
        If any entry of ``h - h†`` exceeds 1e-12.
    """
    h = np.asarray(h, dtype=complex)
    h_dag = dag(h)
    defect = np.abs(h - h_dag).max(axis=(-2, -1))  # hermiticity_defect, sharing h_dag
    k = _first(defect > 1e-12)
    if k is not None:
        raise NonHermitianInput(f"hermiticity defect {np.ravel(defect)[k]:.3e} > 1.0e-12")
    # an exactly Hermitian h equals its Hermitian part (a zero imaginary part
    # may differ in sign), which h + h† could overflow
    vals, vecs = np.linalg.eigh(0.5 * (h + h_dag) if defect.any() else h)
    # phase reference: the first component of each column above 1e-8 in modulus
    first = np.argmax(np.abs(vecs) > 1e-8, axis=-2)[..., None, :]
    lead = np.take_along_axis(vecs, first, axis=-2)
    ph = lead / np.hypot(lead.real, lead.imag)
    return vals, vecs * ph.conj()


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling and squaring).

    Raises ``NonFinite`` if the result overflows.
    """
    import scipy.linalg  # deferred: most of the import time, and only the selftest needs it

    out = scipy.linalg.expm(np.asarray(m, dtype=complex))
    if not np.all(np.isfinite(out)):
        raise NonFinite("matrix exponential overflowed")
    return out


def partial_trace(rho: np.ndarray, keep: int) -> np.ndarray:
    """Trace out one qubit of a two-qubit operator (or of each in a stack).

    ``keep=1`` retains the first tensor factor, ``keep=2`` the second.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (4, 4):
        raise BadDimension(f"partial_trace needs a 4x4 matrix, got {rho.shape}")
    r = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)
    if keep == 1:
        return np.einsum("...abcb->...ac", r)
    if keep == 2:
        return np.einsum("...abad->...bd", r)
    raise BadDimension(f"keep must be 1 or 2, got {keep!r}")


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`; a ``(..., d*d)`` stack of vectors gives ``(..., d, d)``."""
    v = np.asarray(v, dtype=complex)
    n = v.shape[-1]
    d = int(round(np.sqrt(n)))
    if d * d != n:
        raise BadDimension(f"vector of length {n} is not a stacked square matrix")
    return v.reshape(*v.shape[:-1], d, d).swapaxes(-1, -2)


def choi_matrix(superop: np.ndarray) -> np.ndarray:
    """Choi matrix of the map represented by a column-stacking superoperator.

    With ``S[i + d*j, k + d*l] = <i| Phi(|k><l|) |j>`` the Choi matrix is
    ``C[(k,i),(l,j)] = S[i + d*j, k + d*l]``; the map is completely positive
    iff ``C`` is positive semidefinite.
    """
    superop = np.asarray(superop, dtype=complex)
    d = int(round(np.sqrt(superop.shape[0])))
    if superop.shape != (d * d, d * d):
        raise BadDimension(f"superoperator shape {superop.shape} is not (d^2, d^2)")
    s4 = superop.reshape(d, d, d, d, order="F")  # s4[i, j, k, l]
    return s4.transpose(2, 0, 3, 1).reshape(d * d, d * d)


def validate_density_matrix(
    rho: np.ndarray,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-10,
    eig_floor: float = -1e-10,
) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a density matrix.

    Returns ``rho`` unchanged on success; raises ``NonHermitianInput``,
    ``NonFinite`` or ``PositivityViolation`` otherwise.  Positivity is only
    asserted, never repaired: a negative eigenvalue signals a generator bug
    and must surface.  A ``(..., d, d)`` stack is checked in one pass and
    raises for its first offending state.  One Cholesky factorisation of the
    stack shifted by ``-eig_floor - 1e-12`` decides positivity: backward
    stable, it succeeds only if every state clears the floor.  Eigenvalues
    are computed only when it fails, to name the first offender.
    """
    rho = np.asarray(rho, dtype=complex)
    head = rho
    if not np.isfinite(rho).all():
        # the states before the first non-finite one are checked first
        finite = np.isfinite(rho).all(axis=(-2, -1)).reshape(-1)
        head = rho.reshape(-1, *rho.shape[-2:])[: int(np.argmin(finite))]
    adj = dag(head)
    defect = np.abs(head - adj).max(axis=(-2, -1))
    tr_dev = np.abs(head.diagonal(0, -2, -1).sum(-1) - 1.0)
    lam_min = np.full(defect.shape, np.inf)
    if eig_floor > -np.inf:
        herm = 0.5 * (head + adj) if defect.any() else head  # as in eig_hermitian
        try:
            np.linalg.cholesky(herm - (eig_floor + 1e-12) * np.eye(herm.shape[-1]))
        except np.linalg.LinAlgError:
            lam_min = np.linalg.eigvalsh(herm).min(axis=-1)
    k = _first((defect > herm_tol) | (tr_dev > trace_tol) | (lam_min < eig_floor))
    if k is not None:
        defect, tr_dev, lam_min = (float(np.ravel(x)[k]) for x in (defect, tr_dev, lam_min))
        if defect > herm_tol:
            raise NonHermitianInput(f"hermiticity defect {defect:.3e} > {herm_tol:.1e}")
        if tr_dev > trace_tol:
            raise PositivityViolation(f"trace deviates from 1 by {tr_dev:.3e}")
        raise PositivityViolation(f"minimum eigenvalue {lam_min:.3e} < {eig_floor:.1e}")
    if head is not rho:
        raise NonFinite("density matrix has non-finite entries")
    return rho
