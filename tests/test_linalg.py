import numpy as np
import pytest

from qthermo.errors import BadDimension, NonFinite, NonHermitianInput, PositivityViolation
from qthermo.linalg import (
    dag,
    choi_matrix,
    eig_hermitian,
    expm,
    hermiticity_defect,
    identity,
    kron,
    partial_trace,
    pauli,
    unvec,
    validate_density_matrix,
    vec,
)
from conftest import random_hermitian, random_density


class TestPauli:
    def test_sigma_z_diagonal(self):
        assert np.array_equal(pauli("z"), np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_involution(self, axis):
        s = pauli(axis)
        assert np.allclose(s @ s, identity(2))

    def test_su2_commutator(self):
        sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
        assert np.allclose(sx @ sy - sy @ sx, 2j * sz)

    def test_unknown_axis(self):
        with pytest.raises(BadDimension):
            pauli("w")


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(identity(2), identity(2)), identity(4))

    def test_sign_convention(self):
        # z (x) I has eigenvalue +1 exactly when the first factor is |0>
        zi = kron(pauli("z"), identity(2))
        expected = {0: 1.0, 1: 1.0, 2: -1.0, 3: -1.0}
        for idx, sign in expected.items():
            e = np.zeros(4)
            e[idx] = 1.0
            assert np.allclose(zi @ e, sign * e)

    def test_involution(self):
        xx = kron(pauli("x"), pauli("x"))
        assert np.allclose(xx @ xx, identity(4))

    def test_mixed_product(self, rng):
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
        c, d = random_hermitian(rng, 2), random_hermitian(rng, 2)
        assert np.allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d))

    def test_associativity(self, rng):
        for _ in range(20):
            a, b, c = (random_hermitian(rng, 2) for _ in range(3))
            left = kron(kron(a, b), c)
            right = kron(a, kron(b, c))
            assert np.max(np.abs(left - right)) < 1e-12

    @pytest.mark.parametrize("shape_a, shape_b", [((2, 2), (2, 2)), ((4, 4), (4, 4)), ((2, 1), (1, 2))])
    def test_equals_numpy_kron(self, rng, shape_a, shape_b):
        for _ in range(20):
            a, b = (rng.normal(size=s) + 1j * rng.normal(size=s) for s in (shape_a, shape_b))
            assert np.array_equal(kron(a, b), np.kron(a, b))
            assert np.array_equal(kron(a.real, b), np.kron(a.real, b))
            assert np.array_equal(kron(a, b.real), np.kron(a, b.real))

    @pytest.mark.parametrize("a, b", [
        (np.ones(2), np.ones((2, 2))),
        (np.ones((2, 2)), np.ones(2)),
        (np.ones(2), np.ones(2)),
        (np.ones((3, 2, 2)), np.ones((2, 2))),
    ])
    def test_factor_that_is_not_2d_rejected(self, a, b):
        with pytest.raises(BadDimension, match="2-D"):
            kron(a, b)


class TestEigHermitian:
    def test_diag(self):
        vals, _ = eig_hermitian(np.diag([1.0, -1.0]).astype(complex))
        assert np.allclose(vals, [-1.0, 1.0])

    def test_probe_ancilla_spectrum(self):
        # resonant pair at coupling 0.8: singlet/triplet at -+kappa, ends at -+1
        from qthermo.models import BathSpec, hamiltonian
        from reference import probe_ancilla

        model = probe_ancilla(0.8, BathSpec(0.01, 10.0, 0.4), np.pi / 2)
        vals, _ = eig_hermitian(hamiltonian(model))
        assert np.allclose(vals, [-1.0, -0.8, 0.8, 1.0], atol=1e-12)

    def test_sigma_x_eigensystem(self):
        vals, vecs = eig_hermitian(pauli("x"))
        assert np.allclose(vals, [-1.0, 1.0])
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(vecs), [[s, s], [s, s]])

    def test_reconstruction_and_orthonormality(self, rng):
        for _ in range(200):
            h = random_hermitian(rng, 4)
            w, v = eig_hermitian(h)
            assert np.max(np.abs((v * w[..., None, :]) @ dag(v) - h)) < 1e-10
            gram = v.conj().T @ v
            assert np.max(np.abs(gram - identity(4))) < 1e-10

    def test_phase_determinism(self, rng):
        h = random_hermitian(rng, 4)
        _, a = eig_hermitian(h)
        _, b = eig_hermitian(h.copy())
        assert np.array_equal(a, b)
        for j in range(4):
            col = a[:, j]
            first = col[np.argmax(np.abs(col) > 1e-8)]
            assert first.real > 0 and abs(first.imag) < 1e-12

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NonHermitianInput):
            eig_hermitian(m)


class TestExpm:
    def test_zero(self):
        assert np.allclose(expm(np.zeros((4, 4))), identity(4))

    def test_diagonal_phase(self):
        out = expm(1j * np.pi / 2 * pauli("z"))
        assert np.allclose(out, np.diag([1j, -1j]))

    def test_inverse_pair(self, rng):
        for _ in range(25):
            a = random_hermitian(rng, 4, scale=5.0 / 4.0)
            assert np.max(np.abs(expm(a) @ expm(-a) - identity(4))) < 1e-10

    def test_unitary_for_anti_hermitian(self, rng):
        h = random_hermitian(rng, 4)
        u = expm(1j * h)
        assert np.max(np.abs(u @ u.conj().T - identity(4))) < 1e-10


class TestPartialTrace:
    def test_product_state(self, rng):
        rho_a, rho_b = random_density(rng, 2), random_density(rng, 2)
        assert np.allclose(partial_trace(kron(rho_a, rho_b), keep=1), rho_a)
        assert np.allclose(partial_trace(kron(rho_a, rho_b), keep=2), rho_b)

    def test_bell_state(self):
        psi = np.zeros(4, dtype=complex)
        psi[1] = psi[2] = 1.0 / np.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        assert np.allclose(partial_trace(rho, keep=1), identity(2) / 2)

    def test_trace_and_hermiticity_preserved(self, rng):
        for _ in range(20):
            rho = random_density(rng, 4)
            red = partial_trace(rho, keep=1)
            assert abs(np.trace(red) - np.trace(rho)) < 1e-12
            assert np.max(np.abs(red - red.conj().T)) < 1e-13

    def test_linear(self, rng):
        a, b = random_density(rng, 4), random_density(rng, 4)
        lhs = partial_trace(0.3 * a + 0.7 * b, keep=2)
        rhs = 0.3 * partial_trace(a, keep=2) + 0.7 * partial_trace(b, keep=2)
        assert np.allclose(lhs, rhs)

    def test_bad_inputs(self):
        with pytest.raises(BadDimension):
            partial_trace(identity(2), keep=1)
        with pytest.raises(BadDimension):
            partial_trace(identity(4), keep=3)


class TestVecChoi:
    def test_vec_roundtrip(self, rng):
        rho = random_density(rng, 4)
        assert np.array_equal(unvec(vec(rho)), rho)

    def test_vec_convention(self, rng):
        a, b, rho = (random_hermitian(rng, 2) for _ in range(3))
        assert np.allclose(vec(a @ rho @ b), kron(b.T, a) @ vec(rho))

    def test_choi_of_unitary_is_rank_one(self):
        u = expm(1j * 0.7 * pauli("x"))
        s = kron(u.conj(), u)  # rho -> u rho u†
        lam = np.linalg.eigvalsh(choi_matrix(s))
        assert lam[-1] == pytest.approx(2.0, abs=1e-10)
        assert np.max(np.abs(lam[:-1])) < 1e-10

    def test_choi_detects_non_cp(self):
        # the transpose map is positive but not completely positive
        d = 2
        s = np.zeros((4, 4), dtype=complex)
        for k in range(d):
            for l in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[k, l] = 1.0
                s[:, k + d * l] = vec(e.T)
        lam = np.linalg.eigvalsh(choi_matrix(s))
        assert lam[0] < -0.5


class TestValidateDensity:
    def test_accepts_valid(self, rng):
        validate_density_matrix(random_density(rng, 4))

    def test_rejects_trace(self):
        with pytest.raises(PositivityViolation):
            validate_density_matrix(1.5 * identity(2) / 2)

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(PositivityViolation):
            validate_density_matrix(bad)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NonHermitianInput):
            validate_density_matrix(bad)


def _spoiled_stack(rng, kind, k, n=6):
    """``n`` valid 2x2 states with entry ``k`` spoiled in the way ``kind`` names."""
    stack = np.array([random_density(rng, 2) for _ in range(n)])
    bad = {
        "hermiticity": np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex),
        "trace": 1.5 * identity(2) / 2,
        "eigenvalue": np.diag([1.2, -0.2]).astype(complex),
        "non_finite": np.array([[np.nan, 0.0], [0.0, 0.5]], dtype=complex),
    }[kind]
    stack[k] = bad
    return stack


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


class TestStacks:
    def test_valid_stack_returned_unchanged(self, rng):
        stack = np.array([random_density(rng, 4) for _ in range(5)])
        assert validate_density_matrix(stack) is stack

    @pytest.mark.parametrize("kind", ["hermiticity", "trace", "eigenvalue", "non_finite"])
    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_validation_raises_for_the_offending_state(self, rng, kind, k):
        stack = _spoiled_stack(rng, kind, k)
        assert _raised(validate_density_matrix, stack) == _raised(validate_density_matrix, stack[k])

    def test_first_offending_state_wins(self, rng):
        # a later non-finite state does not mask an earlier bad trace, and
        # a later non-Hermitian one does not mask an earlier negative eigenvalue
        stack = _spoiled_stack(rng, "non_finite", 4)
        stack[2] = 1.5 * identity(2) / 2
        assert _raised(validate_density_matrix, stack) == _raised(validate_density_matrix, stack[2])
        stack = _spoiled_stack(rng, "hermiticity", 4)
        stack[1] = np.diag([1.2, -0.2])
        assert _raised(validate_density_matrix, stack) == _raised(validate_density_matrix, stack[1])

    def test_nested_batch_axes(self, rng):
        stack = _spoiled_stack(rng, "trace", 4).reshape(2, 3, 2, 2)
        assert _raised(validate_density_matrix, stack) == _raised(
            validate_density_matrix, stack[1, 1]
        )

    def test_no_eigenvalues_for_a_trace_only_check(self, rng, monkeypatch):
        def refuse(_):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        stack = np.array([random_density(rng, 4) for _ in range(5)])
        stack[2] = np.diag([1.2, -0.2, 0.0, 0.0])
        assert validate_density_matrix(stack, herm_tol=np.inf, eig_floor=-np.inf) is stack
        good = stack[:2]
        assert validate_density_matrix(good) is good  # the gate passes it unaided

    def test_partial_trace_per_state(self, rng):
        stack = np.array([random_density(rng, 4) for _ in range(7)])
        for keep in (1, 2):
            got = partial_trace(stack, keep=keep)
            assert got.shape == (7, 2, 2)
            for s, g in zip(stack, got):
                assert np.array_equal(partial_trace(s, keep=keep), g)
        with pytest.raises(BadDimension):
            partial_trace(np.zeros((3, 2, 2)), keep=1)

    def test_eig_hermitian_per_matrix(self, rng):
        stack = np.array([random_hermitian(rng, 4) for _ in range(9)])
        stack[4, 0, :] = stack[4, :, 0] = 0.0  # first component zero: phase from the next
        w, v = eig_hermitian(stack)
        for h, vals, vecs in zip(stack, w, v):
            one_vals, one_vecs = eig_hermitian(h)
            assert np.array_equal(one_vals, vals)
            assert np.array_equal(one_vecs, vecs)
        assert np.max(np.abs((v * w[..., None, :]) @ dag(v) - stack)) < 1e-12
        skewed = stack.copy()
        skewed[6, 0, 1] += 1e-6
        assert _raised(eig_hermitian, skewed) == _raised(eig_hermitian, skewed[6])

    def test_unvec_stack(self, rng):
        stack = np.array([random_hermitian(rng, 4) for _ in range(3)])
        vecs = np.array([vec(m) for m in stack])
        assert np.array_equal(unvec(vecs), stack)


class TestHermitianPart:
    """A stack whose Hermiticity defect is exactly 0 is used as it is, any
    other is symmetrized: either way the results are those of its Hermitian
    part."""

    @staticmethod
    def spoiled(stack, rng, defect):
        """``stack`` with its imaginary parts of state 2 zeroed as -0.0 (its
        Hermitian part has +0.0 there) and, for ``defect`` > 0, real noise of
        that size that breaks exact Hermiticity."""
        stack.imag[2] = -0.0
        return stack + defect * rng.uniform(-1.0, 1.0, size=stack.shape)

    @pytest.mark.parametrize("defect", [0.0, 1e-14])
    def test_eig_hermitian(self, rng, defect):
        h = self.spoiled(np.array([random_hermitian(rng, 4) for _ in range(6)]), rng, defect)
        assert (hermiticity_defect(h) > 0).any() == (defect > 0)
        for got, want in zip(eig_hermitian(h), eig_hermitian(0.5 * (h + dag(h)))):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("defect", [0.0, 1e-14])
    def test_validate_density_matrix(self, rng, defect):
        stack = np.array([random_density(rng, 4) for _ in range(6)])
        stack = self.spoiled(0.5 * (stack + dag(stack)), rng, defect)
        part = 0.5 * (stack + dag(stack))
        assert validate_density_matrix(stack) is stack and validate_density_matrix(part) is part
        stack[4] = np.diag([0.6, 0.3, 0.1 + 1e-9, -1e-9]) + defect * rng.uniform(-1.0, 1.0, (4, 4))
        part = 0.5 * (stack + dag(stack))
        assert _raised(validate_density_matrix, stack) == _raised(validate_density_matrix, part)
        assert "minimum eigenvalue -1.000e-09" in _raised(validate_density_matrix, stack)[1]

    def test_defect_above_the_tolerance_raises(self, rng):
        h = np.array([random_hermitian(rng, 4) for _ in range(3)])
        h[1, 0, 2] += 2e-12
        rho = np.array([random_density(rng, 4) for _ in range(3)])
        rho = 0.5 * (rho + dag(rho))
        rho[1, 0, 2] += 2e-12
        for fn, stack in ((eig_hermitian, h), (validate_density_matrix, rho)):
            with pytest.raises(NonHermitianInput, match="^hermiticity defect 2.000e-12 > 1.0e-12$"):
                fn(stack)


def _eigenvalue_check(rho, herm_tol=1e-12, trace_tol=1e-10, eig_floor=-1e-10):
    """``validate_density_matrix`` as it was before the Cholesky gate:
    positivity by the minimum eigenvalue of every state."""
    rho = np.asarray(rho, dtype=complex)
    head = rho
    if not np.isfinite(rho).all():
        finite = np.isfinite(rho).all(axis=(-2, -1)).reshape(-1)
        head = rho.reshape(-1, *rho.shape[-2:])[: int(np.argmin(finite))]
    adj = dag(head)
    defect = np.abs(head - adj).max(axis=(-2, -1))
    tr_dev = np.abs(head.diagonal(0, -2, -1).sum(-1) - 1.0)
    lam_min = np.linalg.eigvalsh(0.5 * (head + adj)).min(axis=-1)
    bad = np.ravel((defect > herm_tol) | (tr_dev > trace_tol) | (lam_min < eig_floor))
    if bad.any():
        k = int(np.argmax(bad))
        defect, tr_dev, lam_min = (float(np.ravel(x)[k]) for x in (defect, tr_dev, lam_min))
        if defect > herm_tol:
            raise NonHermitianInput(f"hermiticity defect {defect:.3e} > {herm_tol:.1e}")
        if tr_dev > trace_tol:
            raise PositivityViolation(f"trace deviates from 1 by {tr_dev:.3e}")
        raise PositivityViolation(f"minimum eigenvalue {lam_min:.3e} < {eig_floor:.1e}")
    if head is not rho:
        raise NonFinite("density matrix has non-finite entries")
    return rho


def _near_floor(rng, dim, floor, sign):
    """Hermitian unit-trace state whose minimum eigenvalue is ``floor`` plus
    (``sign`` +1) or minus (-1) a log-uniform offset in [1e-14, 1e-6]."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    low = floor + sign * 10.0 ** rng.uniform(-14.0, -6.0)
    lam = np.concatenate([[low], (1.0 - low) * rng.dirichlet(np.ones(dim - 1))])
    rho = (q * lam) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


def _verdict(check, rho, eig_floor):
    try:
        check(rho, eig_floor=eig_floor)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)
    return None


class TestPositivityGate:
    """The Cholesky gate decides exactly what the eigenvalue test decides."""

    FLOORS = [-1e-8, -1e-10]  # the propagated states' floor, and the default

    @pytest.mark.parametrize("floor", FLOORS)
    @pytest.mark.parametrize("dim", [2, 4])
    def test_single_states_at_the_floor(self, rng, dim, floor):
        verdicts = set()
        for sign in (1, -1) * 150:
            rho = _near_floor(rng, dim, floor, sign)
            expected = _verdict(_eigenvalue_check, rho, floor)
            assert _verdict(validate_density_matrix, rho, floor) == expected
            verdicts.add(expected is None)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("floor", FLOORS)
    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_offender_anywhere_in_a_stack(self, rng, dim, floor, k):
        for _ in range(20):
            stack = np.array([_near_floor(rng, dim, floor, 1) for _ in range(7)])
            stack[k] = _near_floor(rng, dim, floor, -1)
            expected = _verdict(_eigenvalue_check, stack, floor)
            assert _verdict(validate_density_matrix, stack, floor) == expected

    @pytest.mark.parametrize("floor", FLOORS)
    @pytest.mark.parametrize("dim", [2, 4])
    def test_non_finite_state_after_a_bad_one(self, rng, dim, floor):
        stack = np.array([_near_floor(rng, dim, floor, 1) for _ in range(6)])
        stack[4, 0, 0] = np.nan
        assert _verdict(validate_density_matrix, stack, floor)[0] is NonFinite
        stack[2] = _near_floor(rng, dim, floor, -1)
        expected = _verdict(_eigenvalue_check, stack, floor)
        assert _verdict(validate_density_matrix, stack, floor) == expected
