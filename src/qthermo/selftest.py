"""Built-in invariant suite behind the ``selftest`` CLI subcommand.

Smaller and faster than the full test suite; every check prints one
PASS/FAIL line.  Deterministic (seeded) randomness only.
"""

from __future__ import annotations

import numpy as np

from .closed_forms import optimal_ratio, steady_qfi
from .dynamics import propagate
from .fisher import bloch_components, qfi_bloch, qfi_spectral, sld
from .linalg import choi_matrix, expm, identity, pauli
from .master_equation import build_liouvillian, decoherence_rate
from .models import BathSpec, CommonBath, LocalBaths, ProbeAncillaModel, TwoQubitModel, initial_state

__all__ = ["run_selftest"]


def _random_model(rng):
    return ProbeAncillaModel(
        omega_p=1.0,
        omega_a=1.0,
        kappa=float(rng.uniform(0.1, 1.4)),
        bath=BathSpec(
            eta=float(rng.uniform(0.001, 0.1)),
            cutoff=float(rng.uniform(2.0, 20.0)),
            temperature=float(rng.uniform(0.1, 2.0)),
        ),
        theta=float(rng.uniform(0.0, np.pi)),
    )


def _check_generator(rng, draws=10):
    basis = [np.zeros((4, 4), dtype=complex) for _ in range(16)]
    for k in range(16):
        basis[k][k // 4, k % 4] = 1.0
    worst = 0.0
    for _ in range(draws):
        model = _random_model(rng)
        liou = build_liouvillian(model)
        for e in basis:
            image = liou.apply(e)
            worst = max(worst, abs(np.trace(image)))
            worst = max(worst, float(np.max(np.abs(liou.apply(e.conj().T) - image.conj().T))))
        for ch in liou.channels:
            comm = ch.op @ liou.hamiltonian - liou.hamiltonian @ ch.op
            worst = max(worst, float(np.max(np.abs(comm - ch.omega * ch.op))))
            if ch.omega > 0:
                ratio = decoherence_rate(ch.omega, model.bath) / decoherence_rate(
                    -ch.omega, model.bath
                )
                worst = max(
                    worst, abs(ratio / np.exp(ch.omega / model.bath.temperature) - 1.0)
                )
        for t in (0.1, 1.0, 10.0):
            choi = choi_matrix(expm(liou.superop * t))
            lam = np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))
            worst = max(worst, max(0.0, -float(lam.min()) - 1e-8))
    return worst < 1e-8, f"worst defect {worst:.2e}"


def _check_qfi_equivalence(rng, trials=100):
    worst = 0.0
    for _ in range(trials):
        r = rng.uniform(-1.0, 1.0, size=3)
        r *= rng.uniform(0.05, 0.95) / np.linalg.norm(r)
        dr = rng.uniform(-1.0, 1.0, size=3)
        rho = 0.5 * (identity(2) + r[0] * pauli("x") + r[1] * pauli("y") + r[2] * pauli("z"))
        drho = 0.5 * (dr[0] * pauli("x") + dr[1] * pauli("y") + dr[2] * pauli("z"))
        fb = qfi_bloch(bloch_components(rho), bloch_components(drho))
        fs = qfi_spectral(rho, drho)
        worst = max(worst, abs(fb - fs))
        lam = sld(bloch_components(rho), bloch_components(drho))
        worst = max(worst, float(np.max(np.abs(0.5 * (rho @ lam + lam @ rho) - drho))))
        worst = max(worst, abs(float(np.trace(rho @ lam @ lam).real) - fb))
    return worst < 1e-8, f"worst defect {worst:.2e}"


def _check_steady_qfi():
    """The engine's steady state and exact derivative against ``steady_qfi``,
    on local baths and on a common bath, both with eta2 != eta."""
    worst = 0.0
    for kappa, temp in ((0.4, 0.3), (0.6, 0.4), (1.0, 0.8)):
        exact = steady_qfi(kappa, temp)
        for baths in (
            LocalBaths(BathSpec(0.01, 10.0, temp), BathSpec(0.05, 10.0, temp)),
            CommonBath(0.01, 0.05, 10.0, temp),
        ):
            model = TwoQubitModel(omega0=1.0, kappa=kappa, bath_config=baths, theta=np.pi / 2)
            rho, drho = propagate(build_liouvillian(model), initial_state(model), np.inf)
            worst = max(worst, abs(qfi_spectral(rho, drho) - exact) / exact)
    return worst < 1e-10, f"worst relative error {worst:.2e}"


def _check_optimal_ratio():
    x_star, qsnr_star = optimal_ratio()
    ok = abs(x_star - 1.19967864) < 1e-6 and abs(qsnr_star - 0.43922884) < 1e-6
    return ok, f"x*={x_star:.8f}, qsnr*={qsnr_star:.8f}"


def _check_semigroup():
    model = ProbeAncillaModel(
        omega_p=1.0, omega_a=1.0, kappa=0.8,
        bath=BathSpec(0.01, 10.0, 0.4), theta=np.pi / 2,
    )
    liou = build_liouvillian(model)
    rho0 = initial_state(model)
    one = propagate(liou, rho0, 7.0)[0]
    two = propagate(liou, propagate(liou, rho0, 3.0)[0], 4.0)[0]
    worst = float(np.max(np.abs(one - two)))
    residual = float(np.max(np.abs(liou.apply(propagate(liou, rho0, np.inf)[0]))))
    return worst < 1e-9 and residual < 1e-10, (
        f"semigroup defect {worst:.2e}, steady residual {residual:.2e}"
    )


def run_selftest(out=print) -> bool:
    rng = np.random.default_rng(20240817)
    checks = [
        ("generator trace/hermiticity/ladder/detailed-balance/choi", lambda: _check_generator(rng)),
        ("qfi bloch-spectral equivalence and SLD identities", lambda: _check_qfi_equivalence(rng)),
        ("engine steady-state QFI against steady_qfi, local and common baths", _check_steady_qfi),
        ("optimal steady ratio", _check_optimal_ratio),
        ("semigroup and steady-state convergence", _check_semigroup),
    ]
    all_ok = True
    for name, fn in checks:
        ok, detail = fn()
        all_ok &= ok
        out(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
