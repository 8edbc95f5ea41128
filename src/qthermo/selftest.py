"""Built-in invariant suite behind the ``selftest`` CLI subcommand.

Smaller and faster than the full test suite; every check prints one
PASS/FAIL line.  Deterministic (seeded) randomness only.
"""

from __future__ import annotations

import numpy as np

from .closed_forms import optimal_ratio, steady_qfi
from .dynamics import law_states, propagate, rate_law
from .experiments import TemperatureFamily, make_model
from .fisher import bloch_components, qfi_bloch, qfi_spectral, sector_qfi, sld
from .linalg import choi_matrix, expm, identity, pauli
from .master_equation import assemble_liouvillian, decoherence_rate, jump_channels
from .models import BathSpec, CommonBath, LocalBaths, TwoQubitModel, coupling_operators, initial_state

__all__ = ["run_selftest"]


def _random_model(rng):
    u = rng.uniform  # keywords are evaluated in the order written: kappa, eta, cutoff, T, theta
    return make_model("probe_ancilla", kappa=float(u(0.1, 1.4)), eta=float(u(0.001, 0.1)),
                      cutoff=float(u(2.0, 20.0)), temperature=float(u(0.1, 2.0)), theta=float(u(0.0, np.pi)))


def _check_generator(rng, draws=10):
    basis = [np.zeros((4, 4), dtype=complex) for _ in range(16)]
    for k in range(16):
        basis[k][k // 4, k % 4] = 1.0
    worst = 0.0
    for _ in range(draws):
        model = _random_model(rng)
        ch = jump_channels(model)
        liou = assemble_liouvillian(ch)
        for e in basis:
            image = liou.apply(e)
            worst = max(worst, abs(np.trace(image)))
            worst = max(worst, float(np.max(np.abs(liou.apply(e.conj().T) - image.conj().T))))
        h, omegas = ch.hamiltonian, ch.omegas
        comm = ch.ops @ h - h @ ch.ops
        worst = max(worst, float(np.max(np.abs(comm - omegas[:, None, None] * ch.ops))))
        (_, bath), = coupling_operators(model)  # the ancilla's: the probe's zero-eta bath is left out
        for w in omegas[omegas > 0].tolist():
            ratio = decoherence_rate(w, bath) / decoherence_rate(-w, bath)
            worst = max(worst, abs(ratio / np.exp(w / bath.temperature) - 1.0))
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
        # the same family as the {|01>, |10>} block of two qubits
        rho2, drho2 = np.zeros((2, 4, 4), dtype=complex)
        rho2[1:3, 1:3], drho2[1:3, 1:3] = rho, drho
        worst = max(worst, abs(sector_qfi(rho2, drho2) - qfi_spectral(rho2, drho2)))
        lam = sld(bloch_components(rho), bloch_components(drho))
        worst = max(worst, float(np.max(np.abs(0.5 * (rho @ lam + lam @ rho) - drho))))
        worst = max(worst, abs(float(np.trace(rho @ lam @ lam).real) - fb))
    return worst < 1e-8, f"worst defect {worst:.2e}"


def _two_qubit_models(kappa, temp):
    """Local baths and a common bath, both with eta2 != eta."""
    for baths in (
        LocalBaths(BathSpec(0.01, 10.0, temp), BathSpec(0.05, 10.0, temp)),
        CommonBath(0.01, 0.05, 10.0, temp),
    ):
        yield TwoQubitModel(kappa=kappa, bath_config=baths, theta=np.pi / 2)


def _check_steady_qfi():
    """The family's steady state and exact derivative against ``steady_qfi``."""
    worst = 0.0
    for kappa, temp in ((0.4, 0.3), (0.6, 0.4), (1.0, 0.8)):
        exact = steady_qfi(kappa, temp)
        for model in _two_qubit_models(kappa, temp):
            rho, drho = TemperatureFamily(model).state_and_derivative(np.inf)
            worst = max(worst, abs(qfi_spectral(rho, drho) - exact) / exact)
    return worst < 1e-10, f"worst relative error {worst:.2e}"


def _check_rate_law():
    """The steady rate law's ``sum p (d log p/dT)^2`` against ``steady_qfi``
    up to kappa/T = 300, where the minority population is ~1e-261."""
    worst = 0.0
    kappa = 0.6
    for ratio in (0.5, 15.0, 150.0, 300.0):
        temp = kappa / ratio
        exact = steady_qfi(kappa, temp)
        for model in _two_qubit_models(kappa, temp):
            p, dlog, _ = rate_law(jump_channels(model), initial_state(model), temp)
            worst = max(worst, abs(float(np.sum(p * dlog * dlog)) - exact) / exact)
    return worst < 1e-12, f"worst relative error {worst:.2e}"


def _check_optimal_ratio():
    x_star, qsnr_star = optimal_ratio()
    ok = abs(x_star - 1.19967864) < 1e-6 and abs(qsnr_star - 0.43922884) < 1e-6
    return ok, f"x*={x_star:.8f}, qsnr*={qsnr_star:.8f}"


def _check_semigroup():
    model = make_model("probe_ancilla", temperature=0.4, eta=0.01, cutoff=10.0, kappa=0.8, theta=np.pi / 2)
    channels, rho0 = jump_channels(model), initial_state(model)
    one = propagate(model, rho0, 7.0)[0]
    two = propagate(model, propagate(model, rho0, 3.0)[0], 4.0)[0]
    worst = float(np.max(np.abs(one - two)))
    steady = law_states(channels.vecs, *rate_law(channels, rho0, 0.4))[0]  # probe and ancilla
    residual = float(np.max(np.abs(assemble_liouvillian(channels).apply(steady))))
    return worst < 1e-9 and residual < 1e-10, (
        f"semigroup defect {worst:.2e}, steady residual {residual:.2e}"
    )


def run_selftest(out=print) -> bool:
    rng = np.random.default_rng(20240817)
    checks = [
        ("generator trace/hermiticity/ladder/detailed-balance/choi", lambda: _check_generator(rng)),
        ("qfi bloch-spectral equivalence (qubit and two-qubit sector) and SLD identities",
         lambda: _check_qfi_equivalence(rng)),
        ("engine steady-state QFI against steady_qfi, local and common baths", _check_steady_qfi),
        ("steady rate law against steady_qfi to kappa/T = 300, local and common baths", _check_rate_law),
        ("optimal steady ratio", _check_optimal_ratio),
        ("semigroup and steady-state convergence", _check_semigroup),
    ]
    all_ok = True
    for name, fn in checks:
        ok, detail = fn()
        all_ok &= ok
        out(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
