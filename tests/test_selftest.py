"""The ``selftest`` suite checks the engine: its steady line fails when the
propagation route's derivative is off."""

import re

from qthermo import selftest


def steady_line(lines):
    [line] = [line for line in lines if "steady-state QFI" in line]
    return line


def test_steady_check_reports_the_engine_error():
    lines = []
    assert selftest.run_selftest(out=lines.append)
    line = steady_line(lines)
    assert line.startswith("[PASS]")
    assert float(re.search(r"error (\S+)$", line).group(1)) < 1e-12


def test_steady_check_fails_on_a_perturbed_engine_derivative(monkeypatch):
    engine = selftest.propagate

    def perturbed(liouvillian, rho0, t):
        rho, drho = engine(liouvillian, rho0, t)
        return rho, drho * (1.0 + 1e-6)

    monkeypatch.setattr(selftest, "propagate", perturbed)
    lines = []
    assert not selftest.run_selftest(out=lines.append)
    assert steady_line(lines).startswith("[FAIL]")
