"""The ``selftest`` suite checks the engine: its steady lines fail when the
family's or the rate law's derivative is off."""

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
    class Perturbed(selftest.TemperatureFamily):
        def state_and_derivative(self, t):
            rho, drho = super().state_and_derivative(t)
            return rho, drho * (1.0 + 1e-6)

    monkeypatch.setattr(selftest, "TemperatureFamily", Perturbed)
    lines = []
    assert not selftest.run_selftest(out=lines.append)
    assert steady_line(lines).startswith("[FAIL]")


def rate_law_line(lines):
    [line] = [line for line in lines if "steady rate law" in line]
    return line


def test_rate_law_check_reports_the_law_error():
    lines = []
    assert selftest.run_selftest(out=lines.append)
    line = rate_law_line(lines)
    assert line.startswith("[PASS]")
    assert float(re.search(r"error (\S+)$", line).group(1)) < 1e-12


def test_rate_law_check_fails_on_a_perturbed_law_derivative(monkeypatch):
    law = selftest.rate_law

    def perturbed(channels, rho0, temperature):
        p, dlog, kept = law(channels, rho0, temperature)
        return p, dlog * (1.0 + 1e-6), kept

    monkeypatch.setattr(selftest, "rate_law", perturbed)
    lines = []
    assert not selftest.run_selftest(out=lines.append)
    assert rate_law_line(lines).startswith("[FAIL]")
    assert steady_line(lines).startswith("[PASS]")
