import numpy as np
import pytest

from qthermo.cli import _fmt
from qthermo.models import BathSpec

try:
    from hypothesis import settings
except ImportError:  # the property modules skip themselves
    pass
else:
    # the same examples on every run, so the suite's verdict is reproducible
    settings.register_profile("qthermo", derandomize=True, print_blob=True)
    settings.load_profile("qthermo")


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


@pytest.fixture
def paper_bath():
    """The bath used by most single-qubit scans: eta=0.01, cutoff=10, T=0.4."""
    return BathSpec(eta=0.01, cutoff=10.0, temperature=0.4)


def random_hermitian(rng, dim, scale=1.0):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (m + m.conj().T)


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def reference_csv(columns, rows) -> str:
    """CSV text of ``rows`` (dicts) written row by row, each value by
    ``cli._fmt``: the reference for ``cli.write_csv``."""
    lines = [",".join(columns)] + [",".join(_fmt(row[name]) for name in columns) for row in rows]
    return "\n".join(lines) + "\n"
