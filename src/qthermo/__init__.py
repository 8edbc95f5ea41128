"""qthermo: dephasing-qubit thermometry toolkit.

Simulates single-qubit (direct and ancilla-assisted) and two-qubit probes
coupled to Ohmic bosonic baths through global Markovian master equations,
and quantifies their temperature-estimation performance with quantum and
classical Fisher information.
"""

__version__ = "0.1.0"

from .models import (
    BathSpec,
    CommonBath,
    DirectProbeModel,
    LocalBaths,
    TwoQubitModel,
    coupling_operators,
    hamiltonian,
    initial_state,
)
from .master_equation import (
    Liouvillian,
    build_liouvillian,
    decoherence_rate,
    spectral_density,
    thermal_occupation,
)
from .dynamics import propagate
from .closed_forms import optimal_ratio, steady_qfi, steady_qsnr
from .fisher import (
    bloch_components,
    cfi_povm,
    measurement_fi,
    qfi_bloch,
    qfi_spectral,
    qsnr,
    qubit_qfi,
    sld,
)

__all__ = [
    "__version__",
    "BathSpec",
    "CommonBath",
    "DirectProbeModel",
    "LocalBaths",
    "TwoQubitModel",
    "coupling_operators",
    "hamiltonian",
    "initial_state",
    "Liouvillian",
    "build_liouvillian",
    "decoherence_rate",
    "spectral_density",
    "thermal_occupation",
    "propagate",
    "optimal_ratio",
    "steady_qfi",
    "steady_qsnr",
    "bloch_components",
    "cfi_povm",
    "measurement_fi",
    "qfi_bloch",
    "qfi_spectral",
    "qsnr",
    "qubit_qfi",
    "sld",
]
