"""Three-mode interferometer of SU(1,2) mixers, whose transforms form U(1,2):
Gaussian sensitivity analysis and a Fock-space oracle."""

__version__ = "0.1.0"

from .interferometer import InterferometerConfig, fwm_matrix, phase_matrix
from .gaussian import InputState, propagate, photon_statistics
from .sensitivity import (
    phase_sensitivity,
    zero_phase_moments,
    limit_from_moments,
    zero_phase_limit,
    n_total,
    vacuum_invariant,
)
from .optimizer import optimize_weights

__all__ = [
    "InterferometerConfig",
    "fwm_matrix",
    "phase_matrix",
    "InputState",
    "propagate",
    "photon_statistics",
    "phase_sensitivity",
    "zero_phase_moments",
    "limit_from_moments",
    "zero_phase_limit",
    "n_total",
    "vacuum_invariant",
    "optimize_weights",
]
