"""Stable Hermite function evaluation, weighted decay sums, and
harmonic-oscillator decay certificates."""

__version__ = "0.1.0"

from hermite_decay.hermite_core import (
    SignedLog,
    hermite_exact,
    hermite_orders,
    hermite_batch,
    hermite_values,
    phi_coordinate,
    plancherel_rotach_estimate,
)
from hermite_decay.decay_sum import (
    SumParams,
    ArgumentProfile,
    SharpnessCertificate,
    argument_function,
    argument_derivatives,
    find_nmax,
    direct_sum,
    tail_bound,
    envelope,
    sharpness_certificate,
)
from hermite_decay.oscillator import (
    HermiteCoefficients,
    DecayCertificate,
    QuadratureSpec,
    expand,
    gaussian_coefficients,
    vemuri_decay_check,
    vemuri_envelope,
    evolve_grid,
    weighted_sup,
    decay_certificate,
)

__all__ = [
    "SignedLog",
    "hermite_exact",
    "hermite_orders",
    "hermite_batch",
    "hermite_values",
    "phi_coordinate",
    "plancherel_rotach_estimate",
    "SumParams",
    "ArgumentProfile",
    "SharpnessCertificate",
    "argument_function",
    "argument_derivatives",
    "find_nmax",
    "direct_sum",
    "tail_bound",
    "envelope",
    "sharpness_certificate",
    "HermiteCoefficients",
    "DecayCertificate",
    "QuadratureSpec",
    "expand",
    "gaussian_coefficients",
    "vemuri_decay_check",
    "vemuri_envelope",
    "evolve_grid",
    "weighted_sup",
    "decay_certificate",
    "__version__",
]
