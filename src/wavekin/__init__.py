"""Conservative spectral solver for the isotropic 4-wave kinetic equation.

The package is organized around seven pieces:

- ``dispersion``: convex radial dispersion relations omega(|k|) and the
  derived weight mho = |k| / omega'(|k|).
- ``collision_kernel``: closed-form radial collision weights (the four-sine
  product integral, the Xi weight, the truncated kernel) with independent
  numerical oracles.
- ``solver``: uniform-frequency-grid discretization whose four-point
  interaction stencil conserves mass and energy to rounding error, with an
  O(n^2) matrix-free collision operator.
- ``diagnostics``: conserved quantities, band energies, convex-test-function
  production, and cascade trend reports.
- ``resonance_geometry``: collision-region iteration, sphere-cap covering
  statistics, the spreading root, and quadrature over resonance manifolds.
- ``reference``: independent Monte-Carlo and closed-form oracles that the
  verify commands and the acceptance tests compare against.
- ``config`` / ``cli``: reproducible batch front end.
"""

from wavekin.dispersion import DispersionRelation, eval_omega, eval_mho, invert_omega
from wavekin.collision_kernel import (
    KernelWeights,
    four_sine_closed_form,
    min_identity,
    sine_integral_oracle,
    xi_weight,
    cutoff_kernel,
)
from wavekin.solver import (
    OmegaGrid,
    SpectrumState,
    CollisionOperator,
    build_operator,
    rhs,
    step,
    evolve,
    transform_f_to_g,
    transform_g_to_f,
    gaussian_bump,
    ring_in_r,
    state_from_file,
)
from wavekin.diagnostics import (
    DiagnosticsRecord,
    mass,
    energy,
    band_energy,
    low_mass,
    convex_production,
    production_weights,
    cascade_report,
)
from wavekin.resonance_geometry import (
    PointSet3,
    ResonanceManifold,
    iterate_collision_region,
    cap_coverage_expectation,
    least_covering_caps,
    vcone,
    expanded_radius,
    digamma_root,
    manifold_quadrature,
)

__version__ = "0.1.0"

__all__ = [
    "DispersionRelation", "eval_omega", "eval_mho", "invert_omega",
    "KernelWeights", "four_sine_closed_form", "min_identity",
    "sine_integral_oracle", "xi_weight", "cutoff_kernel",
    "OmegaGrid", "SpectrumState", "CollisionOperator", "build_operator",
    "rhs", "step", "evolve", "transform_f_to_g", "transform_g_to_f",
    "gaussian_bump", "ring_in_r", "state_from_file",
    "DiagnosticsRecord", "mass", "energy", "band_energy", "low_mass",
    "convex_production", "production_weights", "cascade_report",
    "PointSet3", "ResonanceManifold", "iterate_collision_region",
    "cap_coverage_expectation", "least_covering_caps", "vcone",
    "expanded_radius", "digamma_root", "manifold_quadrature",
]
