"""Numerical laboratory for Morrey-space functional inequalities on
homogeneous Lie groups: group arithmetic and gauges, singular-kernel
quadrature, Riesz/maximal/fractional operators, Morrey norm estimators,
and a theorem-level verification harness with dilation-sweep oracles."""

__version__ = "0.1.0"

from .groups import (
    GroupDescriptor,
    euclidean_group,
    heisenberg_group,
    dilate,
    mul,
    inv,
    gauge,
    ball_volume,
    sphere_measure,
    polar_integrate,
)
from .quadrature import (
    QuadratureSpec,
    IntegrationResult,
    lattice_integrate,
    shell_integrate_singular,
    radius_grid,
)
from .testfunctions import TestFunction, gaussian, bump, power_truncated, custom, dilated, default_battery
from .operators import (
    HedbergSplit,
    riesz_values,
    frac_maximal_values,
    frac_laplacian_values,
    horizontal_gradient_values,
    sub_laplacian_values,
    hedberg_split,
    hedberg_optimal_rho,
    three_zone_split,
)
from .morrey import (
    MorreyParams,
    MorreyEstimate,
    morrey_norm,
    local_morrey_norm,
    embedding_check,
    default_centers,
)
from .harness import (
    ExponentConfig,
    Rejection,
    RatioSweepRecord,
    admissible,
    perturb_q,
    predicted_mismatch,
    inequality_sides,
    dilation_sweep,
    maximal_bound_check,
    hedberg_pointwise_check,
)
