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
)
from .quadrature import (
    QuadratureSpec,
    radius_grid,
)
from .testfunctions import TestFunction, gaussian, bump, power_truncated, custom, dilated, default_battery
from .operators import (
    riesz_values,
    frac_maximal_values,
    frac_laplacian_values,
    horizontal_gradient_values,
    sub_laplacian_values,
)
from .morrey import (
    MorreyParams,
    MorreyEstimate,
    morrey_norm,
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
