"""Dilation equivariance: an exact oracle for the scale bookkeeping.

Dilate everything in a sweep along with u: for u o dilate_t the spec
becomes ``(R_max/t, h/t)``, every centre c becomes ``dilate(1/t, c)`` and
every radius r becomes r/t.  The lattice, its shells, the centres and
the balls are then the dilates of the t = 1 ones, so each Morrey factor
scales by exactly t to its predicted exponent and the log-log slope of
the ratio equals ``predicted_mismatch`` up to rounding: zero on an
admissible tuple, the shift of a ``perturb_q`` control otherwise.

This tests the exponent bookkeeping (the q-relation, ``_DEGREES``, the
weight powers θ and ``r^{-λ}``), not the discretisation: an error that
scales with the lattice cancels here.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from morreylab import euclidean_group, gaussian, groups, heisenberg_group
from morreylab.harness import (
    MorreyGrids,
    admissible,
    inequality_sides,
    perturb_q,
    predicted_mismatch,
    sweep_grids,
)
from morreylab.quadrature import QuadratureSpec
from morreylab.testfunctions import dilated

R1 = euclidean_group(1)
H1 = heisenberg_group()
T5 = (0.25, 0.5, 1.0, 2.0, 4.0)
T_H1 = (0.1, 10.0 ** -0.5, 1.0)


def equivariant_ratios(g, cfg, u, spec, t_values):
    """lhs/rhs of u o dilate_t on the t = 1 problem dilated by 1/t, at every t."""
    grids = sweep_grids(g, spec, u, 1.0, 1.0)
    ratios = []
    for t in t_values:
        spec_t = QuadratureSpec(R_max=spec.R_max / t, lattice_h=spec.lattice_h / t)
        grids_t = MorreyGrids(centers=groups.dilate(g, 1.0 / t, grids.centers),
                              radii=grids.radii / t)
        lhs, rhs = inequality_sides(g, cfg, dilated(g, u, t), grids_t, spec_t)
        ratios.append(lhs / rhs)
    return ratios


def _h1(theorem, **kw):
    return admissible(theorem, Q=4, p=F(3, 2), gamma=1, lam=1, **kw)


def _r1(theorem, **kw):
    return admissible(theorem, Q=1, **kw)


# (group, spec, Gaussian width, t values, the admissible tuple)
CASES = [
    (H1, QuadratureSpec(R_max=4.0, lattice_h=0.75), 0.5, T_H1, _h1("adams_hls")),
    (H1, QuadratureSpec(R_max=4.0, lattice_h=0.75), 0.5, T_H1,
     _h1("stein_weiss_adams", alpha=F(1, 5), beta=F(1, 10))),
    (R1, QuadratureSpec(R_max=8.0, lattice_h=0.05), 0.5, T5,
     _r1("adams_hls", p=F(3, 2), gamma=F(2, 5), lam=F(1, 5))),
    (R1, QuadratureSpec(R_max=8.0, lattice_h=0.05), 0.5, T5,
     _r1("frac_hardy", p=F(3, 2), gamma=F(1, 2), beta=F(1, 2), lam=F(3, 25))),
    (R1, QuadratureSpec(R_max=8.0, lattice_h=0.05), 0.5, T5,
     _r1("maximal_bound", p=2, lam=F(1, 2))),
]
IDS = ["H1-adams_hls", "H1-stein_weiss_adams", "R1-adams_hls", "R1-frac_hardy",
       "R1-maximal_bound"]


@pytest.mark.parametrize("g,spec,width,t_values,cfg", CASES, ids=IDS)
def test_equivariant_sweep_is_flat_on_admissible_tuples(g, spec, width, t_values, cfg):
    assert cfg.admissible_flag and predicted_mismatch(cfg) == 0
    ratios = equivariant_ratios(g, cfg, gaussian(g, width), spec, t_values)
    # measured: at most 1.9e-13
    assert max(ratios) / min(ratios) - 1.0 <= 1e-10, ratios


# the tuples whose left side is an L^q norm: perturb_q moves their slope
CONTROLS = [(c, i) for c, i in zip(CASES, IDS) if c[4].theorem in ("adams_hls", "stein_weiss_adams")]


@pytest.mark.parametrize("g,spec,width,t_values,cfg", [c for c, _ in CONTROLS],
                         ids=[i for _, i in CONTROLS])
def test_equivariant_sweep_of_a_control_has_the_predicted_slope(g, spec, width, t_values, cfg):
    control = perturb_q(cfg, 1e-4)
    predicted = float(predicted_mismatch(control))
    assert abs(predicted) > 1e-5
    ratios = equivariant_ratios(g, control, gaussian(g, width), spec, t_values)
    slope = float(np.polyfit(np.log(t_values), np.log(ratios), 1)[0])
    # measured: at most 3.4e-14
    assert abs(slope - predicted) <= 1e-10, (slope, predicted)
