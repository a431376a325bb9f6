"""Truncation invariance of ``riesz_values``: an oracle that needs no reference value.

Shell edges halve from ``R_max`` down to the spacing h, so ``R_max`` and
``2 R_max`` leave the same innermost edge, closed in form below it, and
the same shells inside ``R_max``.  Once u has decayed inside
``R_max - gauge(x)``, doubling ``R_max`` must not move the value.

Between those doublings the value does move with ``R_max``, because the
shells are then cut at other radii.  The spreads pinned below record the
present state; they are ceilings with a margin, not targets.

Fundamental solutions give exact values with no numerical reference:
|x|^{2-N} / (4 pi) on R^3 (Newton) and gauge^{-2} / (2 pi) on H^1 (Folland,
Bull. AMS 79, 1973) invert minus the (sub-)Laplacian, so the Riesz
potential of order 2 of -L u is 4 pi u on R^3 and 2 pi u on H^1.
"""

import math

import numpy as np
import pytest

from morreylab import custom, euclidean_group, gaussian, groups, heisenberg_group
from morreylab.operators import riesz_values
from morreylab.quadrature import QuadratureSpec, lattice_nodes

G1 = euclidean_group(1)
G3 = euclidean_group(3)
H1 = heisenberg_group()


def riesz_at(g, width, h, gamma, x, R_max):
    spec = QuadratureSpec(R_max=R_max, lattice_h=h)
    return float(riesz_values(g, gamma, gaussian(g, width), np.array([x]), spec)[0])


def spread(values):
    return max(values) / min(values) - 1.0


# (group, width, h, gamma, x, R_max, the value at R_max and at 2 R_max)
DOUBLINGS = [
    (G1, 0.5, 0.05, 0.5, [0.025], 4.0, 2.5506824893627047),
    (H1, 0.5, 0.5, 1.0, [0.25, 0.25, 0.125], 4.5, 2.3806024869583027),
    (H1, 0.5, 0.5, 1.0, [0.25, 0.25, 0.125], 5.0, 2.560697261169406),
    (G3, 1.0, 0.3, 2.0, [0.15, 0.15, 0.15], 6.4, 6.110210196465636),
]


@pytest.mark.parametrize("g,width,h,gamma,x,R_max,value", DOUBLINGS,
                         ids=["R1", "H1_4.5", "H1_5", "R3"])
def test_doubling_R_max_keeps_the_value(g, width, h, gamma, x, R_max, value):
    at_R = riesz_at(g, width, h, gamma, x, R_max)
    at_2R = riesz_at(g, width, h, gamma, x, 2.0 * R_max)
    assert at_2R == pytest.approx(at_R, rel=1e-12, abs=0.0)
    assert at_R == pytest.approx(value, rel=1e-12, abs=0.0)


# (group, width, h, gamma, x, R_max values, ceiling of the spread);
# present spreads 1.5%, 0.44% and 22%
SPREADS = [
    (G1, 0.5, 0.05, 0.5, [0.025], [4.0, 5.0, 6.0], 0.02),
    (G3, 1.0, 0.2, 2.0, [0.1, 0.1, 0.1], [6.4, 7.0, 8.0], 0.006),
    (H1, 0.5, 0.5, 1.0, [0.25, 0.25, 0.125], [4.5, 5.0, 5.5, 6.0, 6.529], 0.25),
]


@pytest.mark.parametrize("g,width,h,gamma,x,R_maxes,ceiling", SPREADS, ids=["R1", "R3", "H1"])
def test_R_max_spread_stays_below_its_present_ceiling(g, width, h, gamma, x, R_maxes, ceiling):
    # not a target: a tighter truncation should lower these ceilings
    values = [riesz_at(g, width, h, gamma, x, R) for R in R_maxes]
    assert spread(values) <= ceiling, values


# (group, the constant c of riesz_values(2, -L u) = c u, h, ceiling of the
# error relative to max |c u|); present errors 6.41e-2, 2.53e-2, 8.49e-2
# and 4.58e-3 at 160, 552, 40 and 176 points
FUNDAMENTAL = [
    (G3, 4.0 * math.pi, 0.3, 0.08),
    (G3, 4.0 * math.pi, 0.2, 0.032),
    (H1, 2.0 * math.pi, 0.4, 0.105),
    (H1, 2.0 * math.pi, 0.283, 0.006),
]


@pytest.mark.parametrize("g,c,h,ceiling", FUNDAMENTAL,
                         ids=["R3_Newton_0.3", "R3_Newton_0.2", "H1_Folland_0.4", "H1_Folland_0.283"])
def test_riesz_inverts_the_sub_laplacian_within_its_present_ceiling(g, c, h, ceiling):
    # not a target: a better near field should lower these ceilings.  The
    # points are every node with gauge <= 1, so the batch takes the
    # on-lattice paths (the FFT on R^3, the column correlations on H^1)
    u = gaussian(g, 1.0)
    minus_Lu = custom(lambda p: -u.analytic_sub_laplacian(p), u.decay_radius)
    spec = QuadratureSpec(R_max=6.0, lattice_h=h)
    nodes = lattice_nodes(g, spec)[0]
    pts = nodes[groups.gauge(g, nodes) <= 1.0]
    exact = c * u(pts)
    err = np.max(np.abs(riesz_values(g, 2.0, minus_Lu, pts, spec) - exact)) / np.max(np.abs(exact))
    assert err <= ceiling, err
