"""Truncation invariance of ``riesz_values``: an oracle that needs no reference value.

Shell edges halve from ``R_max`` down to the spacing h, so ``R_max`` and
``2 R_max`` leave the same innermost edge, closed in form below it, and
the same shells inside ``R_max``.  Once u has decayed inside
``R_max - gauge(x)``, doubling ``R_max`` must not move the value.

Between those doublings the value does move with ``R_max``, because the
shells are then cut at other radii.  The spreads pinned below record the
present state; they are ceilings with a margin, not targets.
"""

import numpy as np
import pytest

from morreylab import euclidean_group, gaussian, heisenberg_group
from morreylab.operators import riesz_values
from morreylab.quadrature import QuadratureSpec

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
