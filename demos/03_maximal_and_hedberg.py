#!/usr/bin/env python3
# Maximal operators and the two diagnostic decompositions of the Riesz
# potential: the near/far split at a radius rho, and the three gauge zones.

import numpy as np

import morreylab as ml
from morreylab.quadrature import QuadratureSpec, radius_grid

g1 = ml.euclidean_group(1)
spec = QuadratureSpec(R_max=6.0, lattice_h=0.02)

ind = ml.custom(lambda p: (np.abs(p[..., 0]) <= 1.0).astype(float), decay_radius=1.0)
radii = np.unique(np.concatenate([np.geomspace(0.05, 8.0, 80), [1.0, 3.0]]))

# averages of the indicator peak at the ball just covering the support:
# at x = 2 the best radius is 3 and the value is 1/3
print("M_0 of the indicator at x=2:",
      ml.frac_maximal_values(g1, 0.0, ind, np.array([2.0]), radii, spec))

# fractional variant: |B|^(alpha-1) integral; alpha = 0 is the plain maximal
print("M_{1/2} at x=0:", ml.frac_maximal_values(g1, 0.5, ind, np.array([0.0]), radii, spec),
      " (sqrt(2) =", np.sqrt(2.0), ")")

# split the potential at rho: for rho covering the support the far part dies
u = ml.gaussian(g1, 1.0)
spec_w = QuadratureSpec(R_max=10.0, lattice_h=0.04)
x = np.array([0.5])
for rho in (0.2, 0.8, 20.0):
    hs = ml.hedberg_split(g1, 0.5, u, x, rho, spec_w)
    print(f"  rho={rho:5.1f}: near={hs.j1:.5f} far={hs.j2:.5f} sum={hs.j1 + hs.j2:.5f}")
print("full potential:", ml.riesz_values(g1, 0.5, u, x, spec_w.refined()))

# the balancing radius from the two maximal values
m0 = ml.frac_maximal_values(g1, 0.0, u, x, radius_grid(spec_w, u.decay_radius), spec_w)
mf = ml.frac_maximal_values(g1, (1.0 - 0.2) / (1.0 * 2.0), u, x,
                            radius_grid(spec_w, u.decay_radius), spec_w)
print("balancing rho:", ml.hedberg_optimal_rho(mf, m0, p=2.0, Q=1.0, lam=0.2))

# three-zone decomposition: inner / comparable / outer gauge annuli
z1, z2, z3 = ml.three_zone_split(g1, 0.5, u, np.array([1.0]),
                                 QuadratureSpec(R_max=14.0, lattice_h=0.03))
print("zones:", z1, z2, z3, " sum:", z1 + z2 + z3)
