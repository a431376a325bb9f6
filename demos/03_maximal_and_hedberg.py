#!/usr/bin/env python3
# Maximal operators and Hedberg's pointwise bound of the Riesz potential
# by the fractional and plain maximal functions.

import numpy as np

import morreylab as ml
from morreylab.quadrature import QuadratureSpec

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

# Hedberg: |I_gamma u(x)| <= C M_frac(x)^e M_0(x)^(1-e), e = p gamma / (Q - lam);
# the largest ratio over the points stays put under refinement
u = ml.gaussian(g1, 0.5)
cfg = ml.admissible("adams_hls", Q=1, p=2.0, gamma=0.3, lam=0.2)
pts = np.linspace(-2.5, 2.5, 100)[:, None]
rep = ml.hedberg_pointwise_check(g1, cfg, u, pts, QuadratureSpec(R_max=12.0, lattice_h=0.04))
print(f"Hedberg ratio: max {rep.max_ratio:.4f} over {rep.n_used} points, "
      f"{rep.max_ratio_refined:.4f} at h/2 (change {rep.rel_change:.3%})")
