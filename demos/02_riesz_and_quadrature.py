#!/usr/bin/env python3
# Singular-kernel quadrature and the Riesz potential, with the exact
# dilation covariance used as a built-in oracle.

import numpy as np

import morreylab as ml
from morreylab.quadrature import QuadratureSpec

g1 = ml.euclidean_group(1)

# the shell weights integrate u(y) |y|^(gamma - Q) with exact per-shell kernel
# mass; gamma = 1/2 on R^1 gives the closed form integral_{-1}^{1} |y|^{-1/2} dy = 4
ind = ml.custom(lambda p: (np.abs(p[..., 0]) <= 1.0).astype(float), decay_radius=1.0)
spec = QuadratureSpec(R_max=2.5, lattice_h=0.05)
print("singular integral of |y|^(-1/2) over [-1,1]:",
      ml.riesz_values(g1, 0.5, ind, np.array([0.0]), spec.refined()))

# Riesz potential and its covariance: I(u o dilate_t)(x) = t^(-gamma) I(u)(tx)
u = ml.gaussian(g1, 1.0)
spec = QuadratureSpec(R_max=12.0, lattice_h=0.04)
gamma, t = 0.5, 2.0
for x in (0.0, 0.7, 1.4):
    x = np.array([x])
    lhs = ml.riesz_values(g1, gamma, ml.dilated(g1, u, t), x, spec.refined())
    rhs = t ** -gamma * ml.riesz_values(g1, gamma, u, ml.dilate(g1, t, x), spec.refined())
    print(f"  x={x[0]:+.1f}: I(u_t)(x) = {lhs:.6f},  t^-g I(u)(tx) = {rhs:.6f}")

# the same potential evaluated on a whole grid of points in one call
pts = np.linspace(-3, 3, 7)[:, None]
print("riesz on a grid:", np.round(ml.riesz_values(g1, gamma, u, pts, spec), 4))
