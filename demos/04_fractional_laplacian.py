#!/usr/bin/env python3
# The fractional Laplacian as a symmetric-difference singular integral,
# validated against its Fourier symbol |xi|^(2s) on cosines.

import numpy as np

import morreylab as ml
from morreylab.quadrature import QuadratureSpec
from morreylab.operators import frac_laplacian_values, frac_normalization

g1 = ml.euclidean_group(1)

print("normalisation A(1, 1/2) =", frac_normalization(1, 0.5), " (1/pi =", 1 / np.pi, ")")

# (-Delta)^(1/2) cos(w x) = w cos(w x); non-decaying probes need a wide window
spec = QuadratureSpec(R_max=64.0, lattice_h=0.025)
for omega in (1.0, 2.0):
    u = ml.custom(lambda p, w=omega: np.cos(w * p[..., 0]), decay_radius=1e9, smooth=True)
    got = frac_laplacian_values(g1, 0.5, u, np.array([0.0]), spec)
    print(f"  symbol at omega={omega}: {got:.5f} (exact {omega})")

# constants are annihilated exactly
const = ml.custom(lambda p: np.ones(p.shape[:-1]), decay_radius=1e9, smooth=True)
print("on a constant:", frac_laplacian_values(g1, 0.5, const, np.array([0.3]), spec))

# degree 2s under dilations: (-Delta)^s (u o dilate_t) = t^(2s) ((-Delta)^s u) o dilate_t
u = ml.gaussian(g1, 1.0)
spec = QuadratureSpec(R_max=14.0, lattice_h=0.03)
s, t = 0.5, 2.0
x = np.array([[0.4], [1.0]])
lhs = frac_laplacian_values(g1, s, ml.dilated(g1, u, t), x, spec)
rhs = t ** (2 * s) * frac_laplacian_values(g1, s, u, t * x, spec)
print("dilation check:", lhs, "vs", rhs)
