#!/usr/bin/env python3
# Morrey norm estimation: the double supremum over centres and radii,
# the Lebesgue identification at lambda = 0, and the dilation scaling law.

import numpy as np

import morreylab as ml
from morreylab.morrey import (
    MorreyParams,
    default_centers,
    default_radii,
    morrey_norm,
)
from morreylab.quadrature import QuadratureSpec

g1 = ml.euclidean_group(1)
spec = QuadratureSpec(R_max=12.0, lattice_h=0.04)
u = ml.gaussian(g1, 1.0)

centers = default_centers(g1, spec)
radii = default_radii(g1, u, spec)
print(f"grid: {len(centers)} centres, {len(radii)} radii")

# lambda = 0 recovers the L^p norm: ||exp(-x^2)||_2 = (pi/2)^(1/4)
est = morrey_norm(g1, MorreyParams(p=2.0, lam=0.0, centers=centers, radii=radii), u, spec)
print("lambda=0 norm:", est.value, " ((pi/2)^(1/4) =", (np.pi / 2) ** 0.25, ")")

# the scaling law ||u o dilate_t|| = t^((lam-Q)/p) ||u||
for lam in (0.0, 0.25, 0.5):
    params = MorreyParams(p=2.0, lam=lam, centers=centers, radii=radii)
    base = morrey_norm(g1, params, u, spec).value
    for t in (0.5, 2.0):
        got = morrey_norm(g1, params, ml.dilated(g1, u, t), spec).value
        print(f"  lam={lam}: ratio at t={t} -> {got / base:.5f} "
              f"(predicted {t ** ((lam - 1.0) / 2.0):.5f})")

# local norms centre every ball at the identity, the first default centre,
# and can only be smaller
identity = np.zeros((1, 1))
loc = morrey_norm(g1, MorreyParams(p=2.0, lam=0.25, centers=identity, radii=radii), u, spec).value
glob = morrey_norm(g1, MorreyParams(p=2.0, lam=0.25, centers=centers, radii=radii), u, spec).value
print("local:", loc, " global:", glob)

# a far off-centre profile shows the strict gap
u_off = ml.custom(lambda p: np.exp(-np.sum((p - 3.0) ** 2, axis=-1)),
                  decay_radius=9.0, smooth=True)
short = radii[radii <= 4.0]
loc = morrey_norm(g1, MorreyParams(p=2.0, lam=0.0, centers=identity, radii=short), u_off, spec).value
glob = morrey_norm(g1, MorreyParams(p=2.0, lam=0.0, centers=centers, radii=short),
                   u_off, spec).value
print("off-centre input: local", loc, "< global", glob)

# non-decaying inputs reveal the radius cap instead of lying
const = ml.custom(lambda p: np.ones(p.shape[:-1]), decay_radius=1e6)
est = morrey_norm(g1, MorreyParams(p=2.0, lam=0.5, centers=centers,
                                   radii=np.geomspace(0.1, 20.0, 30)), const, spec)
print("constant input: truncation_note =", est.truncation_note,
      "(supremum pinned at the truncation scale)")
