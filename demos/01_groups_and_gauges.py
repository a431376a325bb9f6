#!/usr/bin/env python3
# Group arithmetic on Euclidean R^N and the Heisenberg group H^1:
# dilations, gauges, quasi-triangle constants and ball volumes.

import numpy as np

import morreylab as ml

e2 = ml.euclidean_group(2)
h1 = ml.heisenberg_group()

print("homogeneous dimensions: Q(R^2) =", e2.Q, " Q(H^1) =", h1.Q)

# the Heisenberg product is noncommutative in the central coordinate
a, b = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
print("a*b =", ml.mul(h1, a, b), " b*a =", ml.mul(h1, b, a))

# dilations scale coordinate i by t^w_i; on H^1 the centre scales like t^2
x = np.array([1.0, 0.0, 1.0])
print("dilate_3(1,0,1) =", ml.dilate(h1, 3.0, x))

# the Koranyi gauge is 1-homogeneous and symmetric
print("gauge(0,0,1) =", ml.gauge(h1, [0.0, 0.0, 1.0]), "(the fourth root of 16)")
for t in (0.5, 2.0, 7.0):
    print(f"  gauge(dilate_{t}) / (t * gauge) =",
          ml.gauge(h1, ml.dilate(h1, t, x)) / (t * ml.gauge(h1, x)))

# both shipped gauges are genuine norms: the sampled triangle-inequality
# ratio never exceeds 1
print("quasi constant R^2:", ml.estimate_quasi_constant(e2, 2000, seed=0))
print("quasi constant H^1:", ml.estimate_quasi_constant(h1, 2000, seed=0))

# ball volumes obey |B(R)| = |B(1)| R^Q exactly; the lattice reproduces it
h = 0.03125
v1 = ml.ball_volume(h1, 1.0, h)
print("H^1 unit ball volume:", v1, " (pi^2/8 =", np.pi ** 2 / 8, ")")
for R in (0.5, 2.0, 4.0):
    print(f"  |B({R})| / |B(1)| / R^Q =", ml.ball_volume(h1, R, h) / v1 / R ** h1.Q)

# the polar decomposition is calibrated so that integrating the unit-ball
# indicator against r^(Q-1) dr reproduces the ball volume
polar = ml.polar_integrate(h1, lambda r: (r < 1.0).astype(float), 6.0, h)
print("polar unit-ball volume:", polar, " direct:", v1)
