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

For a Gaussian the heat flow is closed form, so the fractional Laplacian
has the one-dimensional reference (-Delta)^s u = s / Gamma(1 - s) times the
integral of (u - e^{t Delta} u) t^{-1-s} over t > 0 (Kwasnicki, Fract.
Calc. Appl. Anal. 20, 2017).  And the mass of a Gaussian over a Koranyi
ball centred at 0 is a one-dimensional integral with erf, which gives the
H^1 Morrey norm exactly on a radius grid.  At the identity of H^1 the
Riesz potential of a Gaussian is a smooth two-dimensional integral in
Koranyi polar coordinates, which checks the order gamma = 1 of the
headline.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from morreylab import custom, euclidean_group, gaussian, groups, harness, heisenberg_group
from morreylab.morrey import MorreyParams, morrey_norm
from morreylab.operators import frac_laplacian_values, riesz_values
from morreylab.quadrature import QuadratureSpec, lattice_nodes

G1 = euclidean_group(1)
G2 = euclidean_group(2)
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


@lru_cache(maxsize=None)
def legendre_rule(m):
    # an m x m eigenproblem, solved once per size
    return np.polynomial.legendre.leggauss(m)


def gauss_legendre(lo, hi, panels, m):
    """Nodes and weights of ``panels`` equal m-point Gauss-Legendre panels on [lo, hi]."""
    z, w = legendre_rule(m)
    edges = np.linspace(lo, hi, panels + 1)
    half = np.diff(edges)[:, None] / 2.0
    return (edges[:-1, None] + half * (1.0 + z)).ravel(), (half * w).ravel()


def frac_laplacian_of_gaussian(N, width, s, x2):
    """(-Delta)^s exp(-|x|^2 / width^2) on R^N at points with |x|^2 = ``x2``.

    The heat flow is (w^2 / (w^2 + 4t))^{N/2} exp(-|x|^2 / (w^2 + 4t)).
    Gauss-Legendre in log t (50 panels of 32 nodes on [-60, 40]) takes
    u - e^{t Delta} u through expm1, so small t cancels nothing; past
    T = e^40 the flow is (w^2 / 4)^{N/2} t^{-N/2} and the tail closes in
    form.  The reference agrees with 4,000 nodes on [-80, 100] to 4e-13
    of its largest value.
    """
    tau, wt = gauss_legendre(-60.0, 40.0, 50, 32)
    t, w2 = np.exp(tau)[:, None], width * width
    u = np.exp(-x2 / w2)
    log_ratio = -0.5 * N * np.log1p(4.0 * t / w2) + x2 * 4.0 * t / (w2 * (w2 + 4.0 * t))
    body = wt @ (-u * np.expm1(log_ratio) * t ** -s)
    T = math.exp(40.0)
    tail = u * T ** -s / s - (w2 / 4.0) ** (N / 2) * T ** (-s - N / 2) / (s + N / 2)
    return s / math.gamma(1.0 - s) * (body + tail)


# (group, width, R_max, s, h, ceiling of the error relative to max |reference|);
# present errors 1.74e-4, 3.55e-4, 8.4e-5, 1.36e-4 (R^1), 2.27e-2, 1.29e-2,
# 8.76e-3 (R^2) and 5.16e-2, 4.28e-2, 3.05e-2 (R^3)
FRAC_LAPLACIAN = [
    (G1, 0.5, 8.0, 0.25, 0.05, 2.2e-4),
    (G1, 0.5, 8.0, 0.25, 0.025, 4.5e-4),
    (G1, 0.5, 8.0, 0.5, 0.05, 1.1e-4),
    (G1, 0.5, 8.0, 0.5, 0.025, 1.7e-4),
    (G2, 1.0, 6.0, 0.5, 0.3, 0.028),
    (G2, 1.0, 6.0, 0.5, 0.15, 0.016),
    (G2, 1.0, 6.0, 0.5, 0.1, 0.011),
    (G3, 1.0, 6.0, 0.5, 0.4, 0.064),
    (G3, 1.0, 6.0, 0.5, 0.3, 0.053),
    (G3, 1.0, 6.0, 0.5, 0.2, 0.038),
]


@pytest.mark.parametrize("g,width,R_max,s,h,ceiling", FRAC_LAPLACIAN,
                         ids=[f"R{c[0].dimension}_s{c[3]}_h{c[4]}" for c in FRAC_LAPLACIAN])
def test_frac_laplacian_of_a_gaussian_within_its_present_ceiling(g, width, R_max, s, h, ceiling):
    # not a target: the |y| >= h cut and the Taylor inner ball set these
    # errors on R^2 and R^3; on R^1 they grow as h halves, which points at
    # the source cap or the tail.  Every node with gauge <= 1 is a point
    spec = QuadratureSpec(R_max=R_max, lattice_h=h)
    nodes = lattice_nodes(g, spec)[0]
    pts = nodes[groups.gauge(g, nodes) <= 1.0]
    exact = frac_laplacian_of_gaussian(g.dimension, width, s, groups.squared_norm(pts))
    got = frac_laplacian_values(g, s, gaussian(g, width), pts, spec)
    err = np.max(np.abs(got - exact)) / np.max(np.abs(exact))
    assert err <= ceiling, err


def h1_riesz_of_a_gaussian_at_0(gamma, width):
    """The Riesz potential of order gamma of exp(-|y|_E^2 / width^2) at the identity of H^1.

    In Koranyi polar coordinates (rho^2 = r^2 cos a, 4t = r^2 sin a, so
    rho drho dt = r^3 / 4 dr da and the gauge is r) the integral of
    r^{gamma - 4} u over H^1 is (pi / 2) times the integral over
    r in [0, 8], a in [-pi/2, pi/2] of
    r^{gamma - 1} exp(-(r^2 cos a + r^4 sin^2 a / 16) / width^2): a smooth
    integrand, taken by 16 x 8 Gauss-Legendre panels of 64 nodes.
    """
    r, wr = gauss_legendre(0.0, 8.0, 16, 64)
    a, wa = gauss_legendre(-0.5 * math.pi, 0.5 * math.pi, 8, 64)
    r, a = r[:, None], a[None, :]
    body = r ** (gamma - 1.0) * np.exp(-(r * r * np.cos(a) + r ** 4 * np.sin(a) ** 2 / 16.0) / width ** 2)
    return 0.5 * math.pi * float(wr @ body @ wa)


# h and the ceiling of |riesz / exact - 1| at the identity (R_max 6.529,
# width 0.5, gamma 1: the headline's left factor); present errors
# +51.0%, +13.7% and +13.6%
RIESZ_H1_GAMMA_1 = [(0.75, 0.52), (0.5, 0.145), (0.35, 0.145)]


@pytest.mark.parametrize("h,ceiling", RIESZ_H1_GAMMA_1, ids=[f"h{h}" for h, _ in RIESZ_H1_GAMMA_1])
def test_h1_riesz_at_gamma_1_within_its_present_ceiling(h, ceiling):
    # not a target: these ceilings pin today's near field, which a better
    # one should lower.  The identity is not a node, so the point takes
    # the direct loop.  scipy's dblquad of the same integrand gives the
    # reference to the last digit
    exact = h1_riesz_of_a_gaussian_at_0(1.0, 0.5)
    assert exact == pytest.approx(2.98615502318075, rel=1e-13)
    err = riesz_at(H1, 0.5, h, 1.0, [0.0, 0.0, 0.0], 6.529) / exact - 1.0
    assert abs(err) <= ceiling, err


def koranyi_ball_mass(c, r):
    """The integral of exp(-c |y|_E^2) over the H^1 ball {gauge(y) < r} centred at 0.

    The ball is |t| < sqrt(r^4 - rho^4) / 4 over the disc rho < r, so the
    mass is the integral over rho < r of 2 pi rho e^{-c rho^2} sqrt(pi / c)
    erf(sqrt(c) sqrt(r^4 - rho^4) / 4): 400 Gauss-Legendre nodes hold it to
    1e-13, the square root at rho = r included.
    """
    rho, wt = gauss_legendre(0.0, r, 1, 400)
    erf = np.array([math.erf(v) for v in math.sqrt(c) * np.sqrt(r ** 4 - rho ** 4) / 4.0])
    return float(wt @ (2.0 * math.pi * rho * np.exp(-c * rho * rho) * math.sqrt(math.pi / c) * erf))


# h and the ceiling of |estimate / exact - 1|; present errors -12.85%,
# -0.006%, -1.84%, -0.72%, +1.21% and -0.55%: a hard ball takes a node's
# whole cell or none of it, so the sign changes with h and the reading at
# 0.6 is such a crossing, not convergence
MORREY_H1 = [(0.75, 0.16), (0.6, 1e-3), (0.5, 0.023), (0.42, 0.009), (0.35, 0.015), (0.3, 0.007)]


@pytest.mark.parametrize("h,ceiling", MORREY_H1, ids=[f"h{h}" for h, _ in MORREY_H1])
def test_h1_morrey_norm_of_a_gaussian_within_its_present_ceiling(h, ceiling):
    # not a target: cut-cell ball masses should lower these ceilings.  The
    # seed-0 h1_adams Adams case at t = 1: Gaussian of width 0.5, p 1.5,
    # lambda 1, its sweep's centres and radii, R_max from its adapted
    # factory.  The centres other than the identity sit at gauge 32 or
    # more, where a ball reaching u has r >= 30 and holds at most all of
    # it: the supremum is the identity's, 0.385403 at r = 1.5
    p, lam, width = 1.5, 1.0, 0.5
    u = gaussian(H1, width)
    base = QuadratureSpec(R_max=64.0, lattice_h=0.75)
    grids = harness.sweep_grids(H1, base, u, 0.1, 1.0, n_per_axis=3)
    exact = max((koranyi_ball_mass(p / width ** 2, r) / r ** lam) ** (1.0 / p) for r in grids.radii)
    assert exact == pytest.approx(0.385403, abs=5e-7)
    R_max = harness.adapted_spec_factory(H1, base, u, 0.1, 1.0)(1.0).R_max
    est = morrey_norm(H1, MorreyParams(p, lam, grids.centers, grids.radii), u,
                      QuadratureSpec(R_max=R_max, lattice_h=h))
    assert abs(est.value / exact - 1.0) <= ceiling, est.value / exact - 1.0
