import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab import (
    ball_volume,
    custom,
    dilate,
    euclidean_group,
    gauge,
    heisenberg_group,
    inv,
    mul,
    sphere_measure,
)
from morreylab.errors import AccuracyError, DomainError, ShapeError
from morreylab.groups import GroupDescriptor
from morreylab.operators import riesz_values
from morreylab.quadrature import QuadratureSpec, gauge_power_weights

finite_coord = st.floats(min_value=-50, max_value=50, allow_nan=False)


def quasi_ratio(g, x, y):
    """gauge(xy) / (gauge(x) + gauge(y)), with the 0/0 case set to 0.5."""
    gx = gauge(g, x)
    gy = gauge(g, y)
    denom = gx + gy
    num = gauge(g, mul(g, x, y))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), 0.5)
    return ratio


def estimate_quasi_constant(g, samples=1000, seed=0, scale=1.0):
    """Sampled estimate of the quasi-triangle constant of the gauge.

    Draws ``samples`` pairs of normally distributed points (standard
    deviation ``scale`` per coordinate) and returns the largest observed
    ratio gauge(xy) / (gauge(x) + gauge(y)).  For gauges that are genuine
    norms (Cygan's subadditivity of the Koranyi gauge on H^1) the result
    stays at or below 1 up to rounding.
    """
    if samples < 100:
        raise DomainError("need at least 100 sample pairs")
    rng = np.random.default_rng(seed)
    xs = scale * rng.standard_normal((samples, g.dimension))
    ys = scale * rng.standard_normal((samples, g.dimension))
    return float(np.max(quasi_ratio(g, xs, ys)))


def test_descriptor_invariants():
    # a descriptor is its law and dimension; the weights and the gauge follow
    assert [f.name for f in dataclasses.fields(GroupDescriptor)] == ["law", "dimension"]
    g = heisenberg_group()
    assert g.Q == 4.0 and g.weights == (1, 1, 2) and g.gauge_kind == "koranyi"
    g3 = euclidean_group(3)
    assert g3.Q == 3.0 and g3.weights == (1, 1, 1) and g3.gauge_kind == "euclidean"
    assert g3 == GroupDescriptor("euclidean", 3)


@pytest.mark.parametrize("call,exc,match", [
    (lambda: euclidean_group(0), ShapeError, "dimension"),
    (lambda: euclidean_group(2.0), ShapeError, "dimension"),
    (lambda: GroupDescriptor("solvable", 2), DomainError, "^law "),
    (lambda: GroupDescriptor("heisenberg1", 2), DomainError, "^dimension "),
    (lambda: ball_volume(euclidean_group(2), 0.0, 0.1), DomainError, "radius"),
    (lambda: ball_volume(euclidean_group(2), 1.0, 0.0), DomainError, "spacing"),
], ids=["euclidean_dimension_0", "euclidean_dimension_float", "unknown_law", "h1_dimension_2",
        "ball_volume_radius_0", "ball_volume_spacing_0"])
def test_public_error_paths(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


def test_dilate_examples(g2, h1):
    assert np.allclose(dilate(g2, 2.0, [1.0, 1.0]), [2.0, 2.0])
    assert np.allclose(dilate(h1, 3.0, [1.0, 0.0, 1.0]), [3.0, 0.0, 9.0])
    x = np.array([0.3, -0.7, 1.1])
    assert np.array_equal(dilate(h1, 1.0, x), x)
    # composition law
    assert np.allclose(dilate(h1, 2.0, dilate(h1, 3.0, x)), dilate(h1, 6.0, x), atol=1e-12)


def test_dilate_errors(g2):
    with pytest.raises(DomainError):
        dilate(g2, 0.0, [1.0, 1.0])
    with pytest.raises(DomainError):
        dilate(g2, -2.0, [1.0, 1.0])
    with pytest.raises(ShapeError):
        dilate(g2, 1.0, [1.0, 2.0, 3.0])
    with pytest.raises(ShapeError):
        gauge(g2, [np.nan, 0.0])


def test_mul_inv_examples(g2, h1):
    assert np.allclose(mul(g2, [1.0, 2.0], [3.0, 4.0]), [4.0, 6.0])
    assert np.allclose(inv(g2, [1.0, -2.0]), [-1.0, 2.0])
    assert np.allclose(mul(h1, [1, 0, 0], [0, 1, 0]), [1.0, 1.0, 0.5])


@settings(max_examples=60, deadline=None)
@given(st.tuples(*(finite_coord,) * 3), st.tuples(*(finite_coord,) * 3),
       st.tuples(*(finite_coord,) * 3))
def test_heisenberg_associativity_hypothesis(x, y, z):
    h1 = heisenberg_group()
    x, y, z = np.array(x), np.array(y), np.array(z)
    left = mul(h1, mul(h1, x, y), z)
    right = mul(h1, x, mul(h1, y, z))
    assert np.allclose(left, right, atol=1e-9 * max(1.0, np.abs(left).max()))


def test_group_axioms_random_samples(all_groups, rng):
    for g in all_groups:
        xs = rng.standard_normal((1000, g.dimension))
        ys = rng.standard_normal((1000, g.dimension))
        zs = rng.standard_normal((1000, g.dimension))
        assoc = mul(g, mul(g, xs, ys), zs) - mul(g, xs, mul(g, ys, zs))
        assert np.max(np.abs(assoc)) <= 1e-12 * max(1.0, np.abs(xs).max() ** 2)
        ident = mul(g, xs, inv(g, xs))
        assert np.max(np.abs(ident)) <= 1e-12
        # dilation is an automorphism
        for t in (0.5, 2.0):
            lhs = mul(g, dilate(g, t, xs), dilate(g, t, ys))
            rhs = dilate(g, t, mul(g, xs, ys))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.abs(lhs).max())


def test_gauge_examples(g2, h1):
    assert gauge(g2, [0.0, 0.0]) == 0.0
    assert gauge(g2, [3.0, 4.0]) == 5.0
    assert np.isclose(gauge(h1, [0.0, 0.0, 1.0]), 16.0 ** 0.25)
    assert gauge(h1, [0.0, 0.0, 1.0]) == pytest.approx(2.0)
    assert gauge(h1, [0.0, 0.0, 0.0]) == 0.0


def test_gauge_homogeneity_symmetry(all_groups, rng):
    for g in all_groups:
        xs = rng.standard_normal((1000, g.dimension))
        base = gauge(g, xs)
        assert np.all(base > 0)
        for t in (0.3, 2.7):
            scaled = gauge(g, dilate(g, t, xs))
            assert np.max(np.abs(scaled - t * base) / (t * base)) <= 1e-12
        assert np.max(np.abs(gauge(g, inv(g, xs)) - base) / base) <= 1e-12


def test_quasi_constant(g2, h1):
    assert estimate_quasi_constant(g2, 1000, seed=1) <= 1.0 + 1e-12
    assert estimate_quasi_constant(h1, 1000, seed=1) <= 1.0 + 1e-9
    # degenerate sample set of identical zero points
    assert estimate_quasi_constant(g2, 200, seed=1, scale=0.0) == 0.5
    assert quasi_ratio(g2, [0.0, 0.0], [0.0, 0.0]) == 0.5
    with pytest.raises(DomainError):
        estimate_quasi_constant(g2, 50, seed=1)


def test_ball_volume_euclidean(g1, g2):
    assert ball_volume(g1, 3.0, 0.05) == pytest.approx(6.0)
    v = ball_volume(g2, 1.0, 0.05)
    assert abs(v - math.pi) / math.pi <= 0.01


def test_ball_volume_scaling_all_groups(all_groups):
    for g in all_groups:
        h = 0.03125 if g.law == "heisenberg1" else 0.05
        v1 = ball_volume(g, 1.0, h)
        for R in (0.5, 1.0, 2.0, 4.0):
            ratio = ball_volume(g, R, h) / v1
            assert abs(ratio / R ** g.Q - 1.0) <= 0.02, (g.law, g.dimension, R)
            fine = ball_volume(g, R, h / 2.0) / ball_volume(g, 1.0, h / 2.0)
            assert abs(fine / R ** g.Q - 1.0) <= 0.005, (g.law, g.dimension, R)


def test_ball_volume_budget_error(g3):
    with pytest.raises(AccuracyError) as exc:
        ball_volume(g3, 4.0, 0.0005)
    # the achieved coarse estimate rides along
    want = 4.0 / 3.0 * math.pi * 64.0
    assert abs(exc.value.estimate - want) / want < 0.05


def unit_ball_indicator(g):
    return custom(lambda p: (gauge(g, p) < 1.0).astype(float), decay_radius=1.0)


def origin(g):
    return np.zeros((1, g.dimension))


def test_polar_integrate_examples(g1, h1):
    # the polar formula integral_B1 f(|y|) dy = sigma integral_0^1 f(r) r^(Q-1) dr,
    # which the shell weights of the Riesz kernel carry (gamma 2: f(r) = r^-2)
    spec = QuadratureSpec(R_max=2.0, lattice_h=0.0625)
    zero = custom(lambda p: np.zeros(p.shape[:-1]), decay_radius=1.0)
    assert riesz_values(h1, 2.0, zero, origin(h1), spec)[0] == 0.0
    assert ball_volume(g1, 1.0, 0.05) == pytest.approx(2.0, rel=1e-3)
    got = riesz_values(h1, 2.0, unit_ball_indicator(h1), origin(h1), spec)[0]
    assert got == pytest.approx(sphere_measure(h1, 0.0625) / 2.0, rel=1e-3)


def test_polar_divergence_rejected(h1):
    # r^-Q is not integrable at the origin of H^1 (Q = 4): the weight
    # exponent -Q and the Riesz kernel of gamma 0
    with pytest.raises(DomainError):
        gauge_power_weights(h1, -4.0, 2.0, 0.0625)
    with pytest.raises(DomainError):
        riesz_values(h1, 0.0, unit_ball_indicator(h1), origin(h1), QuadratureSpec(2.0, 0.0625))


def test_polar_vs_ball_volume_consistency(all_groups):
    # the polar side: integral_B1 |y|^(-1/2) dy = sigma / (Q - 1/2) = Q |B_1| / (Q - 1/2)
    # H^1 at h 1/16, coarser than the 1/32 of sphere_measure's unit volume,
    # so the check does not compare a quantity with itself
    for g in all_groups:
        h = 0.0625 if g.law == "heisenberg1" else 0.05
        polar = riesz_values(g, g.Q - 0.5, unit_ball_indicator(g), origin(g), QuadratureSpec(2.0, h))[0]
        direct = ball_volume(g, 1.0, h)
        assert abs(polar * (g.Q - 0.5) / g.Q - direct) / direct <= 0.01


def test_sphere_measure_closed_forms(all_groups):
    # sigma = Q |B_1|: the unit sphere of R^1-R^3, and Q = 4 times the
    # Koranyi unit ball of H^1, pi^2 / 8
    for g, want in zip(all_groups, (2.0, 2.0 * math.pi, 4.0 * math.pi, math.pi ** 2 / 2.0)):
        assert sphere_measure(g, 1.0 / 32.0) == pytest.approx(want, rel=1e-3)
