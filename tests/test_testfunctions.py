import math

import numpy as np
import pytest

from morreylab import bump, custom, dilated, gaussian, groups
from morreylab.errors import DomainError, ShapeError
from morreylab.testfunctions import default_battery, power_truncated


def test_gaussian_decay_radius(g1, h1):
    u = gaussian(g1, 1.0)
    # |u| < 1e-12 outside the decay ball
    edge = np.array([[u.decay_radius], [-u.decay_radius]])
    assert np.all(u(1.0001 * edge) < 1e-12)
    uh = gaussian(h1, 1.0)
    pts = np.array([[0.0, 0.0, uh.decay_radius ** 2 / 4 * 1.001]])
    assert np.all(uh(pts) < 1e-12)


def test_bump_support(g2):
    u = bump(g2, 1.5)
    assert u(np.array([[0.0, 0.0]]))[0] == pytest.approx(1.0)
    assert u(np.array([[1.6, 0.0]]))[0] == 0.0
    assert u(np.array([[1.3, 0.0]]))[0] > 0.0
    # gradient stays finite through the support edge
    g = u.analytic_gradient(np.array([[1.3, 0.0], [1.499, 0.0], [1.7, 0.0]]))
    assert np.all(np.isfinite(g))


def test_power_truncated_values(h1):
    u = power_truncated(h1, 0.8, 1.0)
    pts = np.array([[0.5, 0.0, 0.0], [2.0, 0.0, 0.0]])
    vals = u(pts)
    assert vals[0] == pytest.approx(0.5 ** -0.8)
    assert vals[1] == 0.0


def test_dilated_metadata(g1):
    u = gaussian(g1, 1.0)
    ut = dilated(g1, u, 2.0)
    assert ut.decay_radius == pytest.approx(u.decay_radius / 2.0)
    x = np.array([[0.3]])
    assert ut(x)[0] == pytest.approx(u(2.0 * x)[0])
    # gradient carries the exact degree-1 dilation factor
    assert ut.analytic_gradient(x)[0, 0] == pytest.approx(
        2.0 * u.analytic_gradient(2.0 * x)[0, 0]
    )
    assert dilated(g1, u, 1.0) is u


@pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -2.0])
def test_dilation_must_be_positive_and_finite(g1, t):
    # dilated(g, u, inf) had decay_radius 0.0
    with pytest.raises(DomainError, match="positive and finite"):
        dilated(g1, gaussian(g1, 1.0), t)


@pytest.mark.parametrize("t", [1e155, 1e-200])
def test_dilation_powers_must_be_representable(g1, h1, t):
    # on H^1, t**2 overflowed (OverflowError) at 1e155 and underflowed to 0
    # at 1e-200, which made u o delta_t equal u(0) everywhere; on R^1 the
    # only power is t itself, which both represent
    with pytest.raises(DomainError, match=r"t\*\*w"):
        dilated(h1, gaussian(h1, 1.0), t)
    assert dilated(g1, gaussian(g1, 1.0), t).params[-1] == ("t", t)


@pytest.mark.parametrize("make,scale", [(gaussian, 1e-308), (gaussian, 1e200), (gaussian, 0.0),
                                        (bump, 1e-320), (bump, float("nan"))])
def test_scale_needs_a_finite_nonzero_square(g1, make, scale):
    # gaussian(g, 1e-308) was NaN everywhere (0/0), bump(g, 1e-320) 0 at its centre
    with pytest.raises(DomainError, match="must be positive with a finite nonzero square"):
        make(g1, scale)


def test_custom_requires_finite_decay():
    with pytest.raises(DomainError):
        custom(lambda p: np.ones(p.shape[:-1]), decay_radius=np.inf)


def test_default_battery_contents(g1):
    battery = default_battery(g1, lam=0.25, p=2.0)
    kinds = [u.kind for u in battery]
    assert kinds.count("gauss_tensor") == 3
    assert "bump_compact" in kinds and "power_truncated" in kinds
    power = [u for u in battery if u.kind == "power_truncated"][0]
    assert power.params[0] == pytest.approx((g1.Q - 0.25) / 4.0)


@pytest.mark.parametrize("group", ["g1", "g2", "g3", "h1"])
def test_coordinate_wise_kernels_equal_the_reductions(group, request):
    # sums of squares written out one coordinate at a time, and the
    # dilation one multiply per coordinate, compare == to the forms that
    # reduce over or broadcast against the trailing axis
    g = request.getfixturevalue(group)
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((4, 300, g.dimension)) * rng.uniform(0.05, 4.0, (4, 300, 1))
    r2 = np.sum(pts * pts, axis=-1)
    if g.law == groups.EUCLIDEAN:
        assert np.array_equal(groups.gauge(g, pts), np.sqrt(r2))
    w2, r02 = 0.7 ** 2, 1.9 ** 2
    u, b = gaussian(g, 0.7), bump(g, 1.9)
    assert np.array_equal(u(pts), np.exp(-r2 / w2))
    s = r2 / r02
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        assert np.array_equal(b(pts), np.where(s < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - s, 1e-300)), 0.0))
    if g.law == groups.EUCLIDEAN:
        lap = (-2.0 * g.dimension / w2 + 4.0 * r2 / (w2 * w2)) * np.exp(-r2 / w2)
        assert np.array_equal(u.analytic_sub_laplacian(pts), lap)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            fac = np.where(s < 1.0, -1.0 / np.maximum((1.0 - s) ** 2, 1e-300), 0.0)
        assert np.array_equal(b.analytic_gradient(pts), b(pts)[..., None] * fac[..., None] * 2.0 * pts / r02)
    for t in (0.37, 2.5):
        d = dilated(g, u, t)
        scale = np.array([t ** w for w in g.weights])
        assert np.array_equal(d(pts), u(pts * scale))
        assert np.array_equal(d.analytic_gradient(pts), t * u.analytic_gradient(pts * scale))
        assert np.array_equal(d.analytic_sub_laplacian(pts), t * t * u.analytic_sub_laplacian(pts * scale))
        with pytest.raises(ShapeError):
            d(np.zeros((2, g.dimension + 1)))
    assert np.array_equal(groups.squared_norm(pts[0]), r2[0])


def test_public_error_paths():
    with pytest.raises(DomainError, match="radius"):
        power_truncated(groups.euclidean_group(1), 0.5, 0.0)
