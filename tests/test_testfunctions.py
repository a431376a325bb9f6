import math

import numpy as np
import pytest

from morreylab import bump, custom, dilated, gaussian
from morreylab.errors import DomainError
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
