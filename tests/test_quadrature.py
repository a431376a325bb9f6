import math

import numpy as np
import pytest

from morreylab import custom, gauge, gaussian, lattice_integrate, mul, shell_integrate_singular
from morreylab.errors import ContractError, DomainError, IntegrandError
from morreylab.quadrature import QuadratureSpec, ball_bins, ball_sums, radius_grid


def const(c):
    return lambda pts: c * np.ones(pts.shape[:-1])


def test_spec_invariants():
    with pytest.raises(DomainError):
        QuadratureSpec(R_max=1.0, lattice_h=2.0)
    with pytest.raises(DomainError):
        QuadratureSpec(R_max=1.0, lattice_h=0.1, refinement_level=-1)
    spec = QuadratureSpec(R_max=1.0, lattice_h=0.1, refinement_level=2)
    assert spec.effective_h == pytest.approx(0.025)
    assert spec.refined().refinement_level == 3


def test_lattice_constant(g1):
    spec = QuadratureSpec(R_max=1.0, lattice_h=0.05)
    res = lattice_integrate(g1, const(1.0), spec)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.error_estimate <= 1e-10
    assert res.nodes_used > 0


def test_lattice_gaussian(g1):
    spec = QuadratureSpec(R_max=8.0, lattice_h=0.05)
    res = lattice_integrate(g1, lambda p: np.exp(-p[..., 0] ** 2), spec)
    assert abs(res.value - math.sqrt(math.pi)) <= 1e-6


def test_lattice_zero(g1):
    spec = QuadratureSpec(R_max=1.0, lattice_h=0.05)
    res = lattice_integrate(g1, const(0.0), spec)
    assert res.value == 0.0 and res.error_estimate == 0.0


def test_lattice_nonfinite_names_node(g1):
    spec = QuadratureSpec(R_max=1.0, lattice_h=0.05)

    def bad(pts):
        vals = np.ones(pts.shape[:-1])
        vals[np.abs(pts[..., 0] - 0.525) < 1e-12] = np.nan
        return vals

    with pytest.raises(IntegrandError, match="0.525"):
        lattice_integrate(g1, bad, spec)
    # flagged singular point: the offending cell is dropped instead
    res = lattice_integrate(g1, bad, spec, singular_point=[0.525])
    assert np.isfinite(res.value)


def test_lattice_refinement_monotone(g1):
    # x^2 has exact midpoint error h^2/6 * (f' boundary jump): strictly
    # decreasing under refinement
    base = QuadratureSpec(R_max=1.0, lattice_h=0.1)
    diffs = []
    for lev in range(3):
        res = lattice_integrate(g1, lambda p: p[..., 0] ** 2, base.refined(lev))
        diffs.append(res.error_estimate)
    assert diffs[0] > diffs[1] > diffs[2] > 0


def test_lattice_translation_covariance(g1):
    spec = QuadratureSpec(R_max=10.0, lattice_h=0.05)
    u = gaussian(g1, 1.0)
    base = lattice_integrate(g1, u, spec)
    z = np.array([0.7])
    shifted = lattice_integrate(g1, lambda p: u(mul(g1, z, p)), spec)
    tol = 2.0 * (base.error_estimate + shifted.error_estimate) + 1e-10
    assert abs(base.value - shifted.value) <= tol


def indicator1d(radius=1.0):
    return custom(lambda p: (np.abs(p[..., 0]) <= radius).astype(float),
                  decay_radius=radius)


def test_shell_indicator_value(g1):
    # integral_{-1}^{1} |y|^{-1/2} dy = 4
    spec = QuadratureSpec(R_max=2.5, lattice_h=0.05)
    res = shell_integrate_singular(g1, -0.5, indicator1d(), np.array([0.0]), spec)
    assert abs(res.value - 4.0) / 4.0 <= 0.01


def test_shell_zero(g1):
    spec = QuadratureSpec(R_max=2.5, lattice_h=0.05)
    res = shell_integrate_singular(g1, -0.5, const(0.0), np.array([0.0]), spec)
    assert res.value == 0.0


def test_shell_refinement_gain(g1):
    spec = QuadratureSpec(R_max=8.0, lattice_h=0.1)
    u = gaussian(g1, 1.0)
    e0 = shell_integrate_singular(g1, -0.5, u, np.array([0.3]), spec).error_estimate
    e1 = shell_integrate_singular(g1, -0.5, u, np.array([0.3]), spec.refined()).error_estimate
    assert e0 / e1 >= 1.5


def test_shell_domain_errors(g1, h1):
    spec = QuadratureSpec(R_max=2.0, lattice_h=0.05)
    with pytest.raises(DomainError):
        shell_integrate_singular(g1, -1.5, const(1.0), np.array([0.0]), spec)
    with pytest.raises(ContractError):
        shell_integrate_singular(g1, 0.5, const(1.0), np.array([0.0]), spec)
    with pytest.raises(DomainError):
        shell_integrate_singular(h1, -4.0, const(1.0), np.zeros(3), spec)


def test_shell_vs_lattice_mild_singularity(g1):
    # a in (-Q/2, 0): both engines integrate u(y)|y|^a and must agree.
    # The raw midpoint side converges at order a+1 < 1, so its Richardson
    # difference understates the error by 1/(2^(a+1)-1); inflate by 3.
    spec = QuadratureSpec(R_max=8.0, lattice_h=0.05)
    u = gaussian(g1, 1.0)
    a = -0.4
    shell = shell_integrate_singular(g1, a, u, np.array([0.0]), spec)
    latt = lattice_integrate(
        g1, lambda p: u(p) * np.abs(p[..., 0]) ** a, spec, singular_point=[0.0]
    )
    tol = shell.error_estimate + 3.0 * latt.error_estimate
    assert abs(shell.value - latt.value) <= tol
    # the shell engine nails the closed form Gamma(0.3)
    assert shell.value == pytest.approx(math.gamma(0.3), rel=2e-3)


def test_radius_grid_endpoints():
    spec = QuadratureSpec(R_max=4.0, lattice_h=0.05)
    grid = radius_grid(spec, decay_radius=2.0)
    assert grid[0] == pytest.approx(2.0 * spec.lattice_h)
    assert grid[-1] >= 2.0 * (spec.R_max + 2.0)
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, 2.0 ** 0.25)


@pytest.mark.parametrize("group", ["g1", "g2", "h1"])
def test_ball_sums_match_direct_masks(group, request, rng):
    # per-centre mask loop over {z : gauge(c^-1 z) < r}; some radii are
    # exact node distances, which pins the strict inequality
    g = request.getfixturevalue(group)
    nodes = rng.uniform(-2.0, 2.0, (60, g.dimension))
    centers = np.vstack([np.zeros(g.dimension), rng.uniform(-1.0, 1.0, (4, g.dimension))])
    w = rng.uniform(0.0, 1.0, 60)
    on_ball = gauge(g, mul(g, -centers[0], nodes[:3]))
    radii = np.unique(np.concatenate([np.geomspace(0.05, 6.0, 9), on_ball]))
    bins = ball_bins(g, nodes, centers, radii)
    counts = ball_sums(bins, len(radii))
    sums = ball_sums(bins, len(radii), w)
    for i, c in enumerate(centers):
        d = gauge(g, mul(g, -c, nodes))
        for j, r in enumerate(radii):
            inside = d < r
            assert counts[i, j] == np.sum(inside)
            assert sums[i, j] == pytest.approx(np.sum(w[inside]), rel=1e-13, abs=1e-15)
    # a node at exactly distance r lies outside B(c, r)
    d0 = gauge(g, mul(g, -centers[0], nodes))
    for r in on_ball:
        assert counts[0, np.searchsorted(radii, r)] == np.sum(d0 <= r) - 1
