import math

import numpy as np
import pytest

from morreylab import (
    admissible,
    bump,
    custom,
    dilate,
    dilated,
    gauge,
    gaussian,
    hedberg_pointwise_check,
    mul,
)
from morreylab import operators, quadrature
from morreylab.errors import DomainError, IntegrandError, UnsupportedGroupError
from morreylab.operators import (
    frac_laplacian_values,
    frac_maximal_values,
    horizontal_gradient_values,
    riesz_values,
    sub_laplacian_values,
)
from morreylab.quadrature import QuadratureSpec, lattice_nodes, resolve_R, translate_sums
from morreylab.testfunctions import power_truncated


def indicator1d(radius=1.0):
    return custom(lambda p: (np.abs(p[..., 0]) <= radius).astype(float),
                  decay_radius=radius)


def zero_fn():
    return custom(lambda p: np.zeros(p.shape[:-1]), decay_radius=1.0)


SPEC25 = QuadratureSpec(R_max=2.5, lattice_h=0.05)
SPEC12 = QuadratureSpec(R_max=12.0, lattice_h=0.04)


class TestRiesz:
    def test_zero(self, g1):
        assert riesz_values(g1, 0.5, zero_fn(), np.array([0.0]), SPEC25.refined()) == 0.0

    def test_indicator_closed_form(self, g1):
        # integral_{-1}^{1} |y|^{-1/2} dy = 4
        val = riesz_values(g1, 0.5, indicator1d(), np.array([0.0]), SPEC25.refined())
        assert abs(val - 4.0) / 4.0 <= 0.01

    def test_gamma_domain(self, g1):
        with pytest.raises(DomainError):
            riesz_values(g1, 1.5, indicator1d(), np.array([0.0]), SPEC25.refined())
        with pytest.raises(DomainError):
            riesz_values(g1, 0.0, indicator1d(), np.array([0.0]), SPEC25.refined())

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_dilation_covariance(self, g1, t):
        u = gaussian(g1, 1.0)
        gamma = 0.5
        for x in ([0.0], [0.7], [-1.3]):
            x = np.array(x)
            lhs = riesz_values(g1, gamma, dilated(g1, u, t), x, SPEC12.refined())
            rhs = t ** -gamma * riesz_values(g1, gamma, u, dilate(g1, t, x),
                                             SPEC12.refined())
            assert abs(lhs - rhs) / abs(rhs) <= 0.01

    def test_batch_matches_scalar_refined(self, g1):
        u = gaussian(g1, 1.0)
        pts = np.array([[0.0], [0.4], [1.1]])
        batch = riesz_values(g1, 0.5, u, pts, SPEC12.refined())
        for x, b in zip(pts, batch):
            assert riesz_values(g1, 0.5, u, x, SPEC12.refined()) == pytest.approx(b, rel=5e-3)


class TestMaximal:
    def test_constant_exact(self, g1):
        spec = QuadratureSpec(R_max=6.0, lattice_h=0.02)
        c = custom(lambda p: 3.0 * np.ones(p.shape[:-1]), decay_radius=1e9)
        radii = np.geomspace(0.05, 3.0, 60)
        val = frac_maximal_values(g1, 0.0, c, np.array([1.0]), radii, spec)
        assert abs(val - 3.0) <= 1e-6

    def test_indicator_third(self, g1):
        spec = QuadratureSpec(R_max=6.0, lattice_h=0.02)
        radii = np.unique(np.concatenate([np.geomspace(0.05, 8.0, 80), [3.0]]))
        val = frac_maximal_values(g1, 0.0, indicator1d(), np.array([2.0]), radii, spec)
        assert abs(val - 1.0 / 3.0) * 3.0 <= 0.01

    def test_interior_lower_bound(self, g1):
        spec = QuadratureSpec(R_max=6.0, lattice_h=0.02)
        u = gaussian(g1, 1.0)
        radii = np.geomspace(0.05, 8.0, 60)
        for x in (0.0, 0.5, 1.5):
            val = frac_maximal_values(g1, 0.0, u, np.array([x]), radii, spec)
            assert val >= float(u(np.array([[x]]))[0]) - 0.01

    def test_frac_zero_alpha_bit_identical(self, g1):
        spec = QuadratureSpec(R_max=6.0, lattice_h=0.02)
        u = gaussian(g1, 1.0)
        radii = np.geomspace(0.05, 8.0, 60)
        pts = np.linspace(-2, 2, 9)[:, None]
        a = np.array([frac_maximal_values(g1, 0.0, u, x, radii, spec) for x in pts])
        b = frac_maximal_values(g1, 0.0, u, pts, radii, spec)
        assert np.array_equal(a, b)

    def test_frac_zero_function(self, g1):
        spec = QuadratureSpec(R_max=6.0, lattice_h=0.02)
        radii = np.geomspace(0.05, 3.0, 30)
        assert frac_maximal_values(g1, 0.5, zero_fn(), np.array([0.0]), radii, spec) == 0.0

    def test_frac_indicator_sqrt2(self, g1):
        # sup_r (2r)^{-1/2} min(2r, 2) = sqrt(2), attained at r = 1
        spec = QuadratureSpec(R_max=6.0, lattice_h=0.02)
        radii = np.unique(np.concatenate([np.geomspace(0.05, 8.0, 80), [1.0]]))
        val = frac_maximal_values(g1, 0.5, indicator1d(), np.array([0.0]), radii, spec)
        assert abs(val - math.sqrt(2.0)) / math.sqrt(2.0) <= 0.01

    def test_alpha_domain(self, g1):
        radii = np.geomspace(0.05, 3.0, 10)
        with pytest.raises(DomainError):
            frac_maximal_values(g1, 1.0, indicator1d(), np.array([0.0]), radii, SPEC25)

    def test_non_finite_radius_raises(self, g1):
        # every comparison with a NaN is false, so a grid of radii <= 0 is not the only bad one
        with pytest.raises(DomainError, match="finite"):
            frac_maximal_values(g1, 0.0, indicator1d(), np.array([0.0]), [0.1, np.nan, 0.3], SPEC25)

    def test_scalar_homogeneity(self, g1):
        spec = QuadratureSpec(R_max=6.0, lattice_h=0.05)
        u = gaussian(g1, 1.0)
        cu = custom(lambda p: -2.5 * u(p), decay_radius=u.decay_radius)
        radii = np.geomspace(0.1, 8.0, 40)
        m1 = frac_maximal_values(g1, 0.0, u, np.array([0.3]), radii, spec)
        m2 = frac_maximal_values(g1, 0.0, cu, np.array([0.3]), radii, spec)
        assert m2 == pytest.approx(2.5 * m1, rel=1e-12)


def maximal_sort_loop(g, alpha, u, points, radii, spec):
    """Per-point sort-and-loop maximal operator: the small-K oracle."""
    src, _, cell = lattice_nodes(g, spec)
    uv = np.abs(u(src))
    out = []
    for x in points:
        d = gauge(g, mul(g, -src, x))
        order = np.argsort(d)
        mass = np.concatenate([[0.0], np.cumsum(uv[order])])
        idx = np.searchsorted(d[order], radii, side="left")
        cnt = idx.astype(float)
        m_r = mass[idx] * cell
        vol = cnt * cell
        r_dom = max(spec.R_max - float(gauge(g, x)), 4.0 * spec.effective_h)
        j = int(np.searchsorted(radii, r_dom, side="right")) - 1
        if j >= 0 and cnt[j] > 0:
            base_v, base_r = cnt[j] * cell, radii[j]
        else:
            base_v, base_r = cell, r_dom
        vol = np.where(radii > r_dom, base_v * (radii / base_r) ** g.Q, vol)
        with np.errstate(divide="ignore", invalid="ignore"):
            out.append(np.max(np.where(vol > 0, vol ** (alpha - 1.0) * m_r, 0.0)))
    return np.array(out)


class TestMaximalOracle:
    @pytest.mark.parametrize("alpha", [0.0, 0.4])
    @pytest.mark.parametrize("group,spec", [
        ("g1", QuadratureSpec(R_max=3.0, lattice_h=0.05)),
        ("h1", QuadratureSpec(R_max=2.0, lattice_h=0.4)),
    ])
    def test_matches_sort_loop(self, group, spec, alpha, request, rng, monkeypatch):
        g = request.getfixturevalue(group)
        u = gaussian(g, 0.7)
        radii = np.geomspace(0.1, 6.0, 25)
        pts = rng.uniform(-1.0, 1.0, (23, g.dimension)) * spec.R_max
        # a few centre-node pairs per block, so the blocks split the points
        K = lattice_nodes(g, spec)[0].shape[0]
        monkeypatch.setattr(quadrature, "_PAIR_BUDGET", 5 * K + 1)
        got = frac_maximal_values(g, alpha, u, pts, radii, spec)
        want = maximal_sort_loop(g, alpha, u, pts, radii, spec)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_beyond_domain_lower_bound(self, g1, alpha):
        # balls leaving {|y| <= R_max} take their volume from the r^Q law;
        # near the edge the lattice value must stay a lower bound of the
        # true maximal function of e^{-y^2}, up to quadrature error
        spec = QuadratureSpec(R_max=6.0, lattice_h=0.02)
        u = gaussian(g1, 1.0)
        radii = np.geomspace(0.05, 16.0, 80)
        xs = np.array([4.0, 5.0, 5.5, 5.9])
        got = frac_maximal_values(g1, alpha, u, xs[:, None], radii, spec)
        fine = np.geomspace(1e-3, 1e3, 20001)
        for x, val in zip(xs, got):
            mass = 0.5 * math.sqrt(math.pi) * np.array(
                [math.erf(x + r) - math.erf(x - r) for r in fine]
            )
            true = np.max((2.0 * fine) ** (alpha - 1.0) * mass)
            assert val <= 1.01 * true

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="within about 4h of R_max the r_dom rule "
                       "over-reads the truncated ball mass (value/true 1.19-1.94)")
    @pytest.mark.parametrize("x", [5.95, 5.99])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_domain_edge_lower_bound(self, g1, alpha, x):
        # the same bound as test_beyond_domain_lower_bound, closer to R_max
        spec = QuadratureSpec(R_max=6.0, lattice_h=0.02)
        u = gaussian(g1, 1.0)
        radii = np.geomspace(0.05, 16.0, 80)
        val = frac_maximal_values(g1, alpha, u, np.array([[x]]), radii, spec)[0]
        fine = np.geomspace(1e-3, 1e3, 20001)
        mass = 0.5 * math.sqrt(math.pi) * np.array(
            [math.erf(x + r) - math.erf(x - r) for r in fine]
        )
        true = np.max((2.0 * fine) ** (alpha - 1.0) * mass)
        assert val <= 1.01 * true, val / true


class TestFracLaplacian:
    def test_constant_annihilated(self, g1):
        spec = QuadratureSpec(R_max=10.0, lattice_h=0.05)
        c = custom(lambda p: np.ones(p.shape[:-1]), decay_radius=1e9, smooth=True)
        assert abs(frac_laplacian_values(g1, 0.5, c, np.array([0.3]), spec)) <= 1e-10

    @pytest.mark.parametrize("omega", [1.0, 2.0])
    def test_cosine_symbol(self, g1, omega):
        spec = QuadratureSpec(R_max=64.0, lattice_h=0.025)
        u = custom(lambda p: np.cos(omega * p[..., 0]), decay_radius=1e9, smooth=True)
        val = frac_laplacian_values(g1, 0.5, u, np.array([0.0]), spec)
        assert abs(val - omega) / omega <= 0.02

    def test_dilation_homogeneity(self, g1):
        u = gaussian(g1, 1.0)
        spec = QuadratureSpec(R_max=14.0, lattice_h=0.03)
        x = np.array([0.4])
        lhs = frac_laplacian_values(g1, 0.5, dilated(g1, u, 2.0), x, spec)
        rhs = 2.0 * frac_laplacian_values(g1, 0.5, u, 2.0 * x, spec)
        assert abs(lhs - rhs) / abs(rhs) <= 0.02

    def test_linearity(self, g1):
        # matched decay metadata so all three calls share one quadrature path
        spec = QuadratureSpec(R_max=10.0, lattice_h=0.05)
        D = gaussian(g1, 1.0).decay_radius
        u = custom(gaussian(g1, 1.0).fn, decay_radius=D, smooth=True)
        v = custom(gaussian(g1, 0.5).fn, decay_radius=D, smooth=True)
        w = custom(lambda p: 2.0 * u(p) - 3.0 * v(p), decay_radius=D, smooth=True)
        x = np.array([[0.2], [0.9]])
        got = frac_laplacian_values(g1, 0.4, w, x, spec)
        want = (2.0 * frac_laplacian_values(g1, 0.4, u, x, spec)
                - 3.0 * frac_laplacian_values(g1, 0.4, v, x, spec))
        assert np.allclose(got, want, rtol=1e-8, atol=1e-8)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="each block of 128 points in gauge order shares one source cap, so a "
                       "value depends on the other points of the call (up to 7.3e-4 of max |value|)")
    def test_a_value_does_not_depend_on_the_other_points(self, g1, g2):
        # every other node against all nodes on R^2, single nodes against
        # all nodes on R^1: the values must agree to rounding
        for g, spec in ((g2, QuadratureSpec(R_max=6.0, lattice_h=0.15)),
                        (g1, QuadratureSpec(R_max=14.0, lattice_h=0.03))):
            u = gaussian(g, 0.5)
            nodes = quadrature.lattice_nodes(g, spec)[0]
            every = frac_laplacian_values(g, 0.25, u, nodes, spec)
            if g.dimension == 2:
                at, some = slice(None, None, 2), frac_laplacian_values(g, 0.25, u, nodes[::2], spec)
            else:
                at = slice(None, None, len(nodes) // 8)
                some = np.array([frac_laplacian_values(g, 0.25, u, x, spec) for x in nodes[at]])
            assert np.max(np.abs(some - every[at])) <= 1e-12 * np.max(np.abs(every)), g

    def test_errors(self, g1, h1):
        u = gaussian(g1, 1.0)
        with pytest.raises(DomainError):
            frac_laplacian_values(g1, 1.2, u, np.array([0.0]), SPEC12)
        with pytest.raises(UnsupportedGroupError):
            frac_laplacian_values(h1, 0.5, gaussian(h1, 1.0), np.zeros(3), SPEC12)


class TestHorizontal:
    def test_constant(self, g2, h1):
        c = custom(lambda p: np.ones(p.shape[:-1]), decay_radius=1e9, smooth=True)
        assert np.allclose(horizontal_gradient_values(g2, c, np.array([0.3, 0.4])), 0.0)
        assert np.allclose(horizontal_gradient_values(h1, c, np.array([1.0, 2.0, 3.0])),
                           0.0, atol=1e-8)

    def test_euclidean_polynomial(self, g2):
        u = custom(lambda p: p[..., 0] ** 2 + p[..., 1] ** 2, decay_radius=1e9,
                   smooth=True)
        got = horizontal_gradient_values(g2, u, np.array([1.0, 2.0]))
        assert np.allclose(got, [2.0, 4.0], atol=1e-6)

    def test_heisenberg_vector_fields(self, h1):
        u = custom(lambda p: p[..., 2], decay_radius=1e9, smooth=True)
        got = horizontal_gradient_values(h1, u, np.array([1.0, 2.0, 0.0]))
        assert np.allclose(got, [-1.0, 0.5], atol=1e-7)

    def test_left_invariance(self, h1, rng):
        u = gaussian(h1, 1.0)
        base = custom(u.fn, decay_radius=u.decay_radius, smooth=True)
        for _ in range(5):
            z = rng.standard_normal(3) * 0.8
            x = rng.standard_normal(3) * 0.8
            composed = custom(lambda p, z=z: u.fn(mul(h1, z, p)),
                              decay_radius=u.decay_radius + 10, smooth=True)
            lhs = horizontal_gradient_values(h1, composed, x[None, :])[0]
            rhs = horizontal_gradient_values(h1, base, mul(h1, z, x)[None, :])[0]
            assert np.allclose(lhs, rhs, atol=5e-6)

    def test_sub_laplacian_examples(self, g2, g3, h1):
        lin = custom(lambda p: 2.0 * p[..., 0] - p[..., 1], decay_radius=1e9,
                     smooth=True)
        assert abs(sub_laplacian_values(g2, lin, np.array([0.4, -0.2]))) <= 1e-6
        quad = custom(lambda p: np.sum(p * p, axis=-1), decay_radius=1e9, smooth=True)
        assert (sub_laplacian_values(g3, quad, np.array([0.3, 0.5, 0.7]))
                == pytest.approx(6.0, abs=1e-6))
        uxy = custom(lambda p: p[..., 0] ** 2 + p[..., 1] ** 2, decay_radius=1e9,
                     smooth=True)
        for pt in ([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]):
            assert sub_laplacian_values(h1, uxy, np.array(pt)) == pytest.approx(4.0, abs=1e-5)

    def test_analytic_forms_match_fd(self, h1, rng):
        pts = rng.standard_normal((6, 3)) * 0.7
        for u in (gaussian(h1, 1.0), bump(h1, 2.0)):
            fd = custom(u.fn, decay_radius=u.decay_radius, smooth=True)
            assert np.allclose(
                horizontal_gradient_values(h1, u, pts),
                horizontal_gradient_values(h1, fd, pts),
                atol=1e-6,
            )
            assert np.allclose(
                sub_laplacian_values(h1, u, pts),
                sub_laplacian_values(h1, fd, pts),
                atol=1e-5,
            )


def kernel_zones(g, a, spec, edges):
    """The shell weights of the Riesz kernel cut into gauge zones [edges[i], edges[i+1]), and c0."""
    weights, c0 = quadrature._shell_weights_cached(g, float(a), resolve_R(spec), spec.lattice_h)
    zs, dist, _ = lattice_nodes(g, spec)
    return zs, [np.where((dist >= lo) & (dist < hi), weights, 0.0) for lo, hi in zip(edges, edges[1:])], c0


class TestHedbergAndZones:
    """Hedberg's split of I_gamma u(x) into the kernel near x and far from it."""

    def test_split_support_inside(self, g1):
        # u is supported inside rho = 1: the potential at 0 is the inner
        # part, 4, and the nodes beyond rho add at most 0.02
        x = np.zeros((1, 1))
        assert abs(riesz_values(g1, 0.5, indicator1d(), x, SPEC25)[0] - 4.0) / 4.0 <= 0.01
        zs, (_, outer), _ = kernel_zones(g1, -0.5, SPEC25, (0.0, 1.0, np.inf))
        assert translate_sums(g1, indicator1d(), x, zs, outer, SPEC25.lattice_h)[0] <= 0.02

    def test_split_outer_empty(self, g1):
        # no node lies beyond rho = R_max + 2: the far part is zero and the
        # near part, with c0 u(x), is the whole potential 4
        x = np.zeros((1, 1))
        zs, (inner, outer), c0 = kernel_zones(g1, -0.5, SPEC25, (0.0, SPEC25.R_max + 2.0, np.inf))
        assert not np.any(outer)
        assert translate_sums(g1, indicator1d(), x, zs, outer, SPEC25.lattice_h)[0] == 0.0
        j1 = translate_sums(g1, indicator1d(), x, zs, inner, SPEC25.lattice_h)[0] + c0
        assert abs(j1 - 4.0) / 4.0 <= 0.01

    def test_split_sums_to_potential(self, g1):
        # the near part (with c0 u(x)) and the far part recombine to the
        # potential to rounding, which agrees with its refinement
        u = gaussian(g1, 1.0)
        spec = QuadratureSpec(R_max=10.0, lattice_h=0.04)
        x = np.array([[0.5]])
        zs, (inner, outer), c0 = kernel_zones(g1, -0.5, spec, (0.0, 0.8, np.inf))
        j1 = translate_sums(g1, u, x, zs, inner, spec.lattice_h)[0] + c0 * u(x)[0]
        j2 = translate_sums(g1, u, x, zs, outer, spec.lattice_h)[0]
        assert j1 + j2 == pytest.approx(riesz_values(g1, 0.5, u, x, spec)[0], rel=1e-12)
        ref = riesz_values(g1, 0.5, u, x, spec.refined())[0]
        assert j1 + j2 == pytest.approx(ref, rel=5e-3)
        assert j1 + j2 >= abs(ref) * 0.98

    def test_zones_zero_and_degenerate(self, g1):
        # a zero u has a zero potential, and Hedberg's ratio skips every
        # point where a maximal value vanishes
        assert riesz_values(g1, 0.5, zero_fn(), np.array([1.0]), SPEC25) == 0.0
        cfg = admissible("adams_hls", Q=1, p=2.0, gamma=0.3, lam=0.2)
        rep = hedberg_pointwise_check(g1, cfg, zero_fn(), np.array([[0.0], [1.0]]), SPEC25)
        assert (rep.max_ratio, rep.n_used, rep.n_skipped) == (0.0, 0, 2)

    def test_zones_raise_at_a_non_finite_node(self, g1):
        # an infinite sample near x and one far from it both name their node
        spec = QuadratureSpec(R_max=4.0, lattice_h=0.05)
        for y0 in (0.125, 3.025):
            u = custom(lambda p, y0=y0: np.where(np.abs(p[..., 0] - y0) < 1e-9, np.inf, 1.0), 10.0)
            with pytest.raises(IntegrandError, match=rf"non-finite integrand at node \[{y0}"):
                riesz_values(g1, 0.5, u, np.array([1.0]), spec)

    def test_zones_sum_consistency(self, g1):
        # the zones |z| < |x|/2, |x|/2 <= |z| < 2|x| and beyond recombine to
        # the potential, which agrees with its refinement
        spec = QuadratureSpec(R_max=14.0, lattice_h=0.03)
        u = gaussian(g1, 1.0)
        x = np.array([[1.0]])
        zs, zones, c0 = kernel_zones(g1, -0.5, spec, (0.0, 0.5, 2.0, np.inf))
        total = sum(translate_sums(g1, u, x, zs, w, spec.lattice_h)[0] for w in zones) + c0 * u(x)[0]
        coarse = riesz_values(g1, 0.5, u, x, spec)[0]
        assert total == pytest.approx(coarse, rel=1e-12)
        fine = riesz_values(g1, 0.5, u, x, spec.refined())[0]
        assert abs(total - fine) <= 2.0 * (abs(fine - coarse) + 0.01 * fine)


def test_power_truncated_exponent_guard(g1):
    with pytest.raises(DomainError):
        power_truncated(g1, 1.5, 1.0)
    u = power_truncated(g1, 0.4, 1.0)
    assert u.decay_radius == 1.0 and not u.smooth


def test_riesz_covariance_full_battery(g1):
    from morreylab.testfunctions import default_battery

    gamma = 0.5
    spec = QuadratureSpec(R_max=12.0, lattice_h=0.02)
    for u in default_battery(g1, lam=0.25, p=2.0, widths=(0.5, 1.0, 2.0)):
        for t in (0.5, 2.0):
            for x in ([0.6], [-1.1]):
                x = np.array(x)
                lhs = riesz_values(g1, gamma, dilated(g1, u, t), x, spec.refined())
                rhs = t ** -gamma * riesz_values(g1, gamma, u, dilate(g1, t, x), spec.refined())
                assert abs(lhs - rhs) / abs(rhs) <= 0.01, (u.label, t, x)


_SPEC = QuadratureSpec(R_max=4.0, lattice_h=0.1)


@pytest.mark.parametrize("law,op", [
    ("R1", "riesz"), ("R1", "fraclap"), ("R1", "maximal"), ("H1", "riesz"), ("H1", "maximal"),
])
def test_zero_points_give_an_empty_float_array(law, op, g1, h1):
    # the ball sums of no centres came back as integers, so the maximal
    # operator's in-place scaling by the cell volume raised a casting error
    g, spec = (g1, _SPEC) if law == "R1" else (h1, QuadratureSpec(R_max=3.0, lattice_h=0.5))
    u, pts = gaussian(g, 0.5), np.zeros((0, g.dimension))
    if op == "riesz":
        out = riesz_values(g, 0.4 if law == "R1" else 1.0, u, pts, spec)
    elif op == "fraclap":
        out = frac_laplacian_values(g, 0.25, u, pts, spec)
    else:
        out = frac_maximal_values(g, 0.0, u, pts, quadrature.radius_grid(spec, u.decay_radius), spec)
    assert out.dtype == np.float64 and out.shape == (0,)
