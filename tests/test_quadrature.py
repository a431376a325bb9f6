import dataclasses
import math
import re

import numpy as np
import pytest

from morreylab import custom, euclidean_group, gauge, gaussian, heisenberg_group, mul, power_truncated
from morreylab.errors import DomainError, IntegrandError, ShapeError
from morreylab.operators import riesz_values
from morreylab.quadrature import (QuadratureSpec, ball_bins, ball_masses, ball_sums, ball_totals, bin_runs, gauge_power_weights,
                                  geometric_radii, lattice_key, lattice_nodes, radius_grid)


def const(c):
    return lambda pts: c * np.ones(pts.shape[:-1])


def test_spec_invariants():
    with pytest.raises(DomainError):
        QuadratureSpec(R_max=1.0, lattice_h=2.0)
    # a spec is its radius and one spacing, both required
    fields = dataclasses.fields(QuadratureSpec)
    assert [f.name for f in fields] == ["R_max", "lattice_h"]
    assert all(f.default is dataclasses.MISSING for f in fields)
    spec = QuadratureSpec(R_max=1.0, lattice_h=0.1)
    # halving is exact, so refining twice equals refining by two levels bit for bit
    assert spec.refined(2) == spec.refined().refined() == QuadratureSpec(R_max=1.0, lattice_h=0.025)
    assert spec.effective_h == spec.lattice_h


@pytest.mark.parametrize("kw", [dict(R_max=math.inf)])
def test_spec_rejects_what_the_config_parser_rejects(kw):
    # a spec is a memo key: an infinite R_max must not enter one
    with pytest.raises(DomainError):
        QuadratureSpec(**{"R_max": 1.0, "lattice_h": 0.1, **kw})


def midpoint(g, f, spec):
    """The midpoint rule over the nodes of ``lattice_nodes``: sum f(z) cell."""
    pts, _, cell = lattice_nodes(g, spec)
    return float(np.sum(f(pts)) * cell)


def test_lattice_constant(g1):
    # the cells of the nodes tile the ball [-1, 1]
    assert midpoint(g1, const(1.0), QuadratureSpec(R_max=1.0, lattice_h=0.05)) == pytest.approx(2.0, abs=1e-12)


def test_lattice_gaussian(g1):
    spec = QuadratureSpec(R_max=8.0, lattice_h=0.05)
    assert abs(midpoint(g1, lambda p: np.exp(-p[..., 0] ** 2), spec) - math.sqrt(math.pi)) <= 1e-6


def test_lattice_zero(g1):
    # exactly zero at the spec and at its refinement (a zero Richardson difference)
    spec = QuadratureSpec(R_max=1.0, lattice_h=0.05)
    assert midpoint(g1, const(0.0), spec) == 0.0 == midpoint(g1, const(0.0), spec.refined())


def test_lattice_nonfinite_names_node(g1):
    spec = QuadratureSpec(R_max=1.0, lattice_h=0.05)

    def bad(pts):
        vals = np.ones(pts.shape[:-1])
        vals[np.abs(pts[..., 0] - 0.525) < 1e-12] = np.nan
        return vals

    with pytest.raises(IntegrandError, match="0.525"):
        riesz_values(g1, 0.5, bad, np.zeros(1), spec)


def test_lattice_refinement_monotone(g1):
    # x^2 has exact midpoint error h^2/6 * (f' boundary jump): strictly
    # decreasing under refinement
    base = QuadratureSpec(R_max=1.0, lattice_h=0.1)
    errs = [abs(midpoint(g1, lambda p: p[..., 0] ** 2, base.refined(lev)) - 2.0 / 3.0) for lev in range(3)]
    assert errs[0] > errs[1] > errs[2] > 0


def test_lattice_translation_covariance(g1):
    spec = QuadratureSpec(R_max=10.0, lattice_h=0.05)
    u = gaussian(g1, 1.0)
    z = np.array([0.7])
    assert midpoint(g1, lambda p: u(mul(g1, z, p)), spec) == pytest.approx(midpoint(g1, u, spec), abs=1e-10)


def indicator1d(radius=1.0):
    return custom(lambda p: (np.abs(p[..., 0]) <= radius).astype(float),
                  decay_radius=radius)


def refinement_step(g, gamma, u, x, spec):
    """The Riesz potential at ``spec.refined()`` and its change from the value at ``spec``."""
    fine = float(riesz_values(g, gamma, u, x, spec.refined()))
    return fine, abs(fine - float(riesz_values(g, gamma, u, x, spec)))


def test_shell_indicator_value(g1):
    # integral_{-1}^{1} |y|^{-1/2} dy = 4
    spec = QuadratureSpec(R_max=2.5, lattice_h=0.05)
    value = riesz_values(g1, 0.5, indicator1d(), np.array([0.0]), spec.refined())
    assert abs(value - 4.0) / 4.0 <= 0.01


def test_shell_zero(g1):
    spec = QuadratureSpec(R_max=2.5, lattice_h=0.05)
    assert riesz_values(g1, 0.5, const(0.0), np.array([0.0]), spec) == 0.0


def test_shell_refinement_gain(g1):
    spec = QuadratureSpec(R_max=8.0, lattice_h=0.1)
    u = gaussian(g1, 1.0)
    e0 = refinement_step(g1, 0.5, u, np.array([0.3]), spec)[1]
    e1 = refinement_step(g1, 0.5, u, np.array([0.3]), spec.refined())[1]
    assert e0 / e1 >= 1.5


def test_shell_domain_errors(g1, h1):
    spec = QuadratureSpec(R_max=2.0, lattice_h=0.05)
    # kernel exponents gamma - Q of -1.5 and 0.5 on R^1, -4 = -Q on H^1
    for g, gamma, x in ((g1, -0.5, np.zeros(1)), (g1, 1.5, np.zeros(1)), (h1, 0.0, np.zeros(3))):
        with pytest.raises(DomainError):
            riesz_values(g, gamma, const(1.0), x, spec)


def test_shell_raises_when_only_the_coarse_lattice_hits_a_singularity(g1):
    # the products c + z of the coarse lattice reach c + 3h/2 and those of
    # the finer one straddle it: the coarse lattice cannot represent u, so
    # the call raises there like every other engine, and not on the finer one
    spec = QuadratureSpec(R_max=2.5, lattice_h=0.05)
    c = np.array([0.3])
    y0 = c[0] + 1.5 * spec.lattice_h
    clean = gaussian(g1, 1.0)
    u = custom(lambda p: np.where(np.abs(p[..., 0] - y0) < 1e-12, np.nan, clean(p)), 10.0)
    with pytest.raises(IntegrandError, match="non-finite integrand at node"):
        riesz_values(g1, 0.5, u, c, spec)
    assert np.isfinite(riesz_values(g1, 0.5, u, c, spec.refined()))


def test_band_raises_at_a_non_finite_centre_value_only_where_c0_counts(g1):
    # c0 u(x) carries the kernel mass below the innermost shell edge, which
    # is never zero: an infinite u(x) raises
    spec = QuadratureSpec(R_max=3.0, lattice_h=0.05)
    u = power_truncated(g1, 0.4, 1.0)
    x = np.zeros((1, 1))
    with pytest.raises(IntegrandError, match=r"non-finite integrand at node \[0\.0\]"):
        riesz_values(g1, 0.5, u, x, spec)


def test_shell_vs_lattice_mild_singularity(g1):
    # a in (-Q/2, 0): both rules integrate u(y)|y|^a and must agree.
    # The raw midpoint side converges at order a+1 < 1, so its Richardson
    # difference understates the error by 1/(2^(a+1)-1); inflate by 3.
    spec = QuadratureSpec(R_max=8.0, lattice_h=0.05)
    u = gaussian(g1, 1.0)
    a = -0.4
    shell, shell_err = refinement_step(g1, a + g1.Q, u, np.array([0.0]), spec)
    def f(p):
        return u(p) * np.abs(p[..., 0]) ** a

    latt = midpoint(g1, f, spec.refined())
    latt_err = abs(latt - midpoint(g1, f, spec))
    assert abs(shell - latt) <= shell_err + 3.0 * latt_err
    # the shell weights nail the closed form Gamma(0.3)
    assert shell == pytest.approx(math.gamma(0.3), rel=2e-3)


def test_radius_grid_endpoints():
    spec = QuadratureSpec(R_max=4.0, lattice_h=0.05)
    grid = radius_grid(spec, decay_radius=2.0)
    assert grid[0] == pytest.approx(2.0 * spec.lattice_h)
    assert grid[-1] >= 2.0 * (spec.R_max + 2.0)
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, 2.0 ** 0.25)


def test_geometric_radii_without_room_is_the_least_radius():
    for r_max in (0.5, 0.3):
        assert np.array_equal(geometric_radii(0.5, r_max), [0.5])


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
    runs = bin_runs(ball_bins(g, nodes, centers, radii), len(radii))
    counts = ball_sums(runs)
    sums = ball_sums(runs, w)
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


def pair_bincount(bins, n_radii, weights=None):
    """Per-ball totals of a ``ball_bins`` table, one ``bincount`` over the pairs of each centre."""
    per_bin = np.array([np.bincount(row, weights, minlength=n_radii + 1) for row in bins])
    return np.cumsum(per_bin.reshape(len(bins), n_radii + 1)[:, :n_radii], axis=1)


def run_table(case, rng):
    """A (bins, n_radii) table of one of the shapes the runs must handle."""
    n = 9
    if case == "shuffled":
        # neighbouring nodes rarely share a bin: about one run per node
        return rng.integers(0, n + 1, (5, 300)).astype(np.int8), n
    if case == "one_node":
        return rng.integers(0, n + 1, (6, 1)).astype(np.int8), n
    if case == "one_bin_row":
        bins = np.sort(rng.integers(0, n + 1, (4, 250)), axis=1).astype(np.int8)
        bins[2] = 3
        return bins, n
    g = euclidean_group(2)
    nodes = rng.uniform(-2.0, 2.0, (400, 2))
    nodes = nodes[np.argsort(gauge(g, nodes))]
    centers = rng.uniform(-0.5, 0.5, (4, 2))
    # "past_every_node": radii past every node, so every pair lies in the first ball, one run per row
    radii = np.geomspace(0.2, 6.0, n) if case == "sorted" else np.geomspace(10.0, 20.0, n)
    return ball_bins(g, nodes, centers, radii), n


@pytest.mark.parametrize("case", ["shuffled", "one_node", "one_bin_row", "sorted", "past_every_node"])
def test_ball_sums_from_runs_match_pair_bincount(case, rng):
    # counts equal the per-pair bincount exactly; sums lie within the
    # documented bound of the exact ones: (nodes + runs + j) eps sum |w| for ball j
    bins, n = run_table(case, rng)
    runs = bin_runs(bins, n)
    assert runs.end.dtype == runs.ball.dtype == np.int32
    # the runs tile each row in order: repeated by their lengths they give the table
    start = np.concatenate([[0], runs.end[:-1]])
    start[runs.first] = 0
    assert np.all(runs.end > start)
    assert np.array_equal(np.repeat(runs.ball, runs.end - start),
                          (np.arange(len(bins))[:, None] * (n + 1) + bins).ravel())
    if case == "past_every_node":
        assert len(runs.end) == len(bins)
    counts = ball_sums(runs)
    assert np.array_equal(counts, pair_bincount(bins, n))
    n_runs = np.cumsum(np.bincount(runs.ball, minlength=len(bins) * (n + 1)).reshape(len(bins), n + 1)[:, :n],
                       axis=1)
    eps = np.finfo(float).eps
    for w in (rng.uniform(0.0, 1.0, bins.shape[1]), rng.standard_normal(bins.shape[1]) * 1e3):
        got = ball_sums(runs, w)
        exact = np.array([[math.fsum(w[row <= j]) for j in range(n)] for row in bins])
        bound = (counts + n_runs + np.arange(1, n + 1)) * eps * np.sum(np.abs(w))
        assert np.all(np.abs(got - exact) <= bound)
        assert np.all(np.abs(pair_bincount(bins, n, w) - exact) <= bound)


@pytest.mark.parametrize("on_lattice", [True, False], ids=["lattice", "off_lattice"])
def test_non_finite_weight_raises_naming_its_node(g1, on_lattice):
    # a prefix sum past a non-finite weight would reach every later ball:
    # the masses (memoised runs) and the totals (lattice runs or memoised
    # pair bins) take finite weights only, and name the node of one that
    # is not; a weight count other than the lattice's is refused
    spec = QuadratureSpec(R_max=3.0, lattice_h=0.05)
    nodes = lattice_nodes(g1, spec)[0]
    centers = nodes[::9] + (0.0 if on_lattice else 0.3 * spec.lattice_h)
    radii = radius_grid(spec, 1.0)
    at = len(nodes) // 3
    node = re.escape(f"non-finite integrand at node {nodes[at].tolist()}")
    for bad in (np.inf, -np.inf, np.nan):
        w = np.ones(len(nodes))
        w[at] = bad
        with pytest.raises(IntegrandError, match=node):
            ball_masses(g1, centers, radii, w, lattice_key(spec))
        with pytest.raises(IntegrandError, match=node):
            ball_totals(g1, centers, radii, w, lattice_key(spec))
    for engine in (ball_masses, ball_totals):
        with pytest.raises(ShapeError, match=re.escape(f"lattice {lattice_key(spec)} holds {len(nodes)} nodes")):
            engine(g1, centers, radii, np.ones(len(nodes) - 1), lattice_key(spec))


def test_ball_sums_of_no_nodes_are_zero():
    runs = bin_runs(np.zeros((3, 0), np.int8), 4)
    assert np.array_equal(ball_sums(runs), np.zeros((3, 4)))
    assert np.array_equal(ball_sums(runs, np.zeros(0)), np.zeros((3, 4)))


_G1 = euclidean_group(1)
_H1 = heisenberg_group()
_SPEC = QuadratureSpec(R_max=4.0, lattice_h=0.1)


@pytest.mark.parametrize("call,match", [
    (lambda: gauge_power_weights(_H1, -_H1.Q, 4.0, 0.5), "not integrable"),
    # the Riesz kernel gauge^(gamma - Q) at gamma 0 and Q
    (lambda: riesz_values(_G1, 0.0, gaussian(_G1, 1.0), np.zeros((1, 1)), _SPEC),
     "gamma must lie in"),
    (lambda: riesz_values(_G1, _G1.Q, gaussian(_G1, 1.0), np.zeros((1, 1)), _SPEC),
     "gamma must lie in"),
], ids=["weight_exponent_minus_Q", "kernel_exponent_minus_Q", "kernel_exponent_0"])
def test_public_error_paths(call, match):
    with pytest.raises(DomainError, match=match):
        call()
