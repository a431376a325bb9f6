import dataclasses
import math

import numpy as np
import pytest

from morreylab import custom, euclidean_group, gauge, gaussian, heisenberg_group, lattice_integrate, mul, shell_integrate_singular
from morreylab.errors import ContractError, DomainError, IntegrandError
from morreylab.quadrature import QuadratureSpec, ball_bins, ball_sums, bin_runs, gauge_power_weights, geometric_radii, kernel_band_values, radius_grid


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


def test_shell_error_unknown_when_only_the_coarse_lattice_hits_a_singularity(g1):
    # the products c + z of the coarse lattice reach c + 3h/2 and those of
    # the finer one straddle it: the value stands, its error bar is inf
    spec = QuadratureSpec(R_max=2.5, lattice_h=0.05)
    c = np.array([0.3])
    y0 = c[0] + 1.5 * spec.effective_h
    clean = gaussian(g1, 1.0)
    u = custom(lambda p: np.where(np.abs(p[..., 0] - y0) < 1e-12, np.nan, clean(p)), 10.0)
    res = shell_integrate_singular(g1, -0.5, u, c, spec)
    assert res.error_estimate == math.inf
    assert res.value == shell_integrate_singular(g1, -0.5, clean, c, spec).value
    # one level coarser, the finer lattice is this one and raises
    with pytest.raises(IntegrandError, match="non-finite integrand at node"):
        shell_integrate_singular(g1, -0.5, u, c, QuadratureSpec(R_max=2.5, lattice_h=0.1))


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


@pytest.mark.parametrize("case", ["shuffled", "one_bin_row", "sorted"])
def test_infinite_weight_reaches_only_the_balls_of_its_node(case, rng):
    # prefix sums would turn every ball past an inf into inf - inf: with
    # inf at the first and at the last node of a row each run is summed
    # on its own, and the balls agree with the per-pair bincount
    bins, n = run_table(case, rng)
    runs = bin_runs(bins, n)
    for at in (0, bins.shape[1] - 1, [0, bins.shape[1] - 1]):
        w = rng.uniform(0.0, 1.0, bins.shape[1])
        w[at] = np.inf
        got, want = ball_sums(runs, w), pair_bincount(bins, n, w)
        assert not np.isnan(got).any()
        assert np.array_equal(np.isinf(got), np.isinf(want)) and np.isinf(got).any() and np.isfinite(got).any()
        finite = np.isfinite(want)
        assert np.allclose(got[finite], want[finite], rtol=1e-13, atol=1e-13)


def test_ball_sums_of_no_nodes_are_zero():
    runs = bin_runs(np.zeros((3, 0), np.int8), 4)
    assert np.array_equal(ball_sums(runs), np.zeros((3, 4)))
    assert np.array_equal(ball_sums(runs, np.zeros(0)), np.zeros((3, 4)))


_G1 = euclidean_group(1)
_H1 = heisenberg_group()
_SPEC = QuadratureSpec(R_max=4.0, lattice_h=0.1)


@pytest.mark.parametrize("call,match", [
    (lambda: gauge_power_weights(_H1, -_H1.Q, 4.0, 0.5), "not integrable"),
    (lambda: kernel_band_values(_G1, -_G1.Q, gaussian(_G1, 1.0), np.zeros((1, 1)), _SPEC),
     "diverges"),
    (lambda: kernel_band_values(_G1, 0.0, gaussian(_G1, 1.0), np.zeros((1, 1)), _SPEC),
     "singular kernel"),
], ids=["weight_exponent_minus_Q", "kernel_exponent_minus_Q", "kernel_exponent_0"])
def test_public_error_paths(call, match):
    with pytest.raises(DomainError, match=match):
        call()
