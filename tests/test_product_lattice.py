"""The product-lattice backend against the direct loops it replaces.

On H^1, ``translate_sums`` (so ``riesz_values``) samples u once on the
grid where the products x z of on-lattice points and nodes land, reads
the products of each point column with each node column as one window of
that grid and sums them as a correlation by FFT, over every node, when
every sample is finite; a non-finite sample sends the sums to the direct
loop, which alone applies source caps.  On every law,
``frac_maximal_values`` reads its ball counts and masses at on-lattice
centres from runs of that grid, cut from each grid line by the gauge
ball's closed-form section, and prefix sums over node columns, and bins
the pairs near a radius one by one.  The direct loops
stay as the fallback; here they are the small-K oracle.  Riesz sums and
maximal values must agree to 1e-12 of the largest value; ball counts bit
for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import clear_plans

from morreylab import groups, harness, operators, quadrature
from morreylab.errors import IntegrandError
from morreylab.quadrature import (
    QuadratureSpec,
    _ball_runs,
    ball_bins,
    ball_totals,
    geometric_radii,
    lattice_key,
    lattice_nodes,
    product_lattice,
    radius_grid,
    translate_sums,
)
from morreylab.report import run_experiment
from morreylab.testfunctions import custom, dilated, gaussian, power_truncated

# K = 768 nodes; the product grid holds 74k samples against 590k pairs
H1_SPEC = QuadratureSpec(R_max=2.0, lattice_h=0.4)


# (group, spec): radius_grid starts at 2h with ratio 2^(1/4), so every
# fourth radius is an exact lattice distance and ties are common
BIN_CASES = [
    ("R1", groups.euclidean_group(1), QuadratureSpec(R_max=6.0, lattice_h=0.05)),
    ("R2", groups.euclidean_group(2), QuadratureSpec(R_max=1.6, lattice_h=0.1)),
    ("H1", groups.heisenberg_group(), H1_SPEC),
]


BIN_IDS = [c[0] for c in BIN_CASES]


def flat_index(lat):
    """Flat grid index of every (point, node) product, from the column map.

    Slot s of a point column meets slot m of a node column ``step`` (s + m)
    past the pair's column start.
    """
    return lat.column_starts()[lat.pcol][:, lat.col] + lat.step * (lat.s[:, None] + lat.m)


def grid_points(lat):
    """Every sample of the product grid, in flat order: (S, N)."""
    return np.stack(np.meshgrid(*lat.axes, indexing="ij"), axis=-1).reshape(-1, len(lat.axes))


def gauge_ball_bump(h1, r):
    """A u that vanishes beyond gauge r, as the decay radius it declares says."""
    return custom(lambda p: np.maximum(1.0 - groups.gauge(h1, p) ** 2 / r ** 2, 0.0) ** 2, r)


@pytest.mark.parametrize("sign", [1, -1])
def test_products_land_on_the_grid(sign):
    # the grid spans exactly the products' central range, so points from a
    # smaller ball than the nodes' need their own extent; the sample
    # buffer holds u at every product, and on H^1 each pair of columns
    # reads them from one row of its read-only window view (R^N buffers
    # hold the grid alone, with no window padding)
    for _, g, spec in BIN_CASES:
        h = spec.effective_h
        u = gaussian(g, 0.5)
        nodes = lattice_nodes(g, spec)[0]
        for R_eff in (None, 0.9):
            pts = sign * lattice_nodes(g, spec, R_eff=R_eff)[0]
            lat = product_lattice(g, pts, nodes, h)
            grid = grid_points(lat)
            at = flat_index(lat)
            assert 0 <= at.min() and at.max() < len(grid) < len(pts) * len(nodes)
            prod = groups.mul(g, pts[:, None, :], nodes[None, :, :])
            assert np.max(np.abs(grid[at] - prod)) <= 1e-14
            buf = lat.sample(u, lat.runs())
            got = buf[at]
            if g.law == groups.HEISENBERG1:
                windows = lat.windows(buf)
                assert not windows.flags.writeable
                rows = windows[lat.column_starts()[lat.pcol][:, lat.col], lat.s[:, None] + lat.m]
                assert np.array_equal(rows, got)
            want = u(prod)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["read_only", "broadcast"])
@pytest.mark.parametrize("law", ["R1", "H1"])
def test_read_only_samples_take_the_fast_path(backends, translate_paths, law, kind):
    # u's arrays are copied into the sample buffer, and samples within eps
    # of the largest are set to zero there: a read-only array with a
    # subnormal tail, or a constant broadcast with stride 0, is never
    # written to
    _, g, spec = BIN_CASES[0 if law == "R1" else 2]
    h, tiny = spec.effective_h, np.finfo(float).tiny
    zs, dist, _ = lattice_nodes(g, spec)
    lat = product_lattice(g, zs, zs, h)
    # exp(-720) is subnormal: u reaches it at the farthest product of a
    # point and a node, which the sampler evaluates
    c = 720.0 / np.max(np.sum(grid_points(lat)[np.unique(flat_index(lat))] ** 2, axis=-1))
    returned = []

    def fn(p):
        if kind == "broadcast":
            v = np.broadcast_to(np.float64(1.0), p.shape[:-1])
        else:
            v = np.exp(-c * np.sum(p * p, axis=-1))
            v.setflags(write=False)
        returned.append(v)
        return v

    u = custom(fn, 10.0)
    args = (translate_sums, g, u, zs, zs, dist ** -0.5, h)
    fast = backends.run(True, *args)
    assert translate_paths["finite_samples"] == 0
    assert (translate_paths["_column_correlations"] > 0) == (law == "H1")
    if kind == "read_only":
        assert any(np.any((v != 0) & (np.abs(v) < tiny)) for v in returned)
        buf = lat.sample(u, lat.runs())
        assert not np.any((buf != 0) & (np.abs(buf) <= np.finfo(float).eps * np.max(np.abs(buf))))
    backends.close(fast, backends.run(False, *args))


def seen_samples(g, lat, u):
    """Flat grid indices of the points u sees while ``lat.sample`` runs, and its buffer."""
    seen = []

    def spy(p):
        seen.append(p.reshape(-1, g.dimension).copy())
        return u(p)

    buf = lat.sample(custom(spy, 10.0), lat.runs())
    p = np.concatenate(seen)
    index = [np.searchsorted(axis, p[:, i]) for i, axis in enumerate(lat.axes)]
    for i, axis in enumerate(lat.axes):
        assert np.array_equal(axis[np.minimum(index[i], len(axis) - 1)], p[:, i])
    return np.ravel_multi_index(index, lat.shape), buf


@pytest.mark.parametrize("points", ["nodes", "sub_ball"])
@pytest.mark.parametrize("name,g,spec", BIN_CASES[1:], ids=BIN_IDS[1:])
def test_sample_evaluates_every_product_once(name, g, spec, points):
    # u sees every product of a point and a node, each grid sample at most
    # once, and the buffer holds u there; the samples no pair reaches stay zero
    h = spec.effective_h
    nodes = lattice_nodes(g, spec)[0]
    pts = nodes if points == "nodes" else lattice_nodes(g, spec, R_eff=0.9)[0]
    lat = product_lattice(g, pts, nodes, h)
    u = gaussian(g, 0.5)
    seen, buf = seen_samples(g, lat, u)
    assert len(np.unique(seen)) == len(seen) < math.prod(lat.shape)
    at = np.unique(flat_index(lat))
    assert np.all(np.isin(at, seen))
    grid = buf[: math.prod(lat.shape)]
    want = u(grid_points(lat)[at])
    want[np.abs(want) <= np.finfo(float).eps * np.max(np.abs(want))] = 0.0
    assert np.array_equal(grid[at], want)
    assert not np.any(np.delete(grid, seen))


def test_sample_sees_under_a_third_of_the_h1_adams_box(h1):
    # the h1_adams t = 1 lattice, every node a point: the products fill
    # 26.8% of the box, and u is evaluated on no more than 30% of it
    spec = QuadratureSpec(R_max=6.529, lattice_h=0.75)
    nodes = lattice_nodes(h1, spec)[0]
    lat = product_lattice(h1, nodes, nodes, spec.effective_h)
    seen, _ = seen_samples(h1, lat, gaussian(h1, 0.5))
    assert len(seen) <= 0.3 * math.prod(lat.shape), len(seen) / math.prod(lat.shape)


class CountedRows:
    """A window view that counts the rows gathered from it by index arrays."""

    def __init__(self, windows):
        self.windows, self.shape, self.rows = windows, windows.shape, 0

    def __len__(self):
        return len(self.windows)

    def __getitem__(self, key):
        if isinstance(key, np.ndarray):
            self.rows += key.size
        return self.windows[key]


def test_column_correlations_skip_pairs_without_a_nonzero_sample(backends, h1):
    # u vanishes beyond gauge 0.35, so most column pairs read only zeros:
    # they are not transformed, and the sums still agree with the direct
    # loop; u = 0 transforms no row and gives exact zeros
    h = 0.25
    zs, dist, _ = lattice_nodes(h1, QuadratureSpec(1.5, h))
    w = dist ** -2.5
    lat = product_lattice(h1, zs, zs, h)
    wf = quadrature._translate_plan(h1, lat, w)[2]
    pairs = len(lat.Lp) * len(lat.Lc)
    bump = gauge_ball_bump(h1, 0.35)
    windows = CountedRows(lat.windows(lat.sample(bump, lat.runs())))
    sums = quadrature._column_correlations(lat, windows, wf)
    assert 0 < windows.rows < pairs
    assert np.array_equal(sums, backends.agree(translate_sums, h1, bump, zs, zs, w, h))
    zero = custom(lambda p: np.zeros(p.shape[:-1]), 1.0)
    windows = CountedRows(lat.windows(lat.sample(zero, lat.runs())))
    sums = quadrature._column_correlations(lat, windows, wf)
    assert windows.rows == 0
    assert not np.any(sums) and not np.any(translate_sums(h1, zero, zs, zs, w, h))


def test_translate_sums_hold_one_sample_grid(translate_paths, h1):
    # the h1_adams t = 1 spec at K = 36,032: u is sampled into one buffer
    # and the column windows are read from it in place, so the fast path
    # allocates less than two grid-sized float arrays at its peak
    spec = QuadratureSpec(R_max=6.529, lattice_h=0.5)
    h = spec.effective_h
    zs, dist, _ = lattice_nodes(h1, spec)
    w, u = dist ** -2.5, gaussian(h1, 0.5)
    grid = 8 * math.prod(product_lattice(h1, zs, zs, h).shape)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        translate_sums(h1, u, zs, zs, w, h)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert translate_paths["_column_correlations"] == 1
    assert peak < 2 * grid, peak / grid


def test_all_node_ball_totals_memory_ceiling(h1):
    # the h1_adams t = 1 lattice, every node a centre (K = 7,120): point
    # columns go in blocks and prefix windows in gathers of _PAIR_BUDGET
    # values, so the call allocates 8.6 MB at its peak (9.8 MB as the
    # first call of a fresh process).  14 MB is a present-state ceiling
    # that no block size may outgrow unnoticed, not a target
    spec = QuadratureSpec(R_max=6.529, lattice_h=0.75)
    u = gaussian(h1, 0.5)
    nodes = lattice_nodes(h1, spec)[0]
    radii, w = radius_grid(spec, u.decay_radius), u(nodes)
    assert len(nodes) == 7120
    clear_plans()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ball_totals(h1, nodes, radii, w, lattice_key(spec))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 14e6, peak / 1e6


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_h1_riesz_matches_direct(backends, h1, t):
    u = dilated(h1, gaussian(h1, 0.25), t)
    nodes = lattice_nodes(h1, H1_SPEC)[0]
    backends.agree(operators.riesz_values, h1, 1.5, u, nodes, H1_SPEC)


def test_h1_full_ball_matches_direct(backends, h1):
    nodes = lattice_nodes(h1, H1_SPEC)[0]
    backends.agree(operators.riesz_values, h1, 1.0, gaussian(h1, 0.3), nodes, H1_SPEC)


@pytest.mark.parametrize("r_lo,r_hi", [(0.0, 0.6), (0.6, None)])
def test_h1_band_matches_direct(backends, h1, r_lo, r_hi):
    # the Riesz kernel's weights at gamma 1 on the gauge band [r_lo, r_hi)
    nodes, dist, _ = lattice_nodes(h1, H1_SPEC)
    weights, _ = quadrature._shell_weights_cached(h1, 1.0 - h1.Q, quadrature.resolve_R(H1_SPEC), H1_SPEC.lattice_h)
    band = np.where((dist >= r_lo) & (dist < (np.inf if r_hi is None else r_hi)), weights, 0.0)
    assert 0 < np.count_nonzero(band) < np.count_nonzero(weights)
    backends.agree(translate_sums, h1, gaussian(h1, 0.3), nodes, nodes, band, H1_SPEC.effective_h)


def test_h1_riesz_matches_direct_where_caps_drop_nodes(backends, h1):
    # u vanishes beyond gauge 0.3, inside R_max for the points nearest the
    # identity: most of their terms are zero samples, which both paths sum
    spec = QuadratureSpec(R_max=2.0, lattice_h=0.3)
    u = gauge_ball_bump(h1, 0.3)
    pts = lattice_nodes(h1, spec, R_eff=1.2)[0]
    backends.agree(operators.riesz_values, h1, 1.5, u, pts, spec)


def test_h1_gather_matches_direct_under_caps_shorter_than_a_column(backends, h1):
    # nodes on the four central columns and u supported in the gauge ball
    # of radius 0.5: for the points nearest the identity u vanishes at most
    # slots of the longest node column
    zs, dist, _ = lattice_nodes(h1, QuadratureSpec(4.0, 0.3))
    thin = np.max(np.abs(zs[:, :2]), axis=1) < 0.3
    zs, dist = zs[thin], dist[thin]
    pts = lattice_nodes(h1, QuadratureSpec(R_max=3.0, lattice_h=0.3), R_eff=1.2)[0]
    u = gauge_ball_bump(h1, 0.5)
    backends.agree(translate_sums, h1, u, pts, zs, dist ** -2.5, 0.3)


@pytest.mark.parametrize("case", ["shuffled", "gaps", "one_column", "capped"])
def test_h1_column_correlations_match_direct(backends, h1, case):
    # shuffled: point and node order are free; gaps: every third node in
    # gauge order leaves holes inside point columns; one_column: a single
    # point column; capped: u vanishes beyond gauge 0.35, so most samples
    # are zero
    h = 0.25
    zs, dist, _ = lattice_nodes(h1, QuadratureSpec(1.5, h))
    w, pts = dist ** -2.5, zs
    u = custom(lambda p: np.exp(-np.sum(p * p, axis=-1)), 10.0)
    lat = product_lattice(h1, zs, zs, h)
    if case == "shuffled":
        rng = np.random.default_rng(3)
        order = rng.permutation(len(zs))
        zs, dist, w = zs[order], dist[order], w[order]
        pts = zs[rng.permutation(len(zs))]
    elif case == "gaps":
        pts = zs[::3]
        lat = product_lattice(h1, pts, zs, h)
        last = np.zeros(lat.pcol.max() + 1, np.intp)
        np.maximum.at(last, lat.pcol, lat.s)
        assert np.any(np.bincount(lat.pcol) < last + 1)
    elif case == "one_column":
        pts = zs[lat.pcol == np.argmax(np.bincount(lat.pcol))]
        assert product_lattice(h1, pts, zs, h).pcol.max() == 0
    else:
        u = gauge_ball_bump(h1, 0.35)
    backends.agree(translate_sums, h1, u, pts, zs, w, h)


def test_h1_node_subset_matches_direct(backends, h1):
    spec = QuadratureSpec(R_max=1.5, lattice_h=0.25)
    nodes = lattice_nodes(h1, spec, R_eff=0.8)[0]
    assert len(nodes) < len(lattice_nodes(h1, spec)[0])
    backends.agree(operators.riesz_values, h1, 2.0, gaussian(h1, 0.2), nodes, spec)


def test_off_lattice_and_single_points_take_the_direct_path(backends, h1):
    u = gaussian(h1, 0.3)
    nodes = lattice_nodes(h1, H1_SPEC)[0]
    radii = radius_grid(H1_SPEC, u.decay_radius)
    off = nodes[::7] + np.array([0.0, 0.0, 0.3 * H1_SPEC.effective_h ** 2])
    for pts in (off, nodes[3]):
        for fn, args in [(operators.riesz_values, (1.5, u, pts, H1_SPEC)),
                         (operators.frac_maximal_values, (0.0, u, pts, radii, H1_SPEC))]:
            shipped = fn(h1, *args)
            assert np.array_equal(shipped, backends.run(False, fn, h1, *args))
    assert product_lattice(h1, off, nodes, H1_SPEC.effective_h) is None
    assert product_lattice(h1, nodes[3:4], nodes, H1_SPEC.effective_h) is None
    assert product_lattice(h1, nodes[:0], nodes, H1_SPEC.effective_h) is None


@pytest.mark.parametrize("law", ["R1", "H1"])
def test_finite_grids_take_the_fast_path(backends, translate_paths, law):
    # the R^N FFT runs inline, the H^1 sums in _column_correlations; neither
    # scans samples the way the direct loop does
    g = groups.euclidean_group(1) if law == "R1" else groups.heisenberg_group()
    spec = QuadratureSpec(R_max=3.0, lattice_h=0.05) if law == "R1" else H1_SPEC
    backends.run(True, operators.riesz_values, g, 0.5, gaussian(g, 0.3), lattice_nodes(g, spec)[0], spec)
    assert translate_paths["finite_samples"] == 0
    assert (translate_paths["_column_correlations"] > 0) == (law == "H1")


@pytest.mark.parametrize("fast", [True, False], ids=["gather", "direct"])
def test_h1_non_finite_sample_raises(backends, translate_paths, h1, fast):
    # x z = 0 for z = x^{-1} = -x: the singularity of the truncated power
    u = power_truncated(h1, 1.0, 1.0)
    nodes = lattice_nodes(h1, H1_SPEC)[0]
    with pytest.raises(IntegrandError, match=r"non-finite integrand at node \[0\.0, 0\.0, 0\.0\]"):
        backends.run(fast, operators.riesz_values, h1, 1.5, u, nodes, H1_SPEC)
    # a non-finite grid sample sends the sums to the direct loop
    assert translate_paths["_column_correlations"] == 0 < translate_paths["finite_samples"]


def test_h1_unreached_non_finite_sample_is_dropped(backends, translate_paths, h1):
    # weights that vanish on gauge(z) <= 1.0 never reach y = 0 (z = x^{-1})
    # from points with |x| < 0.9, though the grid holds it: the direct loop
    # runs and drops it
    u = power_truncated(h1, 1.0, 1.0)
    pts = lattice_nodes(h1, H1_SPEC, R_eff=0.9)[0]
    zs, dist, _ = lattice_nodes(h1, H1_SPEC)
    grid = grid_points(product_lattice(h1, pts, zs, H1_SPEC.effective_h))
    assert not np.all(np.isfinite(u(grid)))
    args = (translate_sums, h1, u, pts, zs, np.where(dist > 1.0, dist ** -2.0, 0.0), H1_SPEC.effective_h)
    backends.run(True, *args)
    assert translate_paths["_column_correlations"] == 0 < translate_paths["finite_samples"]
    backends.agree(*args)


def test_h1_non_finite_sample_reached_as_in_direct(backends, h1):
    # u is NaN at one product y0 = x0 z0 of two nodes far out on the first
    # axis, which few pairs reach: a random subset of points and a random
    # half of the weights decide whether any point reaches it through a
    # nonzero weight; both paths must raise on the same draws and give the
    # same sums on the others
    zs, dist, _ = lattice_nodes(h1, QuadratureSpec(2.0, 0.4))
    far = zs[np.argsort(zs[:, 0])[-30:]]
    outcomes = set()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        pts = zs[np.sort(rng.choice(len(zs), 150, replace=False))]
        w = np.where(rng.random(len(zs)) < 0.5, dist ** -2.5, 0.0)
        y0 = groups.mul(h1, far[rng.integers(30)], far[rng.integers(30)])
        u = custom(lambda p, y0=y0: np.where(np.all(np.abs(p - y0) < 1e-9, axis=-1), np.nan,
                                             np.exp(-np.sum(p * p, axis=-1))), 10.0)
        args = (translate_sums, h1, u, pts, zs, w, 0.4)
        try:
            direct = backends.run(False, *args)
        except IntegrandError:
            with pytest.raises(IntegrandError, match="non-finite integrand at node"):
                backends.run(True, *args)
            outcomes.add("raised")
        else:
            assert np.all(np.isfinite(direct))
            backends.agree(*args)
            outcomes.add("summed")
    assert outcomes == {"raised", "summed"}


@pytest.mark.parametrize("law", ["R1", "H1"])
def test_direct_loop_sums_every_node(backends, law):
    # u declares a decay radius far below its support, so no node may be
    # left out on the strength of it: off the lattice the loop equals the
    # sum over every node term by term, and on it the fast path agrees
    g = groups.euclidean_group(1) if law == "R1" else groups.heisenberg_group()
    spec = QuadratureSpec(R_max=3.0, lattice_h=0.05) if law == "R1" else H1_SPEC
    h = spec.effective_h
    u = custom(gaussian(g, 1.0).fn, 0.05)
    zs = lattice_nodes(g, spec)[0]
    w = groups.gauge(g, zs) ** -0.5
    near = zs[groups.gauge(g, zs) < 1.0]
    off = near + 0.3 * h ** np.array(g.weights)
    assert product_lattice(g, off, zs, h) is None
    want = np.array([np.sum(w * u(groups.mul(g, x, zs))) for x in off])
    backends.close(translate_sums(g, u, off, zs, w, h), want)
    backends.agree(translate_sums, g, u, lattice_nodes(g, spec, R_eff=1.0)[0], zs, w, h)


@pytest.mark.parametrize("name,g,spec", BIN_CASES, ids=BIN_IDS)
def test_repeated_nodes_add_on_the_fast_path(backends, name, g, spec):
    # a node listed twice, with its own weight each time, adds both terms:
    # the fast path fills the grid or the node columns by accumulation,
    # as the direct loop sums every node
    zs = lattice_nodes(g, spec)[0]
    nodes = np.concatenate([zs, zs[::3], zs[::7]])
    w = np.random.default_rng(5).uniform(0.5, 1.5, len(nodes))
    u = gaussian(g, 0.3)
    backends.agree(translate_sums, g, u, zs[::2], nodes, w, spec.effective_h)


def pair_totals(bins, n_radii, weights):
    """Counts and sums of ``weights`` over every ball, pair by pair: a pair lies in ball j iff its bin is <= j."""
    inside = [bins <= j for j in range(n_radii)]
    return (np.stack([np.count_nonzero(b, axis=1) for b in inside], axis=1),
            np.stack([b @ weights for b in inside], axis=1))


def check_ball_totals(backends, g, spec, centers, radii, u=None):
    """Ball counts over the nodes of ``spec`` from the runs equal the direct bins' bit for bit, sums of u agree.

    u defaults to a Gaussian of width 0.3.  Some pairs have a gauge within
    1e-12 of a radius, so the per-pair rule is tested.
    """
    nodes = lattice_nodes(g, spec)[0]
    w = (gaussian(g, 0.3) if u is None else u)(nodes)
    d = groups.gauge(g, groups.mul(g, -centers[:, None, :], nodes[None, :, :]))
    assert np.any(np.searchsorted(radii, d * (1 - 1e-12)) < np.searchsorted(radii, d * (1 + 1e-12)))
    cnt, tot = backends.run(True, ball_totals, g, centers, radii, w, lattice_key(spec))
    want_cnt, want_tot = pair_totals(ball_bins(g, nodes, centers, radii), len(radii), w)
    assert np.array_equal(cnt, want_cnt)
    backends.close(tot, want_tot)


@pytest.mark.parametrize("name,g,spec", BIN_CASES, ids=BIN_IDS)
def test_ball_runs_bound_direct_bins(backends, name, g, spec):
    # every pair at a sample of the run of ball j lies in it, every pair at
    # a sample outside the run and not a near-tie of radius j lies outside
    # it, and near-ties exist: they are binned pair by pair
    nodes = lattice_nodes(g, spec)[0]
    lat = product_lattice(g, -nodes, nodes, spec.effective_h)
    scale = float(np.max(groups.gauge(g, nodes)))
    # the pair bins are one byte wide up to 126 radii and widen past that
    h = spec.effective_h
    short, long = radius_grid(spec, 1.5), geometric_radii(2.0 * h, 2.0 ** 33 * h)
    assert len(short) < 127 <= len(long)
    at = flat_index(lat).ravel()
    line, k = np.divmod(at, lat.shape[-1])
    for radii, dtype in [(short, np.int8), (long, np.int16)]:
        bins = ball_bins(g, nodes, nodes, radii)
        assert bins.dtype == dtype
        bins = bins.ravel()
        klo, khi, ties, tie_j = _ball_runs(g, lat, radii, scale)
        assert np.all(np.diff(ties) >= 0)
        tied = 0
        for j in range(len(radii)):
            inside = (klo[line, j] <= k) & (k < khi[line, j])
            near = np.isin(at, ties[tie_j == j])
            assert not np.any(inside & near)
            assert np.all(bins[inside] <= j) and np.all(bins[~inside & ~near] > j)
            tied += np.count_nonzero(near)
        assert tied > 0
        check_ball_totals(backends, g, spec, nodes, radii)


@pytest.mark.parametrize("name,g,spec", BIN_CASES + [
    ("R3", groups.euclidean_group(3), QuadratureSpec(R_max=1.5, lattice_h=0.2))], ids=BIN_IDS + ["R3"])
def test_pair_gauge_bins_equal_gauge_of_products(name, g, spec):
    # the coordinate-wise pair gauges and their bins equal gauge(mul(c^-1, z))
    # and its bins bit for bit, on- and off-lattice centres alike; on the
    # lattice some pair gauges equal a radius of the grid exactly
    nodes = lattice_nodes(g, spec)[0]
    radii = radius_grid(spec, 1.5)
    off = np.random.default_rng(3).uniform(-1.0, 1.0, (20, g.dimension))
    ties = []
    for centers in (nodes[::3], off):
        d = groups.gauge(g, groups.mul(g, -centers[:, None, :], nodes[None, :, :]))
        assert np.array_equal(quadrature._pair_gauges(g, centers.T[:, :, None], nodes.T), d)
        assert np.array_equal(ball_bins(g, nodes, centers, radii), np.searchsorted(radii, d, side="right"))
        ties.append(np.count_nonzero(np.isin(d, radii)))
    assert ties[0] > 0
    # the same kernel on gathered pairs, which the on-lattice ball totals
    # bin near each radius: random pairs, and every near-tie pair of one
    # _ball_runs call, whose products land on its tie samples
    def check_pairs(c, z):
        want = groups.gauge(g, groups.mul(g, -c, z))
        assert np.array_equal(quadrature._pair_gauges(g, c.T, z.T), want)
        return want

    i, k = np.random.default_rng(5).integers(len(nodes), size=(2, 5000))
    check_pairs(nodes[i], nodes[k])
    check_pairs(off[i % len(off)], nodes[k])
    lat = product_lattice(g, -nodes, nodes, spec.effective_h)
    L, M = int(lat.Lp.max()), int(lat.Lc.max())
    point_at, node_at = np.full(len(lat.Lp) * L, -1), np.full(len(lat.Lc) * M, -1)
    point_at[lat.pcol * L + lat.s] = np.arange(len(nodes))
    node_at[lat.col * M + lat.m] = np.arange(len(nodes))
    starts = lat.column_starts()
    tie_at = _ball_runs(g, lat, radii, float(np.max(groups.gauge(g, nodes))))[2]
    pairs = list(quadrature._near_tie_pairs(lat, starts, tie_at, point_at >= 0, node_at >= 0))
    p, n, at = (np.concatenate(a) for a in zip(*pairs))
    p, n = point_at[p], node_at[n]
    assert np.array_equal(starts[lat.pcol[p], lat.col[n]] + lat.step * (lat.s[p] + lat.m[n]), tie_at[at])
    assert len(check_pairs(nodes[p], nodes[n])) > 0


@pytest.mark.parametrize("name,g,spec", BIN_CASES, ids=BIN_IDS)
def test_on_lattice_ball_totals_sample_no_grid(monkeypatch, name, g, spec):
    # the runs come from the closed-form sections of each grid line, so no
    # grid point is built or sampled and no gauge is taken over the grid;
    # nor may the totals fall back to binning every pair
    def forbidden(*args, **kwargs):
        raise AssertionError("on-lattice ball totals sampled the grid or binned every pair")

    nodes = lattice_nodes(g, spec)[0]
    radii = radius_grid(spec, 1.5)
    w = gaussian(g, 0.3)(nodes)
    clear_plans()
    monkeypatch.setattr(quadrature.ProductLattice, "sample", forbidden)
    monkeypatch.setattr(quadrature, "ball_bins", forbidden)
    cnt, _ = ball_totals(g, nodes, radii, w, lattice_key(spec))
    monkeypatch.undo()
    assert np.array_equal(cnt, pair_totals(ball_bins(g, nodes, nodes, radii), len(radii), w)[0])


@pytest.mark.parametrize("name,g,spec", BIN_CASES, ids=BIN_IDS)
def test_maximal_values_bit_identical(backends, name, g, spec):
    # ball counts are bit-identical; the masses are prefix differences, so
    # the values agree with the direct bincounts to rounding
    u = gaussian(g, 0.3)
    nodes = lattice_nodes(g, spec)[0]
    radii = radius_grid(spec, u.decay_radius)
    check_ball_totals(backends, g, spec, nodes, radii)
    for alpha in (0.0, 0.3):
        backends.agree(operators.frac_maximal_values, g, alpha, u, nodes, radii, spec)


@pytest.mark.parametrize("case", ["gaps", "one_column", "repeats", "empty_columns"])
@pytest.mark.parametrize("name,g,spec", BIN_CASES, ids=BIN_IDS)
def test_ball_counts_equal_direct(backends, name, g, spec, case):
    # gaps: every fifth node as a centre leaves holes inside point columns;
    # one_column: the centres of the longest point column (on H^1 of a
    # finer lattice, whose grid holds fewer samples than the column has
    # pairs); repeats: centres that occur twice count twice;
    # empty_columns: every node as a centre, and u vanishes beyond 0.3 in
    # every coordinate but the last, so on whole node columns (R^1 has one
    # column, which keeps weight), which the mass gathers leave out.  A
    # lattice's node column fills its slots, with no hole or repeat
    if case == "one_column" and name == "H1":
        spec = QuadratureSpec(R_max=1.5, lattice_h=0.25)
    nodes = lattice_nodes(g, spec)[0]
    u = gaussian(g, 0.3)
    lat = product_lattice(g, -nodes, nodes, spec.effective_h)
    assert np.array_equal(lat.node_table(np.ones(len(nodes))), np.arange(lat.Lc.max()) < lat.Lc[:, None])
    if case == "gaps":
        centers = nodes[::5]
    elif case == "repeats":
        centers = np.concatenate([nodes[::5], nodes[::10]])
    elif case == "empty_columns":
        centers = nodes
        u = custom(lambda p: gaussian(g, 0.3)(p) * np.all(np.abs(p[..., :-1]) < 0.3, axis=-1), 10.0)
        held = np.any(product_lattice(g, -centers, nodes, spec.effective_h).node_table(u(nodes)) != 0, axis=1)
        assert np.any(held) and np.all(held) == (name == "R1")
    else:
        pcol = product_lattice(g, -nodes, nodes, spec.effective_h).pcol
        centers = nodes[pcol == np.argmax(np.bincount(pcol))]
        assert product_lattice(g, -centers, nodes, spec.effective_h).pcol.max() == 0
    check_ball_totals(backends, g, spec, centers, radius_grid(spec, 1.5), u)
    backends.agree(operators.frac_maximal_values, g, 0.3, u, centers,
                   radius_grid(spec, u.decay_radius), spec)


@pytest.mark.parametrize("order", ["lattice", "shuffled"])
@pytest.mark.parametrize("name,g,spec", BIN_CASES + [
    ("R3", groups.euclidean_group(3), QuadratureSpec(R_max=1.5, lattice_h=0.2))], ids=BIN_IDS + ["R3"])
def test_morrey_ball_runs_equal_pair_bins(name, g, spec, order):
    # the Morrey balls of a lattice's centre grid: the memoised runs cover
    # each row with bins equal to the pair bins, so the counts are the
    # per-pair counts exactly; the masses (``ball_masses``) and the pair
    # sums each lie within (nodes + runs + j) eps sum |w| of the exact
    # ones; the runs of shuffled nodes, the most runs, keep both
    nodes = lattice_nodes(g, spec)[0]
    centers, radii = nodes[::9], radius_grid(spec, 1.5)
    w = gaussian(g, 0.4)(nodes)
    if order == "lattice":
        runs = quadrature._lattice_bins(g, *lattice_key(spec), centers.tobytes(), radii.tobytes())
        got = quadrature.ball_masses(g, centers, radii, w, lattice_key(spec))
    else:
        perm = np.random.default_rng(4).permutation(len(nodes))
        nodes, w = nodes[perm], w[perm]
        runs = quadrature.bin_runs(ball_bins(g, nodes, centers, radii), len(radii))
        got = quadrature.ball_sums(runs, w)
    bins = ball_bins(g, nodes, centers, radii)
    n = len(radii)
    start = np.concatenate([[0], runs.end[:-1]])
    start[runs.first] = 0
    balls = np.arange(len(centers))[:, None] * (n + 1) + bins
    assert np.all(runs.end > start)
    assert np.array_equal(np.repeat(runs.ball, runs.end - start), balls.ravel())
    want_cnt, want_tot = pair_totals(bins, n, w)
    assert np.array_equal(quadrature.ball_sums(runs), want_cnt)
    per_ball = np.bincount(runs.ball, minlength=len(centers) * (n + 1)).reshape(len(centers), n + 1)
    bound = (want_cnt + np.cumsum(per_ball[:, :n], axis=1) + np.arange(1, n + 1)) * np.finfo(float).eps * w.sum()
    assert np.all(np.abs(got - want_tot) <= 2.0 * bound)


@pytest.mark.parametrize("name,g,spec", BIN_CASES, ids=BIN_IDS)
def test_on_lattice_centres_bin_no_pairs(monkeypatch, name, g, spec):
    # a silent fall-back to binning every pair would pass every agreement
    # test: on-lattice centres must take the runs, off-lattice ones the bins
    calls = []

    def counted(*args, real=quadrature.ball_bins):
        calls.append(len(args[2]))
        return real(*args)

    monkeypatch.setattr(quadrature, "ball_bins", counted)
    u = gaussian(g, 0.3)
    nodes = lattice_nodes(g, spec)[0]
    radii = radius_grid(spec, u.decay_radius)
    clear_plans()
    quadrature._lattice_bins.cache_clear()
    operators.frac_maximal_values(g, 0.0, u, nodes, radii, spec)
    assert calls == []
    off = nodes[::7] + 0.3 * spec.effective_h
    operators.frac_maximal_values(g, 0.0, u, off, radii, spec)
    assert sum(calls) == len(off)


@pytest.mark.parametrize("name,g,spec", BIN_CASES, ids=BIN_IDS)
def test_off_lattice_centres_are_binned_once(monkeypatch, name, g, spec):
    # off-lattice centres read the pair bins memoised on the lattice key:
    # a second call at the same centres bins no pair, gives the same
    # values, and its ball counts are the per-pair counts
    u = gaussian(g, 0.3)
    nodes = lattice_nodes(g, spec)[0]
    radii = radius_grid(spec, u.decay_radius)
    off = nodes[::7] + 0.3 * spec.effective_h
    quadrature._lattice_bins.cache_clear()
    first = operators.frac_maximal_values(g, 0.0, u, off, radii, spec)
    calls = []

    def counted(*args, real=quadrature.ball_bins):
        calls.append(len(args[2]))
        return real(*args)

    monkeypatch.setattr(quadrature, "ball_bins", counted)
    assert np.array_equal(operators.frac_maximal_values(g, 0.0, u, off, radii, spec), first)
    cnt, _ = ball_totals(g, off, radii, u(nodes), lattice_key(spec))
    assert calls == []
    monkeypatch.undo()
    assert np.array_equal(cnt, pair_totals(ball_bins(g, nodes, off, radii), len(radii), u(nodes))[0])


def test_non_finite_weights_raise_on_both_paths(backends, g1):
    # the lattice cannot represent u with an infinite |u| at one node: the
    # runs and the pair bins both raise and name the node
    spec = QuadratureSpec(R_max=3.0, lattice_h=0.05)
    u = custom(lambda p: np.where(np.abs(p[..., 0] - 0.025) < 1e-9, np.inf,
                                  np.exp(-p[..., 0] ** 2)), 10.0)
    nodes = lattice_nodes(g1, spec)[0]
    for fast in (True, False):
        with pytest.raises(IntegrandError, match=r"non-finite integrand at node \[0\.025\]"):
            backends.run(fast, operators.frac_maximal_values, g1, 0.0, u, nodes, radius_grid(spec, 1.0), spec)


def test_pair_blocks_do_not_move_bits(backends, h1, monkeypatch):
    # shipped budget, then one column window, run or tie pair a block,
    # then tiles of 41 windows of 24 samples, then all of them in one: the
    # Riesz sums keep their bits; the maximal values sum their prefix
    # differences in another order, to rounding
    u = gaussian(h1, 0.3)
    nodes = lattice_nodes(h1, H1_SPEC)[0]
    radii = radius_grid(H1_SPEC, u.decay_radius)
    riesz = (1.5, u, nodes, H1_SPEC)
    maximal = (0.3, u, nodes, radii, H1_SPEC)
    want = operators.riesz_values(h1, *riesz), operators.frac_maximal_values(h1, *maximal)
    for budget in (1, 1000, len(nodes) ** 2):
        monkeypatch.setattr(quadrature, "_PAIR_BUDGET", budget)
        assert np.array_equal(operators.riesz_values(h1, *riesz), want[0])
        backends.close(operators.frac_maximal_values(h1, *maximal), want[1])


def test_sweep_records_where_each_supremum_sat(g1):
    u = gaussian(g1, 1.0)
    spec = QuadratureSpec(R_max=8.0, lattice_h=0.05)
    cfg = harness.admissible("adams_hls", Q=1, p=1.5, gamma=0.4, lam=0.2)
    # radii far inside the Gaussian: every ball sum still grows at r_max
    short = harness.MorreyGrids(centers=np.zeros((1, 1)), radii=np.array([0.1, 0.2, 0.4]))
    full = harness.sweep_grids(g1, spec, u, 0.1, 1.0)
    for grids, edge in [(short, True), (full, False)]:
        rec = harness.dilation_sweep(g1, cfg, u, (0.1, 1.0), grids, spec)
        assert len(rec.suprema) == 2
        for sups in rec.suprema:
            assert [s["op"] for s in sups] == ["riesz", "id"]
            for s in sups:
                assert s["truncation_note"] == edge
                assert s["truncation_note"] == (s["argmax_radius"] == grids.radii[-1])
                assert len(s["argmax_center"]) == 1


def test_report_records_carry_the_suprema():
    doc = {
        "group": {"law": "euclidean", "dimension": 1},
        "quadrature": {"R_max": 8.0, "lattice_h": 0.05},
        "battery": [{"kind": "gauss_tensor", "width": 0.5}],
        "t_values": [0.5, 1.0, 5.0],
        "theorems": [{"theorem": "adams_hls", "p": 1.5, "gamma": 0.4, "lambda": 0.2}],
    }
    (rec,) = run_experiment(doc)["records"]
    assert len(rec["suprema"]) == 3
    for sups in rec["suprema"]:
        assert [s["op"] for s in sups] == ["riesz", "id"]
        assert set(sups[0]) == {"op", "argmax_center", "argmax_radius", "truncation_note"}
