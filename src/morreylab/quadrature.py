"""Discretisation engine shared by all operator evaluations.

Every integral runs over the midpoint nodes of one anisotropic lattice
inside the truncated ball {gauge <= R_max} (``lattice_nodes``):
coordinate i uses spacing ``h**w_i``, so the lattice respects the group
dilations.  Singular radial weights come from the shells of
``_shell_edges`` around the centre, whose radii halve from R_max down to
the spacing h: each shell carries its exact radial mass, spread over its
nodes in proportion to their midpoint weights (``_spread``).
``_shell_weights_cached`` weighs the kernel d^a, a in (-Q, 0), this way
and closes the region below h in closed form through u at the centre
(the Riesz potential's kernel); ``gauge_power_weights`` gives the masses
of gauge(y)^a dy.

Batch sums over one shared node set go through ``translate_sums``.  When
the points lie on the node lattice, every product x z lands on one
``product_lattice`` grid, sampled once into one buffer at the products
some pair reaches, with the samples within eps of the largest set to
zero; the sums then run as a lattice correlation (one FFT, each axis
zero-padded to a 5-smooth length) on Euclidean laws and, on H^1, as one
short correlation (an FFT along the central axis) per pair of point and
node columns whose products hold a nonzero sample, read in place, when
every sample is finite.  Both take their transform lengths from
``_fft_length``.  Other points, and grids with a non-finite sample at a
reached product, take the direct point-by-node loop, which decides
which non-finite samples are reached.
Every path sums every node.  The ball engines, ``ball_totals`` (the
maximal operator) and ``ball_masses`` (the Morrey supremum), sum over
the nodes of one lattice, which its key (g, R, h) alone names.  Ball
counts and masses (``ball_totals``) at on-lattice centres are read at
the ends of the runs of grid samples inside each ball, which the gauge
ball's closed-form section cuts from each grid line: masses as
differences of prefix sums over node columns, counts in closed form from
each column's count prefix clip(y, 0, Lc).  Other centres bin every
centre-node pair once (``ball_bins``, one coordinate at a time) and keep
the table as its runs of equal bin along each row (``bin_runs``, 8 bytes
a run), memoised per lattice key, centres and radii (``_lattice_bins``),
so each centre grid of a lattice is binned once.  The Morrey supremum
sums its samples over the same runs (``ball_masses``): a call reads one
prefix sum of the samples at every run's end and bincounts the
differences into balls (``ball_sums``).  ``lattice_orbits`` gives one
node per orbit of the lattice under ``groups.symmetries``, on every law,
for inputs that the maps leave invariant.  What ``translate_sums`` and
``ball_totals`` read of the points, nodes, kernel or radii alone is a
plan, built once per run: the product lattice (``_lattice_cached``), its
sample runs and the kernel's conjugate transform
(``_translate_plan_cached``), and the ball sections, exact counts and
near-tie memberships (``_ball_plan_cached``), each keyed on the lattice
(g, R, h) of the nodes and the bytes of the points and radii, so every
kernel on a lattice shares its product lattice; a call then pays only
for u.

Integrands are vectorised: they receive an ``(..., N)`` array of points and
return an ``(...)`` array of values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import groups
from .errors import DomainError, IntegrandError, ShapeError


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncation radius and lattice spacing.

    ``lattice_h`` is the spacing at the weight-1 scale; coordinate i of a
    group uses ``lattice_h**w_i``.
    """

    R_max: float
    lattice_h: float

    def __post_init__(self):
        if not (math.inf > self.R_max > self.lattice_h > 0):
            raise DomainError("need a finite R_max > lattice_h > 0")

    @property
    def effective_h(self) -> float:
        """``lattice_h``, kept as an alias because ``bench/tracer.py`` reads it."""
        return self.lattice_h

    def refined(self, levels: int = 1) -> "QuadratureSpec":
        """The spec with ``lattice_h`` halved ``levels`` times (exact in binary)."""
        return replace(self, lattice_h=self.lattice_h / 2.0 ** levels)


@lru_cache(maxsize=32)
def _nodes_cached(g: groups.GroupDescriptor, R: float, h: float):
    """Midpoint nodes of the anisotropic lattice inside {gauge <= R}."""
    axes = [
        groups._midpoint_axis(groups.coord_bound(g, i, R), h ** w)
        for i, w in enumerate(g.weights)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([gr.ravel() for gr in grids], axis=-1)
    dist = groups.gauge(g, pts)
    keep = dist <= R
    pts = pts[keep]
    dist = dist[keep]
    cell = math.prod(h ** w for w in g.weights)
    pts.setflags(write=False)
    dist.setflags(write=False)
    return pts, dist, cell


def resolve_R(spec: QuadratureSpec, R_eff: float | None = None) -> float:
    R = spec.R_max if R_eff is None else min(R_eff, spec.R_max)
    return round(float(R), 12)


def lattice_key(spec: QuadratureSpec, R_eff: float | None = None):
    """(R, h) of the lattice that ``lattice_nodes(g, spec, R_eff)`` returns: with g, its ``_nodes_cached`` key."""
    return resolve_R(spec, R_eff), spec.lattice_h


def lattice_nodes(g: groups.GroupDescriptor, spec: QuadratureSpec, R_eff: float | None = None):
    """Nodes, gauge distances from 0 and cell volume for the truncated ball."""
    return _nodes_cached(g, *lattice_key(spec, R_eff))


@lru_cache(maxsize=32)
def _orbits_cached(g: groups.GroupDescriptor, R: float, h: float):
    """The orbits of ``_nodes_cached(g, R, h)`` under ``groups.symmetries(g)``, on every law.

    Returns read-only ``(rep, inverse)`` of ``groups.orbit_classes``:
    ``rep`` holds the first node of each orbit, in node order, and
    ``nodes[rep][inverse]`` maps every node to its orbit's first.  Node
    coordinate i sits at an odd multiple of h^w_i / 2, whose integer
    ``rint(2 z_i / h^w_i)`` codes it exactly.
    """
    zs = _nodes_cached(g, R, h)[0]
    spacing = np.array([h ** w for w in g.weights])
    rep, inverse = groups.orbit_classes(g, np.rint(zs * (2.0 / spacing)).astype(np.int64))
    rep.setflags(write=False)
    inverse.setflags(write=False)
    return rep, inverse


def lattice_orbits(g: groups.GroupDescriptor, spec: QuadratureSpec, R_eff: float | None = None):
    """``_orbits_cached`` for the nodes of ``lattice_nodes(g, spec, R_eff)``.

    Every map of ``groups.symmetries(g)`` maps the truncated midpoint
    lattice onto itself node for node, so an operator that commutes with
    them, applied to an input they leave invariant, takes one value per
    orbit.
    """
    return _orbits_cached(g, *lattice_key(spec, R_eff))


def _shell_edges(R_max: float, h: float):
    """Shell edges halving from R_max down to the spacing h.

    edges[0] = R_max, decreasing; the region below edges[-1] is closed form.
    """
    k_max = max(1, int(math.ceil(math.log(h / R_max) / math.log(0.5))))
    return R_max * 0.5 ** np.arange(k_max + 1)


# one entry per lattice, as ``_nodes_cached``: the shell weights of every
# exponent on a lattice share its shell indices, held in the narrowest type
@lru_cache(maxsize=32)
def _shells(g, R, h):
    """``_nodes_cached``' gauges and cell, the ``_shell_edges``, each node's shell (the last below them) and sigma."""
    _, dist, cell = _nodes_cached(g, R, h)
    edges = _shell_edges(R, h)
    idx = np.clip(np.searchsorted(-edges, -dist, side="right") - 1, 0, len(edges) - 2)
    idx = idx.astype(_bin_dtype(len(edges)))
    edges.setflags(write=False)
    idx.setflags(write=False)
    sigma = groups.sphere_measure(g, h)
    return dist, cell, edges, idx, sigma


def _spread(kern, idx, exact):
    """``kern`` scaled so that each shell's nodes carry its ``exact`` mass (read-only); shells without kern."""
    denom = np.bincount(idx, weights=kern, minlength=len(exact))
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(denom > 0, exact / np.where(denom > 0, denom, 1.0), 0.0)
    w = kern * scale[idx]
    w.setflags(write=False)
    return w, denom == 0


@lru_cache(maxsize=64)
def _shell_weights_cached(g, a, R_max, h):
    """Per-node quadrature weights for the kernel d^a on the truncated ball.

    Returns the weights of ``_nodes_cached``' nodes (in its order) and the
    u(centre)-coefficient ``c0``.  Every shell around the centre carries
    its exact radial kernel mass, distributed over its nodes
    proportionally to the raw midpoint weights; the innermost region (and
    any shell too thin to hold a node) contributes through ``c0``, which
    is therefore never zero.
    """
    dist, cell, edges, idx, sigma = _shells(g, R_max, h)
    r_stop = float(edges[-1])
    aQ = a + g.Q
    kern = np.where(dist >= r_stop, dist ** a * cell, 0.0)
    exact = sigma * (edges[:-1] ** aQ - edges[1:] ** aQ) / aQ
    weights, empty = _spread(kern, idx, exact)
    # shells with no nodes (below lattice resolution) and the innermost
    # region use u(centre) against the exact kernel mass
    c0 = float(np.sum(exact[empty])) + sigma * r_stop ** aQ / aQ
    return weights, c0


@lru_cache(maxsize=64)
def gauge_power_weights(g, a, R, h):
    """Per-node masses for the measure gauge(y)^a dy on the truncated ball.

    Valid for any a > -Q, including singular negative powers: the shells
    of ``_shell_edges`` around the origin carry their exact radial mass
    (the deepest populated shell absorbs everything below it), distributed
    over their nodes proportionally to midpoint weights (``_spread``).
    Node order matches ``lattice_nodes``.
    """
    if a <= -g.Q:
        raise DomainError(f"weight exponent {a} <= -Q is not integrable")
    dist, cell, edges, idx, sigma = _shells(g, R, h)
    aQ = a + g.Q
    exact = sigma * (edges[:-1] ** aQ - edges[1:] ** aQ) / aQ
    # the deepest shell with a node (each has kern > 0) takes all below it, incl. the disc
    deepest = idx.max(initial=0)
    exact[deepest] = sigma * edges[deepest] ** aQ / aQ
    exact[deepest + 1 :] = 0.0
    return _spread(dist ** a * cell, idx, exact)[0]


# the one size of every blocked temporary, counted in items: pairs per
# block of the pair bins and of the direct translate sums, column pairs per
# block of ``ProductLattice.runs``, samples per span of runs and per block
# of grid lines of ``ProductLattice.sample``, window samples per tile of
# the H^1 column correlations and (over 16) the column pairs per block of
# their search for pairs to read, and in the on-lattice ball totals the
# float prefix values per gather, the int32 slot bounds of a block of point
# columns and (over 16) the near-tie pairs per block.  A float64 array of
# 2^17 items is 1 MB, whatever the lattice size; a block of near-tie pairs,
# or of column pairs searched, holds about ten arrays of 64 KB at once
_PAIR_BUDGET = 1 << 17


def _blocks(n, per):
    """Slices that cover range(n), ``_PAIR_BUDGET`` // ``per`` items each (at least one)."""
    size = max(1, _PAIR_BUDGET // max(1, per))
    return [slice(start, start + size) for start in range(0, n, size)]


def _bin_dtype(n_radii):
    """The narrowest signed integer type that holds ``n_radii``: that of the pair bins and of the shell indices."""
    return next(t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).max > n_radii)


def _pair_gauges(g: groups.GroupDescriptor, c, z) -> np.ndarray:
    """gauge(c^{-1} z) of every (centre, node) pair the planes ``c`` and ``z`` pair up.

    ``c`` and ``z`` hold the centres' and the nodes' coordinates as N
    planes each, and plane i of ``c`` broadcasts against plane i of ``z``:
    (centres, 1) against (nodes,) rows for a table of every pair,
    equal shapes for gathered pairs.  The gauges are built one coordinate
    at a time, in place in planes of the broadcast shape, with the
    operations of ``groups.gauge(groups.mul(g, -c, z))`` in their order, so
    every value equals it bit for bit: on R^N the squares of z_i - c_i
    summed in axis order, on H^1 the symmetric law's central term
    z_2 - c_2 + (c_1 z_0 - c_0 z_1) / 2.
    """
    acc = z[0] - c[0]
    acc *= acc
    plane = np.empty_like(acc)
    if g.law == groups.HEISENBERG1:
        np.subtract(z[1], c[1], out=plane)
        plane *= plane
        acc += plane
        cross = c[1] * z[0]
        cross -= np.multiply(c[0], z[1], out=plane)
        cross *= 0.5
        np.subtract(z[2], c[2], out=plane)
        plane += cross
        plane *= plane
        plane *= 16.0
        acc *= acc
        acc += plane
        return np.power(acc, 0.25, out=acc)
    for i in range(1, g.dimension):
        np.subtract(z[i], c[i], out=plane)
        plane *= plane
        acc += plane
    return np.sqrt(acc, out=acc)


def ball_bins(g: groups.GroupDescriptor, nodes, centers, radii) -> np.ndarray:
    """Bin of every (centre, node) pair: a (centres, nodes) table.

    Row i holds, for each node z, the index j of the first radius r_j
    such that z lies in the left-translated ball {z : gauge(c_i^{-1} z) <
    r_j}; j = len(radii) marks nodes outside every ball.  ``radii`` must
    be non-decreasing.  The table takes ``_bin_dtype`` and is filled
    ``_PAIR_BUDGET`` pairs at a time from ``_pair_gauges``.
    """
    centers = groups.as_points(g, centers).reshape(-1, g.dimension)
    nodes = groups.as_points(g, nodes).reshape(-1, g.dimension)
    coords = np.ascontiguousarray(nodes.T)
    bins = np.empty((len(centers), len(nodes)), _bin_dtype(len(radii)))
    for sl in _blocks(len(centers), len(nodes)):
        bins[sl] = np.searchsorted(radii, _pair_gauges(g, centers[sl].T[:, :, None], coords), side="right")
    return bins


@dataclass(frozen=True)
class BinRuns:
    """The runs of equal bin along each row of a ``ball_bins`` table (``bin_runs``).

    Rows follow each other, and the runs ``first`` are the first of each
    row (none when there are no nodes): they start at node 0, every other
    run at the end of the one before, and ``end`` holds the node past each
    run's last.  ``ball`` is row * (n_radii + 1) + the run's bin.  Both
    are ``int32`` up to 2**31 nodes and balls, so a run takes 8 bytes.
    """

    end: np.ndarray
    ball: np.ndarray
    first: np.ndarray
    n_centers: int
    n_radii: int


def bin_runs(bins: np.ndarray, n_radii: int) -> BinRuns:
    """``BinRuns`` of a ``ball_bins`` table over ``n_radii`` radii."""
    n_centers, width = bins.shape
    width = max(width, 1)  # a table without nodes has no runs
    flat = bins.ravel()
    # the last pair of each run: its bin differs from the next one's, or it ends a row
    last = np.empty(flat.size, bool)
    np.not_equal(flat[1:], flat[:-1], out=last[:-1])
    last[width - 1 :: width] = True
    at = np.flatnonzero(last)
    row, end = np.divmod(at, width)
    ball = row * (n_radii + 1) + flat[at]
    first = np.flatnonzero(np.diff(row, prepend=-1))
    dtype = np.int32 if max(width, n_centers * (n_radii + 1)) <= np.iinfo(np.int32).max else np.intp
    return BinRuns((end + 1).astype(dtype), ball.astype(dtype), first, n_centers, n_radii)


def ball_sums(runs: BinRuns, weights=None) -> np.ndarray:
    """Per-ball totals from ``bin_runs``: shape (n_centers, n_radii).

    Node counts when ``weights`` is None, otherwise sums of ``weights``
    over each ball: one weight per node.  One prefix sum of the weights is
    read at every run's end; each run adds the difference from the run
    before it (its length, for counts) to the first ball that holds it,
    and the cumulative sum over radii fills the larger balls.  Counts are
    exact.  A run's difference misses its exact sum only by the roundings
    of the prefix along the run and of the difference, so the sum of ball
    j is off by at most about (its nodes + its runs + j) eps sum |w|,
    absolute, the sums over runs and radii included.  The weights must be
    finite: one that is not would reach every prefix past it.
    """
    end, first = runs.end, runs.first
    at_end = end if weights is None else np.concatenate([[0.0], np.cumsum(weights)]).take(end)
    per_run = np.empty_like(at_end)
    np.subtract(at_end[1:], at_end[:-1], out=per_run[1:])
    per_run[first] = at_end[first]
    per_ball = np.bincount(runs.ball, per_run, minlength=runs.n_centers * (runs.n_radii + 1))
    per_ball = per_ball.reshape(runs.n_centers, runs.n_radii + 1)[:, : runs.n_radii]
    # bincount gives floats for integer weights, and integers for no runs at all
    return np.cumsum(per_ball.astype(np.intp if weights is None else float, copy=False), axis=1)


@lru_cache(maxsize=32)
def _lattice_bins(g, R: float, h: float, centers: bytes, radii: bytes) -> BinRuns:
    """Read-only ``bin_runs`` of the nodes of ``_nodes_cached(g, R, h)``.

    Keyed on the lattice, not on its nodes: the key is (g, R, h) and the
    bytes of the centres and radii, so a lookup hashes no node-sized
    array.  The ``ball_bins`` table is built and dropped here; its runs
    take 8 bytes each, and neighbouring nodes mostly share their bin, so
    a table of C centres and K nodes keeps 0.06-0.2 C K runs.  The Morrey
    supremum (``ball_masses``) and the maximal operator at centres off
    the lattice (``ball_totals``) read it.  One pass of a bench workload
    asks for at most 26 distinct tables, about 0.9 MB in all on
    ``euclid_consequences`` at seeds 0 and 3, whose centres the harness
    reduces to one per symmetry orbit.
    """
    nodes = _nodes_cached(g, R, h)[0]
    radii = np.frombuffer(radii)
    runs = bin_runs(ball_bins(g, nodes, np.frombuffer(centers).reshape(-1, g.dimension), radii), len(radii))
    for a in (runs.end, runs.ball, runs.first):
        a.setflags(write=False)
    return runs


def _node_weights(g, weights, lattice):
    """``weights`` as a new float array, one per node of the ``lattice_key`` ``lattice``.

    ShapeError naming the lattice when the count differs from its node
    count; IntegrandError naming the node of a non-finite weight.
    """
    nodes = _nodes_cached(g, *lattice)[0]
    weights = np.array(weights, dtype=float)
    if weights.shape != nodes.shape[:1]:
        raise ShapeError(f"{weights.shape} weights, but the lattice {lattice} holds {len(nodes)} nodes")
    return finite_samples(weights, nodes, True)


def ball_masses(g: groups.GroupDescriptor, centers, radii, weights, lattice):
    """Sums of ``weights`` over every ball of the nodes of a lattice: (n_centers, n_radii).

    ``lattice`` is the ``lattice_key`` (R, h) of the nodes, and ``weights``
    holds one value per node (``_node_weights``).  The ``bin_runs`` come
    from ``_lattice_bins``, so the Morrey supremum bins each centre grid
    of a lattice once for every set of samples, and each call costs one
    prefix sum and one ``bincount`` over the runs (``ball_sums``).
    """
    runs = _lattice_bins(g, *lattice, np.asarray(centers, dtype=float).tobytes(),
                         np.asarray(radii, dtype=float).tobytes())
    return ball_sums(runs, _node_weights(g, weights, lattice))


def ball_totals(g: groups.GroupDescriptor, centers, radii, weights, lattice):
    """Node counts and sums of ``weights`` over every ball of a lattice: two (n_centers, n_radii) arrays.

    Ball j of centre c is {z : gauge(c^{-1} z) < r_j}, as in ``ball_bins``,
    over the nodes of the ``lattice_key`` ``lattice`` with one weight per
    node (``_node_weights``); weights of |w| <= eps max |w| are zero on
    both paths (``_zero_negligible``).  Centres that ``product_lattice``
    accepts take the runs of the grid: the ``_ball_plan_cached`` of the
    centres and radii gives the counts, ``_lattice_ball_masses`` the
    sums, so each centre and radius grid of a lattice is planned once for
    every set of weights.  The other centres read the pair bins of
    ``_lattice_bins``, the memo of the Morrey supremum, for both totals.
    The counts of both paths are equal; the sums agree to rounding.  The
    counts may be the plan's own array: read-only.
    """
    weights = _node_weights(g, weights, lattice)
    weights = _zero_negligible(weights, np.max(np.abs(weights), initial=0.0))
    key = np.asarray(centers, dtype=float).tobytes(), np.asarray(radii, dtype=float).tobytes()
    plan = _ball_plan_cached(g, *lattice, *key)
    if plan is not None:
        return plan.counts, _lattice_ball_masses(plan, weights)
    runs = _lattice_bins(g, *lattice, *key)
    return ball_sums(runs), ball_sums(runs, weights)


def _spans(ends, size):
    """(i, j) bounds that split items with running totals ``ends`` into runs of about ``size``.

    The runs cover every item and none is empty; an item larger than
    ``size`` makes a run of its own.
    """
    size = max(1, size)
    if len(ends) and ends[-1] <= size:
        return [(0, len(ends))]
    cuts = np.searchsorted(ends, np.arange(size, ends[-1] if len(ends) else 0, size), side="right")
    bounds = np.unique(np.concatenate([[0], cuts, [len(ends)]]))
    return zip(bounds[:-1], bounds[1:])


def _ranges(lo, hi):
    """(i, v) for every v in [lo[i], hi[i]) over all i, in order."""
    n = hi - lo
    i = np.repeat(np.arange(len(n)), n)
    return i, np.arange(i.size) - np.repeat(np.cumsum(n) - n - lo, n)


def _ball_runs(g, lat: ProductLattice, radii, scale):
    """Runs of the samples of a ``ProductLattice`` inside each ball, and the samples near its radius.

    ``lat`` is ``product_lattice(g, -centers, nodes, h)`` and ``scale``
    bounds the gauge of every centre and node.  Ball j meets each line of
    the grid along its last axis t in |t| < half (``groups.column_half_width``).
    ``mul`` rounds a pair's product off its sample by at most 3 eps scale
    on a horizontal axis and 6 eps scale^2 on the H^1 centre, so through
    the gauge (|dd/dx| <= 1, |dd/dt| <= 2/d) and its own rounding the
    pair's gauge stays within 22 eps (1 + scale/d)^2 of the sample's d
    relative: below ``tol`` wherever d >= r_0/2.  So pairs at samples inside
    the section for r_j/(1 + tol) lie in ball j, and pairs at samples outside
    the one for r_j/(1 - tol) do not.  Returns the inner sections as runs
    [klo, khi) of last indices, two (lines, radii) arrays, and the samples
    between the sections (every exact lattice distance on the radius grid
    is one) as sorted flat grid indices, with the radius index of each.
    """
    tol = 128.0 * np.finfo(float).eps * (1.0 + scale / radii[0]) ** 2
    heads, t = lat.heads()[:, None, :], lat.axes[-1]

    def cut(r):
        half = groups.column_half_width(g, heads, r)
        lo = np.searchsorted(t, -half, side="right")
        # an empty section leaves an empty run at lo
        return lo, np.maximum(np.searchsorted(t, half), lo)

    klo, khi = cut(radii / (1.0 + tol))
    olo, ohi = cut(radii / (1.0 - tol))
    # the samples in [olo, klo) and [khi, ohi) of each line, per radius
    at, k = _ranges(np.ravel([olo, khi]), np.ravel([klo, ohi]))
    line, j = np.divmod(at % klo.size, len(radii))
    ties = line * t.size + k
    order = np.argsort(ties, kind="stable")
    return klo, khi, ties[order], j[order]


@dataclass(frozen=True, eq=False)
class BallPlan:
    """What ``ball_totals`` reads of on-lattice centres, nodes and radii alone (``_ball_plan``).

    ``lat`` is ``product_lattice(g, -centers, nodes, h)`` and ``klo``,
    ``khi`` the inner sections of ``_ball_runs``.  Ball j holds the slots
    [A, B) of node column c at point column p (``_slot_bound``): none of
    them below radius ``first_hit[p, c]``, the whole column at every
    point slot from radius ``first_full[p, c]`` on, a partial row between.
    ``counts`` is the exact node count of every ball, (centres, radii).
    The near-tie pairs that lie in their ball are kept as their flat
    cells of the (point column, radius, reversed point slot) table of
    ``_lattice_ball_masses``, ``tie_cell``, and their flat node slots of
    ``lat.node_table``, ``tie_slot``, in the order ``_near_tie_pairs``
    yields them.  Every array is read-only.
    """

    lat: ProductLattice
    klo: np.ndarray
    khi: np.ndarray
    first_hit: np.ndarray
    first_full: np.ndarray
    counts: np.ndarray
    tie_cell: np.ndarray
    tie_slot: np.ndarray


# sized as ``_lattice_cached`` is: 2, in default_r1 (its four radius grids)
@lru_cache(maxsize=3)
def _ball_plan_cached(g, R: float, h: float, centers: bytes, radii: bytes):
    """``_ball_plan`` at the centres and radii with these bytes, over the nodes of ``_nodes_cached(g, R, h)``.

    Keyed as ``_lattice_bins`` is: the lattice by (g, R, h), the centres
    and radii by their bytes.  Its ``ProductLattice`` comes from
    ``_lattice_cached``.  None when ``product_lattice`` is.
    """
    centers = np.frombuffer(centers).reshape(-1, g.dimension)
    lat = _lattice_cached(g, R, h, (-centers).tobytes())
    return None if lat is None else _ball_plan(g, lat, centers, _nodes_cached(g, R, h)[0], np.frombuffer(radii))


def _slot_bound(k0, cut, shift, top, out=None):
    """The least slot sum of a column pair at or past last index ``cut``, clipped to [0, ``top``].

    Slot s of a point column meets slot m of a node column at last index
    k0 + step (s + m) on one line, ``k0`` the pair's column start and
    step = 2^``shift``, so ball j holds the node slots m in [A - s, B - s),
    A and B the bounds at ``klo`` and ``khi``; ``top`` is max Lp + max Lc -
    1.  Elementwise over broadcast int arrays, in place in ``out`` when
    given.
    """
    out = np.subtract(k0, cut, out=out)
    out >>= shift
    np.negative(out, out=out)
    return np.clip(out, 0, top, out=out)


def _ball_plan(g, lat: ProductLattice, centers, nodes, radii) -> BallPlan:
    """The ``BallPlan`` of on-lattice ``centers``, from runs of the grid.

    ``lat`` is ``product_lattice(g, -centers, nodes, h)``.  The samples
    surely inside ball j form one run [klo, khi) of last indices per line
    of the grid along its last axis (``_ball_runs``).  Point columns go in
    blocks whose int32 slot bounds A and B (``_slot_bound``) hold
    ``_PAIR_BUDGET`` values.  A (node column, radius) that holds the whole
    column at every slot of a point column adds the column's count there;
    one that holds none of it adds nothing; every other one is a partial
    row.  The runs grow with the radius, so each kind of row holds one
    range of radii, whose ends the plan keeps.

    Counts.  A node column of a lattice fills its slots [0, Lc), so its
    count prefix over slots is n(y) = clip(y, 0, Lc), with two kinks: dk
    = +1 at slot k = 0 and -1 at k = Lc.  So over the point slots s < L a
    partial row adds n(B - L) - n(A - L) and the ramps dk min(max(y - k -
    s, 0), L - s) for y = B (and minus those for y = A): each ramp is one
    coefficient in a histogram of L + 1 bins per (point column, radius),
    and two running sums over its bins give the count at every slot.  The
    counts are exact.

    A pair at a near-tie sample of radius j joins ball j alone when its
    own gauge (``_pair_gauges``) is below r_j, as in ``ball_bins``: the runs
    leave it out.  The plan keeps where those pairs add.
    """
    n = len(radii)
    scale = max(np.max(groups.gauge(g, centers)), np.max(groups.gauge(g, nodes)))
    klo, khi, ties, tie_j = _ball_runs(g, lat, radii, scale)
    klo, khi = klo.astype(np.int32), khi.astype(np.int32)
    starts = lat.column_starts()
    Lp, Lc = lat.Lp, lat.Lc
    P, C, L, M = len(Lp), len(Lc), int(Lp.max()), int(Lc.max())
    shift = int(lat.step).bit_length() - 1
    # the two kinks of each column, at L + k: +1 at slot 0, -1 at slot Lc
    kpos, dk = np.stack([np.full(C, L), L + Lc]), np.array([[1.0], [-1.0]])

    count = np.empty((P, n, L))
    first_hit, first_full = np.empty((2, P, C), _bin_dtype(n))
    for pb in _blocks(P, 2 * n * C):
        # slot bounds in (point column, radius, node column) order, int32
        line, k0 = np.divmod(starts[pb], lat.shape[-1])
        A, B = np.empty((2, len(line), n, C), np.int32)
        for bound, cut in ((A, klo), (B, khi)):
            _slot_bound(k0[:, None].astype(np.int32), cut[line].transpose(0, 2, 1), shift, M + L - 1, bound)
        full = (A == 0) & (B >= (Lp[pb, None] + Lc - 1).astype(np.int32)[:, None])
        hit = B > A
        first_hit[pb], first_full[pb] = n - hit.sum(axis=1), n - full.sum(axis=1)
        flat = np.flatnonzero(hit & ~full)
        row, c = np.divmod(flat, C)
        b, a = B.ravel()[flat], A.ravel()[flat]
        rows = full.reshape(-1, C) @ Lc.astype(float)
        # each ramp at bin L - y + k of the reversed slot order, clipped
        # to [0, L]; bin L reaches no slot
        at = np.take(kpos, c, axis=1) - np.stack([b, a])[:, None]
        np.clip(at, 0, L, out=at)
        at += row * (L + 1)
        ramp = np.broadcast_to(np.stack([dk, -dk]), at.shape)
        hist = np.bincount(at.ravel(), ramp.ravel(), len(rows) * (L + 1))
        blk = count[pb].reshape(-1, L)
        np.cumsum(hist.reshape(-1, L + 1)[:, :L], axis=1, out=blk)
        np.cumsum(blk, axis=1, out=blk)
        edge = np.bincount(row, np.clip(b - L, 0, Lc[c]) - np.clip(a - L, 0, Lc[c]), len(rows))
        blk += (rows + edge)[:, None]

    # near-tie pairs, from the coordinates at every point and node slot
    slot = lat.pcol * L + lat.s
    c_at, z_at = np.zeros((g.dimension, P * L)), np.zeros((g.dimension, C * M))
    c_at[:, slot], z_at[:, lat.col * M + lat.m] = centers.T, nodes.T
    filled = np.zeros(P * L, bool)
    filled[slot] = True
    cells, slots = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for ps, ns, tie in _near_tie_pairs(lat, starts, ties, filled, (np.arange(M) < Lc[:, None]).ravel()):
        j = tie_j[tie]
        keep = _pair_gauges(g, c_at.take(ps, axis=1), z_at.take(ns, axis=1)) < radii[j]
        pc, s = np.divmod(ps[keep], L)
        cells.append((pc * n + j[keep]) * L + L - 1 - s)
        slots.append(ns[keep])
        np.add.at(count.reshape(-1), cells[-1], 1.0)
    plan = BallPlan(lat, klo, khi, first_hit, first_full, count[lat.pcol, :, L - 1 - lat.s],
                    np.concatenate(cells), np.concatenate(slots))
    for a in vars(plan).values():
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return plan


def _lattice_ball_masses(plan: BallPlan, weights):
    """The sums of ``weights`` over every ball of a ``BallPlan``: (centres, radii).

    A full row adds its node column's total (one real matrix product per
    block of point columns), a partial row the difference of the node
    column's prefix sums of the weights over slots: two float windows of
    the padded prefix array, one value per point slot, gathered
    ``_PAIR_BUDGET`` values at a time and summed over node columns.  Node
    columns whose weights are all zero (``ball_totals`` zeroes the
    negligible ones) are left out of the partial rows: their differences
    are exact zeros.  Only the slot bounds of the partial rows read are
    taken.  The near-tie pairs in their ball then add their weights at
    their cells, in the plan's order.  A mass's absolute error is at most
    about Lc eps times the total of each node column it draws on, Lc that
    column's slots.
    """
    lat, klo, khi = plan.lat, plan.klo, plan.khi
    n = klo.shape[1]
    P, C, L, M = len(lat.Lp), len(lat.Lc), int(lat.Lp.max()), int(lat.Lc.max())
    shift = int(lat.step).bit_length() - 1
    w_slots = lat.node_table(weights)
    # prefix sums over node slots, with zeros before them and the totals
    # after, so that slot sums past either end of a column read its first
    # or last prefix: pre[c, L - 1 + y] holds the weights of column c below
    # slot y
    pre = np.zeros((C, M + 2 * L - 1))
    np.cumsum(w_slots, axis=1, out=pre[:, L : L + M])
    pre[:, L + M :] = pre[:, L + M - 1, None]
    win = np.lib.stride_tricks.sliding_window_view(pre, L, axis=1)
    # a partial row of a node column without weight adds no mass
    heavy = np.flatnonzero(np.any(w_slots != 0.0, axis=1))
    starts = lat.column_starts()
    # of the first radii's type: a comparison that casts costs 10 times more
    radius = np.arange(n, dtype=plan.first_full.dtype)[:, None]
    mass = np.empty((P, n, L))
    for pb in _blocks(P, 2 * n * C):
        full = radius >= plan.first_full[pb, None]
        rows = full.reshape(-1, C) @ pre[:, -1]
        hit, whole = plan.first_hit[pb][:, None, heavy], plan.first_full[pb][:, None, heavy]
        row, c = np.divmod(np.flatnonzero((radius >= hit) & (radius < whole)), len(heavy))
        c = heavy[c]
        pc, r = np.divmod(row, n)
        line, k0 = np.divmod(starts[pc + pb.start, c], lat.shape[-1])
        b, a = (_slot_bound(k0, cut[line, r], shift, M + L - 1) for cut in (khi, klo))
        # gathered in runs of whole (point column, radius) rows
        size = np.bincount(row, minlength=len(rows))
        used = np.flatnonzero(size)
        end = np.cumsum(size[used])
        blk = mass[pb].reshape(-1, L)
        blk[:] = rows[:, None]
        first = end - size[used]
        for i, j in _spans(end, _PAIR_BUDGET // L):
            sl = slice(first[i], end[j - 1])
            diff = win[c[sl], b[sl]]
            diff -= win[c[sl], a[sl]]
            # reduceat costs about a row's length per group, so single rows skip it
            blk[used[i:j]] += diff if j - i == len(diff) else np.add.reduceat(diff, first[i:j] - first[i], axis=0)
    np.add.at(mass.reshape(-1), plan.tie_cell, w_slots.take(plan.tie_slot))
    return mass[lat.pcol, :, L - 1 - lat.s]


def _near_tie_pairs(lat: ProductLattice, starts, ties, point_filled, node_filled):
    """(point slot, node slot, position in ``ties``) of the pairs at the samples ``ties``.

    ``starts`` is ``lat.column_starts()`` and ``ties`` holds sorted flat
    grid indices.  Point slot s of column p is p * max Lp + s, node slot m
    of column c is c * max Lc + m, and ``point_filled`` and
    ``node_filled`` tell which slots hold a point or a node; pairs with an
    empty slot are left out.  The samples are found in the window of each
    pair of columns on a line that holds one, and their pairs are yielded
    in blocks of about ``_PAIR_BUDGET / 16``.
    """
    Lp, Lc, width = lat.Lp, lat.Lc, lat.shape[-1]
    L, M = int(Lp.max()), int(Lc.max())
    tied = np.zeros(math.prod(lat.shape[:-1]), bool)
    tied[ties // width] = True
    pair = np.flatnonzero(tied[starts.ravel() // width])
    pc, nc = np.divmod(pair, len(Lc))
    f0 = starts.ravel()[pair]
    last = f0 + lat.step * (Lp[pc] + Lc[nc] - 2)
    at, t = _ranges(np.searchsorted(ties, f0), np.searchsorted(ties, last, side="right"))
    w, r = np.divmod(ties[t] - f0[at], lat.step)
    at, t, w = at[r == 0], t[r == 0], w[r == 0]
    pc, nc = pc[at], nc[at]
    # point slot s of pc meets node slot w - s of nc: the two slots sum to ``sums``
    s_lo = pc * L + np.maximum(0, w - Lc[nc] + 1)
    s_hi = pc * L + np.minimum(Lp[pc], w + 1)
    sums = pc * L + nc * M + w
    for i, j in _spans(np.cumsum(s_hi - s_lo), _PAIR_BUDGET // 16):
        e, ps = _ranges(s_lo[i:j], s_hi[i:j])
        e += i
        ns = sums[e] - ps
        keep = point_filled[ps] & node_filled[ns]
        yield ps[keep], ns[keep], t[e[keep]]


def finite_samples(vals, pts, reached):
    """``vals`` with unreached non-finite samples set to zero.

    A non-finite sample where ``reached`` holds (a node that carries
    quadrature weight) raises IntegrandError naming the node in ``pts``.
    This is the one rule for non-finite samples: every engine sends its
    samples and weights here, and nothing else raises IntegrandError.
    """
    bad = ~np.isfinite(vals)
    if not np.any(bad):
        return vals
    hit = bad & reached
    if np.any(hit):
        raise IntegrandError(f"non-finite integrand at node {pts[hit][0].tolist()}")
    return np.where(bad, 0.0, vals)


def _zero_negligible(vals, top):
    """``vals`` with every value of |v| <= eps top set to zero, in place; eps = ``np.finfo(float).eps``.

    ``top`` is the largest |v| of the whole set ``vals`` belongs to.  A
    zeroed value moves no weighted sum over the set by more than eps top
    times the sum of |w| over its terms: the rounding class of those sums,
    which are accurate relative to their largest terms.  The engines skip
    the work that reads zeros alone.
    """
    vals[np.abs(vals) <= np.finfo(float).eps * top] = 0.0
    return vals


def _lattice_index(pts, spacing):
    """Integer i with pts == (i + 1/2) * spacing exactly, or None off the lattice.

    ``spacing`` holds h**w_i per coordinate.  Exact equality (the nodes of
    ``lattice_nodes`` pass it) keeps every product x z within rounding of
    the ``product_lattice`` sample it is mapped to.
    """
    i = np.rint(pts / spacing - 0.5).astype(np.int64)
    return i if np.array_equal((i + 0.5) * spacing, pts) else None


@dataclass(frozen=True, eq=False)
class ProductLattice:
    """The grid on which the products x z of points and nodes land.

    ``axes`` holds the sample coordinates along each axis, so the grid
    has shape S = ``shape``; ``heads`` gives the coordinates of its lines
    along the last axis, and ``runs`` the samples some product reaches.
    Points and nodes fall into columns:
    the members of one column share every lattice index but the last.
    Node n sits at slot ``m[n]`` of node column ``col[n]``, and point p at
    slot ``s[p]`` of point column ``pcol[p]``; node column c spans
    ``Lc[c]`` slots and point column p ``Lp[p]``, from the least to the
    greatest last index in it.
    Slot s of point column p times slot m of node column c sits at flat
    grid index ``Pc[p] + Zc[c] + Ac[p] @ Bc[c] + step * (s + m)``: the
    bilinear twist ``Ac @ Bc`` (empty on R^N) is constant along a column,
    so the products of one pair of columns land ``step`` apart (4 on H^1,
    1 on R^N) from the pair's ``column_starts``, as one row of ``windows``.
    """

    axes: tuple
    Pc: np.ndarray
    Ac: np.ndarray
    Zc: np.ndarray
    Bc: np.ndarray
    col: np.ndarray
    m: np.ndarray
    pcol: np.ndarray
    s: np.ndarray
    Lc: np.ndarray
    Lp: np.ndarray
    step: int

    @property
    def shape(self):
        return tuple(len(a) for a in self.axes)

    def heads(self, rows=slice(None)):
        """Every coordinate but the last of ``rows`` of the lines along the last axis: (n, N - 1)."""
        shape = self.shape
        line = np.arange(math.prod(shape[:-1]))[rows]
        out = np.empty((len(line), len(shape) - 1))
        for i in reversed(range(len(shape) - 1)):
            line, k = np.divmod(line, shape[i])
            out[:, i] = self.axes[i][k]
        return out

    def node_table(self, values):
        """``values``, one per node, summed at each (node column, slot): (columns, max Lc).

        Repeated nodes add, in node order; slots that hold no node are zero.
        """
        M = int(self.Lc.max())
        return np.bincount(self.col * M + self.m, values, len(self.Lc) * M).reshape(-1, M)

    @property
    def padding(self):
        """Zeros after the grid in ``sample``'s buffer.

        On H^1 (step 4), enough that every row of ``windows`` runs the
        ``_fft_length`` of the longest column pair's products; none on R^N
        (step 1), whose correlation transforms the grid alone.
        """
        if self.step == 1:
            return 0
        return self.step * (_fft_length(int(self.Lc.max() + self.Lp.max()) - 1) - 1)

    def runs(self):
        """The samples some pair of columns reaches, as runs ``step`` apart: first flat index, length and line head of each.

        The products of a pair of columns lie ``step`` apart on one grid
        line from the pair's column start, so each (grid line, residue of
        the last index mod ``step``) that a pair reaches holds one run,
        from the least column start of its pairs to the greatest last
        product; ``heads`` gives every coordinate of its line but the
        last.  A run can hold a sample no pair reaches between two that
        some pairs do: on the h1_adams t = 1 lattice the runs hold 26.82%
        of the box, the reached samples 26.79%.
        """
        n, step = self.shape[-1], self.step
        first = np.full(math.prod(self.shape[:-1]) * step, np.iinfo(np.intp).max)
        end = np.full(len(first), -1)
        for pb in _blocks(len(self.Lp), len(self.Lc)):
            at = self.column_starts(pb)
            key = at // n * step + at % n % step
            np.minimum.at(first, key, at)
            np.maximum.at(end, key, at + (self.Lp[pb, None] + self.Lc - 2) * step)
        held = np.flatnonzero(end >= 0)
        first = first[held]
        return first, (end[held] - first) // step + 1, self.heads(first // n)

    def _sample_runs(self, u, buf, first, count, heads):
        """u into ``buf`` at the runs ``first``, ``count`` on lines with ``heads``: the largest |u|, or None if one is not finite.

        One span of ``sample``; its arrays go before the next span's are made.
        """
        # sample v of run r sits at flat index first[r] + step v
        at = np.arange(count.sum()) * self.step
        at += np.repeat(first - self.step * (np.cumsum(count) - count), count)
        pts = np.empty((len(at), len(self.shape)))
        pts[:, :-1] = np.repeat(heads, count, axis=0)
        pts[:, -1] = self.axes[-1].take(at % self.shape[-1])
        vals = u(pts)
        if not np.all(np.isfinite(vals)):
            return None
        buf[at] = vals
        return float(np.max(np.abs(vals)))

    def sample(self, u, runs):
        """u at the samples of ``runs``, in a zero buffer laid out for ``windows``; None if one is not finite.

        ``runs`` is what ``runs()`` returns.  The buffer holds the grid in
        flat order, then ``padding`` zeros.  u sees only the samples some
        pair of columns reaches, in blocks of whole runs of about
        ``_PAIR_BUDGET`` samples, so the grid's points are never all held
        at once; the rest of the grid stays zero, and no kept sum reads
        it.  Samples with |u| <= eps max |u| (``_zero_negligible``) are
        then set to zero, a block of grid lines at a time: each moves no
        sum by more than eps max |u| sum |w|, the rounding every sum of the
        samples carries, and ``_column_correlations`` skips the pairs whose
        products are all zero.
        """
        first, count, heads = runs
        size, n = math.prod(self.shape), self.shape[-1]
        buf = np.zeros(size + self.padding)
        top = 0.0
        for i, j in _spans(np.cumsum(count), _PAIR_BUDGET):
            span_top = self._sample_runs(u, buf, first[i:j], count[i:j], heads[i:j])
            if span_top is None:
                return None
            top = max(top, span_top)
        lines = buf[:size].reshape(-1, n)
        for sl in _blocks(len(lines), n):
            _zero_negligible(lines[sl], top)
        return buf

    def windows(self, buf):
        """Every column-pair window of ``sample``'s buffer: a read-only view.

        Row f reads samples ``step`` apart from flat index f on, as many as
        the padding allows, so row ``column_starts()[p, c]`` starts with the
        products of point column p with node column c.
        """
        reach = len(buf) - math.prod(self.shape) + 1
        return np.lib.stride_tricks.sliding_window_view(buf, reach)[:, :: self.step]

    def column_starts(self, rows=slice(None)):
        """Flat grid index of slot 0 of the point columns ``rows`` times slot 0 of every node column."""
        return self.Pc[rows, None] + self.Zc + self.Ac[rows] @ self.Bc.T


def _columns(idx, k, M):
    """Columns of the lattice index rows ``idx``: rows sharing all but the last index.

    Returns the column of each row, the least and greatest ``k`` in each
    column, and each column's row of ``M`` (constant along a column).
    """
    key = np.zeros(len(idx), np.intp)
    for c in (idx[:, :-1] - idx[:, :-1].min(axis=0)).T:
        key = key * (c.max() + 1) + c
    # columns numbered in key order without a sort: the keys span a small range
    present = np.zeros(key.max() + 1, bool)
    present[key] = True
    col = (np.cumsum(present) - 1)[key]
    n = int(col.max()) + 1
    lo, hi, Mc = np.full(n, k.max()), np.full(n, k.min()), np.empty((n, M.shape[1]), np.intp)
    np.minimum.at(lo, col, k)
    np.maximum.at(hi, col, k)
    Mc[col] = M
    return col, lo, hi, Mc


def product_lattice(g: groups.GroupDescriptor, points, nodes, h):
    """The ``ProductLattice`` of on-lattice points and nodes, or None.

    Coordinate i of a midpoint node is (j_i + 1/2) h**w_i.  A horizontal
    (weight-1) coordinate of x z sits at (i + j + 1) h.  On H^1 the
    central one sits at k h^2/4 with k = 4(i_2 + j_2 + 1) + 2 X x Z, where
    X = (i_0 + 1/2, i_1 + 1/2), Z likewise, and
    2 X x Z = 2(i_0 j_1 - i_1 j_0) + (i_0 - i_1) + (j_1 - j_0): everything
    but the bilinear term splits into a point part and a node part.  The
    grid spans exactly the least to the greatest k over all pairs: only
    the extreme k of each point column meets the extreme k of each node
    column.  A node's or a point's slot counts the steps of its last
    index from the least one in its column.  None when a point or node is off
    the lattice, or when the grid would hold at least as many samples as
    there are point-node pairs (single points, far-apart points): the
    caller's direct loop runs then.
    """
    spacing = np.array([h ** w for w in g.weights])
    ix, iz = _lattice_index(points, spacing), _lattice_index(nodes, spacing)
    if len(points) == 0 or len(nodes) == 0 or ix is None or iz is None:
        return None
    kx, kz = ix.copy(), iz + 1
    A, B, step = ix[:, :0], iz[:, :0], 1
    if g.law == groups.HEISENBERG1:
        spacing[2] /= 4.0
        kx[:, 2] = 4 * ix[:, 2] + ix[:, 0] - ix[:, 1]
        kz[:, 2] = 4 * (iz[:, 2] + 1) + iz[:, 1] - iz[:, 0]
        A, B, step = 2 * ix[:, :2] * [1, -1], iz[:, [1, 0]], 4
    col, blo, bhi, Bc = _columns(iz, kz[:, -1], B)
    xlo = kx.min(axis=0)
    lo, hi = xlo + kz.min(axis=0), kx.max(axis=0) + kz.max(axis=0)
    pcol, alo, ahi, Ac = _columns(ix, kx[:, -1], A)
    s = (kx[:, -1] - alo[pcol]) // step
    if g.law == groups.HEISENBERG1:
        twist = Ac @ Bc.T
        lo[2], hi[2] = np.min(alo[:, None] + blo + twist), np.max(ahi[:, None] + bhi + twist)
    shape = tuple(int(v) for v in hi - lo + 1)
    if math.prod(shape) >= len(points) * len(nodes):
        return None
    axes = [(k + np.arange(n)) * s for k, n, s in zip(lo, shape, spacing)]
    # row-major strides; the central axis is the last, so the twist adds
    # to the flat index with stride 1
    stride = np.cumprod((shape[1:] + (1,))[::-1])[::-1]
    m = (kz[:, -1] - blo[col]) // step
    Pc, Zc = np.empty(len(Ac), np.intp), np.empty(len(Bc), np.intp)
    Pc[pcol] = (kx - xlo) @ stride - step * s
    Zc[col] = (kz - lo + xlo) @ stride - step * m
    return ProductLattice(
        axes=tuple(axes),
        Pc=Pc,
        Ac=Ac,
        Zc=Zc,
        Bc=Bc,
        col=col,
        m=m,
        pcol=pcol,
        s=s,
        Lc=(bhi - blo) // step + 1,
        Lp=(ahi - alo) // step + 1,
        step=step,
    )


# each plan memo is sized from the longest reuse distance of the bench
# passes (seeds 0 and 3): the distinct keys looked up between two uses of
# one, plus one.  Product lattices: 4, in euclid_consequences
@lru_cache(maxsize=5)
def _lattice_cached(g, R: float, h: float, points: bytes):
    """Read-only ``product_lattice`` of the points with these bytes and the nodes of ``_nodes_cached(g, R, h)``.

    Keyed as ``_lattice_bins`` is: a lookup hashes the points but no node
    array.
    """
    lat = product_lattice(g, np.frombuffer(points).reshape(-1, g.dimension), _nodes_cached(g, R, h)[0], h)
    for a in () if lat is None else vars(lat).values():
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return lat


# 3, in default_r1 at seed 3 (its four kernels)
@lru_cache(maxsize=4)
def _translate_plan_cached(g, R: float, h: float, weights_key, points: bytes):
    """``_translate_plan`` of ``_lattice_cached(g, R, h, points)`` and the weights of ``weights_key``.

    ``weights_key`` is the memo key ``(memo, args)`` whose
    ``memo(*args)[0]`` are the weights of the nodes of
    ``_nodes_cached(g, R, h)``.
    """
    memo, args = weights_key
    return _translate_plan(g, _lattice_cached(g, R, h, points), memo(*args)[0])


def _translate_plan(g, lat, weights):
    """What ``translate_sums`` reads of its points, nodes and weights alone; None without a lattice.

    ``(lat, lat.runs(), the conjugate transform of the node weights)``:
    on R^N the weights laid out on the grid (node n at flat index
    Zc[col[n]] + m[n]; repeated nodes add), transformed with each axis
    zero-padded to ``_fft_length``; on H^1 each node column's weights
    over its slots (``node_table``), transformed at the length of a row of
    ``windows``.  The arrays are read-only.
    """
    if lat is None:
        return None
    if g.law == groups.EUCLIDEAN:
        shape = lat.shape
        dense = np.bincount(lat.Zc[lat.col] + lat.m, weights, minlength=math.prod(shape)).reshape(shape)
        wf = np.conj(np.fft.rfftn(dense, tuple(_fft_length(n) for n in shape), range(len(shape))))
    else:
        wf = np.conj(np.fft.rfft(lat.node_table(weights), lat.padding // lat.step + 1))
    runs = lat.runs()
    for a in runs + (wf,):
        a.setflags(write=False)
    return lat, runs, wf


def translate_sums(g: groups.GroupDescriptor, u, points, nodes, weights, h, source=None):
    """S(x) = sum_z w(z) u(x z) at every point x, over every node of one shared set.

    This is the one place that picks a backend.  When ``product_lattice``
    accepts the points and nodes, u is sampled once into one buffer at
    the products some pair of columns reaches (``ProductLattice.sample``),
    and if every sample is finite: on a Euclidean law x z = x + z and S is
    a discrete correlation over the whole grid (one FFT, each axis
    zero-padded to ``_fft_length`` and the result cropped back; a point
    index plus a node offset stays inside the grid, so the padded
    circular correlation adds only zero terms to a kept sum); on H^1 it
    is one short correlation per pair of point and node columns whose
    products hold a nonzero sample, read from a strided view of the buffer
    (``_column_correlations``).  Otherwise the direct loop evaluates
    u(x z) in blocks of ``_PAIR_BUDGET`` pairs; a non-finite sample that a
    point reaches through a nonzero weight raises IntegrandError, and
    unreached ones are dropped.

    What depends on the points, nodes and weights alone is a
    ``_translate_plan``.  ``source`` is ``((R, h), weights_key)`` when
    ``nodes`` are those of ``_nodes_cached(g, R, h)`` and ``weights`` a
    memoised value, ``weights_key`` a memo key ``(memo, args)`` with
    ``memo(*args)[0]`` the weights: the plan then comes from
    ``_translate_plan_cached``, so a call with the points and source of an
    earlier one pays only for u, and every kernel on one lattice shares
    its product lattice.  Other arrays (None) are planned on each call.
    """
    if source is None:
        plan = _translate_plan(g, product_lattice(g, points, nodes, h), weights)
    else:
        lattice, weights_key = source
        plan = _translate_plan_cached(g, *lattice, weights_key, np.asarray(points, dtype=float).tobytes())
    buf = None if plan is None else plan[0].sample(u, plan[1])
    if buf is not None:
        lat, _, wf = plan
        if g.law == groups.EUCLIDEAN:
            shape = lat.shape
            fl, axes = tuple(_fft_length(n) for n in shape), range(len(shape))
            freq = np.fft.rfftn(buf.reshape(shape), fl, axes)
            freq *= wf
            full = np.fft.irfftn(freq, fl, axes)[tuple(slice(n) for n in shape)]
            return full.ravel()[lat.Pc[lat.pcol] + lat.s]
        return _column_correlations(lat, lat.windows(buf), wf)
    out = np.empty(points.shape[0])
    for sl in _blocks(len(out), len(nodes)):
        ys = groups.mul(g, points[sl, None, :], nodes[None, :, :])
        out[sl] = finite_samples(np.asarray(u(ys), dtype=float), ys, weights != 0) @ weights
    return out


def _fft_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n: the one transform length rule of both correlation backends.

    pocketfft transforms such lengths with its radix kernels; a length
    with a large prime factor goes to Bluestein's algorithm, several
    times slower (a forward-forward-inverse triple takes 0.40 ms at
    1,867, a prime, and 0.06 ms at 1,875 = 3 5^4).  ``translate_sums``
    pads each R^N grid axis to it, ``_column_correlations`` each H^1 row.
    """
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _column_correlations(lat: ProductLattice, windows, wf):
    """``translate_sums`` over every node, by the columns of a ``ProductLattice``.

    The products of point column p with node column c are the row of
    ``lat.windows`` at their column start, where slot s of p meets slot m
    of c at position s + m: the sums over the pair are a correlation of
    the row with the column's weights, whose conjugate transforms ``wf``
    holds (``_translate_plan``).  Only the rows of pairs whose
    products hold a nonzero sample are read: the others add nothing, and
    ``ProductLattice.sample`` zeroes the negligible samples, so most pairs
    of a decaying u are skipped (u = 0 reads no row).  Each row read is
    transformed (an FFT long enough that nothing wraps), multiplied by
    its node column's row of ``wf`` and added to its
    point column's running sum, which is transformed back once.  Rows go
    in tiles of ``_PAIR_BUDGET`` samples, rank by rank: the first read
    node column of every point column, then the second, and so on.  The
    rows of one rank hold distinct point columns, so each point column
    sums its node columns in their order, one addition at a time, however
    the tiles cut them: the tiles move no bits.
    """
    # a row runs on past the pair's products to the transform length n;
    # what lies beyond meets the weights only at point slots past the last
    n, step, size = windows.shape[1], lat.step, len(windows)
    # the nonzero samples keyed by (flat index mod step, flat index): the
    # products of a pair are the keys from its first product's to its last's
    key = np.flatnonzero(windows[:, 0])
    for sl in _blocks(len(key), 1):
        key[sl] += key[sl] % step * size
    key.sort()
    acc = np.zeros((len(lat.Lp), n // 2 + 1), complex)
    for pb in _blocks(len(lat.Lp), 16 * len(lat.Lc)):
        at = lat.column_starts(pb)
        first = at % step * size + at
        last = (lat.Lp[pb, None] + lat.Lc - 2) * step + first
        p, c = np.nonzero(np.searchsorted(key, last, side="right") > np.searchsorted(key, first))
        # a pair's rank counts the read pairs of its point column before it
        rank = np.arange(len(p)) - np.searchsorted(p, p)
        order = np.argsort(rank, kind="stable")
        p, c, rank = p[order], c[order], rank[order]
        for sl in _blocks(len(p), n):
            tp, tc = p[sl], c[sl]
            freq = np.fft.rfft(windows[at[tp, tc]])
            freq *= wf[tc]
            ranks = np.flatnonzero(np.diff(rank[sl], prepend=-1)).tolist() + [len(tp)]
            for i, j in zip(ranks[:-1], ranks[1:]):
                acc[pb.start + tp[i:j]] += freq[i:j]
    sums = np.fft.irfft(acc, n)[:, : int(lat.Lp.max())]
    return sums[lat.pcol, lat.s]


def check_radii(radii) -> np.ndarray:
    """``radii`` as a float array; DomainError unless 1-D, non-empty, finite, positive, increasing."""
    radii = np.asarray(radii, dtype=float)
    ok = radii.ndim == 1 and radii.size > 0 and np.all(np.isfinite(radii)) and radii[0] > 0
    if not (ok and np.all(np.diff(radii) > 0)):
        raise DomainError("radius grid must be a non-empty 1-D array of finite, positive, increasing radii")
    return radii


def geometric_radii(r_min: float, r_max: float) -> np.ndarray:
    """Radii r_min 2^(k/4), k = 0, 1, ..., up to the first that reaches r_max."""
    if r_max <= r_min:
        return np.array([r_min])
    ratio = 2.0 ** 0.25
    n = int(math.ceil(math.log(r_max / r_min) / math.log(ratio)))
    return r_min * ratio ** np.arange(n + 1)


def radius_grid(spec: QuadratureSpec, decay_radius: float) -> np.ndarray:
    """Geometric radius grid from 2h to 2(R_max + decay_radius)."""
    return geometric_radii(2.0 * spec.lattice_h, 2.0 * (spec.R_max + decay_radius))
