"""Discretisation engines shared by all operator evaluations.

Two engines are provided.  ``lattice_integrate`` is a midpoint rule on an
anisotropic lattice over the truncated ball {gauge <= R_max}: coordinate i
uses spacing ``h**w_i`` so the lattice respects the group dilations.
``shell_integrate_singular`` integrates a function against the singular
radial kernel d^a (a in (-Q, 0)) by decomposing the ball into shells
around the singular point whose radii halve from R_max down to the
spacing h, matching the exact radial kernel mass on every shell and
closing the region below h in closed form.

Batch sums over one shared node set go through ``translate_sums``.  When
the points lie on the node lattice, every product x z lands on one
``product_lattice`` grid; the sums then run as a lattice correlation (one
FFT) on Euclidean laws and as an index gather from one sampling of u on
H^1, and ball bins are read from one table over the grid.  Other points
take the direct point-by-node loop.  Both the gather and the loop take
their points in the blocks of ``source_blocks``.

Integrands are vectorised: they receive an ``(..., N)`` array of points and
return an ``(...)`` array of values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import groups
from .errors import ContractError, DomainError, IntegrandError


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for truncation and lattice spacing.

    ``lattice_h`` is the spacing at the weight-1 scale; coordinate i of a
    group uses ``lattice_h**w_i``.  ``refinement_level`` halves the spacing
    per level.
    """

    R_max: float = 8.0
    lattice_h: float = 0.05
    refinement_level: int = 0

    def __post_init__(self):
        if not (self.R_max > self.lattice_h > 0):
            raise DomainError("need R_max > lattice_h > 0")
        if self.refinement_level < 0:
            raise DomainError("refinement_level must be non-negative")

    @property
    def effective_h(self) -> float:
        return self.lattice_h / (2.0 ** self.refinement_level)

    def refined(self, levels: int = 1) -> "QuadratureSpec":
        return replace(self, refinement_level=self.refinement_level + levels)


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float
    nodes_used: int


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
    cell = 1.0
    for w in g.weights:
        cell *= h ** w
    pts.setflags(write=False)
    dist.setflags(write=False)
    return pts, dist, cell


def nodes_by_gauge(g: groups.GroupDescriptor, R: float, h: float):
    """``_nodes_cached``' nodes, gauges and cell, in increasing gauge order."""
    zs, dist, cell = _nodes_cached(g, R, h)
    order = np.argsort(dist, kind="stable")
    return zs[order], dist[order], cell


def resolve_R(spec: QuadratureSpec, R_eff: float | None = None) -> float:
    R = spec.R_max if R_eff is None else min(R_eff, spec.R_max)
    return round(float(R), 12)


def lattice_nodes(g: groups.GroupDescriptor, spec: QuadratureSpec, R_eff: float | None = None):
    """Nodes, gauge distances from 0 and cell volume for the truncated ball."""
    return _nodes_cached(g, resolve_R(spec, R_eff), spec.effective_h)


def _midpoint_sum(g, f, spec, level_shift, singular_point):
    h = spec.lattice_h / (2.0 ** (spec.refinement_level + level_shift))
    pts, _, cell = _nodes_cached(g, spec.R_max, h)
    vals = np.asarray(f(pts), dtype=float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        if singular_point is not None:
            sp = np.asarray(singular_point, dtype=float)
            near = np.max(np.abs(pts - sp), axis=-1) <= 0.75 * h ** max(g.weights)
            vals = np.where(bad & near, 0.0, vals)
            bad = ~np.isfinite(vals)
        if np.any(bad):
            node = pts[np.argmax(bad)]
            raise IntegrandError(f"non-finite integrand at node {node.tolist()}")
    return float(np.sum(vals) * cell), pts.shape[0]


def lattice_integrate(
    g: groups.GroupDescriptor,
    f,
    spec: QuadratureSpec,
    singular_point=None,
) -> IntegrationResult:
    """Midpoint rule over the anisotropic lattice with a Richardson error bar.

    The value is computed at the requested refinement level and one level
    finer; the finer value is returned and the difference between the two
    levels is the error estimate.  A single singular point may be flagged:
    non-finite samples in its cell are dropped.
    """
    coarse, n_c = _midpoint_sum(g, f, spec, 0, singular_point)
    fine, n_f = _midpoint_sum(g, f, spec, 1, singular_point)
    return IntegrationResult(
        value=fine, error_estimate=abs(fine - coarse), nodes_used=n_c + n_f
    )


def _shell_edges(R_max: float, h: float):
    """Shell edges halving from R_max down to the spacing h.

    edges[0] = R_max, decreasing; the region below edges[-1] is closed form.
    """
    k_max = max(1, int(math.ceil(math.log(h / R_max) / math.log(0.5))))
    return R_max * 0.5 ** np.arange(k_max + 1)


@lru_cache(maxsize=64)
def _shell_weights_cached(g, a, R_max, h, r_lo, r_hi):
    """Per-node quadrature weights for the kernel d^a on a banded ball.

    Nodes are sorted by gauge distance from the centre.  Every shell
    carries its exact radial kernel mass, distributed over its nodes
    proportionally to the raw midpoint weights; the innermost region (and
    any shell too thin to hold a node) contributes through the
    u(centre)-coefficient ``c0``.
    """
    # sorted here, not through nodes_by_gauge: freeing the index array
    # early moves the h1_adams bench's peak RSS from about 103 MB to 113 MB
    # (the same live data; glibc keeps more of its heap)
    zs, dist, cell = _nodes_cached(g, R_max, h)
    order = np.argsort(dist, kind="stable")
    zs = zs[order]
    dist = dist[order]
    edges = _shell_edges(R_max, h)
    r_stop = float(edges[-1])
    sigma = groups.sphere_measure(g, QuadratureSpec(R_max=R_max, lattice_h=h))
    aQ = a + g.Q
    n_shells = len(edges) - 1

    live = (dist >= r_stop) & (dist > r_lo) & (dist <= r_hi)
    d_safe = np.where(live, dist, 1.0)
    kern = np.where(live, d_safe ** a * cell, 0.0)
    idx = np.clip(np.searchsorted(-edges, -dist, side="right") - 1, 0, n_shells - 1)
    denom = np.bincount(idx[live], weights=kern[live], minlength=n_shells)
    lo_clip = np.clip(edges[1:], r_lo, r_hi)
    hi_clip = np.clip(edges[:-1], r_lo, r_hi)
    exact = sigma * np.maximum(hi_clip ** aQ - lo_clip ** aQ, 0.0) / aQ

    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(denom > 0, exact / np.where(denom > 0, denom, 1.0), 0.0)
    weights = kern * scale[idx]
    # shells with no nodes (below lattice resolution) and the innermost
    # region use u(centre) against the exact kernel mass
    c0 = float(np.sum(exact[denom == 0]))
    lo_in = min(max(r_lo, 0.0), r_stop)
    hi_in = min(r_hi, r_stop)
    if hi_in > lo_in:
        c0 += sigma * (hi_in ** aQ - lo_in ** aQ) / aQ
    weights.setflags(write=False)
    return zs, dist, weights, c0


@lru_cache(maxsize=64)
def gauge_power_weights(g, a, R, h):
    """Per-node masses for the measure gauge(y)^a dy on the truncated ball.

    Valid for any a > -Q, including singular negative powers: the shells
    of ``_shell_edges`` around the origin carry their exact radial mass
    (the deepest populated shell absorbs everything below it), distributed
    over their nodes proportionally to midpoint weights.  Node order
    matches ``lattice_nodes``.
    """
    if a <= -g.Q:
        raise DomainError(f"weight exponent {a} <= -Q is not integrable")
    zs, dist, cell = _nodes_cached(g, R, h)
    sigma = groups.sphere_measure(g, QuadratureSpec(R_max=R, lattice_h=h))
    aQ = a + g.Q
    edges = _shell_edges(R, h)
    n_shells = len(edges) - 1
    idx = np.clip(np.searchsorted(-edges, -dist, side="right") - 1, 0, n_shells - 1)
    kern = dist ** a * cell
    below = dist < edges[-1]
    idx = np.where(below, n_shells - 1, idx)
    denom = np.bincount(idx, weights=kern, minlength=n_shells)
    exact = sigma * (edges[:-1] ** aQ - edges[1:] ** aQ) / aQ
    populated = np.nonzero(denom > 0)[0]
    if populated.size:
        deepest = populated[-1]
        exact = exact.copy()
        # everything below the deepest populated shell, incl. the disc
        exact[deepest] = sigma * edges[deepest] ** aQ / aQ
        exact[deepest + 1 :] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(denom > 0, exact / np.where(denom > 0, denom, 1.0), 0.0)
    w = kern * scale[idx]
    w.setflags(write=False)
    return w


def ball_bins(g: groups.GroupDescriptor, nodes, centers, radii, known=None) -> np.ndarray:
    """Bin of every (centre, node) pair in an (n_centers, len(radii) + 1) table.

    Row i of the result holds, for each node z, ``i * (len(radii) + 1) + j``
    with j the index of the first radius r_j such that z lies in the
    left-translated ball {z : gauge(c_i^{-1} z) < r_j}; j = len(radii)
    marks nodes outside every ball.  ``radii`` must be non-decreasing.
    ``known`` (n_centers, n_nodes), if given, already holds j for the pairs
    ``ball_bin_table`` fixed and -1 for the rest; only the rest are computed,
    pair by pair, with the same arithmetic.  It is overwritten.
    """
    if known is None:
        d = groups.gauge(g, groups.mul(g, -centers[:, None, :], nodes[None, :, :]))
        j = np.searchsorted(radii, d, side="right")
    else:
        j = known
        r, c = np.nonzero(j < 0)
        d = groups.gauge(g, groups.mul(g, -centers[r], nodes[c]))
        j[r, c] = np.searchsorted(radii, d, side="right")
    return j + (len(radii) + 1) * np.arange(len(centers))[:, None]


def ball_bin_table(g: groups.GroupDescriptor, lat: ProductLattice, radii, scale) -> np.ndarray:
    """``ball_bins``' j at every flat sample of ``lat.grid``, -1 near a radius.

    ``lat`` is ``product_lattice(g, -centers, nodes, h)`` and ``scale``
    bounds the gauge of every centre and node.  Against the exact sample,
    ``mul`` rounds a pair's product by at most 3 eps scale on a horizontal
    axis and 6 eps scale^2 on the H^1 centre.  Through the gauge
    (|dd/dx| <= 1, |dd/dt| <= 2/d) and its own rounding, the pair's gauge
    stays within 22 eps (1 + scale/d)^2 of d relative, which is below
    ``tol`` wherever d >= r_0/2, so wherever a radius is near.  A sample
    whose band d(1 +/- tol) holds a radius (every exact lattice distance
    on the radius grid does) is marked -1, and ``ball_bins`` recomputes
    its pairs one by one: the bins match the direct ones exactly.
    """
    tol = 128.0 * np.finfo(float).eps * (1.0 + scale / radii[0]) ** 2
    d = groups.gauge(g, lat.grid).ravel()
    lo = np.searchsorted(radii, d * (1.0 - tol), side="right")
    hi = np.searchsorted(radii, d * (1.0 + tol), side="right")
    return np.where(lo == hi, lo, -1)


def ball_sums(bins: np.ndarray, n_radii: int, weights=None) -> np.ndarray:
    """Per-ball totals from ``ball_bins``: shape (n_centers, n_radii).

    Node counts when ``weights`` is None, otherwise sums of the per-node
    ``weights`` over each ball.  Each pair is binned once into the first
    ball that holds it, and the cumulative sum over radii fills the
    larger balls, so no per-centre sort is needed.
    """
    m = bins.shape[0]
    w = None if weights is None else np.tile(weights, m)
    per_bin = np.bincount(bins.ravel(), weights=w, minlength=m * (n_radii + 1))
    return np.cumsum(per_bin.reshape(m, n_radii + 1)[:, :n_radii], axis=1)


def finite_samples(vals, pts, reached=True):
    """``vals`` with unreached non-finite samples set to zero.

    A non-finite sample where ``reached`` holds (a node that carries
    quadrature weight) raises IntegrandError naming the node in ``pts``.
    """
    bad = ~np.isfinite(vals)
    if not np.any(bad):
        return vals
    hit = bad & reached
    if np.any(hit):
        raise IntegrandError(f"non-finite integrand at node {pts[hit][0].tolist()}")
    return np.where(bad, 0.0, vals)


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

    ``grid`` holds the sample points, shape S + (N,); the product of point
    p and node n sits at ``grid.reshape(-1, N)[P[p] + Z[n] + A[p] @ B[n]]``.
    The bilinear twist ``A @ B`` is empty on R^N.
    """

    grid: np.ndarray
    P: np.ndarray
    Z: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def index(self, rows, cols=slice(None)):
        """Flat grid indices of the products of points ``rows`` and nodes ``cols``."""
        at = self.A[rows] @ self.B[cols].T
        at += self.P[rows, None]
        at += self.Z[cols]
        return at


def product_lattice(g: groups.GroupDescriptor, points, nodes, h):
    """The ``ProductLattice`` of on-lattice points and nodes, or None.

    Coordinate i of a midpoint node is (j_i + 1/2) h**w_i.  A horizontal
    (weight-1) coordinate of x z sits at (i + j + 1) h.  On H^1 the
    central one sits at k h^2/4 with k = 4(i_2 + j_2 + 1) + 2 X x Z, where
    X = (i_0 + 1/2, i_1 + 1/2), Z likewise, and
    2 X x Z = 2(i_0 j_1 - i_1 j_0) + (i_0 - i_1) + (j_1 - j_0): everything
    but the bilinear term splits into a point part and a node part.  None
    when a point or node is off the lattice, or when the grid would hold
    at least as many samples as there are point-node pairs (single
    points, far-apart points): the caller's direct loop runs then.
    """
    spacing = np.array([h ** w for w in g.weights])
    ix, iz = _lattice_index(points, spacing), _lattice_index(nodes, spacing)
    if len(points) == 0 or ix is None or iz is None:
        return None
    kx, kz = ix.copy(), iz + 1
    A, B = ix[:, :0], iz[:, :0]
    reach = np.zeros(g.dimension, dtype=np.int64)
    if g.law == groups.HEISENBERG1:
        spacing[2] /= 4.0
        kx[:, 2] = 4 * ix[:, 2] + ix[:, 0] - ix[:, 1]
        kz[:, 2] = 4 * (iz[:, 2] + 1) + iz[:, 1] - iz[:, 0]
        A, B = 2 * ix[:, :2] * [1, -1], iz[:, [1, 0]]
        # |2 X x Z| <= 2 |X| |Z| bounds the twist; the central axis is the
        # last, so the twist adds to the flat index with stride 1
        rx, rz = (float(np.max(np.hypot(*(k[:, :2] + 0.5).T))) for k in (ix, iz))
        reach[2] = int(2.0 * rx * rz) + 1
    xlo, zlo = kx.min(axis=0), kz.min(axis=0) - reach
    shape = tuple(int(v) for v in kx.max(axis=0) - xlo + kz.max(axis=0) + reach - zlo + 1)
    if math.prod(shape) >= len(points) * len(nodes):
        return None
    axes = [(lo + np.arange(n)) * s for lo, n, s in zip(xlo + zlo, shape, spacing)]
    return ProductLattice(
        grid=np.stack(np.meshgrid(*axes, indexing="ij"), -1),
        P=np.ravel_multi_index(tuple((kx - xlo).T), shape),
        Z=np.ravel_multi_index(tuple((kz - zlo).T), shape),
        A=A,
        B=B,
    )


def source_blocks(gauge_pts, decay, h, chunk):
    """(rows, cap) for each block of ``chunk`` points in increasing gauge order.

    ``gauge_pts`` holds the gauges of the points.  ``cap`` = max gauge of
    the block + ``decay`` + 2h: a source u of decay radius ``decay``
    vanishes at x z for every point x of the block and every node z of
    gauge beyond it.
    """
    porder = np.argsort(gauge_pts, kind="stable")
    for start in range(0, len(porder), chunk):
        rows = porder[start : start + chunk]
        yield rows, float(np.max(gauge_pts[rows])) + decay + 2.0 * h


def translate_sums(g: groups.GroupDescriptor, u, points, nodes, dist, weights, h, chunk):
    """S(x) = sum_z w(z) u(x z) at every point x over one shared node set.

    ``nodes`` are sorted by their gauges ``dist``.  This is the one place
    that picks a backend.  When ``product_lattice`` accepts the points and
    nodes, u is sampled once on its grid: on a Euclidean law x z = x + z
    and S is a discrete correlation (one FFT); on H^1 u(x z) is gathered
    by index.  Otherwise the direct loop evaluates u(x z).  The gather and
    the loop take the ``source_blocks`` of ``chunk`` points and skip the
    nodes beyond each block's cap, where u vanishes.
    A non-finite sample that a point reaches through a nonzero weight
    raises IntegrandError; unreached ones are dropped.
    """
    lat = product_lattice(g, points, nodes, h)
    if lat is not None:
        shape = lat.grid.shape[:-1]
        samples = np.asarray(u(lat.grid), dtype=float)
        clean = bool(np.all(np.isfinite(samples)))
        if g.law == groups.EUCLIDEAN:
            dense = np.zeros(shape)
            dense.flat[lat.Z] = weights
            ax = tuple(range(len(shape)))

            def fft(arr):
                return np.fft.rfftn(arr, axes=ax)

            if not clean:
                # sample k is reached when some point a has a weighted node k - a
                hit = np.zeros(shape)
                hit.flat[lat.P] = 1.0
                reached = np.fft.irfftn(fft(hit) * fft(dense != 0), s=shape, axes=ax) > 0.5
                samples = finite_samples(samples, lat.grid, reached)
            # no sample index exceeds the circular length, so nothing wraps
            corr = np.fft.irfftn(fft(samples) * np.conj(fft(dense)), s=shape, axes=ax)
            return corr.ravel()[lat.P]
        samples, grid = samples.ravel(), lat.grid.reshape(-1, g.dimension)
    decay = getattr(u, "decay_radius", math.inf)
    gauge_pts = groups.gauge(g, points)
    out = np.zeros(points.shape[0])
    for rows, cap in source_blocks(gauge_pts, decay, h, chunk):
        jmax = int(np.searchsorted(dist, cap, side="right"))
        if jmax == 0:
            continue
        if lat is None:
            ys = groups.mul(g, points[rows][:, None, :], nodes[None, :jmax, :])
            uv = np.asarray(u(ys), dtype=float)
        else:
            # u(x z) by index; the sample points only to name a bad one
            at = lat.index(rows, slice(jmax))
            uv, ys = samples[at], (grid if clean else grid[at])
        out[rows] = finite_samples(uv, ys, weights[:jmax] != 0) @ weights[:jmax]
    return out


# points per block of the batch singular-kernel sum
_BAND_CHUNK = 192


def kernel_band_values(
    g: groups.GroupDescriptor,
    a: float,
    u,
    points,
    spec: QuadratureSpec,
    r_lo: float = 0.0,
    r_hi: float | None = None,
    level_shift: int = 0,
) -> np.ndarray:
    """integral of u(y) d(y,x)^a over {r_lo < d(y,x) <= r_hi} at points x.

    d(y, x) = gauge(y^{-1} x), and the integration ball is centred at each
    evaluation point (truncation at R_max).  One shared node/weight set
    serves every point through left translation, which preserves both the
    Haar measure and cell midpoints: the value is ``translate_sums`` plus
    the closed-form innermost term c0 u(x).  A non-finite sample of u at
    a weighted node raises IntegrandError.
    """
    if a <= -g.Q:
        raise DomainError(f"kernel exponent {a} <= -Q diverges")
    if a >= 0:
        raise DomainError("kernel_band_values needs a singular kernel (a < 0)")
    r_hi = spec.R_max if r_hi is None else min(float(r_hi), spec.R_max)
    r_lo = float(r_lo)
    pts = groups.as_points(g, points)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    out = np.zeros(pts.shape[0])
    u_at = np.asarray(u(pts), dtype=float)
    u_at = np.where(np.isfinite(u_at), u_at, 0.0)
    if r_lo < r_hi:
        h = spec.lattice_h / (2.0 ** (spec.refinement_level + level_shift))
        zs, dist, weights, c0 = _shell_weights_cached(
            g, float(a), spec.R_max, h, r_lo, r_hi)
        out = translate_sums(g, u, pts, zs, dist, weights, h, _BAND_CHUNK) + u_at * c0
    return out[0] if single else out


def shell_integrate_singular(
    g: groups.GroupDescriptor,
    kernel_exponent: float,
    u,
    center,
    spec: QuadratureSpec,
) -> IntegrationResult:
    """Integral of u(y) * gauge(inverse(y) center)^a over the truncated ball.

    Requires a locally integrable kernel, a in (-Q, 0).  Shells around the
    centre, halving from R_max down to h, carry their exact radial kernel
    mass; lattice samples of u supply the shell averages, and the region
    below h uses u(center) with the kernel integrated in closed form.  The error
    estimate is the difference against one refinement level coarser, and
    infinite when only the coarser lattice hits a non-finite sample of u.
    """
    a = float(kernel_exponent)
    if a <= -g.Q:
        raise DomainError(f"kernel exponent {a} <= -Q diverges")
    if a >= 0:
        raise ContractError("non-singular kernel: use lattice_integrate")
    center = np.asarray(center, dtype=float)
    fine = float(kernel_band_values(g, a, u, center, spec, level_shift=1))
    try:
        coarse = float(kernel_band_values(g, a, u, center, spec, level_shift=0))
    except IntegrandError:
        # the coarse lattice lands on a singularity of u that the finer one
        # straddles: the value stands, its error bar is unknown
        coarse = math.inf
    h1 = spec.effective_h / 2.0
    n = _nodes_cached(g, spec.R_max, spec.effective_h)[0].shape[0]
    n += _nodes_cached(g, spec.R_max, h1)[0].shape[0]
    return IntegrationResult(
        value=fine, error_estimate=abs(fine - coarse), nodes_used=n
    )


def geometric_radii(r_min: float, r_max: float) -> np.ndarray:
    """Radii r_min 2^(k/4), k = 0, 1, ..., up to the first that reaches r_max."""
    if r_max <= r_min:
        return np.array([r_min])
    ratio = 2.0 ** 0.25
    n = int(math.ceil(math.log(r_max / r_min) / math.log(ratio)))
    return r_min * ratio ** np.arange(n + 1)


def radius_grid(spec: QuadratureSpec, decay_radius: float) -> np.ndarray:
    """Geometric radius grid from 2h to 2(R_max + decay_radius)."""
    return geometric_radii(2.0 * spec.effective_h, 2.0 * (spec.R_max + decay_radius))
