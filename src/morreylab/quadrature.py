"""Discretisation engines shared by all operator evaluations.

Two engines are provided.  ``lattice_integrate`` is a midpoint rule on an
anisotropic lattice over the truncated ball {gauge <= R_max}: coordinate i
uses spacing ``h**w_i`` so the lattice respects the group dilations.
``shell_integrate_singular`` integrates a function against the singular
radial kernel d^a (a in (-Q, 0)) by decomposing the ball into geometric
shells around the singular point, matching the exact radial kernel mass on
every shell and closing the innermost region in closed form.

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
    """Controls for truncation, lattice spacing and shell decomposition.

    ``lattice_h`` is the spacing at the weight-1 scale; coordinate i of a
    group uses ``lattice_h**w_i``.  ``refinement_level`` halves the spacing
    per level.  ``inner_cutoff`` sets the innermost shell radius as a
    fraction of the effective spacing.
    """

    R_max: float = 8.0
    lattice_h: float = 0.05
    shell_ratio: float = 0.5
    inner_cutoff: float = 1.0
    refinement_level: int = 0

    def __post_init__(self):
        if not (self.R_max > self.lattice_h > 0):
            raise DomainError("need R_max > lattice_h > 0")
        if not (0 < self.shell_ratio < 1):
            raise DomainError("shell_ratio must lie in (0, 1)")
        if not (0 < self.inner_cutoff <= 1):
            raise DomainError("inner_cutoff must lie in (0, 1]")
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


def _shell_edges(spec: QuadratureSpec, h_eff: float):
    """Geometric shell edges from R_max down to the inner cutoff radius."""
    r_in = spec.inner_cutoff * h_eff
    ratio = spec.shell_ratio
    k_max = max(1, int(math.ceil(math.log(r_in / spec.R_max) / math.log(ratio))))
    edges = spec.R_max * ratio ** np.arange(k_max + 1)
    return edges  # edges[0] = R_max, decreasing; region below edges[-1] is closed form


@lru_cache(maxsize=64)
def _shell_weights_cached(g, a, R_max, h, shell_ratio, inner_cutoff, r_lo, r_hi):
    """Per-node quadrature weights for the kernel d^a on a banded ball.

    Nodes are sorted by gauge distance from the centre.  Every geometric
    shell carries its exact radial kernel mass, distributed over its nodes
    proportionally to the raw midpoint weights; the innermost region (and
    any shell too thin to hold a node) contributes through the
    u(centre)-coefficient ``c0``.
    """
    spec = QuadratureSpec(
        R_max=R_max, lattice_h=h, shell_ratio=shell_ratio, inner_cutoff=inner_cutoff
    )
    zs, dist, cell = _nodes_cached(g, R_max, h)
    order = np.argsort(dist, kind="stable")
    zs = zs[order]
    dist = dist[order]
    edges = _shell_edges(spec, h)
    r_stop = float(edges[-1])
    sigma = groups.sphere_measure(g, spec)
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
    zs = np.ascontiguousarray(zs)
    weights.setflags(write=False)
    return zs, dist, weights, c0


@lru_cache(maxsize=64)
def gauge_power_weights(g, a, R, h, shell_ratio, inner_cutoff):
    """Per-node masses for the measure gauge(y)^a dy on the truncated ball.

    Valid for any a > -Q, including singular negative powers: geometric
    shells around the origin carry their exact radial mass (the deepest
    populated shell absorbs everything below it), distributed over their
    nodes proportionally to midpoint weights.  Node order matches
    ``lattice_nodes``.
    """
    if a <= -g.Q:
        raise DomainError(f"weight exponent {a} <= -Q is not integrable")
    zs, dist, cell = _nodes_cached(g, R, h)
    spec = QuadratureSpec(
        R_max=R, lattice_h=h, shell_ratio=shell_ratio, inner_cutoff=inner_cutoff
    )
    sigma = groups.sphere_measure(g, spec)
    aQ = a + g.Q
    edges = _shell_edges(spec, h)
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


def ball_bins(g: groups.GroupDescriptor, nodes, centers, radii) -> np.ndarray:
    """Bin of every (centre, node) pair in an (n_centers, len(radii) + 1) table.

    Row i of the result holds, for each node z, ``i * (len(radii) + 1) + j``
    with j the index of the first radius r_j such that z lies in the
    left-translated ball {z : gauge(c_i^{-1} z) < r_j}; j = len(radii)
    marks nodes outside every ball.  ``radii`` must be non-decreasing.
    """
    d = groups.gauge(g, groups.mul(g, -centers[:, None, :], nodes[None, :, :]))
    j = np.searchsorted(radii, d, side="right")
    return j + (len(radii) + 1) * np.arange(len(centers))[:, None]


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
    Haar measure and cell midpoints.  Nodes beyond gauge(x) + decay_radius
    of u are skipped: the integrand vanishes there.
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
    if r_lo >= r_hi:
        return out[0] if single else out

    h = spec.lattice_h / (2.0 ** (spec.refinement_level + level_shift))
    zs, dist, weights, c0 = _shell_weights_cached(
        g, float(a), spec.R_max, h, spec.shell_ratio, spec.inner_cutoff, r_lo, r_hi
    )
    decay = getattr(u, "decay_radius", math.inf)
    gauge_pts = groups.gauge(g, pts)

    # process points in increasing gauge order so source caps stay tight
    porder = np.argsort(gauge_pts, kind="stable")
    for start in range(0, pts.shape[0], _BAND_CHUNK):
        rows = porder[start : start + _BAND_CHUNK]
        x = pts[rows]
        cap = float(np.max(gauge_pts[rows])) + decay + 2.0 * h
        jmax = int(np.searchsorted(dist, cap, side="right")) if math.isfinite(cap) else len(dist)
        if jmax > 0:
            ys = groups.mul(g, x[:, None, :], zs[None, :jmax, :])
            uv = np.asarray(u(ys), dtype=float)
            out[rows] = uv @ weights[:jmax]
        out[rows] += u_at[rows] * c0
    return out[0] if single else out


def shell_integrate_singular(
    g: groups.GroupDescriptor,
    kernel_exponent: float,
    u,
    center,
    spec: QuadratureSpec,
) -> IntegrationResult:
    """Integral of u(y) * gauge(inverse(y) center)^a over the truncated ball.

    Requires a locally integrable kernel, a in (-Q, 0).  Geometric shells
    around the centre carry their exact radial kernel mass; lattice samples
    of u supply the shell averages, and the innermost region uses
    u(center) with the kernel integrated in closed form.  The error
    estimate is the difference against one refinement level finer.
    """
    a = float(kernel_exponent)
    if a <= -g.Q:
        raise DomainError(f"kernel exponent {a} <= -Q diverges")
    if a >= 0:
        raise ContractError("non-singular kernel: use lattice_integrate")
    center = np.asarray(center, dtype=float)
    coarse = float(kernel_band_values(g, a, u, center, spec, level_shift=0))
    fine = float(kernel_band_values(g, a, u, center, spec, level_shift=1))
    h1 = spec.effective_h / 2.0
    n = _nodes_cached(g, spec.R_max, spec.effective_h)[0].shape[0]
    n += _nodes_cached(g, spec.R_max, h1)[0].shape[0]
    return IntegrationResult(
        value=fine, error_estimate=abs(fine - coarse), nodes_used=n
    )


def radius_grid(
    spec: QuadratureSpec,
    decay_radius: float,
    ratio: float = 2.0 ** 0.25,
) -> np.ndarray:
    """Geometric radius grid from 2h to 2(R_max + decay_radius)."""
    r_min = 2.0 * spec.effective_h
    r_max = 2.0 * (spec.R_max + decay_radius)
    if r_max <= r_min:
        return np.array([r_min])
    n = int(math.ceil(math.log(r_max / r_min) / math.log(ratio)))
    return r_min * ratio ** np.arange(n + 1)
