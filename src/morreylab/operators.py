"""Integral and differential operators on homogeneous groups.

Each operator has one entry point, ``*_values``, which takes one point
(shape ``(N,)``, scalar out) or a batch of points and evaluates the
integral at all of them from one shared source lattice: norm estimation
needs operator values on ~10^4 lattice nodes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import groups
from .errors import DomainError, UnsupportedGroupError
from .quadrature import (
    QuadratureSpec,
    _nodes_cached,
    _shell_weights_cached,
    ball_totals,
    check_radii,
    finite_samples,
    lattice_key,
    lattice_nodes,
    resolve_R,
    translate_sums,
)

_EPS3 = np.finfo(float).eps ** (1.0 / 3.0)
_EPS4 = np.finfo(float).eps ** 0.25


# points per block, in gauge order, that share one source cap of the
# fractional Laplacian (the translate sums run once over all points)
_FRACLAP_CHUNK = 128


# ---------------------------------------------------------------------------
# Riesz potential
# ---------------------------------------------------------------------------

def riesz_values(
    g: groups.GroupDescriptor,
    gamma: float,
    u,
    points,
    spec: QuadratureSpec,
) -> np.ndarray:
    """Convolution of u with gauge^(gamma - Q) at the points x.

    The integral of u(y) d(y, x)^(gamma - Q) over {d(y, x) <= R_max}, with
    d(y, x) = gauge(y^{-1} x): one shared node and weight set
    (``_shell_weights_cached``) serves every point through left
    translation, which preserves both the Haar measure and cell
    midpoints, so the value is ``translate_sums`` plus the closed-form
    innermost term c0 u(x).  A non-finite sample of u at a weighted node,
    or a non-finite u(x), raises IntegrandError.  Exact change of
    variables gives the covariance
    ``riesz(u o dilate_t)(x) = t^(-gamma) riesz(u)(dilate_t x)``, which the
    test suite uses as its oracle.
    """
    if not (0 < gamma < g.Q):
        raise DomainError(f"gamma must lie in (0, Q), got {gamma}")
    pts = groups.as_points(g, points)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    u_at = finite_samples(np.asarray(u(pts), dtype=float), pts, True)
    h = spec.lattice_h
    R = resolve_R(spec)
    key = (g, float(gamma - g.Q), R, h)
    weights, c0 = _shell_weights_cached(*key)
    source = (R, h), (_shell_weights_cached, key)
    out = translate_sums(g, u, pts, _nodes_cached(g, R, h)[0], weights, h, source) + u_at * c0
    return out[0] if single else out


# ---------------------------------------------------------------------------
# maximal operators
# ---------------------------------------------------------------------------

def frac_maximal_values(
    g: groups.GroupDescriptor,
    alpha: float,
    u,
    points,
    radii,
    spec: QuadratureSpec,
) -> np.ndarray:
    """sup over the radius grid of |B(x,r)|^(alpha-1) * integral_B |u|.

    alpha = 0 gives the Hardy-Littlewood maximal function.  Ball masses
    and ball volumes use the same lattice nodes, so constants are
    reproduced exactly at radii whose ball stays inside the truncated
    domain; larger balls extend the volume by the exact r^Q scaling law.
    Away from the domain's edge the result is a lower bound of the true
    supremum up to quadrature error.  Within about 4h of ``R_max`` it
    over-reads: ``r_dom`` is floored at 4h, so balls up to that radius
    take their volume from the truncated lattice while it is smaller than
    the true one (for e^{-y^2} on R^1 with R_max 6 and h 0.02, 1.94 times
    the true value at x = 5.99, alpha = 0).  A non-finite |u| at a node
    raises IntegrandError naming the node.
    """
    if not (0 <= alpha < 1):
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    radii = check_radii(radii)
    pts = groups.as_points(g, points)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)

    src, _, cell = lattice_nodes(g, spec)
    uv = np.abs(np.asarray(u(src), dtype=float))
    cnt, m_r = ball_totals(g, pts, radii, uv, lattice_key(spec))
    m_r *= cell
    # balls that leave the domain scale their volume from the last ball
    # inside it (or from one cell at r_dom) by r^Q
    r_dom = np.maximum(spec.R_max - groups.gauge(g, pts), 4.0 * spec.lattice_h)
    j = np.searchsorted(radii, r_dom, side="right") - 1
    rows = np.arange(len(pts))
    jc = np.maximum(j, 0)
    has_base = (j >= 0) & (cnt[rows, jc] > 0)
    base_v = np.where(has_base, cnt[rows, jc] * cell, cell)[:, None]
    base_r = np.where(has_base, radii[jc], r_dom)[:, None]
    vol = np.where(radii > r_dom[:, None], base_v * (radii / base_r) ** g.Q, cnt * cell)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(vol > 0, vol ** (alpha - 1.0) * m_r, 0.0)
    out = np.max(vals, axis=1)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# fractional Laplacian (Euclidean only)
# ---------------------------------------------------------------------------

def frac_normalization(N: int, s: float) -> float:
    """Constant making the symmetric-difference integral have symbol |xi|^(2s)."""
    return (
        4.0 ** s
        * math.gamma(N / 2.0 + s)
        / (math.pi ** (N / 2.0) * abs(math.gamma(-s)))
    )


def _euclidean_sphere_area(N: int) -> float:
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


# no other kernel is used between two uses of one in the bench passes
@lru_cache(maxsize=1)
def _fraclap_kernel(g: groups.GroupDescriptor, s: float, R: float, h: float):
    """Read-only ``(weights, dY, ksum)`` of the fractional Laplacian on the nodes of ``_nodes_cached(g, R, h)``.

    ``weights`` is the kernel |y|^(-N-2s) cell at each node of gauge >= h,
    in ``_nodes_cached`` order, and zero below; ``dY`` holds the gauges
    >= h in increasing order, and ``ksum`` the prefix sums of the kernel
    along them.  The kernel depends on the gauge alone, so the order of
    equal gauges moves no prefix sum.
    """
    dist, cell = _nodes_cached(g, R, h)[1:]
    live = dist >= h
    a = -g.dimension - 2.0 * s
    weights = np.where(live, dist ** a * cell, 0.0)
    dY = np.sort(dist[live])
    ksum = np.concatenate([[0.0], np.cumsum(dY ** a * cell)])
    for arr in (weights, dY, ksum):
        arr.setflags(write=False)
    return weights, dY, ksum


def frac_laplacian_values(
    g: groups.GroupDescriptor,
    s: float,
    u,
    points,
    spec: QuadratureSpec,
) -> np.ndarray:
    """(-Delta)^s u by the symmetric-difference singular integral.

    The inner region {|y| < h} uses the second-order Taylor form of the
    difference, integrated in closed form.  For inputs that decay inside
    R_max, points go in blocks of ``_FRACLAP_CHUNK`` in gauge order, u
    vanishes beyond each block's source cap (its largest gauge + decay
    radius + 2h, clipped at R_max), and the far tail of the 2u(x) term
    closes there in radial form; non-decaying inputs (e.g. oscillatory
    probes) instead need R_max large enough that the tail is below
    tolerance.  The node set is symmetric, so
    sum k(y) (2u(x) - u(x+y) - u(x-y)) is 2u(x) sum k(y) - 2
    ``translate_sums``.  A non-finite sample of u at a weighted node or at
    a point raises IntegrandError.
    """
    if g.law != groups.EUCLIDEAN:
        raise UnsupportedGroupError("fractional Laplacian requires Euclidean descriptors")
    if not (0 < s < 1):
        raise DomainError(f"s must lie in (0, 1), got {s}")
    pts = groups.as_points(g, points)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)

    N = g.dimension
    A = frac_normalization(N, s)
    area = _euclidean_sphere_area(N)
    h = spec.lattice_h
    R = resolve_R(spec)
    key = (g, float(s), R, h)
    weights, dY, ksum = _fraclap_kernel(*key)

    u_x = finite_samples(np.asarray(u(pts), dtype=float), pts, True)
    trH = sub_laplacian_values(g, u, pts)
    inner = -(trH / N) * area * h ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    # for inputs that decay inside R_max, u(x +/- y) < 1e-12 beyond the
    # source cap of the block of x (clipped at R_max), so the difference
    # is 2u(x) and the kernel tail out to infinity closes in radial form
    decay = getattr(u, "decay_radius", math.inf)
    jmax = np.full(pts.shape[0], len(dY))
    tail = np.zeros(pts.shape[0])
    if decay <= spec.R_max:
        gx = groups.gauge(g, pts)
        order = np.argsort(gx, kind="stable")
        for start in range(0, len(order), _FRACLAP_CHUNK):
            rows = order[start : start + _FRACLAP_CHUNK]
            cap = min(float(np.max(gx[rows])) + decay + 2.0 * h, spec.R_max)
            jmax[rows] = np.searchsorted(dY, cap, side="right")
            tail[rows] = 2.0 * u_x[rows] * area * cap ** (-2.0 * s) / (2.0 * s)

    source = (R, h), (_fraclap_kernel, key)
    sums = translate_sums(g, u, pts, lattice_nodes(g, spec)[0], weights, h, source)
    vals = 0.5 * A * (2.0 * u_x * ksum[jmax] - 2.0 * sums + inner + tail)
    return vals[0] if single else vals


# ---------------------------------------------------------------------------
# horizontal gradient and sub-Laplacian
# ---------------------------------------------------------------------------

def _coordinate_partials(u, pts):
    N = pts.shape[-1]
    parts = []
    for i in range(N):
        h = _EPS3 * (1.0 + np.abs(pts[..., i]))
        e = np.zeros_like(pts)
        e[..., i] = h
        parts.append((np.asarray(u(pts + e)) - np.asarray(u(pts - e))) / (2.0 * h))
    return parts


def horizontal_gradient_values(g: groups.GroupDescriptor, u, points) -> np.ndarray:
    """Horizontal gradient: full gradient on R^N, (X u, Y u) on H^1.

    Analytic gradients are used when the test function carries one;
    otherwise central differences with step eps^(1/3) (1 + |coordinate|).
    """
    pts = groups.as_points(g, points)
    if getattr(u, "analytic_gradient", None) is not None:
        return np.asarray(u.analytic_gradient(pts), dtype=float)
    if g.law == groups.EUCLIDEAN:
        return np.stack(_coordinate_partials(u, pts), axis=-1)
    px, py, pt = _coordinate_partials(u, pts)
    x, y = pts[..., 0], pts[..., 1]
    return np.stack([px - 0.5 * y * pt, py + 0.5 * x * pt], axis=-1)


def _second_partial(u, pts, i, j):
    hi = _EPS4 * (1.0 + np.abs(pts[..., i]))
    hj = _EPS4 * (1.0 + np.abs(pts[..., j]))
    ei = np.zeros_like(pts)
    ei[..., i] = hi
    ej = np.zeros_like(pts)
    ej[..., j] = hj
    if i == j:
        return (
            np.asarray(u(pts + ei)) - 2.0 * np.asarray(u(pts)) + np.asarray(u(pts - ei))
        ) / (hi * hi)
    return (
        np.asarray(u(pts + ei + ej))
        - np.asarray(u(pts + ei - ej))
        - np.asarray(u(pts - ei + ej))
        + np.asarray(u(pts - ei - ej))
    ) / (4.0 * hi * hj)


def sub_laplacian_values(g: groups.GroupDescriptor, u, points) -> np.ndarray:
    """Sum of squared horizontal derivatives (ordinary Laplacian on R^N).

    Second and mixed partials use central differences at step
    eps^(1/4) (1 + |coordinate|).
    """
    pts = groups.as_points(g, points)
    if getattr(u, "analytic_sub_laplacian", None) is not None:
        return np.asarray(u.analytic_sub_laplacian(pts), dtype=float)
    if g.law == groups.EUCLIDEAN:
        acc = np.zeros(pts.shape[:-1])
        for i in range(g.dimension):
            acc = acc + _second_partial(u, pts, i, i)
        return acc
    x, y = pts[..., 0], pts[..., 1]
    return (
        _second_partial(u, pts, 0, 0)
        + _second_partial(u, pts, 1, 1)
        - y * _second_partial(u, pts, 0, 2)
        + x * _second_partial(u, pts, 1, 2)
        + 0.25 * (x * x + y * y) * _second_partial(u, pts, 2, 2)
    )
