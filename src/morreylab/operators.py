"""Integral and differential operators on homogeneous groups.

Each operator has one entry point, ``*_values``, which takes one point
(shape ``(N,)``, scalar out) or a batch of points and evaluates the
integral at all of them from one shared source lattice: norm estimation
needs operator values on ~10^4 lattice nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import groups
from .errors import DomainError, UnsupportedGroupError
from .quadrature import (
    QuadratureSpec,
    ball_totals,
    check_radii,
    kernel_band_values,
    lattice_nodes,
    nodes_by_gauge,
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
    """Convolution of u with gauge^(gamma - Q) at the points.

    Exact change of variables gives the covariance
    ``riesz(u o dilate_t)(x) = t^(-gamma) riesz(u)(dilate_t x)``, which the
    test suite uses as its oracle.
    """
    if not (0 < gamma < g.Q):
        raise DomainError(f"gamma must lie in (0, Q), got {gamma}")
    return kernel_band_values(g, gamma - g.Q, u, points, spec)


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
    the true value at x = 5.99, alpha = 0).
    """
    if not (0 <= alpha < 1):
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    radii = check_radii(radii)
    pts = groups.as_points(g, points)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)

    src, _, cell = lattice_nodes(g, spec)
    uv = np.abs(np.asarray(u(src), dtype=float))
    cnt, m_r = ball_totals(g, pts, src, radii, uv, spec.lattice_h)
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
    ``translate_sums``.  A non-finite sample of u raises IntegrandError.
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
    src, dist, cell = nodes_by_gauge(g, resolve_R(spec), h)
    live = dist >= h
    Y, dY = src[live], dist[live]
    kern = dY ** (-N - 2.0 * s) * cell

    u_x = np.asarray(u(pts), dtype=float)
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

    ksum = np.concatenate([[0.0], np.cumsum(kern)])
    sums = translate_sums(g, u, pts, Y, kern, h)
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
    if g.law == groups.HEISENBERG1:
        px, py, pt = _coordinate_partials(u, pts)
        x, y = pts[..., 0], pts[..., 1]
        return np.stack([px - 0.5 * y * pt, py + 0.5 * x * pt], axis=-1)
    raise UnsupportedGroupError(f"no horizontal gradient for law {g.law!r}")


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
    if g.law == groups.HEISENBERG1:
        x, y = pts[..., 0], pts[..., 1]
        return (
            _second_partial(u, pts, 0, 0)
            + _second_partial(u, pts, 1, 1)
            - y * _second_partial(u, pts, 0, 2)
            + x * _second_partial(u, pts, 1, 2)
            + 0.25 * (x * x + y * y) * _second_partial(u, pts, 2, 2)
        )
    raise UnsupportedGroupError(f"no sub-Laplacian for law {g.law!r}")


# ---------------------------------------------------------------------------
# Hedberg split and three-zone decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HedbergSplit:
    j1: float
    j2: float
    rho: float


def _abs_u(u):
    def fn(pts):
        return np.abs(np.asarray(u(pts), dtype=float))

    fn.decay_radius = getattr(u, "decay_radius", math.inf)
    return fn


def hedberg_split(g, gamma, u, x, rho, spec) -> HedbergSplit:
    """Kernel integral of |u| split at distance rho from x.

    j1 covers {d <= rho}, j2 covers {rho < d <= R_max}; for u >= 0 the two
    parts sum to the full potential up to quadrature error.
    """
    if not (0 < gamma < g.Q):
        raise DomainError(f"gamma must lie in (0, Q), got {gamma}")
    if not (rho > 0):
        raise DomainError("rho must be positive")
    a = gamma - g.Q
    au = _abs_u(u)
    x = np.asarray(x, dtype=float)
    j1 = float(kernel_band_values(g, a, au, x, spec, r_lo=0.0, r_hi=rho))
    j2 = float(kernel_band_values(g, a, au, x, spec, r_lo=rho, r_hi=spec.R_max))
    return HedbergSplit(j1=j1, j2=j2, rho=float(rho))


def hedberg_optimal_rho(m_frac: float, m_0: float, p: float, Q: float, lam: float) -> float:
    """The split radius equalising the two Hedberg bounds."""
    if not (m_frac > 0 and m_0 > 0):
        raise DomainError("maximal values must be positive (u vanishes near x?)")
    if not (0 < lam < Q):
        raise DomainError("need 0 < lambda < Q")
    if not (p > 1):
        raise DomainError("need p > 1")
    return (m_frac / m_0) ** (p / (Q - lam))


def three_zone_split(g, gamma, u, x, spec):
    """Kernel integrals of |u| over the three gauge-annuli around the origin.

    Zones split the source by gauge(y): inside gauge(x)/2, the middle band,
    and outside 2 gauge(x).  Only the middle zone sees the kernel
    singularity.  The sum is an independent cross-check of the full
    potential.
    """
    if not (0 < gamma < g.Q):
        raise DomainError(f"gamma must lie in (0, Q), got {gamma}")
    x = np.asarray(np.atleast_1d(x), dtype=float)
    gx = float(groups.gauge(g, x))
    if gx == 0:
        raise DomainError("zones degenerate at x = 0")
    a = gamma - g.Q

    src, sdist, cell = lattice_nodes(g, spec)
    uv = np.abs(np.asarray(u(src), dtype=float))
    d = groups.gauge(g, groups.mul(g, -src, x))
    with np.errstate(divide="ignore"):
        kern = np.where(d > 0, d ** a, 0.0) * cell

    inner_mask = sdist < 0.5 * gx
    outer_mask = sdist > 2.0 * gx
    z1 = float(np.sum(uv[inner_mask] * kern[inner_mask]))
    z3 = float(np.sum(uv[outer_mask] * kern[outer_mask]))

    lo, hi = 0.5 * gx, 2.0 * gx

    def banded(pts):
        sd = groups.gauge(g, pts)
        vals = np.abs(np.asarray(u(pts), dtype=float))
        return np.where((sd >= lo) & (sd <= hi), vals, 0.0)

    banded.decay_radius = min(getattr(u, "decay_radius", math.inf), hi)
    z2 = float(kernel_band_values(g, a, banded, x, spec))
    return z1, z2, z3
