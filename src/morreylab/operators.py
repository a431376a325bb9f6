"""Integral and differential operators on homogeneous groups.

Pointwise operators come in scalar form (with error estimates where the
engine provides them) and in batch form (``*_values``), which evaluates
the same integral at many points from one shared source lattice.  Batch
forms exist because norm estimation needs operator values on ~10^4
lattice nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import groups
from .errors import DomainError, UnsupportedGroupError
from .quadrature import (
    QuadratureSpec,
    ball_bin_table,
    ball_bins,
    ball_sums,
    kernel_band_values,
    lattice_nodes,
    nodes_by_gauge,
    product_lattice,
    resolve_R,
    shell_integrate_singular,
    source_blocks,
    translate_sums,
)

_EPS3 = np.finfo(float).eps ** (1.0 / 3.0)
_EPS4 = np.finfo(float).eps ** 0.25


# centre-node pairs per block of the maximal operator's ball sums: a fixed
# pair budget bounds its temporaries (about 1 MB each) whatever the
# lattice size
_MAXIMAL_PAIRS = 1 << 17
# points per block of the fractional Laplacian's translate sums
_FRACLAP_CHUNK = 128


# ---------------------------------------------------------------------------
# Riesz potential
# ---------------------------------------------------------------------------

def riesz_potential(
    g: groups.GroupDescriptor,
    gamma: float,
    u,
    x,
    spec: QuadratureSpec,
) -> float:
    """Convolution of u with gauge^(gamma - Q) at the point x.

    Exact change of variables gives the covariance
    ``riesz(u o dilate_t)(x) = t^(-gamma) riesz(u)(dilate_t x)``, which the
    test suite uses as its oracle.
    """
    if not (0 < gamma < g.Q):
        raise DomainError(f"gamma must lie in (0, Q), got {gamma}")
    return shell_integrate_singular(g, gamma - g.Q, u, x, spec).value


def riesz_values(
    g: groups.GroupDescriptor,
    gamma: float,
    u,
    points,
    spec: QuadratureSpec,
) -> np.ndarray:
    if not (0 < gamma < g.Q):
        raise DomainError(f"gamma must lie in (0, Q), got {gamma}")
    return kernel_band_values(g, gamma - g.Q, u, points, spec)


# ---------------------------------------------------------------------------
# maximal operators
# ---------------------------------------------------------------------------

def _check_radii(radii):
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0 or np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise DomainError("radius grid must be non-empty, positive, increasing")
    return radii


def frac_maximal_values(
    g: groups.GroupDescriptor,
    alpha: float,
    u,
    points,
    radii,
    spec: QuadratureSpec,
) -> np.ndarray:
    """sup over the radius grid of |B(x,r)|^(alpha-1) * integral_B |u|.

    Ball masses and ball volumes use the same lattice nodes, so constants
    are reproduced exactly at radii whose ball stays inside the truncated
    domain; larger balls extend the volume by the exact r^Q scaling law.
    The result is a lower bound of the true supremum up to quadrature
    error.
    """
    if not (0 <= alpha < 1):
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    radii = _check_radii(radii)
    pts = groups.as_points(g, points)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)

    src, sdist, cell = lattice_nodes(g, spec)
    uv = np.abs(np.asarray(u(src), dtype=float))
    n = len(radii)
    gauge_pts = groups.gauge(g, pts)
    # on-lattice centres: -c is a node too, so every pair's gauge is read
    # from one table over the product grid, near-ties aside
    lat = product_lattice(g, -pts, src, spec.effective_h)
    if lat is not None:
        table = ball_bin_table(g, lat, radii, max(np.max(gauge_pts), np.max(sdist)))
    # balls that leave the domain scale their volume from the last ball
    # inside it (or from one cell at r_dom) by r^Q
    r_dom = np.maximum(spec.R_max - gauge_pts, 4.0 * spec.effective_h)
    j = np.searchsorted(radii, r_dom, side="right") - 1
    beyond = radii > r_dom[:, None]
    out = np.zeros(pts.shape[0])

    step = max(1, _MAXIMAL_PAIRS // len(src))
    for start in range(0, pts.shape[0], step):
        sl = slice(start, start + step)
        known = None if lat is None else table[lat.index(sl)]
        bins = ball_bins(g, src, pts[sl], radii, known)
        cnt = ball_sums(bins, n).astype(float)
        m_r = ball_sums(bins, n, uv) * cell
        rows = np.arange(cnt.shape[0])
        jc = np.maximum(j[sl], 0)
        has_base = (j[sl] >= 0) & (cnt[rows, jc] > 0)
        base_v = np.where(has_base, cnt[rows, jc] * cell, cell)[:, None]
        base_r = np.where(has_base, radii[jc], r_dom[sl])[:, None]
        vol = np.where(beyond[sl], base_v * (radii / base_r) ** g.Q, cnt * cell)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(vol > 0, vol ** (alpha - 1.0) * m_r, 0.0)
        out[sl] = np.max(vals, axis=1)
    return out[0] if single else out


def frac_maximal(g, alpha, u, x, radii, spec) -> float:
    return float(frac_maximal_values(g, alpha, u, np.asarray(x, dtype=float), radii, spec))


def hl_maximal(g, u, x, radii, spec) -> float:
    """Hardy-Littlewood maximal function: the alpha = 0 fractional case."""
    return frac_maximal(g, 0.0, u, x, radii, spec)


def hl_maximal_values(g, u, points, radii, spec) -> np.ndarray:
    return frac_maximal_values(g, 0.0, u, points, radii, spec)


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
    R_max the omitted far tail of the 2u(x) term is added in closed form
    beyond each block's ``source_blocks`` cap; non-decaying inputs (e.g.
    oscillatory probes) instead need R_max large enough that the tail is
    below tolerance.  The node set is symmetric, so
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
    h = spec.effective_h
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
        for rows, cap in source_blocks(groups.gauge(g, pts), decay, h, _FRACLAP_CHUNK):
            cap = min(cap, spec.R_max)
            jmax[rows] = np.searchsorted(dY, cap, side="right")
            tail[rows] = 2.0 * u_x[rows] * area * cap ** (-2.0 * s) / (2.0 * s)

    ksum = np.concatenate([[0.0], np.cumsum(kern)])
    sums = translate_sums(g, u, pts, Y, dY, kern, h, _FRACLAP_CHUNK)
    vals = 0.5 * A * (2.0 * u_x * ksum[jmax] - 2.0 * sums + inner + tail)
    return vals[0] if single else vals


def frac_laplacian(g, s, u, x, spec) -> float:
    return float(frac_laplacian_values(g, s, u, np.asarray(x, dtype=float), spec))


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


def horizontal_gradient(g, u, x) -> np.ndarray:
    return horizontal_gradient_values(g, u, np.asarray(x, dtype=float)[None, :])[0]


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


def sub_laplacian(g, u, x) -> float:
    return float(sub_laplacian_values(g, u, np.asarray(x, dtype=float)[None, :])[0])


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
