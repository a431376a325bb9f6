"""Group arithmetic, dilations and homogeneous gauges.

The package works on concrete homogeneous groups realised on R^N: Euclidean
R^N (abelian, all dilation weights one) and the first Heisenberg group H^1
(N = 3, weights (1, 1, 2)).  Points are plain numpy arrays of shape
``(..., N)``; every operation is vectorised over the leading axes and is a
pure function of an immutable :class:`GroupDescriptor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError, ShapeError

EUCLIDEAN = "euclidean"
HEISENBERG1 = "heisenberg1"
GAUGE_EUCLIDEAN = "euclidean"
GAUGE_KORANYI = "koranyi"

# Hard cap on outer-lattice columns for ball volume quadrature.
_MAX_VOLUME_COLUMNS = 4_000_000


@dataclass(frozen=True)
class GroupDescriptor:
    """A homogeneous group: its law and its dimension.

    The dilation weights and the gauge follow from the law: on Euclidean
    R^N every weight is one and the gauge is the Euclidean norm; H^1 has
    dimension 3, weights (1, 1, 2) and the Korányi gauge.  ``Q`` is the
    homogeneous dimension, the exact sum of the weights.
    """

    law: str
    dimension: int

    def __post_init__(self):
        if self.law not in (EUCLIDEAN, HEISENBERG1):
            raise DomainError(f"law {self.law!r} is unknown")
        if not isinstance(self.dimension, int) or self.dimension < 1:
            raise ShapeError(f"dimension must be an integer >= 1, got {self.dimension!r}")
        if self.law == HEISENBERG1 and self.dimension != 3:
            raise DomainError(f"dimension of {HEISENBERG1} is 3, got {self.dimension}")

    @property
    def weights(self) -> tuple:
        return (1, 1, 2) if self.law == HEISENBERG1 else (1,) * self.dimension

    @property
    def gauge_kind(self) -> str:
        return GAUGE_KORANYI if self.law == HEISENBERG1 else GAUGE_EUCLIDEAN

    @property
    def Q(self) -> float:
        return float(sum(self.weights))


def euclidean_group(dimension: int) -> GroupDescriptor:
    return GroupDescriptor(EUCLIDEAN, dimension)


def heisenberg_group() -> GroupDescriptor:
    return GroupDescriptor(HEISENBERG1, 3)


def as_points(g: GroupDescriptor, x) -> np.ndarray:
    """Validate and return an ``(..., N)`` float array of points."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != g.dimension:
        raise ShapeError(
            f"expected points of dimension {g.dimension}, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ShapeError("points must have finite coordinates")
    return arr


def dilate(g: GroupDescriptor, t: float, x) -> np.ndarray:
    """Anisotropic dilation: coordinate i is scaled by ``t**weights[i]``."""
    if not (t > 0) or not math.isfinite(t):
        raise DomainError(f"dilation parameter must be positive, got {t}")
    pts = as_points(g, x)
    scale = np.array([t ** w for w in g.weights])
    return pts * scale


def mul(g: GroupDescriptor, x, y) -> np.ndarray:
    """Group product, broadcasting over leading axes."""
    a = as_points(g, x)
    b = as_points(g, y)
    if g.law == EUCLIDEAN:
        return a + b
    out = np.broadcast_arrays(a, b)
    a, b = np.copy(out[0]), out[1]
    prod = a + b
    # symmetric (+/- 1/2 cross term) convention; inversion is negation
    prod[..., 2] += 0.5 * (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])
    return prod


def inv(g: GroupDescriptor, x) -> np.ndarray:
    return -as_points(g, x)


def squared_norm(pts) -> np.ndarray:
    """Sum of the squares of the coordinates, over the last axis of ``pts``.

    Summed one coordinate at a time in axis order, so it equals
    ``np.sum(pts * pts, axis=-1)`` bit for bit without numpy's inner loop
    per point over a trailing axis of length N <= 3.
    """
    acc = pts[..., 0] * pts[..., 0]
    for i in range(1, pts.shape[-1]):
        acc += pts[..., i] * pts[..., i]
    return acc


def gauge(g: GroupDescriptor, x) -> np.ndarray:
    """Homogeneous gauge |x|: 1-homogeneous, symmetric, zero only at 0."""
    pts = as_points(g, x)
    if g.law == EUCLIDEAN:
        return np.sqrt(squared_norm(pts))
    s = pts[..., 0] ** 2 + pts[..., 1] ** 2
    return (s * s + 16.0 * pts[..., 2] ** 2) ** 0.25


def coord_bound(g: GroupDescriptor, i: int, R: float) -> float:
    """Half-width in coordinate i of the bounding box of {gauge < R}."""
    if g.law == HEISENBERG1 and i == 2:
        return R * R / 4.0
    return R ** g.weights[i]


def quasi_ratio(g: GroupDescriptor, x, y) -> np.ndarray:
    """gauge(xy) / (gauge(x) + gauge(y)), with the 0/0 case set to 0.5."""
    gx = gauge(g, x)
    gy = gauge(g, y)
    denom = gx + gy
    num = gauge(g, mul(g, x, y))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), 0.5)
    return ratio


def estimate_quasi_constant(
    g: GroupDescriptor, samples: int = 1000, seed: int = 0, scale: float = 1.0
) -> float:
    """Sampled estimate of the quasi-triangle constant of the gauge.

    Draws ``samples`` pairs of normally distributed points (standard
    deviation ``scale`` per coordinate) and returns the largest observed
    ratio gauge(xy) / (gauge(x) + gauge(y)).  For gauges that are genuine
    norms the result stays at or below 1 up to rounding.
    """
    if samples < 100:
        raise DomainError("need at least 100 sample pairs")
    rng = np.random.default_rng(seed)
    xs = scale * rng.standard_normal((samples, g.dimension))
    ys = scale * rng.standard_normal((samples, g.dimension))
    return float(np.max(quasi_ratio(g, xs, ys)))


def column_half_width(g: GroupDescriptor, outer: np.ndarray, R) -> np.ndarray:
    """Half-width of {gauge < R} along the last axis, the others fixed at ``outer`` (..., N-1).

    The section is |t| < sqrt(R^4 - |z|^4) / 4 on H^1; zero where empty.
    ``R`` broadcasts against ``outer``'s leading shape.
    """
    if g.law == EUCLIDEAN:
        rem = R * R - np.sum(outer * outer, axis=-1)
        return np.sqrt(np.maximum(rem, 0.0))
    s = outer[..., 0] ** 2 + outer[..., 1] ** 2
    rem = R ** 4 - s * s
    return np.sqrt(np.maximum(rem, 0.0)) / 4.0


def _midpoint_axis(half_width: float, h: float) -> np.ndarray:
    n = max(1, int(math.ceil(half_width / h)))
    return (np.arange(-n, n) + 0.5) * h


def ball_volume(g: GroupDescriptor, R: float, h: float) -> float:
    """Numerical Haar volume of the quasi-ball {gauge < R}.

    Midpoint lattice over the first N-1 coordinates (spacing ``h**w_i``),
    exact section length in the last coordinate.  Satisfies
    ``ball_volume(R) == ball_volume(1) * R**Q`` up to quadrature error.
    """
    if not (R > 0):
        raise DomainError(f"radius must be positive, got {R}")
    if not (math.inf > h > 0):
        raise DomainError(f"spacing must be finite and positive, got {h}")
    if g.dimension == 1:
        return 2.0 * coord_bound(g, 0, R)
    h_c = h
    while math.prod(a.size for a in _volume_axes(g, R, h_c)) > _MAX_VOLUME_COLUMNS:
        h_c *= 2.0
    if h_c > h:
        # budget exhausted at the requested spacing: report the coarse estimate
        raise AccuracyError(
            f"ball volume lattice exceeds the column budget at h={h}",
            estimate=_ball_volume_columns(g, R, h_c),
        )
    return _ball_volume_columns(g, R, h)


def _volume_axes(g, R, h):
    """Midpoint axes of the first N-1 coordinates over the bounding box of {gauge < R}."""
    return [_midpoint_axis(coord_bound(g, i, R), h ** g.weights[i]) for i in range(g.dimension - 1)]


def _ball_volume_columns(g, R, h):
    grids = np.meshgrid(*_volume_axes(g, R, h), indexing="ij")
    outer = np.stack([gr.ravel() for gr in grids], axis=-1)
    widths = column_half_width(g, outer, R)
    cell = math.prod(h ** w for w in g.weights[:-1])
    return float(np.sum(2.0 * widths) * cell)


@lru_cache(maxsize=64)
def _unit_ball_volume_cached(g: GroupDescriptor, h: float) -> float:
    return ball_volume(g, 1.0, h)


def sphere_measure(g: GroupDescriptor, h: float) -> float:
    """Measure of the unit quasi-sphere in the polar decomposition.

    Forced by applying the polar formula to the unit-ball indicator:
    sigma = Q * |B(0,1)|.  The unit volume is a one-time geometric
    constant per group, so it is computed at a fine fixed spacing no
    coarser than the caller's spacing ``h``.
    """
    return g.Q * _unit_ball_volume_cached(g, min(h, 1.0 / 32.0))


def polar_integrate(g: GroupDescriptor, f_radial, R: float, h: float) -> float:
    """Integral of a gauge-radial function via the polar decomposition.

    Returns sigma * integral_0^R f(r) r^(Q-1) dr with the radial integral
    done by a fine midpoint rule and sigma = ``sphere_measure(g, h)``.
    ``f_radial`` must accept a numpy array of radii.  Radial profiles
    diverging at least as fast as r^(-Q) near zero are rejected.
    """
    if not (math.inf > R > 0):
        raise DomainError(f"radius must be finite and positive, got {R}")
    # probe the small-radius growth to reject non-integrable profiles
    eps = 1e-6 * R
    probe = np.asarray(f_radial(np.array([eps, 2.0 * eps])), dtype=float)
    if np.all(probe > 0):
        slope = math.log(probe[1] / probe[0]) / math.log(2.0)
        if slope <= -g.Q + 1e-9:
            raise DomainError(
                f"radial integrand grows like r^{slope:.3f} near 0; "
                f"needs exponent > -Q = {-g.Q}"
            )
    n = 1 << 15
    r = (np.arange(n) + 0.5) * (R / n)
    vals = np.asarray(f_radial(r), dtype=float) * r ** (g.Q - 1.0)
    radial = float(np.sum(vals) * (R / n))
    return sphere_measure(g, h) * radial
