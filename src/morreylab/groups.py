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
    """A homogeneous group: dimension, dilation weights, law and gauge.

    ``Q`` is the homogeneous dimension, always the exact sum of the
    weights.  Each law has one gauge: the Euclidean norm on R^N, the
    Korányi gauge on H^1.
    """

    dimension: int
    weights: tuple
    law: str
    gauge_kind: str

    def __post_init__(self):
        if self.dimension < 1 or len(self.weights) != self.dimension:
            raise ShapeError("weights must have one entry per dimension")
        if any(w <= 0 for w in self.weights):
            raise DomainError("dilation weights must be positive")
        if self.law == EUCLIDEAN:
            if any(w != 1 for w in self.weights):
                raise DomainError("euclidean law requires all weights equal to 1")
            if self.gauge_kind != GAUGE_EUCLIDEAN:
                raise DomainError("euclidean law requires the euclidean gauge")
        elif self.law == HEISENBERG1:
            if self.dimension != 3 or self.weights != (1, 1, 2):
                raise DomainError("heisenberg1 requires N=3 with weights (1,1,2)")
            if self.gauge_kind != GAUGE_KORANYI:
                raise DomainError("heisenberg1 requires the koranyi gauge")
        else:
            raise DomainError(f"unknown group law {self.law!r}")

    @property
    def Q(self) -> float:
        return float(sum(self.weights))

    @property
    def first_layer(self) -> int:
        """Size of the first layer of the stratification."""
        return 2 if self.law == HEISENBERG1 else self.dimension


def euclidean_group(dimension: int) -> GroupDescriptor:
    return GroupDescriptor(
        dimension=dimension,
        weights=(1,) * dimension,
        law=EUCLIDEAN,
        gauge_kind=GAUGE_EUCLIDEAN,
    )


def heisenberg_group() -> GroupDescriptor:
    return GroupDescriptor(
        dimension=3,
        weights=(1, 1, 2),
        law=HEISENBERG1,
        gauge_kind=GAUGE_KORANYI,
    )


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


def gauge(g: GroupDescriptor, x) -> np.ndarray:
    """Homogeneous gauge |x|: 1-homogeneous, symmetric, zero only at 0."""
    pts = as_points(g, x)
    if g.gauge_kind == GAUGE_EUCLIDEAN:
        return np.sqrt(np.sum(pts * pts, axis=-1))
    s = pts[..., 0] ** 2 + pts[..., 1] ** 2
    return (s * s + 16.0 * pts[..., 2] ** 2) ** 0.25


def coord_bound(g: GroupDescriptor, i: int, R: float) -> float:
    """Half-width in coordinate i of the bounding box of {gauge < R}."""
    if g.gauge_kind == GAUGE_KORANYI and i == 2:
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


def _column_half_width(g: GroupDescriptor, outer: np.ndarray, R: float) -> np.ndarray:
    """Extent of {gauge < R} in the last coordinate over fixed outer coords.

    ``outer`` has shape (M, N-1); returns the half-width of the section,
    zero where the section is empty.
    """
    if g.gauge_kind == GAUGE_EUCLIDEAN:
        rem = R * R - np.sum(outer * outer, axis=-1)
        return np.sqrt(np.maximum(rem, 0.0))
    s = outer[..., 0] ** 2 + outer[..., 1] ** 2
    rem = R ** 4 - s * s
    return np.sqrt(np.maximum(rem, 0.0)) / 4.0


def _midpoint_axis(half_width: float, h: float) -> np.ndarray:
    n = max(1, int(math.ceil(half_width / h)))
    return (np.arange(-n, n) + 0.5) * h


def ball_volume(g: GroupDescriptor, R: float, quad) -> float:
    """Numerical Haar volume of the quasi-ball {gauge < R}.

    Midpoint lattice over the first N-1 coordinates (spacing ``h**w_i``),
    exact section length in the last coordinate.  Satisfies
    ``ball_volume(R) == ball_volume(1) * R**Q`` up to quadrature error.
    """
    if not (R > 0):
        raise DomainError(f"radius must be positive, got {R}")
    h = quad.effective_h
    if g.dimension == 1:
        return 2.0 * coord_bound(g, 0, R)
    axes = [
        _midpoint_axis(coord_bound(g, i, R), h ** g.weights[i])
        for i in range(g.dimension - 1)
    ]
    n_cols = int(np.prod([a.size for a in axes]))
    if n_cols > _MAX_VOLUME_COLUMNS:
        # budget exhausted at the requested spacing: coarsen, report, raise
        h_c = h
        while n_cols > _MAX_VOLUME_COLUMNS:
            h_c *= 2.0
            n_cols = int(
                np.prod(
                    [
                        _midpoint_axis(coord_bound(g, i, R), h_c ** g.weights[i]).size
                        for i in range(g.dimension - 1)
                    ]
                )
            )
        raise AccuracyError(
            f"ball volume lattice exceeds the column budget at h={h}",
            estimate=_ball_volume_columns(g, R, None, h_c),
        )
    return _ball_volume_columns(g, R, axes, h)


def _ball_volume_columns(g, R, axes, h):
    if axes is None:
        axes = [
            _midpoint_axis(coord_bound(g, i, R), h ** g.weights[i])
            for i in range(g.dimension - 1)
        ]
    grids = np.meshgrid(*axes, indexing="ij")
    outer = np.stack([gr.ravel() for gr in grids], axis=-1)
    widths = _column_half_width(g, outer, R)
    cell = 1.0
    for i in range(g.dimension - 1):
        cell *= h ** g.weights[i]
    return float(np.sum(2.0 * widths) * cell)


@lru_cache(maxsize=64)
def _unit_ball_volume_cached(g: GroupDescriptor, h: float) -> float:
    from .quadrature import QuadratureSpec

    spec = QuadratureSpec(R_max=8.0, lattice_h=h)
    return ball_volume(g, 1.0, spec)


def sphere_measure(g: GroupDescriptor, quad) -> float:
    """Measure of the unit quasi-sphere in the polar decomposition.

    Forced by applying the polar formula to the unit-ball indicator:
    sigma = Q * |B(0,1)|.  The unit volume is a one-time geometric
    constant per group, so it is computed at a fine fixed spacing no
    coarser than the caller's lattice.
    """
    h = min(quad.effective_h, 1.0 / 32.0)
    return g.Q * _unit_ball_volume_cached(g, h)


def polar_integrate(g: GroupDescriptor, f_radial, quad) -> float:
    """Integral of a gauge-radial function via the polar decomposition.

    Returns sigma * integral_0^R_max f(r) r^(Q-1) dr with the radial
    integral done by a fine midpoint rule.  ``f_radial`` must accept a
    numpy array of radii.  Radial profiles diverging at least as fast
    as r^(-Q) near zero are rejected.
    """
    R = quad.R_max
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
    return sphere_measure(g, quad) * radial
