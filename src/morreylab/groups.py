"""Group arithmetic, dilations and homogeneous gauges.

The package works on concrete homogeneous groups realised on R^N: Euclidean
R^N (abelian, all dilation weights one) and the first Heisenberg group H^1
(N = 3, weights (1, 1, 2)).  Points are plain numpy arrays of shape
``(..., N)``; every operation is vectorised over the leading axes and is a
pure function of an immutable :class:`GroupDescriptor`.
"""

from __future__ import annotations

import itertools
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


def symmetries(g: GroupDescriptor) -> tuple:
    """The exact symmetries of g's lattices: ``(perm, signs)`` pairs, the identity first.

    Each is the signed permutation x -> signs * x[..., perm].  It maps
    every midpoint lattice onto itself node for node and preserves the
    gauge, Haar measure and ``quadrature._pair_gauges`` bit for bit:
    negating a coordinate negates its differences exactly.  On R^N these
    are the 2^N sign flips, and on R^2 the axis swap as well, since a
    two-term sum is commutative; on R^3 a swap would reorder the
    three-term sum (a + b) + c and is left out.  On H^1 they are the 8
    elements of the dihedral group D4, generated by the quarter turn
    (x0, x1, t) -> (-x1, x0, t), ((1, 0, 2), (-1, 1, 1)), and the
    reflection (x0, x1, t) -> (x0, -x1, -t), ((0, 1, 2), (1, -1, -1)):
    the sign of t is the orientation of the map on (x0, x1), because the
    cross term (x0 y1 - x1 y0) / 2 changes sign with it.  The table has 2^n
    maps, and map k is the product of the maps at the powers of two in k,
    the greater applied first: a single sign flip at each power below the
    permutations, then the swap.
    """
    h1 = g.law == HEISENBERG1
    ident = tuple(range(g.dimension))
    perms = (ident, (1, 0) + ident[2:]) if h1 or g.dimension == 2 else (ident,)
    out = []
    for perm in perms:
        for signs in itertools.product((1.0, -1.0), repeat=2 if h1 else g.dimension):
            if h1:
                # the orientation of the map on (x0, x1): a swap reverses it
                signs += (signs[0] * signs[1] * (1.0 if perm == ident else -1.0),)
            out.append((perm, signs))
    return tuple(out)


def orbit_classes(g: GroupDescriptor, rows: np.ndarray):
    """The orbits of ``rows`` under ``symmetries(g)``: ``(rep, inverse)``.

    ``rows`` is an (n, N) integer array that codes points exactly, so that
    negating a code negates its point: a map of the table sends row r to
    ``signs * r[perm]``.  ``rep`` holds the index of the first row of each
    orbit, in row order, and ``inverse`` each row's orbit, so that
    ``rep[inverse]`` maps every row to its orbit's first.  Each map's image
    of every row is coded as one integer by a single integer matrix
    product, and a row's orbit is keyed by the least code of its images.
    """
    N = rows.shape[1]
    top = int(np.abs(rows).max(initial=0))
    base = 2 * top + 1
    if base ** N > np.iinfo(np.int64).max:
        raise DomainError(f"orbit codes of {N} coordinates up to {top} overflow int64")
    # row k of ``code`` codes the image under map k: coordinate i of the
    # image, signs[i] * r[perm[i]], enters with the place value base^i
    code = np.zeros((len(symmetries(g)), N), np.int64)
    for k, (perm, signs) in enumerate(symmetries(g)):
        for i, (j, sign) in enumerate(zip(perm, signs)):
            code[k, j] = int(sign) * base ** i
    # (maps, rows): the least over the short leading axis is the fast one
    key = (code @ rows.T).min(axis=0)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    # orbits renumbered in the order of their first rows
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


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

