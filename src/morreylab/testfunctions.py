"""Analytic test functions with decay metadata.

Every test function is callable on ``(..., N)`` point arrays.  The battery
spans smooth and rough behaviour: tensor Gaussians, one compactly
supported bump, and a truncated gauge power.  ``decay_radius`` is the
gauge radius beyond which |u| < 1e-12; it feeds truncation bookkeeping
and radius grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import groups
from .errors import DomainError, ShapeError

GAUSS = "gauss_tensor"
BUMP = "bump_compact"
POWER = "power_truncated"
CUSTOM = "custom_sampled"

_DECAY_THRESHOLD = 1e-12


@dataclass(frozen=True)
class TestFunction:
    """A test function u and its metadata.

    ``d4_invariant`` states a fact about u, not a choice: u(A x) = u(x)
    for every A in ``groups.symmetries(g)``.  On H^1 those are the
    elements of D4, generated by the quarter turn of (x0, x1) and
    (x0, x1, t) -> (x0, -x1, -t); on R^N the coordinate sign flips, and
    on R^2 the axis swap too.  The name is kept from when H^1 alone had
    a table.  Functions of ``squared_norm`` or of the gauge qualify on
    every law.  The harness then, on every law, takes each Morrey
    supremum over one centre per orbit and evaluates the Riesz and
    maximal factors on one node per orbit.
    """

    kind: str
    params: tuple
    fn: callable = field(repr=False)
    decay_radius: float = math.inf
    analytic_gradient: callable | None = field(default=None, repr=False)
    analytic_sub_laplacian: callable | None = field(default=None, repr=False)
    smooth: bool = True
    label: str = ""
    d4_invariant: bool = False

    def __post_init__(self):
        if not math.isfinite(self.decay_radius):
            raise DomainError("decay_radius must be finite")

    def __call__(self, pts):
        return self.fn(np.asarray(pts, dtype=float))


def _gauge_decay_radius(g, fn, start: float) -> float:
    """Smallest dyadic gauge radius R with max |u| < 1e-12 on the sphere.

    The sphere {gauge = R} is sampled by dilating a fixed set of unit-gauge
    directions, so the bound holds for every larger radius as well for the
    monotone-decay profiles shipped here.
    """
    rng = np.random.default_rng(12345)
    raw = rng.standard_normal((512, g.dimension))
    gs = groups.gauge(g, raw)
    keep = gs > 1e-9
    dirs = raw[keep]
    gs = gs[keep]
    # normalise to the unit gauge sphere via component-wise dilation
    scale = np.stack([(1.0 / gs) ** w for w in g.weights], axis=-1)
    dirs = dirs * scale
    # include the coordinate axes, where anisotropic gauges are extremal
    for i in range(g.dimension):
        e = np.zeros(g.dimension)
        e[i] = 1.0
        ge = groups.gauge(g, e)
        dirs = np.vstack([dirs, (e / np.array([ge ** w for w in g.weights]))[None, :]])
    R = max(start, 1e-6)
    for _ in range(80):
        pts = dirs * np.stack([np.full(len(dirs), R ** w) for w in g.weights], axis=-1)
        if np.max(np.abs(fn(pts))) < _DECAY_THRESHOLD:
            return R
        R *= 1.25
    raise DomainError("could not bracket the decay radius")


def _scale_squared(name: str, value: float) -> float:
    """value^2; DomainError naming ``name`` unless value > 0 and its square is finite and nonzero."""
    sq = value * value
    if not (value > 0 and 0 < sq < math.inf):
        raise DomainError(f"{name} must be positive with a finite nonzero square, got {value}")
    return sq


def gaussian(g: groups.GroupDescriptor, width: float = 1.0) -> TestFunction:
    """Tensor Gaussian exp(-|x|_E^2 / width^2)."""
    w2 = _scale_squared("width", width)

    def fn(pts):
        return np.exp(-groups.squared_norm(pts) / w2)

    if g.law == groups.HEISENBERG1:
        def grad_fn(pts):
            u = fn(pts)
            x, y, t = pts[..., 0], pts[..., 1], pts[..., 2]
            gx = (-2.0 * x + y * t) / w2 * u
            gy = (-2.0 * y - x * t) / w2 * u
            return np.stack([gx, gy], axis=-1)

        def sublap_fn(pts):
            u = fn(pts)
            x, y, t = pts[..., 0], pts[..., 1], pts[..., 2]
            f1 = (-2.0 * x + y * t) / w2
            f2 = (-2.0 * y - x * t) / w2
            lin = (-4.0 - 0.5 * (x * x + y * y)) / w2
            return (lin + f1 * f1 + f2 * f2) * u
    else:
        def grad_fn(pts):
            return (-2.0 / w2) * pts * fn(pts)[..., None]

        def sublap_fn(pts):
            r2 = groups.squared_norm(pts)
            return (-2.0 * g.dimension / w2 + 4.0 * r2 / (w2 * w2)) * fn(pts)

    decay = _gauge_decay_radius(g, fn, width)
    return TestFunction(
        kind=GAUSS,
        params=(width,),
        fn=fn,
        decay_radius=decay,
        analytic_gradient=grad_fn,
        analytic_sub_laplacian=sublap_fn,
        label=f"gauss(w={width:g})",
        d4_invariant=True,
    )


def bump(g: groups.GroupDescriptor, support_radius: float = 2.0) -> TestFunction:
    """Smooth compactly supported bump in the Euclidean coordinate ball."""
    r02 = _scale_squared("radius", support_radius)

    def fn(pts):
        s = groups.squared_norm(pts) / r02
        inside = s < 1.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals = np.where(inside, np.exp(1.0 - 1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
        return vals

    def grad_coord(pts):
        s = groups.squared_norm(pts) / r02
        inside = s < 1.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            u = np.where(inside, np.exp(1.0 - 1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
            fac = np.where(inside, -1.0 / np.maximum((1.0 - s) ** 2, 1e-300), 0.0)
        return u[..., None] * fac[..., None] * 2.0 * pts / r02

    grad_fn = grad_coord
    if g.law == groups.HEISENBERG1:
        def grad_fn(pts):
            gc = grad_coord(pts)
            x, y = pts[..., 0], pts[..., 1]
            gx = gc[..., 0] - 0.5 * y * gc[..., 2]
            gy = gc[..., 1] + 0.5 * x * gc[..., 2]
            return np.stack([gx, gy], axis=-1)

    decay = _gauge_decay_radius(g, fn, support_radius)
    return TestFunction(
        kind=BUMP,
        params=(support_radius,),
        fn=fn,
        decay_radius=decay,
        analytic_gradient=grad_fn,
        label=f"bump(r={support_radius:g})",
        d4_invariant=True,
    )


def power_truncated(
    g: groups.GroupDescriptor, exponent: float, support_radius: float = 1.0
) -> TestFunction:
    """gauge(x)^(-a) on {gauge < r0}: the rough member of the battery."""
    if not (0 < exponent < g.Q):
        raise DomainError(f"exponent must lie in (0, Q), got {exponent}")
    if support_radius <= 0:
        raise DomainError("radius must be positive")

    def fn(pts):
        d = groups.gauge(g, pts)
        with np.errstate(divide="ignore"):
            vals = np.where(d < support_radius, d ** (-exponent), 0.0)
        return vals

    return TestFunction(
        kind=POWER,
        params=(exponent, support_radius),
        fn=fn,
        decay_radius=support_radius,
        smooth=False,
        label=f"power(a={exponent:g},r={support_radius:g})",
        d4_invariant=True,
    )


def custom(
    fn,
    decay_radius: float,
    smooth: bool = False,
    analytic_gradient=None,
    analytic_sub_laplacian=None,
    label: str = "custom",
) -> TestFunction:
    return TestFunction(
        kind=CUSTOM,
        params=(),
        fn=fn,
        decay_radius=decay_radius,
        analytic_gradient=analytic_gradient,
        analytic_sub_laplacian=analytic_sub_laplacian,
        smooth=smooth,
        label=label,
    )


def dilated(g: groups.GroupDescriptor, u: TestFunction, t: float) -> TestFunction:
    """The composition x -> u(dilate(t, x)) with adjusted metadata.

    Horizontal gradients and sub-Laplacians transform with exact degrees
    1 and 2 under the dilation, so analytic forms are carried along.
    Dilations commute with the automorphisms of H^1, so ``d4_invariant``
    is carried too.
    """
    if not (0 < t < math.inf):
        raise DomainError(f"dilation parameter must be positive and finite, got {t}")
    if t == 1.0:
        return u
    try:
        scale = np.array([t ** w for w in g.weights])
    except OverflowError:
        scale = None
    if scale is None or not np.all(scale > 0):
        raise DomainError(f"dilation parameter {t} is out of range: some t**w overflows or underflows to 0")

    def dilate(pts):
        # pts * scale one coordinate at a time, each into a contiguous plane
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1:] != scale.shape:
            raise ShapeError(f"expected points of dimension {len(scale)}, got shape {pts.shape}")
        out = np.moveaxis(np.empty((len(scale),) + pts.shape[:-1]), 0, -1)
        for i, s in enumerate(scale):
            np.multiply(pts[..., i], s, out=out[..., i])
        return out

    def fn(pts):
        return u.fn(dilate(pts))

    grad_fn = None
    if u.analytic_gradient is not None:
        base_grad = u.analytic_gradient

        def grad_fn(pts):
            return t * base_grad(dilate(pts))

    sublap_fn = None
    if u.analytic_sub_laplacian is not None:
        base_sl = u.analytic_sub_laplacian

        def sublap_fn(pts):
            return t * t * base_sl(dilate(pts))

    return TestFunction(
        kind=u.kind,
        params=u.params + (("t", t),),
        fn=fn,
        decay_radius=u.decay_radius / t,
        analytic_gradient=grad_fn,
        analytic_sub_laplacian=sublap_fn,
        smooth=u.smooth,
        label=f"{u.label}*delta_{t:g}",
        d4_invariant=u.d4_invariant,
    )


def default_battery(
    g: groups.GroupDescriptor,
    lam: float | None = None,
    p: float = 2.0,
    widths=(0.5, 1.0, 2.0),
    bump_radius: float = 2.0,
) -> list[TestFunction]:
    """Gaussians at three widths, one bump, one truncated power.

    The power exponent is (Q - lam) / (2 p), safely inside integrability.
    """
    lam = 0.25 * g.Q if lam is None else lam
    battery = [gaussian(g, w) for w in widths]
    battery.append(bump(g, bump_radius))
    battery.append(power_truncated(g, (g.Q - lam) / (2.0 * p), 1.0))
    return battery
