"""Grid-sup estimators for global Morrey norms.

The double supremum over centres and radii is discretised: the estimate is
the max over a finite centre lattice and a geometric radius grid of
``(r^(-lam) * integral_{B(x,r)} |f|^p)^(1/p)``, a certified lower bound of
the true norm.  Ball integrals reuse one lattice evaluation of |f|^p and
one binning of the centre-node pairs by radius, so adding radii costs
nothing.  The gauge and Haar measure are invariant under the lattice's
exact symmetries (``groups.symmetries``), so for an input they leave
invariant a centre and its images carry one value: the harness passes
one centre per orbit, and the supremum over those is the supremum over
every centre.  A norm over balls about the identity alone is
``morrey_norm`` with that one centre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import groups
from .errors import DomainError, ShapeError
from .quadrature import (
    QuadratureSpec,
    ball_masses,
    check_radii,
    lattice_key,
    lattice_nodes,
    radius_grid,
)


@dataclass(frozen=True)
class MorreyParams:
    p: float
    lam: float
    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        if not (self.p > 1):
            raise DomainError("Morrey exponent p must exceed 1")
        if self.lam < 0:
            raise DomainError("lambda must be non-negative")
        if np.asarray(self.centers).size == 0:
            raise DomainError("need at least one centre")


@dataclass(frozen=True)
class MorreyEstimate:
    value: float
    argmax_center: np.ndarray
    argmax_radius: float
    truncation_note: bool


def default_centers(
    g: groups.GroupDescriptor, spec: QuadratureSpec, n_per_axis: int | None = None
) -> np.ndarray:
    """The identity, then a coarse anisotropic centre lattice in {0 < gauge <= R_max/2}.

    Each axis is its non-negative half, mirrored: the centres are closed
    under every map of ``groups.symmetries`` bit for bit.
    """
    if n_per_axis is None:
        n_per_axis = max(3, min(11, int(math.floor(125 ** (1.0 / g.dimension)))))
    R = spec.R_max / 2.0
    axes = []
    for i in range(g.dimension):
        bound = groups.coord_bound(g, i, R)
        half = np.linspace(-bound, bound, n_per_axis)[n_per_axis // 2 :]
        if n_per_axis > 1 and n_per_axis % 2:
            # linspace's middle point can miss 0 by an ulp of the bound
            half[0] = 0.0
        axes.append(np.concatenate([-half[::-1][: n_per_axis // 2], half]))
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([gr.ravel() for gr in grids], axis=-1)
    d = groups.gauge(g, pts)
    pts = pts[(d > 0) & (d <= R)]
    return np.vstack([np.zeros((1, g.dimension)), pts])


def morrey_sup_from_samples(
    g: groups.GroupDescriptor,
    p: float,
    lam: float,
    centers: np.ndarray,
    radii: np.ndarray,
    nodes: np.ndarray,
    values: np.ndarray,
    cellvol,
    lattice,
) -> MorreyEstimate:
    """Grid supremum from precomputed |f| samples on the nodes of a lattice.

    ``nodes`` are those of ``lattice_nodes`` and ``lattice`` their
    ``lattice_key``, on which the centre-node bins are memoised
    (``ball_masses``).  ``centers`` holds points of the group (ShapeError
    otherwise).  ``values`` holds one sample per node, and ``cellvol`` is
    either the scalar cell volume or an array of per-node quadrature
    masses (used when a singular gauge-power weight is folded into the
    measure instead of the samples); ShapeError when either does not
    match ``nodes`` in length, or ``nodes`` the lattice, IntegrandError
    naming the node when a sample or mass is not finite.
    """
    if not (0 <= lam <= g.Q):
        raise DomainError(f"lambda must lie in [0, Q], got {lam}")
    centers = groups.as_points(g, centers).reshape(-1, g.dimension)
    radii = check_radii(radii)
    nodes = np.asarray(nodes, dtype=float)
    values, cellvol = np.asarray(values, dtype=float), np.asarray(cellvol, dtype=float)
    if values.shape != nodes.shape[:1] or cellvol.shape not in ((), values.shape):
        raise ShapeError(f"need one sample per node and a scalar or per-node cellvol: {len(nodes)} "
                         f"nodes, values of shape {values.shape}, cellvol of shape {cellvol.shape}")
    vals = radii ** (-lam) * ball_masses(g, centers, radii, np.abs(values) ** p * cellvol, lattice)
    # first centre, then first radius, attaining the maximum
    i, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
    best_r = float(radii[k])
    return MorreyEstimate(
        value=max(float(vals[i, k]), 0.0) ** (1.0 / p),
        argmax_center=np.asarray(centers[i]),
        argmax_radius=best_r,
        truncation_note=bool(best_r == float(radii[-1])),
    )


def morrey_norm(
    g: groups.GroupDescriptor,
    params: MorreyParams,
    u,
    spec: QuadratureSpec,
) -> MorreyEstimate:
    """Global Morrey norm estimate of a test function.

    With lam = 0 and radii covering the support this reduces to the
    lattice L^p norm.  The ``truncation_note`` flag is set whenever the
    supremum sits at the largest radius, which signals a radius-capped
    (possibly divergent) supremum.
    """
    decay = getattr(u, "decay_radius", math.inf)
    R_eff = min(spec.R_max, decay) if math.isfinite(decay) else spec.R_max
    nodes, _, cell = lattice_nodes(g, spec, R_eff)
    values = np.asarray(u(nodes), dtype=float)
    est = morrey_sup_from_samples(
        g, params.p, params.lam, params.centers, params.radii, nodes, values, cell,
        lattice_key(spec, R_eff),
    )
    # a supremum sitting at the domain scale of an input that has not yet
    # decayed is radius-capped: flag it rather than report it silently
    if decay > spec.R_max and est.argmax_radius >= 0.95 * R_eff:
        est = replace(est, truncation_note=True)
    return est


def default_radii(g, u, spec: QuadratureSpec) -> np.ndarray:
    decay = getattr(u, "decay_radius", spec.R_max)
    if not math.isfinite(decay):
        decay = spec.R_max
    return radius_grid(spec, decay)
