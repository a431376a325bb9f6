"""Theorem-level verification harness.

Exponent tuples are checked against each inequality's hypothesis set
(in the order the hypotheses are stated, with q derived from the
exponent relation, never user-supplied).  Accepted configurations feed
ratio computations and dilation sweeps whose oracle is exact scale
covariance: for an admissible tuple the two sides of the inequality
scale identically under u -> u o dilate_t, so the ratio is t-invariant
and the predicted log-log slope is zero.  Deliberately perturbing the
derived exponent produces a known nonzero slope (the negative control).

Admissibility arithmetic is plain Python, so ``fractions.Fraction``
inputs flow through exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import groups, morrey, operators, quadrature
from .errors import DegenerateInputError, DomainError
from .quadrature import (
    QuadratureSpec,
    geometric_radii,
    lattice_key,
    lattice_nodes,
    orbit_nodes,
    resolve_R,
)
from .testfunctions import TestFunction, dilated

@dataclass(frozen=True)
class ExponentConfig:
    theorem: str
    Q: object
    p: object
    gamma: object = None
    alpha: object = 0
    beta: object = 0
    lam: object = None
    a: object = None
    r_exp: object = None
    q: object = None
    admissible_flag: bool = False

    @property
    def p_prime(self):
        return self.p / (self.p - 1)

    def as_floats(self) -> dict:
        out = {}
        for name in ("Q", "p", "gamma", "alpha", "beta", "lam", "a", "r_exp", "q"):
            v = getattr(self, name)
            out[name] = None if v is None else float(v)
        out["theorem"] = self.theorem
        out["admissible"] = self.admissible_flag
        return out


@dataclass(frozen=True)
class Rejection:
    theorem: str
    condition: str


@dataclass(frozen=True)
class MorreyGrids:
    centers: np.ndarray
    radii: np.ndarray


@dataclass(frozen=True)
class RatioSweepRecord:
    config: ExponentConfig
    t_values: tuple
    ratios: tuple
    fitted_slope: float
    predicted_mismatch: float
    estimated_constant: float
    degenerate: bool = False
    grid_meta: dict = field(default_factory=dict)
    # per t, per factor (lhs first): where the Morrey supremum sat
    suprema: tuple = ()


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _eq(x, y) -> bool:
    if _is_exact(x) and _is_exact(y):
        return x == y
    fx, fy = float(x), float(y)
    return abs(fx - fy) <= 1e-12 * max(1.0, abs(fx), abs(fy))


def _le(x, y) -> bool:
    if _is_exact(x) and _is_exact(y):
        return x <= y
    return float(x) <= float(y) + 1e-12 * max(1.0, abs(float(x)), abs(float(y)))


def _check_finite(kwargs):
    for name, v in kwargs.items():
        if v is None:
            continue
        if isinstance(v, float) and not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v}")
        if not isinstance(v, numbers.Real):
            raise DomainError(f"{name} must be a real number")


# Each hypothesis once, keyed by the label a rejection names.  ``c`` holds
# the exponents; q is None until the theorem's relation derives it.
_HYPOTHESES = {
    "α=β=0": lambda c: _eq(c["alpha"], 0) and _eq(c["beta"], 0),
    "α+β=1": lambda c: _eq(c["alpha"] + c["beta"], 1),
    "α+β=2": lambda c: _eq(c["alpha"] + c["beta"], 2),
    "α+β=γ∈(0,1)": lambda c: _eq(c["alpha"] + c["beta"], c["gamma"]) and 0 < c["gamma"] < 1,
    "α+β=γ∈(1,2)": lambda c: _eq(c["alpha"] + c["beta"], c["gamma"]) and 1 < c["gamma"] < 2,
    "0≤α+β≤γ<Q": lambda c: _le(0, c["alpha"] + c["beta"])
    and _le(c["alpha"] + c["beta"], c["gamma"])
    and c["gamma"] < c["Q"],
    "0<γ<Q": lambda c: 0 < c["gamma"] < c["Q"],
    "γ∈(0,1)": lambda c: 0 < c["gamma"] < 1,
    "1<p<∞": lambda c: 1 < c["p"],
    "p=2": lambda c: _eq(c["p"], 2),
    "1<p<Q": lambda c: 1 < c["p"] < c["Q"],
    "1<p<Q/γ": lambda c: 1 < c["p"] < c["Q"] / c["gamma"],
    "1<p<Q/(γ−α−β)": lambda c: 1 < c["p"]
    and (
        _eq(c["gamma"] - c["alpha"] - c["beta"], 0)
        or c["p"] < c["Q"] / (c["gamma"] - c["alpha"] - c["beta"])
    ),
    "1<p<q<∞": lambda c: c["q"] is not None and 1 < c["p"] < c["q"],
    "Q>γp": lambda c: c["Q"] > c["gamma"] * c["p"],
    "α<Q/p′": lambda c: c["alpha"] < c["Q"] * (c["p"] - 1) / c["p"],
    "β<(Q−λ)/p": lambda c: c["beta"] < (c["Q"] - c["lam"]) / c["p"],
    # vacuous when the relation failed: the λ condition listed after it
    # is then necessarily the violated one
    "β<(Q−λ)/q": lambda c: c["q"] is None or c["beta"] < (c["Q"] - c["lam"]) / c["q"],
    "0<λ<Q": lambda c: 0 < c["lam"] < c["Q"],
    "0<λ<Q−2": lambda c: 0 < c["lam"] < c["Q"] - 2,
    "0<λ<Q−p": lambda c: 0 < c["lam"] < c["Q"] - c["p"],
    "0<λ<Q−γp": lambda c: 0 < c["lam"] < c["Q"] - c["gamma"] * c["p"],
    "0<λ<Q−(γ−α−β)p": lambda c: 0 < c["lam"]
    and c["lam"] < c["Q"] - (c["gamma"] - c["alpha"] - c["beta"]) * c["p"],
    "0<λ<min{Q,Q−βp}": lambda c: 0 < c["lam"]
    and c["lam"] < min(c["Q"], c["Q"] - c["beta"] * c["p"]),
    "0<λ<min{Q,Q−γp}": lambda c: 0 < c["lam"]
    and c["lam"] < min(c["Q"], c["Q"] - c["gamma"] * c["p"]),
    "0<λ<min{Q−βp,Q−(γ−α−β)p}": lambda c: 0 < c["lam"]
    and c["lam"]
    < min(
        c["Q"] - c["beta"] * c["p"],
        c["Q"] - (c["gamma"] - c["alpha"] - c["beta"]) * c["p"],
    ),
    "a∈[0,1]": lambda c: c["a"] is not None and _le(0, c["a"]) and _le(c["a"], 1),
    "r≥1": lambda c: c["r_exp"] is not None and _le(1, c["r_exp"]),
    "q>1": lambda c: c["q"] is not None and c["q"] > 1,
}
# the same predicates under the labels that state them with γ = 1
# (Hardy–Sobolev) or as a one-sided bound
_HYPOTHESES.update({
    "p>1": _HYPOTHESES["1<p<∞"],
    "0≤α+β≤1<Q": _HYPOTHESES["0≤α+β≤γ<Q"],
    "1<p<Q/(1−α−β)": _HYPOTHESES["1<p<Q/(γ−α−β)"],
    "0<λ<min{Q−βp,Q−(1−α−β)p}": _HYPOTHESES["0<λ<min{Q−βp,Q−(γ−α−β)p}"],
})

# 1/q as a function of the exponents and d = Q − λ > 0
_RELATIONS = {
    "gamma": lambda c, d: 1 / c["p"] - c["gamma"] / d,
    "gamma_eff": lambda c, d: 1 / c["p"] - (c["gamma"] - c["alpha"] - c["beta"]) / d,
    "gn": lambda c, d: c["a"] * (1 / c["p"] - 1 / d) + (1 - c["a"]) / c["r_exp"],
    "gn_gamma": lambda c, d: c["a"] * (1 / c["p"] - c["gamma"] / d)
    + (1 - c["a"]) / c["r_exp"],
}

# Operator homogeneity degrees are exact change-of-variable facts:
# gradient 1, sub-Laplacian 2, (-Delta)^s with s = gamma/2 degree gamma,
# Riesz potential -gamma, maximal operator 0.
_DEGREES = {"id": 0, "maximal": 0, "grad": 1, "sublap": 2,
            "fraclap": "gamma", "riesz": "-gamma"}


def differentiates(cfg: ExponentConfig) -> bool:
    """Whether the theorem differentiates u: a factor's operator of
    positive degree (gradient, sub-Laplacian, fractional Laplacian)
    needs a smooth test function."""
    lhs, rhs = _factors(cfg)
    return any(f["degree"] > 0 for f in (lhs, *rhs))


class _Theorem(NamedTuple):
    """One inequality.  A factor is (norm exponent, weight power, operator,
    power); each of its numbers is a constant, a config field name, or
    "-name" / "1-name" of one."""

    gamma: object  # the fixed γ, or None when the caller supplies it
    relation: str | None  # key of _RELATIONS that derives q; None: q = p
    hypotheses: tuple  # labels in the order stated; "q" marks where q is derived
    lhs: tuple
    rhs: tuple


_THEOREMS = {
    "adams_hls": _Theorem(
        None, "gamma", ("α=β=0", "0<γ<Q", "1<p<Q/γ", "q", "1<p<q<∞", "0<λ<Q−γp"),
        ("q", "-beta", "riesz", 1), (("p", "alpha", "id", 1),)),
    "stein_weiss_adams": _Theorem(
        None, "gamma_eff", ("0≤α+β≤γ<Q", "1<p<Q/(γ−α−β)", "q", "α<Q/p′",
                            "β<(Q−λ)/q", "0<λ<Q−(γ−α−β)p"),
        ("q", "-beta", "riesz", 1), (("p", "alpha", "id", 1),)),
    "maximal_bound": _Theorem(
        None, None, ("p>1", "0<λ<Q"),
        ("p", 0, "maximal", 1), (("p", 0, "id", 1),)),
    "hardy": _Theorem(
        1, None, ("1<p<∞", "α<Q/p′", "β<(Q−λ)/p", "α+β=1", "0<λ<min{Q,Q−βp}"),
        ("p", "-beta", "id", 1), (("p", "alpha", "grad", 1),)),
    "hardy_sobolev": _Theorem(
        1, "gamma_eff", ("0≤α+β≤1<Q", "1<p<Q/(1−α−β)", "q", "α<Q/p′",
                         "β<(Q−λ)/q", "0<λ<min{Q−βp,Q−(1−α−β)p}"),
        ("q", "-beta", "id", 1), (("p", "alpha", "grad", 1),)),
    "rellich": _Theorem(
        2, None, ("α+β=2", "1<p<∞", "α<Q/p′", "β<(Q−λ)/p", "0<λ<min{Q,Q−βp}"),
        ("p", "-beta", "id", 1), (("p", "alpha", "sublap", 1),)),
    "gagliardo_nirenberg": _Theorem(
        1, "gn", ("1<p<Q", "0<λ<Q−p", "a∈[0,1]", "r≥1", "q", "q>1"),
        ("q", 0, "id", 1), (("p", 0, "grad", "a"), ("r_exp", 0, "id", "1-a"))),
    "uncertainty": _Theorem(
        1, None, ("p=2", "0<λ<Q−2"),
        (2, 0, "id", 2), ((2, 1, "id", 1), (2, 0, "grad", 1))),
    "frac_hardy": _Theorem(
        None, None, ("1<p<∞", "α<Q/p′", "β<(Q−λ)/p", "α+β=γ∈(0,1)", "0<λ<min{Q,Q−βp}"),
        ("p", "-beta", "id", 1), (("p", "alpha", "fraclap", 1),)),
    "frac_hardy_sobolev": _Theorem(
        None, "gamma_eff", ("γ∈(0,1)", "0≤α+β≤γ<Q", "1<p<Q/(γ−α−β)",
                            "0<λ<min{Q−βp,Q−(γ−α−β)p}", "q"),
        ("q", "-beta", "id", 1), (("p", "alpha", "fraclap", 1),)),
    "frac_rellich": _Theorem(
        None, None, ("p>1", "α<Q/p′", "β<(Q−λ)/p", "α+β=γ∈(1,2)", "Q>γp",
                     "0<λ<min{Q,Q−γp}"),
        ("p", "-beta", "id", 1), (("p", "alpha", "fraclap", 1),)),
    "frac_gn": _Theorem(
        None, "gn_gamma", ("γ∈(0,1)", "1<p<Q/γ", "0<λ<Q−γp", "a∈[0,1]", "r≥1", "q", "q>1"),
        ("q", 0, "id", 1), (("p", 0, "fraclap", "a"), ("r_exp", 0, "id", "1-a"))),
}
THEOREMS = tuple(_THEOREMS)


def _derive_q(relation, c):
    d = c["Q"] - c["lam"]
    if d <= 0:
        return None
    inv = _RELATIONS[relation](c, d)
    if inv <= 0:
        return None
    return 1 / inv


def admissible(
    theorem: str,
    Q,
    p,
    gamma=None,
    alpha=0,
    beta=0,
    lam=None,
    a=None,
    r_exp=None,
):
    """Complete an exponent tuple or reject it with the violated hypothesis.

    The hypotheses are evaluated in the order the inequality states them;
    the derived exponent q comes from the theorem's relation.  Rejection
    is a returned value, never an exception.  Exact (int / Fraction)
    inputs are processed exactly.
    """
    if theorem not in _THEOREMS:
        raise DomainError(f"unknown theorem {theorem!r}")
    entry = _THEOREMS[theorem]
    _check_finite(dict(Q=Q, p=p, gamma=gamma, alpha=alpha, beta=beta,
                       lam=lam, a=a, r_exp=r_exp))
    if lam is None:
        raise DomainError("lambda is required")
    supplied = [v for v in (Q, p, gamma, alpha, beta, lam, a, r_exp) if v is not None]
    if all(_is_exact(v) for v in supplied):
        # keep integer tuples exact end to end
        Q, p, lam = Fraction(Q), Fraction(p), Fraction(lam)
        alpha, beta = Fraction(alpha), Fraction(beta)
        gamma = None if gamma is None else Fraction(gamma)
        a = None if a is None else Fraction(a)
        r_exp = None if r_exp is None else Fraction(r_exp)
    if gamma is None:
        gamma = entry.gamma
        if gamma is None and theorem != "maximal_bound":
            raise DomainError(f"{theorem} requires gamma")
    elif entry.gamma is not None and not _eq(gamma, entry.gamma):
        raise DomainError(f"{theorem} fixes gamma = {entry.gamma}, got {gamma}")
    c = dict(theorem=theorem, Q=Q, p=p, gamma=gamma, alpha=alpha, beta=beta,
             lam=lam, a=a, r_exp=r_exp, q=None)
    for label in entry.hypotheses:
        if label == "q":
            c["q"] = _derive_q(entry.relation, c)
        elif not _HYPOTHESES[label](c):
            return Rejection(theorem=theorem, condition=label)
    if c["q"] is None:
        c["q"] = c["p"] if theorem != "uncertainty" else 2
    if theorem == "uncertainty":
        c["r_exp"] = 2
    return ExponentConfig(
        theorem=theorem, Q=Q, p=c["p"], gamma=c["gamma"], alpha=alpha, beta=beta,
        lam=lam, a=a, r_exp=c["r_exp"], q=c["q"], admissible_flag=True,
    )


def perturb_q(cfg: ExponentConfig, delta_inv_q):
    """Shift 1/q by delta and clear the admissibility flag (negative control)."""
    if delta_inv_q == 0:
        return cfg
    inv = 1 / cfg.q + delta_inv_q
    if inv <= 0:
        raise DomainError("perturbed 1/q is non-positive (q would be infinite)")
    q_new = 1 / inv
    if q_new <= 1:
        raise DomainError(f"perturbed q = {q_new} must exceed 1")
    return replace(cfg, q=q_new, admissible_flag=False)


# ---------------------------------------------------------------------------
# scale algebra
# ---------------------------------------------------------------------------

def _term(cfg: ExponentConfig, x):
    """A factor entry of the theorem table evaluated on ``cfg``."""
    if not isinstance(x, str):
        return x
    if x.startswith("1-"):
        return 1 - getattr(cfg, x[2:])
    if x.startswith("-"):
        return -getattr(cfg, x[1:])
    return getattr(cfg, x)


def _factors(cfg: ExponentConfig):
    """(lhs_factor, rhs_factors): norm exponent, weight power, operator, power,
    and the operator's homogeneity degree."""
    entry = _THEOREMS[cfg.theorem]

    def factor(exp, theta, op, power):
        return dict(exp=_term(cfg, exp), theta=_term(cfg, theta), op=op,
                    degree=_term(cfg, _DEGREES[op]), power=_term(cfg, power))

    return factor(*entry.lhs), [factor(*f) for f in entry.rhs]


def predicted_mismatch(cfg: ExponentConfig):
    """Log-log slope of the two-sided ratio under u -> u o dilate_t.

    Each Morrey factor of weight power theta, operator degree d and norm
    exponent m scales with exponent d - theta + (lam - Q)/m; the mismatch
    is the lhs total minus the rhs total and vanishes exactly on
    admissible tuples.
    """
    lhs, rhs = _factors(cfg)
    lamQ = cfg.lam - cfg.Q

    def e(f):
        deg = f["degree"]
        return f["power"] * (deg - f["theta"] + lamQ / f["exp"])

    return e(lhs) - sum(e(f) for f in rhs)


# ---------------------------------------------------------------------------
# inequality sides
# ---------------------------------------------------------------------------

# operator tag -> the function on ``operators`` that evaluates it
_OPERATORS = {"riesz": "riesz_values", "grad": "horizontal_gradient_values",
              "sublap": "sub_laplacian_values", "fraclap": "frac_laplacian_values",
              "maximal": "frac_maximal_values"}


def _op_values(g, op, cfg, u: TestFunction, spec, R_eff):
    """Read-only values of the factor operator ``op`` applied to ``u`` at
    the nodes of ``lattice_nodes(g, spec, R_eff)``, modulus taken.

    The values are memoised on (g, op, the evaluating callable as looked
    up now, its parameter, u, spec, R_eff): γ for ``riesz``, s = γ/2 for
    ``fraclap``, none for the other tags, so sweeps that differ only in
    exponents the operator does not read (a tuple and its ``perturb_q``
    control) evaluate it once.  Keying on the callable means a patched or
    traced operator never receives values another function computed.
    The memo assumes a test function is pure: one object gives one set
    of values.
    """
    if op == "id":
        fn = type(u).__call__
    elif op in _OPERATORS:
        fn = getattr(operators, _OPERATORS[op])
    else:
        raise DomainError(f"unknown operator tag {op!r}")
    param = None
    if op == "riesz":
        param = float(cfg.gamma)
    elif op == "fraclap":
        param = float(cfg.gamma) / 2.0
    return _op_values_cached(g, op, fn, param, u, spec, R_eff)


def _on_orbits(op, u) -> bool:
    """Whether the factor ``op`` of ``u`` runs on one node per symmetry orbit.

    A ``u`` flagged ``d4_invariant`` gives values that every map of
    ``groups.symmetries(g)`` maps onto themselves, on every law: each
    factor operator commutes with them, T(u o A) = (T u) o A, the gradient
    enters through its norm, and the lattice is mapped onto itself.  Every
    tag but ``fraclap`` then runs on the first node of each orbit
    (``orbit_nodes``); the fractional Laplacian's value at a point depends
    on the other points of the call, by more than rounding (the blocks of
    its source caps), so it runs on every node, as every other input does.
    """
    return op != "fraclap" and getattr(u, "d4_invariant", False)


# sized from the longest reuse distance of the benchmark sweeps: 20 factor
# evaluations in euclid_consequences (16 entries lose 5 of its 150 hits)
@lru_cache(maxsize=20)
def _op_values_cached(g, op, fn, param, u, spec, R_eff):
    """The values of ``_op_values`` at the nodes of ``orbit_nodes(g, lattice, _on_orbits(op, u))``.

    For an invariant ``u`` every tag but ``fraclap`` is evaluated and
    returned at the first node of each orbit (about one node in eight on
    H^1, R^2 and R^3, one in two on R^1), with no copy to the other nodes:
    each value stands for its whole orbit, and differs from the value at
    any other node of the orbit by rounding only.  Otherwise the values
    are those of every node.
    """
    nodes = orbit_nodes(g, lattice_key(spec, R_eff), _on_orbits(op, u))[0]
    if op == "id":
        vals = np.abs(np.asarray(fn(u, nodes), dtype=float))
    elif op in ("riesz", "fraclap"):
        vals = np.abs(fn(g, param, u, nodes, spec))
    elif op == "grad":
        grad = fn(g, u, nodes)
        vals = np.sqrt(groups.squared_norm(grad))
    elif op == "sublap":
        vals = np.abs(fn(g, u, nodes))
    else:  # maximal
        vals = fn(g, 0.0, u, nodes, morrey.default_radii(g, u, spec), spec)
    vals.setflags(write=False)
    return vals


# one entry per centre grid: a pass of any bench workload uses at most four
@lru_cache(maxsize=8)
def _orbit_centers(g, centers: bytes) -> np.ndarray:
    """The centres (the bytes of an (n, N) float array) without those that are exact images of earlier ones.

    Centre i is dropped when A c_i, for some A of ``groups.symmetries(g)``,
    equals a centre j < i: ``groups.orbit_classes`` keeps the first
    centre of each orbit, each value coded by the signed rank of its
    absolute value, so that -0.0 and 0.0 share code 0.  The rest keep
    their values and order (read-only), so the first of them attaining a
    maximum is the first centre that does whenever the values of an orbit
    tie.  A grid that the maps do not close up loses only the centres
    whose images it holds.
    """
    given = np.frombuffer(centers).reshape(-1, g.dimension)
    rank = np.unique(np.append(np.abs(given), 0.0), return_inverse=True)[1][:-1].reshape(given.shape)
    out = given[groups.orbit_classes(g, np.where(given < 0, -rank, rank))[0]]
    out.setflags(write=False)
    return out


def _factor_norm(g, factor, cfg, u, grids: MorreyGrids, spec):
    """The Morrey estimate of one factor of the theorem on ``grids``.

    For a ``u`` flagged ``d4_invariant`` the samples of every factor tag
    are invariant under ``groups.symmetries(g)`` up to rounding, and
    ``gauge_power_weights`` depends on the gauge alone.  A centre and its
    images then carry one Morrey value, so the supremum is taken over one
    centre per orbit (``_orbit_centers``), and over every centre
    otherwise.  Where ``_on_orbits`` holds, the samples, weights and ball
    sums stay on the first node of each orbit from start to finish.
    """
    # integral-operator outputs have fat tails: keep the full lattice
    wide = factor["op"] in ("riesz", "fraclap", "maximal")
    decay = getattr(u, "decay_radius", math.inf)
    R_eff = resolve_R(spec, None if wide or not math.isfinite(decay) else decay)
    cell = lattice_nodes(g, spec, R_eff)[2]
    lattice, orbits = lattice_key(spec, R_eff), _on_orbits(factor["op"], u)
    vals = _op_values(g, factor["op"], cfg, u, spec, R_eff)
    theta = float(factor["theta"])
    p_fac = float(factor["exp"])
    if theta != 0.0:
        # fold the gauge power into exact-mass node weights so singular
        # weights near the origin are integrated at full order; looked up
        # on the module, where the bench's tracer wraps it
        cell = quadrature.gauge_power_weights(g, theta * p_fac, *lattice, orbits)
    centers = grids.centers
    if getattr(u, "d4_invariant", False):
        centers = _orbit_centers(g, np.asarray(centers, dtype=float).tobytes())
    nodes = orbit_nodes(g, lattice, orbits)[0]
    return morrey.morrey_sup_from_samples(
        g, p_fac, float(cfg.lam), centers, grids.radii, nodes, vals, cell, lattice, orbits,
    )


def inequality_sides(g, cfg: ExponentConfig, u: TestFunction, grids: MorreyGrids, spec,
                     suprema=None):
    """(lhs, rhs) of the theorem's inequality for one test function.

    Weighted integrands are assembled pointwise on the lattice before
    Morrey estimation; products of norms (GN, uncertainty) multiply the
    factor norms raised to their powers.  A ``suprema`` list receives, per
    factor (lhs first), where its Morrey supremum sat.
    """
    lhs_f, rhs_f = _factors(cfg)
    ests = [_factor_norm(g, f, cfg, u, grids, spec) for f in (lhs_f, *rhs_f)]
    lhs = ests[0].value ** float(lhs_f["power"])
    rhs = 1.0
    for f, est in zip(rhs_f, ests[1:]):
        rhs *= est.value ** float(f["power"])
    if rhs == 0.0 and lhs > 0.0:
        raise DegenerateInputError(
            "right-hand side vanished with nonzero left side"
        )
    if suprema is not None:
        suprema.extend(
            dict(op=f["op"], argmax_center=e.argmax_center.tolist(),
                 argmax_radius=e.argmax_radius, truncation_note=e.truncation_note)
            for f, e in zip((lhs_f, *rhs_f), ests)
        )
    return float(lhs), float(rhs)


def adapted_spec_factory(
    g, base: QuadratureSpec, u: TestFunction, t_min: float, t_max: float,
    fix_wide: bool = True,
):
    """Per-dilation quadrature specs for sweeps that outgrow one lattice.

    On groups of large homogeneous dimension a single lattice that
    resolves both ends of a decade sweep holds too many nodes to be
    practical.  The truncation radius follows the dilated decay radius;
    the spacing shrinks for contracted copies (t > 1).  With ``fix_wide``
    the widened copies keep the base spacing, so the t <= 1 leg of the
    sweep runs on a genuinely fixed discretisation scale; without it the
    spacing scales like 1/t throughout (which keeps the wide copies'
    lattices small), and the sweep should then be anchored by a refinement
    check at t = 1.  Centre and radius grids stay fixed either way.
    """
    pad = 2.0 * base.lattice_h

    def factory(t):
        decay_t = u.decay_radius / t
        R_t = min(base.R_max, 1.35 * decay_t + pad)
        h_t = base.lattice_h * (min(1.0, 1.0 / t) if fix_wide else 1.0 / t)
        h_t = min(h_t, R_t / 8.0)
        return QuadratureSpec(R_max=R_t, lattice_h=h_t)

    factory.base = base
    return factory


def sweep_grids(g, base: QuadratureSpec, u: TestFunction, t_min: float, t_max: float,
                n_per_axis: int | None = None) -> MorreyGrids:
    """Centre/radius grids shared by every dilation in a sweep."""
    return MorreyGrids(
        centers=morrey.default_centers(g, base, n_per_axis=n_per_axis),
        radii=geometric_radii(2.0 * base.lattice_h * min(1.0, 1.0 / t_max),
                              2.0 * (base.R_max + u.decay_radius / t_min)),
    )


def check_t_values(t_values) -> tuple:
    """The dilations of a sweep as floats: one value, or finite positive
    values spanning at least a decade, so the fitted slope is meaningful."""
    t_values = tuple(float(t) for t in t_values)
    if not t_values:
        raise DomainError("t values must not be empty")
    if not all(0 < t < math.inf for t in t_values):
        raise DomainError("t values must be positive and finite")
    if len(t_values) > 1 and max(t_values) / min(t_values) < 10.0 - 1e-9:
        raise DomainError("t values must span at least one decade")
    return t_values


# one object per (g, u, t), so sweeps over the same u share the factor
# memo; as many entries as that memo, whose keys each hold one copy
@lru_cache(maxsize=20)
def _dilated(g, u: TestFunction, t: float) -> TestFunction:
    return dilated(g, u, t)


def dilation_sweep(
    g,
    cfg: ExponentConfig,
    u: TestFunction,
    t_values,
    grids: MorreyGrids,
    spec,
) -> RatioSweepRecord:
    """Ratios lhs/rhs for dilated copies of u, with the fitted slope.

    ``spec`` is a QuadratureSpec, or a callable t -> QuadratureSpec for
    scale-adapted sweeps.  The centre and radius grids stay fixed across
    the sweep, so both sides are matched lower-bound estimates at every
    scale.  The copies u o dilate_t come from a memo on (g, u, t), so
    every sweep over the same u sees one object per t and the factor
    values of ``_op_values`` computed for one sweep serve the next (the
    ``perturb_q`` control reuses its tuple's Riesz potential).  Like that
    memo, this assumes u is pure: one object gives one set of values.
    """
    t_values = check_t_values(t_values)
    degenerate = len(t_values) == 1
    spec_of = spec if callable(spec) else (lambda t: spec)
    base = getattr(spec, "base", None) or spec_of(1.0)
    ratios, suprema = [], []
    for t in t_values:
        ut = _dilated(g, u, t)
        sups = []
        lhs, rhs = inequality_sides(g, cfg, ut, grids, spec_of(t), sups)
        if rhs == 0.0:
            raise DegenerateInputError(f"degenerate sides at t={t}")
        ratios.append(lhs / rhs)
        suprema.append(tuple(sups))
    if degenerate:
        slope = 0.0
    else:
        slope = float(np.polyfit(np.log(t_values), np.log(ratios), 1)[0])
    return RatioSweepRecord(
        config=cfg,
        t_values=t_values,
        ratios=tuple(ratios),
        fitted_slope=slope,
        predicted_mismatch=float(predicted_mismatch(cfg)),
        estimated_constant=float(max(ratios)),
        degenerate=degenerate,
        grid_meta=dict(
            law=g.law,
            gauge=g.gauge_kind,
            dimension=g.dimension,
            R_max=base.R_max,
            lattice_h=base.lattice_h,
            adapted=callable(spec),
            n_centers=int(np.atleast_2d(grids.centers).shape[0]),
            n_radii=int(np.asarray(grids.radii).size),
            r_min=float(np.min(grids.radii)),
            r_max=float(np.max(grids.radii)),
        ),
        suprema=tuple(suprema),
    )


@dataclass(frozen=True)
class MaximalBoundReport:
    ratios: dict
    spreads: dict
    max_ratio: float
    max_spread: float


def maximal_bound_check(
    g, p, lam, u_family, grids: MorreyGrids, spec, t_values=(0.25, 0.5, 1.0, 2.0, 4.0)
) -> MaximalBoundReport:
    """Morrey-bound ratios for the maximal operator over dilated copies."""
    cfg = admissible("maximal_bound", Q=g.Q, p=p, lam=lam)
    if isinstance(cfg, Rejection):
        raise DomainError(f"maximal_bound rejected: {cfg.condition}")
    ratios = {u.label: dilation_sweep(g, cfg, u, t_values, grids, spec).ratios
              for u in u_family}
    spreads = {label: max(r) / min(r) for label, r in ratios.items()}
    return MaximalBoundReport(
        ratios=ratios,
        spreads=spreads,
        max_ratio=max(max(v) for v in ratios.values()),
        max_spread=max(spreads.values()),
    )


@dataclass(frozen=True)
class HedbergPointwiseReport:
    max_ratio: float
    max_ratio_refined: float
    rel_change: float
    n_used: int
    n_skipped: int


def hedberg_pointwise_check(
    g, cfg: ExponentConfig, u: TestFunction, sample_points, spec
) -> HedbergPointwiseReport:
    """Pointwise potential-vs-maximal ratio and its refinement stability.

    R(x) = |I_gamma u(x)| / [M_frac(x)^e * M_0(x)^(1-e)] with
    e = p*gamma/(Q - lam) and the fractional order (Q - lam)/(Q p).
    Points where a maximal value vanishes are skipped.
    """
    if cfg.theorem != "adams_hls" or not cfg.admissible_flag:
        raise DomainError("hedberg_pointwise_check needs an accepted adams_hls config")
    p, ga, Q, lam = float(cfg.p), float(cfg.gamma), float(cfg.Q), float(cfg.lam)
    expo = p * ga / (Q - lam)
    if not (0 < expo < 1):
        raise DomainError("exponent p*gamma/(Q-lambda) left (0,1)")
    alpha_frac = (Q - lam) / (Q * p)
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))

    def max_ratio(sp):
        radii = morrey.default_radii(g, u, sp)
        pot = np.abs(operators.riesz_values(g, ga, u, pts, sp))
        m0 = operators.frac_maximal_values(g, 0.0, u, pts, radii, sp)
        mf = operators.frac_maximal_values(g, alpha_frac, u, pts, radii, sp)
        ok = (m0 > 0) & (mf > 0)
        if not np.any(ok):
            return 0.0, 0, len(pts)
        r = pot[ok] / (mf[ok] ** expo * m0[ok] ** (1.0 - expo))
        return float(np.max(r)), int(np.sum(ok)), int(np.sum(~ok))

    base, n_used, n_skip = max_ratio(spec)
    fine, _, _ = max_ratio(spec.refined())
    rel = abs(fine - base) / max(base, fine) if max(base, fine) > 0 else 0.0
    return HedbergPointwiseReport(
        max_ratio=base,
        max_ratio_refined=fine,
        rel_change=rel,
        n_used=n_used,
        n_skipped=n_skip,
    )
