"""Benchmark workloads: seeded inputs and the sweeps that consume them.

Each workload is built from a seed and run through morreylab's public
entry points (``report.run_experiment`` and ``harness.dilation_sweep``),
looked up as module attributes at call time so a tracer can wrap them.

* ``default_r1``: the shipped default config (a frozen copy), as
  ``morreylab run`` executes it.  Many small operator calls on one fixed
  R^1 lattice; dominated by the maximal and Riesz operators.
* ``euclid_consequences``: the consequence sweeps of the acceptance
  gate on R^1, R^2 and R^3.  Dominated by the fractional Laplacian and
  its test-function evaluations; exercises scale-adapted lattices and
  singular gauge-power weights; never calls the Riesz or maximal
  operators.
* ``h1_adams``: the Adams tuple, its perturbed control and the maximal
  bound on the Heisenberg group H^1 at K ~ 5-7k nodes per dilation.
  The O(K^2) Riesz and maximal paths; the fractional Laplacian is
  undefined here.

Seed 0 reproduces the base inputs exactly.  Any other seed jitters the
exponent tuples and Gaussian widths by up to ``JITTER`` (relative),
redrawing until every tuple is still admissible.  The sweeps that build
their own lattices scale them with the Gaussian width, so node counts,
and with them the work per sweep, do not change with the seed.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass, replace

from morreylab import groups, harness, report, testfunctions
from morreylab.quadrature import QuadratureSpec

JITTER = 0.03
_REDRAWS = 50

# verdict rules of ``report._record_dict``, applied to direct sweeps
RATIO_BAND = 1.10
SLOPE_REL_TOL = 0.10

# configs/default.json as of the benchmark's definition.  The CLI-only
# "output" key and the unused "seed" key are left out; neither reaches
# the computation.
DEFAULT_CONFIG = {
    "group": {"law": "euclidean", "dimension": 1, "gauge": "euclidean"},
    "quadrature": {"R_max": 14.0, "lattice_h": 0.03},
    "battery": [
        {"kind": "gauss_tensor", "width": 0.5},
        {"kind": "bump_compact", "radius": 1.5},
    ],
    "t_values": [0.25, 0.5, 1.0, 2.0, 4.0],
    "theorems": [
        {"theorem": "adams_hls", "p": 1.5, "gamma": 0.4, "lambda": 0.2},
        {"theorem": "stein_weiss_adams", "p": 1.6, "gamma": 0.45, "alpha": 0.15,
         "beta": 0.1, "lambda": 0.3},
        {"theorem": "adams_hls", "p": 1.5, "gamma": 0.4, "lambda": 0.2,
         "perturb_inv_q": 0.3},
        {"theorem": "frac_hardy", "p": 1.5, "gamma": 0.5, "alpha": 0, "beta": 0.5,
         "lambda": 0.12},
        {"theorem": "maximal_bound", "p": 2.0, "lambda": 0.5},
    ],
    "checks": {"ratio_band": 1.10, "slope_rel_tol": 0.10},
    "workers": 1,
}

T5 = (0.25, 0.5, 1.0, 2.0, 4.0)
T_H1 = (0.1, 0.316, 1.0)

# (group dimension, gaussian width, base spec, fix_wide or None for a
#  single fixed lattice, centres per axis, [(theorem, tuple), ...])
EUCLID_BLOCKS = [
    (2, 0.5, QuadratureSpec(R_max=16.0, lattice_h=0.1), True, 5, [
        ("hardy", dict(p=1.5, alpha=0, beta=1, lam=0.25)),
        ("hardy", dict(p=1.5, alpha=0.5, beta=0.5, lam=0.6)),
        ("hardy_sobolev", dict(p=1.4, alpha=0, beta=0, lam=0.3)),
        ("hardy_sobolev", dict(p=1.5, alpha=0.3, beta=0.2, lam=0.4)),
        ("gagliardo_nirenberg", dict(p=1.5, lam=0.4, a=0.5, r_exp=2)),
        ("gagliardo_nirenberg", dict(p=1.8, lam=0.1, a=0.7, r_exp=1.2)),
    ]),
    (3, 0.4, QuadratureSpec(R_max=12.0, lattice_h=0.12), False, 3, [
        ("rellich", dict(p=1.2, alpha=0, beta=2, lam=0.3)),
        ("rellich", dict(p=1.5, alpha=0.8, beta=1.2, lam=0.8)),
        ("uncertainty", dict(p=2, lam=0.5)),
        ("uncertainty", dict(p=2, lam=0.8)),
    ]),
    (1, 0.5, QuadratureSpec(R_max=14.0, lattice_h=0.03), None, None, [
        ("frac_hardy", dict(p=1.5, alpha=0, beta=0.5, gamma=0.5, lam=0.12)),
        ("frac_hardy", dict(p=1.8, alpha=0.2, beta=0.2, gamma=0.4, lam=0.3)),
        ("frac_hardy_sobolev", dict(p=1.3, alpha=0, beta=0, gamma=0.5, lam=0.2)),
        ("frac_hardy_sobolev", dict(p=1.5, alpha=0.2, beta=0.1, gamma=0.6, lam=0.25)),
        ("frac_gn", dict(p=1.6, gamma=0.4, lam=0.1, a=0.5, r_exp=2)),
        ("frac_gn", dict(p=1.4, gamma=0.6, lam=0.05, a=0.4, r_exp=1.5)),
    ]),
    (2, 0.4, QuadratureSpec(R_max=12.0, lattice_h=0.1), False, 5, [
        ("frac_rellich", dict(p=1.3, alpha=0, beta=1.2, gamma=1.2, lam=0.2)),
        ("frac_rellich", dict(p=1.25, alpha=0.3, beta=1.1, gamma=1.4, lam=0.12)),
    ]),
]

# H^1 base spec: R_max never caps the adapted radius, and the adapted
# spacing keeps K at 5,088 / 5,088 / 7,120 nodes for t = 0.1 / 0.316 / 1.
H1_SPEC = QuadratureSpec(R_max=64.0, lattice_h=0.75)
H1_WIDTH = 0.5
H1_CENTERS_PER_AXIS = 3
H1_ADAMS = dict(p=1.5, gamma=1.0, lam=1.0)
H1_PERTURB = 0.3
H1_MAXIMAL = dict(p=2.0, lam=1.0)

# alpha + beta is pinned by these theorems (gamma for the fractional ones)
_WEIGHT_SUM = {"hardy": 1, "rellich": 2, "frac_hardy": "gamma", "frac_rellich": "gamma"}


def _scale(x, rng):
    return x * (1.0 + JITTER * rng.uniform(-1.0, 1.0))


def _draw_tuple(theorem, kw, rng):
    out = dict(kw)
    for key in ("p", "lam", "gamma", "a", "r_exp"):
        if key in out and not (theorem == "uncertainty" and key == "p"):
            out[key] = _scale(out[key], rng)
    if "a" in out:
        out["a"] = min(out["a"], 1.0)
    if "r_exp" in out:
        out["r_exp"] = max(out["r_exp"], 1.0)
    pinned = _WEIGHT_SUM.get(theorem)
    if pinned is not None:
        total = out["gamma"] if pinned == "gamma" else pinned
        alpha = _scale(out.get("alpha", 0), rng)
        out["alpha"], out["beta"] = alpha, total - alpha
    else:
        for key in ("alpha", "beta"):
            if out.get(key):
                out[key] = _scale(out[key], rng)
    return out


def _scale_width(width, spec, rng):
    """A jittered Gaussian width, with the quadrature spec scaled alongside.

    Lattice radius and spacing follow the width, so the node counts, and
    with them the work of every sweep, stay the same across seeds while
    the exponents and every sampled value move.
    """
    new = _scale(width, rng)
    f = new / width
    return new, replace(spec, R_max=spec.R_max * f, lattice_h=spec.lattice_h * f)


def jitter_tuple(theorem, Q, kw, rng):
    """A jittered copy of an exponent tuple that is still admissible."""
    for _ in range(_REDRAWS):
        cand = _draw_tuple(theorem, kw, rng)
        if not isinstance(harness.admissible(theorem, Q=Q, **cand), harness.Rejection):
            return cand
    return dict(kw)


def _admit(theorem, Q, kw):
    cfg = harness.admissible(theorem, Q=Q, **kw)
    if isinstance(cfg, harness.Rejection):
        raise ValueError(f"{theorem} {kw}: rejected by {cfg.condition}")
    return cfg


@dataclass(frozen=True)
class Sweep:
    """The arguments of one ``harness.dilation_sweep`` call, with a label."""

    label: str
    group: object
    cfg: object
    u: object
    t_values: tuple
    grids: object
    spec: object


def _grade(cfg, ratios, slope, mismatch):
    if cfg.admissible_flag:
        return max(ratios) / min(ratios) <= RATIO_BAND
    if abs(mismatch) >= 0.2:
        return abs(slope - mismatch) <= SLOPE_REL_TOL * abs(mismatch)
    return True


def outcome(label, admissible, ratios, slope, mismatch, passed, error=None):
    return dict(label=label, admissible=bool(admissible), ratios=[float(r) for r in ratios],
                slope=float(slope), mismatch=float(mismatch), passed=bool(passed),
                error=error)


def _run_sweep(sw: Sweep):
    try:
        rec = harness.dilation_sweep(sw.group, sw.cfg, sw.u, sw.t_values, sw.grids, sw.spec)
    except Exception as e:  # a raising sweep is a failed operation, not a crash
        return outcome(sw.label, sw.cfg.admissible_flag, [], math.nan, math.nan, False,
                       error=f"{type(e).__name__}: {e}")
    passed = _grade(sw.cfg, rec.ratios, rec.fitted_slope, rec.predicted_mismatch)
    return outcome(sw.label, sw.cfg.admissible_flag, rec.ratios, rec.fitted_slope,
                   rec.predicted_mismatch, passed)


class SweepWorkload:
    """A list of direct ``harness.dilation_sweep`` calls."""

    def __init__(self, sweeps, inputs):
        self.sweeps = sweeps
        self.inputs = inputs

    def units(self):
        """The pass in order, one callable per sweep, each returning outcomes."""
        return [lambda sw=sw: [_run_sweep(sw)] for sw in self.sweeps]

    def run(self):
        return [o for unit in self.units() for o in unit()]


class ConfigWorkload:
    """One ``report.run_experiment`` call on a config document."""

    def __init__(self, doc):
        self.doc = doc
        self.inputs = doc
        report.parse_config(doc)  # validate and build the battery once

    def units(self):
        return [self.run]

    def run(self):
        try:
            rep = report.run_experiment(copy.deepcopy(self.doc))
        except Exception as e:
            return [outcome("run_experiment", True, [], math.nan, math.nan, False,
                            error=f"{type(e).__name__}: {e}")]
        out = []
        for i, r in enumerate(rep["records"]):
            error = r["note"] if r["check"] == "error" else None
            out.append(outcome(f"{i}:{r['theorem']}[{r['function']}]",
                               r["config"]["admissible"], r["ratios"], r["fitted_slope"],
                               r["predicted_mismatch"], r["passed"], error))
        return out


_DOC_KEYS = {"lambda": "lam", "r": "r_exp"}
_DOC_KEYS_BACK = {v: k for k, v in _DOC_KEYS.items()}


def _default_r1(seed):
    doc = copy.deepcopy(DEFAULT_CONFIG)
    if seed:
        rng = random.Random(seed)
        Q = 1
        for entry in doc["theorems"]:
            kw = {_DOC_KEYS.get(k, k): v for k, v in entry.items()
                  if k not in ("theorem", "perturb_inv_q")}
            kw = jitter_tuple(entry["theorem"], Q, kw, rng)
            entry.update({_DOC_KEYS_BACK.get(k, k): v for k, v in kw.items()})
        for fn in doc["battery"]:
            if fn["kind"] == "gauss_tensor":
                fn["width"] = _scale(fn["width"], rng)
    return ConfigWorkload(doc)


def _euclid_consequences(seed):
    rng = random.Random(seed)
    sweeps, inputs = [], []
    for dim, width, spec, fix_wide, n_ctr, tuples in EUCLID_BLOCKS:
        g = groups.euclidean_group(dim)
        if seed:
            width, spec = _scale_width(width, spec, rng)
        u = testfunctions.gaussian(g, width)
        grids = harness.sweep_grids(g, spec, u, min(T5), max(T5), n_per_axis=n_ctr)
        sweep_spec = spec if fix_wide is None else harness.adapted_spec_factory(
            g, spec, u, min(T5), max(T5), fix_wide=fix_wide)
        for theorem, kw in tuples:
            if seed:
                kw = jitter_tuple(theorem, g.Q, kw, rng)
            cfg = _admit(theorem, g.Q, kw)
            label = f"R{dim}:{theorem}{_fmt(kw)}"
            sweeps.append(Sweep(label, g, cfg, u, T5, grids, sweep_spec))
            inputs.append(dict(group=f"R{dim}", width=width, theorem=theorem, **kw))
    return SweepWorkload(sweeps, inputs)


def _h1_adams(seed):
    g = groups.heisenberg_group()
    width, spec, adams, maximal = H1_WIDTH, H1_SPEC, dict(H1_ADAMS), dict(H1_MAXIMAL)
    if seed:
        rng = random.Random(seed)
        width, spec = _scale_width(width, spec, rng)
        adams = jitter_tuple("adams_hls", g.Q, adams, rng)
        maximal = jitter_tuple("maximal_bound", g.Q, maximal, rng)
    u = testfunctions.gaussian(g, width)
    grids = harness.sweep_grids(g, spec, u, min(T_H1), max(T_H1),
                                n_per_axis=H1_CENTERS_PER_AXIS)
    fac = harness.adapted_spec_factory(g, spec, u, min(T_H1), max(T_H1), fix_wide=False)
    cfg = _admit("adams_hls", g.Q, adams)
    sweeps = [
        Sweep(f"H1:adams_hls{_fmt(adams)}", g, cfg, u, T_H1, grids, fac),
        Sweep(f"H1:adams_hls{_fmt(adams)}+d(1/q)={H1_PERTURB}", g,
              harness.perturb_q(cfg, H1_PERTURB), u, T_H1, grids, fac),
        Sweep(f"H1:maximal_bound{_fmt(maximal)}", g, _admit("maximal_bound", g.Q, maximal),
              u, T_H1, grids, fac),
    ]
    inputs = [dict(width=width, adams=adams, perturb_inv_q=H1_PERTURB, maximal=maximal)]
    return SweepWorkload(sweeps, inputs)


def _fmt(kw):
    return "(" + ",".join(f"{k}={v:.6g}" for k, v in kw.items()) + ")"


BUILDERS = {
    "default_r1": _default_r1,
    "euclid_consequences": _euclid_consequences,
    "h1_adams": _h1_adams,
}
NAMES = tuple(BUILDERS)


def build(name, seed):
    """The workload ``name`` with inputs generated from ``seed``."""
    if name not in BUILDERS:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return BUILDERS[name](int(seed))
