"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance is pinned here and matches the declared contract of the
corresponding operation.  The suite favours exact identities (group
axioms, scaling laws, symbol checks) and internal oracles (dilation
sweeps with predicted mismatch exponents) over reference values.
"""

import json
import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np

import morreylab as ml
from morreylab.harness import (
    MorreyGrids,
    Rejection,
    adapted_spec_factory,
    admissible,
    dilation_sweep,
    hedberg_pointwise_check,
    inequality_sides,
    maximal_bound_check,
    perturb_q,
    predicted_mismatch,
    sweep_grids,
)
from morreylab.morrey import MorreyParams, default_centers, default_radii, morrey_norm
from morreylab.operators import frac_laplacian_values, frac_maximal_values
from morreylab.quadrature import QuadratureSpec
from morreylab.report import run_experiment, strip_telemetry
from morreylab.testfunctions import custom, default_battery, dilated, gaussian

T5 = (0.25, 0.5, 1.0, 2.0, 4.0)


def _verdict(n, ok, desc):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {desc}")
    assert ok, f"criterion {n}: {desc}"


def test_criterion_01_group_axioms(all_groups, rng):
    worst_alg = 0.0
    worst_gauge = 0.0
    for g in all_groups:
        xs = rng.standard_normal((1000, g.dimension))
        ys = rng.standard_normal((1000, g.dimension))
        zs = rng.standard_normal((1000, g.dimension))
        assoc = ml.mul(g, ml.mul(g, xs, ys), zs) - ml.mul(g, xs, ml.mul(g, ys, zs))
        inv_err = ml.mul(g, xs, ml.inv(g, xs))
        for t in (0.5, 2.0):
            auto = ml.mul(g, ml.dilate(g, t, xs), ml.dilate(g, t, ys)) - ml.dilate(
                g, t, ml.mul(g, xs, ys)
            )
            worst_alg = max(worst_alg, float(np.max(np.abs(auto))))
        worst_alg = max(worst_alg, float(np.max(np.abs(assoc))),
                        float(np.max(np.abs(inv_err))))
        base = ml.gauge(g, xs)
        for t in (0.5, 2.0):
            rel = np.abs(ml.gauge(g, ml.dilate(g, t, xs)) - t * base) / (t * base)
            worst_gauge = max(worst_gauge, float(np.max(rel)))
        rel = np.abs(ml.gauge(g, ml.inv(g, xs)) - base) / base
        worst_gauge = max(worst_gauge, float(np.max(rel)))
    _verdict(
        1,
        worst_alg <= 1e-12 and worst_gauge <= 1e-12,
        f"group axioms: algebra {worst_alg:.2e} <= 1e-12, "
        f"gauge {worst_gauge:.2e} <= 1e-12 (1000 samples/group)",
    )


def test_criterion_02_ball_scaling(all_groups):
    worst = 0.0
    for g in all_groups:
        h = 0.03125 if g.law == "heisenberg1" else 0.05
        v1 = ml.ball_volume(g, 1.0, h)
        for R in (0.5, 1.0, 2.0, 4.0):
            err = abs(ml.ball_volume(g, R, h) / v1 / R ** g.Q - 1.0)
            worst = max(worst, err)
    g2 = ml.euclidean_group(2)
    pi_err = abs(ml.ball_volume(g2, 1.0, 0.05) - math.pi) / math.pi
    _verdict(
        2,
        worst <= 0.02 and pi_err <= 0.01,
        f"ball volume scaling: worst R^Q deviation {worst:.4f} <= 2%, "
        f"unit disc vs pi {pi_err:.4f} <= 1%",
    )


def test_criterion_03_morrey_lebesgue(g1):
    spec = QuadratureSpec(R_max=12.0, lattice_h=0.04)
    u = gaussian(g1, 1.0)
    params = MorreyParams(
        p=2.0, lam=0.0, centers=default_centers(g1, spec),
        radii=default_radii(g1, u, spec),
    )
    got = morrey_norm(g1, params, u, spec).value
    want = (math.pi / 2.0) ** 0.25
    err = abs(got - want) / want
    _verdict(3, err <= 0.01,
             f"Morrey lambda=0 equals L^2: {got:.6f} vs {want:.6f} ({err:.2e} <= 1%)")


def test_criterion_04_morrey_dilation_law(all_groups):
    base_by_law = {
        (1, "euclidean"): (QuadratureSpec(R_max=12.0, lattice_h=0.04), 1.0, None),
        (2, "euclidean"): (QuadratureSpec(R_max=10.0, lattice_h=0.1), 0.7, 5),
        (3, "euclidean"): (QuadratureSpec(R_max=9.0, lattice_h=0.15), 0.6, 3),
        (3, "heisenberg1"): (QuadratureSpec(R_max=8.0, lattice_h=0.3), 0.5, 3),
    }
    worst = 0.0
    for g in all_groups:
        spec, width, n_ctr = base_by_law[(g.dimension, g.law)]
        u = gaussian(g, width)
        fixed = g.dimension == 1
        fac = None if fixed else adapted_spec_factory(g, spec, u, 0.5, 2.0,
                                                      fix_wide=False)
        centers = default_centers(g, spec, n_per_axis=n_ctr)
        # fixed grid wide enough that the sup stays interior at both ends
        r_lo = 0.8 * spec.lattice_h
        r_hi = 4.0 * (spec.R_max + u.decay_radius)
        n = int(math.ceil(math.log(r_hi / r_lo) / math.log(2.0 ** 0.25)))
        radii = r_lo * 2.0 ** (0.25 * np.arange(n + 1))
        for lam_frac in (0.0, 0.25, 0.5):
            lam = lam_frac * g.Q
            params = MorreyParams(p=2.0, lam=lam, centers=centers, radii=radii)
            base = morrey_norm(g, params, u, spec if fixed else fac(1.0)).value
            for t in (0.5, 2.0):
                got = morrey_norm(
                    g, params, dilated(g, u, t), spec if fixed else fac(t)
                ).value
                pred = t ** ((lam - g.Q) / 2.0)
                worst = max(worst, abs(got / base - pred) / pred)
    _verdict(4, worst <= 0.02,
             f"Morrey dilation exponent (lam-Q)/p: worst deviation "
             f"{worst:.4f} <= 2% over all groups, t in {{1/2, 2}}")


def test_criterion_05_riesz_covariance(g1):
    spec = QuadratureSpec(R_max=12.0, lattice_h=0.02)
    gamma = 0.5
    worst = 0.0
    for u in default_battery(g1, lam=0.25, p=2.0):
        for t in (0.5, 2.0):
            for x in ([0.6], [-1.1]):
                x = np.array(x)
                lhs = ml.riesz_values(g1, gamma, dilated(g1, u, t), x, spec.refined())
                rhs = t ** -gamma * ml.riesz_values(
                    g1, gamma, u, ml.dilate(g1, t, x), spec.refined()
                )
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ui = custom(lambda p: (np.abs(p[..., 0]) <= 1.0).astype(float), decay_radius=1.0)
    val = ml.riesz_values(
        g1, 0.5, ui, np.array([0.0]), QuadratureSpec(R_max=2.5, lattice_h=0.05).refined()
    )
    ind_err = abs(val - 4.0) / 4.0
    _verdict(
        5,
        worst <= 0.01 and ind_err <= 0.01,
        f"Riesz covariance worst {worst:.4f} <= 1% on battery; "
        f"indicator value {val:.4f} vs 4 ({ind_err:.2e} <= 1%)",
    )


def test_criterion_06_maximal_operators(g1):
    spec = QuadratureSpec(R_max=6.0, lattice_h=0.02)
    ui = custom(lambda p: (np.abs(p[..., 0]) <= 1.0).astype(float), decay_radius=1.0)
    radii = np.unique(np.concatenate([np.geomspace(0.05, 8.0, 80), [1.0, 3.0]]))
    third = frac_maximal_values(g1, 0.0, ui, np.array([2.0]), radii, spec)
    third_err = abs(third - 1.0 / 3.0) * 3.0

    u = gaussian(g1, 0.5)
    pts = np.linspace(-2, 2, 7)[:, None]
    bit_same = np.array_equal(
        np.array([frac_maximal_values(g1, 0.0, u, x, radii, spec) for x in pts]),
        frac_maximal_values(g1, 0.0, u, pts, radii, spec),
    )

    spec_m = QuadratureSpec(R_max=12.0, lattice_h=0.04)
    grids = sweep_grids(g1, spec_m, u, 0.25, 4.0)
    rep = maximal_bound_check(g1, 2.0, 0.5, [u], grids, spec_m, t_values=T5)
    _verdict(
        6,
        third_err <= 0.01 and bit_same and rep.max_spread <= 2.0,
        f"maximal: indicator value {third:.5f} ({third_err:.2e} <= 1%); "
        f"frac(0) bit-identical: {bit_same}; Morrey ratio spread "
        f"{rep.max_spread:.3f} <= 2 across 5 dilations",
    )


SWA_CONFIGS = [
    ("adams_hls", dict(p=1.5, gamma=0.4, lam=0.2)),
    ("adams_hls", dict(p=2.0, gamma=0.25, lam=0.3)),
    ("adams_hls", dict(p=1.3, gamma=0.5, lam=0.3)),
    ("stein_weiss_adams", dict(p=1.6, gamma=0.45, alpha=0.15, beta=0.1, lam=0.3)),
    ("stein_weiss_adams", dict(p=2.0, gamma=0.3, alpha=0.2, beta=-0.1, lam=0.25)),
    ("stein_weiss_adams", dict(p=1.8, gamma=0.35, alpha=0.1, beta=0.15, lam=0.15)),
]


def test_criterion_07_adams_stein_weiss_sweeps(g1):
    spec = QuadratureSpec(R_max=14.0, lattice_h=0.03)
    u = gaussian(g1, 0.5)
    grids = sweep_grids(g1, spec, u, min(T5), max(T5))
    spreads = []
    n_weighted = 0
    for theorem, kw in SWA_CONFIGS:
        cfg = admissible(theorem, Q=g1.Q, **kw)
        assert not isinstance(cfg, Rejection), (theorem, kw)
        rec = dilation_sweep(g1, cfg, u, T5, grids, spec)
        spreads.append(max(rec.ratios) / min(rec.ratios))
        if kw.get("alpha", 0) != 0 or kw.get("beta", 0) != 0:
            n_weighted += 1
    pert = perturb_q(admissible("adams_hls", Q=g1.Q, **SWA_CONFIGS[0][1]), 0.3)
    pm = float(predicted_mismatch(pert))
    rec = dilation_sweep(g1, pert, u, T5, grids, spec)
    slope_ok = abs(pm) >= 0.2 and abs(rec.fitted_slope - pm) <= 0.10 * abs(pm)
    _verdict(
        7,
        len(spreads) >= 6 and n_weighted >= 2 and max(spreads) <= 1.10 and slope_ok,
        f"Adams/Stein-Weiss sweeps: {len(spreads)} accepted configs "
        f"({n_weighted} weighted), worst spread {max(spreads):.4f} <= 1.10; "
        f"negative control slope {rec.fitted_slope:+.4f} vs {pm:+.2f} (within 10%)",
    )


def test_criterion_08_hedberg_pointwise(g1):
    spec = QuadratureSpec(R_max=12.0, lattice_h=0.04)
    u = gaussian(g1, 0.5)
    cfg = admissible("adams_hls", Q=1, p=2.0, gamma=0.3, lam=0.2)
    pts = np.linspace(-2.5, 2.5, 100)[:, None]
    rep = hedberg_pointwise_check(g1, cfg, u, pts, spec)
    ok = (
        rep.n_used == 100
        and math.isfinite(rep.max_ratio)
        and rep.max_ratio > 0
        and rep.rel_change < 0.10
    )
    _verdict(
        8, ok,
        f"Hedberg pointwise: max ratio {rep.max_ratio:.4f} finite over "
        f"{rep.n_used} points, refinement change {rep.rel_change:.3%} < 10%",
    )


def _sweep_spread(g, cfg, u, spec_or_fac, grids):
    rec = dilation_sweep(g, cfg, u, T5, grids, spec_or_fac)
    return max(rec.ratios) / min(rec.ratios)


def test_criterion_09_consequences(g1, g2, g3):
    results = {}

    u2 = gaussian(g2, 0.5)
    spec2 = QuadratureSpec(R_max=16.0, lattice_h=0.1)
    fac2 = adapted_spec_factory(g2, spec2, u2, min(T5), max(T5), fix_wide=True)
    grids2 = sweep_grids(g2, spec2, u2, min(T5), max(T5), n_per_axis=5)
    for name, kw in [
        ("hardy", dict(p=1.5, alpha=0, beta=1, lam=0.25)),
        ("hardy", dict(p=1.5, alpha=0.5, beta=0.5, lam=0.6)),
        ("hardy_sobolev", dict(p=1.4, alpha=0, beta=0, lam=0.3)),
        ("hardy_sobolev", dict(p=1.5, alpha=0.3, beta=0.2, lam=0.4)),
        ("gagliardo_nirenberg", dict(p=1.5, lam=0.4, a=0.5, r_exp=2)),
        ("gagliardo_nirenberg", dict(p=1.8, lam=0.1, a=0.7, r_exp=1.2)),
    ]:
        cfg = admissible(name, Q=g2.Q, **kw)
        assert not isinstance(cfg, Rejection), (name, kw)
        results.setdefault(name, []).append(_sweep_spread(g2, cfg, u2, fac2, grids2))

    u3 = gaussian(g3, 0.4)
    spec3 = QuadratureSpec(R_max=12.0, lattice_h=0.12)
    fac3 = adapted_spec_factory(g3, spec3, u3, min(T5), max(T5), fix_wide=False)
    grids3 = sweep_grids(g3, spec3, u3, min(T5), max(T5), n_per_axis=3)
    for name, kw in [
        ("rellich", dict(p=1.2, alpha=0, beta=2, lam=0.3)),
        ("rellich", dict(p=1.5, alpha=0.8, beta=1.2, lam=0.8)),
        ("uncertainty", dict(p=2, lam=0.5)),
        ("uncertainty", dict(p=2, lam=0.8)),
    ]:
        cfg = admissible(name, Q=g3.Q, **kw)
        assert not isinstance(cfg, Rejection), (name, kw)
        results.setdefault(name, []).append(_sweep_spread(g3, cfg, u3, fac3, grids3))

    u1 = gaussian(g1, 0.5)
    spec1 = QuadratureSpec(R_max=14.0, lattice_h=0.03)
    grids1 = sweep_grids(g1, spec1, u1, min(T5), max(T5))
    for name, kw in [
        ("frac_hardy", dict(p=1.5, alpha=0, beta=0.5, gamma=0.5, lam=0.12)),
        ("frac_hardy", dict(p=1.8, alpha=0.2, beta=0.2, gamma=0.4, lam=0.3)),
        ("frac_hardy_sobolev", dict(p=1.3, alpha=0, beta=0, gamma=0.5, lam=0.2)),
        ("frac_hardy_sobolev", dict(p=1.5, alpha=0.2, beta=0.1, gamma=0.6, lam=0.25)),
        ("frac_gn", dict(p=1.6, gamma=0.4, lam=0.1, a=0.5, r_exp=2)),
        ("frac_gn", dict(p=1.4, gamma=0.6, lam=0.05, a=0.4, r_exp=1.5)),
    ]:
        cfg = admissible(name, Q=g1.Q, **kw)
        assert not isinstance(cfg, Rejection), (name, kw)
        results.setdefault(name, []).append(_sweep_spread(g1, cfg, u1, spec1, grids1))

    u2b = gaussian(g2, 0.4)
    spec2b = QuadratureSpec(R_max=12.0, lattice_h=0.1)
    fac2b = adapted_spec_factory(g2, spec2b, u2b, min(T5), max(T5), fix_wide=False)
    grids2b = sweep_grids(g2, spec2b, u2b, min(T5), max(T5), n_per_axis=5)
    fr_cfgs = [
        admissible("frac_rellich", Q=g2.Q, p=1.3, alpha=0, beta=1.2, gamma=1.2,
                   lam=0.2),
        admissible("frac_rellich", Q=g2.Q, p=1.25, alpha=0.3, beta=1.1, gamma=1.4,
                   lam=0.12),
    ]
    for cfg in fr_cfgs:
        assert not isinstance(cfg, Rejection)
        results.setdefault("frac_rellich", []).append(
            _sweep_spread(g2, cfg, u2b, fac2b, grids2b)
        )
    # anchor the fully-adapted sweep: t=1 ratio must be refinement-stable
    l1, r1 = inequality_sides(g2, fr_cfgs[0], u2b, grids2b, fac2b(1.0))
    spec_fine = QuadratureSpec(R_max=fac2b(1.0).R_max, lattice_h=fac2b(1.0).lattice_h * 0.7)
    l2, r2 = inequality_sides(g2, fr_cfgs[0], u2b, grids2b, spec_fine)
    anchor_drift = abs(l1 / r1 - l2 / r2) / (l2 / r2)

    # fractional Laplacian symbol check at s = 1/2
    spec_sym = QuadratureSpec(R_max=64.0, lattice_h=0.025)
    sym_err = 0.0
    for omega in (1.0, 2.0):
        uc = custom(lambda p, w=omega: np.cos(w * p[..., 0]), decay_radius=1e9,
                    smooth=True)
        val = frac_laplacian_values(g1, 0.5, uc, np.array([0.0]), spec_sym)
        sym_err = max(sym_err, abs(val - omega) / omega)

    worst = {k: max(v) for k, v in results.items()}
    ok = (
        all(len(v) >= 2 for v in results.values())
        and max(worst.values()) <= 1.10
        and sym_err <= 0.02
        and anchor_drift <= 0.07
    )
    detail = ", ".join(f"{k}={v:.3f}" for k, v in sorted(worst.items()))
    _verdict(
        9, ok,
        f"consequences (worst spreads <= 1.10): {detail}; symbol check "
        f"{sym_err:.3%} <= 2%; frac_rellich anchor drift {anchor_drift:.3%}",
    )


def test_criterion_10_admissibility_goldens():
    cfg = admissible("stein_weiss_adams", Q=F(4), p=F(2), gamma=F(1), lam=F(1))
    exact_q = cfg.q == 6
    from test_harness import TestAdmissible

    n_ok = 0
    conditions = set()
    for theorem, kw, condition in TestAdmissible.REJECTIONS:
        r = admissible(theorem, **kw)
        if isinstance(r, Rejection) and r.condition == condition:
            n_ok += 1
            conditions.add(condition)
    gn = admissible("gagliardo_nirenberg", Q=F(4), p=F(3, 2), lam=F(1), a=F(1, 2),
                    r_exp=F(2))
    gn_exact = (F(1, 1) / gn.q) == F(1, 2) * (F(2, 3) - F(1, 3)) + F(1, 2) / F(2)
    ok = exact_q and n_ok == len(TestAdmissible.REJECTIONS) and len(conditions) >= 10 \
        and gn_exact
    _verdict(
        10, ok,
        f"admissibility: q = 6 exact; {n_ok} rejection goldens over "
        f"{len(conditions)} distinct named conditions (>= 10); GN relation exact "
        f"on rationals",
    )


def test_criterion_11_determinism(tmp_path):
    doc = json.loads(Path("configs/default.json").read_text())
    doc["workers"] = 1
    from morreylab.report import dump_report

    a = dump_report(run_experiment(doc))
    b = dump_report(run_experiment(doc))
    identical = strip_telemetry(a) == strip_telemetry(b)
    status_ok = json.loads(a)["all_pass"]
    _verdict(
        11,
        identical and status_ok,
        "two runs of the default config (workers=1) are byte-identical after "
        "dropping telemetry, and all checks pass",
    )
