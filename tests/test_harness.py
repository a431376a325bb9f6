import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab import custom, gaussian, harness, operators
from morreylab.errors import DegenerateInputError, DomainError
from morreylab.harness import (
    _DEGREES,
    _HYPOTHESES,
    _RELATIONS,
    _THEOREMS,
    THEOREMS,
    ExponentConfig,
    MorreyGrids,
    Rejection,
    admissible,
    adapted_spec_factory,
    check_t_values,
    dilation_sweep,
    hedberg_pointwise_check,
    inequality_sides,
    maximal_bound_check,
    perturb_q,
    predicted_mismatch,
    sweep_grids,
)
from morreylab.quadrature import QuadratureSpec, resolve_R

T5 = (0.25, 0.5, 1.0, 2.0, 4.0)
SPEC1 = QuadratureSpec(R_max=14.0, lattice_h=0.03)


class TestAdmissible:
    def test_swa_golden_exact(self):
        cfg = admissible("stein_weiss_adams", Q=F(4), p=F(2), gamma=F(1), lam=F(1))
        assert cfg.q == 6 and isinstance(cfg.q, F)
        assert cfg.admissible_flag
        assert cfg.p_prime == 2

    def test_swa_lambda_rejection(self):
        r = admissible("stein_weiss_adams", Q=4, p=2, gamma=1, lam=2.5)
        assert isinstance(r, Rejection)
        assert r.condition == "0<λ<Q−(γ−α−β)p"

    def test_hardy_sum_rejection(self):
        r = admissible("hardy", Q=4, p=2, alpha=0.7, beta=0.8, lam=1)
        assert r.condition == "α+β=1"

    def test_equality_tolerant_for_floats(self):
        cfg = admissible("hardy", Q=4, p=2, alpha=0.3, beta=0.7, lam=1)
        assert isinstance(cfg, ExponentConfig)

    def test_gn_relation_rational(self):
        cfg = admissible("gagliardo_nirenberg", Q=F(4), p=F(3, 2), lam=F(1),
                         a=F(1, 2), r_exp=F(2))
        want = F(1, 2) * (F(2, 3) - F(1, 3)) + F(1, 2) / F(2)
        assert F(1, 1) / cfg.q == want

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            admissible("hardy", Q=4, p=float("nan"), alpha=0, beta=1, lam=1)

    def test_unknown_theorem(self):
        with pytest.raises(DomainError):
            admissible("nope", Q=4, p=2, lam=1)

    def test_first_violated_condition_wins(self):
        # both p and lambda are bad; the condition listed first is named
        r = admissible("maximal_bound", Q=4, p=0.5, lam=7)
        assert r.condition == "p>1"

    REJECTIONS = [
        ("stein_weiss_adams", dict(Q=4, p=2, gamma=1, alpha=-0.6, beta=0.1, lam=1),
         "0≤α+β≤γ<Q"),
        ("stein_weiss_adams", dict(Q=4, p=4.5, gamma=1, lam=1), "1<p<Q/(γ−α−β)"),
        ("stein_weiss_adams", dict(Q=4, p=2, gamma=1, alpha=2, beta=-1, lam=1),
         "α<Q/p′"),
        ("stein_weiss_adams", dict(Q=4, p=2, gamma=1, alpha=-1, beta=1.9, lam=1),
         "β<(Q−λ)/q"),
        ("stein_weiss_adams", dict(Q=4, p=2, gamma=1, lam=2.5), "0<λ<Q−(γ−α−β)p"),
        ("adams_hls", dict(Q=4, p=2, gamma=5, lam=1), "0<γ<Q"),
        ("adams_hls", dict(Q=4, p=2, gamma=2, lam=0.5), "1<p<Q/γ"),
        ("adams_hls", dict(Q=4, p=2, gamma=1, lam=5), "1<p<q<∞"),
        ("adams_hls", dict(Q=4, p=2, gamma=1, alpha=0.1, lam=1), "α=β=0"),
        ("maximal_bound", dict(Q=4, p=1, lam=1), "p>1"),
        ("maximal_bound", dict(Q=4, p=2, lam=4), "0<λ<Q"),
        ("hardy", dict(Q=4, p=2, alpha=0, beta=1, lam=-1), "0<λ<min{Q,Q−βp}"),
        ("hardy", dict(Q=4, p=2, alpha=2.5, beta=-1.5, lam=1), "α<Q/p′"),
        ("hardy_sobolev", dict(Q=4, p=2, alpha=0.5, beta=0.7, lam=1), "0≤α+β≤1<Q"),
        ("rellich", dict(Q=4, p=2, alpha=1, beta=0.5, lam=1), "α+β=2"),
        ("gagliardo_nirenberg", dict(Q=4, p=1.5, lam=1, a=0, r_exp=1), "q>1"),
        ("gagliardo_nirenberg", dict(Q=4, p=1.5, lam=1, a=0.5, r_exp=0.8), "r≥1"),
        ("gagliardo_nirenberg", dict(Q=4, p=1.5, lam=1, a=1.2, r_exp=2), "a∈[0,1]"),
        ("uncertainty", dict(Q=3, p=2, lam=1.5), "0<λ<Q−2"),
        ("uncertainty", dict(Q=4, p=3, lam=1), "p=2"),
        ("frac_hardy", dict(Q=2, p=1.5, alpha=0.5, beta=0.7, gamma=1.2, lam=0.3),
         "α+β=γ∈(0,1)"),
        ("frac_hardy_sobolev", dict(Q=2, p=1.5, alpha=0, beta=0, gamma=1.2, lam=0.3),
         "γ∈(0,1)"),
        ("frac_rellich", dict(Q=2, p=1.2, alpha=0.3, beta=1.5, gamma=1.8, lam=0.1),
         "Q>γp"),
        ("frac_gn", dict(Q=1, p=2, gamma=0.6, lam=0.1, a=0.5, r_exp=2), "1<p<Q/γ"),
        # one golden for every remaining (theorem, condition) pair
        ("adams_hls", dict(Q=4, p=2, gamma=1, lam=0), "0<λ<Q−γp"),
        ("hardy", dict(Q=4, p=1, alpha=0, beta=1, lam=1), "1<p<∞"),
        ("hardy", dict(Q=4, p=2, alpha=0, beta=1, lam=2.5), "β<(Q−λ)/p"),
        ("hardy", dict(Q=4, p=2, alpha=0.7, beta=0.8, lam=1), "α+β=1"),
        ("hardy_sobolev", dict(Q=4, p=1, lam=1), "1<p<Q/(1−α−β)"),
        ("hardy_sobolev", dict(Q=4, p=2, alpha=2, beta=-1.5, lam=1), "α<Q/p′"),
        ("hardy_sobolev", dict(Q=4, p=2, alpha=-1, beta=1.9, lam=1), "β<(Q−λ)/q"),
        ("hardy_sobolev", dict(Q=4, p=2, alpha=0, beta=1, lam=0),
         "0<λ<min{Q−βp,Q−(1−α−β)p}"),
        ("rellich", dict(Q=4, p=1, alpha=1, beta=1, lam=1), "1<p<∞"),
        ("rellich", dict(Q=4, p=2, alpha=2.5, beta=-0.5, lam=1), "α<Q/p′"),
        ("rellich", dict(Q=4, p=2, alpha=0, beta=2, lam=1), "β<(Q−λ)/p"),
        ("rellich", dict(Q=8, p=2, alpha=1, beta=1, lam=0), "0<λ<min{Q,Q−βp}"),
        ("gagliardo_nirenberg", dict(Q=4, p=4, lam=1, a=0.5, r_exp=2), "1<p<Q"),
        ("gagliardo_nirenberg", dict(Q=4, p=1.5, lam=3, a=0.5, r_exp=2), "0<λ<Q−p"),
        ("frac_hardy", dict(Q=2, p=1, alpha=0.25, beta=0.25, gamma=0.5, lam=0.25),
         "1<p<∞"),
        ("frac_hardy", dict(Q=2, p=1.5, alpha=0.8, beta=-0.3, gamma=0.5, lam=0.25),
         "α<Q/p′"),
        ("frac_hardy", dict(Q=2, p=1.5, alpha=-1, beta=1.5, gamma=0.5, lam=0.25),
         "β<(Q−λ)/p"),
        ("frac_hardy", dict(Q=2, p=1.5, alpha=0.25, beta=0.25, gamma=0.5, lam=0),
         "0<λ<min{Q,Q−βp}"),
        ("frac_hardy_sobolev", dict(Q=2, p=1.5, alpha=0.4, beta=0.3, gamma=0.5,
                                    lam=0.25), "0≤α+β≤γ<Q"),
        ("frac_hardy_sobolev", dict(Q=2, p=1, gamma=0.5, lam=0.25), "1<p<Q/(γ−α−β)"),
        ("frac_hardy_sobolev", dict(Q=2, p=1.5, gamma=0.5, lam=0),
         "0<λ<min{Q−βp,Q−(γ−α−β)p}"),
        ("frac_rellich", dict(Q=4, p=1, alpha=0.5, beta=1, gamma=1.5, lam=0.25), "p>1"),
        ("frac_rellich", dict(Q=4, p=2, alpha=2.5, beta=-1, gamma=1.5, lam=0.25),
         "α<Q/p′"),
        ("frac_rellich", dict(Q=4, p=2, alpha=-0.5, beta=2, gamma=1.5, lam=0.25),
         "β<(Q−λ)/p"),
        ("frac_rellich", dict(Q=4, p=2, alpha=0.5, beta=0.5, gamma=1.5, lam=0.25),
         "α+β=γ∈(1,2)"),
        ("frac_rellich", dict(Q=4, p=2, alpha=0.5, beta=1, gamma=1.5, lam=0),
         "0<λ<min{Q,Q−γp}"),
        ("frac_gn", dict(Q=2, p=1.5, gamma=1.2, lam=0.25, a=0.5, r_exp=2), "γ∈(0,1)"),
        ("frac_gn", dict(Q=2, p=1.5, gamma=0.5, lam=1.5, a=0.5, r_exp=2), "0<λ<Q−γp"),
        ("frac_gn", dict(Q=2, p=1.5, gamma=0.5, lam=0.25, a=1.5, r_exp=2), "a∈[0,1]"),
        ("frac_gn", dict(Q=2, p=1.5, gamma=0.5, lam=0.25, a=0.5, r_exp=0.5), "r≥1"),
        ("frac_gn", dict(Q=2, p=1.5, gamma=0.5, lam=0.25, a=0, r_exp=1), "q>1"),
    ]

    @pytest.mark.parametrize("theorem,kw,condition", REJECTIONS)
    def test_rejection_goldens(self, theorem, kw, condition):
        r = admissible(theorem, **kw)
        assert isinstance(r, Rejection), (theorem, kw)
        assert r.condition == condition

    FIXED_GAMMA = [
        ("hardy", dict(Q=F(4), p=F(2), alpha=F(1, 2), beta=F(1, 2), lam=F(1)), 1),
        # q = 6 from gamma = 1; a supplied gamma = 1/2 would give q = 3
        ("hardy_sobolev", dict(Q=F(4), p=F(2), lam=F(1)), 1),
        ("rellich", dict(Q=F(8), p=F(2), alpha=F(1), beta=F(1), lam=F(1)), 2),
        ("gagliardo_nirenberg", dict(Q=F(4), p=F(3, 2), lam=F(1), a=F(1, 2),
                                     r_exp=F(2)), 1),
        ("uncertainty", dict(Q=F(4), p=F(2), lam=F(1)), 1),
    ]

    @pytest.mark.parametrize("theorem,kw,fixed", FIXED_GAMMA)
    def test_fixed_gamma_is_enforced(self, theorem, kw, fixed):
        cfg = admissible(theorem, **kw)
        assert cfg.gamma == fixed
        assert admissible(theorem, gamma=F(fixed), **kw) == cfg
        floats = {k: float(v) for k, v in kw.items()}
        assert admissible(theorem, gamma=float(fixed), **floats) == \
            admissible(theorem, **floats)
        with pytest.raises(DomainError, match="fixes gamma"):
            admissible(theorem, gamma=F(fixed) - F(1, 2), **kw)


class TestTheoremTable:
    def test_order(self):
        assert THEOREMS == (
            "adams_hls", "stein_weiss_adams", "maximal_bound", "hardy",
            "hardy_sobolev", "rellich", "gagliardo_nirenberg", "uncertainty",
            "frac_hardy", "frac_hardy_sobolev", "frac_rellich", "frac_gn",
        )

    def test_labels_and_predicates_match(self):
        used = set()
        for name, entry in _THEOREMS.items():
            labels = [x for x in entry.hypotheses if x != "q"]
            assert len(labels) == len(set(labels)), name
            assert set(labels) <= set(_HYPOTHESES), name
            used.update(labels)
            assert (entry.relation is None) == ("q" not in entry.hypotheses), name
            assert entry.relation is None or entry.relation in _RELATIONS, name
            for f in (entry.lhs, *entry.rhs):
                assert len(f) == 4 and f[2] in _DEGREES, name
        assert used == set(_HYPOTHESES)

    def test_every_condition_has_a_golden(self):
        pinned = {(t, c) for t, _, c in TestAdmissible.REJECTIONS}
        every = {(t, c) for t, e in _THEOREMS.items() for c in e.hypotheses if c != "q"}
        assert pinned == every


# Exponent tuples built from unit draws u[0..4] in (0, 23/20]: a draw
# above 1 leaves the admissible region, so most tuples are accepted and
# the rest exercise the rejections.
def _swa_shape(Q, g, u):
    # 0 <= α+β <= γ, p below Q/(γ−α−β), λ below both of its bounds
    s = g * u[0]
    alpha, beta = s * u[1], s - s * u[1]
    p = 1 + (Q / (g - s) - 1) * u[2] if s < g else 1 + u[2]
    lam = min(Q - beta * p, Q - (g - s) * p) * u[3]
    return dict(alpha=alpha, beta=beta, p=p, lam=lam)


def _hardy_shape(Q, total, u, p=None):
    # α below Q/p′, α+β = total, λ below min{Q, Q−βp}
    p = 1 + 3 * u[0] if p is None else p
    alpha = Q * (p - 1) / p * u[1]
    beta = total - alpha
    return dict(p=p, alpha=alpha, beta=beta, lam=min(Q, Q - beta * p) * u[2])


def _p_lam_shape(Q, g, u):
    # p below Q/γ, λ below Q−γp
    p = 1 + (Q / g - 1) * u[0]
    return dict(p=p, lam=(Q - g * p) * u[1])


def _gn_shape(Q, g, u):
    # as above, with a mostly in [0, 1] and r mostly >= 1
    return dict(a=u[2], r_exp=1 + 3 * (u[3] - F(1, 10)), **_p_lam_shape(Q, g, u))


def _frac_rellich(Q, g, u):
    # as Hardy with α+β = γ, and p below Q/γ
    return dict(gamma=g, **_hardy_shape(Q, g, u, p=1 + (Q / g - 1) * u[0]))


_BUILDERS = {
    "adams_hls": lambda Q, u: dict(gamma=Q * u[4], **_p_lam_shape(Q, Q * u[4], u)),
    "stein_weiss_adams": lambda Q, u: dict(gamma=Q * u[4], **_swa_shape(Q, Q * u[4], u)),
    "maximal_bound": lambda Q, u: dict(p=1 + 3 * (u[0] - F(1, 10)), lam=Q * u[1]),
    "hardy": lambda Q, u: _hardy_shape(Q, 1, u),
    "hardy_sobolev": lambda Q, u: _swa_shape(Q, 1, u),
    "rellich": lambda Q, u: _hardy_shape(Q, 2, u),
    "gagliardo_nirenberg": lambda Q, u: _gn_shape(Q, 1, u),
    "uncertainty": lambda Q, u: dict(p=2 if u[0] <= 1 else 3, lam=(Q - 2) * u[1]),
    "frac_hardy": lambda Q, u: dict(gamma=u[4], **_hardy_shape(Q, u[4], u)),
    "frac_hardy_sobolev": lambda Q, u: dict(gamma=u[4], **_swa_shape(Q, u[4], u)),
    "frac_rellich": lambda Q, u: _frac_rellich(Q, 1 + u[4], u),
    "frac_gn": lambda Q, u: dict(gamma=u[4], **_gn_shape(Q, u[4], u)),
}
_UNIT = st.integers(1, 23).map(lambda n: F(n, 20))


@pytest.mark.parametrize("theorem", THEOREMS)
@settings(max_examples=150, deadline=None)
@given(Q=st.sampled_from([F(2), F(3), F(4), F(8)]),
       u=st.lists(_UNIT, min_size=5, max_size=5))
def test_mismatch_vanishes_on_every_accepted_rational_tuple(theorem, Q, u):
    out = admissible(theorem, Q=Q, **_BUILDERS[theorem](Q, u))
    if isinstance(out, Rejection):
        assert out.condition in _THEOREMS[theorem].hypotheses
        assert out.condition != "q"
    else:
        assert predicted_mismatch(out) == 0


@pytest.mark.parametrize("theorem", THEOREMS)
def test_differentiates_exactly_the_theorems_with_a_derivative(theorem):
    # the potential and maximal theorems take rough test functions; every
    # other one has a gradient, sub-Laplacian or fractional Laplacian factor
    cfg = admissible(theorem, Q=F(4), **_BUILDERS[theorem](F(4), [F(1, 5)] * 5))
    assert not isinstance(cfg, Rejection)
    rough = theorem in ("adams_hls", "stein_weiss_adams", "maximal_bound")
    assert harness.differentiates(cfg) is not rough
    assert harness.differentiates(perturb_q(cfg, F(1, 100))) is not rough


class TestPerturb:
    def test_zero_delta_identity(self):
        cfg = admissible("stein_weiss_adams", Q=F(4), p=F(2), gamma=F(1), lam=F(1))
        assert perturb_q(cfg, 0) is cfg

    def test_shift_arithmetic(self):
        cfg = admissible("stein_weiss_adams", Q=F(4), p=F(2), gamma=F(1), lam=F(1))
        pert = perturb_q(cfg, F(1, 6))
        assert pert.q == 3 and not pert.admissible_flag

    def test_infinite_q_rejected(self):
        cfg = admissible("stein_weiss_adams", Q=F(4), p=F(2), gamma=F(1), lam=F(1))
        with pytest.raises(DomainError):
            perturb_q(cfg, -F(1, 6))


class TestMismatch:
    def test_swa_closed_form_matches_general(self):
        cfg = admissible("stein_weiss_adams", Q=F(4), p=F(2), gamma=F(1),
                         alpha=F(1, 4), beta=F(1, 8), lam=F(1))
        closed = (cfg.alpha + cfg.beta - cfg.gamma) + (cfg.Q - cfg.lam) * (
            1 / cfg.p - 1 / cfg.q
        )
        assert predicted_mismatch(cfg) == closed == 0

    @pytest.mark.parametrize("theorem,kw", [
        ("adams_hls", dict(Q=F(4), p=F(2), gamma=F(1), lam=F(1))),
        ("stein_weiss_adams", dict(Q=F(4), p=F(2), gamma=F(1), alpha=F(1, 4),
                                   beta=F(1, 8), lam=F(1))),
        ("maximal_bound", dict(Q=F(4), p=F(2), lam=F(1))),
        ("hardy", dict(Q=F(4), p=F(2), alpha=F(1, 2), beta=F(1, 2), lam=F(1))),
        ("hardy_sobolev", dict(Q=F(4), p=F(2), alpha=F(1, 4), beta=F(1, 4), lam=F(1))),
        ("rellich", dict(Q=F(8), p=F(2), alpha=F(1), beta=F(1), lam=F(1))),
        ("gagliardo_nirenberg", dict(Q=F(4), p=F(3, 2), lam=F(1), a=F(1, 2),
                                     r_exp=F(2))),
        ("uncertainty", dict(Q=F(4), p=F(2), lam=F(1))),
        ("frac_hardy", dict(Q=F(2), p=F(3, 2), alpha=F(1, 4), beta=F(1, 4),
                            gamma=F(1, 2), lam=F(1, 4))),
        ("frac_hardy_sobolev", dict(Q=F(2), p=F(3, 2), alpha=0, beta=0,
                                    gamma=F(1, 2), lam=F(1, 4))),
        ("frac_rellich", dict(Q=F(4), p=F(2), alpha=F(1, 2), beta=F(1),
                              gamma=F(3, 2), lam=F(1, 4))),
        ("frac_gn", dict(Q=F(2), p=F(3, 2), gamma=F(1, 2), lam=F(1, 4), a=F(1, 2),
                         r_exp=F(2))),
    ])
    def test_zero_mismatch_for_all_admissible(self, theorem, kw):
        cfg = admissible(theorem, **kw)
        assert isinstance(cfg, ExponentConfig), (theorem, cfg)
        assert predicted_mismatch(cfg) == 0

    def test_perturbed_mismatch_exact(self):
        cfg = admissible("stein_weiss_adams", Q=F(4), p=F(2), gamma=F(1), lam=F(1))
        pert = perturb_q(cfg, F(1, 10))
        assert predicted_mismatch(pert) == -F(3, 10)


class TestSides:
    def test_zero_function(self, g1):
        z = custom(lambda p: np.zeros(p.shape[:-1]), decay_radius=1.0)
        cfg = admissible("adams_hls", Q=1, p=1.5, gamma=0.4, lam=0.2)
        u = gaussian(g1, 0.5)
        grids = sweep_grids(g1, SPEC1, u, 0.25, 4.0)
        assert inequality_sides(g1, cfg, z, grids, SPEC1) == (0.0, 0.0)

    def test_degenerate_raises_in_sweep(self, g1):
        z = custom(lambda p: np.zeros(p.shape[:-1]), decay_radius=1.0)
        cfg = admissible("adams_hls", Q=1, p=1.5, gamma=0.4, lam=0.2)
        grids = sweep_grids(g1, SPEC1, z, 0.25, 4.0)
        with pytest.raises(DegenerateInputError):
            dilation_sweep(g1, cfg, z, T5, grids, SPEC1)

    def test_scalar_homogeneity(self, g1):
        u = gaussian(g1, 0.5)
        cu = custom(lambda p: -3.0 * u(p), decay_radius=u.decay_radius, smooth=True,
                    analytic_gradient=lambda p: -3.0 * u.analytic_gradient(p))
        grids = sweep_grids(g1, SPEC1, u, 0.25, 4.0)
        for theorem, kw, degree in [
            ("adams_hls", dict(Q=1, p=1.5, gamma=0.4, lam=0.2), 1),
            ("frac_hardy", dict(Q=1, p=1.5, alpha=0, beta=0.5, gamma=0.5, lam=0.12), 1),
            ("uncertainty", dict(Q=4, p=2, lam=1), 2),
        ]:
            if theorem == "uncertainty":
                continue  # needs Q > 2; separate degree check below
            cfg = admissible(theorem, **kw)
            l1, r1 = inequality_sides(g1, cfg, u, grids, SPEC1)
            l3, r3 = inequality_sides(g1, cfg, cu, grids, SPEC1)
            assert l3 == pytest.approx(3.0 ** degree * l1, rel=1e-9)
            assert r3 == pytest.approx(3.0 ** degree * r1, rel=1e-9)

    def test_uncertainty_degree_two(self, g3):
        # both sides of the squared-form uncertainty scale like c^2
        spec = QuadratureSpec(R_max=8.0, lattice_h=0.2)
        u = gaussian(g3, 0.5)
        cu = custom(lambda p: 2.0 * u(p), decay_radius=u.decay_radius, smooth=True,
                    analytic_gradient=lambda p: 2.0 * u.analytic_gradient(p))
        cfg = admissible("uncertainty", Q=3, p=2, lam=0.5)
        grids = sweep_grids(g3, spec, u, 1.0, 1.0, n_per_axis=3)
        l1, r1 = inequality_sides(g3, cfg, u, grids, spec)
        l2, r2 = inequality_sides(g3, cfg, cu, grids, spec)
        assert l2 == pytest.approx(4.0 * l1, rel=1e-9)
        assert r2 == pytest.approx(4.0 * r1, rel=1e-9)


class TestSweep:
    def test_single_t_degenerate(self, g1):
        u = gaussian(g1, 0.5)
        cfg = admissible("adams_hls", Q=1, p=1.5, gamma=0.4, lam=0.2)
        grids = sweep_grids(g1, SPEC1, u, 1.0, 1.0)
        rec = dilation_sweep(g1, cfg, u, (1.0,), grids, SPEC1)
        assert rec.degenerate and rec.fitted_slope == 0.0

    def test_span_precondition(self, g1):
        u = gaussian(g1, 0.5)
        cfg = admissible("adams_hls", Q=1, p=1.5, gamma=0.4, lam=0.2)
        grids = sweep_grids(g1, SPEC1, u, 0.5, 2.0)
        with pytest.raises(DomainError):
            dilation_sweep(g1, cfg, u, (0.5, 1.0, 2.0), grids, SPEC1)

    def test_admissible_flat_ratio(self, g1):
        u = gaussian(g1, 0.5)
        cfg = admissible("adams_hls", Q=1, p=1.5, gamma=0.4, lam=0.2)
        grids = sweep_grids(g1, SPEC1, u, min(T5), max(T5))
        rec = dilation_sweep(g1, cfg, u, T5, grids, SPEC1)
        assert rec.predicted_mismatch == 0.0
        assert max(rec.ratios) / min(rec.ratios) <= 1.10
        assert abs(rec.fitted_slope) <= 0.05
        assert rec.estimated_constant == max(rec.ratios)

    def test_negative_control_slope(self, g1):
        u = gaussian(g1, 0.5)
        cfg = admissible("adams_hls", Q=1, p=1.5, gamma=0.4, lam=0.2)
        pert = perturb_q(cfg, 0.3)
        pm = float(predicted_mismatch(pert))
        assert abs(pm) >= 0.2
        grids = sweep_grids(g1, SPEC1, u, min(T5), max(T5))
        rec = dilation_sweep(g1, pert, u, T5, grids, SPEC1)
        assert abs(rec.fitted_slope - pm) <= 0.10 * abs(pm)


@pytest.mark.parametrize("t_values", [(1.0, math.nan, 20.0), (math.nan,), (1.0, math.inf),
                                      (math.inf,)])
def test_non_finite_dilations_rejected(t_values):
    # t is part of the dilation memo's key
    with pytest.raises(DomainError, match="finite"):
        check_t_values(t_values)


T3 = (0.25, 1.0, 4.0)
HLS = admissible("adams_hls", Q=1, p=1.5, gamma=0.4, lam=0.2)


def _clear_factor_memos():
    harness._op_values_cached.cache_clear()
    harness._dilated.cache_clear()


def _count_riesz(monkeypatch):
    """The argument tuples of every ``operators.riesz_values`` call from now on."""
    calls = []
    real = operators.riesz_values

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(operators, "riesz_values", spy)
    return calls


class TestFactorMemo:
    """``_op_values`` computes each factor once per operator, dilated copy and lattice."""

    @pytest.fixture(autouse=True)
    def cold(self):
        _clear_factor_memos()

    @staticmethod
    def sweep(g, cfg, u):
        grids = sweep_grids(g, SPEC1, u, min(T3), max(T3))
        return dilation_sweep(g, cfg, u, T3, grids, SPEC1)

    def test_control_reuses_its_tuples_riesz_values(self, g1, monkeypatch):
        u = gaussian(g1, 0.5)
        pert = perturb_q(HLS, 0.3)
        cold = []
        for cfg in (HLS, pert):
            _clear_factor_memos()
            cold.append(self.sweep(g1, cfg, u).ratios)
        _clear_factor_memos()
        riesz_calls = _count_riesz(monkeypatch)
        warm = [self.sweep(g1, cfg, u).ratios for cfg in (HLS, pert)]
        assert len(riesz_calls) == 3  # one per dilation, not two
        assert warm == cold

    @pytest.mark.parametrize("op", ["id", "riesz", "grad", "sublap", "fraclap", "maximal"])
    def test_values_are_read_only(self, g1, op):
        spec = QuadratureSpec(R_max=6.0, lattice_h=0.1)
        u = gaussian(g1, 0.5)
        vals = harness._op_values(g1, op, HLS, u, spec, resolve_R(spec))
        assert not vals.flags.writeable
        with pytest.raises(ValueError):
            vals[0] = 0.0
        assert harness._op_values(g1, op, HLS, u, spec, resolve_R(spec)) is vals

    def test_an_operator_patched_between_sweeps_is_called(self, g1, monkeypatch):
        u = gaussian(g1, 0.5)
        first = self.sweep(g1, HLS, u)
        calls = _count_riesz(monkeypatch)
        again = self.sweep(g1, HLS, u)
        assert len(calls) == 3
        assert again.ratios == first.ratios

    def test_separately_built_functions_share_no_entry(self, g1, monkeypatch):
        riesz_calls = _count_riesz(monkeypatch)
        u1, u2 = gaussian(g1, 0.5), gaussian(g1, 0.5)
        assert u1 != u2  # their callables compare by identity
        a = self.sweep(g1, HLS, u1)
        b = self.sweep(g1, HLS, u2)
        assert len(riesz_calls) == 6
        assert a.ratios == b.ratios


class TestChecks:
    def test_maximal_bound_report(self, g1):
        spec = QuadratureSpec(R_max=12.0, lattice_h=0.04)
        u = gaussian(g1, 0.5)
        grids = sweep_grids(g1, spec, u, 0.25, 4.0)
        rep = maximal_bound_check(g1, 2.0, 0.5, [u], grids, spec)
        assert rep.max_spread <= 2.0
        assert rep.max_ratio > 0.9

    def test_maximal_bound_indicator_ge_one(self, g1):
        spec = QuadratureSpec(R_max=12.0, lattice_h=0.04)
        ui = custom(lambda p: (np.abs(p[..., 0]) <= 1.0).astype(float), decay_radius=1.0)
        cfg = admissible("maximal_bound", Q=1, p=2.0, lam=0.5)
        grids = sweep_grids(g1, spec, ui, 0.25, 4.0)
        lhs, rhs = inequality_sides(g1, cfg, ui, grids, spec)
        assert lhs / rhs >= 1.0 - 1e-6

    def test_maximal_bound_zero_input(self, g1):
        spec = QuadratureSpec(R_max=12.0, lattice_h=0.04)
        z = custom(lambda p: np.zeros(p.shape[:-1]), decay_radius=1.0)
        grids = sweep_grids(g1, spec, z, 0.25, 4.0)
        with pytest.raises(DegenerateInputError):
            maximal_bound_check(g1, 2.0, 0.5, [z], grids, spec)

    def test_hedberg_exponent_sanity(self, g1):
        cfg = admissible("adams_hls", Q=1, p=2.0, gamma=0.3, lam=0.2)
        p, ga, Q, lam = (float(cfg.p), float(cfg.gamma), float(cfg.Q), float(cfg.lam))
        assert 0 < p * ga / (Q - lam) < 1

    def test_hedberg_zero_input_all_skipped(self, g1):
        spec = QuadratureSpec(R_max=12.0, lattice_h=0.04)
        z = custom(lambda p: np.zeros(p.shape[:-1]), decay_radius=1.0)
        cfg = admissible("adams_hls", Q=1, p=2.0, gamma=0.3, lam=0.2)
        pts = np.linspace(-1, 1, 10)[:, None]
        rep = hedberg_pointwise_check(g1, cfg, z, pts, spec)
        assert rep.n_used == 0 and rep.n_skipped == 10 and rep.max_ratio == 0.0

    def test_hedberg_requires_accepted_hls(self, g1):
        spec = QuadratureSpec(R_max=12.0, lattice_h=0.04)
        cfg = admissible("hardy", Q=4, p=2, alpha=0, beta=1, lam=1)
        with pytest.raises(DomainError):
            hedberg_pointwise_check(g1, cfg, gaussian(g1, 1.0), np.zeros((2, 1)), spec)


class TestHeisenbergConsistency:
    def test_hardy_ratio_stable_on_heisenberg(self, h1):
        # short (non-decade) scale consistency on H^1: no uniform lattice
        # can hold a honest decade at Q = 4 within the node budget
        u = gaussian(h1, 0.45)
        spec = QuadratureSpec(R_max=8.0, lattice_h=0.45)
        fac = adapted_spec_factory(h1, spec, u, 0.5, 2.0, fix_wide=False)
        grids = sweep_grids(h1, spec, u, 0.5, 2.0, n_per_axis=3)
        cfg = admissible("hardy", Q=4, p=2, alpha=0, beta=1, lam=1)
        ratios = []
        for t in (0.5, 1.0, 2.0):
            from morreylab.testfunctions import dilated

            lhs, rhs = inequality_sides(h1, cfg, dilated(h1, u, t), grids, fac(t))
            ratios.append(lhs / rhs)
        assert max(ratios) / min(ratios) <= 1.15

    def test_uncertainty_on_heisenberg(self, h1):
        u = gaussian(h1, 0.45)
        spec = QuadratureSpec(R_max=8.0, lattice_h=0.45)
        grids = sweep_grids(h1, spec, u, 1.0, 1.0, n_per_axis=3)
        cfg = admissible("uncertainty", Q=4, p=2, lam=1.5)
        lhs, rhs = inequality_sides(h1, cfg, u, grids, spec)
        assert lhs > 0 and rhs > 0


def test_public_error_paths():
    # 1/q = 1/6 + 0.9 stays positive, but q = 15/16 is not above 1
    with pytest.raises(DomainError, match="must exceed 1"):
        perturb_q(admissible("adams_hls", Q=1, p=1.5, gamma=0.4, lam=0.2), 0.9)
