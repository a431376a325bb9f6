"""The plan memos: what the lattice engines read of their inputs but u.

``translate_sums`` and ``ball_totals`` split into a plan, which depends on
the lattice, the points and the kernel or radii alone, and a per-call
step that samples u.  Plans are ``lru_cache`` values keyed on the lattice
(g, R, h) of the nodes and the bytes of the points: a memoised call must
equal a cold one bit for bit, and no call may be served another input's
plan.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import clear_plans
from morreylab import groups, quadrature
from morreylab.operators import frac_laplacian_values, frac_maximal_values, riesz_values
from morreylab.quadrature import QuadratureSpec, lattice_nodes, lattice_orbits, product_lattice, radius_grid
from morreylab.report import dump_report, memo_stats, run_experiment, strip_telemetry
from morreylab.testfunctions import gaussian

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))

import worker  # noqa: E402

CONFIG = ROOT / "configs" / "default.json"

# (id, group, spec): K = 240 / 1,256 / 1,904 / 768 nodes
CASES = [
    ("R1", groups.euclidean_group(1), QuadratureSpec(R_max=6.0, lattice_h=0.05)),
    ("R2", groups.euclidean_group(2), QuadratureSpec(R_max=2.0, lattice_h=0.1)),
    ("R3", groups.euclidean_group(3), QuadratureSpec(R_max=1.5, lattice_h=0.2)),
    ("H1", groups.heisenberg_group(), QuadratureSpec(R_max=2.0, lattice_h=0.4)),
]
IDS = [c[0] for c in CASES]
PLANS = ("_lattice_cached", "_translate_plan_cached", "_ball_plan_cached")


def operator_calls(g, spec, pts):
    """(name, call) of every batch operator defined on g, at the points ``pts``."""
    u = gaussian(g, 0.4)
    radii = radius_grid(spec, u.decay_radius)
    calls = [("riesz", lambda: riesz_values(g, 0.6 * g.Q, u, pts, spec)),
             ("maximal", lambda: frac_maximal_values(g, 0.3, u, pts, radii, spec))]
    if g.law == groups.EUCLIDEAN:
        calls.append(("fraclap", lambda: frac_laplacian_values(g, 0.4, u, pts, spec)))
    return calls


def misses():
    return {name: getattr(quadrature, name).cache_info().misses for name in PLANS}


def point_sets(g, spec):
    nodes = lattice_nodes(g, spec)[0]
    return [("all", nodes), ("orbits", nodes[lattice_orbits(g, spec)[0]])]


@pytest.mark.parametrize("name,g,spec", CASES, ids=IDS)
def test_memoised_calls_equal_cold_calls(name, g, spec):
    # the second call reads its plan from the memo; after cache_clear the
    # third builds it again: all three agree bit for bit
    for _, pts in point_sets(g, spec):
        for op, call in operator_calls(g, spec, pts):
            clear_plans()
            first = call()
            before = misses()
            memoised = call()
            assert misses() == before, op
            clear_plans()
            cold = call()
            assert np.array_equal(memoised, cold) and np.array_equal(first, cold), op


@pytest.mark.parametrize("name,g,spec", CASES, ids=IDS)
def test_no_call_is_served_another_inputs_plan(name, g, spec):
    # each of these differs from the warm call in one input the plan
    # depends on: it must build its own plan and equal a cold call
    u = gaussian(g, 0.4)
    pts = lattice_nodes(g, spec)[0]
    radii = radius_grid(spec, u.decay_radius)
    nudged = pts.copy()
    nudged[3, 0] = np.nextafter(nudged[3, 0], np.inf)
    other_h = QuadratureSpec(R_max=spec.R_max, lattice_h=spec.lattice_h * 0.75)
    variants = {
        "riesz": (lambda p, sp, a: riesz_values(g, a, u, p, sp), 0.6 * g.Q, 0.5 * g.Q),
        "maximal": (lambda p, sp, r: frac_maximal_values(g, 0.3, u, p, r, sp), radii, radii[:-1]),
    }
    if g.law == groups.EUCLIDEAN:
        variants["fraclap"] = (lambda p, sp, s: frac_laplacian_values(g, s, u, p, sp), 0.4, 0.3)
    for op, (call, arg, other_arg) in variants.items():
        other_pts = lattice_nodes(g, other_h)[0]
        for p, sp, a in ((nudged, spec, arg), (other_pts, other_h, arg), (pts, spec, other_arg)):
            clear_plans()
            cold = call(p, sp, a)
            clear_plans()
            call(pts, spec, arg)
            before = misses()
            got = call(p, sp, a)
            assert misses() != before, op
            assert got.shape == cold.shape and np.array_equal(got, cold), op


@pytest.mark.parametrize("name,g,spec", CASES, ids=IDS)
def test_another_kernel_reuses_the_lattice(name, g, spec):
    # another gamma, or s, or the fractional Laplacian's kernel in place of
    # the Riesz potential's, changes the kernel's transform but not the
    # product lattice, which is built once
    pts = lattice_nodes(g, spec)[0]
    u = gaussian(g, 0.4)
    calls = [lambda a=a: riesz_values(g, a * g.Q, u, pts, spec) for a in (0.6, 0.5)]
    if g.law == groups.EUCLIDEAN:
        calls += [lambda s=s: frac_laplacian_values(g, s, u, pts, spec) for s in (0.4, 0.3)]
    clear_plans()
    for call in calls:
        call()
    assert quadrature._lattice_cached.cache_info().misses == 1
    assert quadrature._translate_plan_cached.cache_info().misses == len(calls)


@pytest.mark.parametrize("name,g,spec", CASES[:3], ids=IDS[:3])
def test_the_fractional_laplacian_on_the_shared_lattice_equals_a_cold_call(name, g, spec):
    # a Riesz call builds the product lattice that the fractional Laplacian
    # then reads from the memo: its values equal a cold call's bit for bit
    u = gaussian(g, 0.4)
    for _, pts in point_sets(g, spec):
        clear_plans()
        riesz_values(g, 0.6 * g.Q, u, pts, spec)
        before = quadrature._lattice_cached.cache_info().misses
        shared = frac_laplacian_values(g, 0.4, u, pts, spec)
        assert quadrature._lattice_cached.cache_info().misses == before
        clear_plans()
        assert np.array_equal(shared, frac_laplacian_values(g, 0.4, u, pts, spec))


def test_a_default_pass_builds_three_product_lattices(monkeypatch):
    # 40 operator calls on one R^1 lattice: the Riesz potential's lattice
    # and the maximal operator's at one node per orbit, and the fractional
    # Laplacian's at every node, once each
    built = []
    real = quadrature.product_lattice

    def spy(*args):
        built.append(len(args[1]))
        return real(*args)

    worker.clear_caches()
    monkeypatch.setattr(quadrature, "product_lattice", spy)
    run_experiment(json.loads(CONFIG.read_text()))
    assert len(built) == 3


@pytest.mark.parametrize("name,g,spec", CASES, ids=IDS)
def test_sample_buffer_pads_h1_only(backends, name, g, spec):
    # the padding lets every window of the H^1 column correlations run its
    # full length; the R^N correlation transforms the grid alone
    nodes = lattice_nodes(g, spec)[0]
    u = gaussian(g, 0.4)
    lat = product_lattice(g, nodes, nodes, spec.lattice_h)
    buf = lat.sample(u, lat.runs())
    size = math.prod(lat.shape)
    if g.law == groups.EUCLIDEAN:
        assert lat.padding == 0 and len(buf) == size
    else:
        assert lat.padding > 0 and len(buf) == size + lat.padding
    # the memoised fast path, the planned-per-call one and the direct loop
    w = 1.0 / (1.0 + groups.gauge(g, nodes))
    source = (spec.R_max, spec.lattice_h), (lambda *a: (w,), ())
    clear_plans()
    memo = quadrature.translate_sums(g, u, nodes, nodes, w, spec.lattice_h, source)
    fast = backends.agree(quadrature.translate_sums, g, u, nodes, nodes, w, spec.lattice_h)
    assert np.array_equal(memo, fast)


def test_default_report_counts_plan_hits_and_strips_to_the_same_bytes():
    # the telemetry counts every memo's hits in this process; the rest of
    # the report is byte-identical run to run
    doc = json.loads(CONFIG.read_text())
    texts = []
    for _ in range(2):
        worker.clear_caches()
        rep = run_experiment(doc)
        caches = rep["telemetry"]["caches"]
        assert set(caches) >= {f"quadrature.{name}" for name in PLANS}
        for name in ("quadrature._translate_plan_cached", "quadrature._ball_plan_cached"):
            assert caches[name]["hits"] > 0 and caches[name]["currsize"] > 0
        assert caches["quadrature._lattice_cached"]["misses"] == 3
        texts.append(dump_report(rep))
    assert strip_telemetry(texts[0]) == strip_telemetry(texts[1])


def test_cleared_memos_hold_nothing():
    # bench passes start cold: after clear_caches no plan is held
    run_experiment(json.loads(CONFIG.read_text()))
    worker.clear_caches()
    assert all(v["currsize"] == 0 for v in memo_stats().values())
