"""Tests of the benchmark itself: tracing, the reference gate, seeded inputs,
speed rescaling.

    python3 -m pytest bench -q
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
for _p in (str(BENCH_DIR.parent / "src"), str(BENCH_DIR)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from morreylab import groups, harness, operators, quadrature, testfunctions  # noqa: E402
from morreylab.quadrature import QuadratureSpec  # noqa: E402


def _small_sweep():
    g = groups.euclidean_group(1)
    spec = QuadratureSpec(R_max=8.0, lattice_h=0.08)
    u = testfunctions.gaussian(g, 0.5)
    grids = harness.sweep_grids(g, spec, u, 0.5, 5.0)
    cfg = harness.admissible("adams_hls", Q=g.Q, p=1.5, gamma=0.4, lam=0.2)
    return lambda: harness.dilation_sweep(g, cfg, u, (0.5, 1.0, 5.0), grids, spec)


def test_tracing_leaves_outputs_unchanged_and_restores_functions():
    g = groups.heisenberg_group()
    spec = QuadratureSpec(R_max=3.0, lattice_h=0.5)
    u = testfunctions.gaussian(g, 0.5)
    pts = quadrature.lattice_nodes(g, spec)[0][::7]
    sweep = _small_sweep()
    plain = operators.riesz_values(g, 1.0, u, pts, spec), sweep()

    originals = (operators.riesz_values, harness.lattice_nodes, groups.mul,
                 testfunctions.TestFunction.__call__)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = operators.riesz_values(g, 1.0, u, pts, spec), sweep()
    finally:
        tr.uninstall()

    assert np.array_equal(plain[0], traced[0])
    assert plain[1].ratios == traced[1].ratios
    assert plain[1].fitted_slope == traced[1].fitted_slope
    assert originals == (operators.riesz_values, harness.lattice_nodes, groups.mul,
                         testfunctions.TestFunction.__call__)
    layers = tracer.layer_metrics(tr)
    assert layers["operators.riesz_values.calls"] == 4  # one direct call + one per dilation
    assert layers["harness.dilation_sweep.calls"] == 1
    assert layers["operators.riesz_values.pairs"] > 0
    assert layers["testfunctions.eval.points"] > 0
    assert 0 <= layers["harness.inequality_sides.self_s"]


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    inner = tr.wrap("inner", lambda: sum(range(20000)))
    outer = tr.wrap("outer", lambda: inner() + inner())
    outer()
    incl, self_s = tr.totals()
    assert incl["inner"] > 0
    assert self_s["outer"] == pytest.approx(incl["outer"] - incl["inner"], abs=1e-12)
    assert [s[3] for s in tr.spans] == [-1, 0, 0]


def _reference_outcome():
    return copy.deepcopy(gate.load_reference("default_r1")[0])


def test_gate_accepts_the_reference_and_reordering_noise():
    ref = gate.load_reference("default_r1")
    assert all(p == [] for p in gate.check(copy.deepcopy(ref), ref))
    noisy = _reference_outcome()
    noisy["ratios"] = [r * (1 + 1e-12) for r in noisy["ratios"]]
    assert gate.check([noisy], [_reference_outcome()]) == [[]]


@pytest.mark.parametrize("change", ["ratio", "slope", "verdict", "raised"])
def test_gate_flags_a_perturbed_outcome(change):
    out = _reference_outcome()
    if change == "ratio":
        out["ratios"][2] *= 1 + 1e-4
    elif change == "slope":
        out["slope"] += 1e-4
    elif change == "verdict":
        out["passed"] = not out["passed"]
    else:
        out["error"] = "DomainError: boom"
    assert gate.check([out], [_reference_outcome()])[0]


def test_gate_without_reference_checks_invariants():
    out = _reference_outcome()
    assert gate.check([out], None) == [[]]
    bad = dict(out, mismatch=0.01)
    assert gate.check([bad], None)[0]
    assert gate.check([dict(out, ratios=[1.0, float("nan")])], None)[0]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_inputs_are_deterministic_per_seed(name):
    a = json.dumps(workloads.build(name, 7).inputs, sort_keys=True)
    b = json.dumps(workloads.build(name, 7).inputs, sort_keys=True)
    base = json.dumps(workloads.build(name, 0).inputs, sort_keys=True)
    assert a == b
    assert a != base


def test_seed_zero_reproduces_the_base_inputs():
    assert workloads.build("default_r1", 0).doc == workloads.DEFAULT_CONFIG
    h1 = workloads.build("h1_adams", 0).inputs[0]
    assert h1["adams"] == workloads.H1_ADAMS and h1["width"] == workloads.H1_WIDTH
    euclid = workloads.build("euclid_consequences", 0)
    want = [kw for *_, tuples in workloads.EUCLID_BLOCKS for _, kw in tuples]
    got = [{k: v for k, v in inp.items() if k not in ("group", "width", "theorem")}
           for inp in euclid.inputs]
    assert got == want


def test_jitter_keeps_tuples_admissible_and_small():
    import random

    rng = random.Random(3)
    for Q, *_, tuples in workloads.EUCLID_BLOCKS:
        for theorem, kw in tuples:
            for _ in range(20):
                jit = workloads.jitter_tuple(theorem, Q, kw, rng)
                assert not isinstance(harness.admissible(theorem, Q=Q, **jit),
                                      harness.Rejection)
                for key in ("p", "lam"):
                    assert abs(jit[key] / kw[key] - 1) <= workloads.JITTER + 1e-12


def test_timed_pass_rescales_each_unit_by_the_box_speed_around_it(monkeypatch):
    import calib
    import worker

    ticks = iter(range(100))
    monkeypatch.setattr(worker, "perf_counter", lambda: float(next(ticks)))

    class Box:
        speeds = iter([1.0, 2.0, 4.0])

        def box_s(self):
            return next(self.speeds)

    class TwoUnits:
        def units(self):
            return [lambda: ["a"], lambda: ["b"]]

    raw, norm, outcomes = worker.timed_pass(TwoUnits(), Box())
    assert outcomes == ["a", "b"]
    assert raw == 2.0  # each unit spans one clock tick
    assert norm == pytest.approx(calib.REFERENCE_S / 1.5 + calib.REFERENCE_S / 3.0)
