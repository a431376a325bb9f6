"""One cache policy: every memo in the package is a ``functools.lru_cache``.

A run must leave no state behind in plain module-level containers, and
``cache_clear`` on every memo must return the package to a cold start.
"""

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import numpy as np

import morreylab
from morreylab import harness, heisenberg_group, quadrature
from morreylab.operators import riesz_values
from morreylab.report import run_experiment
from morreylab.testfunctions import gaussian

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import worker  # noqa: E402
import workloads  # noqa: E402

CONFIG = {
    "group": {"law": "euclidean", "dimension": 1},
    "quadrature": {"R_max": 6.0, "lattice_h": 0.1},
    "battery": [{"kind": "gauss_tensor", "width": 0.5}],
    "t_values": [0.5, 5.0],
    "theorems": [
        {"theorem": "stein_weiss_adams", "p": 1.6, "gamma": 0.45, "alpha": 0.15,
         "beta": 0.1, "lambda": 0.3},
        {"theorem": "maximal_bound", "p": 2.0, "lambda": 0.5},
        {"theorem": "frac_hardy", "p": 1.5, "gamma": 0.5, "alpha": 0, "beta": 0.5,
         "lambda": 0.12},
    ],
}


def _module_globals():
    for info in pkgutil.iter_modules(morreylab.__path__):
        mod = importlib.import_module(f"morreylab.{info.name}")
        for name, obj in vars(mod).items():
            if not name.startswith("__"):
                yield f"{info.name}.{name}", obj


def _containers():
    return {
        name: repr(obj)
        for name, obj in _module_globals()
        if isinstance(obj, (dict, list, set))
    }


def test_run_leaves_module_containers_untouched():
    # a memo kept in a plain dict (or list, or set) would grow here
    before = _containers()
    run_experiment(CONFIG)
    assert _containers() == before


def test_every_memo_is_an_lru_cache_and_clears():
    run_experiment(CONFIG)
    memos = {n: obj for n, obj in _module_globals() if hasattr(obj, "cache_clear")}
    used = {
        "quadrature._nodes_cached",
        "quadrature._shells",
        "quadrature._shell_weights_cached",
        "quadrature.gauge_power_weights",
        "quadrature._lattice_bins",
        "harness._op_values_cached",
        "harness._orbit_centers",
        "harness._dilated",
        "quadrature._lattice_cached",
        "quadrature._translate_plan_cached",
        "quadrature._ball_plan_cached",
        "operators._fraclap_kernel",
    }
    assert used <= set(memos)
    assert all(memos[n].cache_info().currsize > 0 for n in used)
    for obj in memos.values():
        obj.cache_clear()
        assert obj.cache_info().currsize == 0


def test_bench_passes_start_without_factor_values():
    # every timed pass begins with worker.clear_caches(): a factor value or
    # dilated copy left from the previous pass would make it warm
    run_experiment(CONFIG)
    memos = (harness._op_values_cached, harness._dilated)
    assert all(m.cache_info().currsize > 0 for m in memos)
    worker.clear_caches()
    assert [m.cache_info().currsize for m in memos] == [0, 0]


def test_one_lattice_per_key():
    # an unrounded R_max (h1_adams' radius at t = 1): the shell weights and
    # lattice_nodes must look up the same lattice
    g = heisenberg_group()
    spec = quadrature.QuadratureSpec(R_max=6.529141902923584, lattice_h=0.75)
    quadrature._nodes_cached.cache_clear()
    quadrature._shell_weights_cached.cache_clear()
    nodes = quadrature.lattice_nodes(g, spec)[0]
    riesz_values(g, 1.0, gaussian(g, 1.0), nodes, spec)
    assert quadrature._nodes_cached.cache_info().currsize == 1


def test_pair_bin_memo_holds_a_pass(monkeypatch):
    # a seed-0 pass asks for 12 (default_r1) or 26 (euclid_consequences)
    # distinct pair-bin tables many times over: each must be filled once,
    # not refilled after eviction; the runs of a euclid_consequences pass
    # (0.9 MB) hold less than the 2.6 MB of one-byte pair bins that all of
    # its centres would take
    real = quadrature._lattice_bins
    for name, tables in (("default_r1", 12), ("euclid_consequences", 26)):
        keys, calls, held = set(), [], {}

        def spy(*key):
            keys.add(key)
            calls.append(key)
            held[key] = real(*key)
            return held[key]

        monkeypatch.setattr(quadrature, "_lattice_bins", spy)
        real.cache_clear()
        workloads.build(name, 0).run()
        assert len(calls) > len(keys) == tables
        assert real.cache_info().misses == tables
    assert sum(r.end.nbytes + r.ball.nbytes + r.first.nbytes for r in held.values()) <= 2.6e6


def test_no_memo_key_holds_a_node_array(monkeypatch):
    # a key holding the bytes of a node array hashes every node on every
    # lookup: the node side of every key is its lattice (g, R, h).  The
    # points (or centres) a plan is made for are the call's own input and
    # are keyed by their bytes (2 µs for 934 points), though they may be a
    # lattice's nodes
    worker.clear_caches()
    keys = []
    for name, memo in list(_module_globals()):
        if hasattr(memo, "cache_clear"):
            def spy(*args, real=memo, name=name):
                keys.append((name, dict(zip(inspect.signature(real).parameters, args))))
                return real(*args)

            mod, attr = name.split(".")
            monkeypatch.setattr(importlib.import_module(f"morreylab.{mod}"), attr, spy)
    workloads.build("euclid_consequences", 0).run()
    lattices = {tuple(args.values()) for name, args in keys if name.endswith("._nodes_cached")}
    node_bytes = {quadrature._nodes_cached(*key)[0].nbytes for key in lattices}
    sizes = {len(a) if isinstance(a, bytes) else np.asarray(a).nbytes
             for _, args in keys for p, a in args.items()
             if p not in ("points", "centers") and isinstance(a, (bytes, np.ndarray))}
    assert len(lattices) > 1 and sizes
    assert any("points" in args for _, args in keys)
    assert not node_bytes & sizes


def test_a_run_parses_once_so_controls_reuse_riesz_values(monkeypatch):
    # each task parsed the config anew, so no two tasks shared a test
    # function and the factor memo never hit: the perturb_inv_q control
    # recomputed its tuple's |I_γ u| (30 Riesz calls a pass, not 20)
    from morreylab import operators, report

    run = workloads.build("default_r1", 0)
    calls = {"parse_config": 0, "riesz_values": 0}
    for owner, name in ((report, "parse_config"), (operators, "riesz_values")):
        def counted(*args, real=getattr(owner, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    worker.clear_caches()
    outcomes = run.run()
    assert calls == {"parse_config": 1, "riesz_values": 20}
    assert harness._op_values_cached.cache_info().hits == 50
    # the records keep theorem-major order
    doc = workloads.DEFAULT_CONFIG
    names = [o["label"].split(":", 1)[1].split("[", 1) for o in outcomes]
    assert [t for t, _ in names] == [t["theorem"] for t in doc["theorems"] for _ in doc["battery"]]
    assert [f for _, f in names] == [f for _, f in names[:2]] * len(doc["theorems"])
