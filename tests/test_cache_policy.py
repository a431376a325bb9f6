"""One cache policy: every memo in the package is a ``functools.lru_cache``.

A run must leave no state behind in plain module-level containers, and
``cache_clear`` on every memo must return the package to a cold start.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

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
        "quadrature._shell_weights_cached",
        "quadrature.gauge_power_weights",
        "quadrature._ball_bins_cached",
        "harness._op_values_cached",
        "harness._dilated",
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
    # the seed-0 default_r1 pass asks for a dozen distinct pair-bin tables
    # many times over: each must be filled once, not refilled after eviction
    real = quadrature._ball_bins_cached
    keys, calls = set(), []

    def spy(*key):
        keys.add(key)
        calls.append(key)
        return real(*key)

    monkeypatch.setattr(quadrature, "_ball_bins_cached", spy)
    real.cache_clear()
    workloads.build("default_r1", 0).run()
    assert len(calls) > len(keys) > 1
    assert real.cache_info().misses == len(keys)
