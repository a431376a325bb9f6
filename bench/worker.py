"""One benchmark process: set-up timing, a measured run, or the reference.

    python3 bench/worker.py setup --workload W --seed S
    python3 bench/worker.py measure --workload W --seed S --seconds T --trace 0|1
    python3 bench/worker.py reference --workload W

``bench/run.py`` starts this with the BLAS thread count pinned and reads
the one JSON line it prints last.  Nothing here imports numpy or
morreylab before the set-up timer starts.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def _import_workloads():
    for p in (str(ROOT / "src"), str(BENCH_DIR)):
        if p not in sys.path:
            sys.path.insert(0, p)
    import morreylab
    import workloads

    src = (ROOT / "src").resolve()
    if src not in Path(morreylab.__file__).resolve().parents:
        raise SystemExit(f"morreylab imported from {morreylab.__file__}, not {src}")
    return workloads


def cmd_setup(args):
    t0 = perf_counter()
    workloads = _import_workloads()
    workloads.build(args.workload, args.seed)
    raw = perf_counter() - t0
    import calib

    return dict(raw_setup_s=raw, setup_s=calib.rescale(raw, calib.Calibrator().box_s()))


def clear_caches():
    """Drop every memo in the package, as a fresh ``morreylab run`` starts."""
    import morreylab

    for mod in vars(morreylab).values():
        if not hasattr(mod, "__file__") or not mod.__name__.startswith("morreylab."):
            continue
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
            elif name.endswith("_cache") and isinstance(obj, dict):
                obj.clear()


# (operator, group, test-function width, small spec, spacing factor that
#  doubles K at fixed R_max).  Points are a fixed stride of the lattice
#  nodes, so the evaluated pairs grow like K^2 as they do in a sweep.
#  Each size is timed PROBE_REPEATS times and the fastest is kept: the
#  first call also builds the lattice caches, and the box's speed drifts.
PROBES = (
    ("riesz_values", "R1", 0.5, (14.0, 0.03), 0.5),
    ("riesz_values", "H1", 0.5, (6.5, 0.75), 2.0 ** -0.25),
    ("frac_laplacian_values", "R1", 0.5, (14.0, 0.03), 0.5),
    ("frac_laplacian_values", "R2", 0.5, (6.0, 0.15), 2.0 ** -0.5),
    ("frac_maximal_values", "R1", 0.5, (14.0, 0.03), 0.5),
    ("frac_maximal_values", "H1", 0.5, (6.5, 0.75), 2.0 ** -0.25),
)
PROBE_POINTS = 512
PROBE_REPEATS = 3


def k_slopes():
    """``d log s / d log K`` of each batch operator on each group it runs on."""
    from morreylab import groups, operators, testfunctions
    from morreylab.quadrature import QuadratureSpec, lattice_nodes, radius_grid

    made = {"R1": groups.euclidean_group(1), "R2": groups.euclidean_group(2),
            "H1": groups.heisenberg_group()}
    out = {}
    for op, gname, width, (R, h), factor in PROBES:
        g = made[gname]
        u = testfunctions.gaussian(g, width)
        specs = [QuadratureSpec(R_max=R, lattice_h=h), QuadratureSpec(R_max=R, lattice_h=h * factor)]
        stride = max(1, lattice_nodes(g, specs[0])[0].shape[0] // PROBE_POINTS)
        sizes, times = [], []
        for spec in specs:
            clear_caches()
            nodes = lattice_nodes(g, spec)[0]
            pts = nodes[::stride]
            if op == "riesz_values":
                args = (g, 1.0 if gname == "H1" else 0.4, u, pts, spec)
            elif op == "frac_laplacian_values":
                args = (g, 0.25, u, pts, spec)
            else:
                args = (g, 0.3, u, pts, radius_grid(spec, u.decay_radius), spec)
            best = math.inf
            for _ in range(PROBE_REPEATS):
                t0 = perf_counter()
                getattr(operators, op)(*args)
                best = min(best, perf_counter() - t0)
            times.append(best)
            sizes.append(nodes.shape[0])
        out[f"operators.{op}.k_slope_{gname}"] = (
            math.log(times[1] / times[0]) / math.log(sizes[1] / sizes[0])
        )
    clear_caches()
    return out


def timed_pass(wl, cal):
    """One cold pass: raw seconds, seconds at reference speed, outcomes.

    The box's speed is taken before the first unit and after each one
    (outside the timed spans); each unit is rescaled by the mean of the
    speeds taken on either side of it.
    """
    import calib

    clear_caches()
    box = cal.box_s()
    raw = norm = 0.0
    outcomes = []
    for unit in wl.units():
        t0 = perf_counter()
        outcomes += unit()
        dt = perf_counter() - t0
        box_after = cal.box_s()
        raw += dt
        norm += calib.rescale(dt, 0.5 * (box + box_after))
        box = box_after
    return raw, norm, outcomes


def _versions():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy releases
        blas = "unknown"
    return dict(numpy=np.__version__, blas=blas)


def cmd_measure(args):
    import resource

    workloads = _import_workloads()
    import calib
    import gate
    import tracer as tracing

    wl = workloads.build(args.workload, args.seed)
    reference = gate.load_reference(args.workload) if args.seed == 0 else None
    tr = tracing.Tracer() if args.trace else None
    modes = (False, True) if args.trace else (False,)

    cal = calib.Calibrator()
    walls = {False: [], True: []}
    raw_walls = {False: [], True: []}
    layers, spans = [], []
    first = None
    identical = True
    attempted = failed = 0
    problems = []
    start = perf_counter()
    while True:
        for traced in modes:
            if traced:
                tr.install()
            try:
                raw, wall, outcomes = timed_pass(wl, cal)
            finally:
                if traced:
                    tr.uninstall()
            raw_walls[traced].append(raw)
            walls[traced].append(wall)
            if traced:
                layers.append(tracing.layer_metrics(tr))
                spans = tracing.spans_document(tr)
                tr.reset()
            text = json.dumps(outcomes, sort_keys=True)
            if first is None:
                first = text
            elif text != first:
                identical = False
            found = gate.check(outcomes, reference)
            attempted += len(found)
            failed += sum(1 for f in found if f)
            problems += [f"{o['label']}: {'; '.join(f)}" for o, f in zip(outcomes, found) if f]
        elapsed = perf_counter() - start
        per_round = elapsed / len(walls[False])
        if elapsed + per_round > args.seconds:
            break

    result = dict(
        workload=args.workload, seed=args.seed, trace=args.trace,
        passes=len(walls[False]) + len(walls[True]),
        walls=walls[False], traced_walls=walls[True],
        raw_walls=raw_walls[False], raw_traced_walls=raw_walls[True],
        wall_s=statistics.median(walls[False]),
        raw_wall_s=statistics.median(raw_walls[False]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=attempted, failed=failed, identical=identical,
        problems=sorted(set(problems)), has_reference=reference is not None,
        inputs=wl.inputs, outcomes=json.loads(first), **_versions(),
    )
    if args.trace:
        per_layer = {k: statistics.fmean(m[k] for m in layers) for k in layers[0]}
        per_layer["trace.overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        )
        per_layer.update(k_slopes())
        result["per_layer"] = per_layer
        OUT_DIR.mkdir(exist_ok=True)
        doc = dict(workload=args.workload, seed=args.seed, per_layer=per_layer,
                   last_pass_spans=spans)
        (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(doc))
    return result


def cmd_reference(args):
    workloads = _import_workloads()
    import gate

    clear_caches()
    outcomes = workloads.build(args.workload, 0).run()
    gate.store_reference(args.workload, outcomes)
    return dict(workload=args.workload, stored=str(gate.reference_path(args.workload)),
                sweeps=len(outcomes))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=("setup", "measure", "reference"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = {"setup": cmd_setup, "measure": cmd_measure, "reference": cmd_reference}[
        args.command
    ](args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
