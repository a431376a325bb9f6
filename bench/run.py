"""morreylab benchmark: cold-cache dilation sweeps, end to end and per layer.

    python3 bench/run.py --workload default_r1 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit, the verdict and the run conditions, which are also
written to ``bench/out/``.

``wall_s`` (median cold pass) and ``setup_s`` (median of fresh-process
set-ups) are rescaled to a reference box speed measured next to the
timed work (``bench/calib.py``); the raw seconds are printed on the
first summary line and kept in the record.

This launcher imports neither numpy nor morreylab.  It pins the BLAS
thread count for its child processes, times set-up in fresh processes
(untraced runs only), and runs the measurement itself in one more
(``bench/worker.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent  # the checkout: src/ and BENCHMARK.json
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("default_r1", "euclid_consequences", "h1_adams")
SETUP_REPEATS = 7
BLAS_THREADS = "1"
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def _worker(args, env, deadline):
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(args))
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker {' '.join(args)} timed out after {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _llc_bytes():
    """Size of the largest-level CPU cache, read from sysfs when present."""
    best = (0, None)
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else ():
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1:], 1)
        n = int(size.rstrip("KMG")) * mult
        best = max(best, (level, n))
    return best[1]


def _commit():
    """HEAD of the checkout's own git directory, or None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines():
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def conditions(measured):
    return dict(
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=measured.get("numpy"),
        blas=measured.get("blas"),
        blas_threads=int(BLAS_THREADS),
        llc_bytes=_llc_bytes(),
        commit=_commit(),
        src_lines=_src_lines(),
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "morreylab" / "__init__.py").is_file():
        print(f"error: no morreylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        # set-up samples straddle the measurement, so slow drift in the
        # machine's speed weighs on them as it does on the passes
        n_setup = 0 if args.trace else SETUP_REPEATS
        setups = [_worker(["setup", *common], env, deadline) for _ in range(n_setup // 2)]
        m = _worker(["measure", *common, "--seconds", str(args.seconds),
                     "--trace", str(args.trace)], env, deadline)
        setups += [_worker(["setup", *common], env, deadline)
                   for _ in range(n_setup - n_setup // 2)]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    correct = m["failed"] == 0 and m["identical"]
    if args.trace:
        values = m["per_layer"]
    else:
        values = dict(wall_s=m["wall_s"], setup_s=statistics.median(s["setup_s"] for s in setups),
                      peak_rss_mb=m["peak_rss_mb"],
                      ops_ok_frac=1.0 - m["failed"] / m["attempted"])
    units = declared_units(args.trace)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: declared metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {k: dict(value=values[k], unit=u) for k, u in units.items()}
    cond = conditions(m)
    record = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, conditions=cond, setup_runs=setups, correct=correct,
                  metrics=metrics, measure=m)
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {m['passes']}  sweeps {m['attempted']}  "
          f"raw wall {m['raw_wall_s']:.6g} s  raw setup "
          f"{statistics.median(s['raw_setup_s'] for s in setups) if setups else 0:.6g} s")
    for name, mv in metrics.items():
        print(f"  {name:<52} {mv['value']:>16.6g} {mv['unit']}")
    print(f"  ops_failed_frac {m['failed'] / m['attempted']:.6g}  "
          f"outputs identical across passes{' and tracing' if args.trace else ''}: "
          f"{m['identical']}  reference: {'seed 0' if m['has_reference'] else 'invariants only'}")
    for p in m["problems"]:
        print(f"  FAILED {p}")
    print("verdict:", "correct" if correct else "INCORRECT")
    print("conditions:", json.dumps(cond, sort_keys=True))
    print(json.dumps(dict(correct=correct, attempted=m["attempted"], failed=m["failed"],
                          metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
