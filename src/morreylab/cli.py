"""Command line front end: run, check-admissibility, emit-plotdata, list-battery."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import harness, report
from .errors import DomainError

THEOREM_ALIASES = {
    "sw": "stein_weiss_adams",
    "swa": "stein_weiss_adams",
    "hls": "adams_hls",
    "adams": "adams_hls",
    "gn": "gagliardo_nirenberg",
}

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_INTERNAL = 3


def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _fmt(x):
    if x is None:
        return "-"
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else str(x.numerator)
    return f"{float(x):g}"


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="morreylab",
        description="dilation-scaling verification of Morrey-space inequalities",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config and write a report")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument(
        "--refine", action="count", default=0,
        help="halve the quadrature lattice_h (repeatable)",
    )

    p_adm = sub.add_parser("check-admissibility", help="complete or reject a tuple")
    p_adm.add_argument("--theorem", required=True)
    p_adm.add_argument("--Q", type=_rational, required=True)
    p_adm.add_argument("--p", type=_rational, required=True)
    p_adm.add_argument("--gamma", type=_rational, default=None)
    p_adm.add_argument("--alpha", type=_rational, default=0)
    p_adm.add_argument("--beta", type=_rational, default=0)
    p_adm.add_argument("--lambda", dest="lam", type=_rational, required=True)
    p_adm.add_argument("--a", type=_rational, default=None)
    p_adm.add_argument("--r", type=_rational, default=None)

    p_plot = sub.add_parser("emit-plotdata", help="flatten a report to CSV")
    p_plot.add_argument("--report", required=True)
    p_plot.add_argument("--out", required=True)

    p_bat = sub.add_parser("list-battery", help="show the test-function battery")
    p_bat.add_argument("--config", default=None)
    return ap


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as e:
        print(f"config: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except json.JSONDecodeError as e:
        print(f"config: invalid JSON at line {e.lineno}: {e.msg}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        # validate the file as written, then apply the command-line overrides
        spec = report.parse_config(doc)["spec"]
        if args.workers is not None:
            doc["workers"] = args.workers
        if args.refine:
            doc["quadrature"] = dict(doc.get("quadrature", {}), lattice_h=spec.refined(args.refine).lattice_h)
        rep = report.run_experiment(doc)
    except report.ConfigError as e:
        print(str(e), file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as e:  # pragma: no cover - internal fault path
        print(f"internal fault: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    out_path = args.out or doc.get("output", "report.json")
    with open(out_path, "w") as fh:
        fh.write(report.dump_report(rep))
    for c in rep["checks"]:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}")
    print(f"report written to {out_path}")
    return EXIT_OK if rep["all_pass"] else EXIT_CHECK_FAILED


def _cmd_admissibility(args) -> int:
    name = THEOREM_ALIASES.get(args.theorem, args.theorem)
    if name not in harness.THEOREMS:
        print(f"unknown theorem {args.theorem!r}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        out = harness.admissible(
            name, Q=args.Q, p=args.p, gamma=args.gamma,
            alpha=args.alpha, beta=args.beta, lam=args.lam, a=args.a, r_exp=args.r,
        )
    except DomainError as e:
        print(f"check-admissibility: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if isinstance(out, harness.Rejection):
        print(f"rejected: {out.condition}")
    else:
        print(f"q = {_fmt(out.q)}, admissible")
    return EXIT_OK


def _cmd_plotdata(args) -> int:
    try:
        with open(args.report) as fh:
            rep = json.load(fh)
        if not isinstance(rep, dict) or "records" not in rep:
            raise ValueError("not a verification report")
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"report: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    with open(args.out, "w") as fh:
        n = report.emit_plotdata(rep, fh)
    print(f"wrote {n} rows to {args.out}")
    return EXIT_OK


def _cmd_battery(args) -> int:
    # without --config: the battery of a config that names none
    doc = {"group": {"law": "euclidean"}}
    try:
        if args.config:
            with open(args.config) as fh:
                doc = json.load(fh)
        parsed = report.parse_config(doc)
    except (OSError, json.JSONDecodeError, report.ConfigError) as e:
        print(f"config: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    for u in parsed["battery"]:
        print(f"{u.label}: kind={u.kind} decay_radius={u.decay_radius:.4g} smooth={u.smooth}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cmd = {
        "run": _cmd_run,
        "check-admissibility": _cmd_admissibility,
        "emit-plotdata": _cmd_plotdata,
        "list-battery": _cmd_battery,
    }[args.command]
    return cmd(args)


if __name__ == "__main__":
    sys.exit(main())
