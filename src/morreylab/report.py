"""Experiment runner and persistence.

A structured JSON config describes a group, a quadrature spec, a test
function battery, and a list of exponent tuples per theorem.  The runner
executes every (theorem, function) sweep, grades each record against the
declared tolerances, and writes a self-describing JSON report plus an
optional flat CSV export for plotting.  Nothing in a run is random: with
one worker the report is byte-identical across runs (telemetry aside).
"""

from __future__ import annotations

import csv
import json
import math
import os
import resource
import sys
import time
from functools import lru_cache

from . import __version__, groups, harness, testfunctions
from .errors import DomainError
from .quadrature import QuadratureSpec


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


_CHECK_DEFAULTS = {"ratio_band": 1.10, "slope_rel_tol": 0.10}

# the keys each level of a config may hold; "output" is read by the CLI only
_TOP_KEYS = ("group", "quadrature", "battery", "t_values", "theorems", "checks",
             "workers", "adapt_specs", "centers_per_axis", "output")
_GROUP_KEYS = ("law", "dimension", "gauge")
_QUADRATURE_KEYS = ("R_max", "lattice_h")
# per battery kind: its constructor, and its fields in the constructor's
# order with their defaults (None: required)
_BATTERY = {
    "gauss_tensor": (testfunctions.gaussian, {"width": 1.0}),
    "bump_compact": (testfunctions.bump, {"radius": 2.0}),
    "power_truncated": (testfunctions.power_truncated, {"exponent": None, "radius": 1.0}),
}
_THEOREM_KEYS = ("theorem", "p", "gamma", "alpha", "beta", "lambda", "a", "r",
                 "perturb_inv_q")


def _need(doc, field, types, path):
    if field not in doc:
        raise ConfigError(f"{path}.{field}: required field missing")
    v = doc[field]
    if not isinstance(v, types):
        raise ConfigError(f"{path}.{field}: expected {types}, got {type(v).__name__}")
    return v


def _object(doc, path, keys):
    """``doc`` itself, after checking it is an object holding only ``keys``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {type(doc).__name__}")
    for key in doc:
        if key not in keys:
            raise ConfigError(f"{path}.{key}: unknown key")
    return doc


def _list(doc, field, default):
    v = doc.get(field, default)
    if not isinstance(v, list):
        raise ConfigError(f"config.{field}: expected a list, got {type(v).__name__}")
    return v


def _is_number(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer literal past the float range
        return False


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def parse_config(doc: dict):
    """Validate a config document into runnable objects.

    Raises :class:`ConfigError` with a field-addressed message on any
    invalid entry, including unknown keys and exponent tuples rejected by
    the theorem's hypothesis set.
    """
    if isinstance(doc, dict) and "seed" in doc:
        raise ConfigError("config.seed: key was removed; nothing in a run is random")
    _object(doc, "config", _TOP_KEYS)
    gdoc = _object(_need(doc, "group", dict, "config"), "config.group", _GROUP_KEYS)
    law = _need(gdoc, "law", str, "config.group")
    dim = gdoc.get("dimension", 3 if law == groups.HEISENBERG1 else 1)
    if not _is_count(dim):
        raise ConfigError(f"config.group.dimension: expected an integer >= 1, got {dim!r}")
    try:
        g = groups.GroupDescriptor(law, dim)
    except DomainError as e:
        # the descriptor's messages start with the field they reject
        raise ConfigError(f"config.group.{e}") from e
    if gdoc.get("gauge", g.gauge_kind) != g.gauge_kind:
        raise ConfigError(f"config.group.gauge: {law} admits {g.gauge_kind}, "
                          f"got {gdoc['gauge']!r}")

    qdoc = _object(doc.get("quadrature", {}), "config.quadrature", _QUADRATURE_KEYS)
    for key, v in qdoc.items():
        if not _is_number(v):
            raise ConfigError(f"config.quadrature.{key}: expected a finite number, got {v!r}")
    try:
        spec = QuadratureSpec(R_max=float(qdoc.get("R_max", 12.0)),
                              lattice_h=float(qdoc.get("lattice_h", 0.05)))
    except Exception as e:
        raise ConfigError(f"config.quadrature: {e}") from e

    battery = []
    for i, b in enumerate(_list(doc, "battery", [{"kind": "gauss_tensor", "width": 1.0}])):
        path = f"config.battery[{i}]"
        if not isinstance(b, dict):
            raise ConfigError(f"{path}: expected an object, got {type(b).__name__}")
        kind = _need(b, "kind", str, path)
        if kind not in _BATTERY:
            raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
        make, fields = _BATTERY[kind]
        _object(b, path, ("kind", *fields))
        args = []
        for key, default in fields.items():
            v = _need(b, key, (int, float), path) if default is None else b.get(key, default)
            if not _is_number(v):
                raise ConfigError(f"{path}.{key}: expected a finite number, got {v!r}")
            args.append(float(v))
        try:
            battery.append(make(g, *args))
        except DomainError as e:
            # the constructors' messages start with the field they reject
            named = any(str(e).startswith(key + " ") for key in fields)
            raise ConfigError(f"{path}.{e}" if named else f"{path}: {e}") from e

    t_values = _list(doc, "t_values", [0.25, 0.5, 1.0, 2.0, 4.0])
    if not all(_is_number(t) for t in t_values):
        raise ConfigError("config.t_values: must be a list of positive numbers")
    try:
        t_values = harness.check_t_values(t_values)
    except DomainError as e:
        raise ConfigError(f"config.t_values: {e}") from e

    theorems = []
    for i, tdoc in enumerate(_list(doc, "theorems", [])):
        path = f"config.theorems[{i}]"
        name = _need(_object(tdoc, path, _THEOREM_KEYS), "theorem", str, path)
        if name not in harness.THEOREMS:
            raise ConfigError(f"{path}.theorem: unknown theorem {name!r}")
        for key, v in tdoc.items():
            if key != "theorem" and not _is_number(v):
                raise ConfigError(f"{path}.{key}: expected a finite number, got {v!r}")
        lam = _need(tdoc, "lambda", (int, float), path)
        if not (0 <= lam <= g.Q):
            raise ConfigError(f"{path}.lambda: must satisfy 0 <= lambda <= Q = {g.Q}")
        try:
            cfg = harness.admissible(
                name,
                Q=g.Q,
                p=_need(tdoc, "p", (int, float), path),
                gamma=tdoc.get("gamma"),
                alpha=tdoc.get("alpha", 0),
                beta=tdoc.get("beta", 0),
                lam=lam,
                a=tdoc.get("a"),
                r_exp=tdoc.get("r"),
            )
        except DomainError as e:
            # every number is checked above: gamma is all admissible can refuse
            raise ConfigError(f"{path}.gamma: {e}") from e
        if isinstance(cfg, harness.Rejection):
            raise ConfigError(f"{path}: rejected, violated condition: {cfg.condition}")
        delta = tdoc.get("perturb_inv_q", 0)
        if delta:
            try:
                cfg = harness.perturb_q(cfg, float(delta))
            except DomainError as e:
                raise ConfigError(f"{path}.perturb_inv_q: {e}") from e
        theorems.append(cfg)

    checks = dict(_CHECK_DEFAULTS)
    checks.update(_object(doc.get("checks", {}), "config.checks", _CHECK_DEFAULTS))
    for key, v in checks.items():
        if not (_is_number(v) and v > 0):
            raise ConfigError(f"config.checks.{key}: expected a positive number, got {v!r}")
    workers = doc.get("workers", 1)
    if not _is_count(workers):
        raise ConfigError(f"config.workers: expected an integer >= 1, got {workers!r}")
    n_per_axis = doc.get("centers_per_axis")
    if not (n_per_axis is None or _is_count(n_per_axis)):
        raise ConfigError(f"config.centers_per_axis: expected an integer >= 1, "
                          f"got {n_per_axis!r}")
    adapt_specs = doc.get("adapt_specs", False)
    if not isinstance(adapt_specs, bool):
        raise ConfigError(f"config.adapt_specs: expected true or false, got {adapt_specs!r}")
    if not isinstance(doc.get("output", ""), str):
        raise ConfigError("config.output: expected a file name")
    return dict(
        group=g,
        spec=spec,
        battery=battery,
        t_values=list(t_values),
        theorems=theorems,
        checks=checks,
        workers=workers,
        adapt_specs=adapt_specs,
        centers_per_axis=n_per_axis,
    )


@lru_cache(maxsize=1)
def _parsed(text: str):
    """``parse_config`` of a document given as canonical JSON (sorted keys).

    Every task of a run reads the same text, so a process parses it once
    and its tasks share one battery: a test function is one object across
    theorems, and the factor memo of ``harness`` hits across tasks.
    """
    return parse_config(json.loads(text))


def _grade(rec: harness.RatioSweepRecord, band, slope_tol):
    """(check description, passed) of one sweep record."""
    if rec.config.admissible_flag:
        spread = max(rec.ratios) / min(rec.ratios)
        return f"max/min ratio <= {band}", bool(spread <= band)
    pm = rec.predicted_mismatch
    if abs(pm) < 0.2:
        return "perturbation below slope-test threshold: recorded only", True
    return (
        f"|slope - predicted| <= {slope_tol}*|predicted|",
        bool(abs(rec.fitted_slope - pm) <= slope_tol * abs(pm)),
    )


def _record_dict(cfg, u, t_values, check, passed, note=None, rec=None):
    """One report record; the sweep fields stay empty when ``rec`` is None."""
    ratios = list(rec.ratios) if rec is not None else []
    return dict(
        theorem=cfg.theorem,
        function=u.label,
        config=cfg.as_floats(),
        t_values=list(t_values),
        ratios=ratios,
        fitted_slope=rec.fitted_slope if rec else math.nan,
        predicted_mismatch=float(harness.predicted_mismatch(cfg)),
        estimated_constant=rec.estimated_constant if rec else math.nan,
        spread=max(ratios) / min(ratios) if ratios else math.nan,
        degenerate=rec.degenerate if rec else False,
        grid=rec.grid_meta if rec else {},
        suprema=[list(sups) for sups in rec.suprema] if rec else [],
        check=check,
        passed=passed,
        note=note,
    )


def _run_task(args):
    text, ti, fi = args
    parsed = _parsed(text)
    g = parsed["group"]
    cfg = parsed["theorems"][ti]
    u = parsed["battery"][fi]
    spec = parsed["spec"]
    t_values = parsed["t_values"]

    if harness.differentiates(cfg) and not u.smooth:
        return _record_dict(cfg, u, t_values, "skipped", True,
                            note="skipped: theorem needs a smooth test function")
    t_min, t_max = min(t_values), max(t_values)
    if parsed["adapt_specs"]:
        sweep_spec = harness.adapted_spec_factory(g, spec, u, t_min, t_max)
    else:
        sweep_spec = spec
    grids = harness.sweep_grids(
        g, spec, u, t_min, t_max, n_per_axis=parsed["centers_per_axis"]
    )
    try:
        rec = harness.dilation_sweep(g, cfg, u, t_values, grids, sweep_spec)
        anchor = _anchor(g, cfg, u, grids, sweep_spec, rec) if parsed["adapt_specs"] else None
    except Exception as e:
        return _record_dict(cfg, u, t_values, "error", False,
                            note=f"{type(e).__name__}: {e}")
    band = parsed["checks"]["ratio_band"]
    check, ok = _grade(rec, band, parsed["checks"]["slope_rel_tol"])
    if anchor is None:
        return _record_dict(cfg, u, rec.t_values, check, ok, rec=rec)
    check += f"; t=1 refinement anchor max/min <= {band}"
    record = _record_dict(cfg, u, rec.t_values, check, ok and anchor["spread"] <= band,
                          rec=rec)
    record["anchor"] = anchor
    return record


def _anchor(g, cfg, u, grids, spec_of, rec):
    """The t = 1 ratio of an adapted sweep on spec(1) and on spec(1).refined().

    Adapted sweeps change the spacing with t, so a drift of the whole
    curve with the spacing would not show in its spread; the refined
    t = 1 ratio anchors it.
    """
    if 1.0 in rec.t_values:
        ratio = rec.ratios[rec.t_values.index(1.0)]
    else:
        lhs, rhs = harness.inequality_sides(g, cfg, u, grids, spec_of(1.0))
        ratio = lhs / rhs
    lhs, rhs = harness.inequality_sides(g, cfg, u, grids, spec_of(1.0).refined())
    refined = lhs / rhs
    return dict(t=1.0, ratio=ratio, ratio_refined=refined,
                spread=max(ratio, refined) / min(ratio, refined))


def _process_pool(max_workers):
    """A ``ProcessPoolExecutor``, imported here: a one-worker run never loads multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def run_experiment(doc: dict) -> dict:
    """Execute a config document and return the report document."""
    t_start = time.time()
    try:
        text = json.dumps(doc, sort_keys=True)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"config: not a JSON document: {e}") from e
    parsed = _parsed(text)
    n_t, n_f = len(parsed["theorems"]), len(parsed["battery"])
    # function-major, so that a tuple and its perturb_inv_q control run
    # close enough for the factor memo to keep the values they share
    tasks = [(text, ti, fi) for fi in range(n_f) for ti in range(n_t)]
    # the pool forks all its workers at the first submit: start no idle ones
    workers = min(parsed["workers"], len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with _process_pool(max_workers=workers) as pool:
            done = list(pool.map(_run_task, tasks))
    else:
        done = [_run_task(t) for t in tasks]
    # records in theorem-major order: task (ti, fi) ran at fi * n_t + ti
    records = [done[fi * n_t + ti] for ti in range(n_t) for fi in range(n_f)]
    checks = [
        dict(
            name=f"{r['theorem']}[{r['function']}]",
            passed=bool(r["passed"]),
            detail=r["note"] or r["check"],
        )
        for r in records
    ]
    report = dict(
        tool_version=__version__,
        config=doc,
        records=records,
        checks=checks,
        all_pass=all(c["passed"] for c in checks),
        telemetry=dict(
            wall_clock_s=time.time() - t_start,
            tasks=len(tasks),
            workers=workers,
            # of this process; ru_maxrss is in KiB on Linux
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            caches=memo_stats(),
        ),
    )
    return report


def memo_stats() -> dict:
    """``{module.memo: {hits, misses, currsize}}`` of every memo in the package.

    Read from each ``lru_cache``'s ``cache_info()`` in this process, since
    its last clear: worker processes count their own, so with a pool the
    parent's counts stay at the parse.
    """
    out = {}
    for module, mod in list(sys.modules.items()):
        if not module.startswith(f"{__package__}."):
            continue
        # a memo imported by another module is counted once, by its own name
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info"):
                info = obj.cache_info()
                name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__qualname__}"
                out[name] = dict(hits=info.hits, misses=info.misses, currsize=info.currsize)
    return dict(sorted(out.items()))


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=1)


def strip_telemetry(report_text: str) -> str:
    doc = json.loads(report_text)
    doc.pop("telemetry", None)
    return json.dumps(doc, sort_keys=True, indent=1)


PLOT_COLUMNS = ("theorem", "function", "t", "ratio", "predicted_mismatch", "fitted_slope")


def emit_plotdata(report: dict, out) -> int:
    """Write flat (theorem, t, ratio, mismatch, slope) rows as CSV.

    Floats are written with shortest round-trip formatting, so parsing the
    file back reproduces them bit-exactly.
    """
    w = csv.writer(out, lineterminator="\n")
    w.writerow(PLOT_COLUMNS)
    n = 0
    for rec in report.get("records", []):
        for t, ratio in zip(rec["t_values"], rec["ratios"]):
            w.writerow(
                [
                    rec["theorem"],
                    rec["function"],
                    repr(float(t)),
                    repr(float(ratio)),
                    repr(float(rec["predicted_mismatch"])),
                    repr(float(rec["fitted_slope"])),
                ]
            )
            n += 1
    return n

