"""Correctness gate: compare sweep outcomes with the stored seed-0 reference.

A sweep counts as failed when it raised, or when its ratios, fitted slope
or predicted mismatch leave the reference by more than
``|a - b| <= RTOL * max(|a|, |b|) + ATOL``, or its pass flag differs.
RTOL = 1e-6 is about a million times the drift that reordering a
floating-point sum produces (~1e-12 relative through the Morrey sup and
the log-log fit), yet far below any change that can move a verdict:
the ratio band and slope tolerance are 10% wide.  Seeds without a
reference are held to invariants only: no exception, finite positive
ratios, and a vanishing predicted mismatch on admissible tuples.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-9
MISMATCH_TOL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload):
    path = reference_path(workload)
    if not path.is_file():
        return None
    return json.loads(path.read_text())["outcomes"]


def store_reference(workload, outcomes):
    REFERENCE_DIR.mkdir(exist_ok=True)
    doc = dict(workload=workload, seed=0, rtol=RTOL, atol=ATOL, outcomes=outcomes)
    reference_path(workload).write_text(json.dumps(doc, indent=1) + "\n")


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def invariant_problems(out):
    """Reasons an outcome is wrong whatever its inputs."""
    if out["error"]:
        return [f"raised {out['error']}"]
    problems = []
    if not all(math.isfinite(r) and r > 0 for r in out["ratios"]):
        problems.append(f"non-finite or non-positive ratio in {out['ratios']}")
    if out["admissible"] and not abs(out["mismatch"]) <= MISMATCH_TOL:
        problems.append(f"admissible tuple with predicted mismatch {out['mismatch']!r}")
    return problems


def reference_problems(out, ref):
    """Reasons an outcome leaves its reference."""
    problems = []
    if out["label"] != ref["label"]:
        return [f"label {out['label']!r} != reference {ref['label']!r}"]
    if len(out["ratios"]) != len(ref["ratios"]) or not all(
        _close(a, b) for a, b in zip(out["ratios"], ref["ratios"])
    ):
        problems.append(f"ratios {out['ratios']} != reference {ref['ratios']}")
    for key in ("slope", "mismatch"):
        if not _close(out[key], ref[key]):
            problems.append(f"{key} {out[key]!r} != reference {ref[key]!r}")
    if out["passed"] != ref["passed"]:
        problems.append(f"verdict passed={out['passed']} != reference {ref['passed']}")
    return problems


def check(outcomes, reference):
    """Per-outcome problem lists; an empty list means the sweep is correct."""
    found = [invariant_problems(o) for o in outcomes]
    if reference is None:
        return found
    if len(reference) != len(outcomes):
        return [p + [f"{len(outcomes)} sweeps != reference {len(reference)}"] for p in found]
    return [p + reference_problems(o, r) for p, o, r in zip(found, outcomes, reference)]
