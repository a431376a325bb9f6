"""The bench's correctness gate, replayed on its three workloads.

Each workload runs at seed 0 and its outcomes must match the stored
reference in ``bench/reference`` to the gate's 1e-6, so a change that
moves a ratio, a slope or a verdict fails here before the bench runs.
This test only reads ``bench/``.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["default_r1", "euclid_consequences", "h1_adams"])
def test_workload_matches_reference(name):
    reference = gate.load_reference(name)
    assert reference is not None
    outcomes = workloads.build(name, 0).run()
    problems = [(o["label"], p) for o, p in zip(outcomes, gate.check(outcomes, reference)) if p]
    assert not problems, problems
