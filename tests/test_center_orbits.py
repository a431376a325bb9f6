"""Morrey suprema over one centre per orbit of the exact lattice symmetries.

``groups.symmetries(g)`` lists the signed permutations that map every
midpoint lattice onto itself and leave the pair gauges of the Morrey
bins bit-identical.  For a ``d4_invariant`` input a centre and its
images carry one Morrey value, so ``harness._factor_norm`` takes the
supremum over ``harness._orbit_centers``; these tests check the table,
the reduction and the centres a workload pass bins.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab import groups, harness, morrey, testfunctions
from morreylab.quadrature import QuadratureSpec, _nodes_cached, _pair_gauges

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import worker  # noqa: E402
import workloads  # noqa: E402

LAWS = {"R1": groups.euclidean_group(1), "R2": groups.euclidean_group(2),
        "R3": groups.euclidean_group(3), "H1": groups.heisenberg_group()}
coord = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


def image(A, pts):
    perm, signs = A
    return pts[..., list(perm)] * np.array(signs)


def test_the_table_of_each_law():
    sizes = {law: len(groups.symmetries(g)) for law, g in LAWS.items()}
    assert sizes == {"R1": 2, "R2": 8, "R3": 8, "H1": 8}
    for g in LAWS.values():
        table = groups.symmetries(g)
        assert table[0] == (tuple(range(g.dimension)), (1.0,) * g.dimension)
        assert len(set(table)) == len(table)
    h1 = groups.symmetries(LAWS["H1"])
    assert ((1, 0, 2), (-1.0, 1.0, 1.0)) in h1 and ((0, 1, 2), (1.0, -1.0, -1.0)) in h1
    # a coordinate swap on R^3 reorders the three-term sum of squares
    assert all(perm == (0, 1, 2) for perm, _ in groups.symmetries(LAWS["R3"]))


@pytest.mark.parametrize("law", LAWS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pair_gauges_are_bit_identical_under_every_symmetry(law, data):
    g = LAWS[law]
    nodes = _nodes_cached.__wrapped__(g, data.draw(st.floats(1.0, 2.5)), data.draw(st.floats(0.3, 0.6)))[0]
    c = np.array(data.draw(st.lists(st.tuples(*(coord,) * g.dimension), min_size=1, max_size=6)))
    z = nodes[data.draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=32))]
    ref = _pair_gauges(g, c.T[:, :, None], z.T)
    for A in groups.symmetries(g):
        got = _pair_gauges(g, image(A, c).T[:, :, None], image(A, z).T)
        assert got.tobytes() == ref.tobytes(), A


@pytest.mark.parametrize("law", LAWS)
@settings(max_examples=10, deadline=None)
@given(R=st.floats(1.0, 2.5), h=st.floats(0.3, 0.6))
def test_every_symmetry_maps_the_lattice_onto_itself(law, R, h):
    g = LAWS[law]
    nodes = _nodes_cached.__wrapped__(g, R, h)[0]
    rows = np.unique(nodes, axis=0)
    for A in groups.symmetries(g):
        assert np.array_equal(np.unique(image(A, nodes), axis=0), rows), A


@pytest.mark.parametrize("law", LAWS)
@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 12), R=st.floats(0.5, 20.0))
def test_default_centres_are_closed_under_every_symmetry(law, n, R):
    # each axis is its non-negative half mirrored, so every map of the
    # table sends the centres onto themselves bit for bit (a -0.0 of an
    # image is the 0.0 it equals); the identity is row 0 and no other row
    g = LAWS[law]
    centers = morrey.default_centers(g, QuadratureSpec(R, R / 100.0), n_per_axis=n)
    assert not np.any(np.signbit(centers) & (centers == 0.0))
    rows = {row.tobytes() for row in centers}
    assert len(rows) == len(centers)
    for A in groups.symmetries(g):
        assert {row.tobytes() for row in image(A, centers) + 0.0} == rows, A
    assert np.array_equal(centers[0], np.zeros(g.dimension))
    assert not np.any(np.all(centers[1:] == 0.0, axis=1))


def test_images_of_earlier_centres_are_dropped_in_order():
    g = LAWS["R1"]
    c = np.array([[0.0], [1.0], [-0.0], [-1.0], [2.0], [0.5], [1.0]])
    kept = harness._orbit_centers(g, c.tobytes())
    # -0.0 is the image of 0.0 and -1.0 of 1.0; the repeated 1.0 is its own
    assert kept.tolist() == [[0.0], [1.0], [2.0], [0.5]] and not kept.flags.writeable
    # a kept centre is the caller's value, sign of zero included
    assert np.signbit(harness._orbit_centers(g, np.array([[-0.0], [0.0]]).tobytes())).tolist() == [[True]]
    h1 = LAWS["H1"]
    c = np.array([[1.0, 2.0, 3.0], [-2.0, 1.0, 3.0], [1.0, -2.0, -3.0], [1.0, 2.0, -3.0]])
    # the quarter turn and the reflection of the first; the last is in no orbit with it
    assert harness._orbit_centers(h1, c.tobytes()).tolist() == [c[0].tolist(), c[3].tolist()]
    # every map that sends (1, 0, -2) to (1, 0, 2) negates the zero: a -0.0 in
    # the image, or in the centre, must still match
    for zero in (0.0, -0.0):
        c = np.array([[1.0, zero, 2.0], [1.0, zero, -2.0]])
        assert len(harness._orbit_centers(h1, c.tobytes())) == 1


def _spied_estimates(monkeypatch, g, cfg, u, grids, spec):
    """(reduced, every centre) estimates of each factor, on the same samples."""
    real = morrey.morrey_sup_from_samples
    seen = []

    def spy(g, p, lam, centers, *rest):
        seen.append((p, lam, centers, rest))
        return real(g, p, lam, centers, *rest)

    monkeypatch.setattr(morrey, "morrey_sup_from_samples", spy)
    lhs, rhs = harness._factors(cfg)
    out = []
    for f in (lhs, *rhs):
        est = harness._factor_norm(g, f, cfg, u, grids, spec)
        p, lam, centers, rest = seen[-1]
        out.append((est, centers, real(g, p, lam, grids.centers, *rest)))
    return out


# (law, spec, centres per axis, theorem, exponents): every factor tag
REDUCED = [
    ("R1", QuadratureSpec(6.0, 0.05), 5, "adams_hls", dict(p=1.5, gamma=0.4, lam=0.2)),
    ("R1", QuadratureSpec(6.0, 0.05), 5, "frac_hardy",
     dict(p=1.5, gamma=0.5, alpha=0, beta=0.5, lam=0.12)),
    ("R1", QuadratureSpec(6.0, 0.05), 5, "maximal_bound", dict(p=2.0, lam=0.5)),
    ("R2", QuadratureSpec(4.0, 0.2), 5, "hardy", dict(p=1.5, alpha=0.5, beta=0.5, lam=0.6)),
    ("R2", QuadratureSpec(4.0, 0.2), 5, "frac_rellich",
     dict(p=1.3, alpha=0, beta=1.2, gamma=1.2, lam=0.2)),
    ("R3", QuadratureSpec(3.0, 0.3), 3, "rellich", dict(p=1.5, alpha=0.8, beta=1.2, lam=0.8)),
    ("H1", QuadratureSpec(3.0, 0.5), 3, "adams_hls", dict(p=1.5, gamma=1.0, lam=1.0)),
    ("H1", QuadratureSpec(3.0, 0.5), 3, "maximal_bound", dict(p=2.0, lam=1.0)),
    ("H1", QuadratureSpec(3.0, 0.5), 3, "hardy", dict(p=1.5, alpha=0.5, beta=0.5, lam=1.0)),
]


@pytest.mark.parametrize("law,spec,n,theorem,kw", REDUCED,
                         ids=[f"{law}-{theorem}" for law, _, _, theorem, _ in REDUCED])
def test_the_reduced_supremum_is_the_supremum(monkeypatch, law, spec, n, theorem, kw):
    g = LAWS[law]
    cfg = harness.admissible(theorem, Q=g.Q, **kw)
    for u in (testfunctions.gaussian(g, 0.5), testfunctions.bump(g, 1.0)):
        grids = harness.sweep_grids(g, spec, u, 1.0, 1.0, n_per_axis=n)
        for est, centers, full in _spied_estimates(monkeypatch, g, cfg, u, grids, spec):
            assert len(centers) < len(grids.centers)
            assert abs(est.value - full.value) <= 1e-14 * full.value
            images = [image(A, full.argmax_center) + 0.0 for A in groups.symmetries(g)]
            assert any(np.array_equal(est.argmax_center, a) for a in images)


def test_an_input_without_the_flag_keeps_every_centre(monkeypatch):
    g, spec = LAWS["R2"], QuadratureSpec(4.0, 0.2)
    c = np.array([0.6, -0.3])
    u = testfunctions.custom(lambda p: np.exp(-groups.squared_norm(p - c) / 0.25), decay_radius=3.0,
                             smooth=True)
    cfg = harness.admissible("frac_rellich", Q=g.Q, p=1.3, alpha=0, beta=1.2, gamma=1.2, lam=0.2)
    grids = harness.sweep_grids(g, spec, u, 1.0, 1.0, n_per_axis=5)
    for est, centers, full in _spied_estimates(monkeypatch, g, cfg, u, grids, spec):
        assert centers is grids.centers
        assert est.value == full.value and np.array_equal(est.argmax_center, full.argmax_center)
    # the same function flagged would drop the mirror images
    flagged = dataclasses.replace(u, d4_invariant=True)
    assert all(len(centers) < len(grids.centers)
               for _, centers, _ in _spied_estimates(monkeypatch, g, cfg, flagged, grids, spec))


@pytest.mark.parametrize("name,rows", [("default_r1", 600), ("euclid_consequences", 980),
                                       ("h1_adams", 54)])
def test_centre_rows_of_a_seed0_pass(monkeypatch, name, rows):
    # every centre: 1,100, 2,290 and 126 rows.  The default centres are
    # closed under the sign flips bit for bit, so the 11 on R^1 keep 6 rows
    real, seen = morrey.morrey_sup_from_samples, []

    def spy(g, p, lam, centers, *rest):
        seen.append(len(centers))
        return real(g, p, lam, centers, *rest)

    monkeypatch.setattr(morrey, "morrey_sup_from_samples", spy)
    worker.clear_caches()
    workloads.build(name, 0).run()
    assert sum(seen) == rows
