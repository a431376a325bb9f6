"""The product-lattice backend against the direct loops it replaces.

On H^1, ``kernel_band_values`` (so ``riesz_values``) samples u once on the
grid where the products x z of on-lattice points and nodes land and
gathers the sums by index.  On every law, ``frac_maximal_values`` reads
the ball bin of each centre-node pair from a table over that grid and
recomputes the pairs near a radius.  The direct loops stay as the
fallback; here they are the small-K oracle.  Riesz sums must agree to
1e-12 of the largest value; ball bins and maximal values bit for bit.
"""

import numpy as np
import pytest

from morreylab import groups, harness, operators, quadrature
from morreylab.errors import IntegrandError
from morreylab.quadrature import (
    QuadratureSpec,
    ball_bin_table,
    ball_bins,
    kernel_band_values,
    lattice_nodes,
    product_lattice,
    radius_grid,
)
from morreylab.report import run_experiment
from morreylab.testfunctions import dilated, gaussian, power_truncated

RTOL = 1e-12
# K = 768 nodes; the product grid holds 74k samples against 590k pairs
H1_SPEC = QuadratureSpec(R_max=2.0, lattice_h=0.4)


def _run(monkeypatch, fast, fn, *args, **kwargs):
    """fn(*args) with the product lattice on (asserting it ran) or off."""
    used = []
    real = quadrature.product_lattice

    def spy(*a):
        out = real(*a) if fast else None
        used.append(out is not None)
        return out

    with monkeypatch.context() as m:
        m.setattr(quadrature, "product_lattice", spy)
        m.setattr(operators, "product_lattice", spy)
        out = fn(*args, **kwargs)
    assert used and all(used) == fast
    return out


def _agree(monkeypatch, fn, *args, **kwargs):
    fast = _run(monkeypatch, True, fn, *args, **kwargs)
    direct = _run(monkeypatch, False, fn, *args, **kwargs)
    assert np.all(np.isfinite(direct))
    err = np.max(np.abs(fast - direct)) / np.max(np.abs(direct))
    assert err <= RTOL, err
    return fast


@pytest.mark.parametrize("sign", [1, -1])
def test_products_land_on_the_grid(h1, sign):
    nodes = lattice_nodes(h1, H1_SPEC)[0]
    pts = sign * nodes
    lat = product_lattice(h1, pts, nodes, H1_SPEC.effective_h)
    grid = lat.grid.reshape(-1, 3)
    at = lat.index(slice(None))
    assert 0 <= at.min() and at.max() < len(grid) < len(pts) * len(nodes)
    prod = groups.mul(h1, pts[:, None, :], nodes[None, :, :])
    assert np.max(np.abs(grid[at] - prod)) <= 1e-14


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_h1_riesz_matches_direct(monkeypatch, h1, t):
    u = dilated(h1, gaussian(h1, 0.25), t)
    nodes = lattice_nodes(h1, H1_SPEC)[0]
    _agree(monkeypatch, operators.riesz_values, h1, 1.5, u, nodes, H1_SPEC)


@pytest.mark.parametrize("r_lo,r_hi", [(0.0, 0.6), (0.6, None)])
def test_h1_band_matches_direct(monkeypatch, h1, r_lo, r_hi):
    nodes = lattice_nodes(h1, H1_SPEC)[0]
    _agree(monkeypatch, kernel_band_values, h1, 1.0 - h1.Q, gaussian(h1, 0.3), nodes,
           H1_SPEC, r_lo=r_lo, r_hi=r_hi)


def test_h1_node_subset_matches_direct(monkeypatch, h1):
    spec = QuadratureSpec(R_max=1.5, lattice_h=0.25)
    nodes = lattice_nodes(h1, spec, R_eff=0.8)[0]
    assert len(nodes) < len(lattice_nodes(h1, spec)[0])
    _agree(monkeypatch, operators.riesz_values, h1, 2.0, gaussian(h1, 0.2), nodes, spec)


def test_off_lattice_and_single_points_take_the_direct_path(monkeypatch, h1):
    u = gaussian(h1, 0.3)
    nodes = lattice_nodes(h1, H1_SPEC)[0]
    radii = radius_grid(H1_SPEC, u.decay_radius)
    off = nodes[::7] + np.array([0.0, 0.0, 0.3 * H1_SPEC.effective_h ** 2])
    for pts in (off, nodes[3]):
        for fn, args in [(operators.riesz_values, (1.5, u, pts, H1_SPEC)),
                         (operators.hl_maximal_values, (u, pts, radii, H1_SPEC))]:
            shipped = fn(h1, *args)
            assert np.array_equal(shipped, _run(monkeypatch, False, fn, h1, *args))
    assert product_lattice(h1, off, nodes, H1_SPEC.effective_h) is None
    assert product_lattice(h1, nodes[3:4], nodes, H1_SPEC.effective_h) is None
    assert product_lattice(h1, nodes[:0], nodes, H1_SPEC.effective_h) is None


@pytest.mark.parametrize("fast", [True, False], ids=["gather", "direct"])
def test_h1_non_finite_sample_raises(monkeypatch, h1, fast):
    # x z = 0 for z = x^{-1} = -x: the singularity of the truncated power
    u = power_truncated(h1, 1.0, 1.0)
    nodes = lattice_nodes(h1, H1_SPEC)[0]
    with pytest.raises(IntegrandError, match=r"non-finite integrand at node \[0\.0, 0\.0, 0\.0\]"):
        _run(monkeypatch, fast, operators.riesz_values, h1, 1.5, u, nodes, H1_SPEC)


def test_h1_unreached_non_finite_sample_is_dropped(monkeypatch, h1):
    # the band (1.0, R_max] never reaches y = 0 from points with |x| < 0.9
    u = power_truncated(h1, 1.0, 1.0)
    pts = lattice_nodes(h1, H1_SPEC, R_eff=0.9)[0]
    _agree(monkeypatch, kernel_band_values, h1, -2.0, u, pts, H1_SPEC, r_lo=1.0)


# (group, spec): radius_grid starts at 2h with ratio 2^(1/4), so every
# fourth radius is an exact lattice distance and ties are common
BIN_CASES = [
    ("R1", groups.euclidean_group(1), QuadratureSpec(R_max=6.0, lattice_h=0.05)),
    ("R2", groups.euclidean_group(2), QuadratureSpec(R_max=1.6, lattice_h=0.1)),
    ("H1", groups.heisenberg_group(), H1_SPEC),
]


@pytest.mark.parametrize("name,g,spec", BIN_CASES, ids=[c[0] for c in BIN_CASES])
def test_tabulated_bins_equal_direct_bins(name, g, spec):
    nodes = lattice_nodes(g, spec)[0]
    radii = radius_grid(spec, 1.5)
    lat = product_lattice(g, -nodes, nodes, spec.effective_h)
    scale = float(np.max(groups.gauge(g, nodes)))
    table = ball_bin_table(g, lat, radii, scale)
    assert np.any(table < 0)  # near-ties exist and are recomputed
    known = table[lat.index(slice(None))]
    assert np.array_equal(ball_bins(g, nodes, nodes, radii, known),
                          ball_bins(g, nodes, nodes, radii))


@pytest.mark.parametrize("name,g,spec", BIN_CASES, ids=[c[0] for c in BIN_CASES])
def test_maximal_values_bit_identical(monkeypatch, name, g, spec):
    u = gaussian(g, 0.3)
    nodes = lattice_nodes(g, spec)[0]
    radii = radius_grid(spec, u.decay_radius)
    for fn, args in [(operators.hl_maximal_values, (u, nodes, radii, spec)),
                     (operators.frac_maximal_values, (0.3, u, nodes, radii, spec))]:
        fast = _run(monkeypatch, True, fn, g, *args)
        assert np.array_equal(fast, _run(monkeypatch, False, fn, g, *args))


def test_sweep_records_where_each_supremum_sat(g1):
    u = gaussian(g1, 1.0)
    spec = QuadratureSpec(R_max=8.0, lattice_h=0.05)
    cfg = harness.admissible("adams_hls", Q=1, p=1.5, gamma=0.4, lam=0.2)
    # radii far inside the Gaussian: every ball sum still grows at r_max
    short = harness.MorreyGrids(centers=np.zeros((1, 1)), radii=np.array([0.1, 0.2, 0.4]))
    full = harness.sweep_grids(g1, spec, u, 0.1, 1.0)
    for grids, edge in [(short, True), (full, False)]:
        rec = harness.dilation_sweep(g1, cfg, u, (0.1, 1.0), grids, spec)
        assert len(rec.suprema) == 2
        for sups in rec.suprema:
            assert [s["op"] for s in sups] == ["riesz", "id"]
            for s in sups:
                assert s["truncation_note"] == edge
                assert s["truncation_note"] == (s["argmax_radius"] == grids.radii[-1])
                assert len(s["argmax_center"]) == 1


def test_report_records_carry_the_suprema():
    doc = {
        "group": {"law": "euclidean", "dimension": 1},
        "quadrature": {"R_max": 8.0, "lattice_h": 0.05},
        "battery": [{"kind": "gauss_tensor", "width": 0.5}],
        "t_values": [0.5, 1.0, 5.0],
        "theorems": [{"theorem": "adams_hls", "p": 1.5, "gamma": 0.4, "lambda": 0.2}],
    }
    (rec,) = run_experiment(doc)["records"]
    assert len(rec["suprema"]) == 3
    for sups in rec["suprema"]:
        assert [s["op"] for s in sups] == ["riesz", "id"]
        assert set(sups[0]) == {"op", "argmax_center", "argmax_radius", "truncation_note"}
