"""The FFT lattice correlation on R^N against the direct loop.

``quadrature.translate_sums`` serves ``riesz_values`` and
``frac_laplacian_values``: on-lattice points of a Euclidean law take one
FFT over the ``product_lattice`` grid when every sample there is finite;
other points, and grids with a non-finite sample, take the direct
point-by-node loop, which is the small-K oracle here.  Each case runs once
as shipped (FFT) and once with the product lattice switched off, and the
two must agree to 1e-12 of the largest value.  The direct loop itself is
checked against a brute-force symmetric-difference sum.
"""

import math

import numpy as np
import pytest

from morreylab import groups, operators
from morreylab.errors import IntegrandError
from morreylab.quadrature import (
    QuadratureSpec,
    lattice_nodes,
    product_lattice,
    translate_sums,
)
from morreylab.report import run_experiment
from morreylab.testfunctions import dilated, gaussian, power_truncated

# (dimension, spec, gaussian width): K = 200, 1,264 and 1,472 nodes; at
# t = 1 each Gaussian decays inside R_max, so the source caps apply
LATTICES = [
    (1, QuadratureSpec(R_max=5.0, lattice_h=0.05), 0.5),
    (2, QuadratureSpec(R_max=2.0, lattice_h=0.1), 0.25),
    (3, QuadratureSpec(R_max=1.4, lattice_h=0.2), 0.2),
]
IDS = ["R1", "R2", "R3"]


@pytest.mark.parametrize("dim,spec,width", LATTICES, ids=IDS)
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_riesz_matches_direct(backends, dim, spec, width, t):
    g = groups.euclidean_group(dim)
    u = dilated(g, gaussian(g, width), t)
    nodes = lattice_nodes(g, spec)[0]
    backends.agree(operators.riesz_values, g, 0.6 * g.Q, u, nodes, spec)


@pytest.mark.parametrize("dim,spec,width", LATTICES, ids=IDS)
def test_riesz_band_matches_direct(backends, dim, spec, width):
    g = groups.euclidean_group(dim)
    u = gaussian(g, width)
    nodes = lattice_nodes(g, spec)[0]
    backends.agree(operators.riesz_values, g, 0.4, u, nodes, spec)


@pytest.mark.parametrize("dim,spec,width", LATTICES, ids=IDS)
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_frac_laplacian_matches_direct(backends, dim, spec, width, t):
    g = groups.euclidean_group(dim)
    u = dilated(g, gaussian(g, width), t)
    nodes = lattice_nodes(g, spec)[0]
    for s in (0.3, 0.7):
        backends.agree(operators.frac_laplacian_values, g, s, u, nodes, spec)


@pytest.mark.parametrize("dim,spec,width", LATTICES, ids=IDS)
def test_no_cap_when_decay_exceeds_domain(backends, dim, spec, width):
    g = groups.euclidean_group(dim)
    u = gaussian(g, 2.0)
    assert u.decay_radius > spec.R_max
    nodes = lattice_nodes(g, spec)[0]
    backends.agree(operators.frac_laplacian_values, g, 0.5, u, nodes, spec)
    backends.agree(operators.riesz_values, g, 0.5, u, nodes, spec)


@pytest.mark.parametrize("dim,spec,width", LATTICES, ids=IDS)
def test_node_subset_inside_smaller_radius(backends, dim, spec, width):
    g = groups.euclidean_group(dim)
    u = gaussian(g, width)
    nodes = lattice_nodes(g, spec, R_eff=0.5 * spec.R_max)[0]
    assert len(nodes) < len(lattice_nodes(g, spec)[0])
    backends.agree(operators.frac_laplacian_values, g, 0.4, u, nodes, spec)
    backends.agree(operators.riesz_values, g, 0.5, u, nodes, spec)


@pytest.mark.parametrize("dim,spec,width", LATTICES, ids=IDS)
def test_off_lattice_points_take_the_direct_path(backends, dim, spec, width):
    g = groups.euclidean_group(dim)
    u = gaussian(g, width)
    pts = lattice_nodes(g, spec)[0][::7] + 0.3 * spec.effective_h
    for fn, arg in [(operators.frac_laplacian_values, 0.4), (operators.riesz_values, 0.5)]:
        shipped = fn(g, arg, u, pts, spec)
        assert np.array_equal(shipped, backends.run(False, fn, g, arg, u, pts, spec))
    assert product_lattice(g, pts, lattice_nodes(g, spec)[0], spec.effective_h) is None


def _symmetric_difference_oracle(g, s, u, pts, spec):
    """(-Delta)^s u at pts from sum k(y) (2u(x) - u(x+y) - u(x-y)) by brute force.

    ``pts`` must fit in one block of the operator, so one source cap
    serves them all; the inner Taylor term and the radial tail are the
    operator's closed forms.
    """
    N, h = g.dimension, spec.effective_h
    nodes, dist, cell = lattice_nodes(g, spec)
    r_in = h
    ux = u(pts)
    cap, tail = spec.R_max, np.zeros(len(pts))
    area = 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)
    if u.decay_radius <= spec.R_max:
        cap = min(float(np.max(groups.gauge(g, pts))) + u.decay_radius + 2.0 * h, spec.R_max)
        tail = 2.0 * ux * area * cap ** (-2.0 * s) / (2.0 * s)
    keep = (dist >= r_in) & (dist <= cap)
    y, k = nodes[keep], dist[keep] ** (-N - 2.0 * s) * cell
    total = np.array([
        np.sum(k * (2.0 * ux[i] - u(x + y) - u(x - y))) for i, x in enumerate(pts)
    ])
    trH = operators.sub_laplacian_values(g, u, pts)
    inner = -(trH / N) * area * r_in ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    return 0.5 * operators.frac_normalization(N, s) * (total + inner + tail)


@pytest.mark.parametrize("dim,spec,width", [
    (1, QuadratureSpec(R_max=5.0, lattice_h=0.05), 0.5),
    (2, QuadratureSpec(R_max=3.0, lattice_h=0.1), 0.25),
], ids=IDS[:2])
@pytest.mark.parametrize("wide", [False, True], ids=["capped", "uncapped"])
def test_frac_laplacian_matches_symmetric_differences(dim, spec, width, wide):
    g = groups.euclidean_group(dim)
    u = gaussian(g, 2.0 if wide else width)
    nodes = lattice_nodes(g, spec)[0]
    # off-lattice points near the origin, where the source cap bites
    pts = nodes[groups.gauge(g, nodes) < 0.5][:100] + 0.3 * spec.effective_h
    cap = np.max(groups.gauge(g, pts)) + u.decay_radius + 2.0 * spec.effective_h
    assert (cap > spec.R_max) == wide
    oracle = _symmetric_difference_oracle(g, 0.4, u, pts, spec)
    got = operators.frac_laplacian_values(g, 0.4, u, pts, spec)
    assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_product_lattice_needs_enough_points():
    g = groups.euclidean_group(1)
    nodes = lattice_nodes(g, QuadratureSpec(R_max=2.0, lattice_h=0.25))[0]
    # one point: the dense grid holds as many samples as the direct loop
    assert product_lattice(g, nodes[:1], nodes, 0.25) is None
    assert product_lattice(g, nodes[:0], nodes, 0.25) is None
    assert product_lattice(g, nodes, nodes[:0], 0.25) is None
    assert product_lattice(g, nodes, nodes, 0.25) is not None


@pytest.mark.parametrize("fast", [True, False], ids=["fft", "direct"])
def test_non_finite_source_sample_raises(backends, translate_paths, g1, fast):
    # node + (-node) = 0 is the singularity of the truncated power
    spec = QuadratureSpec(R_max=3.0, lattice_h=0.05)
    u = power_truncated(g1, 0.4, 1.0)
    nodes = lattice_nodes(g1, spec)[0]
    for fn, arg in [(operators.riesz_values, 0.5), (operators.frac_laplacian_values, 0.4)]:
        with pytest.raises(IntegrandError, match=r"non-finite integrand at node \[0\.0\]"):
            backends.run(fast, fn, g1, arg, u, nodes, spec)
    # a non-finite grid sample sends the sums to the direct loop
    assert translate_paths["_column_correlations"] == 0 < translate_paths["finite_samples"]


def test_non_finite_value_at_the_point_raises(g1):
    # the difference 2u(x) - u(x+y) - u(x-y) weighs u at the point itself
    spec = QuadratureSpec(R_max=3.0, lattice_h=0.05)
    with pytest.raises(IntegrandError, match=r"non-finite integrand at node \[0\.0\]"):
        operators.frac_laplacian_values(g1, 0.4, power_truncated(g1, 0.4, 1.0), np.zeros((1, 1)), spec)


def test_unreached_non_finite_sample_is_dropped(backends, translate_paths, g1):
    # weights that vanish on |z| <= 0.5 never reach y = 0 from nodes with
    # |x| < 0.5, though the grid holds it: the direct loop runs and drops it
    spec = QuadratureSpec(R_max=3.0, lattice_h=0.05)
    u = power_truncated(g1, 0.4, 1.0)
    pts = lattice_nodes(g1, spec, R_eff=0.45)[0]
    zs, dist, _ = lattice_nodes(g1, spec)
    grid = product_lattice(g1, pts, zs, spec.effective_h).axes[0][:, None]
    assert not np.all(np.isfinite(u(grid)))
    args = (translate_sums, g1, u, pts, zs, np.where(dist > 0.5, dist ** -0.5, 0.0), spec.effective_h)
    backends.run(True, *args)
    assert translate_paths["_column_correlations"] == 0 < translate_paths["finite_samples"]
    backends.agree(*args)


def test_power_truncated_riesz_record_is_an_error():
    doc = {
        "group": {"law": "euclidean", "dimension": 1},
        "quadrature": {"R_max": 6.0, "lattice_h": 0.05},
        "battery": [{"kind": "power_truncated", "exponent": 0.4, "radius": 1.0}],
        "t_values": [0.5, 1.0, 5.0],
        "theorems": [{"theorem": "adams_hls", "p": 1.5, "gamma": 0.4, "lambda": 0.2}],
    }
    rep = run_experiment(doc)
    (rec,) = rep["records"]
    assert rec["check"] == "error" and not rec["passed"] and not rep["all_pass"]
    assert rec["note"].startswith("IntegrandError: non-finite integrand at node [")
