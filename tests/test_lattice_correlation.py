"""The FFT lattice-correlation backend against the direct loop it replaces.

The direct point-by-node loop stays in ``kernel_band_values`` and
``frac_laplacian_values`` as the fallback; here it is the small-K oracle.
Each case runs once as shipped (FFT on on-lattice points) and once with
the correlation switched off, and the two must agree to 1e-12 of the
largest value.
"""

import numpy as np
import pytest

from morreylab import groups, operators, quadrature
from morreylab.errors import IntegrandError
from morreylab.quadrature import QuadratureSpec, kernel_band_values, lattice_nodes
from morreylab.report import run_experiment
from morreylab.testfunctions import dilated, gaussian, power_truncated

RTOL = 1e-12


def _run(monkeypatch, fast, fn, *args, **kwargs):
    """fn(*args) with the FFT backend on (asserting it ran) or switched off."""
    used = []
    real = quadrature.lattice_correlation

    def spy(*a):
        out = real(*a) if fast else None
        used.append(out is not None)
        return out

    with monkeypatch.context() as m:
        m.setattr(quadrature, "lattice_correlation", spy)
        m.setattr(operators, "lattice_correlation", spy)
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
def test_riesz_matches_direct(monkeypatch, dim, spec, width, t):
    g = groups.euclidean_group(dim)
    u = dilated(g, gaussian(g, width), t)
    nodes = lattice_nodes(g, spec)[0]
    _agree(monkeypatch, operators.riesz_values, g, 0.6 * g.Q, u, nodes, spec)


@pytest.mark.parametrize("dim,spec,width", LATTICES, ids=IDS)
def test_riesz_band_matches_direct(monkeypatch, dim, spec, width):
    g = groups.euclidean_group(dim)
    u = gaussian(g, width)
    nodes = lattice_nodes(g, spec)[0]
    for r_lo, r_hi in [(0.0, 0.5), (0.3, 1.2), (0.6, None)]:
        _agree(monkeypatch, kernel_band_values, g, 0.4 - g.Q, u, nodes, spec,
               r_lo=r_lo, r_hi=r_hi)


def test_riesz_anisotropic_gauge_matches_direct(monkeypatch):
    g = groups.euclidean_group(2, groups.GAUGE_ANISOTROPIC)
    spec = QuadratureSpec(R_max=2.5, lattice_h=0.1)
    nodes = lattice_nodes(g, spec)[0]
    _agree(monkeypatch, operators.riesz_values, g, 1.2, gaussian(g, 0.4), nodes, spec)


@pytest.mark.parametrize("dim,spec,width", LATTICES, ids=IDS)
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_frac_laplacian_matches_direct(monkeypatch, dim, spec, width, t):
    g = groups.euclidean_group(dim)
    u = dilated(g, gaussian(g, width), t)
    nodes = lattice_nodes(g, spec)[0]
    for s in (0.3, 0.7):
        _agree(monkeypatch, operators.frac_laplacian_values, g, s, u, nodes, spec)


@pytest.mark.parametrize("dim,spec,width", LATTICES, ids=IDS)
def test_no_cap_when_decay_exceeds_domain(monkeypatch, dim, spec, width):
    g = groups.euclidean_group(dim)
    u = gaussian(g, 2.0)
    assert u.decay_radius > spec.R_max
    nodes = lattice_nodes(g, spec)[0]
    _agree(monkeypatch, operators.frac_laplacian_values, g, 0.5, u, nodes, spec)
    _agree(monkeypatch, operators.riesz_values, g, 0.5, u, nodes, spec)


@pytest.mark.parametrize("dim,spec,width", LATTICES, ids=IDS)
def test_node_subset_inside_smaller_radius(monkeypatch, dim, spec, width):
    g = groups.euclidean_group(dim)
    u = gaussian(g, width)
    nodes = lattice_nodes(g, spec, R_eff=0.5 * spec.R_max)[0]
    assert len(nodes) < len(lattice_nodes(g, spec)[0])
    _agree(monkeypatch, operators.frac_laplacian_values, g, 0.4, u, nodes, spec)
    _agree(monkeypatch, operators.riesz_values, g, 0.5, u, nodes, spec)


@pytest.mark.parametrize("dim,spec,width", LATTICES, ids=IDS)
def test_off_lattice_points_take_the_direct_path(monkeypatch, dim, spec, width):
    g = groups.euclidean_group(dim)
    u = gaussian(g, width)
    pts = lattice_nodes(g, spec)[0][::7] + 0.3 * spec.effective_h
    for fn, arg in [(operators.frac_laplacian_values, 0.4), (operators.riesz_values, 0.5)]:
        shipped = fn(g, arg, u, pts, spec)
        direct = _run(monkeypatch, False, fn, g, arg, u, pts, spec)
        assert np.array_equal(shipped, direct)
        assert quadrature.lattice_correlation(
            g, u, pts, lattice_nodes(g, spec)[0], np.ones(1), spec.effective_h
        ) is None


def test_backend_needs_euclidean_law_and_enough_points(h1):
    spec = QuadratureSpec(R_max=2.0, lattice_h=0.25)
    nodes = lattice_nodes(h1, spec)[0]
    u = gaussian(h1, 0.5)
    w = np.ones(len(nodes))
    assert quadrature.lattice_correlation(h1, u, nodes, nodes, w, 0.25) is None
    g = groups.euclidean_group(1)
    nodes = lattice_nodes(g, spec)[0]
    w = np.ones(len(nodes))
    # one point: the dense grid holds as many samples as the direct loop
    assert quadrature.lattice_correlation(g, u, nodes[:1], nodes, w, 0.25) is None
    assert quadrature.lattice_correlation(g, u, nodes[:0], nodes, w, 0.25) is None
    assert quadrature.lattice_correlation(g, u, nodes, nodes, w, 0.25) is not None


@pytest.mark.parametrize("fast", [True, False], ids=["fft", "direct"])
def test_non_finite_source_sample_raises(monkeypatch, g1, fast):
    # node + (-node) = 0 is the singularity of the truncated power
    spec = QuadratureSpec(R_max=3.0, lattice_h=0.05)
    u = power_truncated(g1, 0.4, 1.0)
    nodes = lattice_nodes(g1, spec)[0]
    for fn, arg in [(operators.riesz_values, 0.5), (operators.frac_laplacian_values, 0.4)]:
        with pytest.raises(IntegrandError, match=r"non-finite integrand at node \[0\.0\]"):
            _run(monkeypatch, fast, fn, g1, arg, u, nodes, spec)


def test_unreached_non_finite_sample_is_dropped(monkeypatch, g1):
    # the band (0.5, R_max] never reaches y = 0 from nodes with |x| < 0.5
    spec = QuadratureSpec(R_max=3.0, lattice_h=0.05)
    u = power_truncated(g1, 0.4, 1.0)
    pts = lattice_nodes(g1, spec, R_eff=0.45)[0]
    _agree(monkeypatch, kernel_band_values, g1, -0.5, u, pts, spec, r_lo=0.5)


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
