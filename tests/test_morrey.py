import math

import numpy as np
import pytest

from morreylab import custom, dilated, euclidean_group, gaussian, heisenberg_group
from morreylab.errors import ContractError, DomainError, IntegrandError, ShapeError
from morreylab.morrey import (
    MorreyEstimate,
    MorreyParams,
    default_centers,
    default_radii,
    embedding_check,
    local_morrey_norm,
    morrey_norm,
    morrey_sup_from_samples,
)
from morreylab.quadrature import QuadratureSpec, lattice_key, lattice_nodes

SPEC = QuadratureSpec(R_max=12.0, lattice_h=0.04)


def norm_of(g, u, p, lam, centers=None, radii=None, spec=SPEC):
    centers = default_centers(g, spec) if centers is None else centers
    radii = default_radii(g, u, spec) if radii is None else radii
    return morrey_norm(g, MorreyParams(p=p, lam=lam, centers=centers, radii=radii), u, spec)


def test_params_invariants(g1):
    with pytest.raises(DomainError):
        MorreyParams(p=1.0, lam=0.0, centers=np.zeros((1, 1)), radii=np.array([1.0]))
    with pytest.raises(DomainError):
        MorreyParams(p=2.0, lam=-0.5, centers=np.zeros((1, 1)), radii=np.array([1.0]))
    u = gaussian(g1, 1.0)
    with pytest.raises(DomainError):
        norm_of(g1, u, p=2.0, lam=1.5)  # lambda > Q
    # decreasing, empty, zero, negative, repeated, NaN, infinite, 0-D and
    # 2-D radii
    for radii in ([1.0, 0.5], [], [0.0, 1.0], [-1.0, 1.0], [1.0, 1.0], [0.1, np.nan, 0.3],
                  [0.5, np.inf], 1.0, [[0.5, 1.0]]):
        with pytest.raises(DomainError):
            norm_of(g1, u, p=2.0, lam=0.5, radii=np.array(radii))


@pytest.mark.parametrize("n_per_axis", [None, 3, 4, 5, 11])
@pytest.mark.parametrize("g", [euclidean_group(1), euclidean_group(2), euclidean_group(3),
                               heisenberg_group()], ids=["R1", "R2", "R3", "H1"])
def test_default_centres_hold_the_identity_once_as_row_0(g, n_per_axis):
    # an odd grid holds the identity too: it must not come back as a second row
    centers = default_centers(g, SPEC, n_per_axis=n_per_axis)
    assert np.array_equal(centers[0], np.zeros(g.dimension))
    assert len(np.unique(centers, axis=0)) == len(centers) > 1


@pytest.mark.parametrize("shape", [(3, 2), (2, 2), (4,), (2, 3, 2)])
def test_centres_of_the_wrong_dimension_raise(g3, shape):
    # (3, 2) holds as many numbers as two 3-vectors, (2, 2) fits no whole one
    nodes = np.zeros((5, 3))
    with pytest.raises(ShapeError, match="expected points of dimension 3"):
        morrey_sup_from_samples(g3, 2.0, 0.5, np.zeros(shape), np.array([1.0]), nodes,
                                np.ones(5), 1.0)


@pytest.mark.parametrize("values,cellvol", [([1.0, np.nan], 0.1), ([1.0, np.inf], 0.1),
                                            ([1.0, 2.0], [0.1, np.nan]), ([1.0, 2.0], np.inf)])
def test_non_finite_samples_and_masses_raise(g1, values, cellvol):
    # one NaN sample of two returned MorreyEstimate(value=nan) without an error
    nodes = np.array([[0.25], [0.75]])
    with pytest.raises(IntegrandError, match=r"non-finite integrand at node \[0\.\d5\]"):
        morrey_sup_from_samples(g1, 2.0, 0.5, np.zeros((1, 1)), [0.5, 1.0], nodes, values, cellvol)


@pytest.mark.parametrize("values,cellvol", [(np.ones(3), 0.1), (np.ones((2, 1)), 0.1),
                                            (np.ones(2), np.ones(3)), (np.ones(2), np.ones((2, 1)))])
def test_samples_and_masses_must_match_the_nodes(g1, values, cellvol):
    nodes = np.array([[0.25], [0.75]])
    with pytest.raises(ShapeError, match="one sample per node"):
        morrey_sup_from_samples(g1, 2.0, 0.5, np.zeros((1, 1)), [0.5, 1.0], nodes, values, cellvol)


def test_lattice_key_bins_equal_fresh_bins(g1):
    # bins memoised on the lattice key equal the bins of the nodes passed
    # in; nodes that do not match the key in number are refused
    spec = QuadratureSpec(R_max=4.0, lattice_h=0.05)
    nodes, _, cell = lattice_nodes(g1, spec)
    args = (g1, 2.0, 0.5, np.array([[0.0], [0.4]]), np.geomspace(0.1, 4.0, 9))
    values = np.exp(-nodes[:, 0] ** 2)
    keyed = morrey_sup_from_samples(*args, nodes, values, cell, lattice_key(spec))
    assert keyed == morrey_sup_from_samples(*args, nodes.copy(), values, cell)
    with pytest.raises(ContractError):
        morrey_sup_from_samples(*args, nodes[1:], values[1:], cell, lattice_key(spec))


def test_one_centre_or_a_grid_of_centres(g3):
    nodes = np.arange(15.0).reshape(5, 3) / 10.0
    radii, values = np.array([0.5, 1.0]), np.ones(5)
    centers = np.arange(12.0).reshape(2, 2, 3) / 10.0
    grid = morrey_sup_from_samples(g3, 2.0, 0.5, centers, radii, nodes, values, 1.0)
    flat = morrey_sup_from_samples(g3, 2.0, 0.5, centers.reshape(4, 3), radii, nodes, values, 1.0)
    assert (grid.value, grid.argmax_radius) == (flat.value, flat.argmax_radius)
    assert np.array_equal(grid.argmax_center, flat.argmax_center)
    one = morrey_sup_from_samples(g3, 2.0, 0.5, centers[0, 0], radii, nodes, values, 1.0)
    assert one.argmax_center.shape == (3,)


def test_zero_function(g1):
    z = custom(lambda p: np.zeros(p.shape[:-1]), decay_radius=1.0)
    est = norm_of(g1, z, p=2.0, lam=0.0)
    assert est.value == 0.0


def test_gaussian_l2_identification(g1):
    # lambda = 0 recovers the L^p norm: ||e^{-x^2}||_2 = (pi/2)^(1/4)
    u = gaussian(g1, 1.0)
    est = norm_of(g1, u, p=2.0, lam=0.0)
    want = (math.pi / 2.0) ** 0.25
    assert abs(est.value - want) / want <= 0.01
    assert not est.truncation_note


def test_lambda0_matches_lattice_lp(g1):
    from morreylab.quadrature import lattice_nodes

    u = gaussian(g1, 0.7)
    est = norm_of(g1, u, p=2.0, lam=0.0)
    nodes, _, cell = lattice_nodes(g1, SPEC, u.decay_radius)
    lp = float(np.sum(np.abs(u(nodes)) ** 2 * cell) ** 0.5)
    assert abs(est.value - lp) / lp <= 0.01


def test_scaling_instance(g1):
    # ||u o dilate_t|| = t^((lam - Q)/p) ||u||, checked at t = 2, lam = Q/2
    u = gaussian(g1, 1.0)
    lam, p = 0.5, 2.0
    base = norm_of(g1, u, p=p, lam=lam).value
    got = norm_of(g1, dilated(g1, u, 2.0), p=p, lam=lam).value
    pred = 2.0 ** ((lam - g1.Q) / p)
    assert abs(got / base - pred) / pred <= 0.02


def test_local_le_global_exact(g1):
    u = gaussian(g1, 1.0)
    radii = default_radii(g1, u, SPEC)
    loc = local_morrey_norm(g1, 2.0, 0.25, u, radii, SPEC)
    glob = norm_of(g1, u, p=2.0, lam=0.25, radii=radii)
    assert loc.value <= glob.value + 1e-12


def test_offcenter_gap(g1):
    # Gaussian centred at distance 3 with truncated radii: the identity
    # centre misses mass that a global centre captures
    u_off = custom(
        lambda p: np.exp(-np.sum((p - 3.0) ** 2, axis=-1)), decay_radius=9.0,
        smooth=True,
    )
    radii = default_radii(g1, u_off, SPEC)
    radii = radii[radii <= 4.0]
    loc = local_morrey_norm(g1, 2.0, 0.0, u_off, radii, SPEC).value
    glob = norm_of(g1, u_off, p=2.0, lam=0.0, radii=radii).value
    assert (glob - loc) / glob >= 0.05


def test_embedding_check(g1):
    u = gaussian(g1, 1.0)
    radii = default_radii(g1, u, SPEC)
    loc, glob, ok = embedding_check(g1, 2.0, 0.25, u, radii, SPEC)
    assert ok and loc <= glob + 1e-12
    z = custom(lambda p: np.zeros(p.shape[:-1]), decay_radius=1.0)
    loc, glob, ok = embedding_check(g1, 2.0, 0.25, z, radii, SPEC)
    assert (loc, glob, ok) == (0.0, 0.0, True)


def test_grid_monotonicity(g1):
    u = gaussian(g1, 1.0)
    radii = default_radii(g1, u, SPEC)
    centers_small = np.array([[0.0], [1.0]])
    centers_big = np.array([[0.0], [1.0], [2.0], [-1.0]])
    small = norm_of(g1, u, 2.0, 0.25, centers=centers_small, radii=radii).value
    big = norm_of(g1, u, 2.0, 0.25, centers=centers_big, radii=radii).value
    assert big >= small
    fewer = norm_of(g1, u, 2.0, 0.25, centers=centers_big, radii=radii[::2]).value
    assert fewer <= big


@pytest.mark.parametrize("lam_frac", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("t", [0.5, 2.0])
def test_dilation_law_n1(g1, lam_frac, t):
    u = gaussian(g1, 1.0)
    p = 2.0
    lam = lam_frac * g1.Q
    base = norm_of(g1, u, p=p, lam=lam).value
    got = norm_of(g1, dilated(g1, u, t), p=p, lam=lam).value
    pred = t ** ((lam - g1.Q) / p)
    assert abs(got / base - pred) / pred <= 0.02


def test_truncation_flag_for_constant(g1):
    # constants are not in any Morrey space with lam < Q: the estimator
    # must reveal the radius-capped divergence
    c = custom(lambda p: np.ones(p.shape[:-1]), decay_radius=1e6)
    radii = np.geomspace(0.1, 20.0, 30)
    est = norm_of(g1, c, p=2.0, lam=0.5, radii=radii)
    assert est.truncation_note
    # the supremum sits at the truncation scale, not at a converged radius
    assert est.argmax_radius >= 0.9 * SPEC.R_max
    # a decaying input peaks at an interior radius instead
    u = gaussian(g1, 1.0)
    est2 = norm_of(g1, u, p=2.0, lam=0.5, radii=default_radii(g1, u, SPEC))
    assert not est2.truncation_note


def test_estimate_fields(g1):
    u = gaussian(g1, 1.0)
    est = norm_of(g1, u, p=2.0, lam=0.25)
    assert isinstance(est, MorreyEstimate)
    assert est.value > 0 and est.argmax_radius > 0
    assert np.allclose(est.argmax_center, 0.0, atol=0.6)


def _sup_on_new_nodes(g, h, centers, radii):
    # the node array lives only inside this call, so successive calls may
    # receive arrays at the same address
    nodes = np.empty((200, 1))
    nodes[:, 0] = (np.arange(200) - 99.5) * h
    values = np.exp(-nodes[:, 0] ** 2)
    return morrey_sup_from_samples(g, 2.0, 0.5, centers, radii, nodes, values, h).value


def _direct_sup(h, centers, radii):
    nodes = ((np.arange(200) - 99.5) * h)[:, None]
    powered = np.exp(-nodes[:, 0] ** 2) ** 2 * h
    best = 0.0
    for c in centers:
        d = np.abs(nodes[:, 0] - c[0])
        for r in radii:
            best = max(best, r ** -0.5 * np.sum(powered[d < r]))
    return best ** 0.5


def test_sup_follows_node_contents(g1):
    # node arrays of one shape but different contents must never share
    # cached ball geometry
    centers = np.array([[0.0], [0.5]])
    radii = np.geomspace(0.02, 4.0, 25)
    spacings = (0.1, 0.01, 0.1)
    got = [_sup_on_new_nodes(g1, h, centers, radii) for h in spacings]
    for h, val in zip(spacings, got):
        assert val == pytest.approx(_direct_sup(h, centers, radii), rel=1e-12)
    # the same array object refilled in place
    nodes = ((np.arange(200) - 99.5) * 0.1)[:, None]
    for h in spacings:
        nodes[:, 0] = (np.arange(200) - 99.5) * h
        val = morrey_sup_from_samples(
            g1, 2.0, 0.5, centers, radii, nodes, np.exp(-nodes[:, 0] ** 2), h
        ).value
        assert val == pytest.approx(_direct_sup(h, centers, radii), rel=1e-12)


def test_public_error_paths():
    with pytest.raises(DomainError, match="centre"):
        MorreyParams(p=2.0, lam=0.5, centers=np.empty((0, 1)), radii=np.array([1.0]))
