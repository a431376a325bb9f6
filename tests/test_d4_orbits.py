"""Factor values on one node per orbit of the exact lattice symmetries.

``groups.symmetries(g)`` lists them on every law.  On H^1 the quarter
turn (x0, x1, t) -> (-x1, x0, t) and the reflection (x0, x1, t) ->
(x0, -x1, -t) generate them, the automorphism group D4; on R^N the sign
flips do, with the axis swap on R^2.  They preserve the gauge, Haar
measure and the midpoint lattice, so every factor operator T commutes
with them: T(u o A) = (T u) o A.  ``groups.orbit_classes`` gives the
orbits of the lattice nodes and of the Morrey centres, and
``harness._op_values_cached`` evaluates an invariant u at one node per
orbit and copies the values to the rest; these tests check the orbits
against those the generators build, the commutation itself on a
non-invariant input, the copied values against the values at every
node, and which inputs are reduced.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from morreylab import groups, harness, operators, quadrature, testfunctions
from morreylab.errors import DomainError, IntegrandError
from morreylab.quadrature import QuadratureSpec, lattice_nodes, lattice_orbits, radius_grid

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

H1 = groups.heisenberg_group()
# the t = 1 lattice of the seed-0 h1_adams sweeps: K = 7,120
SPEC = QuadratureSpec(R_max=6.529141902923584, lattice_h=0.75)
TAGS = ("id", "grad", "sublap", "riesz", "maximal")


def quarter_turn(p):
    return np.stack([-p[..., 1], p[..., 0], p[..., 2]], axis=-1)


def reflection(p):
    return np.stack([p[..., 0], -p[..., 1], -p[..., 2]], axis=-1)


def node_image(nodes, A):
    """perm with nodes[perm[i]] == A(nodes[i]), exactly."""
    where = {tuple(z): i for i, z in enumerate(nodes.tolist())}
    return np.array([where[tuple(z)] for z in A(nodes).tolist()])


def flip(i):
    def A(p):
        q = p.copy()
        q[..., i] = -q[..., i]
        return q

    return A


# the generators of each law's symmetries, and a lattice of each
GENERATORS = {
    "R1": (groups.euclidean_group(1), [flip(0)], QuadratureSpec(3.0, 0.25)),
    "R2": (groups.euclidean_group(2), [flip(0), lambda p: p[..., ::-1]], QuadratureSpec(2.0, 0.25)),
    "R3": (groups.euclidean_group(3), [flip(0), flip(1), flip(2)], QuadratureSpec(1.5, 0.3)),
    "H1": (H1, [quarter_turn, reflection], SPEC),
}


def generated_orbits(rows, generators):
    """The least index of each row's orbit under the generators, by closure.

    Rows are compared by value after + 0.0, so -0.0 matches 0.0; a repeated
    row joins the orbit of its first copy.  Each generator must map the
    rows onto themselves.
    """
    where = {}
    for i, r in enumerate((rows + 0.0).tolist()):
        where.setdefault(tuple(r), i)
    label = np.array([where[tuple(r)] for r in (rows + 0.0).tolist()])
    images = [np.array([where[tuple(r)] for r in (A(rows) + 0.0).tolist()]) for A in generators]
    # each row takes the least label of its images until none changes: a
    # generator's inverse is one of its powers, so every row of an orbit
    # is reached
    while True:
        new = label
        for image in images:
            new = np.minimum(new, new[image])
        if np.array_equal(new, label):
            return label
        label = new


def centre_grid(g):
    """A centre grid on multiples of 1/2 that the symmetries close up.

    Some of its zeros are -0.0, and its first three rows are repeated.
    """
    axis = np.linspace(-1.0, 1.0, 5)
    c = np.stack([a.ravel() for a in np.meshgrid(*[axis] * g.dimension, indexing="ij")], axis=-1)
    c = np.concatenate([c, c[:3]])
    rng = np.random.default_rng(1)
    return np.where((c == 0.0) & (rng.random(c.shape) < 0.5), -0.0, c)


@pytest.mark.parametrize("law", GENERATORS)
def test_orbit_classes_are_the_generated_orbits(law):
    # on the nodes: rep[inverse] is the first node of each node's orbit,
    # the least index that the generators reach from it
    g, generators, spec = GENERATORS[law]
    nodes = lattice_nodes(g, spec)[0]
    rep, inverse = lattice_orbits(g, spec)
    assert np.array_equal(rep[inverse], generated_orbits(nodes, generators))
    # on the centres: the harness codes each value by the signed rank of
    # its modulus; here 2c codes the multiples of 1/2 independently
    c = centre_grid(g)
    rep, inverse = groups.orbit_classes(g, np.rint(2.0 * c).astype(np.int64))
    assert np.array_equal(rep[inverse], generated_orbits(c, generators))
    kept = harness._orbit_centers(g, c.tobytes())
    assert kept.tobytes() == c[rep].tobytes() and len(rep) < len(c)


def test_orbit_codes_past_int64_are_refused():
    # three coordinates of modulus up to 2^21 need place values past 2^63;
    # up to 2^19 they fit
    g3 = groups.euclidean_group(3)
    with pytest.raises(DomainError):
        groups.orbit_classes(g3, np.array([[1 << 21, 1, 1]]))
    rep, inverse = groups.orbit_classes(g3, np.array([[1 << 19, 1, 1], [-(1 << 19), 1, -1]]))
    assert rep.tolist() == [0] and inverse.tolist() == [0, 0]


def shifted_gaussian(A=None):
    """exp(-|x - c|^2 / 0.25) composed with A: invariant under no element of D4 but 1."""
    c = np.array([0.6, -0.3, 0.4])

    def fn(p):
        q = p if A is None else A(p)
        return np.exp(-groups.squared_norm(q - c) / 0.25)

    return testfunctions.custom(fn, decay_radius=4.0)


def test_orbit_keys_are_the_orbits():
    nodes = lattice_nodes(H1, SPEC)[0]
    rep, inverse = lattice_orbits(H1, SPEC)
    # no node is fixed by any rotation or reflection: every orbit holds 8
    assert np.all(np.bincount(inverse) == 8) and len(rep) * 8 == len(nodes)
    assert np.array_equal(inverse[rep], np.arange(len(rep)))
    # the orbit of each node, from the generators, is exactly its class
    orbit, turn = [np.arange(len(nodes))], node_image(nodes, quarter_turn)
    for _ in range(3):
        orbit.append(turn[orbit[-1]])
    flip = node_image(nodes, reflection)
    orbit += [flip[o] for o in orbit]
    orbit = np.stack(orbit)
    assert np.all(inverse[orbit] == inverse[None, :])
    assert np.all(np.sort(orbit, axis=0)[1:] != np.sort(orbit, axis=0)[:-1])


def test_an_empty_lattice_has_no_orbits():
    # the nodes nearest 0 have gauge 0.77: none lies below R_eff = 0.5
    assert len(lattice_nodes(H1, SPEC, 0.5)[0]) == 0
    assert [len(a) for a in lattice_orbits(H1, SPEC, 0.5)] == [0, 0]
    u = testfunctions.gaussian(H1, 0.5)
    assert harness._op_values(H1, "id", h1_adams_legs()[0], u, SPEC, 0.5).shape == (0,)


@pytest.mark.parametrize("A", [quarter_turn, reflection], ids=["quarter_turn", "reflection"])
@pytest.mark.parametrize("op", ["riesz", "maximal"])
def test_operators_commute_with_each_generator(A, op):
    # T(u o A)(x) = (T u)(A x) at every node, for a u that is not invariant:
    # the Riesz potential on its column correlations, the maximal
    # operator on its ball runs (every node is a point)
    nodes = lattice_nodes(H1, SPEC)[0]
    radii = radius_grid(SPEC, 4.0)

    def T(u):
        if op == "riesz":
            return operators.riesz_values(H1, 1.0, u, nodes, SPEC)
        return operators.frac_maximal_values(H1, 0.0, u, nodes, radii, SPEC)

    plain = T(shifted_gaussian())
    turned = T(shifted_gaussian(A))
    err = np.max(np.abs(turned - plain[node_image(nodes, A)])) / np.max(np.abs(plain))
    assert err <= 1e-15, err
    # and the input is far from invariant: the oracle compares different values
    assert np.max(np.abs(turned - plain)) >= 0.1 * np.max(np.abs(plain))


def reduced_error(u, spec, op, cfg, g=H1):
    """max |reduced - all-node| / max |all-node| of one factor's ``_op_values``."""
    reduced = harness._op_values(g, op, cfg, u, spec, None)
    every = harness._op_values(g, op, cfg, dataclasses.replace(u, d4_invariant=False), spec, None)
    return np.max(np.abs(reduced - every)) / np.max(np.abs(every))


def h1_adams_legs():
    sweep = workloads.build("h1_adams", 0).sweeps[0]
    return sweep.cfg, [(harness._dilated(H1, sweep.u, t), sweep.spec(t)) for t in sweep.t_values]


def test_reduced_values_match_every_node():
    # the seed-0 h1_adams factors on their three lattices (K 5,088 / 5,088
    # / 7,120), every tag H^1 has; a bump and a truncated gauge power on
    # the t = 1 lattice
    cfg, legs = h1_adams_legs()
    cases = [(u, spec, op) for u, spec in legs for op in TAGS]
    cases += [(u, SPEC, op) for u in (testfunctions.bump(H1, 2.0),
                                      testfunctions.power_truncated(H1, 1.0, 3.0))
              for op in TAGS if not (op == "riesz" and u.kind == testfunctions.POWER)]
    for u, spec, op in cases:
        assert u.d4_invariant
        assert reduced_error(u, spec, op, cfg) <= 1e-15, (u.label, spec, op)
    # the gauge power is infinite at 0, which the Riesz products reach
    # with or without the reduction
    power = testfunctions.power_truncated(H1, 1.0, 3.0)
    for u in (power, dataclasses.replace(power, d4_invariant=False)):
        with pytest.raises(IntegrandError):
            harness._op_values(H1, "riesz", cfg, u, SPEC, None)


@pytest.mark.parametrize("law", ["R1", "R2", "R3"])
def test_reduced_values_match_every_node_on_rn(law):
    # the Riesz and maximal factors of a Gaussian and a bump; the Riesz
    # correlation of the representatives runs on a smaller product grid,
    # so its values move by rounding
    g, _, spec = GENERATORS[law]
    cfg = harness.admissible("adams_hls", Q=g.Q, p=1.5, gamma=0.4, lam=0.2)
    for u in (testfunctions.gaussian(g, 0.5), testfunctions.bump(g, 1.0)):
        for op in ("riesz", "maximal"):
            assert reduced_error(u, spec, op, cfg, g) <= 1e-15, (u.label, op)


def test_a_table_that_keeps_t_on_the_swap_fails(monkeypatch):
    # (x0, x1, t) -> (x1, x0, t) is an anti-automorphism, not an element
    # of D4: with a table that keeps the sign of t on the swap, the orbits
    # are not those of the generators, and the copied values are wrong
    real = groups.symmetries

    def table_without_flip(g):
        if g.law != groups.HEISENBERG1:
            return real(g)
        return tuple((perm, signs[:2] + (signs[0] * signs[1],)) for perm, signs in real(g))

    memos = (quadrature._orbits_cached, harness._orbit_centers, harness._op_values_cached)
    cfg, legs = h1_adams_legs()
    u, spec = legs[-1]
    monkeypatch.setattr(groups, "symmetries", table_without_flip)
    for memo in memos:
        memo.cache_clear()
    try:
        generators = GENERATORS["H1"][1]
        rep, inverse = lattice_orbits(H1, SPEC)
        assert not np.array_equal(rep[inverse], generated_orbits(lattice_nodes(H1, SPEC)[0], generators))
        c = centre_grid(H1)
        rep, inverse = groups.orbit_classes(H1, np.rint(2.0 * c).astype(np.int64))
        assert not np.array_equal(rep[inverse], generated_orbits(c, generators))
        assert reduced_error(u, spec, "riesz", cfg) > 1e-4
        assert reduced_error(u, spec, "maximal", cfg) > 1e-3
    finally:
        for memo in memos:
            memo.cache_clear()


def test_the_flag_is_a_fact_about_the_input():
    g2 = groups.euclidean_group(2)
    for g in (H1, g2):
        assert testfunctions.gaussian(g, 0.5).d4_invariant
        assert testfunctions.bump(g, 2.0).d4_invariant
        assert testfunctions.dilated(g, testfunctions.gaussian(g, 0.5), 3.0).d4_invariant
    u = testfunctions.custom(lambda p: np.exp(-groups.squared_norm(p)), decay_radius=3.0)
    assert not u.d4_invariant and not testfunctions.dilated(H1, u, 3.0).d4_invariant
    # custom has no way to claim it
    with pytest.raises(TypeError):
        testfunctions.custom(u.fn, decay_radius=3.0, d4_invariant=True)


def test_only_invariant_inputs_are_reduced(monkeypatch):
    # a spy on the operator's point count: an invariant u is evaluated at
    # one node per orbit, K / 8 on H^1 and R^3; a custom u at all K
    seen = []
    real = operators.riesz_values

    def spy(g, gamma, u, points, spec):
        seen.append(len(points))
        return real(g, gamma, u, points, spec)

    monkeypatch.setattr(operators, "riesz_values", spy)
    cfg = h1_adams_legs()[0]
    gauss = testfunctions.gaussian(H1, 0.5)
    same = testfunctions.custom(gauss.fn, gauss.decay_radius)
    g3 = groups.euclidean_group(3)
    spec3 = QuadratureSpec(R_max=3.0, lattice_h=0.5)
    for u, g, spec in ((gauss, H1, SPEC), (same, H1, SPEC),
                       (testfunctions.gaussian(g3, 0.5), g3, spec3)):
        vals = harness._op_values(g, "riesz", cfg, u, spec, None)
        assert len(vals) == len(lattice_nodes(g, spec)[0])
    K = len(lattice_nodes(H1, SPEC)[0])
    assert seen == [K // 8, K, len(lattice_nodes(g3, spec3)[0]) // 8]


@pytest.mark.parametrize("op", TAGS)
def test_only_integral_tags_are_reduced(monkeypatch, op):
    # a spy on the callable each tag evaluates: for an invariant u on H^1
    # the integral tags see K / 8 nodes, the pointwise ones all K, which
    # cost less per node than the orbit map does
    seen = []
    owner, name = (testfunctions.TestFunction, "__call__") if op == "id" else (operators, harness._OPERATORS[op])
    real = getattr(owner, name)

    def spy(*args):
        seen.append(next(len(a) for a in args if isinstance(a, np.ndarray) and a.ndim == 2))
        return real(*args)

    monkeypatch.setattr(owner, name, spy)
    vals = harness._op_values(H1, op, h1_adams_legs()[0], testfunctions.gaussian(H1, 0.5), SPEC, None)
    K = len(lattice_nodes(H1, SPEC)[0])
    assert len(vals) == K
    assert seen == [K // 8 if op in ("riesz", "maximal") else K]
