"""Factor values on one node per D4 orbit of the H^1 lattice.

The quarter turn (x0, x1, t) -> (-x1, x0, t) and the reflection
(x0, x1, t) -> (x0, -x1, -t) generate the automorphism group D4 of H^1.
Both preserve the Koranyi gauge, Haar measure and the midpoint lattice,
so every factor operator T commutes with them: T(u o A) = (T u) o A.
``harness._op_values_cached`` evaluates a D4-invariant u at one node per
orbit and copies the values to the rest; these tests check the
commutation itself on a non-invariant input, the copied values against
the values at every node, and which inputs are reduced.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from morreylab import groups, harness, operators, quadrature, testfunctions
from morreylab.errors import IntegrandError, UnsupportedGroupError
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
    with pytest.raises(UnsupportedGroupError):
        lattice_orbits(groups.euclidean_group(3), SPEC)


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


def reduced_error(u, spec, op, cfg):
    """max |reduced - all-node| / max |all-node| of one factor's ``_op_values``."""
    reduced = harness._op_values(H1, op, cfg, u, spec, None)
    every = harness._op_values(H1, op, cfg, dataclasses.replace(u, d4_invariant=False), spec, None)
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


def test_an_orbit_key_that_keeps_t_on_the_swap_fails(monkeypatch):
    # (x0, x1, t) -> (x1, x0, t) is an anti-automorphism, not an element
    # of D4: keyed with it, the copied values are wrong
    def key_without_flip(odd):
        a, b, c = odd[..., 0], odd[..., 1], odd[..., 2]
        same = (a > 0) == (b > 0)
        x, y = np.where(same, np.abs(a), np.abs(b)), np.where(same, np.abs(b), np.abs(a))
        swap = y > x
        return np.stack([np.where(swap, y, x), np.where(swap, x, y), c], axis=-1)

    cfg, legs = h1_adams_legs()
    u, spec = legs[-1]
    monkeypatch.setattr(groups, "d4_orbit_key", key_without_flip)
    quadrature._orbits_cached.cache_clear()
    harness._op_values_cached.cache_clear()
    try:
        assert reduced_error(u, spec, "riesz", cfg) > 1e-4
        assert reduced_error(u, spec, "maximal", cfg) > 1e-3
    finally:
        quadrature._orbits_cached.cache_clear()
        harness._op_values_cached.cache_clear()


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


def test_only_invariant_h1_inputs_are_reduced(monkeypatch):
    # a spy on the operator's point count: an invariant u on H^1 is
    # evaluated at K / 8 nodes; a custom u, and any u on R^N, at all K
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
    assert seen == [K // 8, K, len(lattice_nodes(g3, spec3)[0])]


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
