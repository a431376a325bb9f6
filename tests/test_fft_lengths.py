"""The transform lengths of the lattice correlations.

``translate_sums`` runs every FFT at a 5-smooth length, the least
2^a 3^b 5^c >= n of ``quadrature._fft_length``: on R^N each axis of the
product grid is zero-padded to it and the correlation cropped back, on
H^1 each column-pair row is.  A prime length would send pocketfft to
Bluestein's algorithm, several times slower.  These tests check the
length rule against a brute force, that every length requested is
5-smooth on R^1, R^2, R^3 and H^1, and that the padded R^N correlation
matches the direct loop on grids with a prime axis, with points whose
products reach the extreme indices of the grid, where a wrap would show.
"""

import bisect

import numpy as np
import pytest

from morreylab import groups, operators
from morreylab.quadrature import QuadratureSpec, _fft_length, lattice_nodes, product_lattice
from morreylab.testfunctions import custom, gaussian

# (dimension, spec, product-grid length per axis): K = 934 (the default
# config's lattice) and 3,436 give prime axes, 3,640 a 5-smooth one
# (3^3 5); K = 676 gives 1,351 = 7 193, one past the 5-smooth 1,350, where
# a length rule one short would wrap; the R^3 axis 31 is prime
EUCLID_GRIDS = [
    (1, QuadratureSpec(R_max=14.0, lattice_h=0.03), 1867),
    (2, QuadratureSpec(R_max=3.3, lattice_h=0.1), 131),
    (2, QuadratureSpec(R_max=3.4, lattice_h=0.1), 135),
    (1, QuadratureSpec(R_max=10.14, lattice_h=0.03), 1351),
]
# law -> (group, spec, raw product-grid length per axis, None on H^1)
SPY_CASES = {
    "R1": (groups.euclidean_group(1), EUCLID_GRIDS[0][1], 1867),
    "R2": (groups.euclidean_group(2), EUCLID_GRIDS[1][1], 131),
    "R3": (groups.euclidean_group(3), QuadratureSpec(R_max=1.55, lattice_h=0.2), 31),
    "H1": (groups.heisenberg_group(), QuadratureSpec(R_max=3.0, lattice_h=0.5), None),
}


def smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_fft_length_is_the_least_5_smooth_at_least_n():
    # every 2^a 3^b 5^c up to 2^13, built from the exponents
    table = sorted(2 ** a * 3 ** b * 5 ** c for a in range(14) for b in range(9)
                   for c in range(6) if 2 ** a * 3 ** b * 5 ** c <= 2 ** 13)
    for n in range(1, 5001):
        assert _fft_length(n) == table[bisect.bisect_left(table, n)], n


def extreme_points(nodes, stride=7):
    """Every ``stride``-th node, plus the nodes at the least and greatest index on each axis."""
    keep = np.zeros(len(nodes), bool)
    keep[::stride] = True
    for axis in nodes.T:
        keep |= (axis == axis.min()) | (axis == axis.max())
    return nodes[keep]


@pytest.mark.parametrize("dim,spec,length", EUCLID_GRIDS, ids=["R1-1867", "R2-131", "R2-135", "R1-1351"])
def test_padded_correlation_matches_direct_at_the_grid_ends(backends, dim, spec, length):
    g = groups.euclidean_group(dim)
    nodes = lattice_nodes(g, spec)[0]
    pts = nodes if dim == 1 else extreme_points(nodes)
    assert product_lattice(g, pts, nodes, spec.lattice_h).shape == (length,) * dim
    u = gaussian(g, 0.5)
    backends.agree(operators.riesz_values, g, 0.6 * g.Q, u, pts, spec)
    backends.agree(operators.frac_laplacian_values, g, 0.4, u, pts, spec)
    # a wide Gaussian, off centre so that its two ends differ: a sample
    # wrapped from one end of the grid to the other would move the sums
    # there.  Its fractional Laplacian cancels the sums down to 1e-3 of
    # their size, which the direct loop's own rounding shows at 1e-12:
    # Riesz only
    c, w2 = spec.R_max * np.eye(dim)[0], (4.0 * spec.R_max) ** 2
    wide = custom(lambda p: np.exp(-groups.squared_norm(p - c) / w2), decay_radius=8.0 * spec.R_max)
    ends = wide(2.0 * spec.R_max * np.array([[1.0], [-1.0]]) * np.eye(dim)[0])
    assert ends.min() > 0.5 and ends[0] - ends[1] > 0.3
    backends.agree(operators.riesz_values, g, 0.6 * g.Q, wide, pts, spec)


@pytest.fixture
def fft_lengths(monkeypatch):
    """The transform lengths that every ``np.fft`` real transform is asked for, per call."""
    seen = []

    def spy(real, nd):
        def call(a, *args, **kwargs):
            n = args[0] if args else kwargs.get("s" if nd else "n")
            if n is None:
                n = a.shape if nd else a.shape[-1:]
            seen.append(tuple(int(v) for v in np.atleast_1d(n)))
            return real(a, *args, **kwargs)
        return call

    for name in ("rfft", "irfft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, spy(getattr(np.fft, name), name.endswith("n")))
    return seen


@pytest.mark.parametrize("law", SPY_CASES)
def test_every_requested_length_is_5_smooth(fft_lengths, law):
    g, spec, raw = SPY_CASES[law]
    nodes = lattice_nodes(g, spec)[0]
    if raw is not None:
        # the raw grid has a prime axis, so the test would see it
        assert product_lattice(g, nodes, nodes, spec.lattice_h).shape == (raw,) * g.dimension
    u = gaussian(g, 0.5)
    operators.riesz_values(g, 0.6 * g.Q, u, nodes, spec)
    if g.law == groups.EUCLIDEAN:
        operators.frac_laplacian_values(g, 0.4, u, nodes, spec)
    assert fft_lengths
    assert all(smooth(n) for shape in fft_lengths for n in shape), fft_lengths
