import numpy as np
import pytest

from morreylab import euclidean_group, heisenberg_group, quadrature
from morreylab.quadrature import QuadratureSpec

# fast backends against the direct loop: sums agree to this share of the
# largest direct value
BACKEND_RTOL = 1e-12


@pytest.fixture(scope="session")
def g1():
    return euclidean_group(1)


@pytest.fixture(scope="session")
def g2():
    return euclidean_group(2)


@pytest.fixture(scope="session")
def g3():
    return euclidean_group(3)


@pytest.fixture(scope="session")
def h1():
    return heisenberg_group()


@pytest.fixture(scope="session")
def all_groups(g1, g2, g3, h1):
    return [g1, g2, g3, h1]


@pytest.fixture(scope="session")
def spec1():
    # N=1 workhorse: fine lattice, wide truncation
    return QuadratureSpec(R_max=12.0, lattice_h=0.04)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def clear_plans():
    """Empty the memos that hold a ``ProductLattice``: the next call builds its own."""
    for memo in (quadrature._lattice_cached, quadrature._translate_plan_cached, quadrature._ball_plan_cached):
        memo.cache_clear()


class Backends:
    """Runs operators with the product lattice on (asserting it was used) or off."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def run(self, fast, fn, *args, **kwargs):
        used = []
        real = quadrature.product_lattice

        def spy(*a):
            out = real(*a) if fast else None
            used.append(out is not None)
            return out

        with self.monkeypatch.context() as m:
            m.setattr(quadrature, "product_lattice", spy)
            # the spy sees every lattice the call builds, and no plan of
            # the forced path outlives it
            clear_plans()
            try:
                out = fn(*args, **kwargs)
            finally:
                clear_plans()
        assert used and all(used) == fast
        return out

    def agree(self, fn, *args, **kwargs):
        """fn with the product lattice on, checked against the direct loop."""
        fast = self.run(True, fn, *args, **kwargs)
        self.close(fast, self.run(False, fn, *args, **kwargs))
        return fast

    @staticmethod
    def close(got, want):
        """got within ``BACKEND_RTOL`` of the largest |want|."""
        assert np.all(np.isfinite(want))
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= BACKEND_RTOL, err


@pytest.fixture
def backends(monkeypatch):
    return Backends(monkeypatch)


@pytest.fixture
def translate_paths(monkeypatch):
    """Counts the calls of the two functions that tell ``translate_sums``' paths apart.

    Only the direct loop calls ``finite_samples`` with a mask of reached
    samples (its nonzero weights); the values at the points themselves go
    there with ``reached=True``, which is not counted.  Only the H^1 fast
    path calls ``_column_correlations``.
    """
    calls = {"_column_correlations": 0, "finite_samples": 0}
    for name in calls:
        def counted(*args, name=name, real=getattr(quadrature, name)):
            if name != "finite_samples" or args[2] is not True:
                calls[name] += 1
            return real(*args)

        monkeypatch.setattr(quadrature, name, counted)
    return calls
