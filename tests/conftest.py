import itertools
import tracemalloc

import numpy as np
import pytest

import delayrecon as dr


def peak_memory(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak)``: the call's result and the tracemalloc
    peak, in bytes, of the memory it allocated."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def henon():
    return dr.Henon()


@pytest.fixture(scope="session")
def henon_samples(henon):
    """Post-transient orbit on the attractor, reused across modules."""
    traj = dr.iterate(henon, np.array([0.1, 0.1]), 3300)
    return traj.states[300:]


def cantor_left_endpoints(level: int) -> np.ndarray:
    """Left endpoints of the level-k middle-thirds construction: all points
    sum(d_j / 3^j) with digits d_j in {0, 2}, j = 1..level."""
    digits = np.array(list(itertools.product([0, 2], repeat=level)))
    return (digits / 3.0 ** np.arange(1, level + 1)).sum(axis=1)


def cantor_cube(level: int) -> np.ndarray:
    """Cartesian cube of the level-k endpoint set (size 2^(3k) x 3)."""
    vals = cantor_left_endpoints(level)
    return np.array(list(itertools.product(vals, repeat=3)))
