"""Delay observation maps: the delay vectors of given points and the
sliding-window matrix along an orbit."""

from __future__ import annotations

import numpy as np

from .core import Observable
from .systems import System, Trajectory

__all__ = [
    "delay_count_for",
    "orbits",
    "delay_matrix",
    "write_delay_csv",
    "read_delay_csv",
]


def delay_count_for(d: int) -> int:
    """Number of delays sufficient for generic reconstruction: 2d + 1."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    return 2 * d + 1


def orbits(sys: System, points, m: int) -> np.ndarray:
    """``(n, m, k)`` array whose entry ``[i, t]`` is T^t of point i.

    Each state is checked against the domain box before it is stepped; the
    last state, which is never stepped, is not checked (for m = 1 the input
    points are).
    """
    if m < 1:
        raise ValueError("delay count must be >= 1")
    states = [np.atleast_2d(np.asarray(points, dtype=float))]
    sys.check_domain(states[0])
    for t in range(1, m):
        states.append(sys.step_many(states[-1], check=t > 1))
    return np.stack(states, axis=1)


def delay_vectors(h: Observable, sys: System, points, m: int) -> np.ndarray:
    """One row (h(x), h(Tx), ..., h(T^{m-1}x)) in [0, 1] per input point x,
    from one evaluation of h on the flattened `orbits`."""
    return h.evaluate(orbits(sys, points, m).reshape(-1, sys.ambient_dim)).reshape(-1, m)


def delay_matrix(h: Observable, traj: Trajectory, m: int) -> np.ndarray:
    """Sliding-window delay matrix along an orbit.

    Row i is the delay vector at state i; entry (i, k) equals h(states[i+k]).
    h is evaluated once per trajectory state and the rows are windows into
    that sequence, which makes the Hankel shift structure exact.
    """
    n = len(traj)
    if m < 1:
        raise ValueError("delay count must be >= 1")
    if n < m:
        raise ValueError(f"trajectory of length {n} too short for {m} delays")
    series = h.evaluate(traj.states)
    idx = np.arange(n - m + 1)[:, None] + np.arange(m)[None, :]
    return series[idx]


def write_csv(path, header, rows) -> None:
    """CSV with one line per row of ``rows``, each value written as ``.17g``
    (enough digits to round-trip), LF endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def write_delay_csv(path, mat: np.ndarray) -> None:
    """CSV export: header k0..k{m-1}, one delay vector per row, LF endings."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise ValueError("delay matrix must be 2-D")
    write_csv(path, [f"k{j}" for j in range(mat.shape[1])], mat)


def read_delay_csv(path) -> np.ndarray:
    """The rows of a CSV with one header line, as a 2-D float array; a file
    of no rows is an error."""
    import warnings
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.size == 0:
        raise ValueError(f"{path} holds no states")
    return rows
