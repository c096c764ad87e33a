"""Delay observation maps: per-point vectors, sliding-window matrices,
and periodic extensions of short delay vectors."""

from __future__ import annotations

import numpy as np

from .core import Observable
from .systems import System, Trajectory

__all__ = [
    "delay_count_for",
    "orbits",
    "observe",
    "delay_vector",
    "delay_matrix",
    "periodic_extension",
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


def observe(h: Observable, orbit: np.ndarray) -> np.ndarray:
    """h at every state of an ``(n, m, k)`` orbit array, as ``(n, m)``, from
    one evaluation on the flattened states."""
    return h.evaluate(orbit.reshape(-1, orbit.shape[2])).reshape(orbit.shape[:2])


def delay_vector(h: Observable, sys: System, x, m: int) -> np.ndarray:
    """(h(x), h(Tx), ..., h(T^{m-1}x)) as a length-m array in [0, 1]."""
    return delay_vectors(h, sys, x, m)[0]


def delay_vectors(h: Observable, sys: System, points, m: int) -> np.ndarray:
    """Batch form of `delay_vector`: one row per input point."""
    return observe(h, orbits(sys, points, m))


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


def periodic_extension(base, m: int) -> np.ndarray:
    """Extend a length-(t+1) delay vector periodically to length m:
    entry k of the result is base[k mod (t+1)]."""
    base = np.asarray(base, dtype=float)
    if base.ndim != 1 or base.size < 1:
        raise ValueError("base must be a nonempty 1-D vector")
    if m < 1:
        raise ValueError("target length must be >= 1")
    return base[np.arange(m) % base.size]


def write_csv(path, header, rows, tags=None) -> None:
    """CSV with one line per row of ``rows``, each value written as ``.17g``
    (enough digits to round-trip), LF endings; ``tags``, when given, is a
    last text column."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i, row in enumerate(rows):
            cells = [format(v, ".17g") for v in row]
            if tags is not None:
                cells.append(tags[i])
            fh.write(",".join(cells) + "\n")


def write_delay_csv(path, mat: np.ndarray) -> None:
    """CSV export: header k0..k{m-1}, one delay vector per row, LF endings."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise ValueError("delay matrix must be 2-D")
    write_csv(path, [f"k{j}" for j in range(mat.shape[1])], mat)


def read_delay_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
