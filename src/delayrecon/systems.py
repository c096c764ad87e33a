"""Built-in injective dynamical systems and periodic-point machinery.

Maps are exposed through a uniform step interface; flows appear only as
their fixed-step time-t maps (RK4 with a fixed substep).  Injectivity is
checked, not declared: a system whose parameters can make its map
non-injective rejects them when it is built (the Henon map needs b != 0),
and the other built-in systems are injective on their states for every
parameter.  Only flows carry a Lipschitz constant, the one
`yorke_certificate` reads.  Periodic points are located by seeded Newton
refinement of the displacement T^p(x) - x.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import MISSING, dataclass, fields
from typing import ClassVar

import numpy as np

from .neighbors import first_found

__all__ = [
    "System",
    "Henon",
    "CatMap",
    "CircleRotation",
    "Odometer",
    "SampledFlow",
    "Trajectory",
    "iterate",
    "detect_period",
    "find_periodic",
    "periodic_return_scan",
    "yorke_threshold",
    "yorke_certificate",
    "system_from_dict",
    "VECTOR_FIELDS",
]


class DomainError(ValueError):
    """State outside the system's declared domain box."""


class ConfigError(ValueError):
    """A config value that does not fit its field, named by dotted path."""


_KINDS = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def convert(value, tp, path: str):
    """``value``, read from JSON, as type ``tp``: int, float, bool, str, a
    fixed or ``...`` tuple of these, or a `Registered` base.  A value that
    does not fit raises `ConfigError` naming it by its dotted ``path``; an
    int accepts an integral float such as ``2.0``, a float is finite, and a
    bool or a string is no number."""
    if isinstance(tp, type) and issubclass(tp, Registered):
        return tp.from_dict(value, path)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"config field {path!r} must be a list, got {value!r}")
        types = typing.get_args(tp)
        if types[-1] is Ellipsis:
            types = types[:1] * len(value)
        elif len(types) != len(value):
            raise ConfigError(f"config field {path!r} must have {len(types)} entries, "
                              f"got {value!r}")
        return tuple(convert(v, t, f"{path}.{i}")
                     for i, (v, t) in enumerate(zip(value, types)))
    if tp in (bool, str):
        if isinstance(value, tp):
            return value
    elif not (isinstance(value, (bool, str)) or tp is int and isinstance(value, float)
              and not value.is_integer()):
        try:
            value = tp(value)
            if tp is int or math.isfinite(value):
                return value
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"config field {path!r} must be {_KINDS[tp]}, got {value!r}")


class Registered:
    """Base of the classes a config names by a tag: `System` (key "kind")
    and `Observable` (key "variant").

    A base declares its tag key, ``class System(Registered, tag_key="kind")``,
    and each concrete dataclass below it registers its tag once,
    ``class Henon(System, name="henon")``.  The dataclass fields, in
    declaration order and with their annotated types, are the JSON keys,
    and defaults come from the dataclass.
    """

    tag_key: ClassVar[str]
    name: ClassVar[str]
    registry: ClassVar[dict[str, type]]

    def __init_subclass__(cls, tag_key: str | None = None, name: str | None = None,
                          **kwargs):
        super().__init_subclass__(**kwargs)
        if tag_key is not None:
            cls.tag_key, cls.registry = tag_key, {}
        if name is not None:
            cls.name = name
            cls.registry[name] = cls

    def to_dict(self) -> dict:
        return {self.tag_key: self.name} | {
            key: _plain(getattr(self, key)) for key, _, _ in _schema(type(self))}

    @classmethod
    def from_dict(cls, payload, path: str | None = None):
        """The registered class that ``payload``'s tag names, built from its
        fields; errors name the field by its dotted path, which starts at
        ``path`` (default: the base's name in lower case)."""
        path = path or cls.__name__.lower()
        if not isinstance(payload, dict):
            raise ConfigError(f"config field {path!r} must be an object, got {payload!r}")
        tag = payload.get(cls.tag_key)
        if not isinstance(tag, str) or tag not in cls.registry:
            raise ConfigError(f"config field '{path}.{cls.tag_key}' must be one of "
                              f"{sorted(cls.registry)}, got {tag!r}")
        sub = cls.registry[tag]
        kwargs = {}
        for key, tp, required in _schema(sub):
            if key in payload:
                kwargs[key] = convert(payload[key], tp, f"{path}.{key}")
            elif required:
                raise ConfigError(f"config field '{path}.{key}' is missing")
        try:
            return sub(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"config field {path!r} invalid: {exc}") from None


@functools.cache
def _schema(cls: type) -> tuple[tuple[str, object, bool], ...]:
    """(name, type, required) for each dataclass field."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls))


def _plain(value):
    """A field value as JSON data: tuples become lists, objects dicts."""
    if isinstance(value, Registered):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _as_batch(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=float))


class System(Registered, tag_key="kind"):
    """Base class for discrete-time systems on a box in R^k.

    A system is its dataclass fields, its ``box`` of per-axis ``(lo, hi)``
    bounds and its ``_map``: the map on one state given as coordinates,
    written with ``+ - * %`` and NumPy ufuncs on the arguments, so the same
    code runs on Python floats (`iterate`) and on NumPy columns
    (`step_many`).  Everything else is derived here.
    """

    box: tuple[tuple[float, float], ...]
    torus: bool = False
    substeps: int = 1  # RK4 substeps per step; a map's step counts one

    @property
    def domain(self) -> np.ndarray:
        """(k, 2) array of per-axis [lo, hi] bounds."""
        return np.array(self.box)

    @property
    def ambient_dim(self) -> int:
        return len(self.box)

    @property
    def system_id(self) -> str:
        """The tag, then ``key=value`` for each field, as in
        ``henon(a=1.4,b=0.3)``; just the tag when there are no fields."""
        _, *items = self.to_dict().items()
        return f"{self.name}({','.join(f'{k}={v}' for k, v in items)})" if items else self.name

    def check_domain(self, pts: np.ndarray) -> None:
        """Raise `DomainError` unless every row of ``pts`` lies in the domain
        box, widened by 1e-9 on each face for rounding; NaN lies in no box."""
        box = self.domain
        if pts.shape[1] != self.ambient_dim:
            raise DomainError(
                f"{self.system_id}: state dimension {pts.shape[1]} != {self.ambient_dim}"
            )
        if not (np.all(pts >= box[:, 0] - 1e-9) and np.all(pts <= box[:, 1] + 1e-9)):
            raise DomainError(f"{self.system_id}: state outside domain box")

    def step_many(self, pts, check: bool = True) -> np.ndarray:
        pts = _as_batch(pts)
        if check:
            self.check_domain(pts)
        return self._step_batch(pts)

    def _step_batch(self, pts: np.ndarray) -> np.ndarray:
        """`_map` on the columns of ``pts``, unchecked."""
        return np.stack(self._map(*pts.T), axis=1)

    def step(self, x) -> np.ndarray:
        """One application of the system map to a single state."""
        return self.step_many(x)[0]

    def step_n(self, pts, n: int, check: bool = True) -> np.ndarray:
        out = _as_batch(pts)
        for _ in range(n):
            out = self.step_many(out, check=check)
        return out

    def wrap_displacement(self, disp: np.ndarray) -> np.ndarray:
        """Shortest displacement; reduced mod 1 on torus systems."""
        if self.torus:
            return (disp + 0.5) % 1.0 - 0.5
        return disp

    def distance(self, a, b) -> float:
        d = self.wrap_displacement(np.asarray(a, float) - np.asarray(b, float))
        return float(np.linalg.norm(d))


@dataclass(frozen=True)
class Henon(System, name="henon"):
    """Henon map (x, y) -> (1 - a x^2 + y, b x); injective for b != 0."""

    a: float = 1.4
    b: float = 0.3

    box = ((-3.0, 3.0), (-3.0, 3.0))

    def __post_init__(self):
        # With b = 0, (x, y) and (-x, y) map to one point.
        if self.b == 0.0:
            raise ValueError("henon needs b != 0: with b = 0 the map is not injective")

    def _map(self, x, y):
        return 1.0 - self.a * (x * x) + y, self.b * x

    def fixed_points(self) -> np.ndarray:
        """The two solutions of the fixed-point quadratic, in closed form."""
        disc = (1.0 - self.b) ** 2 + 4.0 * self.a
        roots = [((self.b - 1.0) + s * math.sqrt(disc)) / (2.0 * self.a) for s in (1, -1)]
        return np.array([[x, self.b * x] for x in roots])


@dataclass(frozen=True)
class CatMap(System, name="catmap"):
    """Arnold cat map on the 2-torus: (x, y) -> (x + y, x + 2y) mod 1."""

    box = ((0.0, 1.0), (0.0, 1.0))
    torus = True

    def _map(self, x, y):
        return (x + y) % 1.0, (x + 2.0 * y) % 1.0


@dataclass(frozen=True)
class CircleRotation(System, name="rotation"):
    """Rotation of the circle [0, 1) by alpha."""

    alpha: float

    box = ((0.0, 1.0),)
    torus = True

    def _map(self, x):
        return ((x + self.alpha) % 1.0,)


# With base >= 2 the odometer's cycle has at least 2**64 states at this
# many digits, far more than any orbit that can be iterated, so more digits
# only widen every state row; the cap stops a typo from allocating a domain
# of that width.
MAX_ODOMETER_DIGITS = 64


@dataclass(frozen=True)
class Odometer(System, name="odometer"):
    """Add-one-with-carry on a fixed number of digits in a given base.

    Digit vectors are scaled into [0, 1]^digits via digit / (base - 1).
    The state set is finite and totally disconnected, so the ground-truth
    covering dimension is 0; the cycle length is base**digits, so no
    small-period points exist for large digit counts.
    """

    base: int = 3
    digits: int = 6

    def __post_init__(self):
        # `_map` adds one to a digit as a float, exact only up to base = 2**53.
        if not 2 <= self.base <= 2 ** 53 or not 1 <= self.digits <= MAX_ODOMETER_DIGITS:
            raise ValueError(f"odometer needs 2 <= base <= 2**53 and 1 <= digits <= "
                             f"{MAX_ODOMETER_DIGITS}")

    @property
    def box(self):
        return ((0.0, 1.0),) * self.digits

    def _map(self, *xs):
        # Add one with carry: a carried digit that passes base - 1 becomes 0
        # and carries on.  Once no state carries, the digits left are only
        # rounded (+ 0.0 turns a rounded -0.0 into the digit 0).
        top, carry, out = self.base - 1, True, []
        for j, x in enumerate(xs):
            digit = np.rint(x * top) + carry
            carry = carry & (digit > top)
            out.append(digit * ~carry / top)
            if not carry.any():
                return (*out, *(np.rint(np.array(xs[j + 1:]) * top) / top + 0.0))
        return tuple(out)


# Vector fields in component form, like ``System._map``.
def _harmonic(x, y):
    return y, -x


def _lorenz(x, y, z):
    sigma, rho, beta = 10.0, 28.0, 8.0 / 3.0
    return sigma * (y - x), x * (rho - z) - y, x * y - beta * z


VECTOR_FIELDS: dict[str, dict] = {
    "harmonic": {
        "components": _harmonic,
        "domain": ((-2.0, 2.0), (-2.0, 2.0)),
        "lipschitz_L": 1.0,
    },
    "lorenz": {
        "components": _lorenz,
        "domain": ((-30.0, 30.0), (-40.0, 40.0), (-10.0, 80.0)),
        # Rough bound for the Jacobian norm on the trapping box.
        "lipschitz_L": 120.0,
    },
}


# RK4 substeps per step, ceil(dt / substep).  Each costs about 1.2-1.7 us per
# state in plain floats (Lorenz, 2-vCPU x86 VM), so the cap is under a
# second per state step; a larger ratio is a typo in dt or substep that
# would hang the run.
MAX_RK4_SUBSTEPS = 10**5


@functools.cache
def _rk4_code(k: int):
    """``def step(x0, ..., x{k-1})``: the component loop's RK4 step on k axes,
    the same float operations in the same order, as straight-line code
    compiled once per k; its globals give the field ``f`` and the step
    constants ``n_sub``, ``half``, ``h`` and ``sixth``."""
    def axes(term: str) -> str:
        return "".join(term.replace("#", str(i)) + ", " for i in range(k))

    return compile(
        f"def step({axes('x#')}):\n"
        "    for _ in range(n_sub):\n"
        f"        {axes('a#')}= f({axes('x#')})\n"
        f"        {axes('b#')}= f({axes('x# + half * a#')})\n"
        f"        {axes('c#')}= f({axes('x# + half * b#')})\n"
        f"        {axes('d#')}= f({axes('x# + h * c#')})\n"
        f"        {axes('x#')}= {axes('x# + sixth * (a# + 2.0 * b# + 2.0 * c# + d#)')}\n"
        f"    return {axes('x#')}\n", f"<rk4 step, {k} axes>", "exec")


@dataclass(frozen=True)
class SampledFlow(System, name="flow"):
    """Time-t map of an ODE flow, advanced by classical RK4 with fixed
    substep; ``_map`` is the generated step of `_rk4_code`."""

    field: str
    dt: float
    substep: float = 0.01

    def __post_init__(self):
        if self.field not in VECTOR_FIELDS:
            raise ValueError(f"unknown vector field {self.field!r}")
        if self.dt <= 0.0 or self.substep <= 0.0:
            raise ValueError("dt and substep must be positive")
        if self.dt / self.substep > MAX_RK4_SUBSTEPS:
            raise ValueError(f"dt / substep exceeds {MAX_RK4_SUBSTEPS} RK4 substeps per step")
        n_sub = max(1, math.ceil(self.dt / self.substep))
        object.__setattr__(self, "substeps", n_sub)
        h = self.dt / n_sub
        scope = {"f": VECTOR_FIELDS[self.field]["components"], "n_sub": n_sub,
                 "half": 0.5 * h, "h": h, "sixth": h / 6.0}
        exec(_rk4_code(len(self.box)), scope)
        object.__setattr__(self, "_map", scope["step"])

    def __reduce__(self):
        # The generated step has no importable name.
        return type(self), (self.field, self.dt, self.substep)

    @property
    def box(self):
        return VECTOR_FIELDS[self.field]["domain"]

    @property
    def lipschitz_L(self):
        return VECTOR_FIELDS[self.field]["lipschitz_L"]


@dataclass(frozen=True)
class Trajectory:
    """A finite forward orbit: states[i+1] = step(states[i])."""

    states: np.ndarray  # (n, k)
    system_id: str

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or states.shape[0] < 1:
            raise ValueError("trajectory needs a nonempty (n, k) state array")
        object.__setattr__(self, "states", states)

    def __len__(self):
        return self.states.shape[0]


def iterate(sys: System, x0, n: int) -> Trajectory:
    """Forward orbit of length n starting at x0 (n >= 1, includes x0).

    The orbit runs through ``sys._map`` on Python floats.  Every stepped
    state (all but the last) must lie in the domain box; they are checked
    together once the loop ends, which raises the same error as a check
    before each step.
    """
    if n < 1:
        raise ValueError("orbit length must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    sys.check_domain(x0[None, :])
    states = np.empty((n, sys.ambient_dim))
    states[0] = x0
    cur = x0.tolist()
    for i in range(1, n):
        states[i] = cur = sys._map(*cur)
    sys.check_domain(states[:-1])
    return Trajectory(states=states, system_id=sys.system_id)


# --- periodic points ------------------------------------------------------

# An escaping iterate overflows; its row fails as non-finite, so no warning.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _newton(residual, x0: np.ndarray, fd: float, maxiter: int, step_cap: float,
            stop_tol: float, accept_tol: float, project=None) -> tuple[np.ndarray, np.ndarray]:
    """Newton on residual(x) = 0 from every row of x0 at once, with a
    forward-difference Jacobian (step ``fd``) from one residual call on the
    (n*k, k) probe rows.  A row stops at residual norm <= ``stop_tol``; it
    fails on a non-finite residual, a singular Jacobian, a step not finite
    or longer than ``step_cap``, or when ``project``, which maps the updated
    rows to (rows, kept), does not keep it.  Returns the rows and the mask of
    rows that did not fail and end with residual norm <= ``accept_tol``."""
    x = np.array(x0, dtype=float)
    n, k = x.shape
    ok = np.ones(n, dtype=bool)
    stopped = np.zeros(n, dtype=bool)
    probe_step = fd * np.eye(k)
    for _ in range(maxiter):
        idx = np.flatnonzero(ok & ~stopped)
        g = residual(x[idx])
        finite = np.all(np.isfinite(g), axis=1)
        ok[idx[~finite]] = False
        moving = finite & ~(np.linalg.norm(g, axis=1) <= stop_tol)
        stopped[idx[finite & ~moving]] = True
        idx, g = idx[moving], g[moving]
        if idx.size == 0:
            break
        probe = (x[idx, None, :] + probe_step).reshape(-1, k)
        jac = (residual(probe).reshape(-1, k, k) - g[:, None, :]).transpose(0, 2, 1) / fd
        try:
            delta = np.linalg.solve(jac, -g[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:  # solve row by row; singular rows fail alone
            delta = np.full_like(g, np.nan)
            for i in range(idx.size):
                try:
                    delta[i] = np.linalg.solve(jac[i], -g[i])
                except np.linalg.LinAlgError:
                    pass
        good = (np.all(np.isfinite(delta), axis=1)
                & (np.linalg.norm(delta, axis=1) <= step_cap))
        x_new = x[idx[good]] + delta[good]
        if project is not None:
            x_new, kept = project(x_new)
            good[good] = kept
            x_new = x_new[kept]
        x[idx[good]] = x_new
        ok[idx[~good]] = False
    ok[ok] = np.linalg.norm(residual(x[ok]), axis=1) <= accept_tol
    return x, ok


def _returns(sys: System, start: np.ndarray, n_max: int, tol: float) -> np.ndarray:
    """(n, n_max) mask, from one batched orbit: entry [i, p - 1] is whether
    T^p of row i of ``start`` lies within ``tol`` of it."""
    close = np.zeros((start.shape[0], n_max), dtype=bool)
    cur = start
    for p in range(n_max):
        cur = sys.step_many(cur, check=False)
        close[:, p] = np.linalg.norm(sys.wrap_displacement(cur - start), axis=1) <= tol
    return close


def detect_period(sys: System, x, n_max: int, tol: float) -> np.ndarray:
    """Minimal p <= n_max with T^p(x) within tol of x, by direct return, for
    each row of the (n, k) batch ``x`` from one batched orbit; 0 where there
    is no return within n_max."""
    close = _returns(sys, _as_batch(x), n_max, tol)
    return np.where(close.any(axis=1), close.argmax(axis=1) + 1, 0)


def find_periodic(sys: System, n_max: int, tol: float, seeds) -> list[tuple[np.ndarray, int]]:
    """Periodic points of minimal period <= n_max, refined from the seeds.

    Pass p = 1..n_max runs on all seeds at once: seeds with T^p(x) - x
    within tol are kept, the rest go through one batched Newton run, and
    `detect_period` gives each point its minimal period.  In pass-then-seed
    order, a point within 10*tol of an earlier kept point of the same period
    is merged into it (`neighbors.first_found`).  Returns (point, period)
    tuples sorted by period and coordinates, so the result is deterministic
    regardless of seed order.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    seeds = _as_batch(seeds)
    box = sys.domain

    def project(x):
        if sys.torus:
            return x % 1.0, np.ones(x.shape[0], dtype=bool)
        return x, np.all((x >= box[:, 0]) & (x <= box[:, 1]), axis=1)

    points, periods = [], []
    for p in range(1, n_max + 1):
        def residual(x, p=p):
            return sys.wrap_displacement(sys.step_n(x, p, check=False) - x)

        x = seeds.copy()
        with np.errstate(over="ignore", invalid="ignore"):  # an escaping seed fails
            keep = np.linalg.norm(residual(seeds), axis=1) <= tol
        miss = np.flatnonzero(~keep)
        x[miss], keep[miss] = _newton(
            residual, seeds[miss], fd=max(1e-7, tol), maxiter=40, step_cap=1.0,
            stop_tol=0.1 * tol, accept_tol=tol, project=project)
        x = x[keep]
        q = detect_period(sys, x, p, tol)
        points.append(x[q > 0])
        periods.append(q[q > 0])
    points, periods = np.concatenate(points), np.concatenate(periods)
    into = first_found(points, 10 * tol, periods, sys.wrap_displacement)
    found = [(points[i], int(periods[i]))
             for i in np.flatnonzero(into == np.arange(len(into)))]
    found.sort(key=lambda item: (item[1],) + tuple(np.round(item[0], 12)))
    return found


def periodic_return_scan(sys: System, n_max: int, tol: float, seeds) -> list[tuple[np.ndarray, int]]:
    """Brute-force scan: seeds whose orbit returns within tol in <= n_max
    steps, one (seed, p) per return, ordered by p and then by seed."""
    seeds = _as_batch(seeds)
    p_idx, i_idx = np.nonzero(_returns(sys, seeds, n_max, tol).T)
    return [(seeds[i].copy(), int(p) + 1) for p, i in zip(p_idx, i_idx)]


# --- Yorke sampling bound -------------------------------------------------

def yorke_threshold(L: float, d: int) -> float:
    """Sampling-step threshold pi / (L d) below which the time-t map of an
    L-Lipschitz flow has no periodic points of order < 2d + 1."""
    if L <= 0.0:
        raise ValueError("Lipschitz constant must be positive")
    if d < 1:
        raise ValueError("d must be >= 1")
    return math.pi / (L * d)


def yorke_certificate(sys: SampledFlow, d: int, equilibrium_seeds=None) -> dict:
    """Certify that a sampled flow has no periodic orbits of order <= 2d.

    Equilibria of the vector field are period-1 points of every time-t map
    and are excluded by an explicit scan: Newton from the seeds stops at
    field norm 1e-6, and the zeros it finds are reported separately rather
    than silently certified.
    """
    if not isinstance(sys, SampledFlow):
        raise TypeError("yorke_certificate applies to sampled flows only")
    threshold = yorke_threshold(sys.lipschitz_L, d)
    certified = sys.dt < threshold
    equilibria: list[list[float]] = []
    if equilibrium_seeds is not None:
        components = VECTOR_FIELDS[sys.field]["components"]
        box = sys.domain
        tol = 1e-6
        # Newton on the vector field so equilibria between grid seeds
        # are found, not just seeds that happen to land on one.
        x, ok = _newton(lambda pts: np.stack(components(*pts.T), axis=1),
                        _as_batch(equilibrium_seeds), fd=1e-7, maxiter=30,
                        step_cap=1e3, stop_tol=tol, accept_tol=tol)
        x = x[ok & np.all((x >= box[:, 0]) & (x <= box[:, 1]), axis=1)]
        zeros = list(x[first_found(x, 100 * tol) == np.arange(x.shape[0])])
        zeros.sort(key=lambda z: tuple(np.round(z, 9)))
        equilibria = [[float(c) for c in z] for z in zeros]
    return {
        "threshold": threshold,
        "step": sys.dt,
        "certified": bool(certified),
        "max_excluded_order": 2 * d if certified else 0,
        "equilibria": equilibria,
    }


# --- JSON round-tripping --------------------------------------------------

system_from_dict = System.from_dict
