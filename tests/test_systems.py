"""System maps, trajectories, periodic-point search, and the sampling-time
bound for flows."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delayrecon as dr
from delayrecon import neighbors, topology
from delayrecon.systems import (
    MAX_ODOMETER_DIGITS,
    MAX_RK4_SUBSTEPS,
    VECTOR_FIELDS,
    DomainError,
    System,
    periodic_return_scan,
    system_from_dict,
    system_to_dict,
    yorke_certificate,
    yorke_threshold,
)
from delayrecon.topology import _detected_set_dimension, grid_seeds

# Fixed points of the plane quadratic map with a=1.4, b=0.3: the roots of
# a x^2 + (1-b) x - 1 = 0, x* = ((b-1) +/- sqrt((1-b)^2 + 4a)) / (2a),
# checked against numpy.roots:
HENON_FIXED_X = (0.6313544770895047, -1.1313544770895046)

# Fixed-point counts of powers of the torus matrix [[1,1],[1,2]]:
# |det(M^p - I)| for p = 1..4.
CAT_FIXED_COUNTS = (1, 5, 16, 45)
# Points of minimal period <= n implied by the counts above.
CAT_CUMULATIVE = (1, 5, 20, 60)


# --- reference implementations: the per-seed loops the batched code replaced

def scaled(odo, digit_rows):
    """Odometer states from rows of digits: digit / (base - 1)."""
    return np.asarray(digit_rows) / (odo.base - 1)


def digits_of(odo, pts):
    """The digits of odometer states, the inverse of `scaled`."""
    return np.rint(pts * (odo.base - 1)).astype(int)


def reference_odometer_step(odo, pts):
    digits = digits_of(odo, pts)
    for i in range(digits.shape[0]):
        for j in range(odo.digits):
            digits[i, j] += 1
            if digits[i, j] < odo.base:
                break
            digits[i, j] = 0
    return scaled(odo, digits)


def reference_harmonic(pts):
    out = np.empty_like(pts)
    out[:, 0] = pts[:, 1]
    out[:, 1] = -pts[:, 0]
    return out


def reference_lorenz(pts):
    sigma, rho, beta = 10.0, 28.0, 8.0 / 3.0
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    return np.stack([sigma * (y - x), x * (rho - z) - y, x * y - beta * z], axis=1)


REFERENCE_FIELDS = {"harmonic": reference_harmonic, "lorenz": reference_lorenz}


def reference_step(sys_, pts):
    """The array-form steps that the component maps replaced."""
    if isinstance(sys_, dr.Henon):
        out = np.empty_like(pts)
        out[:, 0] = 1.0 - sys_.a * pts[:, 0] ** 2 + pts[:, 1]
        out[:, 1] = sys_.b * pts[:, 0]
        return out
    if isinstance(sys_, dr.CatMap):
        out = np.empty_like(pts)
        out[:, 0] = (pts[:, 0] + pts[:, 1]) % 1.0
        out[:, 1] = (pts[:, 0] + 2.0 * pts[:, 1]) % 1.0
        return out
    if isinstance(sys_, dr.CircleRotation):
        return (pts + sys_.alpha) % 1.0
    if isinstance(sys_, dr.Odometer):
        return reference_odometer_step(sys_, pts)
    f = REFERENCE_FIELDS[sys_.field]
    n_sub = max(1, math.ceil(sys_.dt / sys_.substep))
    h = sys_.dt / n_sub
    out = pts.copy()
    for _ in range(n_sub):
        k1 = f(out)
        k2 = f(out + 0.5 * h * k1)
        k3 = f(out + 0.5 * h * k2)
        k4 = f(out + h * k3)
        out = out + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def reference_flow_map(flow, *s):
    """The component-form RK4 that `SampledFlow._map` replaced: field
    lookup and step constants on every call, generator arguments."""
    f = VECTOR_FIELDS[flow.field]["components"]
    n_sub = max(1, math.ceil(flow.dt / flow.substep))
    h = flow.dt / n_sub
    for _ in range(n_sub):
        k1 = f(*s)
        k2 = f(*(a + 0.5 * h * b for a, b in zip(s, k1)))
        k3 = f(*(a + 0.5 * h * b for a, b in zip(s, k2)))
        k4 = f(*(a + h * b for a, b in zip(s, k3)))
        s = tuple(a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4))
    return s


def reference_iterate(sys_, x0, n):
    """The orbit loop iterate replaced: one checked array step per state."""
    x0 = np.asarray(x0, dtype=float)
    states = np.empty((n, sys_.ambient_dim))
    states[0] = x0
    cur = x0[None, :]
    sys_.check_domain(cur)
    for i in range(1, n):
        sys_.check_domain(cur)  # as step_many did
        cur = reference_step(sys_, cur)
        states[i] = cur[0]
    return states


def _ref_displacement(sys_, pts, p):
    return sys_.wrap_displacement(sys_.step_n(pts, p, check=False) - pts)


def _ref_newton_refine(sys_, x0, p, tol, maxiter=40):
    k = sys_.ambient_dim
    x = x0.copy()
    fd = max(1e-7, tol)
    for _ in range(maxiter):
        g = _ref_displacement(sys_, x[None, :], p)[0]
        if not np.all(np.isfinite(g)):
            return None
        if np.linalg.norm(g) <= 0.1 * tol:
            return x
        probe = np.repeat(x[None, :], k, axis=0) + fd * np.eye(k)
        gp = _ref_displacement(sys_, probe, p)
        jac = (gp - g[None, :]).T / fd
        try:
            delta = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)) or np.linalg.norm(delta) > 1.0:
            return None
        x = x + delta
        if sys_.torus:
            x = x % 1.0
        else:
            box = sys_.domain
            if np.any(x < box[:, 0]) or np.any(x > box[:, 1]):
                return None
    g = _ref_displacement(sys_, x[None, :], p)[0]
    return x if np.linalg.norm(g) <= tol else None


def _ref_minimal_period(sys_, x, p, tol):
    cur = x[None, :]
    for q in range(1, p + 1):
        cur = sys_.step_n(cur, 1, check=False)
        if sys_.distance(cur[0], x) <= tol:
            return q
    return None


def reference_passes(sys_, n_max, tol, seeds):
    """The per-seed find_periodic loop; yields its sorted result after each
    pass p, which is what find_periodic(n_max=p) returned."""
    found = []
    for p in range(1, n_max + 1):
        for seed in np.atleast_2d(seeds):
            if np.linalg.norm(_ref_displacement(sys_, seed[None, :], p)[0]) <= tol:
                x = seed.copy()
            else:
                x = _ref_newton_refine(sys_, seed, p, tol)
                if x is None:
                    continue
            q = _ref_minimal_period(sys_, x, p, tol)
            if q is None:
                continue
            if any(q == per and sys_.distance(x, y) <= 10 * tol for y, per in found):
                continue
            found.append((x, q))
        yield sorted(found, key=lambda item: (item[1],) + tuple(np.round(item[0], 12)))


def reference_find_periodic(sys_, n_max, tol, seeds):
    return list(reference_passes(sys_, n_max, tol, seeds))[-1]


def batch_field(field):
    """The vector field ``field`` on (n, k) arrays, from its component
    form, as `yorke_certificate` stacks it."""
    components = VECTOR_FIELDS[field]["components"]
    return lambda pts: np.stack(components(*pts.T), axis=1)


def reference_equilibria(sys_, seeds, tol=1e-6):
    f = batch_field(sys_.field)
    box = sys_.domain
    k = sys_.ambient_dim
    zeros = []
    for seed in seeds:
        x = seed.copy()
        for _ in range(30):
            g = f(x[None, :])[0]
            if not np.all(np.isfinite(g)):
                x = None
                break
            if np.linalg.norm(g) <= tol:
                break
            probe = np.repeat(x[None, :], k, axis=0) + 1e-7 * np.eye(k)
            jac = (f(probe) - g[None, :]).T / 1e-7
            try:
                delta = np.linalg.solve(jac, -g)
            except np.linalg.LinAlgError:
                x = None
                break
            if not np.all(np.isfinite(delta)) or np.linalg.norm(delta) > 1e3:
                x = None
                break
            x = x + delta
        if x is None or np.linalg.norm(f(x[None, :])[0]) > tol:
            continue
        if np.any(x < box[:, 0]) or np.any(x > box[:, 1]):
            continue
        if any(np.linalg.norm(x - z) <= 100 * tol for z in zeros):
            continue
        zeros.append(x)
    zeros.sort(key=lambda z: tuple(np.round(z, 9)))
    return [[float(c) for c in z] for z in zeros]


def same_hits(a, b):
    """Bitwise equality of two (point, period) lists."""
    return (len(a) == len(b)
            and all(np.array_equal(xa, xb) and qa == qb
                    for (xa, qa), (xb, qb) in zip(a, b)))


class HalfDrift(System):
    """Unit square map that drifts by a constant on x < 0.5, where every
    Jacobian of T^p - id is singular, and contracts to (0.75, 0.5) on
    x >= 0.5, where Newton converges."""

    box = ((0.0, 1.0), (0.0, 1.0))
    system_id = "half-drift"

    def _step_batch(self, pts):
        contract = np.stack([0.75 + 0.5 * (pts[:, 0] - 0.75),
                             0.5 + 0.3 * (pts[:, 1] - 0.5)], axis=1)
        return np.where(pts[:, :1] < 0.5, np.minimum(pts + 0.05, 1.0), contract)


class TestStepFormulas:
    def test_catmap_origin_fixed(self):
        assert np.array_equal(dr.CatMap().step(np.array([0.0, 0.0])), [0.0, 0.0])

    def test_rotation_step(self):
        rot = dr.CircleRotation(0.25)
        assert rot.step(np.array([0.9]))[0] == pytest.approx(0.15)

    def test_henon_fixed_points_closed_form(self):
        henon = dr.Henon()
        fps = henon.fixed_points()
        assert fps[:, 0] == pytest.approx(HENON_FIXED_X)
        for fp in fps:
            assert henon.step(fp) == pytest.approx(fp)

    def test_henon_injective_flag(self):
        assert dr.Henon().injective
        assert not dr.Henon(b=0.0).injective

    def test_odometer_add_with_carry(self):
        odo = dr.Odometer(base=3, digits=4)
        # state (2,2,0,0) scaled by 1/(base-1); adding one carries twice
        x = scaled(odo, [2, 2, 0, 0])
        y = digits_of(odo, odo.step(x))
        assert list(y) == [0, 0, 1, 0]

    @pytest.mark.parametrize("base,digits", [(3, 4), (2, 5), (3, 6), (5, 4), (10, 3)])
    def test_odometer_matches_carry_loop_on_every_state(self, base, digits):
        # Every digit state, then half-way ties, off-grid states in the
        # widened box and a -1e-10 row; in batch and on Python floats, bit
        # for bit (the sign of zero included).
        odo = dr.Odometer(base=base, digits=digits)
        rng = np.random.default_rng(base)
        rows = np.array([[(v // base ** j) % base for j in range(digits)]
                         for v in range(base ** digits)])
        pts = np.concatenate([
            scaled(odo, rows), scaled(odo, rng.integers(0, base - 1, (200, digits)) + 0.5),
            rng.uniform(-1e-9, 1.0 + 1e-9, (200, digits)), np.full((1, digits), -1e-10)])
        want = reference_odometer_step(odo, pts)
        assert odo.step_many(pts).tobytes() == want.tobytes()
        singles = np.array([odo._map(*row) for row in pts.tolist()])
        assert singles.tobytes() == want.tobytes()

    def test_odometer_digit_past_top_matches_carry_loop(self):
        # With base - 1 = 1e9 the box's 1e-9 slack holds digits that round
        # to base: a carried one becomes 0, one the carry does not reach
        # stays, and neither carries on by itself.
        odo = dr.Odometer(base=10 ** 9 + 1, digits=3)
        pts = np.array([[0.5, 1.0 + 1e-9, 0.0], [1.0 + 1e-9, 1.0, 0.25],
                        [1.0 + 1e-9, 0.5, 1.0 + 1e-9]])
        want = reference_odometer_step(odo, pts)
        assert np.array([odo._map(*row) for row in pts.tolist()]).tobytes() == want.tobytes()
        assert odo.step_many(pts).tobytes() == want.tobytes()

    def test_odometer_base_bounded_by_exact_floats(self):
        # `_map` adds one to a digit as a float: at base 2**53 the top digit
        # plus one is still exact, so the carry is seen.
        odo = dr.Odometer(base=2 ** 53, digits=3)
        top = 2 ** 53 - 1
        assert list(digits_of(odo, odo.step(scaled(odo, [top, top - 1, 5])))) == [0, top, 5]
        for base in (2 ** 53 + 1, 10 ** 400, 1):
            with pytest.raises(ValueError, match="odometer needs 2 <= base <= 2\\*\\*53"):
                dr.Odometer(base=base)

    def test_odometer_full_cycle_length(self):
        odo = dr.Odometer(base=3, digits=3)
        x0 = np.zeros(3)
        traj = dr.iterate(odo, x0, 3 ** 3 + 1)
        assert np.allclose(traj.states[-1], x0)
        # no earlier return
        returns = np.all(np.isclose(traj.states[1:-1], x0), axis=1)
        assert not returns.any()

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            dr.Henon().step(np.array([10.0, 0.0]))

    def test_nan_lies_in_no_box(self):
        for sys_, x in [(dr.Henon(), [math.nan, 0.1]), (dr.CatMap(), [0.1, math.nan]),
                        (dr.Odometer(digits=2), [math.nan, 0.0])]:
            with pytest.raises(DomainError, match="state outside domain box"):
                dr.iterate(sys_, x, 5)
            with pytest.raises(DomainError, match="state outside domain box"):
                sys_.step_many(np.array([[0.1] * len(x), x]))

    def test_dimension_enforced(self):
        with pytest.raises(DomainError):
            dr.CatMap().step(np.array([0.1]))


class TestTrajectory:
    def test_iterate_matches_repeated_step(self, henon):
        traj = dr.iterate(henon, np.array([0.1, 0.1]), 20)
        x = np.array([0.1, 0.1])
        for state in traj.states:
            assert np.array_equal(state, x)
            x = henon.step(x)

    def test_step_many_batch_agrees_with_single(self, henon):
        pts = np.random.default_rng(0).uniform(-0.5, 0.5, (40, 2))
        batch = henon.step_many(pts)
        singles = np.array([henon.step(p) for p in pts])
        assert np.array_equal(batch, singles)

    def test_length_one_allowed(self, henon):
        assert len(dr.iterate(henon, np.array([0.0, 0.0]), 1)) == 1

    def test_zero_length_rejected(self, henon):
        with pytest.raises(ValueError):
            dr.iterate(henon, np.array([0.0, 0.0]), 0)


def orbit_outcome(fn, *args):
    """An orbit's states, or the type and message of the error it raised;
    any warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args)
        except Exception as exc:
            return type(exc), str(exc)


ELEMENTWISE = [
    dr.Henon(),
    dr.Henon(a=1.2, b=-0.4),
    dr.CatMap(),
    dr.CircleRotation(math.sqrt(2) - 1.0),
    dr.CircleRotation(0.75),
    dr.SampledFlow("lorenz", dt=0.02),
    dr.SampledFlow("harmonic", dt=0.25, substep=0.07),
]


class TestOrbitLoop:
    """iterate on Python floats through _map, against the per-step
    step_many loop it replaced, bit for bit."""

    @pytest.mark.parametrize("sys_,x0,n", [
        (dr.SampledFlow("lorenz", dt=0.02), [1.0, 1.0, 20.0], 3000),
        (dr.SampledFlow("harmonic", dt=0.3), [0.5, 0.0], 500),
        (dr.Henon(), [0.1, 0.1], 3000),
        (dr.CatMap(), [0.1, 0.7], 1000),
        (dr.CircleRotation(math.sqrt(2) - 1.0), [0.0], 1000),
        (dr.Odometer(base=3, digits=3), [0.0, 0.5, 1.0], 60),
    ], ids=["lorenz", "harmonic", "henon", "catmap", "rotation", "odometer"])
    def test_bitwise_equal_to_reference(self, sys_, x0, n):
        got = dr.iterate(sys_, x0, n).states
        assert got.tobytes() == reference_iterate(sys_, x0, n).tobytes()

    @pytest.mark.parametrize("sys_", ELEMENTWISE, ids=lambda s: s.system_id)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batch_step_equals_map_on_floats(self, sys_, data):
        coords = [st.floats(lo, hi) for lo, hi in sys_.domain]
        rows = data.draw(st.lists(st.tuples(*coords), min_size=1, max_size=30))
        pts = np.array(rows)
        batch = sys_.step_many(pts)
        singles = np.array([sys_._map(*row) for row in rows])
        assert all(type(v) is float for v in sys_._map(*rows[0]))
        assert batch.tobytes() == singles.tobytes()
        assert batch.tobytes() == reference_step(sys_, pts).tobytes()
        if isinstance(sys_, dr.SampledFlow):
            field = batch_field(sys_.field)(pts)
            assert field.tobytes() == REFERENCE_FIELDS[sys_.field](pts).tobytes()

    @pytest.mark.parametrize("sys_,x0,n", [
        (dr.Henon(), [10.0, 0.0], 5),
        (dr.Henon(), [10.0, 0.0], 1),
        (dr.Henon(), [3.0 + 2e-9, 0.0], 1),
        (dr.Henon(), [3.0 + 5e-10, 0.0], 4),
        (dr.Henon(), [1.2, 0.9], 6),
        (dr.Henon(), [1.2, 0.9], 7),
        (dr.Henon(), [1.2, 0.9], 400),
        (dr.Henon(), [math.nan, 0.0], 5),
        (dr.Henon(), [0.1], 5),
        (dr.SampledFlow("lorenz", dt=0.02), [29.0, 39.0, 79.0], 2),
        (dr.SampledFlow("lorenz", dt=0.02), [29.0, 39.0, 79.0], 3),
        (dr.SampledFlow("lorenz", dt=0.02), [29.0, 39.0, 79.0], 300),
        (dr.CatMap(), [1.5, 0.5], 3),
    ], ids=["x0-outside", "x0-outside-n1", "beyond-slack-n1", "within-slack",
            "escape-last-state", "escape-stepped", "escape-overflows", "nan",
            "short-x0", "flow-escape-last", "flow-escape-stepped",
            "flow-escape-overflows", "torus-outside"])
    def test_domain_errors_match_reference(self, sys_, x0, n):
        got = orbit_outcome(lambda: dr.iterate(sys_, x0, n).states)
        want = orbit_outcome(reference_iterate, sys_, x0, n)
        if isinstance(want, tuple):
            assert want[0] is DomainError
            assert got == want
        else:
            assert np.array_equal(got, want, equal_nan=True)

    def test_long_x0_is_a_domain_error(self):
        # The per-step loop failed this one with NumPy's broadcast error.
        with pytest.raises(DomainError, match="state dimension 3 != 2"):
            dr.iterate(dr.Henon(), [0.1, 0.1, 0.1], 5)


class TestLipschitz:
    """The flows' hand-typed Lipschitz constants bound the Jacobian of their
    vector fields over the declared box."""

    @staticmethod
    def jacobian(field, x, step=1e-3):
        """Central differences; exact up to rounding on quadratic fields."""
        k = len(x)
        probe = x + step * np.eye(k)
        back = x - step * np.eye(k)
        return ((field(probe) - field(back)) / (2 * step)).T

    def test_lorenz_constant_bounds_frobenius_norm(self):
        spec = VECTOR_FIELDS["lorenz"]
        sigma, rho, beta = 10.0, 28.0, 8.0 / 3.0

        def jac(x, y, z):
            return np.array([[-sigma, sigma, 0.0],
                             [rho - z, -1.0, -x],
                             [y, x, -beta]])

        box = np.array(spec["domain"])
        for x in np.random.default_rng(2).uniform(box[:, 0], box[:, 1], (20, 3)):
            assert np.allclose(self.jacobian(batch_field("lorenz"), x), jac(*x),
                               atol=1e-8)
        # Every squared entry is convex in one coordinate, so the Frobenius
        # norm is largest at a corner of the box.
        bound = max(np.linalg.norm(jac(*c)) for c in itertools.product(*spec["domain"]))
        assert bound == pytest.approx(79.4488, abs=1e-4)
        assert spec["lipschitz_L"] >= bound
        assert dr.SampledFlow("lorenz", dt=0.01).lipschitz_L == spec["lipschitz_L"]

    def test_harmonic_constant_is_exact_norm(self):
        spec = VECTOR_FIELDS["harmonic"]
        field = batch_field("harmonic")
        jac = field(np.eye(2)).T  # a linear field: columns are images
        assert np.allclose(self.jacobian(field, np.array([0.3, -1.1])), jac)
        assert np.array_equal(jac.T @ jac, np.eye(2))  # orthogonal: norm exactly 1
        assert spec["lipschitz_L"] == 1.0


class TestSampledFlow:
    def test_harmonic_is_a_rotation(self):
        flow = dr.SampledFlow("harmonic", dt=0.5)
        traj = dr.iterate(flow, np.array([0.5, 0.0]), 13)
        t = 0.5 * np.arange(13)
        exact = np.stack([0.5 * np.cos(t), -0.5 * np.sin(t)], axis=1)
        assert np.abs(traj.states - exact).max() < 1e-8

    def test_substep_halving_is_fourth_order(self):
        x0 = np.array([1.0, 0.0])
        coarse = dr.SampledFlow("harmonic", dt=1.0, substep=0.1).step(x0)
        fine = dr.SampledFlow("harmonic", dt=1.0, substep=0.05).step(x0)
        exact = np.array([math.cos(1.0), -math.sin(1.0)])
        err_c = np.linalg.norm(coarse - exact)
        err_f = np.linalg.norm(fine - exact)
        # classical RK4: halving the substep shrinks the error ~16x
        assert err_f < err_c / 8.0

    def test_lorenz_field_values(self):
        out = batch_field("lorenz")(np.array([[1.0, 2.0, 3.0]]))[0]
        assert out == pytest.approx([10.0, 23.0, -6.0])

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            dr.SampledFlow("pendulum", dt=0.1)

    @pytest.mark.parametrize("flow, x0", [
        (dr.SampledFlow("lorenz", dt=0.02, substep=0.01), [1.0, 1.0, 20.0]),
        (dr.SampledFlow("lorenz", dt=0.05, substep=0.015), [-3.0, 4.0, 25.0]),
        (dr.SampledFlow("harmonic", dt=0.3, substep=0.07), [0.5, -0.2]),
    ])
    def test_rk4_bitwise_equal_to_component_loop(self, flow, x0):
        # On Python floats, the path `iterate` takes ...
        states = dr.iterate(flow, np.array(x0), 400).states
        ref = [tuple(x0)]
        for _ in range(399):
            ref.append(reference_flow_map(flow, *ref[-1]))
        assert np.array_equal(states, np.array(ref))
        # ... and on NumPy columns, the path of `step_many`.
        cols = reference_flow_map(flow, *states.T)
        assert np.array_equal(flow.step_many(states), np.stack(cols, axis=1))

    def test_size_caps_admit_their_bound(self):
        # Construction only: neither the domain nor an orbit is built.
        dr.Odometer(digits=MAX_ODOMETER_DIGITS)
        dr.SampledFlow("harmonic", dt=float(MAX_RK4_SUBSTEPS), substep=1.0)
        with pytest.raises(ValueError, match="digits"):
            dr.Odometer(digits=MAX_ODOMETER_DIGITS + 1)
        with pytest.raises(ValueError, match="substeps"):
            dr.SampledFlow("harmonic", dt=MAX_RK4_SUBSTEPS + 1.0, substep=1.0)


class TestFindPeriodic:
    def test_catmap_counts_match_matrix_oracle(self):
        cat = dr.CatMap()
        seeds = grid_seeds(cat, 400)
        for n, expect in zip(range(1, 5), CAT_CUMULATIVE):
            hits = dr.find_periodic(cat, n_max=n, tol=1e-9, seeds=seeds)
            assert len(hits) == expect

    def test_period_minimality_and_tolerance(self):
        cat = dr.CatMap()
        hits = dr.find_periodic(cat, n_max=3, tol=1e-9,
                                seeds=grid_seeds(cat, 200))
        for x, p in hits:
            assert cat.distance(cat.step_n(x[None, :], p)[0], x) <= 1e-9
            for q in range(1, p):
                assert cat.distance(cat.step_n(x[None, :], q)[0], x) > 1e-9

    def test_periodic_set_invariant_under_map(self):
        cat = dr.CatMap()
        hits = dr.find_periodic(cat, n_max=3, tol=1e-9,
                                seeds=grid_seeds(cat, 200))
        pts = np.array([x for x, _ in hits])
        for x, p in hits:
            y = cat.step(x)
            assert cat.distance(cat.step_n(y[None, :], p)[0], y) <= 1e-6
            assert min(cat.distance(y, q) for q in pts) <= 1e-6

    def test_henon_fixed_points_found(self, henon):
        seeds = grid_seeds(henon, 100)
        hits = dr.find_periodic(henon, n_max=1, tol=1e-9, seeds=seeds)
        got = sorted(x[0] for x, _ in hits)
        assert got == pytest.approx(sorted(HENON_FIXED_X))

    def test_irrational_rotation_has_none(self):
        rot = dr.CircleRotation(math.sqrt(2) - 1.0)
        hits = dr.find_periodic(rot, n_max=4, tol=1e-9,
                                seeds=grid_seeds(rot, 50))
        assert hits == []

    def test_deterministic_under_seed_shuffle(self):
        cat = dr.CatMap()
        seeds = grid_seeds(cat, 150)
        a = dr.find_periodic(cat, 2, 1e-9, seeds)
        b = dr.find_periodic(cat, 2, 1e-9, seeds[::-1])
        assert len(a) == len(b)
        for (xa, pa), (xb, pb) in zip(a, b):
            assert pa == pb
            assert cat.distance(xa, xb) <= 1e-7


class TestBatchedEngine:
    """find_periodic against the per-seed loop it replaced, bit for bit."""

    @pytest.mark.parametrize("sys_,n_max,n_seeds", [
        (dr.CatMap(), 4, 400),
        (dr.Henon(), 4, 100),
        (dr.Henon(), 6, 16),
        (dr.CircleRotation(0.25), 6, 50),
        (dr.CircleRotation(math.sqrt(2) - 1.0), 4, 50),
    ], ids=["catmap", "henon", "henon-coarse", "rational-rotation",
            "irrational-rotation"])
    def test_bitwise_equal_to_reference(self, sys_, n_max, n_seeds):
        seeds = grid_seeds(sys_, n_seeds)
        got = dr.find_periodic(sys_, n_max, 1e-9, seeds)
        assert same_hits(got, reference_find_periodic(sys_, n_max, 1e-9, seeds))

    def test_singular_rows_fail_alone(self):
        sys_ = HalfDrift()
        seeds = np.random.default_rng(5).uniform(0.0, 1.0, (60, 2))
        got = dr.find_periodic(sys_, 3, 1e-9, seeds)
        assert same_hits(got, reference_find_periodic(sys_, 3, 1e-9, seeds))
        # the contracting half converges, the drifting half yields nothing
        assert len(got) == 1 and got[0][1] == 1
        assert got[0][0] == pytest.approx([0.75, 0.5])

    def test_hypothesis_check_uses_one_pass(self, monkeypatch):
        # The points of minimal period q <= n from one pass up to 2d are the
        # points find_periodic(n_max=n) finds, bit for bit: no point of a
        # set for period n is one that only a later pass converged to.
        calls = []

        def recording(*args, **kwargs):
            calls.append((kwargs["n_max"], dr.find_periodic(*args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(topology, "find_periodic", recording)
        for sys_, d, counts in [(dr.CatMap(), 3, [1, 5, 20, 60, 180, 455]),
                                (dr.Henon(), 2, [2, 4, 4, 8]),
                                (dr.CircleRotation(0.25), 2, [0, 0, 0, 400])]:
            calls.clear()
            report = topology.hypothesis_check(sys_, d)
            [(n_max, hits)] = calls
            assert n_max == 2 * d
            assert [entry["detected_count"] for entry in report.per_n] == counts
            seeds = grid_seeds(sys_, 400)
            refs = reference_passes(sys_, 2 * d, 1e-9, seeds)
            for n, (entry, ref) in enumerate(zip(report.per_n, refs), start=1):
                below = [(x, q) for x, q in hits if q <= n]
                assert same_hits(below, ref)
                assert same_hits(below, dr.find_periodic(sys_, n, 1e-9, seeds))
                points = np.array([x for x, _ in ref]).reshape(-1, sys_.ambient_dim)
                assert entry["detected_dim"] == _detected_set_dimension(points, 400)

    def test_merge_makes_no_pair_query(self, monkeypatch):
        # The cat map's candidates hold tight clusters of up to 164 copies of
        # one point, so a pair query at the merge radius would build about
        # 3e5 pairs; the merge sorts and sweeps instead.
        def forbidden(*args, **kwargs):
            raise AssertionError("pair query in the merge")

        monkeypatch.setattr(neighbors, "_pairs", forbidden)
        cat = dr.CatMap()
        assert len(dr.find_periodic(cat, 6, 1e-9, grid_seeds(cat, 400))) == 455
        flow = dr.SampledFlow("lorenz", dt=0.01)
        cert = yorke_certificate(flow, 1, equilibrium_seeds=grid_seeds(flow, 1000))
        assert len(cert["equilibria"]) == 3

    def test_hypothesis_check_d0_skips_search(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("find_periodic called for d = 0")

        monkeypatch.setattr(topology, "find_periodic", forbidden)
        report = topology.hypothesis_check(dr.CatMap(), 0)
        assert report.ok and report.per_n == []


class TestYorke:
    def test_threshold_formula(self):
        assert yorke_threshold(1.0, 1) == pytest.approx(math.pi)
        assert yorke_threshold(2.0, 3) == pytest.approx(math.pi / 6.0)

    def test_threshold_rejects_bad_input(self):
        with pytest.raises(ValueError):
            yorke_threshold(0.0, 1)
        with pytest.raises(ValueError):
            yorke_threshold(1.0, 0)

    def test_certificate_certifies_below_threshold(self):
        flow = dr.SampledFlow("harmonic", dt=3.0)
        cert = yorke_certificate(flow, 1)
        assert cert["certified"]
        assert cert["max_excluded_order"] == 2

    def test_certificate_refuses_above_threshold(self):
        flow = dr.SampledFlow("harmonic", dt=3.5)
        assert not yorke_certificate(flow, 1)["certified"]

    def test_equilibrium_scan_finds_origin(self):
        flow = dr.SampledFlow("harmonic", dt=0.5)
        cert = yorke_certificate(flow, 1,
                                 equilibrium_seeds=grid_seeds(flow, 64))
        assert len(cert["equilibria"]) == 1
        assert np.linalg.norm(cert["equilibria"][0]) < 1e-6

    @pytest.mark.parametrize("field,n_seeds", [("lorenz", 200), ("harmonic", 64)])
    def test_equilibria_match_per_seed_loop(self, field, n_seeds):
        flow = dr.SampledFlow(field, dt=0.01)
        seeds = grid_seeds(flow, n_seeds)
        cert = yorke_certificate(flow, 1, equilibrium_seeds=seeds)
        assert cert["equilibria"] == reference_equilibria(flow, seeds)

    def test_return_scan_quiet_when_certified(self):
        flow = dr.SampledFlow("harmonic", dt=3.0)
        hits = periodic_return_scan(flow, 2, 1e-6, grid_seeds(flow, 100))
        assert hits == []


class TestSerialization:
    @pytest.mark.parametrize(
        "sys_",
        [
            dr.Henon(a=1.2, b=0.25),
            dr.CatMap(),
            dr.CircleRotation(0.37),
            dr.Odometer(base=2, digits=5),
            dr.SampledFlow("harmonic", dt=0.25, substep=0.05),
        ],
    )
    def test_round_trip(self, sys_):
        back = system_from_dict(system_to_dict(sys_))
        assert back.system_id == sys_.system_id
        x = np.full(sys_.ambient_dim, 0.1)
        assert np.array_equal(back.step(x), sys_.step(x))

    def test_id_is_tag_and_fields(self):
        assert [sys_.system_id for sys_ in (
            dr.Henon(), dr.CatMap(), dr.CircleRotation(0.1), dr.Odometer(),
            dr.SampledFlow("lorenz", dt=0.02))] == [
            "henon(a=1.4,b=0.3)", "catmap", "rotation(alpha=0.1)",
            "odometer(base=3,digits=6)", "flow(field=lorenz,dt=0.02,substep=0.01)"]
        # The substep changes the map, so it changes the id.
        assert (dr.SampledFlow("lorenz", dt=0.02, substep=0.005).system_id
                == "flow(field=lorenz,dt=0.02,substep=0.005)")

    @pytest.mark.parametrize("sys_", [
        dr.Henon(), dr.CatMap(), dr.CircleRotation(0.1), dr.Odometer(base=2, digits=4),
        dr.SampledFlow("harmonic", dt=0.3), dr.SampledFlow("lorenz", dt=0.02)],
        ids=lambda s: s.name)
    def test_domain_and_dimension_come_from_the_box(self, sys_):
        assert sys_.domain.tobytes() == np.array(sys_.box, dtype=float).tobytes()
        assert sys_.domain.shape == (sys_.ambient_dim, 2)
        assert sys_.ambient_dim == len(sys_.box)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            system_from_dict({"kind": "standardmap"})
