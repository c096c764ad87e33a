"""One schema for systems, observables and configs: every registered class
round-trips through JSON, `convert` checks each type and names bad values
by dotted path, and fuzzed configs never escape `cli.main`."""

import contextlib
import io
import json
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayrecon import cli
from delayrecon.core import (
    Constant,
    Coordinate,
    Observable,
    PiecewiseAnchor,
    SumObservable,
    TrigPolynomial,
)
from delayrecon.systems import (
    VECTOR_FIELDS,
    CatMap,
    CircleRotation,
    ConfigError,
    Henon,
    Odometer,
    SampledFlow,
    System,
    convert,
)

REGISTERED = [*System.registry.values(), *Observable.registry.values()]

real = st.floats(-10.0, 10.0)
unit = st.floats(0.0, 1.0)
positive = st.floats(1e-3, 10.0)
anchor_lists = st.integers(1, 3).flatmap(lambda k: st.lists(
    st.tuples(st.tuples(*[real] * k), unit), max_size=4))
constants = st.builds(Constant, value=unit)
coordinates = st.builds(lambda i, lo, width: Coordinate(i, lo, lo + width),
                        st.integers(0, 3), real, st.floats(0.01, 10.0))
leaf_observables = st.one_of(constants, coordinates)
INSTANCES = {
    Henon: st.builds(Henon, a=real, b=real),
    CatMap: st.just(CatMap()),
    CircleRotation: st.builds(CircleRotation, alpha=real),
    Odometer: st.builds(Odometer, base=st.integers(2, 9), digits=st.integers(1, 9)),
    SampledFlow: st.builds(SampledFlow, field=st.sampled_from(sorted(VECTOR_FIELDS)),
                           dt=positive, substep=positive),
    Constant: constants,
    Coordinate: coordinates,
    TrigPolynomial: st.builds(
        TrigPolynomial,
        terms=st.lists(st.tuples(real, real, st.integers(0, 3), real), max_size=3)
        .map(tuple),
        amplitude=st.floats(0.0, 0.5)),
    PiecewiseAnchor: st.builds(
        lambda anchors, radius, base: PiecewiseAnchor(
            points=tuple(p for p, _ in anchors), values=tuple(v for _, v in anchors),
            radius=radius, base=base),
        anchor_lists, positive, unit),
    SumObservable: st.builds(SumObservable, base=leaf_observables,
                             bump=leaf_observables, offset=real),
}


@pytest.mark.parametrize("cls", REGISTERED, ids=lambda cls: cls.name)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_round_trip_through_json(cls, data):
    x = data.draw(INSTANCES[cls])
    payload = json.loads(json.dumps(x.to_dict()))
    assert cls.from_dict(payload) == x


def test_keys_are_fields_in_order():
    assert list(SampledFlow("lorenz", 0.02).to_dict().items()) == [
        ("kind", "flow"), ("field", "lorenz"), ("dt", 0.02), ("substep", 0.01)]
    assert list(Coordinate(1).to_dict()) == ["variant", "index", "lo", "hi"]
    assert CatMap().to_dict() == {"kind": "catmap"}


def test_defaults_come_from_the_dataclass():
    assert System.from_dict({"kind": "henon"}) == Henon()
    assert Observable.from_dict({"variant": "trig", "terms": []}) == TrigPolynomial(())


class TestConvert:
    def test_int_accepts_integral_float_only(self):
        assert convert(2.0, int, "n") == 2 and type(convert(2.0, int, "n")) is int
        with pytest.raises(ConfigError, match="'n' must be an integer, got 2.5"):
            convert(2.5, int, "n")

    @pytest.mark.parametrize("kind", [int, float])
    def test_bool_is_no_number(self, kind):
        with pytest.raises(ConfigError, match="'x' must be"):
            convert(True, kind, "x")

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"),
                                       "inf", "nan", 10 ** 400])
    def test_float_is_finite(self, value):
        with pytest.raises(ConfigError, match="'x' must be a finite number, got"):
            convert(value, float, "x")
        with pytest.raises(ConfigError, match=r"'xs\.1' must be a finite number"):
            convert([0.5, value], tuple[float, ...], "xs")
        assert convert(1e308, float, "x") == 1e308

    @pytest.mark.parametrize("kind,value", [(float, "0.05"), (int, " 7 "), (int, "7")])
    def test_number_given_as_string_rejected(self, kind, value):
        with pytest.raises(ConfigError, match=f"'x' must be .*, got {value!r}"):
            convert(value, kind, "x")

    def test_bool_and_str_take_their_own_type_only(self):
        assert convert(False, bool, "flag") is False
        with pytest.raises(ConfigError, match="true or false"):
            convert("no", bool, "flag")
        with pytest.raises(ConfigError, match="a string"):
            convert(["lorenz"], str, "system.field")

    def test_tuples_name_each_entry(self):
        kind = tuple[tuple[float, float, int, float], ...]
        assert convert([[1, 2, 0, 0]], kind, "terms") == ((1.0, 2.0, 0, 0.0),)
        with pytest.raises(ConfigError, match=r"'terms\.1\.2' must be an integer"):
            convert([[1, 2, 0, 0], [1, 2, 0.5, 0]], kind, "terms")
        with pytest.raises(ConfigError, match="'terms.0' must have 4 entries"):
            convert([[1, 2]], kind, "terms")
        with pytest.raises(ConfigError, match="'terms' must be a list"):
            convert(3, kind, "terms")

    def test_nested_objects_name_their_path(self):
        payload = {"variant": "sum", "base": {"variant": "constant", "value": "x"},
                   "bump": {"variant": "constant", "value": 0.5}}
        with pytest.raises(ConfigError, match=r"'observable\.base\.value'"):
            convert(payload, Observable, "observable")

    def test_constructor_error_wrapped_with_path(self):
        with pytest.raises(ConfigError, match="'observable' invalid: .*amplitude"):
            Observable.from_dict({"variant": "trig", "terms": [], "amplitude": 2.0})

    def test_missing_and_unknown_named(self):
        with pytest.raises(ConfigError, match="'system.alpha' is missing"):
            System.from_dict({"kind": "rotation"})
        with pytest.raises(ConfigError, match="'system.kind' must be one of"):
            System.from_dict({"kind": ["henon"]})


# --- fuzzed CLI configs -----------------------------------------------------

# A valid payload and initial state for every registered system.
SYSTEMS = {
    "henon": ({"kind": "henon", "a": 1.4, "b": 0.3}, [0.1, 0.1]),
    "catmap": ({"kind": "catmap"}, [0.1, 0.2]),
    "rotation": ({"kind": "rotation", "alpha": 0.3}, [0.1]),
    "odometer": ({"kind": "odometer", "base": 3, "digits": 2}, [0.0, 0.5]),
    "flow": ({"kind": "flow", "field": "harmonic", "dt": 0.5, "substep": 0.1},
             [1.0, 0.0]),
}
# Replacement values: null, strings, numbers given as strings, lists,
# bools, non-integral, out-of-range, non-finite and huge numbers.
BAD_VALUES = [None, "x", "0.5", "7", [], [0.5], True, False, 2.5, -0.5, -1, 0,
              float("inf"), float("-inf"), float("nan"), 1e308, -1e308, 10 ** 400]


def observables(k: int) -> dict:
    """A valid payload of every registered observable on k-dimensional states."""
    return {
        "constant": {"variant": "constant", "value": 0.5},
        "coordinate": {"variant": "coordinate", "index": 0, "lo": -1.5, "hi": 1.5},
        "trig": {"variant": "trig", "amplitude": 0.4,
                 "terms": [[1.0, 1.0, 0, 0.0], [0.5, 2.0, k - 1, 0.3]]},
        "anchors": {"variant": "anchors", "points": [[0.1] * k, [0.4] * k],
                    "values": [0.2, 0.9], "radius": 0.2, "base": 0.5},
        "sum": {"variant": "sum", "offset": 0.5,
                "base": {"variant": "constant", "value": 0.5},
                "bump": {"variant": "coordinate", "index": 0}},
    }


PAIRS = {"delta": 0.01, "count": 3, "detect_periodic": True, "period_max": 2,
         "period_seeds": 4}
# The fields each command reads beyond the seed, d, system, observable and
# trajectory, at small values.
COMMAND_FIELDS = {
    "simulate": {}, "embed": {},
    "margin": {"pairs": PAIRS},
    "perturb": {"epsilon": 0.05, "pairs": PAIRS},
    "genericity": {"trials": 3, "bump_scale": 0.1, "pairs": PAIRS},
    "dimension": {"scales": [1.0, 0.1, 0.01], "covering_scales": [8.0, 4.0]},
    "hypothesis": {"n_seeds": 4, "tol": 1e-9},
    "yorke": {"n_seeds": 4, "tol": 1e-6},
}


def make_config(system: str, variant: str, cmd: str = "embed") -> dict:
    """A fresh copy of a small valid config of ``cmd``."""
    payload, x0 = SYSTEMS[system]
    return json.loads(json.dumps({"seed": 3, "d": 1, "system": payload,
                                  "observable": observables(len(x0))[variant],
                                  "trajectory": {"x0": x0, "n": 12, "transient": 2},
                                  **COMMAND_FIELDS[cmd]}))


def paths(node, prefix=()):
    """Every key path into a JSON value, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def run_main(cmd: str, config: dict) -> tuple[int, str]:
    """Exit code and standard error of one run; a warning, which a run
    outside pytest prints to standard error as it happens, comes first."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/config.json"
        with open(path, "w") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([cmd, "--config", path, "--out", tmp, "--quiet"])
    return code, "".join(f"{w.category.__name__}: {w.message}\n" for w in caught) + err.getvalue()


def test_examples_cover_the_registry():
    assert set(SYSTEMS) == set(System.registry)
    assert set(observables(2)) == set(Observable.registry)


@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize("variant", sorted(observables(1)))
def test_examples_run(system, variant):
    assert run_main("embed", make_config(system, variant)) == (0, "")


@pytest.mark.parametrize("cmd", sorted(COMMAND_FIELDS))
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_command_examples_run(cmd, system):
    # yorke runs on flows only; the hypothesis and yorke checks may fail.
    if cmd == "yorke" and system != "flow":
        return
    code, err = run_main(cmd, make_config(system, "trig", cmd))
    assert code in (0, 2) and err == ""


@settings(max_examples=300, deadline=None)
@given(cmd=st.sampled_from(sorted(COMMAND_FIELDS)),
       system=st.sampled_from(sorted(SYSTEMS)),
       variant=st.sampled_from(sorted(observables(1))),
       data=st.data())
def test_fuzzed_config_exits_cleanly(cmd, system, variant, data):
    config = make_config("flow" if cmd == "yorke" else system, variant, cmd)
    *outer, leaf = data.draw(st.sampled_from(sorted(paths(config), key=str)))
    target = config
    for key in outer:
        target = target[key]
    target[leaf] = data.draw(st.sampled_from(BAD_VALUES))
    code, err = run_main(cmd, config)
    assert code in (0, 1, 2)
    assert code != 1 or err.startswith("error: ")
