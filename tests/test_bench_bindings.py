"""The package names and argument positions that the benchmark relies on.

bench/traced.py wraps package functions and methods by name and reads some
of their arguments by position; bench/checks.py calls package functions
with keywords.  A renamed target would make its metrics read 0, and a moved
argument would make a counter read the wrong value, both without an error.
The check runs in a child interpreter, because installing the tracer's
wrappers patches the package's modules.

    python3 tests/test_bench_bindings.py

prints the problems found as a JSON list.
"""

import ast
import inspect
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (target, position, name) of every argument a counter in bench/traced.py
# reads; a method's position counts ``self``.
TRACED_ARGS = [
    ("cli.write_json", 0, "path"),
    ("cli.write_states_csv", 0, "path"),
    ("genericity.PairSet.write_csv", 1, "path"),
    ("systems.System.step_many", 1, "pts"),
    ("systems.find_periodic", 0, "sys"),
    ("systems.find_periodic", 1, "n_max"),
    ("core.Observable.evaluate", 1, "x"),
    ("core.Observable.__call__", 1, "x"),
    ("core.PiecewiseAnchor._values", 1, "pts"),
    ("core.sup_distance", 2, "samples"),
    ("delay.delay_vectors", 2, "points"),
    ("genericity.sample_pairs", 2, "count"),
    ("genericity.genericity_monte_carlo", 3, "trials"),
    ("topology.kuhn_vertex_keys", 0, "pts"),
]
# Keywords bench/checks.py passes to methods of instances, which a scan of
# its source cannot resolve.
METHOD_KEYWORDS = [("systems.System.step_many", "check")]


def _classes(cls):
    """``cls`` and all its subclasses."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_classes(sub))
    return out


def _module_attribute(node, modules):
    """The package object an ``a.b.c`` expression names when ``a`` is one of
    ``modules``, as (dotted name, object or None); None when it is not one."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not (isinstance(node, ast.Name) and node.id in modules and parts):
        return None
    obj, dotted = modules[node.id], node.id
    for part in reversed(parts):
        dotted += "." + part
        obj = getattr(obj, part, None)
        if obj is None:
            break
    return dotted, obj


def binding_problems() -> list[str]:
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    import traced

    problems, seen = [], []

    def patch_function(dotted, wrap):
        mod, name = dotted.split(".")
        seen.append(dotted)
        if not callable(getattr(traced.MODULES[mod], name, None)):
            problems.append(f"traced function {dotted} does not exist")

    def patch_method(cls, name, wrap):
        seen.append(f"{cls.__name__}.{name}")
        if not any(name in vars(klass) for klass in _classes(cls)):
            problems.append(f"traced method {cls.__name__}.{name} is defined "
                            "on no class it patches")

    traced.patch_function, traced.patch_method = patch_function, patch_method
    traced.install(traced.Recorder())
    if len(seen) < 20:
        problems.append(f"install patched only {len(seen)} targets")

    def parameters(dotted):
        mod, *path = dotted.split(".")
        obj = traced.MODULES[mod]
        for part in path:
            obj = getattr(obj, part, None)
        return [] if obj is None else list(inspect.signature(obj).parameters)

    for dotted, pos, name in TRACED_ARGS:
        params = parameters(dotted)
        if params[pos:pos + 1] != [name]:
            problems.append(f"{dotted}: argument {pos} is not {name!r} ({params})")
    for dotted, name in METHOD_KEYWORDS:
        if name not in parameters(dotted):
            problems.append(f"{dotted} takes no keyword {name!r}")

    for script in ("traced.py", "checks.py"):
        tree = ast.parse((ROOT / "bench" / script).read_text())
        for node in ast.walk(tree):
            named = _module_attribute(node, traced.MODULES)
            if named is not None and named[1] is None:
                problems.append(f"bench/{script}:{node.lineno}: {named[0]} does not exist")
            if not isinstance(node, ast.Call):
                continue
            named = _module_attribute(node.func, traced.MODULES)
            if (named is None or named[1] is None or None in [kw.arg for kw in node.keywords]
                    or any(isinstance(a, ast.Starred) for a in node.args)):
                continue
            try:
                inspect.signature(named[1]).bind(
                    *node.args, **{kw.arg: kw.value for kw in node.keywords})
            except TypeError as exc:
                problems.append(f"bench/{script}:{node.lineno}: {named[0]}: {exc}")
    return problems


def test_bench_targets_and_arguments_exist():
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


if __name__ == "__main__":
    print(json.dumps(binding_problems()))
