"""The benchmark tracer's targets name functions that exist, and every other
module-level function and class method of ``octet`` has a caller in ``octet``.

A target that no longer resolves is reported absent by the tracer and nulls
its per-layer metric while the run still exits 0, so a rename or deletion of
a traced function must fail here instead.  The tracer is loaded by path and
only read: ``install`` is never called, since it would wrap the functions
for the rest of the session.
"""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import octet

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_targets", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name, path):
    try:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return callable(owner)


def test_every_tracer_target_resolves():
    locations = {}
    for name, module_name, path in _tracer().TARGETS:
        locations.setdefault(name, []).append((module_name, path))
    assert "cli.main" in locations  # the tuple was read
    unresolved = sorted(name for name, where in locations.items()
                        if not any(_resolves(*loc) for loc in where))
    assert unresolved == []


def _names(node):
    """The names a subtree refers to, as bare names or attributes."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _functions(tree):
    """The module-level functions and the class methods of a module; dunder
    methods are left out, since the interpreter calls them implicitly."""
    for node in tree.body:
        for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(fn, ast.FunctionDef) and not (fn.name.startswith("__")
                                                        and fn.name.endswith("__")):
                yield fn


def test_every_module_function_is_called_or_traced():
    trees = [ast.parse(path.read_text()) for path in Path(octet.__file__).parent.glob("*.py")]
    refs = sum(map(_names, trees), Counter())
    uncalled = {fn.name for tree in trees for fn in _functions(tree)
                if refs[fn.name] == _names(fn)[fn.name]}
    traced = {path.split(".")[-1] for _, _, path in _tracer().TARGETS}
    assert sorted(uncalled - traced) == []
    # kept only because the benchmark tracer wraps them
    assert uncalled <= {"group_elements", "solve_right"}
