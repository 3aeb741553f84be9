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
import symtable
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


def _scopes(table, path=()):
    """Every symbol table below ``table``, with its path of (name, line)
    pairs from the module down."""
    yield path, table
    for child in table.get_children():
        yield from _scopes(child, path + ((child.get_name(), child.get_lineno()),))


def _bindings(tree, stems):
    """The names a module binds by relative imports: to a module of the
    package, by its stem, and to a name imported from one, as (stem, name)."""
    modules, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module is None and alias.name in stems:
                    modules[bound] = alias.name
                else:
                    imported[bound] = (node.module or "__init__", alias.name)
    return modules, imported


def _references(stem, source, stems):
    """(target, path of the scope that refers to it) for each reference of a
    module.  A bare name counts only where ``symtable`` marks it global or
    free, as the function of that name in this module or the one it was
    imported from: ("function", stem, name).  ``module.name`` counts only
    for that module's function; any other attribute counts for the methods
    of that name: ("method", name)."""
    tree = ast.parse(source)
    modules, imported = _bindings(tree, stems)
    for path, table in _scopes(symtable.symtable(source, stem, "exec")):
        for symbol in table.get_symbols():
            if symbol.is_referenced() and (symbol.is_global() or symbol.is_free()):
                name = symbol.get_name()
                yield ("function",) + imported.get(name, (stem, name)), path

    def visit(node, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            path += ((getattr(node, "name", "lambda"), node.lineno),)
        if isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            yield (("function", modules[owner], node.attr) if owner in modules
                   else ("method", node.attr)), path
        for child in ast.iter_child_nodes(node):
            yield from visit(child, path)
    yield from visit(tree, ())


def _functions(stem, tree):
    """(target, path) of the module-level functions and the class methods of
    a module; dunder methods are left out, since the interpreter calls them
    implicitly."""
    for node in tree.body:
        cls = isinstance(node, ast.ClassDef)
        for fn in node.body if cls else [node]:
            if isinstance(fn, ast.FunctionDef) and not (fn.name.startswith("__")
                                                        and fn.name.endswith("__")):
                path = ((node.name, node.lineno),) if cls else ()
                target = ("method", fn.name) if cls else ("function", stem, fn.name)
                yield target, path + ((fn.name, fn.lineno),)


def _uncalled(sources):
    """The names of the functions and methods of modules, given as stem ->
    source, that no scope outside their own refers to."""
    refs = [ref for stem, source in sources.items()
            for ref in _references(stem, source, sources.keys())]
    return {target[-1] for stem, source in sources.items()
            for target, own in _functions(stem, ast.parse(source))
            if not any(t == target and where[:len(own)] != own for t, where in refs)}


def test_the_guard_is_not_fooled_by_a_name_spelled_elsewhere():
    sources = {
        "m": "def b(x, y):\n    return x\n\n\ndef order():\n    return order()\n\n\n"
             "def f(b):\n    return [b for b in range(b)]\n",
        "n": "from . import m\nfrom .m import f\n\n\nclass Form:\n    def order(self):\n"
             "        return 1\n\n\ndef g():\n    return m.order() + f(1)\n",
    }
    # m.b is spelled only as locals, Form.order only as the function m.order
    # (whose recursion does not count), and g not at all
    assert _uncalled(sources) == {"b", "g", "order"}
    assert "order" not in _uncalled(dict(sources, n=sources["n"] + "print(Form().order())\n"))


def test_every_module_function_is_called_or_traced():
    sources = {path.stem: path.read_text() for path in Path(octet.__file__).parent.glob("*.py")}
    uncalled = _uncalled(sources)
    traced = {path.split(".")[-1] for _, _, path in _tracer().TARGETS}
    assert sorted(uncalled - traced) == []
    # kept only because the benchmark tracer wraps them
    assert uncalled <= {"group_elements", "solve_right"}
