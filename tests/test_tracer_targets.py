"""The benchmark tracer's targets name functions that exist.

A target that no longer resolves is reported absent by the tracer and nulls
its per-layer metric while the run still exits 0, so a rename or deletion of
a traced function must fail here instead.  The tracer is loaded by path and
only read: ``install`` is never called, since it would wrap the functions
for the rest of the session.
"""

import importlib
import importlib.util
from pathlib import Path

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
