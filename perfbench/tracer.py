"""Traced runner: one fresh interpreter that wraps octet's layer functions.

Usage (from the repository root, with ``src`` on PYTHONPATH), with the
arguments of the ``octet`` command to trace:

    python3 perfbench/tracer.py compute hseries --order 60
    python3 perfbench/tracer.py verify all --seed 42

``compute`` commands go through ``octet.cli.main``; ``verify`` calls
``checks.run_suite`` once per suite, in the order ``verify all`` uses, under
one span per suite, and emits the same JSONL.

Before calling into the program it replaces the module and class attributes
listed in TARGETS with wrappers that record a span (name, start, end, parent)
per call, plus a few counts.  Spans stay in memory; when the run ends one JSON
document goes to stdout with the program's exit code, its captured output,
the self time and call count of every span name, the counts, and every
target that could not be wrapped, with the reason.  No program file changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time

# (span name, module, attribute path); a later entry with the same span name
# is a fallback location for the same function.
TARGETS = (
    ("cli.main", "octet.cli", "main"),
    ("linalg.add_row", "octet.linalg", "EchelonForm.add_row"),
    ("linalg.contains", "octet.linalg", "EchelonForm.contains"),
    ("linalg.nullspace", "octet.linalg", "EchelonForm.nullspace"),
    ("linalg.solve_right", "octet.linalg", "solve_right"),
    ("f2geom.group_elements", "octet.f2geom", "group_elements"),
    ("f2geom.all_subspaces", "octet.f2geom", "all_subspaces"),
    ("weil.is_invariant", "octet.weil", "is_invariant"),
    ("weil.invariant_subspace", "octet.weil", "invariant_subspace"),
    ("weil.fixed_line_dimension", "octet.weil", "fixed_line_dimension"),
    ("weil.singular_vector", "octet.weil", "singular_vector"),
    ("qseries.h_components", "octet.qseries", "h_components"),
    ("qseries.mul", "octet.qseries", "QSeries.__mul__"),
    ("qseries.inverse", "octet.qseries", "QSeries.inverse"),
    ("qseries.serialize", "octet.qseries", "serialize_series"),
    ("lattices.minus4_vector_scan", "octet.lattices", "minus4_vector_scan"),
    ("lattices.reflection_family", "octet.lattices", "reflection_family_check"),
    ("lattices.reflection_family", "octet.checks", "reflection_family_check"),
    ("lattices.table1_checks", "octet.lattices", "table1_checks"),
    ("lattices.smith_normal_form", "octet.lattices", "smith_normal_form"),
    ("tableaux.relation_discovery", "octet.tableaux", "relation_discovery"),
    ("tableaux.equivariance_check", "octet.tableaux", "equivariance_check"),
    ("tableaux.action_matrix", "octet.tableaux", "action_matrix"),
    ("tableaux.quadric_s8_stable", "octet.tableaux", "quadric_kernel_s8_stable"),
    ("tableaux.mu_function_rank", "octet.tableaux", "mu_function_rank"),
    ("tableaux.straightening_check", "octet.tableaux", "straightening_check"),
    ("tableaux.sample_config", "octet.tableaux", "sample_config"),
    ("tableaux.mu_vector", "octet.tableaux", "mu_vector"),
    ("tableaux.theta_map", "octet.tableaux", "theta_map"),
)


def _mul_terms(args, result):
    left, right = args[0], args[1]
    return len(left.coeffs) * len(right.coeffs)


# span name -> (count name, function of (args, result) giving the increment)
COUNTERS = {
    "linalg.add_row": ("linalg.rows_pivoted", lambda args, result: int(bool(result))),
    "qseries.mul": ("qseries.mul_terms", _mul_terms),
}


class Recorder:
    """Spans as [name, start, end, parent index]; parent -1 marks a root."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, self.clock(), None, parent])

    def exit(self) -> None:
        self.spans[self._stack.pop()][2] = self.clock()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if counter is not None:
                try:
                    self.count(counter[0], counter[1](args, result))
                except (AttributeError, TypeError, IndexError):  # the counter no longer fits the code
                    self.count(counter[0] + ".unreadable")
            return result

        return wrapper


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Self time and call count per span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (the union of the children, clipped to the span).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, tuple[float, int]] = {}
    for idx, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start) - covered, calls + 1)
    return out


def install(recorder: Recorder, targets=TARGETS) -> dict[str, str]:
    """Wrap every target; returns span name -> reason for each one missing."""
    absent: dict[str, str] = {}
    wrapped: set[str] = set()
    for name, module_name, path in targets:
        if name in wrapped:
            continue
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError) as exc:
            absent.setdefault(name, "%s.%s not found (%s)" % (module_name, path, exc))
            continue
        setattr(owner, attr, recorder.wrap(fn, name))
        wrapped.add(name)
        absent.pop(name, None)
    return absent


def _run_suites(recorder: Recorder, argv: list[str]) -> tuple[int, str]:
    """``octet verify SELECTOR ...`` split into one span per suite."""
    from octet import checks, cli

    args = cli.build_parser().parse_args(argv)
    cfg = checks.RunConfig(seed=args.seed, series_order=args.order,
                           sample_count=args.samples, box_bound=args.bound,
                           tolerance=args.tolerance)
    names = [s for s in checks.SELECTORS if s != "all"] if args.selector == "all" else [args.selector]
    reports = []
    for name in names:
        with recorder.span("suite." + name):
            reports.extend(checks.run_suite(name, cfg))
    return (0 if checks.all_passed(reports) else 1), checks.reports_to_jsonl(reports)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    from octet import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def main(argv: list[str]) -> int:
    recorder = Recorder()
    absent = install(recorder)
    if argv[:1] == ["verify"]:
        code, output = _run_suites(recorder, argv)
    else:
        code, output = _run_cli(argv)
    layers = {name: {"self_s": s, "calls": n} for name, (s, n) in self_times(recorder.spans).items()}
    doc = {"exit": code, "output": output, "layers": layers,
           "counts": recorder.counts, "absent": absent}
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
