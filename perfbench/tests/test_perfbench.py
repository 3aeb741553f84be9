"""Tests of the benchmark's own pieces.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

import run  # noqa: E402
import tracer  # noqa: E402

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_summary_median_quartiles_p90():
    stats = run.summary([5, 1, 4, 2, 3])
    assert stats == {"median": 3, "q1": 1.5, "q3": 4.5, "p90": 5.4}
    assert run.summary([7.5]) == {"median": 7.5, "q1": 7.5, "q3": 7.5, "p90": 7.5}
    hundred = run.summary(range(1, 101))
    assert hundred["median"] == 50.5
    assert (hundred["q1"], hundred["q3"]) == (25.25, 75.75)
    assert hundred["p90"] == pytest.approx(90.9)  # ten values lie beyond it


def test_self_times_subtract_nested_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["child", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["child", 5.0, 6.0, 0],
        ["other", 12.0, 13.0, -1],
    ]
    out = tracer.self_times(spans)
    assert out["root"] == (6.0, 1)
    assert out["child"] == (3.0, 2)
    assert out["leaf"] == (1.0, 1)
    assert out["other"] == (1.0, 1)
    assert sum(s for s, _ in out.values()) == 11.0  # the two roots' extent


def test_self_times_clip_and_merge_overlapping_children():
    spans = [["root", 0.0, 10.0, -1], ["a", 2.0, 6.0, 0], ["b", 4.0, 12.0, 0]]
    assert tracer.self_times(spans)["root"] == (2.0, 1)


def test_recorder_nests_and_counts():
    ticks = iter(range(100))
    rec = tracer.Recorder(clock=lambda: float(next(ticks)))

    def inner(x):
        return x > 0

    wrapped = rec.wrap(inner, "linalg.add_row")
    with rec.span("outer"):
        assert wrapped(1) is True
        assert wrapped(0) is False
    assert [s[0] for s in rec.spans] == ["outer", "linalg.add_row", "linalg.add_row"]
    assert [s[3] for s in rec.spans] == [-1, 0, 0]
    assert rec.counts == {"linalg.rows_pivoted": 1}


def test_missing_target_is_reported_absent_not_zero(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    rec = tracer.Recorder()
    targets = (
        ("demo.gone", "octet.sampling", "no_such_function"),
        ("demo.moved", "octet.sampling", "no_such_function"),
        ("demo.moved", "octet.sampling", "SplitMix64.below"),
    )
    absent = tracer.install(rec, targets)
    try:
        assert set(absent) == {"demo.gone"}
        assert "no_such_function" in absent["demo.gone"]
    finally:
        from octet import sampling
        sampling.SplitMix64.below = sampling.SplitMix64.below.__wrapped__
    trace = run.merge_traces([{"layers": {}, "counts": {}, "absent": absent}])
    assert run.layer_metric(trace, ("self", "demo.gone")) == (None, absent["demo.gone"])
    assert run.layer_metric(trace, ("calls", "demo.moved")) == (0, None)


def test_counter_that_no_longer_fits_is_absent():
    trace = {"layers": {"qseries.mul": [1.0, 3]}, "absent": {},
             "counts": {"qseries.mul_terms.unreadable": 3}}
    value, reason = run.layer_metric(trace, ("count", "qseries.mul_terms"))
    assert value is None and "qseries.mul_terms" in reason


def test_pivot_ratio():
    trace = {"layers": {"linalg.add_row": [0.5, 8]}, "absent": {},
             "counts": {"linalg.rows_pivoted": 2}}
    source = run.PER_LAYER["linalg.pivot_ratio"][1]
    assert run.layer_metric(trace, source) == (0.25, None)


def test_mix_is_seeded_and_fixed_in_composition():
    calls = run.mix_calls(7)
    assert calls == run.mix_calls(7)
    assert calls != run.mix_calls(8)
    assert len(calls) == 100
    kinds = [argv[1] for argv in calls]
    assert kinds.count("group") == dict(run.MIX)["group"]
    orders = sorted(int(argv[3]) for argv in calls if argv[1] == "hseries")
    assert orders == list(run.MIX_HSERIES_ORDERS)


def test_singular_generators_span_a_singular_subspace():
    import random

    rng = random.Random(3)
    for _ in range(50):
        gens = run.singular_generators(rng)
        assert not any(run._b(u, v) for u in gens for v in gens)
        assert any(run._q(g) for g in gens)


def _tiny(monkeypatch, units):
    monkeypatch.setattr(run, "workload_units", lambda workload, seed: units)


def _parse_ok(code, out):
    return code == 0 and isinstance(json.loads(out), dict)


def test_smoke_hseries_deep_tiny(monkeypatch):
    _tiny(monkeypatch, [(["compute", "hseries", "--order", "5"], _parse_ok)])
    tally = run.Tally()
    values = run.measure("hseries-deep", 42, 0.0, tally)
    assert tally.attempted == run.MIN_UNITS["hseries-deep"] and tally.failed == 0
    assert set(values) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in values.values())
    assert tally.diagnostics["raw_wall_s"] > 0 and tally.diagnostics["probe_s"] > 0
    metrics = run.measure_traced("hseries-deep", 42, tally)
    assert tally.failed == 0 and not tally.notes
    assert metrics["qseries.mul_terms"]["value"] > 0
    assert metrics["qseries.h_components_s"]["value"] > 0
    assert metrics["linalg.rows_fed"]["value"] == 0
    assert set(metrics) == set(run.PER_LAYER) | {"process.cpu_s", "trace.overhead_frac"}


def test_smoke_compute_mix_three_calls(monkeypatch):
    check_one = run.check_mix()
    calls = run.mix_calls(run.DEFAULT_SEED)[:3]
    _tiny(monkeypatch, [(argv, check_one(argv)) for argv in calls])
    tally = run.Tally()
    values = run.measure("compute-mix", run.DEFAULT_SEED, 0.0, tally)
    assert (tally.attempted, tally.failed) == (3, 0)
    assert set(values) == set(run.END_TO_END_UNITS) | set(run.CALL_UNITS)
    run.measure_traced("compute-mix", run.DEFAULT_SEED, tally)
    assert (tally.attempted, tally.failed) == (9, 0)


def test_smoke_verify_one_suite_traced(monkeypatch):
    _tiny(monkeypatch, [(["verify", "qseries"], lambda code, out: code == 0 and out.count(b"\n") == 9)])
    tally = run.Tally()
    metrics = run.measure_traced("verify-all", 42, tally)
    assert tally.failed == 0 and not tally.notes
    assert metrics["suite.qseries_s"]["value"] > 0
    assert metrics["suite.tableaux_s"]["value"] == 0


def test_wrong_output_counts_as_failed(monkeypatch):
    _tiny(monkeypatch, [(["compute", "group"], lambda code, out: False)])
    tally = run.Tally()
    values = run.measure("compute-mix", 42, 0.0, tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert values["ok_frac"] == 0.0


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "hseries-deep", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_child_past_its_deadline_is_killed():
    import time

    start = time.perf_counter()
    child = run.run_child(["-c", "import time; time.sleep(60)"], start + 0.5)
    assert child.code != 0
    assert time.perf_counter() - start < 10
