"""The claim runner of ``octet.checks``: its failure paths, and the shape of
the module, which names claims and leaves the computing to the domain
modules."""

import ast
import json
from pathlib import Path

import pytest

from octet import checks, cli, f2geom
from octet.checks import RunConfig

GOLDEN_REPORT = Path(__file__).parent / "golden" / "verify_all_seed42.jsonl"


def test_a_wrong_claim_fails_exactly_its_line(monkeypatch, capsys):
    monkeypatch.setattr(f2geom, "group_order", lambda: 40319)
    assert cli.cmd_verify(cli.build_parser().parse_args(["verify", "all"])) == 1
    got = capsys.readouterr().out.splitlines()
    want = GOLDEN_REPORT.read_text().splitlines()
    assert len(got) == len(want)
    differing = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(differing) == 1
    line, golden_line = differing[0]
    assert json.loads(line) == dict(json.loads(golden_line), status="fail", actual=40319)
    assert json.loads(line)["name"] == "f2.group_order"
    assert [json.loads(g)["status"] for g in got].count("fail") == 1


def test_the_tolerance_claim_fails_above_its_tolerance():
    reports = checks.run_suite("qseries", RunConfig(tolerance="1e-20"))
    failed = [r for r in reports if r.status == "fail"]
    assert [r.name for r in failed] == ["qseries.inversion_equations_numeric"]
    assert failed[0].tolerance == "1e-20"
    assert not checks.all_passed(reports)


def test_seed_7_passes_every_golden_line():
    reports = checks.run_suite("all", RunConfig(seed=7))
    want = [json.loads(line)["name"] for line in GOLDEN_REPORT.read_text().splitlines()]
    assert len(want) == 62
    assert [r.name for r in reports] == want
    assert [r.name for r in reports if r.status != "pass"] == []


def test_run_config_refuses_a_nonsensical_tolerance():
    for tolerance in ("-1", "0", "nan", "inf", "abc"):
        with pytest.raises(ValueError, match="tolerance"):
            RunConfig(tolerance=tolerance)
    assert RunConfig(tolerance="1e-8").tolerance == "1e-8"


def test_run_config_refuses_fewer_samples_than_the_quadric_search_needs():
    from octet import tableaux
    # checks holds the bound as a literal, so that it imports no domain module
    assert checks.MIN_SAMPLES == len(tableaux.degree_monomials(2)) + 5
    message = "need at least 110 samples for 105 monomials"
    with pytest.raises(ValueError, match=message):
        RunConfig(sample_count=checks.MIN_SAMPLES - 1)
    with pytest.raises(ValueError, match=message):
        tableaux.relation_discovery(2, checks.MIN_SAMPLES - 1)
    reports = checks.run_suite("tableaux", RunConfig(sample_count=checks.MIN_SAMPLES))
    assert [r.status for r in reports] == ["pass"] * 12


def test_run_config_and_reports_are_immutable_values():
    cfg = RunConfig(seed=7, box_bound=2)
    with pytest.raises(AttributeError):
        cfg.seed = 8
    with pytest.raises(AttributeError):
        cfg.extra = 1
    assert cfg == RunConfig(7, 20, 300, 2, "1e-9") and hash(cfg) == hash(RunConfig(7, box_bound=2))
    assert cfg != RunConfig(seed=8, box_bound=2)
    assert RunConfig() == RunConfig(**{}) and hash(RunConfig()) == hash(RunConfig())
    for fields in ({"box_bound": 16}, {"series_order": 2}, {"tolerance": "0"}):
        with pytest.raises(ValueError):
            RunConfig(**fields)
    # a report hashes when its values do, as f2.group_order's integers
    report = next(r for r in checks.run_suite("f2", cfg) if r.name == "f2.group_order")
    with pytest.raises(AttributeError):
        report.status = "fail"
    rebuilt = checks.CheckReport(*report)
    assert report == rebuilt and hash(report) == hash(rebuilt)
    assert report.tolerance is None


def test_checks_module_only_wires_claims():
    tree = ast.parse(Path(checks.__file__).read_text())
    nodes = list(ast.walk(tree))
    imported = {alias.name for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    imported |= {node.module for node in nodes if isinstance(node, ast.ImportFrom) and node.module}
    assert not {name for name in imported if name.split(".")[0] == "numpy"}
    assert not [node for node in nodes if isinstance(node, (ast.For, ast.AsyncFor, ast.While))]
    constructed = [node for node in nodes if isinstance(node, ast.Call)
                   and "CheckReport" in (getattr(node.func, "id", None),
                                         getattr(node.func, "attr", None))]
    assert len(constructed) == 1


def test_verify_all_multiplies_no_action_matrix_and_eliminates_no_summed_gram(monkeypatch):
    """Work counts of ``run_suite("all")``, run cold: ``equivariance_check``
    calls no ``linalg.matmul``; ``table1_checks`` eliminates and
    Smith-reduces each of the 9 atoms once and no Gram matrix wider than 10
    columns (D10); ``quadric_closure`` feeds 1 + 7 * 14 rows, those of the
    per-call pull-back."""
    import oracles
    from octet import lattices, linalg, tableaux

    for module in (lattices, tableaux):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    inside, products, widths, fed = [], [], {"minors": [], "smith": []}, []

    def entered(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(module, name, wrapper)

    def recorded(module, name, log):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: log(args) or fn(*args))

    for name in ("equivariance_check", "quadric_closure"):
        entered(tableaux, name)
    entered(lattices, "table1_checks")
    matmul = linalg.matmul
    for module in (linalg, tableaux, lattices):
        if getattr(module, "matmul", None) is matmul:
            recorded(module, "matmul", lambda args: products.append(tuple(inside)))
    recorded(lattices, "_leading_minors", lambda args: "table1_checks" in inside
             and widths["minors"].append(len(args[0])))
    recorded(lattices, "smith_normal_form", lambda args: "table1_checks" in inside
             and widths["smith"].append(len(args[0][0])))
    recorded(linalg.EchelonForm, "add_row", lambda args: "quadric_closure" in inside
             and fed.append(list(args[1])))
    assert checks.all_passed(checks.run_suite("all"))
    monkeypatch.undo()
    assert products and not [p for p in products if "equivariance_check" in p]
    assert len(widths["minors"]) == len(widths["smith"]) == 9
    assert max(widths["minors"] + widths["smith"]) == 10
    assert len(fed) == 1 + 7 * 14 and fed == oracles.quadric_closure_rows()
