import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import octet
from octet import checks, cli
from octet.checks import RunConfig


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    # the child imports octet from this checkout, with or without PYTHONPATH set
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=timeout)


def run_cli(*args, env_extra=None, timeout=None):
    return run_python("-m", "octet.cli", *args, env_extra=env_extra, timeout=timeout)


def test_verify_f2_exit_zero():
    proc = run_cli("verify", "f2")
    assert proc.returncode == 0
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert all(doc["status"] == "pass" for doc in lines)
    names = [doc["name"] for doc in lines]
    assert "f2.vector_census" in names


def test_no_assert_guards_a_result_in_src():
    # python -O drops assert statements, and with them any check they make
    asserts = [(path.name, node.lineno) for path in sorted(Path(octet.__file__).parent.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert asserts == []


def test_verify_all_under_python_O_prints_the_golden_report():
    proc = run_python("-O", "-m", "octet.cli", "verify", "all")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (Path(__file__).parent / "golden" / "verify_all_seed42.jsonl").read_text()


def test_verify_unknown_selector_usage_error():
    proc = run_cli("verify", "nonsense")
    assert proc.returncode == 2


def test_verify_lattice_rejects_an_oversized_bound():
    proc = run_cli("verify", "lattice", "--bound", "100")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "bound" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_compute_group():
    proc = run_cli("compute", "group")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc == {"order": 40320, "transvection_generators": 28,
                   "orbit_sizes": [1, 28, 35]}


def test_compute_hseries_head():
    proc = run_cli("compute", "hseries", "--order", "3")
    doc = json.loads(proc.stdout)
    assert doc["h00"]["half_exponent_pairs"][:3] == [
        [0, "56/1"], [2, "896/1"], [4, "8064/1"]]
    assert doc["h1"]["half_exponent_pairs"][0] == [-1, "1/1"]


def test_compute_hseries_refuses_an_order_below_3():
    for order in ("2", "0", "-4"):
        proc = run_cli("compute", "hseries", "--order", order)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (2, "", "error: order must be at least 3\n"), order


def test_compute_hseries_order60_golden():
    # pins the coefficients up to q^(119/2), far past the order-8 golden and
    # past what the numeric inversion check can resolve
    golden = Path(__file__).parent / "golden" / "hseries_order60.json"
    proc = run_cli("compute", "hseries", "--order", "60")
    assert proc.returncode == 0
    assert proc.stdout == golden.read_text()


def test_compute_subspaces_singular():
    proc = run_cli("compute", "subspaces", "--singular")
    doc = json.loads(proc.stdout)
    assert doc["count"] == 105
    assert len(doc["bases"]) == 105


def test_compute_theta():
    proc = run_cli("compute", "theta", "--affine", "1,2,3,4,5,6,7,8")
    doc = json.loads(proc.stdout)
    assert doc["unstable"] is False
    assert len(doc["coordinates"]) == 14
    assert doc["coordinates"][0] == "1/1"
    pairs = [["1", "1"]] * 5 + [["1", "6"], ["1", "7"], ["1", "8"]]
    proc = run_cli("compute", "theta", "--config", json.dumps(pairs))
    doc = json.loads(proc.stdout)
    assert doc["unstable"] is True


def test_compute_misuse_exits_2_with_message():
    for args in (["fv", "--index", "200"], ["fv", "--index", "-1"], ["theta"],
                 ["theta", "--affine", "1,2"], ["theta", "--affine", "1,2,3,4,5,6,7,8,9"],
                 ["theta", "--config", "[1,2,3,4,5,6,7,8]"],
                 # 67 has bit 6 set; an empty list must not fall back to --index 0
                 ["fv", "--generators", "67,12,48"], ["fv", "--generators="],
                 ["fv", "--generators", "3,x,48"], ["fv", "--generators=-3,12,48"],
                 # nesting deeper than the JSON decoder's recursion limit
                 ["theta", "--config", "[" * 1000]):
        proc = run_cli("compute", *args)
        assert proc.returncode == 2, args
        assert proc.stderr.startswith("error: "), args
        assert "Traceback" not in proc.stderr and proc.stdout == "", args
    # a JSON boolean is not read as 1 or 0, and NaN fails like any other
    # coordinate that is not a rational number
    rest = ",[0,1],[1,1],[1,2],[1,3],[1,4],[1,5],[1,6]]"
    for first in ("[true,0]", "[0,false]", "[NaN,1]", "[Infinity,1]", '["x",1]'):
        proc = run_cli("compute", "theta", "--config", "[" + first + rest)
        assert proc.returncode == 2, first
        assert proc.stderr.startswith("error: coordinates must be rational numbers ("), first
        assert "Traceback" not in proc.stderr and proc.stdout == "", first
    assert run_cli("compute", "theta", "--config", "[[1,0]" + rest).returncode == 0
    # a JSON integer literal, or an affine coordinate, beyond Python's digit
    # limit on int input
    big = "1" + "0" * 4300
    for flag, value in (("--config", "[[1," + big + "]" + rest),
                        ("--affine", big + ",2,3,4,5,6,7,8")):
        proc = run_cli("compute", "theta", flag, value)
        assert (proc.returncode, proc.stdout) == (2, ""), flag
        assert proc.stderr == ("error: a number has more than 4300 digits in a row, "
                               "the limit of integer input\n"), flag
    # 4,300 digits are read, and then only the output limit refuses them
    proc = run_cli("compute", "theta", "--config", "[[1," + big[:4300] + "]" + rest)
    assert proc.stderr.startswith("error: an output value has more than 4300 digits"), proc.stderr


def test_compute_theta_reads_json_decimals_exactly(capsys):
    rest = ",[0,1],[1,1],[1,2],[1,3],[1,4],[1,5],[1,6]]"

    def theta(first):
        code = cli.main(["compute", "theta", "--config", "[" + first + rest])
        out, err = capsys.readouterr()
        return code, out, err

    exact = theta('["1/10",1]')
    assert exact[0] == 0 and json.loads(exact[1])["unstable"] is False
    assert theta("[0.1,1]") == theta("[1e-1,1]") == theta("[10E-2,1]") == exact
    for first in ("[NaN,1]", "[Infinity,1]", "[-Infinity,1]"):
        code, out, err = theta(first)
        assert code == 2 and out == "", first
        assert err.startswith("error: coordinates must be rational numbers ("), first
    # refused before 10**exponent is built
    code, out, err = theta("[1e999999999,1]")
    assert (code, out) == (2, "")
    assert err == "error: a decimal exponent must lie within ±4300, got 1e999999999\n"


def test_compute_theta_affine_refuses_a_huge_exponent_at_once():
    # without the guard, Fraction builds 10**50000000 and runs for minutes
    start = time.monotonic()
    proc = run_cli("compute", "theta", "--affine", "1e50000000,2,3,4,5,6,7,8", timeout=20)
    assert time.monotonic() - start < 5
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: a decimal exponent must lie within ±4300, got 1e50000000\n"
    # what is no number at all still reaches parse_config's message
    for first in ("1/0", "a", "1ex"):
        proc = run_cli("compute", "theta", "--affine", first + ",2,3,4,5,6,7,8", timeout=20)
        assert (proc.returncode, proc.stdout) == (2, ""), first
        assert proc.stderr.startswith("error: coordinates must be rational numbers ("), first
    proc = run_cli("compute", "theta", "--affine", "1e-2,2,3,4,5,6,7,8", timeout=20)
    assert proc.returncode == 0 and json.loads(proc.stdout)["unstable"] is False


def test_compute_theta_refuses_an_output_beyond_the_digit_limit():
    # 10**4300 passes the exponent guard, but a coordinate with its digits
    # cannot be printed under Python's default limit of 4300 digits
    message = ("error: an output value has more than 4300 digits in its numerator or "
               "denominator, the limit of integer output\n")
    points = ",".join("[1,%d]" % x for x in range(2, 9))
    for args in (["--affine", "1e4300,2,3,4,5,6,7,8"], ["--config", "[[1e4300,1],%s]" % points]):
        proc = run_cli("compute", "theta", *args, timeout=20)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message), args
    proc = run_cli("compute", "theta", "--affine", "1e1000,2,3,4,5,6,7,8", timeout=20)
    assert proc.returncode == 0, proc.stderr
    coordinates = json.loads(proc.stdout)["coordinates"]
    assert max(len(c) for c in coordinates) > 1000


def test_compute_rejects_flags_it_does_not_read():
    for args in (["group", "--seed", "3"], ["fv", "--order", "5"]):
        proc = run_cli("compute", *args)
        assert proc.returncode == 2, args
        assert "usage:" in proc.stderr, args
    proc = run_cli("compute", "relations", "--degree", "1", "--seed", "5", "--samples", "40")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["degree"] == 1


@pytest.mark.parametrize("degree", [1, 2])
def test_compute_relations_golden(degree):
    # recorded from the sampled elimination that the polynomial kernel replaced
    golden = Path(__file__).parent / "golden" / ("relations_degree%d.json" % degree)
    proc = run_cli("compute", "relations", "--degree", str(degree))
    assert proc.returncode == 0
    assert proc.stdout == golden.read_text()


def test_compute_relations_offers_certified_degrees_only():
    for degree in ("3", "4"):
        proc = run_cli("compute", "relations", "--degree", degree)
        assert proc.returncode == 2, degree
        assert "usage:" in proc.stderr and "invalid choice" in proc.stderr, degree


def test_compute_fv():
    proc = run_cli("compute", "fv", "--index", "0")
    doc = json.loads(proc.stdout)
    assert len(doc["coordinates"]) == 8
    assert sorted(v for _, v in doc["coordinates"]) == [-1] * 4 + [1] * 4


def test_report_dir_env(tmp_path):
    proc = run_cli("verify", "qseries", "--out", "report.jsonl",
                   env_extra={"OCTET_REPORT_DIR": str(tmp_path)})
    assert proc.returncode == 0
    out = tmp_path / "report.jsonl"
    assert out.exists()
    lines = out.read_text().splitlines()
    assert all(json.loads(line)["status"] == "pass" for line in lines)


def test_out_flag_absolute(tmp_path):
    target = tmp_path / "sub" / "r.jsonl"
    proc = run_cli("verify", "f2", "--out", str(target))
    assert proc.returncode == 0
    assert target.exists()


def test_tolerance_field_only_on_numeric_checks():
    reports = checks.run_suite("qseries", RunConfig())
    with_tol = [r for r in reports if r.tolerance is not None]
    assert [r.name for r in with_tol] == ["qseries.inversion_equations_numeric"]
    for selector in ("f2", "weil", "lattice"):
        for report in checks.run_suite(selector, RunConfig()):
            assert report.tolerance is None


def test_cross_process_determinism():
    first = run_cli("verify", "qseries")
    second = run_cli("verify", "qseries")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_zero_denominator_exits_2_with_message():
    config = [["1/0", 1]] + [[1, x] for x in range(7)]
    for args in (["--affine", "1/0,2,3,4,5,6,7,8"], ["--config", json.dumps(config)]):
        proc = run_cli("compute", "theta", *args)
        assert proc.returncode == 2, args
        assert proc.stderr.startswith("error: "), args
        assert "Traceback" not in proc.stderr, args


def test_unwritable_out_exits_2_with_message(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in ("", str(blocker / "group.json"), str(blocker / "sub" / "group.json")):
        proc = run_cli("compute", "group", "--out", out)
        assert proc.returncode == 2, out
        assert proc.stderr.startswith("error: cannot write "), out
        assert "Traceback" not in proc.stderr, out
    assert blocker.read_text() == ""


def test_verify_rejects_a_nonsensical_tolerance_before_running():
    for tolerance in ("-1", "0", "nan", "inf", "-inf", "abc"):
        proc = run_cli("verify", "all", "--tolerance", tolerance)
        assert proc.returncode == 2, tolerance
        assert "--tolerance" in proc.stderr and "Traceback" not in proc.stderr, tolerance
        assert proc.stdout == "", tolerance
    proc = run_cli("verify", "qseries", "--tolerance", "1e-8")
    assert proc.returncode == 0
    assert '"tolerance":"1e-8"' in proc.stdout


def test_verify_out_fails_before_any_suite_runs(monkeypatch, capsys):
    def run_suite(*args):
        raise AssertionError("a suite ran before --out was opened")

    monkeypatch.setattr(checks, "run_suite", run_suite)
    assert cli.main(["verify", "all", "--out", ""]) == 2
    assert capsys.readouterr().err == "error: cannot write '': No such file or directory\n"


def test_verify_refuses_a_bound_or_order_before_any_suite_runs(monkeypatch, capsys):
    def run_suite(*args):
        raise AssertionError("a suite ran before the run configuration was checked")

    monkeypatch.setattr(checks, "run_suite", run_suite)
    for argv, message in ((["verify", "all", "--bound", "16"], "bound must lie in [2, 15], got 16"),
                          (["verify", "f2", "--bound", "16"], "bound must lie in [2, 15], got 16"),
                          (["verify", "lattice", "--bound", "1"], "bound must lie in [2, 15], got 1"),
                          (["verify", "all", "--order", "2"], "order must be at least 3, got 2"),
                          (["verify", "all", "--samples", "109"],
                           "need at least 110 samples for 105 monomials")):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr() == ("", "error: %s\n" % message), argv
    for field, value in (("box_bound", 16), ("box_bound", 1), ("series_order", 2),
                         ("sample_count", 109)):
        with pytest.raises(ValueError):
            RunConfig(**{field: value})
    assert (RunConfig(box_bound=2, series_order=3).box_bound, RunConfig(box_bound=15).box_bound) \
        == (2, 15)
    assert RunConfig(sample_count=110).sample_count == 110


# modules that ``cli`` imports where a command first uses them, and numpy,
# which no command loads: a command that needs none of them must not load them
HEAVY = ("numpy", "octet.weil", "octet.linalg", "octet.lattices", "octet.tableaux")
_LOADED = """
import contextlib, io, sys
import octet.cli
heavy, argvs = %r, %r
loaded = [sorted(m for m in heavy if m in sys.modules)]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in argvs:
        assert octet.cli.main(argv) == 0, argv
        loaded.append(sorted(m for m in heavy if m in sys.modules))
print(loaded)
"""


def _modules_loaded(*argvs, watched=HEAVY):
    """The watched modules loaded after ``import octet.cli`` and after each
    command, in one fresh interpreter (pytest itself has numpy loaded)."""
    proc = run_python("-c", _LOADED % (watched, argvs))
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_numpy_free_commands_load_no_numpy_backed_module():
    assert _modules_loaded(["compute", "hseries", "--order", "8"],
                           ["compute", "subspaces", "--singular"],
                           ["compute", "group"], ["verify", "f2"]) == [[], [], [], [], []]


def test_verify_qseries_loads_weil_and_no_numpy():
    # positive control: the probe sees a module once a command imports it
    loaded = _modules_loaded(["verify", "qseries"])
    assert loaded[0] == []
    assert "octet.weil" in loaded[1] and "numpy" not in loaded[1]


def test_no_command_loads_numpy():
    loaded = _modules_loaded(["verify", "all"], ["compute", "fv"], ["compute", "subspaces"],
                             ["compute", "hseries", "--order", "8"],
                             ["compute", "theta", "--affine", "1,2,3,4,5,6,7,8"],
                             ["compute", "relations", "--degree", "1"], ["compute", "group"])
    assert "octet.lattices" in loaded[1]  # verify all has run every suite
    assert not [names for names in loaded if "numpy" in names]


# the stdlib modules a dataclass declaration loads, and every module of the package
COLD_WATCHED = ("dataclasses", "inspect") + tuple(sorted(
    "octet." + path.stem for path in Path(octet.__file__).parent.glob("*.py")
    if path.stem != "__init__"))


def test_cold_start_loads_only_what_the_command_runs():
    after_import, after_hseries, after_verify_all = _modules_loaded(
        ["compute", "hseries", "--order", "8"], ["verify", "all"], watched=COLD_WATCHED)
    assert after_import == ["octet.cli"]
    assert after_hseries == ["octet.cli", "octet.qseries"]
    # positive control: the probe sees each domain module once a command imports it
    assert {"octet.f2geom", "octet.qseries", "octet.weil", "octet.linalg", "octet.lattices",
            "octet.tableaux"} <= set(after_verify_all)
    assert not {"dataclasses", "inspect"} & set(after_verify_all)


def test_only_verify_loads_checks():
    """``compute`` commands, ``relations --seed`` with them, load no
    ``checks``; ``verify`` does, and so does its ``--tolerance`` check."""
    loaded = _modules_loaded(["compute", "relations", "--degree", "1", "--seed", "5",
                              "--samples", "40"],
                             ["compute", "theta", "--affine", "1,2,3,4,5,6,7,8"],
                             ["compute", "fv"], ["compute", "subspaces", "--dim", "2"],
                             ["compute", "hseries", "--order", "5"], ["compute", "group"],
                             ["verify", "f2", "--tolerance", "1e-8"],
                             watched=("octet.checks", "octet.sampling"))
    assert loaded[:7] == [[], ["octet.sampling"]] + [["octet.sampling"]] * 5
    assert loaded[7] == ["octet.checks", "octet.sampling"]


def test_selectors_and_the_seed_bound_have_one_definition():
    assert checks.SELECTORS is cli.SELECTORS is octet.SELECTORS
    sources = {path.stem: path.read_text() for path in Path(octet.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items() if "SELECTORS = " in text] == ["__init__"]
    assert [name for name, text in sources.items() if "2**64)" in text] == ["sampling"]


def _src_imports() -> set[str]:
    """Every module name an ``import`` or ``from ... import`` of ``src/octet`` names."""
    imported = set()
    for path in Path(octet.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
    return imported


def test_no_module_imports_numpy():
    imported = _src_imports()
    assert {"fractions", "linalg"} <= imported  # the walk sees absolute and relative imports
    assert not {name for name in imported if name.split(".")[0] == "numpy"}


def test_no_module_imports_dataclasses():
    imported = _src_imports()
    assert "typing" in imported  # the walk sees where the NamedTuple classes come from
    assert "dataclasses" not in imported


def test_seed_outside_64_bits_exits_2_before_running(monkeypatch, capsys):
    # the sampler reads a seed mod 2**64: these would alias --seed 42, or run
    # silently with a negative seed
    def run_suite(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(checks, "run_suite", run_suite)
    for seed in ("18446744073709551658", "-18446744073709551574", "-1", str(2**64)):
        for argv in (["verify", "tableaux", "--seed", seed],
                     ["compute", "relations", "--seed", seed]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            out, err = capsys.readouterr()
            assert exc.value.code == 2 and out == "", argv
            assert err.endswith("error: argument --seed: seed must lie in [0, 2**64), got %s\n"
                                % seed), argv
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\), got -1"):
        RunConfig(seed=-1)
    assert RunConfig(seed=2**64 - 1).seed == 2**64 - 1
