"""Benchmark for the octet CLI: cold runs in fresh interpreters.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 42 --seconds 20 --trace 0

Workloads (one client, one child process at a time, closed loop):

- ``verify-all``: ``octet verify all --seed SEED``, the certification run.
- ``hseries-deep``: ``octet compute hseries --order 60``, q-series arithmetic.
- ``compute-mix``: 100 seeded single-object ``octet compute`` calls (not
  listed in BENCHMARK.json; see perfbench/README.md).

With ``--trace 0`` the workload is repeated until ``--seconds`` have passed
(at least the minimum count of units) and the end-to-end metrics are
reported.  With ``--trace 1`` one unit runs under perfbench/tracer.py and the
same unit runs untraced; the per-layer metrics and the tracing overhead are
reported.  Times are wall times scaled by a probe timed on the same CPU (see
``probe``).  Every output is checked against perfbench/reference.  The last
line of stdout is the result object; the line before it stamps the
environment.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")
TRACER = os.path.join(HERE, "tracer.py")

DEFAULT_SEED = 42
HSERIES_ORDER = 60
SETUP_STARTS = 11
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
PROBE_INTERVAL_S = 0.05
# nominal probe() time: about its mean while a child runs in a quiet spell on
# the machine the baseline was recorded on (Intel Xeon at 2.1 GHz, Python
# 3.11), so that scaled times read close to that machine's quiet wall times
PROBE_REF_S = 0.00065
MIN_UNITS = {"verify-all": 1, "hseries-deep": 3, "compute-mix": 1}

# compute-mix: fixed call counts per kind, so every seed asks for the same
# amount of work; the seed picks the arguments and the order.
MIX = (("fv-index", 22), ("fv-generators", 12), ("theta-affine", 18),
       ("theta-config", 12), ("subspaces", 12), ("hseries", 11),
       ("relations", 8), ("group", 5))
SUBSPACE_ARGS = (["--dim", "1"], ["--dim", "2"], ["--dim", "3"], ["--singular"])
MIX_HSERIES_ORDERS = range(20, 31)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
# per-call latency percentiles, reported where a run makes at least 100 calls
CALL_UNITS = {"call_p50_s": "s", "call_p90_s": "s"}

# per-layer metric -> (unit, source); sources read the merged trace:
# ("self", span) self time, ("calls", span) call count, ("count", counter),
# ("ratio", counter, span) counter over the span's call count.
PER_LAYER = {
    "suite.f2_s": ("s", ("self", "suite.f2")),
    "suite.weil_s": ("s", ("self", "suite.weil")),
    "suite.qseries_s": ("s", ("self", "suite.qseries")),
    "suite.lattice_s": ("s", ("self", "suite.lattice")),
    "suite.tableaux_s": ("s", ("self", "suite.tableaux")),
    "cli.main_s": ("s", ("self", "cli.main")),
    "linalg.add_row_s": ("s", ("self", "linalg.add_row")),
    "linalg.rows_fed": ("count", ("calls", "linalg.add_row")),
    "linalg.rows_pivoted": ("count", ("count", "linalg.rows_pivoted")),
    "linalg.pivot_ratio": ("ratio", ("ratio", "linalg.rows_pivoted", "linalg.add_row")),
    "linalg.contains_s": ("s", ("self", "linalg.contains")),
    "linalg.nullspace_s": ("s", ("self", "linalg.nullspace")),
    "linalg.solve_right_s": ("s", ("self", "linalg.solve_right")),
    "linalg.solve_right_calls": ("count", ("calls", "linalg.solve_right")),
    "f2geom.group_elements_s": ("s", ("self", "f2geom.group_elements")),
    "f2geom.all_subspaces_s": ("s", ("self", "f2geom.all_subspaces")),
    "weil.is_invariant_s": ("s", ("self", "weil.is_invariant")),
    "weil.is_invariant_calls": ("count", ("calls", "weil.is_invariant")),
    "weil.invariant_subspace_s": ("s", ("self", "weil.invariant_subspace")),
    "weil.fixed_line_dimension_s": ("s", ("self", "weil.fixed_line_dimension")),
    "weil.singular_vector_s": ("s", ("self", "weil.singular_vector")),
    "qseries.h_components_s": ("s", ("self", "qseries.h_components")),
    "qseries.mul_s": ("s", ("self", "qseries.mul")),
    "qseries.mul_terms": ("count", ("count", "qseries.mul_terms")),
    "qseries.inverse_s": ("s", ("self", "qseries.inverse")),
    "qseries.serialize_s": ("s", ("self", "qseries.serialize")),
    "lattices.minus4_vector_scan_s": ("s", ("self", "lattices.minus4_vector_scan")),
    "lattices.reflection_family_s": ("s", ("self", "lattices.reflection_family")),
    "lattices.table1_checks_s": ("s", ("self", "lattices.table1_checks")),
    "lattices.smith_normal_form_s": ("s", ("self", "lattices.smith_normal_form")),
    "tableaux.relation_discovery_s": ("s", ("self", "tableaux.relation_discovery")),
    "tableaux.equivariance_check_s": ("s", ("self", "tableaux.equivariance_check")),
    "tableaux.action_matrix_s": ("s", ("self", "tableaux.action_matrix")),
    "tableaux.action_matrix_calls": ("count", ("calls", "tableaux.action_matrix")),
    "tableaux.quadric_s8_stable_s": ("s", ("self", "tableaux.quadric_s8_stable")),
    "tableaux.mu_function_rank_s": ("s", ("self", "tableaux.mu_function_rank")),
    "tableaux.straightening_check_s": ("s", ("self", "tableaux.straightening_check")),
    "tableaux.configs_sampled": ("count", ("calls", "tableaux.sample_config")),
    "tableaux.mu_vector_calls": ("count", ("calls", "tableaux.mu_vector")),
    "tableaux.theta_map_s": ("s", ("self", "tableaux.theta_map")),
}


# ---------------------------------------------------------------------------
# statistics


def summary(values) -> dict[str, float]:
    """Median, quartiles and 90th percentile, by statistics.quantiles' default
    (exclusive) method, the one the quartile spread of runs is judged by."""
    values = list(values)
    if len(values) == 1:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "p90": v}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "p90": statistics.quantiles(values, n=10)[8]}


# ---------------------------------------------------------------------------
# child processes


def probe() -> float:
    """Time one fixed pure-Python computation of the program's kind.

    A Fraction sum whose denominators grow (big-integer gcds, as in
    elimination) and Fraction-keyed dict updates with small denominators (as
    in series multiplication).  Its time tracks how fast the shared CPU runs
    this kind of code at the moment; ``Child.norm_s`` divides by it.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 81):
        total += Fraction(1, i)
    table: dict[Fraction, Fraction] = {}
    for i in range(40):
        key = Fraction(i % 17, 4)
        table[key] = table.get(key, Fraction(0)) + Fraction(i, 3) * Fraction(2, 5)
    return time.perf_counter() - start


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    rss_mb: float
    cpu_s: float
    probe_s: float  # mean probe() time while the child ran

    @property
    def norm_s(self) -> float:
        """Wall time rescaled to the reference CPU speed (PROBE_REF_S)."""
        return self.wall_s * PROBE_REF_S / self.probe_s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float | None = None) -> Child:
    """Run ``python3 ARGS`` to completion; rusage comes from os.wait4.

    While the child runs, probe() is timed every PROBE_INTERVAL_S in this
    process, which main() pins to the child's CPU.  A child still running at
    ``deadline`` (a time.perf_counter() value) is killed.
    """
    start = time.perf_counter()
    if deadline is None:
        deadline = start + RUN_DEADLINE_S
    proc = subprocess.Popen([sys.executable] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            env=child_env())
    chunks = {proc.stdout: [], proc.stderr: []}
    probes = []
    next_probe = start + PROBE_INTERVAL_S
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            now = time.perf_counter()
            if now >= deadline:
                proc.kill()
            if now >= next_probe:
                probes.append(probe())
                next_probe = now + PROBE_INTERVAL_S
            for key, _ in sel.select(max(0.0, next_probe - time.perf_counter())):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if not probes:
        probes.append(probe())
    return Child(proc.returncode, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
                 wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
                 statistics.fmean(probes))


# ---------------------------------------------------------------------------
# workload inputs, generated here with random.Random so that a change to the
# program cannot change the inputs it is measured on


def _q(x: int) -> int:
    return bin(x & (x >> 1) & 0b010101).count("1") & 1


def _b(x: int, y: int) -> int:
    swapped = ((y & 0b010101) << 1) | ((y >> 1) & 0b010101)
    return bin(x & swapped).count("1") & 1


def singular_generators(rng: random.Random) -> list[int]:
    """Three generators of a 3-dim subspace where b vanishes and q does not."""
    while True:
        gens = [rng.randrange(1, 64) for _ in range(3)]
        span = {0}
        for g in gens:
            span |= {x ^ g for x in span}
        if (len(span) == 8 and not any(_b(u, v) for u in gens for v in gens)
                and any(_q(g) for g in gens)):
            return gens


def _affine_point(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-50, 51), rng.choice((1, 1, 1, 2, 3, 7)))


def mix_calls(seed: int) -> list[list[str]]:
    """The compute-mix sequence: CLI arguments of 100 single-object calls."""
    rng = random.Random(seed)
    kinds = [kind for kind, n in MIX for _ in range(n)]
    rng.shuffle(kinds)
    subspaces = [SUBSPACE_ARGS[i % len(SUBSPACE_ARGS)] for i in range(dict(MIX)["subspaces"])]
    rng.shuffle(subspaces)
    orders = list(MIX_HSERIES_ORDERS)
    rng.shuffle(orders)
    calls = []
    for kind in kinds:
        if kind == "fv-index":
            args = ["fv", "--index", str(rng.randrange(105))]
        elif kind == "fv-generators":
            args = ["fv", "--generators", ",".join(map(str, singular_generators(rng)))]
        elif kind == "theta-affine":
            xs: list[Fraction] = []
            while len(xs) < 8:
                x = _affine_point(rng)
                if x not in xs:
                    xs.append(x)
            args = ["theta", "--affine=" + ",".join(str(x) for x in xs)]
        elif kind == "theta-config":
            pairs = []
            while len(pairs) < 8:
                pair = [rng.randrange(-9, 10), rng.randrange(-9, 10)]
                if pair != [0, 0]:
                    pairs.append(pair)
            args = ["theta", "--config", json.dumps(pairs, separators=(",", ":"))]
        elif kind == "subspaces":
            args = ["subspaces"] + subspaces.pop()
        elif kind == "hseries":
            args = ["hseries", "--order", str(orders.pop())]
        elif kind == "relations":
            args = ["relations", "--degree", "1", "--seed", str(rng.randrange(1, 10**6))]
        else:
            args = ["group"]
        calls.append(["compute"] + args)
    return calls


# ---------------------------------------------------------------------------
# correctness against perfbench/reference


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reference_bytes(name: str) -> bytes:
    with open(os.path.join(REFERENCE, name), "rb") as fh:
        return fh.read()


def check_verify_all(seed: int):
    reference = _reference_bytes("verify_all_seed42.jsonl")
    names = [json.loads(line)["name"] for line in reference.splitlines()]

    def check(code: int, out: bytes) -> bool:
        if code != 0:
            return False
        if seed == DEFAULT_SEED:
            return out == reference
        try:
            docs = [json.loads(line) for line in out.splitlines()]
        except ValueError:
            return False
        return ([d.get("name") for d in docs] == names
                and all(d.get("status") == "pass" for d in docs))

    return check


def check_hseries():
    reference = _reference_bytes("hseries_order%d.json" % HSERIES_ORDER)
    return lambda code, out: code == 0 and out == reference


def check_mix():
    reference = json.loads(_reference_bytes("compute_mix_seed42.json"))

    def check_one(argv: list[str]):
        want = reference.get(" ".join(argv))

        def check(code: int, out: bytes) -> bool:
            if code != 0:
                return False
            if want is not None:
                return _sha256(out) == want
            try:
                return isinstance(json.loads(out), dict)
            except ValueError:
                return False

        return check

    return check_one


def workload_units(workload: str, seed: int) -> list[tuple[list[str], Callable[[int, bytes], bool]]]:
    """One unit of work as a list of (octet CLI argv, output check)."""
    if workload == "verify-all":
        return [(["verify", "all", "--seed", str(seed)], check_verify_all(seed))]
    if workload == "hseries-deep":
        return [(["compute", "hseries", "--order", str(HSERIES_ORDER)], check_hseries())]
    check_one = check_mix()
    return [(argv, check_one(argv)) for argv in mix_calls(seed)]


# ---------------------------------------------------------------------------
# measurement


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy_version,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


class Tally:
    """Per-run bookkeeping: operations attempted and failed, notes for
    stderr, diagnostics for the stamp line, and the time the run must end."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.diagnostics: dict[str, float] = {}
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def record(self, argv: list[str], ok: bool, child: Child) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append("%s -> exit %d: %s" % (
                    " ".join(argv), child.code, child.stderr.decode(errors="replace")[-300:]))


def measure(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    starts = [run_child(["-c", "import octet.cli"], tally.deadline) for _ in range(SETUP_STARTS)]
    for child in starts:
        if child.code != 0:
            tally.notes.append("import octet.cli failed: %s" % child.stderr.decode(errors="replace")[-300:])
    unit = workload_units(workload, seed)
    unit_walls, unit_norms, calls, probes, rss = [], [], [], [], 0.0
    begin = time.perf_counter()
    while len(unit_walls) < MIN_UNITS[workload] or time.perf_counter() - begin < seconds:
        children = []
        for argv, check in unit:
            child = run_child(["-m", "octet.cli"] + argv, tally.deadline)
            tally.record(argv, check(child.code, child.stdout), child)
            children.append(child)
        unit_walls.append(sum(c.wall_s for c in children))
        unit_norms.append(sum(c.norm_s for c in children))
        calls += [c.norm_s for c in children]
        probes += [c.probe_s for c in children]
        rss = max([rss] + [c.rss_mb for c in children])
    values = {
        "wall_s": statistics.median(unit_norms),
        "setup_s": statistics.median(c.norm_s for c in starts),
        "peak_rss_mb": rss,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    if workload == "compute-mix":
        call_stats = summary(calls)
        values["call_p50_s"] = call_stats["median"]
        values["call_p90_s"] = call_stats["p90"]
    tally.diagnostics["raw_wall_s"] = statistics.median(unit_walls)
    tally.diagnostics["raw_setup_s"] = statistics.median(c.wall_s for c in starts)
    tally.diagnostics["probe_s"] = statistics.median(probes)
    return values


def merge_traces(docs: list[dict]) -> dict:
    layers: dict[str, list] = {}
    counts: dict[str, int] = {}
    absent: dict[str, str] = {}
    for doc in docs:
        for name, rec in doc["layers"].items():
            acc = layers.setdefault(name, [0.0, 0])
            acc[0] += rec["self_s"]
            acc[1] += rec["calls"]
        for name, n in doc["counts"].items():
            counts[name] = counts.get(name, 0) + n
        absent.update(doc["absent"])
    return {"layers": layers, "counts": counts, "absent": absent}


def layer_metric(trace: dict, source: tuple):
    """(value, None) or (None, reason) for one per-layer metric source."""
    kind, name = source[0], source[1]
    span = name if kind in ("self", "calls") else source[-1]
    if span in trace["absent"]:
        return None, trace["absent"][span]
    if kind == "self":
        return trace["layers"].get(name, [0.0, 0])[0], None
    if kind == "calls":
        return trace["layers"].get(name, [0.0, 0])[1], None
    if name + ".unreadable" in trace["counts"]:
        return None, "counter %s could not read the call's arguments" % name
    value = trace["counts"].get(name, 0)
    if kind == "count":
        return value, None
    fed = trace["layers"].get(source[2], [0.0, 0])[1]
    return (value / fed if fed else 0.0), None


def measure_traced(workload: str, seed: int, tally: Tally) -> dict:
    unit = workload_units(workload, seed)
    docs, traced_norm, plain_norm, cpu = [], 0.0, 0.0, 0.0
    for argv, check in unit:
        traced = run_child([TRACER] + argv, tally.deadline)
        ok = traced.code == 0
        if ok:
            doc = json.loads(traced.stdout.decode().splitlines()[-1])
            ok = check(doc["exit"], doc["output"].encode())
            self_sum = sum(rec["self_s"] for rec in doc["layers"].values())
            if self_sum > traced.wall_s:
                tally.notes.append("span self times %.3f s exceed traced wall %.3f s"
                                   % (self_sum, traced.wall_s))
                ok = False
            scale = traced.norm_s / traced.wall_s
            for rec in doc["layers"].values():
                rec["self_s"] *= scale
            docs.append(doc)
        tally.record(["trace"] + argv, ok, traced)
        plain = run_child(["-m", "octet.cli"] + argv, tally.deadline)
        tally.record(argv, check(plain.code, plain.stdout), plain)
        traced_norm += traced.norm_s
        plain_norm += plain.norm_s
        cpu += plain.cpu_s
    trace = merge_traces(docs)
    metrics = {}
    for name, (unit_name, source) in PER_LAYER.items():
        value, reason = layer_metric(trace, source)
        metrics[name] = {"value": value, "unit": unit_name}
        if reason is not None:
            metrics[name]["absent"] = reason
    metrics["process.cpu_s"] = {"value": cpu, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": traced_norm / plain_norm - 1.0, "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MIN_UNITS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "octet", "cli.py")):
        print("perfbench: run from the root of an octet checkout (src/octet missing)",
              file=sys.stderr)
        return 2
    env = environment()
    # the probe must run on the CPU the program runs on; children inherit this
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tally = Tally()
    if args.trace:
        metrics = measure_traced(args.workload, args.seed, tally)
    else:
        values = measure(args.workload, args.seed, args.seconds, tally)
        units = {**END_TO_END_UNITS, **CALL_UNITS}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for note in tally.notes:
        print("perfbench: " + note, file=sys.stderr)
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      **tally.diagnostics}))
    correct = tally.failed == 0 and not tally.notes
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
