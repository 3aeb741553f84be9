"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record.py

It writes perfbench/reference/: the default ``octet verify all`` JSONL, the
``compute hseries`` document at the benchmark's order, and the sha256 of the
output of every call in the compute-mix sequence at the default seed.
"""

from __future__ import annotations

import json
import os
import sys

import run


def _octet(argv: list[str]) -> bytes:
    child = run.run_child(["-m", "octet.cli"] + argv)
    if child.code != 0:
        sys.exit("octet %s exited %d: %s" % (" ".join(argv), child.code, child.stderr.decode()))
    return child.stdout


def _write(name: str, data: bytes) -> None:
    with open(os.path.join(run.REFERENCE, name), "wb") as fh:
        fh.write(data)


def main() -> int:
    os.makedirs(run.REFERENCE, exist_ok=True)
    _write("verify_all_seed42.jsonl", _octet(["verify", "all", "--seed", str(run.DEFAULT_SEED)]))
    order = run.HSERIES_ORDER
    _write("hseries_order%d.json" % order, _octet(["compute", "hseries", "--order", str(order)]))
    mix = {" ".join(argv): run._sha256(_octet(argv)) for argv in run.mix_calls(run.DEFAULT_SEED)}
    _write("compute_mix_seed42.json", (json.dumps(mix, indent=1, sort_keys=True) + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
