"""Command-line front end: verification suites and individual computations.

``octet verify <selector>`` runs a suite and writes one JSON object per check
(exit code 0 when everything passes, 1 otherwise); ``octet compute <command>``
emits a single JSON document.  The OCTET_REPORT_DIR environment variable
redirects relative output paths.  At import this module loads no other
module of the package: ``verify`` imports ``checks``, each command imports
the domain modules it uses, and each ``verify`` suite its own, so
``compute hseries`` loads ``qseries`` and nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import SELECTORS


def _frac_str(x: Fraction) -> str:
    try:
        return "%d/%d" % (x.numerator, x.denominator)
    except ValueError:  # Python's digit limit on int output, which no exponent guard bounds
        raise ValueError("an output value has more than %d digits in its numerator or "
                         "denominator, the limit of integer output"
                         % sys.get_int_max_str_digits()) from None


@contextmanager
def _output(out: str | None):
    """stdout, or the ``--out`` file opened on entry, so that a bad path fails at once.
    A relative path is taken below OCTET_REPORT_DIR when that is set."""
    if out is None:
        yield sys.stdout
        return
    path = os.path.join(os.environ.get("OCTET_REPORT_DIR", ""), out)
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fh = open(path, "w")
    except OSError as exc:
        raise ValueError("cannot write %r: %s" % (path, exc.strerror)) from None
    with fh:
        yield fh


def _config_from_args(args):
    from .checks import RunConfig
    return RunConfig(
        seed=args.seed,
        series_order=args.order,
        sample_count=args.samples,
        box_bound=args.bound,
        tolerance=args.tolerance,
    )


def _tolerance(text: str) -> str:
    """The --tolerance flag as typed, once ``RunConfig`` accepts it."""
    from .checks import RunConfig
    try:
        return RunConfig(tolerance=text).tolerance
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed(text: str) -> int:
    """The --seed flag, once the sampler accepts it."""
    from .sampling import checked_seed
    try:
        return checked_seed(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=str, default=None,
                        help="output file (relative paths honor OCTET_REPORT_DIR)")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """The RunConfig fields, for ``verify``."""
    parser.add_argument("--seed", type=_seed, default=42)
    parser.add_argument("--order", type=int, default=20)
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--bound", type=int, default=3)
    parser.add_argument("--tolerance", type=_tolerance, default="1e-9")
    _add_out_flag(parser)


def cmd_verify(args) -> int:
    from . import checks
    cfg = _config_from_args(args)
    with _output(args.out) as fh:
        reports = checks.run_suite(args.selector, cfg)
        fh.write(checks.reports_to_jsonl(reports))
    return 0 if checks.all_passed(reports) else 1


# ---------------------------------------------------------------------------
# compute subcommands


def _parse_subspace(args):
    from . import f2geom
    if args.generators is not None:
        gens = args.generators.split(",")
        if not all(g.strip().isdecimal() and int(g) < 64 for g in gens):
            raise ValueError("--generators takes patterns in [0, 64), got %r" % args.generators)
        sub = f2geom.echelon_basis([int(g) for g in gens])
    else:
        singulars = f2geom.enumerate_singular_subspaces()
        if not 0 <= args.index < len(singulars):
            raise ValueError("--index must lie in [0, %d)" % len(singulars))
        sub = singulars[args.index]
    return sub


def compute_fv(args) -> dict:
    from . import f2geom, weil
    sub = _parse_subspace(args)
    vec = weil.singular_vector(sub)
    plane = f2geom.kernel_plane(sub)
    plus, minus = f2geom.isotropic_plane_extensions(plane)
    return {
        "subspace": list(sub),
        "kernel_plane": list(plane),
        "extension_plus": list(plus),
        "extension_minus": list(minus),
        "coordinates": [[i, v] for i, v in enumerate(vec) if v],
    }


def compute_subspaces(args) -> dict:
    from . import f2geom
    if args.singular:
        subs = f2geom.enumerate_singular_subspaces()
        kind = "singular"
    else:
        subs = f2geom.enumerate_isotropic_subspaces(args.dim)
        kind = "isotropic"
    return {"kind": kind, "dimension": args.dim if not args.singular else 3,
            "count": len(subs), "bases": [list(s) for s in subs]}


def compute_hseries(args) -> dict:
    from . import qseries
    comps = qseries.h_components(args.order)
    return {"order": args.order,
            "h00": qseries.serialize_series(comps.h00),
            "h0": qseries.serialize_series(comps.h0),
            "h1": qseries.serialize_series(comps.h1)}


# the default digit limit of int(), which a JSON integer literal meets too
MAX_DECIMAL_EXPONENT = 4300


def _bounded_number(text: str) -> str:
    """The text of a number, once no run of its digits passes Python's digit
    limit on int input and its decimal exponent, if it has one, lies within
    ``MAX_DECIMAL_EXPONENT``: so that Fraction never builds 10**exponent for a
    huge one.  Text that is no number is left for Fraction to refuse."""
    limit = sys.get_int_max_str_digits()
    if limit and max(map(len, re.findall(r"\d+", text)), default=0) > limit:
        raise ValueError("a number has more than %d digits in a row, the limit of integer input"
                         % limit)
    try:
        exponent = int(text.lower().partition("e")[2])
    except ValueError:
        return text
    if abs(exponent) > MAX_DECIMAL_EXPONENT:
        raise ValueError("a decimal exponent must lie within ±%d, got %s"
                         % (MAX_DECIMAL_EXPONENT, text))
    return text


def _exact_decimal(text: str) -> Fraction:
    """A JSON number as an exact Fraction, so that 0.1 is 1/10 and not a
    binary float."""
    return Fraction(_bounded_number(text))


def compute_theta(args) -> dict:
    from . import tableaux
    if args.config:
        try:
            pairs = json.loads(args.config, parse_float=_exact_decimal, parse_int=_exact_decimal)
        except RecursionError:
            raise ValueError("--config nests its lists too deeply") from None
        config = tableaux.parse_config(pairs)
    elif args.affine:
        config = tableaux.affine_config(map(_bounded_number, args.affine.split(",")))
    else:
        raise ValueError("compute theta needs --config or --affine")
    try:
        coords = tableaux.theta_map(config)
    except tableaux.UnstableConfiguration:
        return {"unstable": True, "coordinates": None}
    return {"unstable": False, "coordinates": [_frac_str(x) for x in coords]}


def compute_relations(args) -> dict:
    from . import tableaux
    rel = tableaux.relation_discovery(args.degree, args.samples, args.seed)
    basis = [
        [[list(mono), _frac_str(coeff)]
         for mono, coeff in zip(rel["monomials"], vec) if coeff]
        for vec in rel["basis"]
    ]
    return {"degree": rel["degree"], "monomial_count": rel["monomial_count"],
            "samples_used": rel["samples_used"], "dimension": rel["dimension"],
            "stable": rel["stable"], "basis": basis}


def compute_group(args) -> dict:
    from . import f2geom
    return {"order": f2geom.group_order(),
            "transvection_generators": len(f2geom.all_transvections()),
            "orbit_sizes": f2geom.orbit_sizes()}


def cmd_compute(args) -> int:
    handlers = {"fv": compute_fv, "subspaces": compute_subspaces,
                "hseries": compute_hseries, "theta": compute_theta,
                "relations": compute_relations, "group": compute_group}
    doc = handlers[args.command](args)
    with _output(args.out) as fh:
        fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octet",
        description="exact verification of the 8-point moduli computations",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("selector", choices=SELECTORS)
    _add_config_flags(verify)
    verify.set_defaults(func=cmd_verify)

    compute = sub.add_parser("compute", help="emit one computed object")
    csub = compute.add_subparsers(dest="command", required=True)

    fv = csub.add_parser("fv", help="signed vector of a totally singular subspace")
    group_sel = fv.add_mutually_exclusive_group()
    group_sel.add_argument("--generators", type=str, default=None,
                           help="comma-separated 6-bit generator patterns")
    group_sel.add_argument("--index", type=int, default=0,
                           help="index into the canonical list of 105")
    _add_out_flag(fv)

    subs = csub.add_parser("subspaces", help="enumerate subspaces")
    subs.add_argument("--singular", action="store_true")
    subs.add_argument("--dim", type=int, default=3, choices=(1, 2, 3))
    _add_out_flag(subs)

    hseries = csub.add_parser("hseries", help="the three component series")
    hseries.add_argument("--order", type=int, default=20)
    _add_out_flag(hseries)

    theta = csub.add_parser("theta", help="standard coordinates of a configuration")
    theta.add_argument("--config", type=str, default=None,
                       help="JSON list of 8 homogeneous coordinate pairs")
    theta.add_argument("--affine", type=str, default=None,
                       help="comma-separated affine coordinates")
    _add_out_flag(theta)

    relations = csub.add_parser("relations", help="exact relation kernel")
    relations.add_argument("--degree", type=int, default=2, choices=(1, 2))
    relations.add_argument("--seed", type=_seed, default=42)
    relations.add_argument("--samples", type=int, default=300)
    _add_out_flag(relations)

    group = csub.add_parser("group", help="orthogonal group summary")
    _add_out_flag(group)

    compute.set_defaults(func=cmd_compute)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
