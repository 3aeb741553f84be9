"""Verification suites as named claims, and the one runner that reports them.

A suite yields claims ``(name, provenance, expected, actual)``: a published
or derived value beside the value a domain module computes.  This module
names and wires claims only; the computing, loops included, lives in the
domain modules.  ``_report`` is the one place a claim becomes a
``CheckReport``: it converts both values to JSON-stable primitives and
passes the claim when they are equal.  The numeric inversion claim alone
carries a fifth field, its tolerance, and passes when every value it shows
lies below it.  Identical run configurations give byte-identical reports:
all randomness is seeded through the run configuration and every serialized
container is explicitly ordered.  ``RunConfig`` and ``CheckReport`` are
immutable NamedTuples, and each suite imports its domain modules where it
runs, so that importing this module loads none of them.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from . import SELECTORS
from .sampling import checked_seed

# 5 more than the 105 quadratic monomials, as the degree-2 relation search needs
MIN_SAMPLES = 110


class _RunFields(NamedTuple):
    seed: int = 42
    series_order: int = 20
    sample_count: int = 300
    box_bound: int = 3
    tolerance: str = "1e-9"


class RunConfig(_RunFields):
    """The fields of one run, refused on construction unless they make sense."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        checked_seed(self.seed)
        try:
            valid = 0 < float(self.tolerance) < math.inf
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise ValueError("tolerance must be a finite number > 0, got %r" % (self.tolerance,))
        # refused here, before any suite runs, as the scan and the series refuse them too
        if self.box_bound not in BOX_COUNTS:
            raise ValueError("bound must lie in [%d, %d], got %d"
                             % (min(BOX_COUNTS), max(BOX_COUNTS), self.box_bound))
        if self.series_order < 3:
            raise ValueError("order must be at least 3, got %d" % self.series_order)
        if self.sample_count < MIN_SAMPLES:
            raise ValueError("need at least %d samples for 105 monomials" % MIN_SAMPLES)
        return self


class CheckReport(NamedTuple):
    name: str
    status: str
    expected: object
    actual: object
    provenance: str
    tolerance: str | None = None

    def to_json(self) -> str:
        doc = {"name": self.name, "status": self.status,
               "expected": self.expected, "actual": self.actual,
               "provenance": self.provenance}
        if self.tolerance is not None:
            doc["tolerance"] = self.tolerance
        return json.dumps(doc, separators=(",", ":"), sort_keys=False)


def _report(name, provenance, expected, actual, tolerance=None) -> CheckReport:
    """The report line of a claim, judged on the values it shows."""
    expected, actual = _plain(expected), _plain(actual)
    if tolerance is None:
        passed = expected == actual
    else:
        passed = all(value < float(tolerance) for value in actual.values())
    return CheckReport(name, "pass" if passed else "fail", expected, actual,
                       provenance, tolerance)


def _plain(value):
    """Convert values to JSON-stable primitives (sorted, stringified exacts)."""
    if isinstance(value, Fraction):
        return "%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return dict(sorted((str(_plain(k)), _plain(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, int, float)) or value is None:
        return value
    return str(value)


# ---------------------------------------------------------------------------
# suites


def f2_suite(cfg: RunConfig):
    from . import f2geom
    yield "f2.vector_census", "published", {"00": 1, "0": 35, "1": 28}, f2geom.census()
    yield ("f2.pair_census", "published",
           {"00": {"00": (1, 0), "0": (35, 0), "1": (28, 0)},
            "0": {"00": (1, 0), "0": (19, 16), "1": (12, 16)},
            "1": {"00": (1, 0), "0": (15, 20), "1": (16, 12)}},
           f2geom.pair_census_by_type())
    yield "f2.pair_census_type_constant", "derived", True, f2geom.pair_census_type_constant()
    yield "f2.group_order", "published", 40320, f2geom.group_order()
    yield ("f2.transvection_generators", "published", 28,
           len(set(f2geom.all_transvections())))
    yield ("f2.transvections_are_involutions", "derived", True,
           f2geom.transvections_are_involutions())
    yield "f2.group_preserves_form", "derived", True, f2geom.group_preserves_form()
    yield "f2.orbit_sizes", "published", [1, 28, 35], f2geom.orbit_sizes()
    yield ("f2.isotropic_subspace_counts", "derived", {"1": 35, "2": 105, "3": 30},
           f2geom.isotropic_subspace_counts())
    yield ("f2.singular_subspace_count", "published", 105,
           len(f2geom.enumerate_singular_subspaces()))
    yield "f2.singular_member_split", "published", True, f2geom.singular_member_split()
    yield "f2.plane_extension_pairs", "published", True, f2geom.plane_extension_pairs()
    yield ("f2.enumeration_deterministic", "derived", True,
           f2geom.enumerate_isotropic_subspaces(3) == f2geom.maximal_isotropic_by_extension())


def weil_suite(cfg: RunConfig):
    from . import f2geom, weil
    yield ("weil.traces", "published",
           {"E": Fraction(64), "T": Fraction(8), "S": Fraction(8), "ST": Fraction(1)},
           weil.traces())
    relations = weil.sl2_relations()
    yield "weil.s_squared", "derived", True, relations["s_squared"]
    yield "weil.st_cubed", "derived", True, relations["st_cubed"]
    yield ("weil.character_multiplicities", "published", [15, 7, 21],
           weil.character_decomposition())
    yield "weil.invariant_dimension", "published", 15, len(weil.invariant_subspace())
    yield "weil.isotropic_sums_invariant", "published", True, weil.isotropic_sums_invariant()
    yield ("weil.maximal_isotropic_count", "derived", 30,
           len(f2geom.enumerate_isotropic_subspaces(3)))
    yield ("weil.point_mass_not_invariant", "derived", False,
           weil.is_invariant([1] + [0] * 63))
    yield "weil.antivector_unique", "published", True, weil.antivectors_unique()
    yield "weil.transvections_negate", "published", True, weil.transvections_negate()
    yield "weil.span_dimension", "published", 14, weil.space_w_rank()
    yield "weil.fixed_line_dimension", "published", 1, weil.fixed_line_dimension()
    yield ("weil.triple_difference_identity", "published", 1,
           len(weil.triple_sign_identity(*weil.EXAMPLE_TRIPLE)))
    yield "weil.group_equivariance", "derived", True, weil.commutes_with_transvections()


def qseries_suite(cfg: RunConfig):
    from . import qseries
    order = cfg.series_order
    yield ("qseries.component_heads", "published",
           {"h00": ["56", "896", "8064"], "h0": ["-8", "-128", "-1152"],
            "h1": ["1", "36", "402"]},
           qseries.component_heads(order))
    translation = qseries.verify_T_equations(order)
    yield "qseries.translation_equations", "published", True, translation["ok"]
    yield ("qseries.h00_plus_7h0_zero", "published", True,
           translation["h00_plus_7_h0_is_zero"])
    yield ("qseries.inversion_equations_numeric", "derived", "max residual below tolerance",
           qseries.verify_S_equations_numeric(order=order), cfg.tolerance)
    reduction = qseries.assemble_and_reduce()
    yield ("qseries.mixing_matrix", "published",
           [[Fraction(1, 8), Fraction(35, 8), Fraction(28, 8)],
            [Fraction(1, 8), Fraction(3, 8), Fraction(-4, 8)],
            [Fraction(1, 8), Fraction(-5, 8), Fraction(4, 8)]],
           reduction["mixing_matrix"])
    yield ("qseries.translation_signs", "published",
           [Fraction(1), Fraction(1), Fraction(-1)], reduction["t_signs"])
    yield ("qseries.census_rows_match_mixing", "published",
           [[1, 35, 28], [1, 3, -4], [1, -5, 4]], qseries.mixing_rows_from_pair_census())
    yield ("qseries.lift_bookkeeping", "published",
           {"weight": Fraction(28), "vanishing_order": Fraction(15),
            "quartic_count": Fraction(420), "factorization_ok": True},
           qseries.borcherds_bookkeeping(order))
    yield ("qseries.serialization_roundtrip", "derived", True,
           qseries.serialization_roundtrip(order))


# [norm -2 vectors, norm -4 vectors with half in the dual] of N in the box
# [-bound, bound]^12, per bound; the tests recount every entry by a separate
# convolution over the materialized block boxes
BOX_COUNTS = {
    2: [1625718, 134302], 3: [42737426, 958270],
    4: [462719154, 23496730], 5: [3488206066, 84751546],
    6: [17471007786, 749920866], 7: [74579169158, 1911142818],
    8: [251006694830, 9919710594], 9: [777949949278, 20635412266],
    10: [2061647616742, 77676687622], 11: [5213958683902, 141972600934],
    12: [11723005773262, 427166682366], 13: [25731803250038, 713175098598],
    14: [51692558098950, 1843056181062], 15: [102014623378078, 2869106825078],
}


def lattice_suite(cfg: RunConfig):
    from . import lattices
    form_n = lattices.discriminant_form(lattices.lattice_N())
    form_m = lattices.discriminant_form(lattices.lattice_M())
    yield "lattice.disc_group_orders", "published", [2] * 6, form_n.orders
    yield ("lattice.split_dictionary_found", "published", True,
           len(set(lattices.split_dictionary())) == 64)
    yield ("lattice.complementary_forms", "published", True,
           lattices.find_isomorphism(form_m, form_n.neg()) is not None)
    over = lattices.glued_overlattice()
    yield "lattice.overlattice_determinant", "published", -64, over.det()
    yield ("lattice.overlattice_matches", "published", True,
           lattices.find_isomorphism(lattices.discriminant_form(over), form_m) is not None
           and over.is_even())
    yield "lattice.table1", "published", [True] * 10, lattices.table1_checks()
    yield ("lattice.isometry_fixed_point_free", "published", True,
           lattices.isometry_fixed_point_free())
    yield ("lattice.hermitian_grams", "published", [True, True, True],
           lattices.hermitian_gram_checks())
    yield ("lattice.half_sum_quotient_map", "published",
           dict.fromkeys(("into_dual", "inverse_identity", "rho_trivial_on_quotient",
                          "bijective"), True),
           lattices.phi_map_check())
    yield ("lattice.reflection_identities", "published",
           dict.fromkeys(("pair_equals_composition", "quarter_is_isometry",
                          "quarter_order_4", "quarter_commutes_with_rho",
                          "alpha_is_anisotropic", "induces_transvection",
                          "pair_is_isometry"), True),
           lattices.reflection_identities())
    yield "lattice.reflection_family", "derived", True, lattices.reflection_family_check()
    inclusions, counts = lattices.minus4_vector_scan(cfg.box_bound)
    yield ("lattice.norm_minus4_correspondence", "published",
           {"forward": True, "converse": True, "direct": True}, inclusions)
    yield ("lattice.scan_counts_deterministic", "derived", BOX_COUNTS[cfg.box_bound], counts)
    yield ("lattice.reflection_plane_complement", "published", True,
           lattices.reflection_plane_complement())


def tableaux_suite(cfg: RunConfig):
    from . import tableaux
    yield ("tableaux.counts", "published", [105, 14],
           [len(tableaux.enumerate_tableaux()), len(tableaux.standard_tableaux())])
    yield ("tableaux.count_identities", "derived", [105, 14],
           [tableaux.double_factorial_count(), tableaux.hook_count()])
    yield ("tableaux.first_standard", "published", True,
           tableaux.is_standard(((1, 2), (3, 4), (5, 6), (7, 8))))
    yield ("tableaux.subspace_bijection", "published",
           {"injective": True, "image_matches": True, "count": 105},
           tableaux.subspace_bijection_check())
    yield ("tableaux.transvection_correspondence", "published", True,
           tableaux.transposition_transvection_check())
    yield ("tableaux.theta_golden_point", "derived",
           list(map(Fraction, (1, 4, 4, 12, 27, 4, 16, 12, 36, 72, 27, 72, 144, 256))),
           tableaux.theta_map(tableaux.affine_config(range(1, 9))))
    yield ("tableaux.equivariance", "derived",
           {"homomorphism": True, "intertwines_subspaces": True, "sign_identity": True},
           tableaux.equivariance_check())
    yield ("tableaux.straightening", "derived", True,
           tableaux.straightening_check()["ok"])
    yield "tableaux.degree1_kernel", "derived", 0, len(tableaux.linear_relations())
    rel2 = tableaux.relation_discovery(2, cfg.sample_count, cfg.seed)
    yield ("tableaux.degree2_kernel", "published", {"dimension": 14, "stable": True},
           {"dimension": rel2["dimension"], "stable": rel2["stable"]})
    yield "tableaux.mu_function_rank", "derived", 14, tableaux.mu_function_rank()
    yield ("tableaux.quadrics_s8_stable", "derived", True,
           tableaux.quadric_kernel_s8_stable())


_SUITES = {"f2": f2_suite, "weil": weil_suite, "qseries": qseries_suite,
           "lattice": lattice_suite, "tableaux": tableaux_suite}


def run_suite(selector: str, cfg: RunConfig | None = None) -> list[CheckReport]:
    cfg = cfg or RunConfig()
    if selector not in SELECTORS:
        raise ValueError("unknown selector %r (choose from %s)"
                         % (selector, ", ".join(SELECTORS)))
    names = list(_SUITES) if selector == "all" else [selector]
    return [_report(*claim) for name in names for claim in _SUITES[name](cfg)]


def reports_to_jsonl(reports: list[CheckReport]) -> str:
    return "".join(r.to_json() + "\n" for r in reports)


def all_passed(reports: list[CheckReport]) -> bool:
    return all(r.status == "pass" for r in reports)
