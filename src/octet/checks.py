"""Deterministic verification suites with machine-readable reports.

Each check compares a computed value against its expected value exactly and
is emitted as one JSON object; only the numeric inversion-equation checks
carry a tolerance field.  Identical run configurations produce byte-identical
reports: all randomness is seeded through the run configuration and every
serialized container is explicitly ordered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import f2geom, lattices, qseries, tableaux, weil
from .f2geom import VectorType

SELECTORS = ("f2", "weil", "qseries", "lattice", "tableaux", "all")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    series_order: int = 20
    sample_count: int = 300
    box_bound: int = 3
    tolerance: str = "1e-9"


@dataclass
class CheckReport:
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


def _check(name, expected, actual, provenance, tolerance=None) -> CheckReport:
    status = "pass" if expected == actual else "fail"
    return CheckReport(name, status, _plain(expected), _plain(actual),
                       provenance, tolerance)


def _plain(value):
    """Convert values to JSON-stable primitives (sorted, stringified exacts)."""
    if isinstance(value, Fraction):
        return "%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, VectorType):
        return value.value
    if isinstance(value, dict):
        return {str(_plain(k)): _plain(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, int):
        return value
    return str(value)


# ---------------------------------------------------------------------------
# suites


def f2_suite(cfg: RunConfig) -> list[CheckReport]:
    reports = []
    counts = f2geom.census()
    reports.append(_check(
        "f2.vector_census",
        {"00": 1, "0": 35, "1": 28},
        {t.value: n for t, n in counts.items()},
        "published",
    ))
    expected_pairs = {
        "00": {"00": (1, 0), "0": (35, 0), "1": (28, 0)},
        "0": {"00": (1, 0), "0": (19, 16), "1": (12, 16)},
        "1": {"00": (1, 0), "0": (15, 20), "1": (16, 12)},
    }
    reps = {"00": 0, "0": f2geom.E1, "1": f2geom.ALPHA1}
    actual_pairs = {}
    for code, alpha in reps.items():
        table = f2geom.pair_census(alpha)
        actual_pairs[code] = {
            t.value: (table[(t, 0)], table[(t, 1)]) for t in VectorType
        }
    reports.append(_check("f2.pair_census", expected_pairs, actual_pairs, "published"))
    # the census must be independent of the chosen representative
    stable = all(
        f2geom.pair_census(v) == f2geom.pair_census(reps[f2geom.classify(v).value])
        for v in f2geom.SPACE
    )
    reports.append(_check("f2.pair_census_type_constant", True, stable, "derived"))

    group = f2geom.group_elements()
    gens = f2geom.all_transvections()
    reports.append(_check("f2.group_order", 40320, len(group), "published"))
    reports.append(_check("f2.transvection_generators", 28, len(set(gens)), "published"))
    involutions = all(f2geom.compose(g, g) == tuple(f2geom.SPACE) for g in gens)
    reports.append(_check("f2.transvections_are_involutions", True, involutions, "derived"))
    reports.append(_check("f2.group_preserves_form", True,
                          f2geom.group_preserves_form(), "derived"))
    orbit_sizes = sorted(len(o) for o in f2geom.orbits())
    reports.append(_check("f2.orbit_sizes", [1, 28, 35], orbit_sizes, "published"))

    iso_counts = {str(d): len(f2geom.enumerate_isotropic_subspaces(d)) for d in (1, 2, 3)}
    reports.append(_check("f2.isotropic_subspace_counts",
                          {"1": 35, "2": 105, "3": 30}, iso_counts, "derived"))
    reports.append(_check("f2.singular_subspace_count", 105,
                          len(f2geom.enumerate_singular_subspaces()), "published"))
    split_ok = all(
        (len(f2geom.singular_members(v)[0]), len(f2geom.singular_members(v)[1])) == (4, 4)
        for v in f2geom.enumerate_singular_subspaces()
    )
    reports.append(_check("f2.singular_member_split", True, split_ok, "published"))
    ext_ok = True
    for plane in f2geom.enumerate_isotropic_subspaces(2):
        plus, minus = f2geom.isotropic_plane_extensions(plane)
        inter = set(f2geom.span(plus)) & set(f2geom.span(minus))
        if plus == minus or inter != set(f2geom.span(plane)):
            ext_ok = False
    reports.append(_check("f2.plane_extension_pairs", True, ext_ok, "published"))
    rerun = tuple(s for s in f2geom.all_subspaces(3) if f2geom.is_totally_isotropic(s))
    reports.append(_check("f2.enumeration_deterministic",
                          True, rerun == f2geom.enumerate_isotropic_subspaces(3),
                          "derived"))
    return reports


def weil_suite(cfg: RunConfig) -> list[CheckReport]:
    reports = []
    tr = weil.traces()
    reports.append(_check("weil.traces",
                          {"E": Fraction(64), "T": Fraction(8), "S": Fraction(8),
                           "ST": Fraction(1)},
                          tr, "published"))
    s, t = weil.rho_S(), weil.rho_T()
    eye = weil.RationalMatrix.identity(64)
    st = s @ t
    reports.append(_check("weil.s_squared", True, s @ s == eye, "derived"))
    reports.append(_check("weil.st_cubed", True, st @ st @ st == eye, "derived"))
    reports.append(_check("weil.character_multiplicities", [15, 7, 21],
                          list(weil.character_decomposition()), "published"))
    inv = weil.invariant_subspace()
    reports.append(_check("weil.invariant_dimension", 15, len(inv), "published"))
    iso3 = f2geom.enumerate_isotropic_subspaces(3)
    sums_ok = all(weil.is_invariant(weil.isotropic_sum_vector(i)) for i in iso3)
    reports.append(_check("weil.isotropic_sums_invariant", True, sums_ok, "published"))
    reports.append(_check("weil.maximal_isotropic_count", 30, len(iso3), "derived"))
    e0 = [0] * 64
    e0[0] = 1
    reports.append(_check("weil.point_mass_not_invariant", False, weil.is_invariant(e0),
                          "derived"))

    singulars = f2geom.enumerate_singular_subspaces()
    anti_ok = True
    minus_ok = True
    for v in singulars:
        fv = weil.singular_vector(v)
        dim, spanning = weil.minus_one_eigenspace(v)
        if dim != 1 or (spanning != fv and spanning != tuple(-x for x in fv)):
            anti_ok = False
        if not weil.is_invariant(fv):
            anti_ok = False
        aniso, _ = f2geom.singular_members(v)
        for alpha in aniso:
            perm = f2geom.transvection(alpha)
            if weil.permute_coordinates(perm, fv) != tuple(-x for x in fv):
                minus_ok = False
    reports.append(_check("weil.antivector_unique", True, anti_ok, "published"))
    reports.append(_check("weil.transvections_negate", True, minus_ok, "published"))
    reports.append(_check("weil.span_dimension", 14, weil.space_w_rank(), "published"))
    reports.append(_check("weil.fixed_line_dimension", 1, weil.fixed_line_dimension(),
                          "published"))
    a1, a2, a3 = f2geom.ALPHA1, f2geom.ALPHA2, f2geom.ALPHA3
    v1 = f2geom.echelon_basis([a1, a2, a3])
    v2 = f2geom.echelon_basis([a1, a2, a1 ^ f2geom.E3])
    v3 = f2geom.echelon_basis([a1, a2, a1 ^ f2geom.F3])
    hits = weil.triple_sign_identity(v1, v2, v3)
    reports.append(_check("weil.triple_difference_identity", 1, len(hits), "published"))
    commute = True
    for alpha in f2geom.SPACE:
        if f2geom.q(alpha) != 1:
            continue
        perm = f2geom.transvection(alpha)
        for mat in (s, t):
            left = mat.num[list(perm), :][:, list(perm)]
            if not (left == mat.num).all():
                commute = False
    reports.append(_check("weil.group_equivariance", True, commute, "derived"))
    return reports


def qseries_suite(cfg: RunConfig) -> list[CheckReport]:
    reports = []
    order = cfg.series_order
    comps = qseries.h_components(order)
    qq = Fraction
    heads = {
        "h00": [str(comps.h00[n]) for n in range(3)],
        "h0": [str(comps.h0[n]) for n in range(3)],
        "h1": [str(comps.h1[qq(n, 2)]) for n in (-1, 1, 3)],
    }
    reports.append(_check(
        "qseries.component_heads",
        {"h00": ["56", "896", "8064"], "h0": ["-8", "-128", "-1152"],
         "h1": ["1", "36", "402"]},
        heads, "published",
    ))
    t_rep = qseries.verify_T_equations(order)
    reports.append(_check("qseries.translation_equations", True, t_rep["ok"], "published"))
    reports.append(_check("qseries.h00_plus_7h0_zero", True,
                          t_rep["h00_plus_7_h0_is_zero"], "published"))
    tol = float(cfg.tolerance)
    s_rep = qseries.verify_S_equations_numeric(tolerance=tol, order=order)
    reports.append(CheckReport(
        name="qseries.inversion_equations_numeric",
        status="pass" if s_rep["ok"] else "fail",
        expected="max residual below tolerance",
        actual={"max_residual": s_rep["max_residual"],
                "series_vs_product": s_rep["series_vs_product"]},
        provenance="derived",
        tolerance=cfg.tolerance,
    ))
    red = qseries.assemble_and_reduce()
    expected_mix = [[Fraction(m, 8) for m in row] for row in qseries.S_MIX_ROWS]
    reports.append(_check("qseries.mixing_matrix", expected_mix,
                          red["mixing_matrix"], "published"))
    reports.append(_check("qseries.translation_signs",
                          [Fraction(1), Fraction(1), Fraction(-1)],
                          red["t_signs"], "published"))
    reports.append(_check("qseries.census_rows_match_mixing",
                          [list(r) for r in qseries.S_MIX_ROWS],
                          [list(r) for r in qseries.mixing_rows_from_pair_census()],
                          "published"))
    book = qseries.borcherds_bookkeeping(order)
    reports.append(_check(
        "qseries.lift_bookkeeping",
        {"weight": Fraction(28), "vanishing_order": Fraction(15),
         "quartic_count": Fraction(420), "factorization_ok": True},
        {"weight": book["weight"], "vanishing_order": book["vanishing_order"],
         "quartic_count": book["quartic_count"],
         "factorization_ok": book["factorization_ok"]},
        "published",
    ))
    roundtrip = all(
        qseries.deserialize_series(qseries.serialize_series(series)) == series
        for series in (comps.h00, comps.h0, comps.h1)
    )
    reports.append(_check("qseries.serialization_roundtrip", True, roundtrip, "derived"))
    return reports


def lattice_suite(cfg: RunConfig) -> list[CheckReport]:
    reports = []
    n_lat = lattices.lattice_N()
    form_n = lattices.discriminant_form(n_lat)
    reports.append(_check("lattice.disc_group_orders", [2] * 6, list(form_n.orders),
                          "published"))
    dictionary = lattices.split_dictionary()
    reports.append(_check("lattice.split_dictionary_found", True,
                          len(set(dictionary.gen_images)) == 6, "published"))
    form_m = lattices.discriminant_form(lattices.lattice_M())
    iso = lattices.find_isomorphism(form_m, form_n.neg())
    reports.append(_check("lattice.complementary_forms", True, iso is not None,
                          "published"))
    glue = [0, 0] + [Fraction(1, 2)] * 8
    over = lattices.overlattice(lattices.named_lattice("U+A1^8"), glue)
    reports.append(_check("lattice.overlattice_determinant", -64, over.det(), "published"))
    over_iso = lattices.find_isomorphism(lattices.discriminant_form(over), form_m)
    reports.append(_check("lattice.overlattice_matches", True,
                          over_iso is not None and over.is_even(), "published"))
    rows = lattices.table1_checks()
    reports.append(_check("lattice.table1", [True] * 10, [r["ok"] for r in rows],
                          "published"))
    rho = lattices.order_four_isometry()
    charpoly = lattices.characteristic_polynomial(rho)
    expected_cp = [Fraction(0)] * 13
    for k in range(7):
        expected_cp[2 * k] = Fraction(comb(6, k))
    reports.append(_check("lattice.isometry_fixed_point_free", True,
                          charpoly == expected_cp, "published"))
    herm = lattices.hermitian_gram_checks()
    reports.append(_check("lattice.hermitian_grams", [True, True, True],
                          [herm["d4_matches"], herm["u_matches"],
                           herm["diagonal_real"]], "published"))
    phi = lattices.phi_map_check()
    reports.append(_check("lattice.half_sum_quotient_map",
                          {"into_dual": True, "inverse_identity": True,
                           "rho_trivial_on_quotient": True, "bijective": True},
                          {k: phi[k] for k in ("into_dual", "inverse_identity",
                                               "rho_trivial_on_quotient", "bijective")},
                          "published"))
    refl = lattices.reflection_identities()
    reports.append(_check("lattice.reflection_identities",
                          {k: True for k in sorted(refl)},
                          {k: refl[k] for k in sorted(refl)}, "published"))
    family = lattices.reflection_family_check()
    reports.append(_check("lattice.reflection_family", True, family, "derived"))
    scan = lattices.minus4_vector_scan(cfg.box_bound)
    reports.append(_check(
        "lattice.norm_minus4_correspondence",
        {"forward": True, "converse": True, "direct": True},
        {"forward": scan["forward_inclusion"], "converse": scan["converse_inclusion"],
         "direct": scan["direct"]["all_verified"]},
        "published",
    ))
    rerun = lattices.minus4_vector_scan(cfg.box_bound)
    reports.append(_check("lattice.scan_counts_deterministic",
                          [scan["minus2_count"], scan["minus4_glue_count"]],
                          [rerun["minus2_count"], rerun["minus4_glue_count"]],
                          "derived"))
    comp = lattices.reflection_plane_complement()
    reports.append(_check("lattice.reflection_plane_complement", True, comp["ok"],
                          "published"))
    return reports


def tableaux_suite(cfg: RunConfig) -> list[CheckReport]:
    reports = []
    reports.append(_check("tableaux.counts", [105, 14],
                          [len(tableaux.enumerate_tableaux()),
                           len(tableaux.standard_tableaux())], "published"))
    reports.append(_check("tableaux.count_identities", [105, 14],
                          [tableaux.double_factorial_count(), tableaux.hook_count()],
                          "derived"))
    reports.append(_check("tableaux.first_standard", True,
                          tableaux.is_standard(((1, 2), (3, 4), (5, 6), (7, 8))),
                          "published"))
    bij = tableaux.subspace_bijection_check()
    reports.append(_check("tableaux.subspace_bijection",
                          {"injective": True, "image_matches": True, "count": 105},
                          bij, "published"))
    reports.append(_check("tableaux.transvection_correspondence", True,
                          tableaux.transposition_transvection_check(), "published"))
    golden = tableaux.theta_map(tableaux.affine_config(range(1, 9)))
    reports.append(_check(
        "tableaux.theta_golden_point",
        [Fraction(v) for v in (1, 4, 4, 12, 27, 4, 16, 12, 36, 72, 27, 72, 144, 256)],
        list(golden),
        "derived",
    ))
    eq = tableaux.equivariance_check(n_pairs=20, seed=cfg.seed)
    reports.append(_check("tableaux.equivariance",
                          {"homomorphism": True, "intertwines_subspaces": True,
                           "sign_identity": True},
                          {k: eq[k] for k in ("homomorphism", "intertwines_subspaces",
                                              "sign_identity")},
                          "derived"))
    st = tableaux.straightening_check(seed=cfg.seed)
    reports.append(_check("tableaux.straightening", True, st["ok"], "derived"))
    rel1 = tableaux.relation_discovery(1, max(cfg.sample_count // 4, 40), cfg.seed)
    reports.append(_check("tableaux.degree1_kernel", 0, rel1["dimension"], "derived"))
    rel2 = tableaux.relation_discovery(2, cfg.sample_count, cfg.seed)
    reports.append(_check("tableaux.degree2_kernel",
                          {"dimension": 14, "stable": True},
                          {"dimension": rel2["dimension"], "stable": rel2["stable"]},
                          "published"))
    reports.append(_check("tableaux.mu_function_rank", 14,
                          tableaux.mu_function_rank(seed=cfg.seed), "derived"))
    reports.append(_check("tableaux.quadrics_s8_stable", True,
                          tableaux.quadric_kernel_s8_stable(seed=cfg.seed,
                                                            samples=cfg.sample_count),
                          "derived"))
    return reports


_SUITES = {
    "f2": f2_suite,
    "weil": weil_suite,
    "qseries": qseries_suite,
    "lattice": lattice_suite,
    "tableaux": tableaux_suite,
}


def run_suite(selector: str, cfg: RunConfig | None = None) -> list[CheckReport]:
    cfg = cfg or RunConfig()
    if selector not in SELECTORS:
        raise ValueError("unknown selector %r (choose from %s)"
                         % (selector, ", ".join(SELECTORS)))
    names = list(_SUITES) if selector == "all" else [selector]
    reports = []
    for name in names:
        reports.extend(_SUITES[name](cfg))
    return reports


def reports_to_jsonl(reports: list[CheckReport]) -> str:
    return "".join(r.to_json() + "\n" for r in reports)


def all_passed(reports: list[CheckReport]) -> bool:
    return all(r.status == "pass" for r in reports)
