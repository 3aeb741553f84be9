"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Everything except criterion 9 is exact arithmetic with no tolerance; the
numeric inversion-equations check runs at the pinned tolerance 1e-9 and
series order 20.  Run with ``pytest tests/test_acceptance.py -v -s``.
The last test compares each suite, run in-process, with its lines of the
golden report, so a changed line names its suite.
"""

import json
from fractions import Fraction as QQ
from pathlib import Path

import numpy as np
import pytest

from octet import checks, f2geom, lattices, linalg, qseries, tableaux, weil
from octet.checks import RunConfig
from octet.f2geom import VectorType

CFG = RunConfig()  # seed 42, order 20, 300 samples, bound 3, tolerance 1e-9
GOLDEN_REPORT = Path(__file__).parent / "golden" / "verify_all_seed42.jsonl"


def _report(number: int, label: str, ok: bool) -> None:
    print("criterion %02d [%s] %s" % (number, "PASS" if ok else "FAIL", label))
    assert ok, "criterion %02d failed: %s" % (number, label)


def test_criterion_01_vector_census():
    counts = f2geom.census()
    ok = (counts[VectorType.ZERO], counts[VectorType.ISOTROPIC],
          counts[VectorType.ANISOTROPIC]) == (1, 35, 28)
    _report(1, "vector census (1, 35, 28)", ok)


def test_criterion_02_pair_census():
    expected = {
        VectorType.ZERO: {VectorType.ZERO: (1, 0), VectorType.ISOTROPIC: (35, 0),
                          VectorType.ANISOTROPIC: (28, 0)},
        VectorType.ISOTROPIC: {VectorType.ZERO: (1, 0),
                               VectorType.ISOTROPIC: (19, 16),
                               VectorType.ANISOTROPIC: (12, 16)},
        VectorType.ANISOTROPIC: {VectorType.ZERO: (1, 0),
                                 VectorType.ISOTROPIC: (15, 20),
                                 VectorType.ANISOTROPIC: (16, 12)},
    }
    ok = True
    for alpha in f2geom.SPACE:
        table = f2geom.pair_census(alpha)
        want = expected[f2geom.classify(alpha)]
        for beta_kind, (m0, m1) in want.items():
            if table[(beta_kind, 0)] != m0 or table[(beta_kind, 1)] != m1:
                ok = False
    _report(2, "pair census reproduces all nine table columns", ok)


def test_criterion_03_group_closure():
    group = f2geom.group_elements()
    gens = set(f2geom.all_transvections())
    orbit_sizes = sorted(len(o) for o in f2geom.orbits() if len(o) > 1)
    ok = (len(group) == 40320 and len(gens) == 28
          and all(g in set(group) for g in gens)
          and orbit_sizes == [28, 35])
    _report(3, "transvection closure 40320, 28 generators, orbits {35, 28}", ok)


def test_criterion_04_weil_relations_and_traces():
    # rho_S = H/8 and rho_T = diag(t): S^2 = (ST)^3 = 1 reads H.H = 64 I and
    # (H diag(t))^3 = 512 I
    h, t = weil.b_signs(), weil.q_signs()
    st = [[x * s for x, s in zip(row, t)] for row in h]

    def scalar(c):
        return tuple(tuple(c * (i == j) for j in range(64)) for i in range(64))

    tr = weil.traces()
    ok = (linalg.matmul(h, h) == scalar(64)
          and linalg.matmul(linalg.matmul(st, st), st) == scalar(512)
          and (tr["E"], tr["T"], tr["ST"]) == (64, 8, 1))
    _report(4, "matrix relations and traces (64, 8, 1)", ok)


def test_criterion_05_character_decomposition():
    ok = weil.character_decomposition() == (15, 7, 21)
    _report(5, "character decomposition (15, 7, 21)", ok)


def test_criterion_06_invariant_subspace():
    basis = weil.invariant_subspace()
    iso3 = f2geom.enumerate_isotropic_subspaces(3)
    again = tuple(s for s in f2geom.all_subspaces(3) if f2geom.is_totally_isotropic(s))
    ok = (len(basis) == 15
          and len(iso3) == 30 and iso3 == again
          and all(weil.is_invariant(weil.isotropic_sum_vector(i)) for i in iso3))
    _report(6, "invariant space dim 15; 30 isotropic sums inside; stable count", ok)


def test_criterion_07_singular_vectors():
    singulars = f2geom.enumerate_singular_subspaces()
    ok = len(singulars) == 105
    for sub in singulars:
        dim, spanning = weil.minus_one_eigenspace(sub)
        vec = weil.singular_vector(sub)
        if dim != 1 or spanning not in (vec, tuple(-x for x in vec)):
            ok = False
    ok = ok and weil.space_w_rank() == 14
    a1, a2, a3 = f2geom.ALPHA1, f2geom.ALPHA2, f2geom.ALPHA3
    hits = weil.triple_sign_identity(
        f2geom.echelon_basis([a1, a2, a3]),
        f2geom.echelon_basis([a1, a2, a1 ^ f2geom.E3]),
        f2geom.echelon_basis([a1, a2, a1 ^ f2geom.F3]),
    )
    ok = ok and len(hits) == 1
    _report(7, "antivector unique for all 105; span dim 14; triple identity", ok)


def test_criterion_08_h_series_exact():
    comps = qseries.h_components(CFG.series_order)
    t_rep = qseries.verify_T_equations(CFG.series_order)
    ok = ([comps.h00[n] for n in range(3)] == [56, 896, 8064]
          and [comps.h0[n] for n in range(3)] == [-8, -128, -1152]
          and [comps.h1[QQ(n, 2)] for n in (-1, 1, 3)] == [1, 36, 402]
          and t_rep["ok"])
    _report(8, "series heads and exact translation equations to order 20", ok)


def test_criterion_09_numeric_inversion():
    rep = qseries.verify_S_equations_numeric(order=CFG.series_order)
    _report(9, "numeric inversion residual %.2e < 1e-9" % rep["max_residual"],
            max(rep.values()) < float(CFG.tolerance))


def test_criterion_10_exact_reduction_and_bookkeeping():
    red = qseries.assemble_and_reduce()
    book = qseries.borcherds_bookkeeping(CFG.series_order)
    ok = (red["mixing_matrix"] == [[QQ(m, 8) for m in row] for row in qseries.S_MIX_ROWS]
          and red["t_signs"] == [1, 1, -1]
          and (book["weight"], book["vanishing_order"], book["quartic_count"]) == (28, 15, 420)
          and book["factorization_ok"])
    _report(10, "mixing matrix exact; 28 / 15 / 420 bookkeeping", ok)


def test_criterion_11_lattice_suite():
    n_form = lattices.discriminant_form(lattices.lattice_N())
    dictionary = lattices.split_dictionary()
    m_form = lattices.discriminant_form(lattices.lattice_M())
    over = lattices.glued_overlattice()
    table = lattices.table1_checks()
    rho = np.array(lattices.order_four_isometry())
    eye = np.eye(12, dtype=np.int64)
    d4_matches, u_matches, _ = lattices.hermitian_gram_checks()
    phi = lattices.phi_map_check()
    refl = lattices.reflection_identities()
    family = lattices.reflection_family_check()
    inclusions, _ = lattices.minus4_vector_scan(CFG.box_bound)
    ok = (n_form.orders == (2,) * 6
          and len(set(dictionary)) == 64
          and lattices.find_isomorphism(m_form, n_form.neg()) is not None
          and lattices.find_isomorphism(lattices.discriminant_form(over),
                                        m_form) is not None
          and all(table)
          and np.array_equal(rho @ rho, -eye)
          and phi["rho_trivial_on_quotient"] and phi["bijective"]
          and d4_matches and u_matches
          and all(refl.values()) and family
          and all(inclusions.values()))
    _report(11, "lattice suite (dictionary, glue, table rows, isometry, "
                "reflections, norm -4 correspondence)", ok)


def test_criterion_12_tableaux():
    bij = tableaux.subspace_bijection_check()
    eq = tableaux.equivariance_check()
    ok = (len(tableaux.enumerate_tableaux()) == 105
          and len(tableaux.standard_tableaux()) == 14
          and bij["injective"] and bij["image_matches"]
          and eq["homomorphism"] and eq["intertwines_subspaces"])
    _report(12, "counts (105, 14); bijection; equivariance on the seven generators", ok)


def test_criterion_13_relations():
    rel2 = tableaux.relation_discovery(2, CFG.sample_count, CFG.seed)
    rel1 = tableaux.relation_discovery(1, max(CFG.sample_count // 4, 40), CFG.seed)
    rank105 = tableaux.mu_function_rank()
    ok = (rel2["dimension"] == 14 and rel2["stable"] and rel2["samples_used"] >= 300
          and rel1["dimension"] == 0 and rank105 == 14)
    _report(13, "degree-2 kernel 14; degree-1 kernel 0; rank of 105 products 14", ok)


def test_criterion_14_determinism():
    first = checks.reports_to_jsonl(checks.run_suite("all", CFG))
    second = checks.reports_to_jsonl(checks.run_suite("all", CFG))
    ok = first == second == GOLDEN_REPORT.read_text() and len(first) > 0
    _report(14, "byte-identical reports on repeated default runs, equal to the golden file", ok)


@pytest.mark.parametrize("suite", ["f2", "weil", "qseries", "lattice", "tableaux"])
def test_suite_matches_its_golden_slice(suite):
    # the in-process oracle per suite: its lines of the golden file, in order
    lines = GOLDEN_REPORT.read_text().splitlines(keepends=True)
    assert {json.loads(line)["name"].split(".")[0] for line in lines} == set(checks.SELECTORS) - {"all"}
    want = [line for line in lines if json.loads(line)["name"].split(".")[0] == suite]
    assert want
    assert checks.reports_to_jsonl(checks.run_suite(suite, CFG)) == "".join(want)
