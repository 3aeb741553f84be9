"""Negative controls: a report line must be able to fail.

Each entry changes one input that claims read (a table, a constant or a
cached object), never a comparison or ``checks._report``, and names the
report lines that must then fail.  The suite must run without raising, fail
exactly those lines, and print every other line with its golden bytes.
"""

import json
from pathlib import Path

import pytest

from octet import checks, lattices, qseries, tableaux
import oracles

GOLDEN = {json.loads(line)["name"]: line for line in
          (Path(__file__).parent / "golden" / "verify_all_seed42.jsonl").read_text().splitlines()}

# the lines that read the series of h_components against the published heads,
# the translation behaviour and the numeric eta products
SERIES_LINES = {"qseries.component_heads", "qseries.translation_equations",
                "qseries.inversion_equations_numeric"}


def _eta_exponent(quotient, scale, delta):
    """Change one exponent of ``qseries.ETA_EXPONENTS`` by ``delta``; a
    multiple of 12 at an integer scale keeps the prefactor on the half grid."""
    def apply(monkeypatch):
        table = qseries.ETA_EXPONENTS[quotient]
        monkeypatch.setitem(table, scale, table[scale] + delta)
    return apply


# name -> (suite, change, the lines that must fail)
CONTROLS = {
    # A gains or loses a factor q: h00 and h0 start at q^1 or q^-1, so the
    # weight read off the constant term of h00 is 0 as well
    "eta(2 tau)^20 in A": ("qseries", _eta_exponent("A", 2, 12),
                           SERIES_LINES | {"qseries.lift_bookkeeping"}),
    "eta(2 tau)^-4 in A": ("qseries", _eta_exponent("A", 2, -12),
                           SERIES_LINES | {"qseries.lift_bookkeeping"}),
    # A moves by a half step: h00 and h0 leave the integer grid
    "eta(tau)^-4 in A": ("qseries", _eta_exponent("A", 1, 12),
                         SERIES_LINES | {"qseries.lift_bookkeeping"}),
    "eta(tau)^-28 in A": ("qseries", _eta_exponent("A", 1, -12),
                          SERIES_LINES | {"qseries.lift_bookkeeping"}),
    # B lands on the integer grid: only h1 changes
    "eta(tau)^-4 in B": ("qseries", _eta_exponent("B", 1, 12), SERIES_LINES),
    "eta(tau)^-28 in B": ("qseries", _eta_exponent("B", 1, -12), SERIES_LINES),
}


@pytest.fixture
def fresh_series():
    qseries.h_components.cache_clear()
    yield
    qseries.h_components.cache_clear()


def _assert_fails_exactly(reports, failing):
    assert {r.name for r in reports if r.status == "fail"} == failing
    assert failing <= {r.name for r in reports}
    for report in reports:
        if report.name not in failing:
            assert report.to_json() == GOLDEN[report.name]


@pytest.mark.parametrize("name", CONTROLS)
def test_a_changed_eta_exponent_fails_exactly_its_lines(name, monkeypatch, fresh_series):
    suite, change, failing = CONTROLS[name]
    change(monkeypatch)
    reports = checks.run_suite(suite)
    _assert_fails_exactly(reports, failing)
    # the numeric inversion equations read only the eta products, which hold;
    # the line fails through the exact series measured against them
    numeric = next(r for r in reports if r.name == "qseries.inversion_equations_numeric")
    assert numeric.actual["max_residual"] < 1e-9 < numeric.actual["series_vs_product"]


def test_the_controls_leave_the_golden_report_behind(fresh_series):
    reports = checks.run_suite("qseries")
    _assert_fails_exactly(reports, set())


def _rho1_entry_set(row, col, value=None):
    """Set one entry of the U + U(2) block of rho to ``value``, or negate it."""
    def apply(monkeypatch):
        block = [list(r) for r in lattices._rho1_block()]
        block[row][col] = -block[row][col] if value is None else value
        monkeypatch.setattr(lattices, "_rho1_block", lambda: tuple(map(tuple, block)))
    return apply


def _last_plucker_coefficient_negated(monkeypatch):
    *rest, (first, second, coeff) = tableaux.PLUCKER_TERMS
    monkeypatch.setattr(tableaux, "PLUCKER_TERMS", (*rest, (first, second, -coeff)))


def _seed_coefficient_flipped(monkeypatch):
    *rest, (pair, coeff) = tableaux.SEED_BINOMIAL
    monkeypatch.setattr(tableaux, "SEED_BINOMIAL", (*rest, (pair, -coeff)))


def _straighten_coefficient_raised(index):
    """Raise the first coefficient of the cached straightening expansion of
    tableau ``index`` by one."""
    def apply(monkeypatch):
        expansions = {t: tableaux.straighten(t) for t in tableaux.enumerate_tableaux()}
        t = tableaux.enumerate_tableaux()[index]
        (std, coeff), *rest = expansions[t]
        expansions[t] = ((std, coeff + 1), *rest)
        monkeypatch.setattr(tableaux, "straighten", expansions.__getitem__)
    return apply


def _generators_negated(monkeypatch):
    """Every action matrix negated: -M_s meets the Coxeter relations and
    carries quadrics as M_s does, but not the products themselves."""
    action_matrix = tableaux.action_matrix
    monkeypatch.setattr(tableaux, "action_matrix",
                        lambda sigma: [[-x for x in row] for row in action_matrix(sigma)])


def _leading_monomial_shared(monkeypatch):
    """Give one standard product, as the leading-monomial system reads it,
    the leading monomial of another: the system then has equal rows and a
    kernel."""
    standard = tableaux.standard_tableaux()
    polys = [oracles.tableau_polynomial(t) for t in standard]
    top = max(range(14), key=lambda j: max(polys[j]))
    other = next(j for j in range(14) if j != top and max(polys[top]) not in polys[j])
    leading = tableaux._leading_coefficient

    def shared(f, g):
        # the leading monomial of other is that of top, with coefficient 1 in other
        g = standard[top] if g == standard[other] else g
        return 1 if (f, g) == (standard[other], standard[top]) else leading(f, g)
    monkeypatch.setattr(tableaux, "_leading_coefficient", shared)


def _generator_entry_raised(monkeypatch):
    """Entry (0, 0) of the action matrix of the transposition (3 4) raised by one."""
    action_matrix = tableaux.action_matrix

    def raised(sigma):
        matrix = action_matrix(sigma)
        if tuple(sigma) == tableaux.ADJACENT_TRANSPOSITIONS[2]:
            matrix[0][0] += 1
        return matrix
    monkeypatch.setattr(tableaux, "action_matrix", raised)


# the lines that read the straightening expansions: as identities, through
# the action matrices, and through the closure they certify
STRAIGHTENING_LINES = {"tableaux.straightening", "tableaux.equivariance",
                       "tableaux.degree2_kernel", "tableaux.mu_function_rank",
                       "tableaux.quadrics_s8_stable"}


def _theta_dictionary_entries_1_2_swapped(monkeypatch):
    """Swap entries 1 and 2 of the dictionary from pair classes to the model."""
    swapped = list(tableaux.theta_model_dictionary())
    swapped[1], swapped[2] = swapped[2], swapped[1]
    monkeypatch.setattr(tableaux, "theta_model_dictionary", lambda: tuple(swapped))


def _table1_transcendental(row, name):
    """Replace the transcendental lattice of one row of Table 1."""
    def apply(monkeypatch):
        rows = list(lattices.TABLE1_ROWS)
        rows[row] = (rows[row][0], name)
        monkeypatch.setattr(lattices, "TABLE1_ROWS", tuple(rows))
    return apply


# the lines that read the identities of rho
RHO_LINES = {"lattice.isometry_fixed_point_free", "lattice.hermitian_grams",
             "lattice.half_sum_quotient_map", "lattice.reflection_identities",
             "lattice.reflection_family", "lattice.norm_minus4_correspondence"}

# a wrong rho whose reflection plane has a complement with a discriminant
# group that is not 2-elementary: that claim fails too, and nothing raises
COMPLEMENT_LINES = RHO_LINES | {"lattice.reflection_plane_complement"}

# name -> (suite, change, the lines that must fail)
STRUCTURE_CONTROLS = {
    # rho is neither skew for G nor of square -1, so it is no isometry either
    "rho1_entry_0_2_negated": ("lattice", _rho1_entry_set(0, 2), RHO_LINES),
    "rho1_entry_0_0_negated": ("lattice", _rho1_entry_set(0, 0), COMPLEMENT_LINES),
    "rho1_entry_1_1_negated": ("lattice", _rho1_entry_set(1, 1), COMPLEMENT_LINES),
    "rho1_entry_1_0_set_to_1": ("lattice", _rho1_entry_set(1, 0, 1), COMPLEMENT_LINES),
    "rho1_entry_2_1_set_to_1": ("lattice", _rho1_entry_set(2, 1, 1), COMPLEMENT_LINES),
    "rho1_entry_3_0_set_to_1": ("lattice", _rho1_entry_set(3, 0, 1), COMPLEMENT_LINES),
    # the exchange relation no longer expands to zero; the expansions still hold
    "last_plucker_coefficient_negated": ("tableaux", _last_plucker_coefficient_negated,
                                         {"tableaux.straightening"}),
    # the seed's two terms no longer cancel as multisets of minors: the closure
    # is not certified, builds no relation, and the degree-2 lines fail
    "seed_binomial_coefficient_flipped": (
        "tableaux", _seed_coefficient_flipped,
        {"tableaux.degree2_kernel", "tableaux.quadrics_s8_stable"}),
    # the ten-term expansion of ((1, 8), (2, 7), (3, 6), (4, 5)) with one
    # coefficient off by one
    "straighten_coefficient_raised": ("tableaux", _straighten_coefficient_raised(104),
                                      STRAIGHTENING_LINES),
    # only the identity that defines the action matrices tells -M from M; the
    # closure requires it of the matrices it pulls back through
    "every_generator_negated": ("tableaux", _generators_negated,
                                {"tableaux.equivariance", "tableaux.degree2_kernel",
                                 "tableaux.quadrics_s8_stable"}),
    # a wrong generator fails its identity and carries the quadrics off the
    # relations
    "generator_entry_raised": ("tableaux", _generator_entry_raised,
                               {"tableaux.equivariance", "tableaux.degree2_kernel",
                                "tableaux.quadrics_s8_stable"}),
    # a kernel of the leading-monomial system: the standard products are no
    # longer proved independent, and no rank of the 105 products is read off
    "leading_monomial_shared": ("tableaux", _leading_monomial_shared,
                                {"tableaux.degree1_kernel", "tableaux.equivariance",
                                 "tableaux.mu_function_rank"}),
    # the pair classes of some tableaux span less than a plane triple, and the
    # transpositions act on the model through the wrong classes
    "theta_dictionary_entries_1_2_swapped": (
        "tableaux", _theta_dictionary_entries_1_2_swapped,
        {"tableaux.subspace_bijection", "tableaux.transvection_correspondence",
         "tableaux.equivariance"}),
    # the same rank, signature and group order as U(2)+U(2), and a q4 with
    # odd values, so no isometry onto the negated Picard form exists
    "table1_row_4_a1_squares": (
        "lattice", _table1_transcendental(4, "A1^2+A1(-1)^2"), {"lattice.table1"}),
}


# report line -> why no change of an input can make it fail
TAUTOLOGIES = {
    "qseries.h00_plus_7h0_zero": "h00 = 56 A and h0 = -8 A scale one series A, "
                                 "so h00 + 7 h0 = 0 by construction",
    "lattice.split_dictionary_found": "the table is linear_table of six independent "
                                      "images found by find_isomorphism, so its 64 entries "
                                      "are distinct; with no isometry the search raises",
}


def test_the_control_registers_name_golden_lines_and_do_not_overlap():
    registers = [set().union(*(failing for _, _, failing in CONTROLS.values())),
                 set().union(*(failing for _, _, failing in STRUCTURE_CONTROLS.values())),
                 set(TAUTOLOGIES)]
    assert all(lines and lines <= GOLDEN.keys() for lines in registers)
    assert sum(map(len, registers)) == len(set().union(*registers))


# the cached objects that the structure controls change inputs of
STRUCTURE_CACHES = (lattices.order_four_isometry, lattices._rho_identities,
                    tableaux._straightening_identities, tableaux.quadric_closure,
                    tableaux.linear_relations)


@pytest.fixture
def fresh_structures():
    for cached in STRUCTURE_CACHES:
        cached.cache_clear()
    yield
    for cached in STRUCTURE_CACHES:
        cached.cache_clear()


@pytest.mark.parametrize("name", STRUCTURE_CONTROLS)
def test_a_changed_structure_fails_exactly_its_lines(name, monkeypatch, fresh_structures):
    suite, change, failing = STRUCTURE_CONTROLS[name]
    change(monkeypatch)
    _assert_fails_exactly(checks.run_suite(suite), failing)


def test_the_structure_controls_change_what_they_name(monkeypatch, fresh_structures):
    _rho1_entry_set(0, 2)(monkeypatch)
    assert not any(lattices._rho_identities()[key] for key in ("skew", "square_minus_one"))
    values = []
    for name in ("U(2)+U(2)", "A1^2+A1(-1)^2"):
        rank, signature, form = lattices._summand_invariants(name)
        assert (rank, signature, len(form.q4)) == (4, (2, 2), 16)
        values.append(sorted(form.q4))
    assert values[0] != values[1]
    _table1_transcendental(4, "A1^2+A1(-1)^2")(monkeypatch)
    assert lattices.table1_checks() == [True] * 4 + [False] + [True] * 5
    _leading_monomial_shared(monkeypatch)
    assert len(tableaux.linear_relations()) == 1
    assert tableaux.relation_discovery(1, 75, 42)["dimension"] == 1
