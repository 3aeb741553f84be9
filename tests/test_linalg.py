from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octet import linalg
from oracles import integer_kernel


def _nullspace(rows, ncols):
    ech = linalg.EchelonForm(ncols)
    ech.add_rows(rows)
    return ech.nullspace()


def test_rank_and_nullspace_small():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.rank(rows, 3) == 2
    ns = _nullspace(rows, 3)
    assert len(ns) == 1
    for row in rows:
        assert sum(Fraction(a) * b for a, b in zip(row, ns[0])) == 0


def test_add_row_reports_rank_growth():
    ech = linalg.EchelonForm(3)
    assert ech.add_row([1, 0, 1])
    assert not ech.add_row([2, 0, 2])
    assert ech.add_row([0, 1, 0])
    assert ech.rank == 2
    assert ech.contains([3, -5, 3])
    assert not ech.contains([0, 0, 1])


def test_solve_right_and_invert():
    mat = [[2, 1], [1, 1]]
    inv = linalg.solve_right(mat, [[1, 0], [0, 1]])
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    with pytest.raises(ValueError):
        linalg.solve_right([[1, 2], [2, 4]], [[1], [0]])


def test_numpy_integers_do_not_wrap():
    # Fractions built on int64 numerators would wrap 2**62 * 2**62 to 0
    inv = linalg.solve_right(np.array([[2**62, 1], [1, 2**62]], dtype=np.int64),
                             np.eye(2, dtype=np.int64))
    assert inv[0][0] == Fraction(2**62, 2**124 - 1)


def test_floats_rejected():
    ech = linalg.EchelonForm(2)
    with pytest.raises(TypeError):
        ech.add_row([0.5, 1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=1, max_size=6))
def test_nullspace_annihilates_rows(rows):
    ns = _nullspace(rows, 4)
    for vec in ns:
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0
    assert linalg.rank(rows, 4) + len(ns) == 4


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_rank_invariant_under_row_order(rows):
    assert linalg.rank(rows, 3) == linalg.rank(rows[::-1], 3)


def _reference_rref(rows, ncols):
    """Row-by-row Gauss-Jordan over Fractions, pivots scaled to 1: the
    elimination the integer core replaced.  Returns the rows by pivot column
    and what each insertion returned."""
    piv, added = {}, []
    for row in rows:
        row = [x if isinstance(x, Fraction) else Fraction(int(x)) for x in row]
        for col in sorted(piv):
            c = row[col]
            if c:
                row = [a - c * b for a, b in zip(row, piv[col])]
        lead = next((j for j, x in enumerate(row) if x), None)
        added.append(lead is not None)
        if lead is None:
            continue
        row = [x / row[lead] for x in row]
        for col, prow in piv.items():
            c = prow[lead]
            if c:
                piv[col] = [a - c * b for a, b in zip(prow, row)]
        piv[lead] = row
    return piv, added


def _reference_contains(piv, row):
    row = [x if isinstance(x, Fraction) else Fraction(int(x)) for x in row]
    for col in sorted(piv):
        row = [a - row[col] * b for a, b in zip(row, piv[col])]
    return not any(row)


def _reference_nullspace(piv, ncols):
    basis = []
    for f in (j for j in range(ncols) if j not in piv):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for p in piv:
            v[p] = -piv[p][f]
        basis.append(v)
    return basis


_entries = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
    st.integers(-8, 8).map(lambda k: np.int64(2**62 + k)),
    st.integers(-8, 8).map(lambda k: np.int64(-(2**62) + k)),
)


@st.composite
def _matrices(draw):
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=7))
    # zero rows and repeated rows, at drawn positions
    for _ in range(draw(st.integers(0, 2))):
        extra = draw(st.sampled_from([[0] * ncols] + rows))
        rows.insert(draw(st.integers(0, len(rows))), extra)
    probe = draw(st.lists(_entries, min_size=ncols, max_size=ncols))
    return ncols, rows, probe


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_integer_core_matches_fraction_reference(case):
    ncols, rows, probe = case
    piv, added = _reference_rref(rows, ncols)
    ech = linalg.EchelonForm(ncols)
    assert [ech.add_row(r) for r in rows] == added
    assert ech.pivot_columns == tuple(sorted(piv))
    # results: the reference's rows and kernel vectors as primitive integer rows
    assert ech.rows() == [linalg.integer_row(piv[c]) for c in sorted(piv)]
    assert ech.nullspace() == [linalg.integer_row(v) for v in _reference_nullspace(piv, ncols)]
    assert all(type(x) is int for vec in ech.rows() + ech.nullspace() for x in vec)
    assert all(ech.contains(r) for r in rows)
    assert ech.contains(probe) == _reference_contains(piv, probe)
    # stored rows: primitive integers, positive pivot, zero at other pivots,
    # each with its support, pivot first, beside it
    for col, row in ech._rows.items():
        assert all(type(x) is int for x in row)
        assert row[col] > 0 and gcd(*row) == 1
        assert all(row[c] == 0 for c in ech._rows if c != col)
        assert ech._supports[col] == [(j, x) for j, x in enumerate(row) if x]
        assert ech._supports[col][0] == (col, row[col])
    assert ech._supports.keys() == ech._rows.keys()


def _counting_combine(monkeypatch):
    calls = []
    combine = linalg._combine

    def counted(*args):
        calls.append(args)
        return combine(*args)
    monkeypatch.setattr(linalg, "_combine", counted)
    return calls


@pytest.mark.parametrize("rows, probe, scaled", [
    # the pivot entries 2 and 1 divide 4 and -3: support path only
    ([[2, 1, 0, 0], [0, 0, 1, 5]], [4, 2, -3, -15], False),
    ([[2, 1, 0, 0], [0, 0, 1, 5]], [4, 2, -3, 7], False),
    # 2 does not divide 3: the scaled, primitive combination
    ([[2, 1, 0, 0], [0, 0, 1, 5]], [3, 1, 1, 5], True),
    ([[3, 0, 1], [0, 2, 1]], [6, 5, 3], True),
])
def test_both_reduction_routes_match_the_fraction_reference(monkeypatch, rows, probe, scaled):
    ech = linalg.EchelonForm(len(probe))
    ech.add_rows(rows)
    calls = _counting_combine(monkeypatch)
    want = _reference_contains(_reference_rref(rows, len(probe))[0], probe)
    assert ech.contains(probe) is want
    assert bool(calls) is scaled
    piv, added = _reference_rref(rows + [probe], len(probe))
    assert ech.add_row(probe) is added[-1] is not want
    assert ech.rows() == [linalg.integer_row(piv[c]) for c in sorted(piv)]
    assert ech.nullspace() == [linalg.integer_row(v)
                               for v in _reference_nullspace(piv, len(probe))]


def test_a_rewritten_row_carries_its_new_support():
    # the second row puts a pivot in column 1, which the first row leaves as
    # [1, 0, -1, 0]: column 1 leaves its support and column 2 enters it
    ech = linalg.EchelonForm(4)
    ech.add_rows([[1, 1, 0, 0], [0, 1, 1, 0]])
    assert ech._rows == {0: [1, 0, -1, 0], 1: [0, 1, 1, 0]}
    assert ech._supports == {0: [(0, 1), (2, -1)], 1: [(1, 1), (2, 1)]}
    # both read the rewritten support: [1, 0, -1, 0] reduces to 0 on it alone
    assert ech.contains([1, 0, -1, 0]) and ech.contains([2, 1, -1, 0])
    assert not ech.contains([1, 0, 0, 0])
    piv, _ = _reference_rref([[1, 1, 0, 0], [0, 1, 1, 0], [3, 0, 0, 1]], 4)
    assert ech.add_row([3, 0, 0, 1])
    assert ech.rows() == [linalg.integer_row(piv[c]) for c in sorted(piv)]


def test_add_row_and_contains_leave_the_callers_row_alone():
    ech = linalg.EchelonForm(3)
    ech.add_row([2, 1, 0])
    # both reduction routes, a Fraction row and a tuple
    for row in ([4, 2, 0], [4, 1, 7], [3, 1, 1], [Fraction(1, 2), 0, 1], (1, 2, 3)):
        for method in (ech.contains, ech.add_row):
            before = list(row)
            method(row)
            assert list(row) == before
    # a kept row that a later pivot rewrites is not the caller's list
    stored = [1, 1, 0]
    ech = linalg.EchelonForm(3)
    ech.add_row(stored)
    ech.add_row([0, 1, 0])
    assert stored == [1, 1, 0] and ech.rows() == [[1, 0, 0], [0, 1, 0]]


P31 = linalg.MERSENNE_31


def test_rank_mod_p_small_cases():
    assert linalg.rank_mod_p([[P31]], 1) == 0 < linalg.rank([[P31]], 1)
    rows = [[1, 2], [3, 6 + P31]]
    assert linalg.rank_mod_p(rows, 2) == 1 < linalg.rank(rows, 2)
    assert linalg.rank_mod_p([[1, 2], [3, 4], [5, 6]], 2) == 2
    assert linalg.rank_mod_p([], 3) == 0
    with pytest.raises(TypeError):
        linalg.rank_mod_p([[Fraction(1, 2)]], 1)


_big = st.one_of(st.integers(-2**70, 2**70),
                 st.sampled_from([P31, -P31, 2 * P31, P31 * P31, P31 + 1]))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(_big, min_size=5, max_size=5), min_size=1, max_size=7))
def test_rank_mod_p_is_a_lower_bound(rows):
    assert linalg.rank_mod_p(rows, 5) <= linalg.rank(rows, 5)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=6)))
def test_rank_mod_p_equals_rank_on_small_entries(rows):
    # Hadamard: a minor of at most 6x6 entries in [-9, 9] is below
    # (9 * 6**0.5)**6 < 2**31 - 1 in absolute value, so none vanishes mod p
    ncols = len(rows[0])
    assert linalg.rank_mod_p(rows, ncols) == linalg.rank(rows, ncols)


def _plain_product(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5), st.integers(1, 6), st.integers(1, 6), st.data())
def test_matmul_matches_the_plain_product(n, k, m, data):
    # entries up to 2**70, where int64 and float64 products would both be wrong
    entries = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))
    a = data.draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n))
    b = data.draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=k, max_size=k))
    assert linalg.matmul(a, b) == _plain_product(a, b)


def test_matmul_is_exact_at_the_slot_boundary():
    # the second column attains k max|a| max|b| = 2**53, the edge of float64's exact integers
    a, b = [[2**25] * 8] * 3, [[2**25 - 1, -(2**25)]] * 8
    assert linalg.matmul(a, b) == ((8 * 2**25 * (2**25 - 1), -(2**53)),) * 3
    assert linalg.matmul(a, [[0, 0]] * 8) == ((0, 0),) * 3
    assert linalg.matmul([], b) == ()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n), max_size=6))))
def test_integer_kernel_is_primitive_and_scales_to_the_nullspace(case):
    ncols, rows = case
    ech = linalg.EchelonForm(ncols)
    ech.add_rows(rows)
    kernel = integer_kernel(ech)
    free = [j for j in range(ncols) if j not in ech.pivot_columns]
    assert len(kernel) == len(free) == ncols - ech.rank
    for f, vec in zip(free, kernel):
        assert all(type(x) is int for x in vec)
        assert gcd(*vec) == 1 and vec[f] > 0
        assert all(vec[j] == 0 for j in free if j != f)
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
    assert ech.nullspace() == kernel
    piv, _ = _reference_rref(rows, ncols)
    assert [[Fraction(x, vec[f]) for x in vec] for f, vec in zip(free, kernel)] \
        == _reference_nullspace(piv, ncols)


def _reference_rank_mod_p(rows, ncols):
    """Plain Gaussian elimination over F_p on Python ints, every row and column."""
    p = P31
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(rank + 1, len(m)):
            m[i] = [(x - m[i][col] * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(-2, 2), st.integers(-P31, P31)), min_size=n, max_size=n),
    min_size=1, max_size=8)))
def test_rank_mod_p_matches_a_plain_reference(rows):
    # small entries make zero rows and rank-deficient matrices common
    ncols = len(rows[0])
    assert linalg.rank_mod_p(rows, ncols) == _reference_rank_mod_p(rows, ncols)


def test_rank_mod_p_matches_the_reference_on_zero_and_deficient_rows():
    rng = np.random.default_rng(3)
    cases = [[[0] * 5] * 4, [[0, 0, 0]], [[0, 1], [0, 2], [0, 0]]]
    for _ in range(20):
        base = rng.integers(-2**40, 2**40, (3, 6)).tolist()
        mix = rng.integers(-5, 6, (4, 3)).tolist()
        cases.append(base + [[sum(c * r[j] for c, r in zip(m, base)) for j in range(6)]
                             for m in mix])
    for rows in cases:
        ncols = len(rows[0])
        assert linalg.rank_mod_p(rows, ncols) == _reference_rank_mod_p(rows, ncols)
    assert linalg.rank_mod_p(cases[0], 5) == 0


# residues 0, 1 and p - 1 at several multiples of p, and entries beyond 2**64
_residue_entries = st.one_of(
    st.sampled_from([k * P31 + r for k in (-3, -1, 0, 1, 2, 5) for r in (0, 1, -1, P31 - 1)]),
    st.integers(2**64, 2**80), st.integers(-2**80, -2**64), st.integers(-3, 3))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 130), st.data())
def test_rank_mod_p_matches_the_reference_across_slot_counts(ncols, data):
    # a few drawn rows and their combinations, so that rows reduce to zero,
    # lead past a pivot or stop on a slot that holds a multiple of p
    base = data.draw(st.lists(st.lists(_residue_entries, min_size=ncols, max_size=ncols),
                              min_size=1, max_size=4))
    weights = data.draw(st.lists(st.lists(st.sampled_from([0, 1, -1, P31, P31 + 1, 2**65]),
                                          min_size=len(base), max_size=len(base)), max_size=4))
    rows = base + [[sum(w * r[j] for w, r in zip(ws, base)) for j in range(ncols)]
                   for ws in weights]
    want = _reference_rank_mod_p(rows, ncols)
    assert linalg.rank_mod_p(rows, ncols) == linalg.rank_mod_p(rows, ncols, None) == want
    assert linalg.rank_mod_p(rows, ncols, 0) == 0
    for upper in range(want):
        assert linalg.rank_mod_p(rows, ncols, upper) == upper


def test_rank_mod_p_matches_the_reference_at_every_width_up_to_130():
    # slots of 8 bytes at one column and of 9 from two on; the third row is
    # the sum of the first two plus multiples of p, so it reduces to zero mod
    # p through slots that hold multiples of p, though not over Q
    for ncols in range(1, 131):
        first = [(j + 1) * (P31 - 1) for j in range(ncols)]
        second = [2**64 + j if j % 3 else -(P31 + 1) for j in range(ncols)]
        third = [a + b + P31 * (j % 5) for j, (a, b) in enumerate(zip(first, second))]
        fourth = [P31 * (j + 2) for j in range(ncols)]
        fourth[-1] += 1
        rows = [first, second, third, fourth]
        want = _reference_rank_mod_p(rows, ncols)
        assert want == min(ncols, 3) and linalg.rank(rows, ncols) == min(ncols, 4)
        assert linalg.rank_mod_p(rows, ncols) == want
        assert linalg.rank_mod_p(rows, ncols, want - 1) == want - 1


def test_rank_mod_p_keeps_its_slots_apart_through_a_long_elimination():
    # 90 dense rows of residues in [0, p) reach rank 90 through up to 89
    # reductions each, and most pivot rows are built from remainders that
    # already took many, so a pivot row folded too little carries from one
    # slot into the next; 30 more rows are combinations of the 90
    rng = np.random.default_rng(7)
    base = [[int(x) for x in row] for row in rng.integers(0, P31, (90, 130))]
    mix = rng.integers(-3, 4, (30, 90)).tolist()
    rows = base + [[sum(c * r[j] for c, r in zip(m, base)) for j in range(130)] for m in mix]
    assert linalg.rank_mod_p(rows, 130) == _reference_rank_mod_p(rows, 130) == 90
    assert linalg.rank_mod_p(rows[::-1], 130) == 90


def test_rank_mod_p_stops_at_the_upper_bound():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], "never read"]
    assert linalg.rank_mod_p(rows, 3, upper=2) == 2
    assert linalg.rank_mod_p(rows[:3], 3, upper=5) == 3
    assert linalg.rank_mod_p([[0, 0, 0], [1, 1, 1]], 3, upper=1) == 1


def test_rank_mod_p_places_a_pivot_between_two_pivot_columns():
    # pivots at columns 0 and 3; the third row reduces to lead in column 2,
    # and the fourth needs that middle pivot row to vanish
    rows = [[1, 2, 0, 3], [0, 0, 0, 1], [1, 2, 5, 7], [0, 0, 10, 1]]
    assert linalg.rank_mod_p(rows, 4) == _reference_rank_mod_p(rows, 4) == 3 == linalg.rank(rows, 4)
    assert linalg.rank_mod_p(rows + [[0, 1, 0, 0]], 4) == 4


def test_rank_mod_p_drops_a_slot_that_holds_a_multiple_of_p():
    # reducing [1, 1, 5, 1] by the pivot row [1, 1, 0, 0] leaves the slots
    # p, p, 5, 1: column 1 holds p itself, and the new pivot is column 2
    rows = [[1, 1, 0, 0], [1, 1, 5, 1], [0, 0, 5, 1], [0, P31, 3 * P31, 0]]
    assert linalg.rank_mod_p(rows, 4) == _reference_rank_mod_p(rows, 4) == 2
    assert linalg.rank_mod_p(rows[:2] + [[0, 0, 5, 2]], 4) == 3
    assert linalg.rank_mod_p([[P31 - 1, P31 + 1], [1, P31 - 1]], 2) == 1


def test_rank_mod_p_pulls_no_row_past_the_upper_bound():
    pulled = []

    def rows():
        for row in ([1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]):
            pulled.append(row)
            yield row
        raise AssertionError("every row was pulled")

    assert linalg.rank_mod_p(rows(), 3, upper=2) == 2
    assert len(pulled) == 3
    pulled.clear()
    assert linalg.rank_mod_p(rows(), 3, upper=0) == 0 and pulled == []


def test_rank_mod_p_refuses_fractions_and_wrong_lengths():
    with pytest.raises(TypeError):
        linalg.rank_mod_p([[1, 0], [0, Fraction(1, 2)]], 2)
    with pytest.raises(TypeError):
        linalg.rank_mod_p(iter([[Fraction(2)]]), 1)
    with pytest.raises(ValueError):
        linalg.rank_mod_p([[1, 0], [0, 1, 0]], 2)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(-2, 2), st.data())
def test_product_is_scalar_matches_the_plain_product(n, k, c, data):
    entries = st.one_of(st.integers(-2, 2), st.integers(-2**40, 2**40))
    mats = [data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
            for _ in range(k)]
    product = mats[0]
    for mat in mats[1:]:
        product = _plain_product(product, mat)
    want = tuple(tuple(c * (i == j) for j in range(n)) for i in range(n))
    assert linalg.product_is_scalar(mats, c) == (tuple(map(tuple, product)) == want)
    # an exact scalar product, and the same with one entry off by one
    eye = [[c * (i == j) for j in range(n)] for i in range(n)]
    one = [[int(i == j) for j in range(n)] for i in range(n)]
    assert linalg.product_is_scalar([eye], c) and linalg.product_is_scalar([one, eye, one], c)
    eye[n - 1][0] += 1
    assert not linalg.product_is_scalar([one, eye], c)


def test_integer_row_passes_python_ints_and_checks_the_rest():
    assert linalg.integer_row((3, -4, 0)) == [3, -4, 0]
    assert linalg.integer_row([True, 2]) == [1, 2]
    assert linalg.integer_row(np.array([2**62, 3], dtype=np.int64)) == [2**62, 3]
    assert linalg.integer_row([Fraction(1, 2), 1]) == [1, 2]
    with pytest.raises(TypeError):
        linalg.integer_row([1, 2.0])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n), max_size=6),
    st.lists(st.lists(st.integers(-3, 3), max_size=6), max_size=6))))
def test_free_column_basis_reads_the_nullspace_off_any_spanning_set(case):
    # the span of the kernel, fed reversed as combinations of its integer
    # basis with zero and repeated members among them, gives back the
    # canonical nullspace
    ncols, rows, weights = case
    ech = linalg.EchelonForm(ncols)
    ech.add_rows(rows)
    kernel = integer_kernel(ech)
    spanning = kernel + [[sum(w * v[j] for w, v in zip(ws, kernel)) for j in range(ncols)]
                         for ws in weights]
    spanning.reverse()
    span = linalg.EchelonForm(ncols)
    span.add_rows(v[::-1] for v in spanning)
    assert linalg.free_column_basis(span) == ech.nullspace()
    piv, _ = _reference_rref(rows, ncols)
    assert linalg.free_column_basis(span) == [linalg.integer_row(v)
                                              for v in _reference_nullspace(piv, ncols)]
