from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octet import linalg


def test_rank_and_nullspace_small():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.rank(rows, 3) == 2
    ns = linalg.nullspace(rows, 3)
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
    inv = linalg.invert(mat)
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    with pytest.raises(ValueError):
        linalg.solve_right([[1, 2], [2, 4]], [[1], [0]])


def test_numpy_integers_do_not_wrap():
    # Fractions built on int64 numerators would wrap 2**62 * 2**62 to 0
    inv = linalg.invert(np.array([[2**62, 1], [1, 2**62]], dtype=np.int64))
    assert inv[0][0] == Fraction(2**62, 2**124 - 1)


def test_floats_rejected():
    ech = linalg.EchelonForm(2)
    with pytest.raises(TypeError):
        ech.add_row([0.5, 1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=1, max_size=6))
def test_nullspace_annihilates_rows(rows):
    ns = linalg.nullspace(rows, 4)
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
    assert ech.rows() == [piv[c] for c in sorted(piv)]
    assert ech.nullspace() == _reference_nullspace(piv, ncols)
    assert all(ech.contains(r) for r in rows)
    assert ech.contains(probe) == _reference_contains(piv, probe)
    # stored rows: primitive integers, positive pivot, zero at other pivots
    for col, row in ech._rows.items():
        assert all(type(x) is int for x in row)
        assert row[col] > 0 and gcd(*row) == 1
        assert all(row[c] == 0 for c in ech._rows if c != col)
