from fractions import Fraction

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
