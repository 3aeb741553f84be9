"""Exact linear algebra over the rationals, by fraction-free integer elimination.

There are no tolerances anywhere.  The central object is :class:`EchelonForm`,
an incrementally maintained reduced row echelon form: rows are fed one at a
time, which lets callers stop sampling once the rank stabilises and doubles
as an exact membership test for row spans.  Inside, every row is a primitive
list of Python ints, so elimination never builds a Fraction; Fractions
appear only where rows come in with rational entries and where results go out.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import Iterable, Sequence


def _integer_row(row: Sequence) -> list[int]:
    """The row times the lcm of its denominators, as Python ints.  Integers,
    numpy ones too, go through ``index`` so they never wrap; floats raise."""
    den = lcm(*(index(x.denominator) for x in row if isinstance(x, Fraction)))
    return [index(x.numerator) * (den // index(x.denominator))
            if isinstance(x, Fraction) else index(x) * den for x in row]


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _combine(row: list[int], prow: list[int], col: int) -> list[int]:
    """Clear ``row[col]`` with ``prow``, whose entry there is positive."""
    g = gcd(prow[col], row[col])
    a, b = prow[col] // g, row[col] // g
    return _primitive([a * x - b * y for x, y in zip(row, prow)])


class EchelonForm:
    """Reduced row echelon form over Q, built row by row.

    Each row is kept as a primitive integer list (its entries have gcd 1)
    whose pivot is positive and whose entries in the other pivot columns are
    zero.  Dividing a row by its pivot gives the usual RREF row, which is
    unique, so every result equals that of elimination over Fractions.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, list[int]] = {}  # pivot column -> primitive row

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    def _reduce(self, row: Sequence) -> list[int]:
        """An integer multiple of the row with every pivot column cleared."""
        row = _integer_row(row)
        if len(row) != self.ncols:
            raise ValueError("row length %d != %d" % (len(row), self.ncols))
        for col in sorted(self._rows):
            if row[col]:
                row = _combine(row, self._rows[col], col)
        return row

    def contains(self, row: Sequence) -> bool:
        return not any(self._reduce(row))

    def add_row(self, row: Sequence) -> bool:
        """Insert a row; returns True iff it enlarged the row span."""
        row = self._reduce(row)
        pivot = next((j for j, x in enumerate(row) if x), None)
        if pivot is None:
            return False
        row = _primitive(row if row[pivot] > 0 else [-x for x in row])
        # keep the form reduced: eliminate the new pivot from older rows
        for col, prow in self._rows.items():
            if prow[pivot]:
                self._rows[col] = _combine(prow, row, pivot)
        self._rows[pivot] = row
        return True

    def add_rows(self, rows: Iterable[Sequence]) -> int:
        added = 0
        for row in rows:
            added += self.add_row(row)
        return added

    def rows(self) -> list[list[Fraction]]:
        """The RREF rows, ordered by pivot column."""
        return [[Fraction(x, r[col]) for x in r] for col, r in sorted(self._rows.items())]

    def nullspace(self) -> list[list[Fraction]]:
        """Canonical kernel basis: one vector per free column, unit there."""
        free = [j for j in range(self.ncols) if j not in self._rows]
        basis = []
        for f in free:
            v = [Fraction(0)] * self.ncols
            v[f] = Fraction(1)
            for p, r in self._rows.items():
                v[p] = Fraction(-r[f], r[p])
            basis.append(v)
        return basis


def rank(rows: Iterable[Sequence], ncols: int) -> int:
    ech = EchelonForm(ncols)
    ech.add_rows(rows)
    return ech.rank


def nullspace(rows: Iterable[Sequence], ncols: int) -> list[list[Fraction]]:
    ech = EchelonForm(ncols)
    ech.add_rows(rows)
    return ech.nullspace()


def solve_right(mat: Sequence[Sequence], rhs: Sequence[Sequence]) -> list[list[Fraction]]:
    """Solve M X = B exactly for square invertible M."""
    n = len(mat)
    aug_cols = len(rhs[0])
    ech = EchelonForm(n + aug_cols)
    for i in range(n):
        ech.add_row(list(mat[i]) + list(rhs[i]))
    if ech.pivot_columns[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    rows = ech.rows()
    return [row[n:] for row in rows[:n]]


def invert(mat: Sequence[Sequence]) -> list[list[Fraction]]:
    n = len(mat)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    return solve_right(mat, eye)
