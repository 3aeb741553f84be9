"""Exact linear algebra over the rationals.

Everything here is exact rational arithmetic on plain Python lists; there are
no tolerances anywhere.  The central object is :class:`EchelonForm`, an
incrementally maintained reduced row echelon form: rows are fed one at a
time, which lets callers stop sampling once the rank stabilises and doubles
as an exact membership test for row spans.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Iterable, Sequence


def _coerce(x) -> Fraction:
    """Fractions pass through; Python and numpy integers become Fractions of
    Python ints (a numpy numerator would wrap); anything else is a TypeError."""
    if isinstance(x, Fraction):
        return x
    return Fraction(index(x))


class EchelonForm:
    """Reduced row echelon form over Q, built row by row."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, list] = {}  # pivot column -> normalized row

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    def _reduce(self, row: Sequence) -> list:
        row = [_coerce(x) for x in row]
        if len(row) != self.ncols:
            raise ValueError("row length %d != %d" % (len(row), self.ncols))
        for col in sorted(self._rows):
            c = row[col]
            if c:
                prow = self._rows[col]
                row = [a - c * b for a, b in zip(row, prow)]
        return row

    def contains(self, row: Sequence) -> bool:
        return not any(self._reduce(row))

    def add_row(self, row: Sequence) -> bool:
        """Insert a row; returns True iff it enlarged the row span."""
        row = self._reduce(row)
        pivot = next((j for j, x in enumerate(row) if x), None)
        if pivot is None:
            return False
        inv = 1 / row[pivot]
        row = [x * inv for x in row]
        # keep the form reduced: eliminate the new pivot from older rows
        for col, prow in self._rows.items():
            c = prow[pivot]
            if c:
                self._rows[col] = [a - c * b for a, b in zip(prow, row)]
        self._rows[pivot] = row
        return True

    def add_rows(self, rows: Iterable[Sequence]) -> int:
        added = 0
        for row in rows:
            added += self.add_row(row)
        return added

    def rows(self) -> list[list[Fraction]]:
        """The RREF rows, ordered by pivot column."""
        return [list(self._rows[col]) for col in sorted(self._rows)]

    def nullspace(self) -> list[list[Fraction]]:
        """Canonical kernel basis: one vector per free column, unit there."""
        pivots = self.pivot_columns
        free = [j for j in range(self.ncols) if j not in self._rows]
        basis = []
        for f in free:
            v = [Fraction(0)] * self.ncols
            v[f] = Fraction(1)
            for p in pivots:
                v[p] = -self._rows[p][f]
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
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return solve_right(mat, eye)
