"""Exact linear algebra over the rationals, by fraction-free integer elimination.

There are no tolerances anywhere.  The central object is :class:`EchelonForm`,
an incrementally maintained reduced row echelon form: rows are fed one at a
time, and it doubles as an exact membership test for row spans.  Inside,
every row is a primitive list of Python ints, so neither elimination nor the
integer kernel (one primitive vector per free column) builds a Fraction;
Fractions appear only where rows come in with rational entries and where
results go out, as in ``nullspace``.

:func:`rank_mod_p` is exact arithmetic over the prime field F_p,
p = 2**31 - 1, in numpy int64.  The rank it returns is a lower bound on the rank over Q (a minor
that vanishes over Q vanishes mod p), so it can certify that rows reach a
rank, never that they stay below one; an upper bound needs an identity.

:func:`exact_matmul` multiplies integer arrays in float64 BLAS, exactly: it
raises OverflowError unless n max|x| max|y| < 2**53 bounds every partial sum.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import Iterable, Sequence

import numpy as np

MERSENNE_31 = 2**31 - 1


def integer_row(row: Sequence) -> list[int]:
    """The row times the lcm of its denominators, as Python ints.  A row of
    Python ints comes back as it is; other integers, numpy ones too, go
    through ``index`` so they never wrap; floats raise."""
    if set(map(type, row)) <= {int}:
        return list(row)
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
        row = integer_row(row)
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

    def integer_kernel(self) -> list[list[int]]:
        """Kernel basis in Python ints: per free column, in order, the
        primitive vector that is positive there."""
        basis = []
        for f in (j for j in range(self.ncols) if j not in self._rows):
            v = [0] * self.ncols
            v[f] = lcm(*(r[p] for p, r in self._rows.items() if r[f]))
            for p, r in self._rows.items():
                v[p] = -r[f] * (v[f] // r[p])
            basis.append(_primitive(v))
        return basis

    def nullspace(self) -> list[list[Fraction]]:
        """Canonical kernel basis: ``integer_kernel`` scaled to 1 at each free column."""
        free = [j for j in range(self.ncols) if j not in self._rows]
        return [[Fraction(x, v[f]) for x in v] for f, v in zip(free, self.integer_kernel())]


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


def rank_mod_p(rows: Iterable[Sequence[int]], ncols: int) -> int:
    """Rank over F_p, p = 2**31 - 1, of integer rows: a lower bound on their
    rank over Q.

    Gaussian elimination on residues in [0, p) in numpy int64.  A pivot clears
    only the rows below it that are nonzero in its column, from that column on
    (the entries skipped are zero): row x with entry a becomes
    (x + (p - a) * pivot row) mod p, below 2**63 before reduction.
    """
    p = MERSENNE_31
    m = np.array([[index(x) % p for x in row] for row in rows],
                 dtype=np.int64).reshape(-1, ncols)
    rank = 0
    for col in range(ncols):
        nonzero = rank + np.flatnonzero(m[rank:, col])
        if not len(nonzero):
            continue
        m[[rank, nonzero[0]]] = m[[nonzero[0], rank]]
        pivot_row = m[rank, col:] * pow(int(m[rank, col]), -1, p) % p
        hit = nonzero[1:]  # rows the swap left in place
        m[hit, col:] = (m[hit, col:] + (p - m[hit, col, None]) * pivot_row) % p
        rank += 1
        if rank == len(m):
            break
    return rank


def abs_max(*arrays) -> int:
    """The largest |entry| of the arrays, as a Python int (0 if all are empty)."""
    return max(max(int(a.max(initial=0)), -int(a.min(initial=0))) for a in arrays)


def check_float_exact(bound: int) -> None:
    """Raise OverflowError unless bound < 2**53: integers up to it are exact in float64."""
    if bound >= 2**53:
        raise OverflowError("entries too large for exact float64 arithmetic")


def exact_matmul(x, y) -> np.ndarray:
    """x @ y of integer arrays, multiplied in float64 BLAS; a float64 result.

    Raises OverflowError unless n max|x| max|y| < 2**53 for the inner
    dimension n.  Under that bound every product and every partial sum is an
    integer below 2**53 in size, exactly represented, so the result is exact
    whatever the summation order or FMA use.
    """
    x, y = np.asarray(x), np.asarray(y)
    check_float_exact(x.shape[-1] * abs_max(x) * abs_max(y))
    return np.matmul(x.astype(np.float64, copy=False), y.astype(np.float64, copy=False))
