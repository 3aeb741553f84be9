"""Exact linear algebra over the rationals, by fraction-free integer elimination.

There are no tolerances anywhere, and every number is a Python int or a
Fraction, so no arithmetic wraps or rounds.  The central object is :class:`EchelonForm`,
an incrementally maintained reduced row echelon form: rows are fed one at a
time, and it doubles as an exact membership test for row spans.  Every row it
keeps or returns (RREF rows, kernel vectors) is its primitive integer multiple,
positive at its leading entry, so elimination builds no Fraction; rows may
come in with Fraction entries, and only ``solve_right`` returns Fractions.

:func:`rank_mod_p` is exact arithmetic over the prime field F_p,
p = 2**31 - 1.  The rank it returns is a lower bound on the rank over Q (a minor
that vanishes over Q vanishes mod p), so it can certify that rows reach a
rank, never that they stay below one; an upper bound needs an identity.  It
packs the residues of a row into one int, in linear time, and reduces it on
a shrinking remainder, shifting away each column's slot once it is cleared;
a new pivot row's slots are Mersenne folded all at once, none read out; it
draws no further row once the rank reaches the bound its caller proved.

:func:`matmul` is the integer matrix product, a plain sum of rows, and
:func:`product_is_scalar` compares such a product with a scalar matrix.
Packing values into one int, one slot each, remains only in the kernels
where it was measured to pay: ``rank_mod_p``, ``weil.is_invariant``
(through :func:`pack`) and ``lattices._convolved_count``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import index
from typing import Iterable, Sequence

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
    Beside each row is its support, its nonzero (column, entry) pairs, pivot
    first.  A pivot entry that divides the entry to clear is cleared by the
    quotient times the row over that support alone; any other by ``_combine``.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, list[int]] = {}  # pivot column -> primitive row
        self._supports: dict[int, list[tuple[int, int]]] = {}  # pivot column -> its support

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
        for col, support in self._supports.items():
            if row[col]:
                c, r = divmod(row[col], support[0][1])
                if r:
                    row = _combine(row, self._rows[col], col)
                else:
                    for j, x in support:
                        row[j] -= c * x
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
                self._rows[col] = prow = _combine(prow, row, pivot)
                self._supports[col] = [(j, x) for j, x in enumerate(prow) if x]
        self._rows[pivot] = row
        self._supports[pivot] = [(j, x) for j, x in enumerate(row) if x]
        return True

    def add_rows(self, rows: Iterable[Sequence]) -> int:
        added = 0
        for row in rows:
            added += self.add_row(row)
        return added

    def rows(self) -> list[list[int]]:
        """The RREF rows, ordered by pivot column, each as its primitive
        integer multiple (positive at the pivot)."""
        return [list(r) for _, r in sorted(self._rows.items())]

    def nullspace(self) -> list[list[int]]:
        """Canonical kernel basis: per free column f, in order, the vector
        that is 1 at f, 0 at the other free columns and -r[f] / r[p] at the
        pivot column p of each row r, as its primitive integer multiple: the
        lcm L of the reduced denominators at f, and -r[f] L / r[p] at p."""
        basis = []
        for f in (j for j in range(self.ncols) if j not in self._rows):
            den = lcm(*(r[p] // gcd(r[p], r[f]) for p, r in self._rows.items()))
            v = [0] * self.ncols
            v[f] = den
            for p, r in self._rows.items():
                v[p] = -r[f] * den // r[p]
            basis.append(v)
        return basis


def rank(rows: Iterable[Sequence], ncols: int) -> int:
    ech = EchelonForm(ncols)
    ech.add_rows(rows)
    return ech.rank


def free_column_basis(ech: EchelonForm) -> list[list[int]]:
    """The canonical kernel basis, as ``EchelonForm.nullspace`` gives it, of
    any system whose solution space is the span of the rows fed to ``ech``
    with their columns reversed: the RREF rows, unreversed, ordered by their
    last nonzero column.  The kernel vector of free column f is 1 there and
    0 at the other free columns and at every later one, so reversed it is
    the RREF row with pivot f of the reversed span."""
    return [row[::-1] for row in reversed(ech.rows())]


def solve_right(mat: Sequence[Sequence], rhs: Sequence[Sequence]) -> list[list[Fraction]]:
    """Solve M X = B exactly for square invertible M."""
    n = len(mat)
    aug_cols = len(rhs[0])
    ech = EchelonForm(n + aug_cols)
    for i in range(n):
        ech.add_row(list(mat[i]) + list(rhs[i]))
    if ech.pivot_columns[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(ech.rows()[:n])]


def pack(row: Sequence[int], width: int) -> int:
    """The entries in slots of ``width`` bits, entry j in slot j (signed)."""
    packed = 0
    for x in reversed(row):
        packed = (packed << width) + x
    return packed


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """a @ b for integer matrices given as rows, as a tuple of int tuples:
    each product row sums the rows of b at the nonzero entries of a row of a."""
    zero = (0,) * (len(b[0]) if b else 0)
    out = []
    for row in a:
        total = zero
        for x, brow in zip(row, b):
            if x:
                total = [s + x * y for s, y in zip(total, brow)]
        out.append(tuple(total))
    return tuple(out)


def product_is_scalar(mats: Sequence[Sequence[Sequence[int]]], c: int) -> bool:
    """Whether the product of the square integer matrices ``mats``, left to
    right, is c times the identity."""
    product = reduce(matmul, mats)
    n = len(product)
    return all(list(row) == [c * (i == j) for j in range(n)] for i, row in enumerate(product))


def _pack_residues(residues: Iterable[int], size: int) -> int:
    """Nonnegative entries in slots of ``size`` bytes, entry j in slot j, in
    time linear in the row: their bytes, joined."""
    return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in residues), "little")


def rank_mod_p(rows: Iterable[Sequence[int]], ncols: int, upper: int | None = None) -> int:
    """Rank over F_p, p = 2**31 - 1, of integer rows: a lower bound on their
    rank over Q.  Rows are drawn one at a time, and none once the rank
    reaches ``upper`` (default ``ncols``), an upper bound the caller has proved.

    A row is packed, one slot per column, with residues in [0, p), and
    reduced on a shrinking remainder whose low slot is the current column c:
    a nonzero residue a there is cleared by adding (p - a) times the pivot
    row of c, and the slot is shifted away.  Reduction ends when the
    remainder is 0, or at the first column whose residue a is nonzero and
    which has no pivot row: the remainder times 1/a becomes its pivot row,
    stored from c on, with a residue of 1 in its low slot.  Every slot stays
    nonnegative, so a shift drops the low slot exactly, even when it holds a
    nonzero multiple of p.  A fold, through two masks, turns every slot x
    into (x mod 2**31) + (x >> 31), congruent to x as 2**31 = 1 mod p; three
    (more only from 2**25 columns on) bring any slot to at most 2**31, before
    and after the product with 1/a.  So each pivot adds below 2**31 p < 2**62
    to a slot, and slots of 63 + log2(ncols) bits, in whole bytes, never
    carry.  Rows are packed through bytes, in time linear in the row, so
    one int operation reduces a whole row against a pivot.
    """
    p = MERSENNE_31
    upper = ncols if upper is None else upper
    size = (63 + ncols.bit_length() + 7) // 8
    width, mask = 8 * size, (1 << 8 * size) - 1
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * ncols, "little")  # 1 in every slot
    low, high = p * ones, ((1 << width - 31) - 1) * ones
    folds, bound = 0, mask  # until a slot below 2**width is at most 2**31
    while bound > 1 << 31:
        folds, bound = folds + 1, p + (bound >> 31)

    def fold(packed: int) -> int:
        for _ in range(folds):
            packed = (packed & low) + (packed >> 31 & high)
        return packed

    pivots = [0] * ncols  # per column: its pivot row from that column on, or 0
    rank = 0
    if upper <= 0:
        return rank
    for row in rows:
        if len(row) != ncols:
            raise ValueError("row length %d != %d" % (len(row), ncols))
        packed = _pack_residues([index(x) % p for x in row], size)
        col = 0
        while packed:
            a = (packed & mask) % p
            if a:
                pivot = pivots[col]
                if not pivot:
                    pivots[col] = fold(fold(packed) * pow(a, -1, p))
                    rank += 1
                    if rank == upper:
                        return rank
                    break
                packed += (p - a) * pivot
            packed >>= width
            col += 1
    return rank
