"""Test oracles for the linear relations among the 14 standard tableau
products: the expanded coefficient system of their monomials in the affine
coordinates x_1..x_8, and its kernel by block elimination with an integer
kernel.  ``octet`` proves the same facts without expanding any such system
(degree 1 by the leading monomials, degree 2 by the closure of a seed
binomial), so these routes are independent of it.
"""

from functools import lru_cache
from math import lcm

from octet import linalg, tableaux as tb


def integer_kernel(ech):
    """The kernel of an echelon form in Python ints: per free column, in
    order, the primitive vector that is positive there."""
    rows = ech._rows
    basis = []
    for f in (j for j in range(ech.ncols) if j not in rows):
        v = [0] * ech.ncols
        v[f] = lcm(*(r[p] for p, r in rows.items() if r[f]))
        for p, r in rows.items():
            v[p] = -r[f] * (v[f] // r[p])
        basis.append(linalg._primitive(v))
    return basis


def polynomial_rows(degree):
    """The coefficient matrix of the degree-d monomials in the 14 standard
    products, expanded in x (degree at most 3): row k holds the coefficients
    of one x-monomial, column j belongs to ``degree_monomials(degree)[j]``.
    Rows that repeat up to sign are kept once, with a positive leading entry,
    and the sparse rows come first; neither changes the kernel."""
    standard = [tb.tableau_polynomial(t) for t in tb.standard_tableaux()]
    monomials = tb.degree_monomials(degree)
    rows = {}
    for j, exps in enumerate(monomials):
        poly = {0: 1}
        for e, f in zip(exps, standard):
            for _ in range(e):
                poly = tb._poly_mul(poly, f)
        for key, c in poly.items():
            rows.setdefault(key, [0] * len(monomials))[j] = c
    distinct = {}
    for row in rows.values():
        sign = 1 if next(x for x in row if x) > 0 else -1
        distinct[tuple(sign * x for x in row)] = None
    return sorted(distinct, key=lambda row: len(row) - row.count(0))


@lru_cache(maxsize=None)
def polynomial_kernel(degree):
    """The linear relations among the degree-d monomials in the 14 standard
    products that hold as polynomial identities: the canonical (RREF) kernel
    basis of ``polynomial_rows(degree)``, exact.  Rows are fed in blocks of
    32; a pending row that the integer kernel of the fed rows annihilates
    lies in their span and is dropped.  Pending rows are tested in order, 32
    at a time, only until the next block is full.  A closing check that the
    returned kernel annihilates every row shows that it is their whole kernel."""
    rows = polynomial_rows(degree)
    ech = linalg.EchelonForm(len(rows[0]))
    block, pending = rows[:32], rows[32:]
    while block:
        ech.add_rows(block)
        kernel = tuple(zip(*integer_kernel(ech)))  # one column per kernel vector
        block = []
        while pending and len(block) < 32:
            chunk, pending = pending[:32], pending[32:]
            products = linalg.matmul(chunk, kernel)
            block += [row for row, image in zip(chunk, products) if any(image)]
        block, pending = block[:32], block[32:] + pending
    if any(map(any, linalg.matmul(rows, kernel))):
        raise ArithmeticError("a polynomial row is not annihilated by the kernel")
    return tuple(map(tuple, ech.nullspace()))
