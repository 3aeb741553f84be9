"""Integer-lattice calculus: Gram matrices, discriminant forms, the order-4
isometry and its Gaussian hermitian structure, reflections, and glue.

Lattices are integer Gram matrices on a chosen basis; vectors are integer
coordinate columns.  Matrices are tuples of rows and every entry is a Python
int, so no product can wrap; products go through ``linalg.matmul``.  Two
integer algorithms do the exact work, once per Gram matrix G: the leading
principal minors of one fraction-free elimination give det and signature
(Jacobi's sign rule), and one Smith form U G V = D, checked as an identity,
gives the dual mod the lattice (``_dual_classes``).  Table 1 reads every
invariant off the orthogonal summands of its lattices, so there the two
algorithms run once per atom (U, D4, E8, ...).  Every
finite quadratic form in use is 2-elementary, so a form lives on F2^a in the
bitmask idiom of ``f2geom``: one integer table of 2q mod 4, built from the
Gram matrix of the doubled generators, on which isomorphisms are searched by
table lookups.  The pairing is the polarization of q, so the table fixes it.

N = U + U(2) + D4 + D4 has its D4 blocks inside Z^4 (even-sum vectors,
negated standard product), where the order-4 isometry rho is defined.  A dual
vector y is handled as the integer vector 2y; its class in the dual mod N is
read off by Smith rows mod 2, and carried to the
64-vector model through the split dictionary: the 64-entry
``f2geom.linear_table`` of the isometry that ``find_isomorphism`` finds from
the form of N onto the form of the model, q4 = 2q of ``f2geom``.

The reflections of a norm -2 vector r (s_r, s_{rho r}, the pair and the
quarter reflection) are I + V A V^T G, V = [r, rho r], for 2x2 matrices A; as
rho is skew of square -1 and G(1 + rho) is even, their identities reduce to
exact 2x2 identities in A: ``reflection_family_check`` covers every norm -2
vector of N, not a box.  The norm -4 correspondence r <-> r + rho r and the
quotient map phi are read off the same integer identities of rho
(``_rho_identities``), so they too hold for every vector of N.
``box_counts`` counts box vectors by norm from per-block norm histograms,
built by nested coordinate loops and convolved by one product of ints.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import mul
from typing import NamedTuple

from . import f2geom
from .linalg import matmul

QQ = Fraction
Matrix = tuple[tuple[int, ...], ...]


def _eye(n: int, scale: int = 1) -> Matrix:
    return tuple(tuple(scale * (i == j) for j in range(n)) for i in range(n))


def _transpose(mat) -> Matrix:
    return tuple(zip(*mat))


def _scaled(k: int, mat) -> Matrix:
    return tuple(tuple(k * x for x in row) for row in mat)


def _add(*mats) -> Matrix:
    """The entrywise sum of matrices of one shape."""
    return tuple(tuple(map(sum, zip(*rows))) for rows in zip(*mats))


def _image(mat, vec) -> tuple[int, ...]:
    """mat @ vec."""
    return tuple(sum(map(mul, row, vec)) for row in mat)


def _outer(x, y) -> Matrix:
    return tuple(tuple(a * b for b in y) for a in x)


def _even(mat) -> bool:
    return not any(x % 2 for row in mat for x in row)


# ---------------------------------------------------------------------------
# Gram matrices


def _dn_basis(n: int) -> Matrix:
    """Basis rows of the index-2 even sublattice of Z^n (coordinate model):
    e_i - e_(i+1) for i < n, then e_(n-1) + e_n."""
    return tuple(tuple(int(j == i) - int(j == i + 1) for j in range(n)) for i in range(n - 1)) \
        + (tuple(int(j >= n - 2) for j in range(n)),)


def _gram_Dn(n: int) -> Matrix:
    basis = _dn_basis(n)
    return _scaled(-1, matmul(basis, _transpose(basis)))


_E8_CARTAN = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)


class GramLattice(NamedTuple):
    name: str
    gram: Matrix

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> int:
        return (_gram_minors(self.gram) or (1,))[-1]

    def is_even(self) -> bool:
        return all(row[i] % 2 == 0 for i, row in enumerate(self.gram))

    def signature(self) -> tuple[int, int]:
        return signature(self.gram)


_ATOMS = {"U": lambda: ((0, 1), (1, 0)), "A1": lambda: ((-2,),),
          "D4": lambda: _gram_Dn(4), "D6": lambda: _gram_Dn(6),
          "D8": lambda: _gram_Dn(8), "D10": lambda: _gram_Dn(10),
          "E8": lambda: _scaled(-1, _E8_CARTAN)}

_TOKEN = re.compile(r"^(U|A1|D4|D6|D8|D10|E8)(?:\((-?\d+)\))?(?:\^(\d+))?$")


def _summands(name: str) -> list[tuple[str, int]]:
    """The orthogonal summands of a name like "U+U(2)+D4+D4" or
    "A1(-1)^2+A1^4", one (atom, scale) per block, in order."""
    blocks = []
    for token in name.replace(" ", "").split("+"):
        m = _TOKEN.match(token)
        if not m:
            raise ValueError("unknown lattice token %r" % token)
        base, scale, power = m.groups()
        blocks += [(base, 1 if scale is None else int(scale))] * (int(power) if power else 1)
    return blocks


@lru_cache(maxsize=None)
def _atom_gram(base: str, scale: int) -> Matrix:
    """The Gram matrix of one atom, such as U(2) or A1(-1) (cached)."""
    return _scaled(scale, _ATOMS[base]())


def named_lattice(name: str) -> GramLattice:
    """Parse names like "U+U(2)+D4+D4" or "A1(-1)^2+A1^4" into a Gram matrix."""
    lattice = GramLattice(name=name.replace(" ", ""),
                          gram=direct_sum_grams([_atom_gram(*b) for b in _summands(name)]))
    if lattice.det() == 0:
        raise ValueError("degenerate lattice %r" % name)
    return lattice


def direct_sum_grams(blocks) -> Matrix:
    n, pos, out = sum(map(len, blocks)), 0, []
    for b in blocks:
        out += [(0,) * pos + tuple(row) + (0,) * (n - pos - len(b)) for row in b]
        pos += len(b)
    return tuple(out)


def _leading_minors(gram) -> list[int]:
    """The leading principal minors d_1, ..., d_n of a symmetric integer
    matrix after symmetric pivoting, by fraction-free (Bareiss) elimination
    on Python ints.

    A zero pivot is swapped with a later nonzero diagonal entry, or else row
    and column j are added to row and column i for some j with a nonzero entry
    in row i.  Both are congruences by matrices of determinant +-1, so they
    keep det and inertia, and they act on the trailing block as on the matrix,
    since its entries are minors bordered by one row and one column.  Once a
    row of the trailing block vanishes the form is degenerate, and the
    remaining minors are 0.
    """
    a = [[int(x) for x in row] for row in gram]
    n = len(a)
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("leading minors are taken of a symmetric matrix")
    minors, prev = [], 1
    for i in range(n):
        if a[i][i] == 0:
            j = next((k for k in range(i + 1, n) if a[k][k]), None)
            if j is not None:
                a[i], a[j] = a[j], a[i]
                for row in a:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((k for k in range(i + 1, n) if a[i][k]), None)
                if j is None:
                    return minors + [0] * (n - i)
                a[i] = [x + y for x, y in zip(a[i], a[j])]
                for row in a:
                    row[i] += row[j]
        pivot = a[i][i]
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * pivot - a[r][i] * a[i][c]) // prev
        minors.append(pivot)
        prev = pivot
    return minors


@lru_cache(maxsize=None)
def _gram_minors(gram: Matrix) -> tuple[int, ...]:
    """``_leading_minors`` of a Gram matrix given as int tuples, eliminated
    once per matrix (cached): det, signature and discriminant_form read them."""
    return tuple(_leading_minors(gram))


def signature(gram) -> tuple[int, int]:
    """(positive, negative) inertia.  By Jacobi's rule, as every leading minor
    is nonzero, the negative index is the number of sign changes along
    1, d_1, ..., d_n."""
    minors = _gram_minors(tuple(map(tuple, gram)))
    if 0 in minors:
        raise ValueError("degenerate form")
    neg = sum(x * y < 0 for x, y in zip((1,) + minors, minors))
    return len(minors) - neg, neg


# ---------------------------------------------------------------------------
# Smith normal form over Z


def smith_normal_form(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (D, U, V) with U @ mat @ V = D diagonal, U and V unimodular.

    Diagonal entries are nonnegative and satisfy the divisibility chain.
    Plain Python integers throughout, so no overflow is possible.
    """
    a = [[int(x) for x in row] for row in mat]
    n = len(a)
    m = len(a[0]) if n else 0
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    while t < min(n, m):
        # locate the smallest nonzero entry in the trailing block
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    addmul_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        swap_rows(t, i)
                    dirty = True
            for j in range(t + 1, m):
                if a[t][j]:
                    addmul_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
                    dirty = True
            if not dirty:
                break
        # enforce divisibility of the remaining block by the pivot
        stray = next(((i, j) for i in range(t + 1, n) for j in range(t + 1, m)
                      if a[i][j] % a[t][t]), None)
        if stray is not None:
            addmul_row(t, stray[0], 1)
            continue
        t += 1
    for i in range(min(n, m)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return a, u, v


# ---------------------------------------------------------------------------
# discriminant forms


class FiniteQuadraticForm(NamedTuple):
    """A 2-elementary finite quadratic form on F2^a, as an integer table.

    An element is an a-bit integer x, bit i the coefficient of generator i,
    and addition is XOR.  ``q4[x] = 2q(x) mod 4`` for the form value q(x) in
    Q/2Z, an integer because 2x = 0 puts q in (1/2)Z/2Z.  The pairing b(x, y)
    in (1/2)Z/Z is the polarization, 2b(x, y) = (q4[x ^ y] - q4[x] - q4[y]) / 2
    mod 2 (Nikulin 1979, §1), so the table is the whole form.
    """

    q4: tuple[int, ...]

    @classmethod
    def from_doubled_gram(cls, gram) -> "FiniteQuadraticForm":
        """The form whose generators g_i have doubles 2g_i with the even Gram
        matrix ``gram``: for bit vectors x, 2q(x) = x^T gram x / 2 mod 4.  The
        table grows one generator at a time: for x in the span of the earlier
        ones, 2q(x + g_i) = 2q(x) + 2q(g_i) + 2 * 2b(x, g_i) mod 4, where
        2b(x, g_i) = x^T gram g_i / 2 mod 2 is bit i of a XOR of bitmask rows."""
        if not _even(gram):
            raise ValueError("a doubled Gram matrix of a 2-elementary form is even")
        # bit j of gen_rows[i] is 2b(g_i, g_j) = gram[i][j] / 2 mod 2
        gen_rows = [sum((x // 2 % 2) << j for j, x in enumerate(row)) for row in gram]
        rows = f2geom.linear_table(gen_rows)  # per element x: 2b(x, .) as a bitmask
        q4 = [0]  # per element x below 2^i: 2q(x) mod 4
        for i, row in enumerate(gram):
            q4 += [(v + row[i] // 2 + 2 * (r >> i & 1)) % 4 for v, r in zip(q4, rows)]
        return cls(tuple(q4))

    @property
    def rank(self) -> int:
        """a, the dimension of the group over F2."""
        return len(self.q4).bit_length() - 1

    @property
    def orders(self) -> tuple[int, ...]:
        return (2,) * self.rank

    def neg(self) -> "FiniteQuadraticForm":
        return FiniteQuadraticForm(tuple(-v % 4 for v in self.q4))


@lru_cache(maxsize=None)
def _dual_classes(gram: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """The dual mod the lattice of an even Gram matrix G, from one Smith form
    U G V = D (cached per matrix): the rows of U mod 2 at the invariant
    factors 2, which read the class bits of a dual vector y off Gy; the
    matching columns v_k of V, the doubled generators (G v_k = 2 U^{-1} e_k,
    so the dual is Z^n + sum Z v_k/2); and their Gram matrix.  U G V = D is
    checked as an identity: with D diagonal, its entries 1 or 2, and 2^a =
    |det G| for a factors 2, U and V are unimodular and the dual mod the
    lattice is F2^a.  Raises ValueError unless G is nondegenerate and even
    with a 2-elementary dual mod it."""
    det = (_gram_minors(gram) or (1,))[-1]
    if det == 0 or any(row[i] % 2 for i, row in enumerate(gram)):
        raise ValueError("only nondegenerate even lattices carry a Q/2Z-valued form")
    d, u, v = smith_normal_form(gram)
    diag = [row[k] for k, row in enumerate(d)]
    if matmul(matmul(u, gram), v) != tuple(tuple(x * (j == k) for j in range(len(d)))
                                          for k, x in enumerate(diag)):
        raise ArithmeticError("U G V is not the diagonal Smith form D")
    if not set(diag) <= {1, 2}:
        raise ValueError("the discriminant group is not 2-elementary")
    bits = tuple(tuple(y % 2 for y in row) for row, x in zip(u, diag) if x == 2)
    doubled = tuple(col for col, x in zip(zip(*v), diag) if x == 2)
    if 2 ** len(doubled) != abs(det):
        raise ArithmeticError("discriminant group order does not match |det|")
    return bits, doubled, matmul(matmul(doubled, gram), _transpose(doubled))


def discriminant_form(lattice: GramLattice) -> FiniteQuadraticForm:
    """The finite quadratic form on dual-mod-lattice, from the Gram matrix
    of its doubled generators (``_dual_classes``)."""
    return FiniteQuadraticForm.from_doubled_gram(_dual_classes(lattice.gram)[2])


def _summand_invariants(name: str) -> tuple[int, tuple[int, int], FiniteQuadraticForm]:
    """(rank, signature, discriminant form) of a named lattice, from its
    summands: ranks and signatures add, and the discriminant form of an
    orthogonal sum is the orthogonal sum of the forms (Nikulin 1979, §1),
    the form of the block-diagonal doubled Gram matrices.  Each atom is
    eliminated once for its signature and Smith-reduced once for its form;
    no Gram matrix of the sum is built."""
    blocks = _summands(name)
    grams = [_atom_gram(*b) for b in blocks]
    pos, neg = map(sum, zip(*map(signature, grams)))
    form = FiniteQuadraticForm.from_doubled_gram(
        direct_sum_grams([_dual_classes(gram)[2] for gram in grams]))
    return sum(map(len, grams)), (pos, neg), form


def find_isomorphism(a: FiniteQuadraticForm, b: FiniteQuadraticForm):
    """Search for an isomorphism of 2-elementary forms.

    Returns the images in b of the generators of a, as bitmasks, or None.
    Backtracking extends a linear map one generator g_i at a time: the image
    of g_i lies outside the span of the earlier images (a bitmask of the
    span), and q4 must agree on the whole new coset x + g_i.  A complete map
    thus carries q4 of a onto that of b at every element, and with it the
    pairing, the polarization of q4.  Forms of different rank or with
    different counts of each value are not isomorphic, and are not searched.
    """
    if a.rank != b.rank or sorted(a.q4) != sorted(b.q4):
        return None

    def extend(images, span):
        if len(images) == a.rank:
            return images
        image = f2geom.linear_table(images)  # on the span of the generators placed so far
        top = len(image)
        for cand in range(1, len(b.q4)):
            if not (span >> cand) & 1 and all(b.q4[image[x] ^ cand] == a.q4[top | x]
                                              for x in range(top)):
                found = extend(images + [cand], span | sum(1 << (z ^ cand) for z in image))
                if found is not None:
                    return found
        return None

    return extend([], 1)


# ---------------------------------------------------------------------------
# the split-model dictionary


@lru_cache(maxsize=None)
def _split_model_form() -> FiniteQuadraticForm:
    """The 64-vector model of ``f2geom`` as a form: q4 = 2q."""
    return FiniteQuadraticForm(tuple(2 * bit for bit in f2geom.Q_TABLE))


def identify_with_split_model(form: FiniteQuadraticForm) -> tuple[int, ...]:
    """Identify a form with the three-plane model by ``find_isomorphism``: the
    64-entry table whose entry x is the model vector of the element x.

    Raises ValueError when there is no isometry: the form has the wrong rank,
    takes half-integer values, or is not split.
    """
    images = find_isomorphism(form, _split_model_form())
    if images is None:
        raise ValueError("the form is not isomorphic to the split model")
    return f2geom.linear_table(images)


# ---------------------------------------------------------------------------
# overlattices


def overlattice(lattice: GramLattice, glue) -> GramLattice:
    """Adjoin a glue vector (rational coordinates, 2*glue integral).

    The glue must pair integrally with the lattice and have even self
    intersection, so the extension is again an even integral lattice.
    """
    glue = [QQ(x) for x in glue]
    n = lattice.rank
    gram = lattice.gram
    pair_with_basis = [sum(gram[i][j] * glue[j] for j in range(n)) for i in range(n)]
    if any(x.denominator != 1 for x in pair_with_basis):
        raise ValueError("glue vector does not pair integrally with the lattice")
    self_int = sum(glue[i] * gram[i][j] * glue[j] for i in range(n) for j in range(n))
    if self_int.denominator != 1 or int(self_int) % 2:
        raise ValueError("glue vector has non-even self intersection")
    if any((2 * x).denominator != 1 for x in glue):
        raise ValueError("glue must satisfy 2*glue in the lattice")
    doubled = [int(2 * (x % 1)) for x in glue]  # 2g' for g' = glue mod Z^n, entries 0 or 1
    if not any(doubled):
        return lattice  # glue already inside
    # e_k = 2g' - (sum of the other e_i with doubled[i] = 1) for the first k
    # with doubled[k] = 1: the other e_i and g' are a basis of Z^n + Z glue
    k = doubled.index(1)
    basis2 = [[2 * int(i == j) for j in range(n)] for i in range(n) if i != k] + [doubled]
    gram4 = matmul(matmul(basis2, gram), _transpose(basis2))  # on a basis of 2*(new lattice)
    if any(x % 4 for row in gram4 for x in row):
        raise ArithmeticError("overlattice Gram is not integral")
    result = GramLattice(name=lattice.name + "+glue",
                         gram=tuple(tuple(x // 4 for x in row) for row in gram4))
    if not result.is_even():
        raise ArithmeticError("overlattice is not even")
    return result


# ---------------------------------------------------------------------------
# the rank-12 lattice and its order-4 isometry

N_NAME = "U+U(2)+D4+D4"
M_NAME = "U(2)+D4+D4"
E_MINUS_F = (1, -1) + (0,) * 10  # a norm -2 vector of N


def glued_overlattice() -> GramLattice:
    """U + A1^8 with the glue vector half the sum of the A1 generators."""
    return overlattice(named_lattice("U+A1^8"), [0, 0] + [QQ(1, 2)] * 8)


@lru_cache(maxsize=None)
def lattice_N() -> GramLattice:
    return named_lattice(N_NAME)


@lru_cache(maxsize=None)
def lattice_M() -> GramLattice:
    return named_lattice(M_NAME)


def _rho1_block() -> Matrix:
    """Order-4 isometry of U + U(2) on the basis (e, f, e', f').

    Images: e -> -e-e', f -> f-f', e' -> e'+2e, f' -> 2f-f'.
    """
    cols = [(-1, 0, -1, 0), (0, 1, 0, -1), (2, 0, 1, 0), (0, 2, 0, -1)]
    return _transpose(cols)


def _rho0_block() -> Matrix:
    """Order-4 isometry of the D4 coordinate model on its basis.

    The ambient action R: (x1,x2,x3,x4) -> (x2,-x1,x4,-x3) keeps the even-sum
    vectors; on basis coordinates it is the matrix M with B^T M = R B^T for
    basis rows B, an integer identity checked here.
    """
    ambient = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
    block = ((-1, 1, 0, 0), (-2, 1, 0, 0), (-1, 0, 0, 1), (-1, 1, -1, 0))
    basis_t = _transpose(_dn_basis(4))
    if matmul(basis_t, block) != matmul(ambient, basis_t):
        raise ArithmeticError("the block is not the ambient action on the D4 basis")
    return block


@lru_cache(maxsize=None)
def order_four_isometry() -> Matrix:
    """The 12x12 integer matrix of the fixed-point-free order-4 isometry, as
    ``_rho_identities`` checks it: skew with square -1 makes it an isometry."""
    return direct_sum_grams([_rho1_block(), _rho0_block(), _rho0_block()])


def isometry_fixed_point_free() -> bool:
    """rho^2 = -1: then rho has order 4, and rho x = x gives x = rho^2 x = -x,
    so x = 0."""
    return _rho_identities()["square_minus_one"]


# ---------------------------------------------------------------------------
# hermitian structure


def inner(x, y) -> int:
    return sum(map(mul, x, _image(lattice_N().gram, y)))


def hermitian_form(x, y) -> tuple[int, int]:
    """h(x, y) as a Gaussian integer (a, b) = a + b*sqrt(-1).

    The real part is <x, y> and the imaginary part <x, rho(y)>; the complex
    structure is (a + b i) x = a x + b rho(x).
    """
    return inner(x, y), inner(x, _image(order_four_isometry(), y))


def hermitian_gram_checks() -> tuple[bool, bool, bool]:
    """Whether the D4 and the U hermitian Gram matrices are the stated ones,
    and whether h(x, x) is real for every x.

    On the first D4 block the complex basis is (1,-1,0,0), (0,1,-1,0) (our
    basis vectors 1 and 2 of that block); on U + U(2) it is (e, f).
    """
    eye = _eye(12)
    d4_gram = [[hermitian_form(x, y) for y in eye[4:6]] for x in eye[4:6]]
    u_gram = [[hermitian_form(x, y) for y in eye[0:2]] for x in eye[0:2]]
    return (d4_gram == [[(-2, 0), (1, -1)], [(1, 1), (-2, 0)]],
            u_gram == [[(0, 0), (1, 1)], [(1, -1), (0, 0)]],
            # h(x, x) is real for every x exactly when rho is skew for G
            _rho_identities()["skew"])


# ---------------------------------------------------------------------------
# class map to the 64-element quadratic space


@lru_cache(maxsize=None)
def split_dictionary() -> tuple[int, ...]:
    """The model vector of each of the 64 classes of the dual mod N, indexed
    by class bits: the identification of the form of N, whose generators
    are those of the Smith form that ``_class_bits`` reads bits against."""
    return identify_with_split_model(discriminant_form(lattice_N()))


def _class_bits(doubled) -> tuple[int, bool]:
    """The class bits of a dual vector y given as the integer vector 2y, and
    whether y lies in the dual, that is whether G(2y) is even: bit k is the
    k-th selected Smith row of U applied to Gy, mod 2."""
    g2 = _image(lattice_N().gram, doubled)
    gy = [x // 2 for x in g2]  # Gy, when y lies in the dual
    rows = _dual_classes(lattice_N().gram)[0]
    bits = sum((sum(map(mul, row, gy)) & 1) << k for k, row in enumerate(rows))
    return bits, not any(x % 2 for x in g2)


def _class_table(isometry) -> tuple[tuple[int, ...], bool]:
    """The permutation of the 64 model vectors induced by an isometry of N
    (through the split dictionary), and whether it keeps the six
    discriminant generators in the dual."""
    images = [_class_bits(_image(isometry, gen)) for gen in _dual_classes(lattice_N().gram)[1]]
    return (f2geom.induced_permutation(split_dictionary(), [bits for bits, _ in images]),
            all(in_dual for _, in_dual in images))


def _acts_as_transvection(isometry, delta) -> tuple[bool, bool]:
    """Whether the class alpha of delta/2 is anisotropic, and whether the
    isometry acts on the 64 classes as the transvection at alpha, compared
    at every class."""
    bits, half_in_dual = _class_bits(delta)
    alpha = split_dictionary()[bits]
    anisotropic = half_in_dual and f2geom.q(alpha) == 1
    table, in_dual = _class_table(isometry)
    return anisotropic, anisotropic and in_dual and table == f2geom.transvection(alpha)


# ---------------------------------------------------------------------------
# reflections


def reflection_identities(r=E_MINUS_F) -> dict:
    """The identities of ``reflection_family_check`` on the integer matrices
    of one norm -2 vector r (default e - f); the quarter reflection is
    x -> x + <r,x>(r - rho r)/2 + <rho r,x>(r + rho r)/2.  A failed condition
    (such as a non-integral quarter reflection) makes the keys that need it False.
    """
    gram, rho, eye = lattice_N().gram, order_four_isometry(), _eye(12)
    gr = _image(gram, r)
    if sum(map(mul, r, gr)) != -2:
        raise ValueError("reflections are defined at norm -2 vectors")
    rr = _image(rho, r)
    grr = _image(gram, rr)

    def isometry(m):
        return matmul(matmul(_transpose(m), gram), m) == gram

    s_r, s_rr = _add(eye, _outer(r, gr)), _add(eye, _outer(rr, grr))  # reflections in r, rho r
    pair = _add(s_r, s_rr, _eye(12, -1))
    orthogonal = not sum(map(mul, r, grr))
    delta = [x + y for x, y in zip(r, rr)]
    doubled = _add(_eye(12, 2), _outer([x - y for x, y in zip(r, rr)], gr), _outer(delta, grr))
    integral = _even(doubled)
    quarter = tuple(tuple(x // 2 for x in row) for row in doubled)
    square = matmul(quarter, quarter)
    anisotropic, transvection = _acts_as_transvection(quarter, delta)
    return {
        "pair_equals_composition": orthogonal and pair == matmul(s_r, s_rr),
        "quarter_is_isometry": integral and isometry(quarter),
        "quarter_order_4": integral and matmul(square, square) == eye and square != eye,
        "quarter_commutes_with_rho": integral and matmul(quarter, rho) == matmul(rho, quarter),
        "alpha_is_anisotropic": anisotropic,
        "induces_transvection": integral and transvection,
        "pair_is_isometry": isometry(pair),
    }


QUARTER_COEFFICIENTS = ((QQ(1, 2), QQ(1, 2)), (QQ(-1, 2), QQ(1, 2)))  # C


def reflection_family_check() -> bool:
    """The reflection identities of every norm -2 vector r of N, by a lemma on
    the maps M_A = I + V A V^T G, V = [r, rho r]: s_r, s_{rho r}, the pair and
    the quarter reflection Q have A = diag(1, 0), diag(0, 1), I and C.

    Gamma = V^T G V is -2I at every r, as <r, r> = -2 and rho is skew with
    rho^2 = -1.  So M_A M_B = M_(A + B + A Gamma B), M_A is an isometry when
    A + A^T + A^T Gamma A = 0, and A != 0 gives M_A != I (Gamma invertible).
    rho V = V J and V^T G rho = J V^T G, J = [[0, -1], [1, 0]]: M_A commutes
    with rho when AJ = JA.  With E = C - [[1, 1], [1, 1]]/2 integral and
    delta = r + rho r, Q - I = delta <delta, .>/2 + V E V^T G, integral as
    G(1 + rho) is even; the class alpha of delta/2 has q = (sum of Gamma)/4 =
    -1, odd, and Q acts on the dual mod N as x -> x + <delta, x> delta/2, that
    is ``f2geom.transvection(alpha)`` under the split dictionary.  Every step
    is an identity of rho or of exact 2x2 Fraction matrices.
    """
    ids = _rho_identities()
    eye, j, c = ((1, 0), (0, 1)), ((0, -1), (1, 0)), QUARTER_COEFFICIENTS
    plane, gamma = ids["skew"] and ids["square_minus_one"], _eye(2, -2)  # Gamma at every r
    injective = plane and gamma[0][0] * gamma[1][1] != gamma[0][1] * gamma[1][0]

    def product(a, b):  # of 2x2 matrices of Fractions
        return tuple(tuple(sum(map(mul, row, col)) for col in zip(*b)) for row in a)

    def compose(a, b):
        return _add(a, b, product(product(a, gamma), b))

    def isometric(a):
        return plane and not any(map(any, _add(a, _transpose(a),
                                               product(product(_transpose(a), gamma), a))))

    integral = ids["half_sum_dual"] and all((2 * x - 1) % 2 == 0 for row in c for x in row)
    anisotropic = plane and ids["half_sum_dual"] and QQ(sum(map(sum, gamma)), 4) % 2 == 1
    return all({
        "pair_equals_composition": plane and compose(((1, 0), (0, 0)), ((0, 0), (0, 1))) == eye,
        "quarter_is_isometry": integral and isometric(c),
        "quarter_order_4": integral and injective and any(map(any, eye))
        and compose(c, c) == eye and not any(map(any, compose(eye, eye))),
        "quarter_commutes_with_rho": integral and plane and product(c, j) == product(j, c),
        "alpha_is_anisotropic": anisotropic,
        "induces_transvection": integral and anisotropic,
        "pair_is_isometry": isometric(eye),
    }.values())


# ---------------------------------------------------------------------------
# identities of rho


@lru_cache(maxsize=None)
def _rho_identities() -> dict:
    """The integer matrix identities of rho that several checks report.

    skew: rho^T G = -G rho, i.e. <x, rho x> = 0 and h(x, x) real;
    half_sum_dual: G(1 + rho) even, i.e. (x + rho x)/2 lies in the dual;
    square_minus_one: rho^2 = -1;
    quotient_trivial: (1 - rho) maps the dual into N, i.e. carries each doubled
    generator v_k of ``_dual_classes`` to an even vector, as the dual is
    Z^12 + sum Z v_k/2;
    round_trip: (1 + rho)(1 - rho) = 2, i.e. phi((1 - rho)x) = x.
    """
    rho = order_four_isometry()
    gram = lattice_N().gram
    plus, minus = _add(_eye(12), rho), _add(_eye(12), _scaled(-1, rho))
    return {
        "skew": matmul(_transpose(rho), gram) == _scaled(-1, matmul(gram, rho)),
        "half_sum_dual": _even(matmul(gram, plus)),
        "square_minus_one": matmul(rho, rho) == _eye(12, -1),
        "quotient_trivial": _even(matmul(minus, _transpose(_dual_classes(gram)[1]))),
        "round_trip": matmul(plus, minus) == _eye(12, 2),
    }


# ---------------------------------------------------------------------------
# the phi map and the quotient comparison

def phi_map_check() -> dict:
    """phi(x) = (x + rho x)/2 maps onto the dual and identifies the quotients.

    Exact matrix identities give phi(N) inside the dual and phi((1-i)x) = x,
    so phi induces an F2-linear map from N/(1-i)N, of order the index of
    (1-i)N = (I - rho)Z^12, to the 64 classes of the dual mod N.  As
    (1 + rho)(1 - rho) = 2, every invariant factor of I - rho divides 2; as
    rho(1 - rho) = 1 + rho and rho^2 = -1 gives det rho = +-1, det(1 - rho)^2 =
    det 2I = 2^12, so the index is 64.  The map is then a bijection exactly
    when the classes of phi(e_1), ..., phi(e_12) span F2^6.
    """
    rho = order_four_isometry()
    identities = _rho_identities()
    # column i of I + rho is 2 phi(e_i) = e_i + rho e_i
    classes = [_class_bits(col) for col in _transpose(_add(_eye(12), rho))]
    return {
        "into_dual": identities["half_sum_dual"],
        "inverse_identity": identities["round_trip"],
        "rho_trivial_on_quotient": identities["quotient_trivial"],
        "bijective": identities["square_minus_one"] and identities["round_trip"]
        and all(in_dual for _, in_dual in classes)
        and len(f2geom.echelon_basis([bits for bits, _ in classes])) == 6,
    }


# ---------------------------------------------------------------------------
# the norm -4 correspondence and box counts

_BLOCK_SLICES = (slice(0, 4), slice(4, 8), slice(8, 12))


def _block_histograms(g, bound: int) -> tuple[Counter, Counter]:
    """Norm histograms of a 4x4 Gram block g over [-bound, bound]^4: of every
    point x, and of the points with g x even.  The loops carry the partial
    norm and the parities of g x, a bitmask that gains column k of g when x_k
    is odd; in the last coordinate the norm is n + x3 (l + g33 x3), and the
    parities depend on x3 mod 2 only."""
    side = range(-bound, bound + 1)
    cols = [sum((g[i][k] & 1) << i for i in range(4)) for k in range(4)]
    last = [g[3][3] * x * x for x in side]
    first_even = bound % 2  # the position of the first even x3 in side
    every, even = Counter(), Counter()
    for x0 in side:
        n0, m0 = g[0][0] * x0 * x0, cols[0] * (x0 & 1)
        for x1 in side:
            n1 = n0 + x1 * (2 * g[1][0] * x0 + g[1][1] * x1)
            m1 = m0 ^ cols[1] * (x1 & 1)
            for x2 in side:
                n2 = n1 + x2 * (2 * (g[2][0] * x0 + g[2][1] * x1) + g[2][2] * x2)
                m2 = m1 ^ cols[2] * (x2 & 1)
                lin = 2 * (g[3][0] * x0 + g[3][1] * x1 + g[3][2] * x2)
                norms = [n2 + lin * x + s for x, s in zip(side, last)]
                every.update(norms)
                if not m2:
                    even.update(norms[first_even::2])
                if m2 == cols[3]:
                    even.update(norms[1 - first_even::2])
    return every, even


def _convolved_count(hists, target: int) -> int:
    """The number of tuples, one point per block, whose norms sum to target.
    Each histogram becomes one int, the count of norm n in slot n - (its
    lowest norm), so the product of the ints is their convolution; no slot
    carries, as each coefficient is at most the product of the point counts,
    and one product of big ints replaces a loop over pairs of norms."""
    width = prod(sum(hist.values()) for hist in hists).bit_length()
    product = 1
    for hist in hists:
        low = min(hist)
        product *= sum(c << width * (n - low) for n, c in hist.items())
    slot = target - sum(map(min, hists))
    return product >> width * slot & (1 << width) - 1 if slot >= 0 else 0


def box_counts(bound: int) -> list[int]:
    """[norm -2 vectors, norm -4 vectors pairing evenly with N] in the box
    [-bound, bound]^12, by convolving per-block norm histograms; equal
    blocks share one histogram."""
    gram = lattice_N().gram
    blocks = [tuple(row[sl] for row in gram[sl]) for sl in _BLOCK_SLICES]
    hists = {block: _block_histograms(block, bound) for block in dict.fromkeys(blocks)}
    return [_convolved_count([hists[b][0] for b in blocks], -2),
            _convolved_count([hists[b][1] for b in blocks], -4)]


# the box is never built: a ``box_counts`` call at bound 15 fills two block
# histograms over 31^4 points each
MAX_SCAN_BOUND = 15

def minus4_vector_scan(bound: int = 3) -> tuple[dict[str, bool], list[int]]:
    """The norm -4 / norm -2 correspondence for every vector of N, and the
    counts of both sides in the box [-bound, bound]^12.

    forward: a norm -2 vector r gives delta = r + rho r of norm -2 + 0 - 2 =
    -4 (rho skew of square -1), and G delta = G(1 + rho)r is even, so delta/2
    lies in the dual.  converse: (1 - rho) maps the dual into N, so a norm -4
    vector delta with delta/2 in the dual has (1 - rho)delta even, and r = (1 -
    rho)delta/2 has norm (-4 - 0 - 4)/4 = -2.  direct: (1 + rho)(1 - rho) = 2,
    so the two maps are mutually inverse, and G and rho have no entry off the
    three blocks of ``_BLOCK_SLICES``, under which ``box_counts`` is an exact
    count by convolution.

    The counts are recomputed on every call; the determinism claim compares
    them with the counts recorded in ``checks.BOX_COUNTS``.  A bound outside
    2..``MAX_SCAN_BOUND`` raises ValueError before any count.
    """
    if not 2 <= bound <= MAX_SCAN_BOUND:
        raise ValueError("bound must lie in [2, %d]" % MAX_SCAN_BOUND)
    identities = _rho_identities()
    plane = identities["skew"] and identities["square_minus_one"]
    on_blocks = {(i, j) for sl in _BLOCK_SLICES for i in range(12)[sl] for j in range(12)[sl]}
    off_blocks = any(m[i][j] for m in (lattice_N().gram, order_four_isometry())
                     for i in range(12) for j in range(12) if (i, j) not in on_blocks)
    inclusions = {
        "forward": plane and identities["half_sum_dual"],
        "converse": plane and identities["quotient_trivial"],
        "direct": identities["round_trip"] and not off_blocks,
    }
    return inclusions, box_counts(bound)


# ---------------------------------------------------------------------------
# complement of a reflection plane (genus-level invariants)


def reflection_plane_complement(r=E_MINUS_F) -> bool:
    """Whether the orthogonal complement of the span of r and rho(r) has the
    rank, signature and discriminant form of U + U(2) + D4 + A1^2, read off
    its summands (Table 1, row 2)."""
    gram = lattice_N().gram
    d, _, v = smith_normal_form([_image(gram, r), _image(gram, _image(order_four_isometry(), r))])
    # the trailing columns of V span the vectors orthogonal to r and rho r
    basis = _transpose(v)[sum(1 for k in range(2) if d[k][k]):]
    comp = GramLattice(name="complement", gram=matmul(matmul(basis, gram), _transpose(basis)))
    rank, sig, target = _summand_invariants("U+U(2)+D4+A1^2")
    try:
        form = discriminant_form(comp)
    except ValueError:  # degenerate, or not 2-elementary, as a wrong rho can make it
        return False
    return (comp.rank == rank and comp.signature() == sig
            and find_isomorphism(form, target) is not None)


# ---------------------------------------------------------------------------
# Table 1


TABLE1_ROWS = (
    ("U(2)+D4+D4", "U+U(2)+D4+D4"),
    ("U+D4+D4+A1^2", "U+U(2)+D4+A1^2"),
    ("U+D6+D4+A1^2", "U+U(2)+A1^4"),
    ("U+D6+D6+A1^2", "A1(-1)^2+A1^4"),
    ("U+D8+D8", "U(2)+U(2)"),
    ("U+D8+D4", "U+U(2)+D4"),
    ("U+E8+D4+A1^2", "U+U(2)+A1^2"),
    ("U+E8+D6+A1^2", "A1(-1)^2+A1^2"),
    ("U+E8+D8", "U+U(2)"),
    ("U+E8+D10", "A1(-1)^2"),
)


def table1_checks() -> list[bool]:
    """Per row: the ranks sum to 22, the Picard lattice is hyperbolic, the
    transcendental lattice has signature (2, rank - 2), and their
    discriminant forms are complementary.  Every invariant is read off the
    summands (``_summand_invariants``), so no Gram matrix wider than an
    atom is eliminated."""
    out = []
    for row in TABLE1_ROWS:
        (pic_rank, pic_sig, pic_form), (tra_rank, tra_sig, tra_form) = \
            map(_summand_invariants, row)
        out.append(pic_rank + tra_rank == 22
                   and pic_sig == (1, pic_rank - 1)
                   and tra_sig == (2, tra_rank - 2)
                   and find_isomorphism(pic_form, tra_form.neg()) is not None)
    return out
