"""Integer-lattice calculus: Gram matrices, discriminant forms, the order-4
isometry and its Gaussian hermitian structure, reflections, and glue.

Lattices are integer Gram matrices on a chosen basis; vectors are integer
coordinate columns.  Three integer algorithms on Python ints do the exact
work: Smith normal form for the discriminant groups, the leading principal
minors of one fraction-free elimination for det and signature (Jacobi's sign
rule), and Faddeev-LeVerrier for the characteristic polynomial of rho.
Every finite quadratic form in use is 2-elementary, so a form lives on F2^a
in the bitmask idiom of ``f2geom``: integer tables of 2q mod 4 and 2b mod 2,
built from the Gram matrix of the doubled generators, on which isomorphisms
are searched by table lookups.

N = U + U(2) + D4 + D4 has its D4 blocks inside Z^4 (even-sum vectors,
negated standard product), where the order-4 isometry rho is defined.  As
2G^{-1} is integral, a dual vector y is handled as the integer vector 2y; its
class in the dual mod N is read off by Smith rows mod 2, in batches, and
carried to the 64-vector model through the split dictionary: the isometry
that ``find_isomorphism`` finds from the form of N onto the form of the
model, 2q4 = q and b2 = b of ``f2geom``.

The reflections of a norm -2 vector r (s_r, s_{rho r}, the pair and the
quarter reflection) are I + V A V^T G, V = [r, rho r], for 2x2 matrices A; as
rho is skew of square -1 and G(1 + rho) is even, their identities reduce to
exact 2x2 identities in A: ``reflection_family_check`` covers every norm -2
vector of N, not a box.  The norm -4 correspondence r <-> r + rho r and the
quotient map phi are read off the same integer identities of rho
(``_rho_identities``), so they too hold for every vector of N.  The one box
enumerator, ``_box``, feeds only ``box_counts``, which convolves per-block
norm histograms.  Vectors and matrices are numpy int64, but the class map and
the reflection report hold integers in float64 and multiply them in BLAS
through ``linalg.exact_matmul``, which raises OverflowError unless n max|x|
max|y| < 2^53 (n the inner dimension), the bound that keeps every sum exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, prod
from operator import xor

import numpy as np

from . import f2geom
from .linalg import abs_max, check_float_exact, exact_matmul

QQ = Fraction


# ---------------------------------------------------------------------------
# Gram matrices


def _gram_U(scale: int = 1) -> np.ndarray:
    return scale * np.array([[0, 1], [1, 0]], dtype=np.int64)


def _dn_basis(n: int) -> np.ndarray:
    """Basis rows of the index-2 even sublattice of Z^n (coordinate model)."""
    rows = []
    for i in range(n - 1):
        row = [0] * n
        row[i], row[i + 1] = 1, -1
        rows.append(row)
    last = [0] * n
    last[n - 2], last[n - 1] = 1, 1
    rows.append(last)
    return np.array(rows, dtype=np.int64)


def _gram_Dn(n: int) -> np.ndarray:
    basis = _dn_basis(n)
    return -(basis @ basis.T)


_E8_CARTAN = np.array(
    [
        [2, 0, -1, 0, 0, 0, 0, 0],
        [0, 2, 0, -1, 0, 0, 0, 0],
        [-1, 0, 2, -1, 0, 0, 0, 0],
        [0, -1, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, 0],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, 0, 0, -1, 2],
    ],
    dtype=np.int64,
)


@dataclass(frozen=True)
class GramLattice:
    name: str
    gram: np.ndarray

    @property
    def rank(self) -> int:
        return self.gram.shape[0]

    def det(self) -> int:
        return (_leading_minors(self.gram) or [1])[-1]

    def is_even(self) -> bool:
        return all(int(self.gram[i, i]) % 2 == 0 for i in range(self.rank))

    def signature(self) -> tuple[int, int]:
        return signature(self.gram)


_ATOMS = {"U": lambda: _gram_U(), "A1": lambda: np.array([[-2]], dtype=np.int64),
          "D4": lambda: _gram_Dn(4), "D6": lambda: _gram_Dn(6),
          "D8": lambda: _gram_Dn(8), "D10": lambda: _gram_Dn(10),
          "E8": lambda: -_E8_CARTAN}

_TOKEN = re.compile(r"^(U|A1|D4|D6|D8|D10|E8)(?:\((-?\d+)\))?(?:\^(\d+))?$")


def named_lattice(name: str) -> GramLattice:
    """Parse names like "U+U(2)+D4+D4" or "A1(-1)^2+A1^4" into a Gram matrix."""
    blocks = []
    for token in name.replace(" ", "").split("+"):
        m = _TOKEN.match(token)
        if not m:
            raise ValueError("unknown lattice token %r" % token)
        base, scale, power = m.group(1), m.group(2), m.group(3)
        gram = _ATOMS[base]()
        if scale is not None:
            gram = int(scale) * gram
        for _ in range(int(power) if power else 1):
            blocks.append(gram)
    lattice = GramLattice(name=name.replace(" ", ""), gram=direct_sum_grams(blocks))
    if lattice.det() == 0:
        raise ValueError("degenerate lattice %r" % name)
    return lattice


def direct_sum_grams(blocks) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=np.int64)
    pos = 0
    for b in blocks:
        k = b.shape[0]
        out[pos:pos + k, pos:pos + k] = b
        pos += k
    return out


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


def signature(gram: np.ndarray) -> tuple[int, int]:
    """(positive, negative) inertia.  By Jacobi's rule, as every leading minor
    is nonzero, the negative index is the number of sign changes along
    1, d_1, ..., d_n."""
    minors = _leading_minors(gram)
    if 0 in minors:
        raise ValueError("degenerate form")
    neg = sum(x * y < 0 for x, y in zip([1] + minors, minors))
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


@dataclass(frozen=True)
class FiniteQuadraticForm:
    """A 2-elementary finite quadratic form on F2^a, as integer tables.

    An element is an a-bit integer x, bit i the coefficient of generator i,
    and addition is XOR.  ``q4[x] = 2q(x) mod 4`` for the form value q(x) in
    Q/2Z, and ``b2[x][y] = 2b(x, y) mod 2`` for the pairing b(x, y) in Q/Z;
    both are integer-valued because 2x = 0 puts q in (1/2)Z/2Z and b in
    (1/2)Z/Z.
    """

    q4: tuple[int, ...]
    b2: tuple[tuple[int, ...], ...]

    @classmethod
    def from_doubled_gram(cls, gram) -> "FiniteQuadraticForm":
        """The form whose generators g_i have doubles 2g_i with the even Gram
        matrix ``gram``: for bit vectors x, y, 2q(x) = x^T gram x / 2 mod 4 and
        2b(x, y) = x^T gram y / 2 mod 2.  Only gram mod 8 enters, so the
        products are small int64."""
        a = len(gram)
        low = np.array(gram, dtype=object).reshape(a, a) % 8
        if (low % 2).any():
            raise ValueError("a doubled Gram matrix of a 2-elementary form is even")
        bits = (np.arange(1 << a)[:, None] >> np.arange(a)) & 1
        half = bits @ low.astype(np.int64) @ bits.T // 2
        return cls(tuple((half.diagonal() % 4).tolist()),
                   tuple(map(tuple, (half % 2).tolist())))

    @property
    def rank(self) -> int:
        """a, the dimension of the group over F2."""
        return len(self.q4).bit_length() - 1

    @property
    def group_order(self) -> int:
        return len(self.q4)

    @property
    def orders(self) -> tuple[int, ...]:
        return (2,) * self.rank

    def neg(self) -> "FiniteQuadraticForm":
        return FiniteQuadraticForm(tuple(-v % 4 for v in self.q4), self.b2)


def discriminant_form(lattice: GramLattice) -> FiniteQuadraticForm:
    """The finite quadratic form on dual-mod-lattice, via Smith normal form.

    The doubled generators of the dual are the columns of V whose invariant
    factor is 2; their Gram matrix is formed in Python integers.  Raises
    ValueError unless the discriminant group is 2-elementary.
    """
    gram = lattice.gram
    det = lattice.det()
    if det == 0:
        raise ValueError("degenerate Gram matrix")
    if not lattice.is_even():
        raise ValueError("only even lattices carry a Q/2Z-valued form")
    d, _, v = smith_normal_form(gram)
    if any(d[k][k] > 2 for k in range(lattice.rank)):
        raise ValueError("the discriminant group of %s is not 2-elementary" % lattice.name)
    doubled = np.array(v, dtype=object)[:, [k for k in range(lattice.rank) if d[k][k] == 2]]
    form = FiniteQuadraticForm.from_doubled_gram(doubled.T @ gram.astype(object) @ doubled)
    if form.group_order != abs(det):
        raise ArithmeticError("discriminant group order does not match |det|")
    return form


def find_isomorphism(a: FiniteQuadraticForm, b: FiniteQuadraticForm):
    """Search for an isomorphism of 2-elementary forms.

    Returns the images in b of the generators of a, as bitmasks, or None.
    Backtracking extends a linear map one generator g_i at a time: the image
    of g_i lies outside the span of the earlier images (a bitmask of the
    span), and q4 must agree on the whole new coset x + g_i.  A complete map
    thus carries q4 of a onto that of b at every element; it is accepted once
    b2 is checked at every pair as well.  Forms of different rank or with
    different counts of each value are not isomorphic, and are not searched.
    """
    if a.rank != b.rank or sorted(a.q4) != sorted(b.q4):
        return None
    k = a.rank
    image = [0]  # image[x] for the x spanned by the generators placed so far

    def extend(i, span):
        if i == k:
            return all(b.b2[image[x]][image[y]] == v
                       for x, row in enumerate(a.b2) for y, v in enumerate(row))
        top = 1 << i
        for cand in range(1, 1 << k):
            if (span >> cand) & 1 or any(b.q4[image[x] ^ cand] != a.q4[top | x]
                                         for x in range(top)):
                continue
            image.extend([z ^ cand for z in image])
            if extend(i + 1, span | sum(1 << z for z in image[top:])):
                return True
            del image[top:]
        return False

    return [image[1 << i] for i in range(k)] if extend(0, 1) else None


# ---------------------------------------------------------------------------
# the split-model dictionary


@dataclass(frozen=True)
class SplitModelDictionary:
    """Linear identification of a rank-6 2-elementary form with the fixed model.

    ``gen_images[i]`` is the model vector for generator i of the source form;
    coefficient bit patterns map through XOR.
    """

    gen_images: tuple[int, ...]

    def to_model(self, bits: int) -> int:
        return reduce(xor, (g for i, g in enumerate(self.gen_images) if (bits >> i) & 1), 0)

    def inverse_table(self) -> tuple[int, ...]:
        table = {self.to_model(bits): bits for bits in range(64)}
        if len(table) != 64:
            raise ArithmeticError("dictionary is not invertible")
        return tuple(table[m] for m in range(64))


@lru_cache(maxsize=None)
def _split_model_form() -> FiniteQuadraticForm:
    """The 64-vector model of ``f2geom`` as a form: q4 = 2q and b2 = b."""
    return FiniteQuadraticForm(tuple(2 * f2geom.q(x) for x in f2geom.SPACE),
                               tuple(tuple(f2geom.b(x, y) for y in f2geom.SPACE)
                                     for x in f2geom.SPACE))


def identify_with_split_model(form: FiniteQuadraticForm) -> SplitModelDictionary:
    """Identify a form with the three-plane model by ``find_isomorphism``.

    Raises ValueError when there is no isometry: the form has the wrong rank,
    takes half-integer values, or is not split.
    """
    images = find_isomorphism(form, _split_model_form())
    if images is None:
        raise ValueError("the form is not isomorphic to the split model")
    return SplitModelDictionary(tuple(images))


# ---------------------------------------------------------------------------
# overlattices


def overlattice(lattice: GramLattice, glue) -> GramLattice:
    """Adjoin a glue vector (rational coordinates, 2*glue integral).

    The glue must pair integrally with the lattice and have even self
    intersection, so the extension is again an even integral lattice.
    """
    glue = [QQ(x) for x in glue]
    n = lattice.rank
    gram = [[int(x) for x in row] for row in lattice.gram]
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
    basis2 = np.array([[2 * int(i == j) for j in range(n)] for i in range(n) if i != k]
                      + [doubled], dtype=object)  # basis of 2*(new lattice)
    gram4 = basis2 @ np.array(gram, dtype=object) @ basis2.T
    if (gram4 % 4).any():
        raise ArithmeticError("overlattice Gram is not integral")
    result = GramLattice(name=lattice.name + "+glue", gram=(gram4 // 4).astype(np.int64))
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


def _rho1_block() -> np.ndarray:
    """Order-4 isometry of U + U(2) on the basis (e, f, e', f').

    Images: e -> -e-e', f -> f-f', e' -> e'+2e, f' -> 2f-f'.
    """
    cols = [(-1, 0, -1, 0), (0, 1, 0, -1), (2, 0, 1, 0), (0, 2, 0, -1)]
    return np.array(cols, dtype=np.int64).T


def _rho0_block() -> np.ndarray:
    """Order-4 isometry of the D4 coordinate model on its basis.

    The ambient action R: (x1,x2,x3,x4) -> (x2,-x1,x4,-x3) keeps the even-sum
    vectors; on basis coordinates it is the matrix M with B^T M = R B^T for
    basis rows B, an integer identity checked here.
    """
    ambient = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
                       dtype=np.int64)
    block = np.array([[-1, 1, 0, 0], [-2, 1, 0, 0], [-1, 0, 0, 1], [-1, 1, -1, 0]],
                     dtype=np.int64)
    basis_t = _dn_basis(4).T
    if not np.array_equal(basis_t @ block, ambient @ basis_t):
        raise ArithmeticError("the block is not the ambient action on the D4 basis")
    return block


@lru_cache(maxsize=None)
def order_four_isometry() -> np.ndarray:
    """The 12x12 integer matrix of the fixed-point-free order-4 isometry."""
    out = direct_sum_grams([_rho1_block(), _rho0_block(), _rho0_block()])
    gram = lattice_N().gram
    assert np.array_equal(out.T @ gram @ out, gram)
    assert np.array_equal(out @ out, -np.eye(12, dtype=np.int64))
    return out


def characteristic_polynomial(mat: np.ndarray) -> list[int]:
    """Coefficients of det(tI - M), highest degree first (Faddeev-LeVerrier).

    For an integer matrix every M_k and c_k is an integer, so the recursion
    runs on Python ints; k dividing each trace is checked, not assumed.
    """
    a = np.asarray(mat).astype(object)
    eye = np.eye(len(a), dtype=np.int64).astype(object)
    coeffs, m = [1], 0 * a
    for k in range(1, len(a) + 1):
        m = a @ m + coeffs[-1] * eye  # M_k = A M_{k-1} + c_{k-1} I
        trace = int(np.trace(a @ m))
        if trace % k:
            raise ArithmeticError("trace %d is not divisible by %d" % (trace, k))
        coeffs.append(-trace // k)
    return coeffs


def isometry_fixed_point_free() -> bool:
    """rho has characteristic polynomial (t^2 + 1)^6: it has order 4 and no
    fixed vector."""
    return characteristic_polynomial(order_four_isometry()) == [
        comb(6, k // 2) if k % 2 == 0 else 0 for k in range(13)]


# ---------------------------------------------------------------------------
# hermitian structure


def inner(x, y) -> int:
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    return int(x @ lattice_N().gram @ y)


def hermitian_form(x, y) -> tuple[int, int]:
    """h(x, y) as a Gaussian integer (a, b) = a + b*sqrt(-1).

    The real part is <x, y> and the imaginary part <x, rho(y)>; the complex
    structure is (a + b i) x = a x + b rho(x).
    """
    rho = order_four_isometry()
    y = np.asarray(y, dtype=np.int64)
    return inner(x, y), inner(x, rho @ y)


def hermitian_gram_checks() -> tuple[bool, bool, bool]:
    """Whether the D4 and the U hermitian Gram matrices are the stated ones,
    and whether h(x, x) is real for every x.

    On the first D4 block the complex basis is (1,-1,0,0), (0,1,-1,0) (our
    basis vectors 1 and 2 of that block); on U + U(2) it is (e, f).
    """
    eye = np.eye(12, dtype=np.int64)
    d4_gram = [[hermitian_form(x, y) for y in eye[4:6]] for x in eye[4:6]]
    u_gram = [[hermitian_form(x, y) for y in eye[0:2]] for x in eye[0:2]]
    return (d4_gram == [[(-2, 0), (1, -1)], [(1, 1), (-2, 0)]],
            u_gram == [[(0, 0), (1, 1)], [(1, -1), (0, 0)]],
            # h(x, x) is real for every x exactly when rho is skew for G
            _rho_identities()["skew"])


# ---------------------------------------------------------------------------
# class map to the 64-element quadratic space


@lru_cache(maxsize=None)
def _snf_data_N():
    """Smith normal form data of N, whose invariant factors are 1^6 2^6.

    Returns the rows of U, mod 2, that read off the class bits of a dual
    vector; the matching generators of the discriminant group, doubled
    (columns of V); and the integer matrix 2G^{-1} = V (2 D^{-1}) U.
    """
    gram = lattice_N().gram
    d, u, v = smith_normal_form(gram)
    diag = [d[k][k] for k in range(12)]
    sel = [k for k in range(12) if diag[k] == 2]
    u, v = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
    two_ginv = v @ np.diag([2 // x for x in diag]) @ u
    # holds exactly when every invariant factor divides 2
    if not np.array_equal(gram @ two_ginv, 2 * np.eye(12, dtype=np.int64)):
        raise ArithmeticError("N^v/N is not 2-elementary")
    return u[sel] % 2, v[:, sel], two_ginv


@lru_cache(maxsize=None)
def split_dictionary() -> SplitModelDictionary:
    return identify_with_split_model(discriminant_form(lattice_N()))


_BITS = ((np.arange(64)[:, None] >> np.arange(6)) & 1).astype(np.uint8)  # row x: bits of x
_WEIGHTS = 1 << np.arange(6)


@lru_cache(maxsize=None)
def _dictionary_bits():
    """The split dictionary over F2: row i of the first matrix is the model
    vector of generator i; row m of the second holds the class bits of model
    vector m."""
    dictionary = split_dictionary()
    return _BITS[list(dictionary.gen_images)], _BITS[list(dictionary.inverse_table())]


def _to_model(bits: np.ndarray) -> np.ndarray:
    """Model vectors (as ints 0..63) of classes given by their bits (..., 6),
    which may be any nonnegative integers read mod 2."""
    return (bits @ _dictionary_bits()[0] % 2) @ _WEIGHTS


def _class_bits(doubled: np.ndarray):
    """Class bits of dual vectors y given as the integer rows 2y, shape (..., 12).

    y lies in the dual exactly when G(2y) is even; its bits are the selected
    Smith rows of U applied to Gy, mod 2.  Returns the bits (..., 6) and the
    mask of rows in the dual.
    """
    g2 = exact_matmul(doubled, lattice_N().gram)
    gy = np.floor(g2 * 0.5)  # Gy, on the rows in the dual
    bits = exact_matmul(gy, _snf_data_N()[0].T).astype(np.int64) & 1
    return bits.astype(np.uint8), (gy + gy == g2).all(axis=-1)


def _class_tables(isometries: np.ndarray):
    """The permutations of the 64 model vectors induced by a stack (a, 12, 12)
    of isometries of N, as an (a, 64) array, and whether each isometry keeps
    the six discriminant generators in the dual.  Entry m XORs the class bits
    of the generator images along the bits of model vector m, mapped through
    the split dictionary."""
    images = exact_matmul(isometries, _snf_data_N()[1])
    images, in_dual = _class_bits(np.swapaxes(images, -1, -2))  # row j: image of generator j
    return _to_model(_dictionary_bits()[1] @ images), in_dual.all(axis=-1)


def _acts_as_transvection(isometries: np.ndarray, deltas: np.ndarray):
    """Per row: whether the class alpha of delta/2 is anisotropic, and whether
    the isometry acts on the 64 classes as the transvection at alpha, compared
    at every class."""
    alpha_bits, half_in_dual = _class_bits(deltas)
    alphas = _to_model(alpha_bits).tolist()
    anisotropic = half_in_dual & np.array([f2geom.q(a) == 1 for a in alphas], dtype=bool)
    tables, in_dual = _class_tables(isometries)
    want = np.reshape([f2geom.transvection(a) if f2geom.q(a) else (-1,) * 64 for a in alphas],
                      (-1, 64))
    return anisotropic, anisotropic & in_dual & (tables == want).all(axis=1)


# ---------------------------------------------------------------------------
# reflections


def _reflection_report(vecs) -> dict:
    """The reflection identities of a stack (a, 12) of norm -2 vectors r, each
    key true when it holds at every r, on the integer matrices of the maps of
    ``reflection_family_check``: the quarter reflection is
    x -> x + <r,x>(r - rho r)/2 + <rho r,x>(r + rho r)/2.  A failed condition
    (such as a non-integral quarter reflection) makes the keys that depend on
    it False.  Every product goes through ``exact_matmul``; the elementwise
    work stays within 12ag for a the largest entry of r and rho r and g that
    of Gr and G rho r, so 12ag >= 2^53 raises OverflowError.
    """
    gram = lattice_N().gram
    rho = order_four_isometry()
    eye = np.eye(12)
    gr = exact_matmul(np.reshape(vecs, (-1, 12)), gram)
    vecs = np.asarray(vecs, dtype=np.float64).reshape(-1, 12)  # exact: 24|r| < 2^53
    rr = exact_matmul(vecs, rho.T)
    grr = exact_matmul(rr, gram)
    check_float_exact(12 * abs_max(vecs, rr) * abs_max(gr, grr))
    if (np.einsum("ai,ai->a", vecs, gr) != -2).any():
        raise ValueError("reflections are defined at norm -2 vectors")

    def outer(x, y):
        return x[:, :, None] * y[:, None, :]

    def isometries(mats):
        forms = exact_matmul(exact_matmul(np.swapaxes(mats, 1, 2), gram), mats)
        return bool((forms == gram).all())

    s_r, s_rr = eye + outer(vecs, gr), eye + outer(rr, grr)  # reflections in r, rho r
    pair = s_r + s_rr - eye
    composed = exact_matmul(s_r, s_rr)
    orthogonal = not np.einsum("ai,ai->a", vecs, grr).any()
    doubled = 2 * eye + outer(vecs - rr, gr) + outer(vecs + rr, grr)
    quarter = np.floor(doubled * 0.5)
    integral = np.array_equal(quarter + quarter, doubled)
    square = exact_matmul(quarter, quarter)
    anisotropic, transvection = _acts_as_transvection(quarter, vecs + rr)
    return {
        "pair_equals_composition": orthogonal and np.array_equal(pair, composed),
        "quarter_is_isometry": integral and isometries(quarter),
        "quarter_order_4": integral and bool((exact_matmul(square, square) == eye).all())
        and not (square == eye).all(axis=(1, 2)).any(),
        "quarter_commutes_with_rho": integral and np.array_equal(
            exact_matmul(quarter, rho), exact_matmul(rho, quarter)),
        "alpha_is_anisotropic": bool(anisotropic.all()),
        "induces_transvection": integral and bool(transvection.all()),
        "pair_is_isometry": isometries(pair),
    }


def reflection_identities(r=E_MINUS_F) -> dict:
    """Integer-matrix identities for a norm -2 vector (default e - f)."""
    return _reflection_report(np.asarray(r)[None])


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
    eye, j, c = (np.array(m, dtype=object) for m in
                 (((1, 0), (0, 1)), ((0, -1), (1, 0)), QUARTER_COEFFICIENTS))
    plane, gamma = ids["skew"] and ids["square_minus_one"], -2 * eye  # Gamma at every r
    injective = plane and gamma[0, 0] * gamma[1, 1] != gamma[0, 1] * gamma[1, 0]

    def compose(a, b):
        return a + b + a @ gamma @ b

    def isometric(a):
        return plane and not (a + a.T + a.T @ gamma @ a).any()

    integral = ids["half_sum_dual"] and not ((2 * c - 1) % 2).any()  # 2E even: E integral
    anisotropic = plane and ids["half_sum_dual"] and QQ(int(gamma.sum()), 4) % 2 == 1
    return all({
        "pair_equals_composition": plane and np.array_equal(
            compose(np.diag([1, 0]), np.diag([0, 1])), eye),
        "quarter_is_isometry": integral and isometric(c),
        "quarter_order_4": integral and injective and eye.any()
        and np.array_equal(compose(c, c), eye) and not compose(eye, eye).any(),
        "quarter_commutes_with_rho": integral and plane and np.array_equal(c @ j, j @ c),
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
    quotient_trivial: (1 - rho) maps the dual into N, i.e. (1 - rho) 2G^{-1}
    is even, as 2G^{-1} is integral;
    round_trip: (1 + rho)(1 - rho) = 2, i.e. phi((1 - rho)x) = x.
    """
    rho = order_four_isometry()
    gram = lattice_N().gram
    eye = np.eye(12, dtype=np.int64)
    return {
        "skew": np.array_equal(rho.T @ gram, -(gram @ rho)),
        "half_sum_dual": not ((gram @ (eye + rho)) % 2).any(),
        "square_minus_one": np.array_equal(rho @ rho, -eye),
        "quotient_trivial": not (((eye - rho) @ _snf_data_N()[2]) % 2).any(),
        "round_trip": np.array_equal((eye + rho) @ (eye - rho), 2 * eye),
    }


# ---------------------------------------------------------------------------
# the phi map and the quotient comparison


def phi_map_check() -> dict:
    """phi(x) = (x + rho x)/2 maps onto the dual and identifies the quotients.

    Exact matrix identities give phi(N) inside the dual and phi((1-i)x) = x,
    so phi induces an F2-linear map from N/(1-i)N, of order the index of
    (1-i)N = (I - rho)Z^12, to the 64 classes of the dual mod N.  With index
    64 and invariant factors dividing 2 it is a bijection exactly when the
    classes of phi(e_1), ..., phi(e_12) span F2^6.
    """
    rho = order_four_isometry()
    eye = np.eye(12, dtype=np.int64)
    identities = _rho_identities()
    d, _, _ = smith_normal_form(eye - rho)
    diag = [d[k][k] for k in range(12)]
    # row i of I + rho^T is 2 phi(e_i) = e_i + rho e_i
    bits, in_dual = _class_bits(eye + rho.T)
    return {
        "into_dual": identities["half_sum_dual"],
        "inverse_identity": identities["round_trip"],
        "rho_trivial_on_quotient": identities["quotient_trivial"],
        "bijective": prod(diag) == 64 and set(diag) <= {1, 2} and bool(in_dual.all())
        and len(f2geom.echelon_basis((bits @ _WEIGHTS).tolist())) == 6,
    }


# ---------------------------------------------------------------------------
# the norm -4 correspondence and box counts

_BLOCK_SLICES = (slice(0, 4), slice(4, 8), slice(8, 12))


def _box(dim: int, bound: int) -> np.ndarray:
    """All integer vectors of length dim with entries in [-bound, bound], one
    per row, in lexicographic order."""
    side = np.arange(-bound, bound + 1, dtype=np.int64)
    grids = np.meshgrid(*([side] * dim), indexing="ij", copy=False)
    return np.stack(grids, axis=-1).reshape(-1, dim)


def _box_norm_count(bound: int, target: int, need_even: bool) -> int:
    """Vectors of norm target in [-bound, bound]^12, optionally only those
    pairing evenly with N, counted by convolving per-block norm histograms."""
    gram = lattice_N().gram
    pts = _box(4, bound)
    counts = np.ones(1, dtype=np.int64)
    offset = target
    for sl in _BLOCK_SLICES:
        g = gram[sl, sl]
        norms = np.einsum("ij,jk,ik->i", pts, g, pts)
        if need_even:
            norms = norms[~((pts @ g.T) % 2).any(axis=1)]
        lo = int(norms.min())
        counts = np.convolve(counts, np.bincount(norms - lo))
        offset -= lo
    return int(counts[offset]) if 0 <= offset < len(counts) else 0


def box_counts(bound: int) -> list[int]:
    """[norm -2 vectors, norm -4 vectors pairing evenly with N] in the box."""
    return [_box_norm_count(bound, -2, False), _box_norm_count(bound, -4, True)]


# (2 bound + 1)^4 rows per block histogram: at most 31^4 < 2^20, and a peak RSS
# near 122 MB (92 MB above the loaded lattice layer) at bound 15
MAX_SCAN_BOUND = 15


def minus4_vector_scan(bound: int = 3) -> tuple[dict[str, bool], list[int]]:
    """The norm -4 / norm -2 correspondence for every vector of N, and the
    counts of both sides in the box [-bound, bound]^12.

    forward: a norm -2 vector r gives delta = r + rho r of norm -2 + 0 - 2 =
    -4 (rho skew of square -1), and G delta = G(1 + rho)r is even, so delta/2
    lies in the dual.  converse: a norm -4 vector delta with delta/2 in the
    dual is 2G^{-1}(G delta/2), so (1 - rho)delta is even, and r = (1 -
    rho)delta/2 has norm (-4 - 0 - 4)/4 = -2.  direct: (1 + rho)(1 - rho) = 2,
    so the two maps are mutually inverse, and G and rho have no entry off the
    three blocks of ``_BLOCK_SLICES``, under which ``box_counts`` is an exact
    count by convolution.

    The counts are recomputed on every call; the determinism claim compares
    them with a fresh ``box_counts`` call.  A bound outside
    2..``MAX_SCAN_BOUND`` raises ValueError before any allocation.
    """
    if not 2 <= bound <= MAX_SCAN_BOUND:
        raise ValueError("bound must lie in [2, %d]" % MAX_SCAN_BOUND)
    identities = _rho_identities()
    plane = identities["skew"] and identities["square_minus_one"]
    on_blocks = np.zeros((12, 12), dtype=bool)
    for sl in _BLOCK_SLICES:
        on_blocks[sl, sl] = True
    off_blocks = lattice_N().gram[~on_blocks].any() or order_four_isometry()[~on_blocks].any()
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
    rank, signature and discriminant form of U + U(2) + D4 + A1^2."""
    r = np.asarray(r, dtype=np.int64)
    gram = lattice_N().gram
    d, _, v = smith_normal_form([gram @ r, gram @ order_four_isometry() @ r])
    # the trailing columns of V span the vectors orthogonal to r and rho r
    basis = np.array(v, dtype=np.int64)[:, sum(1 for k in range(2) if d[k][k]):].T
    comp = GramLattice(name="complement", gram=basis @ gram @ basis.T)
    target = named_lattice("U+U(2)+D4+A1^2")
    return (comp.rank == target.rank and comp.signature() == target.signature()
            and find_isomorphism(discriminant_form(comp), discriminant_form(target)) is not None)


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
    discriminant forms are complementary."""
    return [pic.rank + tra.rank == 22
            and pic.signature() == (1, pic.rank - 1)
            and tra.signature() == (2, tra.rank - 2)
            and find_isomorphism(discriminant_form(pic), discriminant_form(tra).neg()) is not None
            for pic, tra in (map(named_lattice, row) for row in TABLE1_ROWS)]
