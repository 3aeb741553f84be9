"""The Weil representation of SL(2, Z/2Z) on the 64-dimensional group ring.

The two generator matrices act on rational coordinate vectors indexed by the
64 vectors of the quadratic space: rho_T is diagonal with entries
(-1)^q(alpha), and rho_S has entries (-1)^b(beta, alpha)/8.  Both are kept as
rows of Python ints over one denominator, so every computation in this module
is exact; there are no tolerance parameters anywhere, and no entry can wrap.
Products of matrices go through ``linalg.matmul``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter

from . import f2geom, linalg
from .f2geom import Subspace


class RationalMatrix:
    """An exact rational matrix: rows of Python ints over one denominator,
    with the columns kept beside them for ``apply``."""

    __slots__ = ("num", "den", "cols")

    def __init__(self, num, den: int = 1):
        num = tuple(tuple(row) for row in num)
        if den < 0:
            num, den = tuple(tuple(-x for x in row) for row in num), -den
        if den == 0:
            raise ZeroDivisionError
        g = gcd(*(x for row in num for x in row), den)
        if g > 1:
            num, den = tuple(tuple(x // g for x in row) for row in num), den // g
        self.num = num
        self.den = den
        self.cols = tuple(zip(*num))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix(linalg.matmul(self.num, other.num), self.den * other.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.den == other.den \
            and self.num == other.num

    def trace(self) -> Fraction:
        return Fraction(sum(row[i] for i, row in enumerate(self.num)), self.den)

    def _image(self, ints) -> list[int]:
        """num @ ints, a column at a time over the nonzero entries of ints."""
        out = [0] * len(self.num)
        for x, col in zip(ints, self.cols):
            if x:
                out = [y + x * c for y, c in zip(out, col)]
        return out

    def apply(self, vec) -> list[Fraction]:
        d = lcm(*(x.denominator for x in vec if isinstance(x, Fraction)))
        return [Fraction(x, self.den * d) for x in self._image(linalg.integer_row(vec))]

    def fixes(self, vec) -> bool:
        ints = linalg.integer_row(vec)
        return self._image(ints) == [self.den * x for x in ints]


@lru_cache(maxsize=None)
def rho_T() -> RationalMatrix:
    return RationalMatrix([[(-1) ** f2geom.q(a) if a == x else 0 for x in f2geom.SPACE]
                           for a in f2geom.SPACE])


@lru_cache(maxsize=None)
def rho_S() -> RationalMatrix:
    return RationalMatrix(
        [[(-1) ** f2geom.b(beta, alpha) for alpha in f2geom.SPACE] for beta in f2geom.SPACE], 8)


@lru_cache(maxsize=None)
def rho_ST() -> RationalMatrix:
    return rho_S() @ rho_T()


def sl2_relations() -> dict[str, bool]:
    """The defining relations S^2 = 1 and (ST)^3 = 1, exactly."""
    s, st, eye = rho_S(), rho_ST(), RationalMatrix.identity(64)
    return {"s_squared": s @ s == eye, "st_cubed": st @ st @ st == eye}


def commutes_with_transvections() -> bool:
    """rho_S and rho_T commute with the permutation of coordinates by every
    transvection."""
    for alpha in f2geom.SPACE:
        if f2geom.q(alpha):
            pick = itemgetter(*f2geom.transvection(alpha))  # rows, then columns
            if any(tuple(map(pick, pick(m.num))) != m.num for m in (rho_S(), rho_T())):
                return False
    return True


def traces() -> dict[str, Fraction]:
    """Traces of the identity, T, S and ST actions."""
    return {
        "E": Fraction(64),
        "T": rho_T().trace(),
        "S": rho_S().trace(),
        "ST": rho_ST().trace(),
    }


def character_decomposition() -> tuple[int, int, int]:
    """Multiplicities of the three irreducible characters of SL(2, Z/2Z).

    The group is symmetric of degree 3; conjugacy classes have sizes 1, 3, 2
    with T in the involution class and ST in the 3-cycle class.
    """
    t = traces()
    chi = (t["E"], t["T"], t["ST"])
    table = ((1, 1, 1), (1, -1, 1), (2, 0, -1))
    sizes = (1, 3, 2)
    mult = []
    for row in table:
        m = sum(Fraction(s) * c * v for s, c, v in zip(sizes, chi, row)) / 6
        if m.denominator != 1:
            raise ArithmeticError("character inner product is not integral")
        mult.append(int(m))
    return tuple(mult)


# ---------------------------------------------------------------------------
# invariant vectors


def _fixed_space_rows() -> list[list[int]]:
    """Integer rows cutting out the joint fixed space of rho_T and rho_S."""
    return [[x - rho.den * (i == j) for j, x in enumerate(row)]
            for rho in (rho_T(), rho_S()) for i, row in enumerate(rho.num)]


@lru_cache(maxsize=None)
def invariant_subspace() -> tuple[tuple[Fraction, ...], ...]:
    """Canonical basis of the joint fixed space of rho_T and rho_S."""
    return tuple(tuple(v) for v in linalg.nullspace(_fixed_space_rows(), 64))


def isotropic_sum_vector(iso: Subspace) -> list[int]:
    members = set(f2geom.span(iso))
    return [int(x in members) for x in f2geom.SPACE]


def is_invariant(vec) -> bool:
    """Exact membership test for the fixed space of rho_T and rho_S."""
    return rho_T().fixes(vec) and rho_S().fixes(vec)


def isotropic_sums_invariant() -> bool:
    return all(is_invariant(isotropic_sum_vector(i))
               for i in f2geom.enumerate_isotropic_subspaces(3))


@lru_cache(maxsize=None)
def singular_vector(subspace: Subspace) -> tuple[int, ...]:
    """The signed invariant vector attached to a maximal totally singular subspace.

    The isotropic kernel plane of the subspace extends to exactly two maximal
    totally isotropic subspaces; the vector is +1 on the first extension, -1
    on the second, and the shared plane cancels, leaving 8 entries of +-1.
    """
    if not f2geom.is_singular(subspace):
        raise ValueError("need a maximal totally singular subspace")
    plane = f2geom.kernel_plane(subspace)
    plus, minus = f2geom.isotropic_plane_extensions(plane)
    vec = [0] * 64
    for x in f2geom.span(plus):
        vec[x] += 1
    for x in f2geom.span(minus):
        vec[x] -= 1
    return tuple(vec)


def permute_coordinates(perm, vec):
    """The action of a point permutation g: e_x -> e_{g(x)} on coordinates."""
    out = [0] * 64
    for x in range(64):
        out[perm[x]] = vec[x]
    return type(vec)(out) if isinstance(vec, tuple) else out


def minus_one_eigenspace(subspace: Subspace) -> tuple[int, tuple[int, ...] | None]:
    """Joint (-1)-eigenspace of the transvections at the subspace's anisotropic vectors.

    Solved combinatorially: the constraints v[t(x)] = -v[x] propagate signs
    along an edge-labelled graph on the 64 points; each sign-consistent
    component without a forced zero contributes one dimension.  Returns the
    dimension together with a spanning vector when the dimension is 1.
    """
    aniso, _ = f2geom.singular_members(subspace)
    perms = [f2geom.transvection(a) for a in aniso]
    assignment: dict[int, int] = {}
    component_vectors = []
    dim = 0
    for start in range(64):
        if start in assignment:
            continue
        comp = {start: 1}
        stack = [start]
        alive = True
        while stack:
            x = stack.pop()
            for p in perms:
                y = p[x]
                want = -comp[x]
                if y == x:
                    alive = False  # v[x] = -v[x] forces zero on the component
                elif y in comp:
                    if comp[y] != want:
                        alive = False
                else:
                    comp[y] = want
                    stack.append(y)
        for x in comp:
            assignment[x] = comp[x]
        if alive:
            dim += 1
            component_vectors.append(comp)
    if dim == 1:
        vec = [0] * 64
        for x, sgn in component_vectors[0].items():
            vec[x] = sgn
        return dim, tuple(vec)
    return dim, None


def antivectors_unique() -> bool:
    """For each of the 105 singular subspaces, the joint (-1)-eigenspace of its
    transvections is the line of its signed vector, which is invariant."""
    for v in f2geom.enumerate_singular_subspaces():
        fv = singular_vector(v)
        dim, spanning = minus_one_eigenspace(v)
        if dim != 1 or spanning not in (fv, tuple(-x for x in fv)) or not is_invariant(fv):
            return False
    return True


def transvections_negate() -> bool:
    """The transvection at each anisotropic vector of a singular subspace
    negates the subspace's signed vector."""
    for v in f2geom.enumerate_singular_subspaces():
        fv = singular_vector(v)
        if any(permute_coordinates(f2geom.transvection(alpha), fv) != tuple(-x for x in fv)
               for alpha in f2geom.singular_members(v)[0]):
            return False
    return True


@lru_cache(maxsize=None)
def space_w_rank() -> int:
    """Rank of the span of the 105 singular-subspace vectors."""
    rows = [singular_vector(v) for v in f2geom.enumerate_singular_subspaces()]
    return linalg.rank(rows, 64)


def fixed_line_dimension() -> int:
    """Dimension of the orthogonal-group-fixed part of the invariant space.

    The group generated by the transvections is transitive on each of the
    three vector types, so its fixed vectors are exactly the type-constant
    ones.  A combination sum c_v v of the cached basis of the fixed space of
    rho_T and rho_S is type-constant when sum c_v (v[x] - v[a]) = 0 at every
    x, for a the representative of the type of x: one row per x, one column
    per basis vector.
    """
    basis = invariant_subspace()
    anchor = f2geom.TYPE_REPRESENTATIVES
    rows = [[v[x] - v[anchor[f2geom.classify(x)]] for v in basis] for x in f2geom.SPACE]
    return len(basis) - linalg.rank(rows, len(basis))


# three singular subspaces through the plane spanned by alpha1 and alpha2
EXAMPLE_TRIPLE = tuple(f2geom.echelon_basis([f2geom.ALPHA1, f2geom.ALPHA2, third])
                       for third in (f2geom.ALPHA3, f2geom.ALPHA1 ^ f2geom.E3,
                                     f2geom.ALPHA1 ^ f2geom.F3))


def triple_sign_identity(v1: Subspace, v2: Subspace, v3: Subspace) -> list[tuple[int, int]]:
    """Sign pairs (s2, s3) with f1 - s2*f2 == s3*f3, f1 fixed canonical."""
    f1, f2v, f3 = (singular_vector(v) for v in (v1, v2, v3))
    return [(s2, s3) for s2 in (1, -1) for s3 in (1, -1)
            if all(x - s2 * y == s3 * z for x, y, z in zip(f1, f2v, f3))]
