"""The Weil representation of SL(2, Z/2Z) on the 64-dimensional group ring.

Both generators are read from two cached integer tables over the 64 vectors
of the quadratic space: the signs t[alpha] = (-1)^q(alpha), so that
rho_T = diag(t), and the symmetric +-1 matrix H[beta][alpha] =
(-1)^b(beta, alpha), so that rho_S = H/8.  Every computation in this module
works on these Python ints, and so does every result but the traces and
multiplicities (Fractions), so it is exact: there are no tolerance
parameters anywhere, and no entry can wrap.  S and ST are checked on one
hyperbolic plane, of which both tables are Kronecker cubes.  H applied to a
vector goes through ``linalg``'s packed rows, reused only for the very table
they came from.  The signed vectors f_V are read at their 8 nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping

from . import f2geom, linalg
from .f2geom import Subspace


@lru_cache(maxsize=None)
def q_signs() -> tuple[int, ...]:
    """t[alpha] = (-1)^q(alpha), the diagonal of rho_T."""
    return tuple((-1) ** bit for bit in f2geom.Q_TABLE)


@lru_cache(maxsize=None)
def b_signs() -> tuple[tuple[int, ...], ...]:
    """H[beta][alpha] = (-1)^b(beta, alpha), which is symmetric; rho_S = H/8."""
    return tuple(tuple((-1) ** bit for bit in row) for row in f2geom.B_TABLE)


def _kron(a, b) -> list[list[int]]:  # of matrices given as rows
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


@lru_cache(maxsize=None)
def sl2_relations() -> Mapping[str, bool]:
    """The defining relations S^2 = 1 and (ST)^3 = 1, exactly, as H.H = 64 I
    and (H diag(t))^3 = 512 I, from the planes: with H2 and t2 the tables at
    the vectors 0..3 of the first plane, H = H2 (x) H2 (x) H2 and t = t2 (x)
    t2 (x) t2 over the bit pairs (e_i, f_i), checked at every entry, give
    H.H = (H2.H2)^(x3) and (H diag(t))^3 = ((H2 diag(t2))^3)^(x3), so
    H2.H2 = 4 I and (H2 diag(t2))^3 = 8 I on the 4 x 4 block suffice.  This
    is stricter than the 64 x 64 products: tables that pass them but do not
    factor over the planes, as a relabelling of the vectors, fail both."""
    h, t = b_signs(), q_signs()
    h2, t2 = [row[:4] for row in h[:4]], [t[:4]]
    st2 = [[x * s for x, s in zip(row, t2[0])] for row in h2]
    planes = h == tuple(map(tuple, _kron(h2, _kron(h2, h2))))
    return MappingProxyType({
        "s_squared": planes and linalg.product_is_scalar((h2, h2), 4),
        "st_cubed": planes and t == tuple(_kron(t2, _kron(t2, t2))[0])
        and linalg.product_is_scalar((st2, st2, st2), 8)})


def commutes_with_transvections() -> bool:
    """rho_S and rho_T commute with the permutation of coordinates by every
    transvection."""
    h, t = b_signs(), q_signs()
    for alpha in f2geom.SPACE:
        if f2geom.q(alpha):
            pick = itemgetter(*f2geom.transvection(alpha))  # rows, then columns
            if pick(t) != t or tuple(map(pick, pick(h))) != h:
                return False
    return True


def traces() -> dict[str, Fraction]:
    """Traces of the identity, T, S and ST actions."""
    h, t = b_signs(), q_signs()
    return {
        "E": Fraction(64),
        "T": Fraction(sum(t)),
        "S": Fraction(sum(row[i] for i, row in enumerate(h)), 8),
        "ST": Fraction(sum(row[i] * t[i] for i, row in enumerate(h)), 8),
    }


def character_decomposition() -> tuple[int | Fraction, ...]:
    """Multiplicities of the three irreducible characters of SL(2, Z/2Z).

    The group is symmetric of degree 3; conjugacy classes have sizes 1, 3, 2
    with T in the involution class and ST in the 3-cycle class.  A
    multiplicity that is not an integer, which no representation has, comes
    back as its Fraction, so that a broken table fails the claim.
    """
    t = traces()
    chi = (t["E"], t["T"], t["ST"])
    table = ((1, 1, 1), (1, -1, 1), (2, 0, -1))
    sizes = (1, 3, 2)
    mult = []
    for row in table:
        m = sum(Fraction(s) * c * v for s, c, v in zip(sizes, chi, row)) / 6
        mult.append(int(m) if m.denominator == 1 else m)
    return tuple(mult)


# ---------------------------------------------------------------------------
# invariant vectors


@lru_cache(maxsize=None)
def invariant_subspace() -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the joint fixed space of rho_T and rho_S, spanned
    by maximal isotropic sums, as primitive integer rows; empty unless the
    two bounds below meet.

    Lower bound by construction: the span of the 30 maximal isotropic sums
    that pass ``is_invariant``.  Upper bound by counting: once the relations
    of SL(2, Z/2Z) hold, the joint fixed space is the trivial isotypic part
    of the representation, whose dimension is the trivial multiplicity of
    ``character_decomposition``.  When the rank of the span reaches it, the
    span is the whole fixed space, and the basis is the one elimination of
    the 128 rows of rho_T - I and H - 8I gives (``linalg.free_column_basis``).
    """
    ech = linalg.EchelonForm(64)
    for iso in f2geom.enumerate_isotropic_subspaces(3):
        vec = isotropic_sum_vector(iso)
        # a sum in the span of invariant ones is invariant, and adds nothing
        if not ech.contains(vec[::-1]) and is_invariant(vec):
            ech.add_row(vec[::-1])
    if not all(sl2_relations().values()) or ech.rank != character_decomposition()[0]:
        return ()
    return tuple(map(tuple, linalg.free_column_basis(ech)))


def isotropic_sum_vector(iso: Subspace) -> list[int]:
    members = f2geom.span_mask(iso)
    return [members >> x & 1 for x in f2geom.SPACE]


def is_invariant(vec) -> bool:
    """Exact membership test for the fixed space of rho_T and rho_S: for v
    the integer row of vec, t = 1 where v is nonzero, and H v = 8 v.  H is
    symmetric, so H v sums its +-1 rows at the nonzero entries of v, packed
    in slots that hold |H v| <= 64 max|v|: one int sum per nonzero entry
    replaces 64 entry sums."""
    ints = linalg.integer_row(vec)
    t = q_signs()
    support = [x for x, n in enumerate(ints) if n]
    width = (64 * max(map(abs, ints), default=0)).bit_length() + 1
    rows = _packed_rows(b_signs(), width)
    return all(t[x] == 1 for x in support) and linalg.pack([8 * n for n in ints], width) \
        == sum(ints[x] * rows[x] for x in support)


_packed_h: list = [None, 0, []]  # the last table, its slot width, its packed rows


def _packed_rows(h, width: int) -> list[int]:
    """The rows of h packed, reused while h is the held table object itself."""
    if _packed_h[0] is not h or _packed_h[1] != width:
        _packed_h[:] = h, width, [linalg.pack(row, width) for row in h]
    return _packed_h[2]


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
    for x in f2geom.linear_table(plus):
        vec[x] += 1
    for x in f2geom.linear_table(minus):
        vec[x] -= 1
    return tuple(vec)


def minus_one_eigenspace(subspace: Subspace) -> tuple[int, tuple[int, ...] | None]:
    """Joint (-1)-eigenspace of the transvections at the subspace's anisotropic vectors.

    Solved combinatorially: the constraints v[t(x)] = -v[x] propagate signs
    along an edge-labelled graph on the 64 points, into one list of signs
    (+1 at the first point of each component); each sign-consistent
    component without a forced zero contributes one dimension.  Returns the
    dimension together with a spanning vector when the dimension is 1.
    """
    aniso, _ = f2geom.singular_members(subspace)
    perms = [f2geom.transvection(a) for a in aniso]
    sign, consistent = [0] * 64, []  # the points of each consistent component
    for start in f2geom.SPACE:
        if sign[start]:
            continue
        sign[start], comp, alive = 1, [start], True
        for x in comp:  # comp grows as the loop runs
            for p in perms:
                y = p[x]
                if not sign[y]:
                    sign[y] = -sign[x]
                    comp.append(y)
                elif sign[y] == sign[x]:
                    alive = False  # y == x too: v[x] = -v[x] forces zero on the component
        if alive:
            consistent.append(comp)
    if len(consistent) != 1:
        return len(consistent), None
    members = set(consistent[0])
    return 1, tuple(s if x in members else 0 for x, s in enumerate(sign))


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
        support = [x for x in f2geom.SPACE if fv[x]]
        # t is a bijection, so once it negates fv on its support it maps the
        # support onto itself, and the zeros onto the zeros
        if any(fv[t[x]] != -fv[x] for alpha in f2geom.singular_members(v)[0]
               for t in [f2geom.transvection(alpha)] for x in support):
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
