"""The 64-element quadratic space built from three hyperbolic planes over F2.

Vectors are 6-bit integers with coordinates ordered (e1, f1, e2, f2, e3, f3);
addition is XOR.  The quadratic form is

    q(x) = x_e1*x_f1 + x_e2*x_f2 + x_e3*x_f3

and b(x, y) = q(x+y) + q(x) + q(y) is the associated nondegenerate symmetric
bilinear form.  Both are tables built once at import: ``Q_TABLE`` holds q,
``B_TABLE`` the rows of b read off it by that identity, and every loop over
the space reads them.  An F2-linear map from F2^k is one 2^k-entry table,
built by ``linear_table`` from the images of the basis vectors; spans,
group elements and the dictionaries of the lattice and tableaux models are
such tables.  Subspaces are canonical reduced-echelon tuples of basis
vectors, so they compare by equality; ``all_subspaces`` enumerates these
bases directly; every enumeration is deterministic and cached, so each is
filtered once a run, and spans that meet are 64-bit masks.  The order of the
orthogonal group and its action on q are certified from the Coxeter
presentation of S8; no check reads the explicit 40320-element closure that
``group_elements`` lists.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import factorial
from operator import itemgetter

DIM = 6
SPACE = tuple(range(64))

E1, F1, E2, F2, E3, F3 = 1, 2, 4, 8, 16, 32
BASIS = (E1, F1, E2, F2, E3, F3)
ALPHA1, ALPHA2, ALPHA3 = E1 | F1, E2 | F2, E3 | F3

_E_BITS = 0b010101  # the e-coordinate positions


# q(x): the parity of the hyperbolic pairs (e_i, f_i) both set in x
Q_TABLE = tuple(bin(x & (x >> 1) & _E_BITS).count("1") & 1 for x in SPACE)
# row x: b(x, y) = q(x+y) + q(x) + q(y) for every y
B_TABLE = tuple(tuple(Q_TABLE[x ^ y] ^ Q_TABLE[x] ^ Q_TABLE[y] for y in SPACE) for x in SPACE)


def q(x: int) -> int:
    """Quadratic form value in F2."""
    return Q_TABLE[x]


class VectorType(enum.Enum):
    """The three types, in the order of the components h00, h0, h1."""
    ZERO = "00"
    ISOTROPIC = "0"
    ANISOTROPIC = "1"


# type codes 0, 1, 2 in the order of VectorType
_TYPE_CODES = (0,) + tuple(2 if Q_TABLE[v] else 1 for v in SPACE[1:])
_TYPE_TABLE = tuple(map(tuple(VectorType).__getitem__, _TYPE_CODES))


def classify(v: int) -> VectorType:
    return _TYPE_TABLE[v]


def census() -> dict[VectorType, int]:
    counts = {t: 0 for t in VectorType}
    for kind in _TYPE_TABLE:
        counts[kind] += 1
    return counts


def _pair_counts(alpha: int) -> list[int]:
    """Slot 2 * c + e counts beta of type code c with b(alpha, beta) = e."""
    counts = [0] * 6
    for code, e in zip(_TYPE_CODES, B_TABLE[alpha]):
        counts[2 * code + e] += 1
    return counts


def pair_census(alpha: int) -> dict[tuple[VectorType, int], int]:
    """For fixed alpha, count beta by (type of beta, b(alpha, beta))."""
    counts = _pair_counts(alpha)
    return {(t, e): counts[2 * c + e] for c, t in enumerate(VectorType) for e in (0, 1)}


# one vector of each type
TYPE_REPRESENTATIVES = {VectorType.ZERO: 0, VectorType.ISOTROPIC: E1,
                        VectorType.ANISOTROPIC: ALPHA1}


def pair_census_by_type() -> dict[VectorType, dict[VectorType, tuple[int, int]]]:
    """Per type of alpha, per type of beta: the counts of beta with
    b(alpha, beta) = 0 and = 1, at the representative of alpha's type."""
    out = {}
    for kind, alpha in TYPE_REPRESENTATIVES.items():
        table = pair_census(alpha)
        out[kind] = {t: (table[(t, 0)], table[(t, 1)]) for t in VectorType}
    return out


def pair_census_type_constant() -> bool:
    """Every vector has the pair census of the representative of its type."""
    counts = [_pair_counts(TYPE_REPRESENTATIVES[t]) for t in VectorType]
    return all(_pair_counts(v) == counts[code] for v, code in zip(SPACE, _TYPE_CODES))


# ---------------------------------------------------------------------------
# linear maps, transvections and the orthogonal group

Perm = tuple[int, ...]


def linear_table(images) -> tuple[int, ...]:
    """The F2-linear map with the given images of the basis vectors, as its
    table: entry x is the XOR of the images at the bits of x.  The entries
    below 2^j depend on the first j images only."""
    table = [0]
    for image in images:
        table += [x ^ image for x in table]
    return tuple(table)


def induced_permutation(dictionary, images) -> Perm:
    """The permutation d(x) -> d(L x) of the model vectors, for the linear map
    L with the given images of the basis vectors and a bijective table d."""
    moved = linear_table(images)
    return tuple(dictionary[moved[x]] for x in sorted(SPACE, key=dictionary.__getitem__))


@lru_cache(maxsize=None)
def transvection(alpha: int) -> Perm:
    """The isometry x -> x + b(x, alpha) * alpha; alpha must be anisotropic
    (cached)."""
    if q(alpha) != 1:
        raise ValueError("transvections are defined only at anisotropic vectors")
    return tuple(x ^ (alpha if bit else 0) for x, bit in zip(SPACE, B_TABLE[alpha]))


def all_transvections() -> list[Perm]:
    return [transvection(a) for a in SPACE if Q_TABLE[a]]


def compose(g: Perm, h: Perm) -> Perm:
    """g after h."""
    return tuple(g[h[x]] for x in SPACE)


def transvections_are_involutions() -> bool:
    return all(compose(g, g) == SPACE for g in all_transvections())


@lru_cache(maxsize=None)
def group_elements() -> tuple[Perm, ...]:
    """The closure of the 28 transvections, sorted lexicographically, cached;
    no check reads it.  It runs on the images of the six basis vectors, which
    fix a linear map.  The image of x is the XOR of the basis images at the
    bits of x, all at most x, so sorted basis images sort the elements."""
    gens, seen, frontier = all_transvections(), {BASIS}, {BASIS}
    while frontier:  # breadth first: g h for g a generator and h in the frontier
        frontier = {pick(g) for h in frontier for pick in [itemgetter(*h)] for g in gens} - seen
        seen |= frontier
    return tuple(map(linear_table, sorted(seen)))


def coxeter_relations(gens, compose, identity) -> bool:
    """Whether g_1, ..., g_n satisfy the Coxeter relations of type A_n, each
    with exact order: g_i g_j has order m_ij, with m_ii = 1, m_i,i+1 = 3 and
    m_ij = 2 otherwise.

    ``compose(g, x)`` is the product g x of a generator g and a group
    element x, and ``identity`` is the identity element; elements are
    compared with ==, and may be kept in another form than the generators.
    The powers of g_i g_j are built from the identity as
    x <- compose(g_i, compose(g_j, x)), so an element is never a product of
    more than 2 * 3 generators."""
    for i, j in combinations_with_replacement(range(len(gens)), 2):
        m = 1 if i == j else 3 if j == i + 1 else 2
        power = identity
        for k in range(1, m + 1):
            power = compose(gens[i], compose(gens[j], power))
            if (power == identity) != (k == m):
                return False
    return True


# Seven anisotropic vectors whose b-Gram matrix is the A7 path:
# b(c_i, c_j) = 1 exactly when |i - j| = 1.
COXETER_CHAIN = (3, 13, 19, 39, 11, 7, 27)


def coxeter_generators() -> list[Perm]:
    """The transvections at the vectors of ``COXETER_CHAIN``, in chain order."""
    return [transvection(a) for a in COXETER_CHAIN]


def _presentation_certificate() -> tuple[bool, bool, bool]:
    """(the generators satisfy the A7 relations, the orbit of the chain under
    them is all 28 anisotropic vectors, each generator preserves q)."""
    gens = coxeter_generators()
    reached = set().union(*(o for o in orbits(gens) if set(o) & set(COXETER_CHAIN)))
    return (coxeter_relations(gens, compose, SPACE),
            reached == {a for a in SPACE if Q_TABLE[a]},
            all(Q_TABLE[g[x]] == Q_TABLE[x] for g in gens for x in SPACE))


def group_order() -> int:
    """The order of the group G generated by the 28 transvections: 8! = 40320
    when the presentation certificate holds, 0 when it does not.

    The proof.  The transvections t_1..t_7 at ``COXETER_CHAIN`` satisfy the
    Coxeter relations of S8, so s_i -> t_i is a homomorphism phi: S8 -> G.  It
    is onto: g t_a g^-1 = t_g(a) for every isometry g, and the orbit of the
    chain under the t_i is every anisotropic vector, so the image holds all 28
    transvections.  Its kernel is normal, hence 1, A8 or S8; s1 s2 lies in A8
    and phi(s1 s2) has order 3, so the kernel is trivial and G is S8.
    """
    relations, onto, preserves_q = _presentation_certificate()
    return factorial(len(COXETER_CHAIN) + 1) if relations and onto and preserves_q else 0


def group_preserves_form() -> bool:
    """q(g x) == q(x) for every g in G and every vector x: the transvections
    at the chain generate G (their orbit of the chain is every anisotropic
    vector), and each of them preserves q."""
    _, onto, preserves_q = _presentation_certificate()
    return onto and preserves_q


def orbits(generators: list[Perm] | None = None) -> list[tuple[int, ...]]:
    """Orbits of 0..63 under the group generated by the given permutations."""
    gens = generators if generators is not None else all_transvections()
    seen = set()
    result = []
    for start in SPACE:
        if start in seen:
            continue
        orbit = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for g in gens:
                y = g[x]
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        seen |= orbit
        result.append(tuple(sorted(orbit)))
    return result


def orbit_sizes() -> list[int]:
    """Sizes of the orbits of the transvection group, ascending."""
    return sorted(len(o) for o in orbits())


# ---------------------------------------------------------------------------
# subspaces

Subspace = tuple[int, ...]


def echelon_basis(vectors) -> Subspace:
    """Unique reduced-echelon basis (pivots at most significant bits).  The
    rows keep distinct top bits, each clear in the others, and x ^ r < x
    exactly when x has the top bit of r set: min(x, x ^ r) clears it."""
    rows: list[int] = []
    for v in vectors:
        for r in rows:
            v = min(v, v ^ r)
        if v:
            rows = [min(r, r ^ v) for r in rows] + [v]
    return tuple(sorted(rows, reverse=True))


def span(basis: Subspace) -> list[int]:
    return sorted(linear_table(basis))


def span_mask(basis: Subspace) -> int:
    """The span as a 64-bit mask: bit x is set when x lies in it."""
    return sum(map((1).__lshift__, set(linear_table(basis))))


@lru_cache(maxsize=None)
def all_subspaces(dim: int) -> tuple[Subspace, ...]:
    """All subspaces of the given dimension, canonically ordered.

    The reduced-echelon bases are enumerated directly: a basis is fixed by
    its pivots p_1 > ... > p_dim, the top bits of its vectors, and vector i
    is any v with top bit p_i that is zero at the other pivots.
    """
    if not 0 <= dim <= DIM:
        raise ValueError("dimension out of range")
    found = []
    for pivots in combinations(range(DIM - 1, -1, -1), dim):
        mask = sum(1 << p for p in pivots)
        found += product(*([v for v in range(1 << p, 2 << p) if v & mask == 1 << p]
                           for p in pivots))
    return tuple(sorted(found))


def is_totally_isotropic(s: Subspace) -> bool:
    return not any(map(Q_TABLE.__getitem__, s)) and not any(
        B_TABLE[u][v] for u, v in combinations(s, 2))


def is_singular(s: Subspace) -> bool:
    """True for 3-dim subspaces where b vanishes but q does not."""
    if len(s) != 3 or any(B_TABLE[u][v] for u, v in combinations(s, 2)):
        return False
    return any(map(Q_TABLE.__getitem__, s))


@lru_cache(maxsize=None)
def enumerate_isotropic_subspaces(dim: int) -> tuple[Subspace, ...]:
    if not 1 <= dim <= 3:
        raise ValueError("totally isotropic subspaces here have dimension 1..3")
    return tuple(s for s in all_subspaces(dim) if is_totally_isotropic(s))


def isotropic_subspace_counts() -> dict[int, int]:
    return {d: len(enumerate_isotropic_subspaces(d)) for d in (1, 2, 3)}


@lru_cache(maxsize=None)
def enumerate_singular_subspaces() -> tuple[Subspace, ...]:
    return tuple(s for s in all_subspaces(3) if is_singular(s))


@lru_cache(maxsize=None)
def singular_members(s: Subspace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(anisotropic vectors, isotropic vectors) of a singular subspace (cached)."""
    if not is_singular(s):
        raise ValueError("not a maximal totally singular subspace")
    vecs = span(s)
    aniso = tuple(v for v in vecs if Q_TABLE[v])
    iso = tuple(v for v in vecs if not Q_TABLE[v])
    return aniso, iso


def singular_member_split() -> bool:
    """Every singular subspace has 4 anisotropic and 4 isotropic vectors."""
    return all(tuple(map(len, singular_members(s))) == (4, 4)
               for s in enumerate_singular_subspaces())


def kernel_plane(s: Subspace) -> Subspace:
    """The isotropic vectors of a singular subspace, a plane, as its basis."""
    return echelon_basis(singular_members(s)[1])


@lru_cache(maxsize=None)
def isotropic_plane_extensions(plane: Subspace) -> tuple[Subspace, ...]:
    """The maximal totally isotropic subspaces containing a given plane (two
    for the split form), found by scanning the isotropic vectors orthogonal
    to the plane upward and skipping those already covered: the extension
    whose smallest vector outside the plane is smaller comes first.
    """
    plane = echelon_basis(plane)
    if len(plane) != 2 or not is_totally_isotropic(plane):
        raise ValueError("need a totally isotropic plane")
    exts, covered = [], span_mask(plane)
    for v, qv, bu, bw in zip(SPACE, Q_TABLE, B_TABLE[plane[0]], B_TABLE[plane[1]]):
        if not (qv or bu or bw or covered >> v & 1):
            ext = echelon_basis(plane + (v,))
            if is_totally_isotropic(ext):
                exts.append(ext)
                covered |= span_mask(ext)
    return tuple(exts)


def plane_extension_pairs() -> bool:
    """Each totally isotropic plane has exactly two extensions, which differ
    and meet in the plane."""
    for plane in enumerate_isotropic_subspaces(2):
        exts = isotropic_plane_extensions(plane)
        if len(exts) != 2:
            return False
        plus, minus = map(span_mask, exts)
        if plus == minus or plus & minus != span_mask(plane):
            return False
    return True


def maximal_isotropic_by_extension() -> tuple[Subspace, ...]:
    """The maximal totally isotropic subspaces as the extensions of the
    totally isotropic planes, sorted: a route independent of the direct
    enumeration."""
    return tuple(sorted({ext for plane in enumerate_isotropic_subspaces(2)
                         for ext in isotropic_plane_extensions(plane)}))
