"""The 64-element quadratic space built from three hyperbolic planes over F2.

Vectors are 6-bit integers with coordinates ordered (e1, f1, e2, f2, e3, f3);
addition is XOR.  The quadratic form is

    q(x) = x_e1*x_f1 + x_e2*x_f2 + x_e3*x_f3

and b(x, y) = q(x+y) + q(x) + q(y) is the associated nondegenerate symmetric
bilinear form.  Subspaces are canonical reduced-echelon tuples of basis
vectors, so they compare by equality, and every enumeration is deterministic.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from itertools import combinations

import numpy as np

DIM = 6
SPACE = tuple(range(64))

E1, F1, E2, F2, E3, F3 = 1, 2, 4, 8, 16, 32
BASIS = (E1, F1, E2, F2, E3, F3)
ALPHA1, ALPHA2, ALPHA3 = E1 | F1, E2 | F2, E3 | F3

_E_BITS = 0b010101  # the e-coordinate positions


def q(x: int) -> int:
    """Quadratic form value in F2."""
    return bin(x & (x >> 1) & _E_BITS).count("1") & 1


def b(x: int, y: int) -> int:
    """Polarized bilinear form b(x,y) = q(x+y) + q(x) + q(y)."""
    swapped = ((y & _E_BITS) << 1) | ((y >> 1) & _E_BITS)
    return bin(x & swapped).count("1") & 1


class VectorType(enum.Enum):
    ZERO = "00"
    ISOTROPIC = "0"
    ANISOTROPIC = "1"


def classify(v: int) -> VectorType:
    if v == 0:
        return VectorType.ZERO
    return VectorType.ANISOTROPIC if q(v) else VectorType.ISOTROPIC


def census() -> dict[VectorType, int]:
    counts = {t: 0 for t in VectorType}
    for v in SPACE:
        counts[classify(v)] += 1
    return counts


def pair_census(alpha: int) -> dict[tuple[VectorType, int], int]:
    """For fixed alpha, count beta by (type of beta, b(alpha, beta))."""
    counts = {(t, e): 0 for t in VectorType for e in (0, 1)}
    for beta in SPACE:
        counts[(classify(beta), b(alpha, beta))] += 1
    return counts


# ---------------------------------------------------------------------------
# transvections and the orthogonal group

Perm = tuple[int, ...]


def transvection(alpha: int) -> Perm:
    """The isometry x -> x + b(x, alpha) * alpha; alpha must be anisotropic."""
    if q(alpha) != 1:
        raise ValueError("transvections are defined only at anisotropic vectors")
    return tuple(x ^ (alpha if b(x, alpha) else 0) for x in SPACE)


def all_transvections() -> list[Perm]:
    return [transvection(a) for a in SPACE if q(a) == 1]


def compose(g: Perm, h: Perm) -> Perm:
    """g after h."""
    return tuple(g[h[x]] for x in SPACE)


@lru_cache(maxsize=None)
def _group_table() -> np.ndarray:
    """The 40320 x 64 table of images, row g holding (g(0), ..., g(63)), in
    lexicographic order of rows; read-only uint8, cached for the process.

    The group acts linearly, so an element is fixed by its images of the six
    basis vectors, packed 6 bits each into one int64 key with the image of e1
    highest.  The breadth-first closure of the 28 transvections runs on these
    keys as numpy sets.  An image x is the XOR of the basis images at the bits
    of x, all at most x, so the first difference of two elements lies at a
    basis vector and sorted keys are in lexicographic order.
    """
    gens = np.array(all_transvections(), dtype=np.int64)
    shifts = 6 * np.arange(DIM - 1, -1, -1, dtype=np.int64)
    weights = 1 << shifts
    identity = np.array(BASIS) @ weights
    frontier = gens[:, BASIS]  # the generators' basis images
    seen = np.union1d(frontier @ weights, [identity])
    while len(frontier):
        fresh = np.setdiff1d(gens[:, frontier].reshape(-1, DIM) @ weights, seen)
        seen = np.union1d(seen, fresh)
        frontier = (fresh[:, None] >> shifts) & 63
    basis_images = ((seen[:, None] >> shifts) & 63).astype(np.uint8)
    table = np.zeros((len(seen), 64), dtype=np.uint8)
    for x in range(1, 64):
        low = x & -x
        table[:, x] = table[:, x ^ low] ^ basis_images[:, low.bit_length() - 1]
    table.flags.writeable = False
    return table


def group_order() -> int:
    """The order of the closure of the 28 transvections (40320), read from
    the cached image table."""
    return len(_group_table())


def group_elements() -> tuple[Perm, ...]:
    """The closure of the 28 transvections, sorted lexicographically: the
    rows of the cached image table as tuples of Python ints.  The tuples take
    ≈ 22 MB and are built per call, not cached; ``group_order`` and
    ``group_preserves_form`` read the table itself."""
    return tuple(map(tuple, _group_table().tolist()))


def group_preserves_form() -> bool:
    """q(g x) == q(x) for every group element g and vector x, as one lookup
    of the q table at the 40320 x 64 table of images."""
    qtable = np.array([q(x) for x in SPACE], dtype=np.uint8)
    return bool((qtable[_group_table()] == qtable).all())


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


# ---------------------------------------------------------------------------
# subspaces

Subspace = tuple[int, ...]


def echelon_basis(vectors) -> Subspace:
    """Unique reduced-echelon basis (pivots at most significant bits)."""
    pivots: dict[int, int] = {}
    for v in vectors:
        for p in sorted(pivots, reverse=True):
            if (v >> p) & 1:
                v ^= pivots[p]
        if v:
            pivots[v.bit_length() - 1] = v
    for p in sorted(pivots):
        for p2 in pivots:
            if p2 > p and (pivots[p2] >> p) & 1:
                pivots[p2] ^= pivots[p]
    return tuple(pivots[p] for p in sorted(pivots, reverse=True))


def span(basis: Subspace) -> list[int]:
    out = [0]
    for v in basis:
        out += [x ^ v for x in out]
    return sorted(out)


@lru_cache(maxsize=None)
def all_subspaces(dim: int) -> tuple[Subspace, ...]:
    """All subspaces of the given dimension, canonically ordered."""
    if not 0 <= dim <= DIM:
        raise ValueError("dimension out of range")
    found = {echelon_basis(c) for c in combinations(range(1, 64), dim)}
    return tuple(sorted(s for s in found if len(s) == dim))


def is_totally_isotropic(s: Subspace) -> bool:
    basis = list(s)
    return all(q(v) == 0 for v in basis) and all(
        b(u, v) == 0 for u, v in combinations(basis, 2)
    )


def is_singular(s: Subspace) -> bool:
    """True for 3-dim subspaces where b vanishes but q does not."""
    basis = list(s)
    if len(basis) != 3:
        return False
    if any(b(u, v) for u, v in combinations(basis, 2)):
        return False
    return any(q(v) for v in basis)


def enumerate_isotropic_subspaces(dim: int) -> tuple[Subspace, ...]:
    if not 1 <= dim <= 3:
        raise ValueError("totally isotropic subspaces here have dimension 1..3")
    return tuple(s for s in all_subspaces(dim) if is_totally_isotropic(s))


@lru_cache(maxsize=None)
def enumerate_singular_subspaces() -> tuple[Subspace, ...]:
    return tuple(s for s in all_subspaces(3) if is_singular(s))


def singular_members(s: Subspace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(anisotropic vectors, isotropic vectors) of a singular subspace."""
    if not is_singular(s):
        raise ValueError("not a maximal totally singular subspace")
    vecs = span(s)
    aniso = tuple(v for v in vecs if q(v))
    iso = tuple(v for v in vecs if not q(v))
    return aniso, iso


def kernel_plane(s: Subspace) -> Subspace:
    """The isotropic vectors of a singular subspace form a plane."""
    _, iso = singular_members(s)
    plane = echelon_basis(iso)
    assert len(plane) == 2
    return plane


def isotropic_plane_extensions(plane: Subspace) -> tuple[Subspace, Subspace]:
    """The two maximal totally isotropic subspaces containing a given plane.

    Returned in a fixed order: the extension whose smallest vector outside
    the plane has the smaller bit pattern comes first.
    """
    plane = echelon_basis(plane)
    if len(plane) != 2 or not is_totally_isotropic(plane):
        raise ValueError("need a totally isotropic plane")
    inside = set(span(plane))
    exts = set()
    for v in SPACE:
        if v in inside or q(v):
            continue
        if all(b(v, u) == 0 for u in plane):
            ext = echelon_basis(plane + (v,))
            if is_totally_isotropic(ext):
                exts.add(ext)
    assert len(exts) == 2, exts
    keyed = sorted(exts, key=lambda e: min(v for v in span(e) if v not in inside))
    return keyed[0], keyed[1]


# ---------------------------------------------------------------------------
# recognising other models of the same space


def find_model_isomorphism(q_table) -> tuple[int, ...]:
    """Map another rank-6 model onto this one.

    ``q_table[x]`` gives the form value (0/1) of the vector with coordinate
    bits ``x`` in the foreign model.  Returns images of the 6 foreign basis
    vectors in this model such that the linear extension transports the
    foreign form exactly onto q; raises if the foreign form is not split.
    """
    if len(q_table) != 64:
        raise ValueError("need a rank-6 table of 64 values")
    if sum(1 for v in q_table if v == 0) != 36:
        raise ValueError("form is not isomorphic to the split model (census mismatch)")

    def fb(x, y):
        return (q_table[x ^ y] + q_table[x] + q_table[y]) & 1

    # extract a hyperbolic basis (x1,y1,x2,y2,x3,y3) of the foreign model;
    # a nonzero vector orthogonal to the previous pairs is automatically
    # independent of them, so orthogonality is the only constraint needed
    pairs: list[tuple[int, int]] = []

    def orthogonal_to_pairs(v):
        return all(fb(v, x) == 0 and fb(v, y) == 0 for x, y in pairs)

    try:
        for _ in range(3):
            x = next(v for v in range(1, 64) if q_table[v] == 0
                     and orthogonal_to_pairs(v))
            y = next(v for v in range(1, 64) if fb(x, v) == 1
                     and orthogonal_to_pairs(v))
            if q_table[y]:
                y ^= x
            pairs.append((x, y))
    except StopIteration:
        raise ValueError("form is degenerate or not split") from None

    # coordinates w.r.t. the hyperbolic basis: the x_j-coefficient of v is
    # fb(v, y_j) and the y_j-coefficient is fb(v, x_j)
    images = []
    for i in range(6):
        e = 1 << i
        coords = 0
        for j, (x, y) in enumerate(pairs):
            coords |= fb(e, y) << (2 * j)
            coords |= fb(e, x) << (2 * j + 1)
        images.append(coords)

    if len(echelon_basis(images)) != 6:
        raise ValueError("extracted map is not invertible")
    for v in range(64):
        img = 0
        for i in range(6):
            if (v >> i) & 1:
                img ^= images[i]
        if q(img) != (q_table[v] & 1):
            raise ValueError("extracted basis fails to transport the form")
    return tuple(images)
