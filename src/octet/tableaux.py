"""Pair tableaux on 8 labels, cross-ratio products, and the dictionary to
maximal totally singular subspaces.

A tableau is a partition of {1..8} into four ordered pairs, kept in canonical
form (each pair increasing, pairs sorted by first entry); there are 105 of
them and 14 are standard (second entries increasing down the column, i.e. no
two pairs nest).  Configurations are 8 points on the projective line in exact
homogeneous coordinates.  The product of a tableau's four 2x2 minors is the
basic invariant; the 14 standard products give the projective embedding, and
every other product straightens into an integer combination of them through
the three-term exchange relation.

Claims about the products as functions are proved by identity, on one
representation: values of ``mu_vector`` at points.  At the affine points
(1, x_i) a product is the multilinear polynomial prod (x_b - x_a) over its
pairs, so the affine chart loses nothing.  Straightening expansions, the
Plücker relation and the signs of relabelled products are compared by their
values at one integer point, which fixes a multilinear polynomial with small
enough coefficients (``_kronecker_values``).  The 14 standard products are
independent because their leading monomials, read off the pairs, are
distinct: a unitriangular 14 x 14 system (``linear_relations``).  The 14
quadrics among the standard products are built, not solved for: both terms
of the binomial ``SEED_BINOMIAL`` multiply the same eight minors, and the
action matrices of S8, substitutions by the identity that defines them,
carry it to a span of 14 relations, the lower bound.  The upper bound
is counted: seeded configurations give the 105 quadratic monomials rank 91,
so there are at most 105 - 91 = 14.  Those configurations are the only
samples; every other claim is an identity.  The S8 claims are certified on
the seven adjacent transpositions, which generate S8; each action matrix is
checked by the identity that defines it, M V(x) = V at x with two variables
swapped, at one Kronecker point, and none is multiplied out.  Sampled
points are Python ints, and so is every certificate and every kernel basis
vector; Fractions appear only where input is parsed (``parse_config``) and
in ``theta_map``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial
from operator import mul
from types import MappingProxyType
from typing import Mapping

from . import f2geom, lattices, linalg
from .sampling import SplitMix64

Pair = tuple[int, int]
Tableau = tuple[Pair, Pair, Pair, Pair]
Config = tuple[tuple[int | Fraction, int | Fraction], ...]  # ints sampled, Fractions parsed

LABELS = (1, 2, 3, 4, 5, 6, 7, 8)


class UnstableConfiguration(ValueError):
    """Raised when every standard coordinate vanishes (five points collide)."""


# ---------------------------------------------------------------------------
# tableaux


def canonical_tableau(rows) -> tuple[Tableau, int]:
    """Canonical form and the sign picked up by sorting pair entries."""
    sign = 1
    fixed = []
    for a, b in rows:
        if a > b:
            a, b = b, a
            sign = -sign
        fixed.append((a, b))
    fixed.sort()
    return tuple(fixed), sign


def is_standard(t: Tableau) -> bool:
    seconds = [b for _, b in t]
    return all(x < y for x, y in zip(seconds, seconds[1:]))


@lru_cache(maxsize=None)
def enumerate_tableaux() -> tuple[Tableau, ...]:
    """All 105 canonical tableaux (perfect matchings of the 8 labels)."""
    def matchings(labels):
        if not labels:
            yield ()
            return
        first = labels[0]
        for i in range(1, len(labels)):
            pair = (first, labels[i])
            rest = labels[1:i] + labels[i + 1:]
            for tail in matchings(rest):
                yield (pair,) + tail
    return tuple(sorted(matchings(LABELS)))


@lru_cache(maxsize=None)
def standard_tableaux() -> tuple[Tableau, ...]:
    return tuple(t for t in enumerate_tableaux() if is_standard(t))


def double_factorial_count() -> int:
    out = 1
    for k in range(7, 0, -2):
        out *= k
    return out


def hook_count() -> int:
    """Standard fillings of the 4x2 rectangle by the hook length formula."""
    hooks = [5, 4, 4, 3, 3, 2, 2, 1]
    prod = 1
    for h in hooks:
        prod *= h
    return factorial(8) // prod


# ---------------------------------------------------------------------------
# configurations and cross-ratio products


def affine_config(xs) -> Config:
    return parse_config([(1, x) for x in xs])


def parse_config(pairs) -> Config:
    if not isinstance(pairs, (list, tuple)) or not all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs):
        raise ValueError("a configuration is a list of homogeneous coordinate pairs")
    try:
        if any(isinstance(x, bool) for p in pairs for x in p):
            raise TypeError("a boolean is not a number")
        config = tuple((Fraction(a), Fraction(b)) for a, b in pairs)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError("coordinates must be rational numbers (%s)" % exc) from None
    if len(config) != 8:
        raise ValueError("a configuration has exactly 8 points")
    if any(a == 0 and b == 0 for a, b in config):
        raise ValueError("homogeneous coordinates must not both vanish")
    return config


# the 28 label pairs a < b, one 2x2 minor each, and the slot of each in a
# flat list of the minors
_PAIRS = tuple((a, b) for a in LABELS for b in LABELS if a < b)
_PAIR_SLOT = {pair: k for k, pair in enumerate(_PAIRS)}


@lru_cache(maxsize=None)
def _minor_slots(tabs) -> tuple[tuple[int, int, int, int], ...]:
    """The slots of the four minors of each tableau of a tuple (cached)."""
    return tuple(tuple(map(_PAIR_SLOT.__getitem__, t)) for t in tabs)


def mu_vector(config: Config, tabs=None) -> tuple[Fraction | int, ...]:
    """The product of the four 2x2 minors picked out by the pairs of each
    canonical tableau of the tuple ``tabs`` (default: the 14 standard ones),
    in the coordinates' own arithmetic (ints at integer points).  The 28
    minors of the configuration are computed once, into a flat list."""
    tabs = standard_tableaux() if tabs is None else tabs
    minors = [x * w - y * z for (x, y), (z, w) in
              [(config[a - 1], config[b - 1]) for a, b in _PAIRS]]
    return tuple(minors[p] * minors[q] * minors[r] * minors[s]
                 for p, q, r, s in _minor_slots(tabs))


def theta_map(config: Config) -> tuple[Fraction, ...]:
    """The 14 standard coordinates normalized by the first nonzero one."""
    values = mu_vector(config)
    pivot = next((v for v in values if v != 0), None)
    if pivot is None:
        raise UnstableConfiguration("all 14 standard coordinates vanish")
    return tuple(v / pivot for v in values)


# ---------------------------------------------------------------------------
# the quotient model on 8 bits and the subspace dictionary
#
# Pair vectors live in an 8-bit space with one generator per label; the
# all-ones vector theta is the relation, so classes of even-weight vectors
# modulo theta form a 64-element quadratic space with q = (weight/2) mod 2.
# Representatives are normalized to have bit 7 clear, and the class group is
# coordinatized by the classes of the pairs (1, j+1) for j = 1..6: bits 1..6
# of the representative.  The 64-entry table ``theta_model_dictionary`` maps
# these coordinates to the model vectors of ``f2geom``.

_THETA8 = 0xFF


def _class_coords(x: int) -> int:
    """The coordinates of the class of an even-weight vector x."""
    if bin(x).count("1") % 2:
        raise ValueError("only even-weight vectors lie in the kernel space")
    return ((x ^ _THETA8 if x >> 7 & 1 else x) >> 1) & 0x3F


def pair_class_form() -> lattices.FiniteQuadraticForm:
    """The quotient space as a finite quadratic form on the six generators,
    the classes of the pairs (1, j + 2), by the weight rule: the class with
    coordinates c has the representative c << 1 with bit 0 set when that
    makes its weight w even, and q4 = 2q = 2 (w/2 mod 2)."""
    weights = (bin(c).count("1") for c in range(64))
    return lattices.FiniteQuadraticForm(tuple(2 * ((w + w % 2) // 2 % 2) for w in weights))


@lru_cache(maxsize=None)
def theta_model_dictionary() -> tuple[int, ...]:
    """The model vector of each class, indexed by its coordinates."""
    return lattices.identify_with_split_model(pair_class_form())


def pair_mask(pair: Pair) -> int:
    a, b = pair
    return (1 << (a - 1)) | (1 << (b - 1))


def label_vector_in_model(pair: Pair) -> int:
    return theta_model_dictionary()[_class_coords(pair_mask(pair))]


def tableau_to_subspace(t: Tableau) -> f2geom.Subspace:
    """The subspace spanned by a tableau's pair classes, in echelon form: a
    maximal totally singular one when the dictionary is right, which
    ``subspace_bijection_check`` certifies; a wrong dictionary shows there
    as a failing value."""
    return f2geom.echelon_basis([label_vector_in_model(pair) for pair in t])


def subspace_bijection_check() -> dict:
    """The 105 spans against the 105 maximal totally singular subspaces: a
    span of another dimension, or a repeated one, leaves the image short of
    the target."""
    image = sorted(tableau_to_subspace(t) for t in enumerate_tableaux())
    target = sorted(f2geom.enumerate_singular_subspaces())
    return {
        "injective": len(set(image)) == len(image),
        "image_matches": image == target,
        "count": len(image),
    }


# ---------------------------------------------------------------------------
# symmetric group action


def apply_permutation(t: Tableau, sigma) -> tuple[Tableau, int]:
    """Relabel a tableau by a 0-based permutation of the 8 slots, with sign."""
    rows = [(sigma[a - 1] + 1, sigma[b - 1] + 1) for a, b in t]
    return canonical_tableau(rows)


def induced_model_map(sigma) -> tuple[int, ...]:
    """Permutation of the 64 model vectors induced by a 0-based permutation of
    labels: it moves generator j, the class of the pair (1, j + 2), to the
    class of the pair at slots sigma(0), sigma(j + 1)."""
    return f2geom.induced_permutation(theta_model_dictionary(), [
        _class_coords(1 << sigma[0] | 1 << sigma[j + 1]) for j in range(6)])


def transposition_transvection_check() -> bool:
    """Transpositions act on the model exactly as the matching transvections;
    a pair class that is not anisotropic has no transvection and fails."""
    for i in range(8):
        for j in range(i + 1, 8):
            sigma = list(range(8))
            sigma[i], sigma[j] = j, i
            alpha = label_vector_in_model((i + 1, j + 1))
            if (f2geom.q(alpha) != 1
                    or induced_model_map(tuple(sigma)) != f2geom.transvection(alpha)):
                return False
    return True


def sample_config(rng: SplitMix64) -> Config:
    """The next sampled configuration: the affine points (1, x) at 8 distinct
    integers x in [-50, 50], in Python ints.  Distinct points are stable, and
    every product there is an int."""
    return tuple((1, x) for x in rng.distinct_integers(8, -50, 50))


# the transpositions (i i+1), as 0-based permutations; they generate S8
ADJACENT_TRANSPOSITIONS = tuple(
    tuple(i + 1 if j == i else i if j == i + 1 else j for j in range(8))
    for i in range(7))


def action_matrix(sigma) -> list[list[int]]:
    """The exact 14x14 integer matrix M of the permutation action on standard
    products: M applied to mu_vector(c) gives mu_vector at c with the point of
    label i moved to slot sigma(i).

    Moving the points by sigma evaluates each standard product at the
    tableau relabelled by sigma^-1, so row i is the signed straightening of
    the i-th standard tableau relabelled by sigma^-1.
    """
    inverse = [0] * 8
    for i, image in enumerate(sigma):
        inverse[image] = i
    standard = standard_tableaux()
    column = {t: j for j, t in enumerate(standard)}
    matrix = []
    for t in standard:
        relabelled, sign = apply_permutation(t, inverse)
        row = [0] * 14
        for std, coeff in straighten(relabelled):
            row[column[std]] = sign * coeff
        matrix.append(row)
    return matrix


def _substitution() -> tuple[list[list[list[int]]], bool]:
    """The action matrices M_s of the seven adjacent transpositions s, and
    whether each is the substitution moving the points by s: M_s V(x) = V(x_s)
    on the standard products, x_s the Kronecker point x with the variables of
    s swapped.  Its width b puts 2**(b-1) above the largest row L1-norm of
    the M_s, so this holds as polynomials, and M_s carries each relation q to
    one: q(M_s V(x)) = q(V(x_s)) = 0.  Uncached: callers check what they read."""
    standard = standard_tableaux()
    matrices = [action_matrix(s) for s in ADJACENT_TRANSPOSITIONS]
    width, value = _kronecker_values(standard,
                                     max(sum(map(abs, row)) for m in matrices for row in m))
    at_x = [value[t] for t in standard]
    return matrices, all(
        [sum(map(mul, row, at_x)) for row in matrix] == list(mu_vector(_kronecker_point(width, s)))
        for s, matrix in zip(ADJACENT_TRANSPOSITIONS, matrices))


def equivariance_check() -> dict:
    """The S8 claims at all 105 tableaux t, certified on the seven adjacent
    transpositions s, which generate S8, by values at the Kronecker point x
    of ``_kronecker_values`` and at x_s, x with the two variables of s
    swapped.  Write (R_s t, sign) for apply_permutation(t, s).
    ``sign_identity``: sign * V_t(x_s) = V_(R_s t)(x).  Both sides are
    multilinear with coefficients +-1, so this is a polynomial identity:
    relabellings compose with their signs multiplying.
    ``intertwines_subspaces``: induced_model_map(s) carries V(t) onto
    V(R_s t), compared as ``f2geom.span_mask`` ints, and both sides are
    actions of S8.  ``homomorphism``: each M_s is a substitution
    (``_substitution``), ``sign_identity`` holds, the straightening
    expansions are polynomial identities and ``linear_relations()`` is
    empty.  The standard products are then independent, so M_s is the
    matrix of the substitution moving the points by s: the seven generate a
    representation of S8 and meet the Coxeter relations.
    """
    tabs = enumerate_tableaux()
    width, value = _kronecker_values(tabs)
    bases = {t: tableau_to_subspace(t) for t in tabs}
    spans = {t: f2geom.span(basis) for t, basis in bases.items()}
    masks = {t: f2geom.span_mask(basis) for t, basis in bases.items()}
    sign_ok = intertwine_ok = True
    for s in ADJACENT_TRANSPOSITIONS:
        g = induced_model_map(s)
        for t, product in zip(tabs, mu_vector(_kronecker_point(width, s), tabs)):
            moved, sign = apply_permutation(t, s)
            if sign * product != value[moved]:
                sign_ok = False
            if sum({1 << g[v] for v in spans[t]}) != masks[moved]:
                intertwine_ok = False
    hom_ok = (_substitution()[1] and sign_ok and _straightening_identities()
              and linear_relations() == ())
    return {"homomorphism": hom_ok, "intertwines_subspaces": intertwine_ok,
            "sign_identity": sign_ok}


# ---------------------------------------------------------------------------
# straightening


@lru_cache(maxsize=None)
def straighten(t: Tableau) -> tuple[tuple[Tableau, int], ...]:
    """Integer expansion of a product in the standard basis.

    A nesting pair of rows (a,b),(c,d) with a<c<d<b rewrites through the
    exchange P(ab)P(cd) = P(ad)P(cb) - P(ac)P(db); both replacements strictly
    shrink the largest pair gap, so the recursion terminates.
    """
    if is_standard(t):
        return ((t, 1),)
    rows = list(t)
    # rows are sorted, so b > d gives a < c < d < b
    target = next((i for i in range(3) if rows[i][1] > rows[i + 1][1]), None)
    if target is None:
        raise ArithmeticError("a tableau that is not standard has no nesting pair of rows")
    (a, b), (c, d) = rows[target], rows[target + 1]
    rest = rows[:target] + rows[target + 2:]
    out: dict[Tableau, int] = {}
    for replacement, coeff in ((((a, d), (c, b)), 1), (((a, c), (d, b)), -1)):
        sub, sign = canonical_tableau(rest + list(replacement))
        for std, inner_coeff in straighten(sub):
            key = std
            out[key] = out.get(key, 0) + coeff * sign * inner_coeff
    return tuple(sorted((k, v) for k, v in out.items() if v))


@lru_cache(maxsize=None)
def _straightening_identities() -> bool:
    """Every straightening expansion holds as a polynomial identity,
    compared at the Kronecker point: sum c_s V(s) = V(t).  The left side is
    the value of sum c_s P_s, whose coefficients are at most sum |c_s|; the
    slot width b is taken from the largest sum |c_s|, so both sides are
    fixed by their values."""
    tabs = enumerate_tableaux()
    weight = max(sum(abs(c) for _, c in straighten(t)) for t in tabs)
    value = _kronecker_values(tabs, weight)[1]
    return all(sum(c * value[std] for std, c in straighten(t)) == value[t] for t in tabs)


# the three-term Plücker relation [12][34] - [13][24] + [14][23] = 0, as
# (pair, pair, coefficient)
PLUCKER_TERMS = (((1, 2), (3, 4), 1), ((1, 3), (2, 4), -1), ((1, 4), (2, 3), 1))


def straightening_check() -> dict:
    """Every expansion as a polynomial identity; ``ok`` also needs the Plücker
    relation, the exchange that straightening applies, to expand to zero.
    Its terms multiply minors on disjoint pairs, so it is multilinear with
    coefficients at most sum |c| = 3, and compared at a Kronecker point."""
    all_ok = _straightening_identities()
    weight = sum(abs(c) for _, _, c in PLUCKER_TERMS)
    x = [v for _, v in _kronecker_point(weight.bit_length() + 1)]
    minor = {(a, b): x[b - 1] - x[a - 1] for a, b in _PAIRS}
    plucker_ok = not sum(c * minor[p] * minor[q] for p, q, c in PLUCKER_TERMS)
    return {"expansions_match": all_ok, "ok": all_ok and plucker_ok}


# ---------------------------------------------------------------------------
# values at one integer point
#
# Identities among multilinear polynomials in the affine coordinates
# x_1..x_8 are compared at one integer point, the Kronecker point of width
# b: x_i = 2**(b * 2**(i-1)).  There the monomial of the variables in a set
# S is 2**(b * m), m the bitmask of S, so the value of a multilinear
# polynomial is the balanced base-2**b expansion whose digit m is the
# coefficient of that monomial.  When every coefficient has size below
# 2**(b-1), the difference of two such polynomials has digits of size below
# 2**b, and its lowest nonzero digit is not divisible by 2**b: equal values
# are equal polynomials.


def _kronecker_point(width: int, order=range(8)) -> Config:
    """The Kronecker point of the given width as affine points (1, x), with
    the variable of order[i] at slot i: a transposition swaps two of them."""
    return tuple((1, 1 << (width << k)) for k in order)


def _kronecker_values(tabs, weight: int = 1) -> tuple[int, dict]:
    """(b, the product of t at the Kronecker point of width b, per tableau
    t), with b = max(weight, 1).bit_length() + 1, so 2**(b-1) is above
    weight.  No polynomial is read: a canonical tableau is a perfect
    matching of the 8 labels, so its product prod (x_b - x_a) takes each
    variable from one factor, a multilinear polynomial with 16 coefficients
    +-1, and a combination of products with sum |c| <= weight has every
    coefficient below 2**(b-1).  The values come from ``mu_vector``."""
    width = max(weight, 1).bit_length() + 1
    return width, dict(zip(tabs, mu_vector(_kronecker_point(width), tabs)))


def _leading_coefficient(f: Tableau, g: Tableau) -> int:
    """The coefficient in f's product of the leading monomial of g's, the
    product of the larger labels of g's pairs (largest in lex order with x_8
    first, coefficient 1): +-1 when those labels take one label from every
    pair of f, -1 to the number of smaller labels taken, and 0 otherwise."""
    lead = {b for _, b in g}
    if any((a in lead) == (b in lead) for a, b in f):
        return 0
    return (-1) ** sum(a in lead for a, _ in f)


@lru_cache(maxsize=None)
def linear_relations() -> tuple[tuple[int, ...], ...]:
    """The kernel of the 14 x 14 system of the standard products'
    coefficients at their leading monomials (``_leading_coefficient``), in
    the canonical basis of integer rows (cached).  A linear relation among
    the products vanishes at every x-monomial, so every relation lies in it.
    The leading monomials are distinct, with coefficient 1, so the system is
    unitriangular and the kernel empty: the products are independent.  Two
    equal leading monomials would give equal rows, and a kernel that fails
    the claim."""
    standard = standard_tableaux()
    ech = linalg.EchelonForm(len(standard))
    ech.add_rows([_leading_coefficient(f, g) for f in standard] for g in standard)
    return tuple(map(tuple, ech.nullspace()))


@lru_cache(maxsize=None)
def degree_monomials(degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of all degree-d monomials in the 14 coordinates,
    largest first (cached)."""
    out = []
    for combo in combinations_with_replacement(range(14), degree):
        exps = [0] * 14
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return tuple(sorted(out, reverse=True))


# ---------------------------------------------------------------------------
# relation discovery


def relation_discovery(degree: int, samples: int = 300, seed: int = 42) -> dict:
    """The linear relations among the degree-d monomials in the 14 standard
    products, for degree 1 or 2, in the canonical basis of integer rows.

    Degree 1: ``basis`` is ``linear_relations()``, which holds every
    relation that is a polynomial identity; it is empty, so there is none.
    Degree 2: ``basis`` is the span ``quadric_closure`` builds, relations by
    construction and a lower bound on the kernel, or empty when the closure
    is not certified.

    Sampled: ``samples_used`` = max(samples, 3 * monomial count) seeded
    integer configurations are drawn.  ``stable`` means that the rows of
    monomial values at the first ``samples``, from the standard products
    through ``mu_vector``, reach rank monomial count - dimension mod
    2**31 - 1.  The rows are built one at a time, and none once that rank
    is reached (a degree-1 basis is not proved to hold relations, so there
    it may run on).  The rank mod p is a lower bound on the rank over Q, so
    the kernel has at most ``dimension`` vectors: the upper bound by
    counting, and a true ``stable`` proves that the basis spans the whole
    kernel.  An unlucky prime can only make it false.
    """
    if degree not in (1, 2):
        raise ValueError("relations are certified in degrees 1 and 2 only")
    monomials = degree_monomials(degree)
    n_mon = len(monomials)
    if samples < n_mon + 5:
        raise ValueError("need at least %d samples for %d monomials"
                         % (n_mon + 5, n_mon))
    basis = linear_relations() if degree == 1 else quadric_closure()[0]
    # monomials as index pairs, degree 1 padded with index 14: the constant 1
    supports = [([i for i, e in enumerate(m) for _ in range(e)] + [14])[:2]
                for m in monomials]
    rng = SplitMix64(seed)
    configs = [sample_config(rng) for _ in range(max(samples, 3 * n_mon))]
    values = (mu_vector(config) + (1,) for config in configs[:samples])
    rank = n_mon - len(basis)
    return {
        "degree": degree,
        "monomials": monomials,
        "monomial_count": n_mon,
        "samples_used": len(configs),
        "dimension": len(basis),
        "basis": basis,
        "stable": linalg.rank_mod_p(([v[i] * v[j] for i, j in supports] for v in values),
                                    n_mon, n_mon if degree == 1 else rank) == rank,
    }


def mu_function_rank() -> int | None:
    """Rank of all 105 products as functions of the configuration: 14, or
    None if the bounds below disagree.

    Upper bound: 14, the column count of the 105 x 14 straightening matrix,
    once its expansions hold as polynomial identities (105 if one fails).
    Lower bound: the 14 standard products are independent, as
    ``linear_relations()`` is empty.
    """
    upper = len(standard_tableaux() if _straightening_identities() else enumerate_tableaux())
    return upper if 14 - len(linear_relations()) == upper else None


# the simple binomial x_0 x_6 - x_1 x_5 in the 0-based standard products, as
# (index pair, coefficient): both monomials multiply the same eight minors
# [12][34][56][78][13][24][57][68]
SEED_BINOMIAL = (((0, 6), 1), ((1, 5), -1))


@lru_cache(maxsize=None)
def quadric_closure() -> tuple[tuple[tuple[int, ...], ...], bool]:
    """The span of the S8-orbit of ``SEED_BINOMIAL`` among the degree-2
    monomials, in the canonical basis of integer rows, and whether it is
    certified: the seed expands to zero, each action matrix passes the
    identity that makes it the substitution moving the points
    (``_substitution``), so it carries relations to relations, and the
    straightening expansions are polynomial identities.  The seed's terms
    cancel as multisets of the eight minors each multiplies.  Uncertified,
    nothing is built.  Each generator pulls forms back through its table of
    monomial images (``_monomial_images``) of the checked matrices, built
    once per call.  The generator images of each vector that
    enlarged the span are fed, breadth first, to one echelon form with
    reversed columns until none enlarges it; the span then holds its own
    images, so S8 preserves it.  ``linalg.free_column_basis`` reads off the
    basis.  The orbit generates the whole ideal of relations (Howard,
    Millson, Snowden and Vakil, Duke Math. J. 146, 2009).
    """
    position = quadric_positions()
    standard = standard_tableaux()
    seed, minors = [0] * len(position), Counter()
    for (a, b), coeff in SEED_BINOMIAL:
        seed[position[min(a, b), max(a, b)]] += coeff
        minors[tuple(sorted(standard[a] + standard[b]))] += coeff
    matrices, substitutes = _substitution()
    if any(minors.values()) or not (substitutes and _straightening_identities()):
        return (), False
    tables = [_monomial_images(matrix) for matrix in matrices]
    ech = linalg.EchelonForm(len(position))
    frontier = [seed] if ech.add_row(seed[::-1]) else []
    while frontier:
        images = [_pull_back(v, table) for v in frontier for table in tables]
        frontier = [w for w in images if ech.add_row(w[::-1])]
    return tuple(map(tuple, linalg.free_column_basis(ech))), True


def quadric_kernel_s8_stable() -> bool:
    """The degree-2 relations are carried into themselves by S8: the span
    ``quadric_closure`` builds is closed under the seven adjacent
    transpositions, which generate S8, and consists of relations when it is
    certified; the whole kernel when ``relation_discovery(2)`` is ``stable``."""
    return quadric_closure()[1]


@lru_cache(maxsize=None)
def quadric_positions() -> Mapping[tuple[int, int], int]:
    """The position of the monomial x_a x_b in ``degree_monomials(2)``,
    keyed by (a, b) with a <= b, in that order (read-only, cached)."""
    return MappingProxyType({tuple(i for i, e in enumerate(exps) for _ in range(e)): k
                             for k, exps in enumerate(degree_monomials(2))})


def _monomial_images(matrix) -> list[list[tuple[int, int]]]:
    """Per monomial y_a y_b of ``quadric_positions()``, in order, its pull
    back along the linear substitution y = M x, as the nonzero terms
    (position, coefficient) of (sum_i M_ai x_i)(sum_j M_bj x_j)."""
    position = quadric_positions()
    support = [[(i, x) for i, x in enumerate(row) if x] for row in matrix]
    images = []
    for a, b in position:
        terms: dict[int, int] = {}
        for i, mi in support[a]:
            for j, mj in support[b]:
                k = position[(i, j) if i <= j else (j, i)]
                terms[k] = terms.get(k, 0) + mi * mj
        images.append([(k, c) for k, c in terms.items() if c])
    return images


def _pull_back(coeffs, images) -> list[int]:
    """An integer quadratic form on the monomials of ``quadric_positions()``
    pulled back through the monomial images of a substitution."""
    out = [0] * len(images)
    for value, image in zip(coeffs, images):
        if value:
            for k, c in image:
                out[k] += value * c
    return out
