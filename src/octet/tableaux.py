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
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial

from . import f2geom, lattices, linalg
from .sampling import SplitMix64

QQ = Fraction

Pair = tuple[int, int]
Tableau = tuple[Pair, Pair, Pair, Pair]
Config = tuple[tuple[Fraction, Fraction], ...]

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


def is_valid_tableau(t: Tableau) -> bool:
    flat = [x for pair in t for x in pair]
    return sorted(flat) == list(LABELS)


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
    return tuple((QQ(1), QQ(x)) for x in xs)


def parse_config(pairs) -> Config:
    config = tuple((QQ(a), QQ(b)) for a, b in pairs)
    if len(config) != 8:
        raise ValueError("a configuration has exactly 8 points")
    if any(a == 0 and b == 0 for a, b in config):
        raise ValueError("homogeneous coordinates must not both vanish")
    return config


def _proj_equal(p, q) -> bool:
    return p[0] * q[1] - p[1] * q[0] == 0


def coincidence_profile(config: Config) -> list[int]:
    groups = []
    used = [False] * 8
    for i in range(8):
        if used[i]:
            continue
        size = 1
        used[i] = True
        for j in range(i + 1, 8):
            if not used[j] and _proj_equal(config[i], config[j]):
                used[j] = True
                size += 1
        groups.append(size)
    return sorted(groups, reverse=True)


def is_stable(config: Config) -> bool:
    return coincidence_profile(config)[0] < 4


def is_semistable(config: Config) -> bool:
    return coincidence_profile(config)[0] < 5


def det2(p, q) -> Fraction:
    return p[0] * q[1] - p[1] * q[0]


def mu(t: Tableau, config: Config) -> Fraction:
    """Product of the four 2x2 minors picked out by the tableau's pairs."""
    value = QQ(1)
    for a, b in t:
        value *= det2(config[a - 1], config[b - 1])
    return value


def mu_vector(config: Config, tabs=None) -> tuple[Fraction, ...]:
    tabs = standard_tableaux() if tabs is None else tabs
    return tuple(mu(t, config) for t in tabs)


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
# coordinatized by the classes of the pairs (1, j+1) for j = 1..6.

_THETA8 = 0xFF


def _class_rep(x: int) -> int:
    if bin(x).count("1") % 2:
        raise ValueError("only even-weight vectors lie in the kernel space")
    return x if not (x >> 7) & 1 else x ^ _THETA8


def _class_coords(x: int) -> int:
    rep = _class_rep(x)
    return (rep >> 1) & 0x3F


def _coords_to_rep(bits: int) -> int:
    rep = bits << 1
    if bin(rep).count("1") % 2:
        rep |= 1
    return rep


@lru_cache(maxsize=None)
def pair_class_form() -> lattices.FiniteQuadraticForm:
    """The quotient space as a finite quadratic form on six order-2 generators.

    Generators are the classes of the pairs (1, j); values follow from the
    rank-one blocks: each pair vector has self intersection -1 mod 2 and two
    distinct pair vectors sharing one label pair to -1/2 mod 1.
    """
    q_gens = tuple(QQ(1) for _ in range(6))
    pairings = tuple(
        tuple(QQ(0) if i == j else QQ(1, 2) for j in range(6)) for i in range(6)
    )
    return lattices.FiniteQuadraticForm((2,) * 6, q_gens, pairings)


@lru_cache(maxsize=None)
def theta_model_dictionary() -> lattices.SplitModelDictionary:
    dictionary = lattices.identify_with_split_model(pair_class_form())
    # cross-check against the weight description of the quotient form
    for bits in range(64):
        rep = _coords_to_rep(bits)
        weight_q = (bin(rep).count("1") // 2) % 2
        if f2geom.q(dictionary.to_model(bits)) != weight_q:
            raise ArithmeticError("dictionary disagrees with the weight form")
    return dictionary


def pair_mask(pair: Pair) -> int:
    a, b = pair
    return (1 << (a - 1)) | (1 << (b - 1))


def label_vector_in_model(pair: Pair) -> int:
    return theta_model_dictionary().to_model(_class_coords(pair_mask(pair)))


def tableau_to_subspace(t: Tableau) -> f2geom.Subspace:
    """The maximal totally singular subspace spanned by a tableau's pair classes."""
    vecs = [label_vector_in_model(pair) for pair in t]
    sub = f2geom.echelon_basis(vecs)
    if len(sub) != 3:
        raise ArithmeticError("pair classes failed to span a 3-dimensional space")
    return sub


def subspace_bijection_check() -> dict:
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


def permute_config(config: Config, sigma) -> Config:
    """Move the point with label i to slot sigma(i)."""
    out = [None] * 8
    for i in range(8):
        out[sigma[i]] = config[i]
    return tuple(out)


def induced_model_map(sigma) -> tuple[int, ...]:
    """Permutation of the 64 model vectors induced by a permutation of labels."""
    dictionary = theta_model_dictionary()
    inverse = dictionary.inverse_table()
    table = [0] * 64
    for vec in range(64):
        rep = _coords_to_rep(inverse[vec])
        permuted = 0
        for i in range(8):
            if (rep >> i) & 1:
                permuted |= 1 << sigma[i]
        table[vec] = dictionary.to_model(_class_coords(permuted))
    return tuple(table)


def transposition_transvection_check() -> bool:
    """Transpositions act on the model exactly as the matching transvections."""
    for i in range(8):
        for j in range(i + 1, 8):
            sigma = list(range(8))
            sigma[i], sigma[j] = j, i
            alpha = label_vector_in_model((i + 1, j + 1))
            if induced_model_map(tuple(sigma)) != f2geom.transvection(alpha):
                return False
    return True


def sample_config(rng: SplitMix64) -> Config:
    """Affine configuration on 8 distinct integers in [-50, 50]."""
    while True:
        xs = rng.distinct_integers(8, -50, 50)
        config = affine_config(xs)
        if is_stable(config):
            return config


def mu_permutation_identity(t: Tableau, sigma, config: Config) -> bool:
    """mu of the relabelled tableau at c equals the sign times mu at the moved c."""
    relabelled, sign = apply_permutation(t, sigma)
    return mu(relabelled, permute_config(config, sigma)) == sign * mu(t, config)


# the transpositions (i i+1), as 0-based permutations; they generate S8
ADJACENT_TRANSPOSITIONS = tuple(
    tuple(i + 1 if j == i else i if j == i + 1 else j for j in range(8))
    for i in range(7))


def action_matrix(sigma) -> list[list[int]]:
    """The exact 14x14 integer matrix M of the permutation action on standard
    products: M applied to mu_vector(c) gives mu_vector(permute_config(c, sigma)).

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


def equivariance_check(n_pairs: int = 20, seed: int = 42) -> dict:
    """Exact homomorphism and intertwining checks on sampled permutations."""
    rng = SplitMix64(seed)
    hom_ok = True
    intertwine_ok = True
    sign_ok = True
    tabs = enumerate_tableaux()
    config = sample_config(rng)
    for _ in range(n_pairs):
        sigma = rng.permutation(8)
        tau = rng.permutation(8)
        composed = tuple(sigma[tau[i]] for i in range(8))
        m_sigma = action_matrix(sigma)
        m_tau = action_matrix(tau)
        m_comp = action_matrix(composed)
        product = [[sum(m_sigma[i][k] * m_tau[k][j] for k in range(14))
                    for j in range(14)] for i in range(14)]
        if product != m_comp:
            hom_ok = False
        g_sigma = induced_model_map(sigma)
        for t in tabs[:12]:
            if not mu_permutation_identity(t, sigma, config):
                sign_ok = False
            moved, _ = apply_permutation(t, sigma)
            image = {g_sigma[v] for v in f2geom.span(tableau_to_subspace(t))}
            if image != set(f2geom.span(tableau_to_subspace(moved))):
                intertwine_ok = False
    return {"homomorphism": hom_ok, "intertwines_subspaces": intertwine_ok,
            "sign_identity": sign_ok, "pairs_tested": n_pairs,
            "ok": hom_ok and intertwine_ok and sign_ok}


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
    target = None
    for i in range(3):
        (a, b), (c, d) = rows[i], rows[i + 1]
        if b > d:  # rows are sorted, so a < c < d < b
            target = i
            break
    assert target is not None
    (a, b), (c, d) = rows[target], rows[target + 1]
    rest = rows[:target] + rows[target + 2:]
    out: dict[Tableau, int] = {}
    for replacement, coeff in ((((a, d), (c, b)), 1), (((a, c), (d, b)), -1)):
        sub, sign = canonical_tableau(rest + list(replacement))
        for std, inner_coeff in straighten(sub):
            key = std
            out[key] = out.get(key, 0) + coeff * sign * inner_coeff
    return tuple(sorted((k, v) for k, v in out.items() if v))


def straightening_check(n_samples: int = 5, seed: int = 42) -> dict:
    """Exact evaluation check of every expansion on sampled configurations."""
    rng = SplitMix64(seed)
    configs = [sample_config(rng) for _ in range(n_samples)]
    all_ok = True
    for t in enumerate_tableaux():
        expansion = straighten(t)
        for c in configs:
            want = mu(t, c)
            got = sum(coeff * mu(std, c) for std, coeff in expansion)
            if want != got:
                all_ok = False
    plucker_ok = all(
        (det2(c[1], c[0]) * det2(c[3], c[2])
         - det2(c[2], c[0]) * det2(c[3], c[1])
         + det2(c[3], c[0]) * det2(c[2], c[1])) == 0
        for c in configs
    )
    return {"expansions_match": all_ok, "plucker_identity": plucker_ok,
            "ok": all_ok and plucker_ok}


# ---------------------------------------------------------------------------
# relation discovery


def degree_monomials(degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of all degree-d monomials in the 14 coordinates."""
    out = []
    for combo in combinations_with_replacement(range(14), degree):
        exps = [0] * 14
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return tuple(sorted(out, reverse=True))


def _monomial_value(exps, values) -> Fraction:
    out = QQ(1)
    for e, v in zip(exps, values):
        if e:
            out *= v ** e
    return out


@lru_cache(maxsize=None)
def relation_discovery(degree: int, samples: int = 300, seed: int = 42) -> dict:
    """Exact kernel of degree-d monomials evaluated on seeded configurations.

    The kernel is recomputed on an enlarged sample set (at least three times
    the monomial count) and the result is flagged unstable if it moved; the
    arithmetic itself is exact, sampling only affects genericity.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    monomials = degree_monomials(degree)
    n_mon = len(monomials)
    if samples < n_mon + 5:
        raise ValueError("need at least %d samples for %d monomials"
                         % (n_mon + 5, n_mon))
    rng = SplitMix64(seed)
    ech = linalg.EchelonForm(n_mon)
    drawn = 0

    def add_samples(target):
        nonlocal drawn
        while drawn < target:
            config = sample_config(rng)
            values = mu_vector(config)
            ech.add_row([_monomial_value(m, values) for m in monomials])
            drawn += 1

    add_samples(samples)
    first_kernel = ech.nullspace()
    add_samples(max(samples, 3 * n_mon))
    final_kernel = ech.nullspace()
    return {
        "degree": degree,
        "monomials": monomials,
        "monomial_count": n_mon,
        "samples_used": drawn,
        "dimension": len(final_kernel),
        "basis": tuple(tuple(v) for v in final_kernel),
        "stable": first_kernel == final_kernel,
    }


def mu_function_rank(samples: int = 40, seed: int = 42) -> int:
    """Rank of all 105 products as functions of the configuration."""
    rng = SplitMix64(seed)
    tabs = enumerate_tableaux()
    rows = []
    for _ in range(samples):
        config = sample_config(rng)
        rows.append([mu(t, config) for t in tabs])
    return linalg.rank(rows, len(tabs))


def quadric_kernel_s8_stable(seed: int = 42, samples: int = 300) -> bool:
    """The degree-2 kernel is carried into itself by each adjacent
    transposition (i i+1); these generate S8, so the whole group preserves it."""
    rel = relation_discovery(2, samples, seed)
    monomials = rel["monomials"]
    ech = linalg.EchelonForm(len(monomials))
    ech.add_rows(rel["basis"])
    mono_index = {m: i for i, m in enumerate(monomials)}
    for sigma in ADJACENT_TRANSPOSITIONS:
        matrix = action_matrix(sigma)
        for v in rel["basis"]:
            transformed = _transform_quadric(v, matrix, monomials, mono_index)
            if not ech.contains(transformed):
                return False
    return True


def _transform_quadric(coeffs, matrix, monomials, mono_index):
    """Pull a quadratic form back along the linear substitution y = M x."""
    n = 14
    out = [QQ(0)] * len(monomials)
    for value, exps in zip(coeffs, monomials):
        if not value:
            continue
        support = [i for i, e in enumerate(exps) for _ in range(e)]
        a, b = support  # degree 2
        for i in range(n):
            mi = matrix[a][i]
            if not mi:
                continue
            for j in range(n):
                mj = matrix[b][j]
                if not mj:
                    continue
                key = [0] * n
                key[i] += 1
                key[j] += 1
                out[mono_index[tuple(key)]] += value * mi * mj
    return out
