"""Test oracles: earlier routes of ``octet``, kept to check the current
ones on every input.

For the linear relations among the 14 standard tableau products: the
expanded coefficient system of their monomials in the affine coordinates
x_1..x_8, and its kernel by block elimination with an integer kernel.
``octet`` proves the same facts without expanding any such system (degree 1
by the leading monomials, degree 2 by the closure of a seed binomial), so
these routes are independent of it.

For the tableau products' certificates, the routes that ``octet`` replaced
by values at one integer point and by packed rows: each product as a dict of
its coefficients, with the leading coefficients, the Plücker relation and
the seed binomial read off those dicts, and its value at a Kronecker point
read off its digits; the straightening identities as sums of coefficient
dicts and at seeded configurations, the sign identity by swapping the
exponent fields of the dict keys, the Coxeter relations on powers of
``linalg.matmul`` products (which ``octet`` derives from the identity that
defines each action matrix), the relations evaluated at a sample term by
term, and a quadratic form pulled back along a matrix one call at a time.
The rank of the 105 products at seeded configurations is an oracle in
``test_tableaux``.
For Table 1: every lattice's full Gram matrix, eliminated and Smith-reduced
whole.

For the 64-vector layer: the plane extensions and their pair check on sets
of span vectors, the pair census counted into an enum-keyed dict, the joint
(-1)-eigenspace with one sign dict per component, and H applied to a vector
and a point permutation applied to coordinates, both entry by entry.

For the eta quotients: the Euler products from the pentagonal number
theorem, raised to their powers by repeated squaring, with eta(tau)^16
inverted and multiplied in, through the ``QSeries`` algebra.

For the Weil representation: the relations S^2 = 1 and (ST)^3 = 1 as the
64 x 64 products of the tables, which ``weil`` reads off the three
hyperbolic planes instead.  For the sampler: SplitMix64 as three methods,
a draw in [lo, hi] calling ``below``, which calls ``next_u64``.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm
from types import MappingProxyType

from octet import f2geom, lattices as lat, linalg, qseries, tableaux as tb, weil
from octet.qseries import QSeries
from octet.sampling import SplitMix64


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


# A polynomial in the affine coordinates x_1..x_8 is a dict from packed
# exponent vectors to nonzero int coefficients: the exponent of x_i sits in
# bits 2i-2 and 2i-1, so for exponents up to 3 the key of a product of
# monomials is the sum of their keys, and keys compare as their monomials do
# in lex order with x_8 first.

# the packed key of the monomial of the variables in each set S, mapped to
# the bitmask m of S
MULTILINEAR = {sum(4 ** i for i in range(8) if m >> i & 1): m for m in range(256)}


def poly_mul(f, g):
    out = {}
    for kf, cf in f.items():
        for kg, cg in g.items():
            out[kf + kg] = out.get(kf + kg, 0) + cf * cg
    return {k: c for k, c in out.items() if c}


def poly_sum(terms):
    """The sum of c * f over the pairs (f, c) of polynomials and integers."""
    out = {}
    for f, c in terms:
        for key, x in f.items():
            out[key] = out.get(key, 0) + c * x
    return {k: x for k, x in out.items() if x}


def minor(pair):
    """The 2x2 minor of the pair (a, b) at the affine points: x_b - x_a."""
    a, b = pair
    return {4 ** (b - 1): 1, 4 ** (a - 1): -1}


@lru_cache(maxsize=None)
def tableau_polynomial(t):
    """The product of t at the affine points (1, x_i), as a polynomial: the
    product of x_b - x_a over the pairs (a, b) of t (read-only, cached)."""
    poly = {0: 1}
    for pair in t:
        poly = poly_mul(poly, minor(pair))
    return MappingProxyType(poly)


def kronecker_value(poly, width):
    """A multilinear polynomial at the Kronecker point of the given width,
    read off its coefficients as the digits 2**(width * m) of the monomials'
    bitmasks m, or None when a key is not multilinear."""
    if not poly.keys() <= MULTILINEAR.keys():
        return None
    return sum(c << width * MULTILINEAR[k] for k, c in poly.items())


def leading_relations():
    """The degree-1 system at the standard products' largest keys, as the
    dicts give it: row g, column f, the coefficient of max(g) in f."""
    standard = [tableau_polynomial(t) for t in tb.standard_tableaux()]
    return [[f.get(max(g), 0) for f in standard] for g in standard]


def plucker_expands_to_zero():
    return not poly_sum((poly_mul(minor(p), minor(q)), c) for p, q, c in tb.PLUCKER_TERMS)


def seed_expands_to_zero():
    standard = tb.standard_tableaux()
    return not poly_sum((poly_mul(tableau_polynomial(standard[a]),
                                  tableau_polynomial(standard[b])), c)
                        for (a, b), c in tb.SEED_BINOMIAL)


def polynomial_rows(degree):
    """The coefficient matrix of the degree-d monomials in the 14 standard
    products, expanded in x (degree at most 3): row k holds the coefficients
    of one x-monomial, column j belongs to ``degree_monomials(degree)[j]``.
    Rows that repeat up to sign are kept once, with a positive leading entry,
    and the sparse rows come first; neither changes the kernel."""
    standard = [tableau_polynomial(t) for t in tb.standard_tableaux()]
    monomials = tb.degree_monomials(degree)
    rows = {}
    for j, exps in enumerate(monomials):
        poly = {0: 1}
        for e, f in zip(exps, standard):
            for _ in range(e):
                poly = poly_mul(poly, f)
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
    products that hold as polynomial identities: the canonical kernel basis
    of ``polynomial_rows(degree)`` as primitive integer rows, exact.  Rows
    are fed in blocks of 32; a pending row that the integer kernel of the fed
    rows annihilates lies in their span and is dropped.  Pending rows are
    tested in order, 32 at a time, only until the next block is full.  A
    closing check that the returned kernel annihilates every row shows that
    it is their whole kernel."""
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


def isotropic_plane_extensions(plane):
    """The two maximal totally isotropic subspaces containing a plane, as
    sets of echelon bases: the extension whose smallest vector outside the
    plane is smaller comes first."""
    plane = f2geom.echelon_basis(plane)
    if len(plane) != 2 or not f2geom.is_totally_isotropic(plane):
        raise ValueError("need a totally isotropic plane")
    inside = set(f2geom.span(plane))
    exts = set()
    for v in f2geom.SPACE:
        pairs = f2geom.B_TABLE[v]
        if not (f2geom.q(v) or pairs[plane[0]] or pairs[plane[1]] or v in inside):
            ext = f2geom.echelon_basis(plane + (v,))
            if f2geom.is_totally_isotropic(ext):
                exts.add(ext)
    return tuple(sorted(exts, key=lambda e: min(v for v in f2geom.span(e) if v not in inside)))


def plane_extension_pairs():
    """Each totally isotropic plane has two extensions, which differ and
    meet in the plane, compared as sets of vectors."""
    for plane in f2geom.enumerate_isotropic_subspaces(2):
        exts = isotropic_plane_extensions(plane)
        if len(exts) != 2:
            return False
        plus, minus = (set(f2geom.span(e)) for e in exts)
        if plus == minus or plus & minus != set(f2geom.span(plane)):
            return False
    return True


def pair_census(alpha):
    """For fixed alpha, beta counted by (type of beta, b(alpha, beta))."""
    kinds = f2geom.VectorType
    counts = {(t, e): 0 for t in kinds for e in (0, 1)}
    for beta in f2geom.SPACE:
        kind = kinds.ZERO if beta == 0 else kinds.ANISOTROPIC if f2geom.q(beta) else kinds.ISOTROPIC
        counts[(kind, f2geom.B_TABLE[alpha][beta])] += 1
    return counts


def minus_one_eigenspace(subspace):
    """(dimension, spanning vector when it is 1) of the joint (-1)-eigenspace
    of the transvections at the anisotropic vectors of a singular subspace:
    signs propagated along v[t(x)] = -v[x], one dict per component."""
    aniso, _ = f2geom.singular_members(subspace)
    perms = [f2geom.transvection(a) for a in aniso]
    components = []  # (signs on the component, whether they are consistent)
    seen = set()
    for start in range(64):
        if start in seen:
            continue
        comp, stack, alive = {start: 1}, [start], True
        while stack:
            x = stack.pop()
            for p in perms:
                y = p[x]
                if y not in comp:
                    comp[y] = -comp[x]
                    stack.append(y)
                elif comp[y] != -comp[x]:
                    alive = False
        seen.update(comp)
        components.append((comp, alive))
    consistent = [comp for comp, alive in components if alive]
    if len(consistent) != 1:
        return len(consistent), None
    return 1, tuple(consistent[0].get(x, 0) for x in f2geom.SPACE)


def image(ints):
    """H @ ints: H is symmetric, so the sum of its rows at the nonzero entries."""
    out = [0] * 64
    for x, row in zip(ints, weil.b_signs()):
        if x:
            out = [y + x * c for y, c in zip(out, row)]
    return out


def is_invariant(vec):
    """Membership in the fixed space of rho_T and rho_S, with H @ v unpacked."""
    ints = linalg.integer_row(vec)
    return all(t == 1 or not x for t, x in zip(weil.q_signs(), ints)) \
        and image(ints) == [8 * x for x in ints]


def permute_coordinates(perm, vec):
    """The action of a point permutation g: e_x -> e_{g(x)} on coordinates."""
    out = [0] * 64
    for x in range(64):
        out[perm[x]] = vec[x]
    return type(vec)(out) if isinstance(vec, tuple) else out


def straightening_identities():
    """Every straightening expansion as a sum of coefficient dicts, compared
    with the product's dict."""
    return all(poly_sum((tableau_polynomial(std), c) for std, c in tb.straighten(t))
               == tableau_polynomial(t) for t in tb.enumerate_tableaux())


def sampled_straightening(n_samples, seed):
    """Every straightening expansion evaluated exactly at ``n_samples`` seeded
    configurations, the products through ``mu_vector`` from their minors: a
    check of the expansions against the products themselves, which the
    polynomial dicts do not read."""
    rng = SplitMix64(seed)
    tabs = tb.enumerate_tableaux()
    position = {t: i for i, t in enumerate(tabs)}
    for _ in range(n_samples):
        values = tb.mu_vector(tb.sample_config(rng), tabs)
        for t, want in zip(tabs, values):
            if want != sum(c * values[position[std]] for std, c in tb.straighten(t)):
                return False
    return True


def sign_identity():
    """sign * tableau_polynomial(t), with the two exponent fields of each
    adjacent transposition swapped in every key, is tableau_polynomial(R_s t)."""
    for i, s in enumerate(tb.ADJACENT_TRANSPOSITIONS):
        both = 5 << 2 * i  # the low bits of the exponent fields of slots i and i + 1
        for t in tb.enumerate_tableaux():
            moved, sign = tb.apply_permutation(t, s)
            swapped = {k ^ ((k >> 2 * i ^ k >> 2 * i + 2) & 3) * both: sign * c
                       for k, c in tableau_polynomial(t).items()}
            if swapped != tableau_polynomial(moved):
                return False
    return True


def coxeter_relations(matrices):
    """The A_n Coxeter relations with exact orders on integer matrices, each
    power of g_i g_j a ``linalg.matmul`` product of the previous one."""
    n = len(matrices[0])
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for i in range(len(matrices)):
        for j in range(i, len(matrices)):
            m = 1 if i == j else 3 if j == i + 1 else 2
            powers = [linalg.matmul(matrices[i], matrices[j])]
            while len(powers) < m:
                powers.append(linalg.matmul(powers[-1], powers[0]))
            if powers[-1] != identity or identity in powers[:-1]:
                return False
    return True


def annihilates(relations, samples):
    """Each relation, as its terms (i, j, c), summed term by term at each
    sample: sum c x_i x_j is 0."""
    return not any(sum(c * x[i] * x[j] for i, j, c in terms)
                   for x in samples for terms in relations)


def transform_quadric(coeffs, matrix):
    """An integer quadratic form on the monomials of ``quadric_positions()``
    pulled back along y = M x, monomial by monomial."""
    position = tb.quadric_positions()
    support = [[(i, x) for i, x in enumerate(row) if x] for row in matrix]
    out = [0] * len(position)
    for value, (a, b) in zip(coeffs, position):
        if value:
            for i, mi in support[a]:
                for j, mj in support[b]:
                    out[position[min(i, j), max(i, j)]] += value * mi * mj
    return out


def table1_checks():
    """Table 1 on each lattice's full Gram matrix: its rank, its signature
    from its own elimination and its discriminant form from its own Smith
    form."""
    return [pic.rank + tra.rank == 22
            and pic.signature() == (1, pic.rank - 1)
            and tra.signature() == (2, tra.rank - 2)
            and lat.find_isomorphism(lat.discriminant_form(pic),
                                     lat.discriminant_form(tra).neg()) is not None
            for pic, tra in (map(lat.named_lattice, row) for row in lat.TABLE1_ROWS)]


def quadric_closure_rows():
    """The rows the closure of the seed binomial feeds its echelon form, each
    generator image pulled back by ``transform_quadric``: the seed, then the
    seven images of each row that enlarged the span, columns reversed."""
    matrices = [tb.action_matrix(s) for s in tb.ADJACENT_TRANSPOSITIONS]
    position = tb.quadric_positions()
    seed = [0] * len(position)
    for (a, b), c in tb.SEED_BINOMIAL:
        seed[position[min(a, b), max(a, b)]] += c
    ech = linalg.EchelonForm(len(position))
    rows = [seed[::-1]]
    frontier = [seed] if ech.add_row(seed[::-1]) else []
    while frontier:
        images = [transform_quadric(v, m) for v in frontier for m in matrices]
        rows += [w[::-1] for w in images]
        frontier = [w for w in images if ech.add_row(w[::-1])]
    return rows


def eta_unit(scale, order) -> QSeries:
    """Euler product prod_{n>=1} (1 - q^{scale*n}) on the half grid, truncated
    below the integer ``order``, from the pentagonal number theorem: the
    exponent scale*k(3k-1)/2 carries (-1)^k for every integer k.  The eta
    prefactor q^{scale/24} is left out."""
    step = 2 * Fraction(scale)
    if step.denominator != 1 or step <= 0:
        raise ValueError("scale must be a positive multiple of 1/2")
    if order <= 0:
        raise ValueError("order must be positive")
    step, end = int(step), 2 * order
    coeffs = [0] * end
    # k(3k-1)/2 >= |k|, so |k| <= end reaches every exponent below the truncation
    for k in range(-end, end + 1):
        i = step * (k * (3 * k - 1) // 2)
        if i < end:
            coeffs[i] += -1 if k % 2 else 1
    return QSeries(0, coeffs)


def h_components_by_products(order):
    """The three components from products of Euler products: A =
    eta(2 tau)^8 / eta(tau)^16 with prefactor q^0 and B = eta(tau/2)^8 /
    eta(tau)^16 with prefactor q^(-1/2), one half step down."""
    if order < 3:
        raise ValueError("order must be at least 3")
    margin = order + 1
    inv1_16 = (eta_unit(1, margin) ** 16).inverse()
    a = (eta_unit(2, margin) ** 8) * inv1_16
    b = ((eta_unit(Fraction(1, 2), margin) ** 8) * inv1_16).shift(-1)
    end = 2 * order
    return qseries.HComponents(*(QSeries(s.low, s.coeffs[:end - s.low])
                                 for s in (a.scale(56), a.scale(-8), a.scale(8) + b)))


def sl2_relations_by_products(h, t):
    """(S^2 = 1, (ST)^3 = 1) for the tables H and t as the 64 x 64 products
    H.H = 64 I and (H diag(t))^3 = 512 I, compared as packed rows.  It reads
    no plane structure, so it holds for any relabelling of the 64 vectors."""
    st = [[x * s for x, s in zip(row, t)] for row in h]
    return linalg.product_is_scalar((h, h), 64), linalg.product_is_scalar((st, st, st), 512)


class ThreeCallSplitMix64:
    """SplitMix64 with one method per step: ``integer`` -> ``below`` -> ``next_u64``."""

    MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self.MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n):
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def integer(self, lo, hi):
        return lo + self.below(hi - lo + 1)

    def distinct_integers(self, count, lo, hi):
        out, seen = [], set()
        while len(out) < count:
            x = self.integer(lo, hi)
            if x not in seen:
                seen.add(x)
                out.append(x)
        return out
