import random
import tracemalloc
from fractions import Fraction as QQ
from functools import lru_cache
from itertools import product as iproduct
from math import comb, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octet import checks, f2geom, lattices as lat, linalg
import oracles


def test_named_lattices():
    assert lat.named_lattice("U").gram == ((0, 1), (1, 0))
    assert lat.named_lattice("U(2)").gram == ((0, 2), (2, 0))
    assert lat.named_lattice("A1").gram == ((-2,),)
    assert lat.named_lattice("A1(-1)").gram == ((2,),)
    assert lat.named_lattice("D4").det() == 4
    assert lat.named_lattice("E8").det() == 1
    assert lat.named_lattice("U+A1^2").rank == 4
    with pytest.raises(ValueError):
        lat.named_lattice("Z9")


def test_lattices_and_forms_are_immutable_hashable_values():
    n, form = lat.lattice_N(), lat.discriminant_form(lat.lattice_N())
    for value, field in ((n, "gram"), (form, "q4")):
        with pytest.raises(AttributeError):
            setattr(value, field, ())
    rebuilt = lat.GramLattice(n.name, tuple(map(tuple, n.gram)))
    assert rebuilt == n and hash(rebuilt) == hash(n) and rebuilt.det() == n.det()
    again = lat.discriminant_form(lat.GramLattice(n.name, n.gram))
    assert again == form and hash(again) == hash(form) and again is not form

    @lru_cache(maxsize=None)
    def negated(f):
        return f.neg()

    assert negated(form) is negated(again) and negated.cache_info().hits == 1
    assert negated(form.neg()) == form


def test_signatures():
    assert lat.named_lattice("U").signature() == (1, 1)
    assert lat.named_lattice("D4").signature() == (0, 4)
    assert lat.named_lattice("E8").signature() == (0, 8)
    assert lat.named_lattice("A1(-1)^2+A1^4").signature() == (2, 4)
    assert lat.lattice_N().signature() == (2, 10)


@st.composite
def symmetric_matrices(draw):
    """Small symmetric integer matrices, with a zero diagonal half of the time."""
    n = draw(st.integers(1, 8))
    zero_diagonal = draw(st.booleans())
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + int(zero_diagonal), n):
            mat[i][j] = mat[j][i] = draw(st.integers(-3, 3))
    return mat


def _characteristic_polynomial(mat):
    """Oracle: the coefficients of det(tI - M), highest degree first, by the
    Faddeev-LeVerrier recursion M_k = A M_(k-1) + c_(k-1) I, c_k = -tr(A M_k)/k.
    For an integer matrix every M_k and c_k is an integer, so it runs on
    Python ints; k dividing each trace is checked, not assumed."""
    n = len(mat)
    coeffs, am = [1], [[0] * n for _ in range(n)]  # am = A M_k
    for k in range(1, n + 1):
        m = [[x + coeffs[-1] * (i == j) for j, x in enumerate(row)] for i, row in enumerate(am)]
        am = linalg.matmul(mat, m)
        trace = sum(row[i] for i, row in enumerate(am))
        assert trace % k == 0
        coeffs.append(-trace // k)
    return coeffs


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
@example([[0]])
@example([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
@example([[0, 1, 1], [1, 0, -1], [1, -1, 0]])  # degenerate with a zero diagonal
@example([[2, 1, 3], [1, 0, 1], [3, 1, 4]])  # degenerate
def test_det_and_signature_match_the_characteristic_polynomial(mat):
    # det(tI - G) = sum c_k t^(n-k): det G = (-1)^n c_n, and as a symmetric
    # matrix has real eigenvalues, Descartes' rule of signs counts them exactly
    cp = _characteristic_polynomial(mat)
    n = len(mat)
    gram = tuple(map(tuple, mat))
    assert lat.GramLattice("g", gram).det() == (-1) ** n * cp[-1]
    if cp[-1] == 0:
        with pytest.raises(ValueError, match="degenerate"):
            lat.signature(gram)
    else:
        negated = [c * (-1) ** k for k, c in enumerate(cp)]  # the coefficients of p(-t)
        assert lat.signature(gram) == (_sign_changes(cp), _sign_changes(negated))


def test_leading_minors_refuse_a_non_symmetric_matrix():
    with pytest.raises(ValueError, match="symmetric"):
        lat._leading_minors([[0, 1], [2, 0]])
    assert lat._leading_minors([[0, 1], [1, 0]]) == [2, -1]  # (e + f) first: norm 2
    # the zero pivot of the second step is swapped with the 5; the form is degenerate
    assert lat._leading_minors([[1, 1, 0], [1, 1, 0], [0, 0, 5]]) == [1, 5, 0]


def test_table1_eliminates_each_gram_matrix_once(monkeypatch):
    grams = []
    leading_minors = lat._leading_minors

    def recording(gram):
        grams.append(gram)
        return leading_minors(gram)

    monkeypatch.setattr(lat, "_leading_minors", recording)
    for cached in (lat._gram_minors, lat._atom_gram, lat._dual_classes):
        cached.cache_clear()
    try:
        assert all(lat.table1_checks())
    finally:
        for cached in (lat._gram_minors, lat._atom_gram, lat._dual_classes):
            cached.cache_clear()
    # the 20 lattices are read off their summands: each of the 9 atoms (U,
    # U(2), A1, A1(-1), D4, D6, D8, D10, E8) is eliminated once, for det,
    # signature and the discriminant form
    assert len(grams) == len(set(grams)) == 9
    assert max(map(len, grams)) == 10


def _clear_lattice_caches():
    for fn in vars(lat).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def test_the_lattice_suite_smith_reduces_no_gram_matrix_twice(monkeypatch):
    """One cold ``run_suite("lattice")`` takes 14 Smith forms, one per
    matrix: N, M, the glued overlattice, the 9 atoms of Table 1, the pairing
    rows of a reflection plane and its complement."""
    reduced = []
    smith_normal_form = lat.smith_normal_form

    def recording(mat):
        reduced.append(tuple(map(tuple, mat)))
        return smith_normal_form(mat)

    _clear_lattice_caches()
    monkeypatch.setattr(lat, "smith_normal_form", recording)
    try:
        assert checks.all_passed(checks.run_suite("lattice"))
    finally:
        _clear_lattice_caches()
    assert len(reduced) == len(set(reduced)) == 14


def test_a_wrong_smith_form_makes_the_dual_classes_raise(monkeypatch):
    """V with its first column added to its last stays unimodular, but U G V
    is no longer D, and ``_dual_classes`` refuses it."""
    smith_normal_form = lat.smith_normal_form

    def wrong(mat):
        d, u, v = smith_normal_form(mat)
        return d, u, [row[:-1] + [row[-1] + row[0]] for row in v]

    gram = lat.named_lattice("U(2)+D4").gram
    lat._dual_classes.cache_clear()
    monkeypatch.setattr(lat, "smith_normal_form", wrong)
    try:
        with pytest.raises(ArithmeticError, match="U G V"):
            lat._dual_classes(gram)
    finally:
        lat._dual_classes.cache_clear()
    monkeypatch.undo()
    assert len(lat._dual_classes(gram)[1]) == 4


def test_lattice_invariants_build_no_fraction(monkeypatch):
    lat.lattice_N.cache_clear()
    lat.order_four_isometry.cache_clear()
    built = []
    new = QQ.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(QQ, "__new__", counting_new)
    assert len(lat._rho0_block()) == 4
    assert lat.table1_checks() == [True] * 10
    assert lat.reflection_plane_complement()
    assert lat.lattice_N().signature() == (2, 10)
    assert not built
    # the counter sees Fractions where they belong
    lat.overlattice(lat.named_lattice("U+A1^8"), [0, 0] + [QQ(1, 2)] * 8)
    assert built


int_matrices = st.lists(
    st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3
)


@settings(max_examples=50, deadline=None)
@given(int_matrices)
def test_smith_normal_form_properties(mat):
    d, u, v = lat.smith_normal_form(mat)
    prod = np.array(u) @ np.array(mat) @ np.array(v)
    assert prod.tolist() == [row[:] for row in d]
    # unimodular: det = (-1)^n c_n of the characteristic polynomial is +-1
    assert _characteristic_polynomial(u)[-1] in (1, -1)
    assert _characteristic_polynomial(v)[-1] in (1, -1)
    diag = [d[i][i] for i in range(3)]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert b % a == 0
        if a == 0:
            assert b == 0


def test_discriminant_forms():
    trivial = lat.discriminant_form(lat.named_lattice("U"))
    assert len(trivial.q4) == 1
    u2 = lat.discriminant_form(lat.named_lattice("U(2)"))
    assert u2.orders == (2, 2)
    assert u2.q4[1] == u2.q4[2] == 0  # both generators have q = 0
    assert _b2(u2, 1, 2) == 1  # and pair to 1/2
    a1 = lat.discriminant_form(lat.named_lattice("A1"))
    assert a1.orders == (2,)
    assert a1.q4[1] == 3  # q = -1/2 = 3/2 in Q/2Z
    d4 = lat.discriminant_form(lat.named_lattice("D4"))
    assert len(d4.q4) == 4
    n_form = lat.discriminant_form(lat.lattice_N())
    assert n_form.orders == (2,) * 6
    assert len(n_form.q4) == 64


def _b2(form, x, y):
    """2b(x, y) mod 2, read off the polarization of q4: q(x + y) - q(x) - q(y)
    = 2b(x, y) in Q/2Z, so the difference of q4 values is even mod 4."""
    diff = (form.q4[x ^ y] - form.q4[x] - form.q4[y]) % 4
    assert diff % 2 == 0
    return diff // 2


def test_polarization_identity():
    # the polarization of q4 is the pairing of the Fraction reference at every
    # pair of elements, and it is symmetric and additive in each argument
    form, ref = lat.discriminant_form(lat.lattice_N()), _ref_discriminant_form(lat.lattice_N())
    for x in range(64):
        for y in range(64):
            assert _b2(form, x, y) == 2 * ref.pairing(_elem(x, 6), _elem(y, 6)) == _b2(form, y, x)
            for k in range(6):
                assert _b2(form, x ^ 1 << k, y) == _b2(form, x, y) ^ _b2(form, 1 << k, y)


def test_disc_direct_sum_matches():
    both = lat.discriminant_form(lat.named_lattice("U(2)+A1"))
    pieces = _ref_discriminant_form(lat.named_lattice("U(2)")).direct_sum(
        _ref_discriminant_form(lat.named_lattice("A1")))
    assert lat.find_isomorphism(both, _as_table(pieces)) is not None


def test_split_dictionary_transports_form():
    d = lat.split_dictionary()
    form = lat.discriminant_form(lat.lattice_N())
    ref = _ref_discriminant_form(lat.lattice_N())
    for bits in range(64):
        elem = tuple((bits >> i) & 1 for i in range(6))
        assert int(ref.q(elem)) % 2 == f2geom.q(d[bits])
        assert form.q4[bits] == 2 * f2geom.q(d[bits])


def test_identify_rejects_wrong_rank():
    with pytest.raises(ValueError):
        lat.identify_with_split_model(lat.discriminant_form(lat.named_lattice("U(2)")))
    with pytest.raises(ValueError):
        lat.identify_with_split_model(lat.discriminant_form(lat.named_lattice("A1^6")))


def test_m_is_complementary():
    form_m = lat.discriminant_form(lat.lattice_M())
    form_n = lat.discriminant_form(lat.lattice_N())
    assert lat.find_isomorphism(form_m, form_n.neg()) is not None
    # values lie in Z/2Z, so negation changes nothing up to isomorphism
    assert len(set(lat.identify_with_split_model(form_m))) == 64


def test_overlattice_glue():
    base = lat.named_lattice("U+A1^8")
    glue = [0, 0] + [QQ(1, 2)] * 8
    over = lat.overlattice(base, glue)
    assert over.det() == -64
    assert over.is_even()
    form = lat.discriminant_form(over)
    assert lat.find_isomorphism(form, lat.discriminant_form(lat.lattice_M())) is not None
    assert lat.overlattice(base, [0] * 10) is base
    with pytest.raises(ValueError):
        lat.overlattice(base, [0, 0, QQ(1, 2)] + [0] * 7)
    with pytest.raises(ValueError):
        lat.overlattice(base, [QQ(1, 3)] + [0] * 9)


def test_overlattice_from_the_reduced_glue():
    base = lat.named_lattice("U+A1^8")
    plain = lat.overlattice(base, [0, 0] + [QQ(1, 2)] * 8)
    shifted = lat.overlattice(base, [1, 0] + [QQ(3, 2)] * 4 + [QQ(-1, 2)] * 4)
    assert plain.det() == shifted.det() == -64
    assert lat.find_isomorphism(lat.discriminant_form(plain),
                                lat.discriminant_form(shifted)) is not None
    # the U block, seven A1 generators, and the glue, which pairs -1 with each
    gram = np.zeros((10, 10), dtype=np.int64)
    gram[0, 1] = gram[1, 0] = 1
    gram[2:9, 2:9] = -2 * np.eye(7, dtype=np.int64)
    gram[9, 2:9] = gram[2:9, 9] = -1
    gram[9, 9] = -4
    assert np.array_equal(lat.glued_overlattice().gram, gram)


def test_table1_rows():
    assert lat.table1_checks() == [True] * 10


TABLE1_NAMES = sorted({name for row in lat.TABLE1_ROWS for name in row})


def test_table1_matches_the_full_gram_oracle():
    assert lat.table1_checks() == oracles.table1_checks() == [True] * 10


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_summand_invariants_match_the_full_gram(name):
    """Rank, signature and discriminant form read off the summands are those
    of the lattice's full Gram matrix; the block form and the Smith form are
    isomorphic."""
    lattice = lat.named_lattice(name)
    rank, sig, form = lat._summand_invariants(name)
    assert (rank, sig) == (lattice.rank, lattice.signature())
    assert lat.find_isomorphism(form, lat.discriminant_form(lattice)) is not None
    assert len(form.q4) == abs(lattice.det())


@pytest.mark.parametrize("row, replacement", [
    (4, ("U+D8+D8", "U+U")),  # a unimodular transcendental lattice: the forms differ
    (2, ("U+D6+D4+A1^2", "U+U(2)+A1^2+A1(-1)")),  # the rank no longer sums to 22
    (9, ("U+E8+D10", "A1(-1)+A1")),  # not of signature (2, 0)
    (0, ("U+D4+D4", "U+U(2)+D4+D4")),  # the Picard form is not the complement
], ids=["form", "rank", "signature", "picard_form"])
def test_a_wrong_table1_row_fails_both_routes(monkeypatch, row, replacement):
    rows = list(lat.TABLE1_ROWS)
    rows[row] = replacement
    monkeypatch.setattr(lat, "TABLE1_ROWS", tuple(rows))
    want = [i != row for i in range(10)]
    assert lat.table1_checks() == oracles.table1_checks() == want


def test_table1_fails_on_a_picard_lattice_that_is_not_hyperbolic(monkeypatch):
    # every lattice reports signature (2, n - 2): each transcendental lattice
    # keeps its signature, and no Picard lattice is hyperbolic
    monkeypatch.setattr(lat, "signature", lambda gram: (2, len(gram) - 2))
    assert lat.table1_checks() == [False] * 10


def test_order_four_isometry():
    rho = lat.order_four_isometry()
    assert all(type(x) is int for row in rho for x in row)
    rho_a, gram = np.array(rho), np.array(lat.lattice_N().gram)
    assert np.array_equal(rho_a @ rho_a, -np.eye(12, dtype=np.int64))
    assert np.array_equal(rho_a.T @ gram @ rho_a, gram)
    cp = _characteristic_polynomial(rho)
    assert cp == _T2_PLUS_1_TO_THE_6  # order 4, no fixed vectors
    assert all(type(c) is int for c in cp)
    # phi's domain N/(1 - rho)N is F2^6: the invariant factors of I - rho
    d, _, _ = lat.smith_normal_form([[int(i == j) - x for j, x in enumerate(row)]
                                     for i, row in enumerate(rho)])
    assert [d[k][k] for k in range(12)] == [1] * 6 + [2] * 6


_T2_PLUS_1_TO_THE_6 = [comb(6, k // 2) if k % 2 == 0 else 0 for k in range(13)]


def test_rho0_block_is_checked_against_the_ambient_action(monkeypatch):
    basis = lat._dn_basis(4)
    monkeypatch.setattr(lat, "_dn_basis", lambda n: basis[::-1])  # the block no longer fits
    with pytest.raises(ArithmeticError):
        lat._rho0_block()


@pytest.mark.parametrize("block", [lat._eye(4), lat._eye(4, -1)], ids=["not_order_4", "minus_one"])
def test_order_four_isometry_is_checked(monkeypatch, fresh_rho_identities, block):
    # the identity squares to 1, and -1 to 1 too: neither passes rho^2 = -1,
    # and the report says so instead of raising
    monkeypatch.setattr(lat, "_rho1_block", lambda: block)
    lat.order_four_isometry.cache_clear()
    try:
        assert len(lat.order_four_isometry()) == 12
        assert lat.isometry_fixed_point_free() is False
    finally:
        lat.order_four_isometry.cache_clear()


def test_hermitian_grams():
    # D4 block matches, U block matches, h(x, x) real
    assert lat.hermitian_gram_checks() == (True, True, True)


def test_hermitian_sesquilinear():
    rho = np.array(lat.order_four_isometry())
    for i in (0, 1, 4, 8):
        for j in (0, 2, 5, 9):
            x = np.zeros(12, dtype=np.int64)
            y = np.zeros(12, dtype=np.int64)
            x[i] = 1
            y[j] = 1
            x, y = x.tolist(), y.tolist()
            a, b = lat.hermitian_form(x, y)
            # h(i*x, y) = i*h(x, y): (a + bi) -> (-b + ai)
            ai, bi = lat.hermitian_form((rho @ x).tolist(), y)
            assert (ai, bi) == (-b, a)
            # hermitian symmetry: h(y, x) is the conjugate
            ac, bc = lat.hermitian_form(y, x)
            assert (ac, bc) == (a, -b)


def test_phi_map():
    rep = lat.phi_map_check()
    assert rep == dict.fromkeys(("into_dual", "inverse_identity", "rho_trivial_on_quotient",
                                 "bijective"), True)


def test_reflection_identities_default_and_rejects():
    rep = lat.reflection_identities()
    assert all(rep.values())
    with pytest.raises(ValueError):
        lat.reflection_identities([1, 0] + [0] * 10)  # norm 0 vector


def test_reflection_identities_other_vector():
    r = (0,) * 4 + (1,) + (0,) * 7  # the first D4 basis vector has norm -2
    assert lat.inner(r, r) == -2
    rep = lat.reflection_identities(r)
    assert all(rep.values())


def test_int64_guards_raise_instead_of_wrapping():
    # e - f plus an isotropic vector of U(2): Python ints give every identity
    # exactly, where the float64 oracle refuses the vector
    r = (1, -1, 2**40) + (0,) * 9
    assert lat.inner(r, r) == -2
    assert all(lat.reflection_identities(r).values())
    with pytest.raises(OverflowError):
        _batch_reflection_report(np.vstack([_unit_box_vectors()[0][:3], r]))


# Oracle: the float64 product, the box enumerator, and the batched class map
# and reflection report on stacks of numpy arrays, as the lattices module
# computed them before its single-vector Python-int form.  The unit-box
# sweep runs on them.


def exact_matmul(x, y):
    """x @ y of integer arrays, multiplied in float64 BLAS; a float64 result.

    Raises OverflowError unless n max|x| max|y| < 2**53 for the inner
    dimension n.  Under that bound every product and every partial sum is an
    integer below 2**53 in size, exactly represented, so the result is exact
    whatever the summation order or FMA use.
    """
    x, y = np.asarray(x), np.asarray(y)
    _check_float_exact(x.shape[-1] * _abs_max(x) * _abs_max(y))
    return np.matmul(x.astype(np.float64, copy=False), y.astype(np.float64, copy=False))


def _abs_max(*arrays):
    return max(max(int(a.max(initial=0)), -int(a.min(initial=0))) for a in arrays)


def _check_float_exact(bound):
    if bound >= 2**53:
        raise OverflowError("entries too large for exact float64 arithmetic")


def _gram():
    return np.array(lat.lattice_N().gram, dtype=np.int64)


def _rho():
    return np.array(lat.order_four_isometry(), dtype=np.int64)


def _box(dim, bound):
    """All integer vectors of length dim with entries in [-bound, bound], one
    per row, in lexicographic order."""
    side = np.arange(-bound, bound + 1, dtype=np.int64)
    grids = np.meshgrid(*([side] * dim), indexing="ij", copy=False)
    return np.stack(grids, axis=-1).reshape(-1, dim)


def _box_norm_count(bound, target, need_even):
    """Vectors of norm target in [-bound, bound]^12, optionally only those
    pairing evenly with N, counted by convolving per-block norm histograms
    over the materialized block box."""
    gram = _gram()
    pts = _box(4, bound)
    counts = np.ones(1, dtype=np.int64)
    offset = target
    for sl in lat._BLOCK_SLICES:
        g = gram[sl, sl]
        norms = np.einsum("ij,jk,ik->i", pts, g, pts)
        if need_even:
            norms = norms[~((pts @ g.T) % 2).any(axis=1)]
        lo = int(norms.min())
        counts = np.convolve(counts, np.bincount(norms - lo))
        offset -= lo
    return int(counts[offset]) if 0 <= offset < len(counts) else 0


_BITS = ((np.arange(64)[:, None] >> np.arange(6)) & 1).astype(np.uint8)  # row x: bits of x
_WEIGHTS = 1 << np.arange(6)


def _dictionary_bits():
    """The split dictionary over F2: row i of the first matrix is the model
    vector of generator i; row m of the second holds the class bits of model
    vector m."""
    dictionary = lat.split_dictionary()
    inverse = {m: bits for bits, m in enumerate(dictionary)}
    return _BITS[[dictionary[1 << i] for i in range(6)]], _BITS[[inverse[m] for m in range(64)]]


def _to_model(bits):
    """Model vectors (as ints 0..63) of classes given by their bits (..., 6)."""
    return (bits @ _dictionary_bits()[0] % 2) @ _WEIGHTS


def _n_dual_classes():
    """The class-bit rows and the doubled generators of the dual mod N."""
    return lat._dual_classes(lat.lattice_N().gram)[:2]


def _batch_class_bits(doubled):
    """Class bits (..., 6) of dual vectors y given as the integer rows 2y,
    shape (..., 12), and the mask of rows in the dual."""
    g2 = exact_matmul(doubled, _gram())
    gy = np.floor(g2 * 0.5)  # Gy, on the rows in the dual
    bits = exact_matmul(gy, np.array(_n_dual_classes()[0]).T).astype(np.int64) & 1
    return bits.astype(np.uint8), (gy + gy == g2).all(axis=-1)


def _batch_class_tables(isometries):
    """The permutations (a, 64) of the model vectors induced by a stack
    (a, 12, 12) of isometries, and whether each keeps the six discriminant
    generators in the dual."""
    images = exact_matmul(isometries, np.array(_n_dual_classes()[1]).T)
    images, in_dual = _batch_class_bits(np.swapaxes(images, -1, -2))  # row j: image of generator j
    return _to_model(_dictionary_bits()[1] @ images), in_dual.all(axis=-1)


def _batch_acts_as_transvection(isometries, deltas):
    """Per row: whether the class alpha of delta/2 is anisotropic, and whether
    the isometry acts on the 64 classes as the transvection at alpha."""
    alpha_bits, half_in_dual = _batch_class_bits(deltas)
    alphas = _to_model(alpha_bits).tolist()
    anisotropic = half_in_dual & np.array([f2geom.q(a) == 1 for a in alphas], dtype=bool)
    tables, in_dual = _batch_class_tables(isometries)
    want = np.reshape([f2geom.transvection(a) if f2geom.q(a) else (-1,) * 64 for a in alphas],
                      (-1, 64))
    return anisotropic, anisotropic & in_dual & (tables == want).all(axis=1)


def _batch_reflection_report(vecs):
    """``lat.reflection_identities`` over a stack (a, 12) of norm -2 vectors,
    each key true when it holds at every vector.  The elementwise work stays
    within 12ag for a the largest entry of r and rho r and g that of Gr and
    G rho r, so 12ag >= 2^53 raises OverflowError."""
    gram, rho = _gram(), _rho()
    eye = np.eye(12)
    gr = exact_matmul(np.reshape(vecs, (-1, 12)), gram)
    vecs = np.asarray(vecs, dtype=np.float64).reshape(-1, 12)  # exact: 24|r| < 2^53
    rr = exact_matmul(vecs, rho.T)
    grr = exact_matmul(rr, gram)
    _check_float_exact(12 * _abs_max(vecs, rr) * _abs_max(gr, grr))
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
    anisotropic, transvection = _batch_acts_as_transvection(quarter, vecs + rr)
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


def test_exact_matmul_oracle_raises_at_the_bound():
    with pytest.raises(OverflowError):
        exact_matmul(np.array([[2**53]]), np.array([[1]]))
    x = np.full((3, 8), 2**25)
    below = exact_matmul(x, np.full((8, 2), 2**25 - 1))
    assert below.tolist() == [[8 * 2**25 * (2**25 - 1)] * 2] * 3
    with pytest.raises(OverflowError):
        exact_matmul(x, np.full((8, 2), 2**25))


@pytest.mark.parametrize("bound", sorted(checks.BOX_COUNTS))
def test_box_counts_match_the_numpy_convolution(bound):
    assert lat.box_counts(bound) == checks.BOX_COUNTS[bound] == [
        _box_norm_count(bound, -2, False), _box_norm_count(bound, -4, True)]


def test_equal_blocks_share_one_histogram(monkeypatch):
    built = []
    histograms = lat._block_histograms
    monkeypatch.setattr(lat, "_block_histograms",
                        lambda g, bound: built.append(g) or histograms(g, bound))
    lat.box_counts(2)
    assert len(built) == 2 and built[0] != built[1]


# Oracle: the unit box materialized and the norm -4 correspondence checked
# vector by vector over it, and the per-block parity sweep over a larger box,
# as the lattices module computed them before the identities of rho.


@lru_cache(maxsize=None)
def _unit_box_vectors():
    """The norm -2 vectors, and the norm -4 vectors pairing evenly with N, of
    [-1, 1]^12 (read-only float64, lexicographic order), over ``_box``: one
    slice per point of the first four coordinates, so the whole box is never
    held at once."""
    gram = _gram()
    tail = _box(8, 1).astype(np.float64)
    minus2, minus4 = [], []
    for head in _box(4, 1):
        pts = np.hstack([np.broadcast_to(head, (len(tail), 4)), tail])
        g_pts = exact_matmul(pts, gram)
        norms = np.einsum("ij,ij->i", pts, g_pts)
        four = norms == -4
        minus2.append(pts[norms == -2])
        minus4.append(pts[four][~(g_pts[four] % 2).any(axis=1)])
    out = (np.vstack(minus2), np.vstack(minus4))
    for arr in out:
        arr.flags.writeable = False
    return out


def _direct_scan():
    """Both inclusions of the correspondence vector by vector over the unit
    box, and its counts against the convolved ``box_counts(1)``.  Parity is
    read as x - 2 floor(x/2) on the float rows."""
    gram, rho = _gram(), _rho()
    r_vecs, deltas = _unit_box_vectors()

    rho_r = exact_matmul(r_vecs, rho.T)
    sums = r_vecs + rho_r
    g_sums = exact_matmul(sums, gram)
    forward = (bool((np.einsum("ij,ij->i", sums, g_sums) == -4).all())
               and not (g_sums - 2 * np.floor(g_sums * 0.5)).any()
               and not np.einsum("ij,ij->i", exact_matmul(r_vecs, gram), rho_r).any())

    diff = deltas - exact_matmul(deltas, rho.T)
    half = np.floor(diff * 0.5)
    integral = np.array_equal(half + half, diff)
    half_norms = np.einsum("ij,ij->i", half, exact_matmul(half, gram))
    converse = (integral and bool((half_norms == -2).all())
                and np.array_equal(half + exact_matmul(half, rho.T), deltas))
    return forward and converse and [len(r_vecs), len(deltas)] == lat.box_counts(1)


def _block_parity_sweep(bound):
    """Per block over [-bound, bound]^4, hence over the whole box as G and rho
    are block diagonal: whether G(x + rho x) is even at every x, and whether
    x - rho x is even at every x pairing evenly with N."""
    gram, rho = _gram(), _rho()
    pts = _box(4, bound)
    sum_half_dual = glue_parity = True
    for sl in lat._BLOCK_SLICES:
        g, r = gram[sl, sl], rho[sl, sl]
        rho_pts, g_pts = pts @ r.T, pts @ g.T
        sum_half_dual &= not ((g_pts + rho_pts @ g.T) % 2).any()
        glue_parity &= not ((pts - rho_pts)[~(g_pts % 2).any(axis=1)] % 2).any()
    return sum_half_dual, glue_parity


def test_minus4_scan():
    inclusions, counts = lat.minus4_vector_scan(3)
    assert inclusions == {"forward": True, "converse": True, "direct": True}
    assert counts == [42737426, 958270]
    # the identities, for every vector, agree with the bound-3 parity sweep
    assert _block_parity_sweep(3) == (True, True)
    # e - f, of norm -2, is one of the vectors the direct scan covers
    assert (_unit_box_vectors()[0] == lat.E_MINUS_F).all(axis=1).any()
    with pytest.raises(ValueError):
        lat.minus4_vector_scan(1)


def test_scan_counts_at_unit_box_agree_with_direct():
    r_vecs, deltas = _unit_box_vectors()
    assert [len(r_vecs), len(deltas)] == lat.box_counts(1)
    assert len(r_vecs) == 20354
    assert _direct_scan()


def test_lattice_suite_scans_once(monkeypatch):
    # the determinism claim reads the counts of the scan, so the suite runs
    # the scan, and the convolution, once
    calls, counted = [], []
    scan, counts = lat.minus4_vector_scan, lat.box_counts
    monkeypatch.setattr(lat, "minus4_vector_scan", lambda bound: calls.append(bound) or scan(bound))
    monkeypatch.setattr(lat, "box_counts", lambda bound: counted.append(bound) or counts(bound))
    reports = {r.name: r for r in checks.run_suite("lattice", checks.RunConfig(box_bound=2))}
    assert calls == counted == [2]
    report = reports["lattice.scan_counts_deterministic"]
    assert report.status == "pass" and report.actual == report.expected == counts(2)


def test_scan_counts_line_fails_for_a_wrong_convolution(monkeypatch):
    # the counts are compared with the recorded table, one entry per bound
    # the scan accepts, so a convolution off by one fails exactly that line
    assert sorted(checks.BOX_COUNTS) == list(range(2, lat.MAX_SCAN_BOUND + 1))
    count = lat._convolved_count
    monkeypatch.setattr(lat, "_convolved_count", lambda *args: count(*args) + 1)
    reports = checks.run_suite("lattice", checks.RunConfig(box_bound=2))
    assert [r.name for r in reports if r.status == "fail"] == ["lattice.scan_counts_deterministic"]


def test_direct_scan_fails_when_the_convolved_counts_disagree(monkeypatch):
    # the correspondence is proved for every vector, so only the oracle's
    # vector-by-vector count sees a wrong convolution
    count = lat._convolved_count
    monkeypatch.setattr(lat, "_convolved_count", lambda *args: count(*args) + 1)
    assert not _direct_scan()
    assert all(lat.minus4_vector_scan(2)[0].values())


def _scalar(k):
    """k times the 12 x 12 identity."""
    return tuple(tuple(k * (i == j) for j in range(12)) for i in range(12))


def test_reflection_plane_complement():
    assert lat.named_lattice("U+U(2)+D4+A1^2").signature() == (2, 8)
    assert lat.reflection_plane_complement()


def test_induced_map_of_identity():
    for isometry in (_scalar(1), lat.order_four_isometry()):
        assert lat._class_table(isometry) == (tuple(range(64)), True)


# Reference: the class map by Fractions, one dual vector at a time, and the
# reflection matrices one vector at a time, as the lattices module computed
# them before the batched integer report.


@lru_cache(maxsize=None)
def _reference_snf():
    gram = lat.lattice_N().gram
    d, u, v = lat.smith_normal_form(gram)
    sel = [k for k in range(12) if d[k][k] > 1]
    rows = [u[k] for k in sel]
    gens = [[QQ(v[r][k], 2) for r in range(12)] for k in sel]
    return rows, gens


def _reference_class_bits(dual_vector):
    gram = lat.lattice_N().gram
    y = [QQ(x) for x in dual_vector]
    gy = [sum(QQ(gram[i][j]) * y[j] for j in range(12)) for i in range(12)]
    assert all(c.denominator == 1 for c in gy)
    bits = 0
    for pos, row in enumerate(_reference_snf()[0]):
        bits |= (sum(row[j] * int(gy[j]) for j in range(12)) % 2) << pos
    return bits


def _reference_induced_map(isometry):
    isometry = np.asarray(isometry)
    images = [_reference_class_bits([sum(QQ(int(isometry[i, j])) * gen[j] for j in range(12))
                                     for i in range(12)])
              for gen in _reference_snf()[1]]
    dictionary = lat.split_dictionary()
    inv = {m: bits for bits, m in enumerate(dictionary)}
    table = []
    for model_vec in range(64):
        img = 0
        for i in range(6):
            if (inv[model_vec] >> i) & 1:
                img ^= images[i]
        table.append(dictionary[img])
    return tuple(table)


def _reference_reflections(r):
    """(pair reflection, quarter reflection) of a norm -2 vector."""
    rho, gram = _rho(), _gram()
    eye = np.eye(12, dtype=np.int64)
    rr = rho @ r
    pair = eye + np.outer(r, gram @ r) + np.outer(rr, gram @ rr)
    doubled = 2 * eye + np.outer(r - rr, gram @ r) + np.outer(r + rr, gram @ rr)
    assert not (doubled % 2).any()
    return pair, doubled // 2


def _ints(array):
    """An integer array, float64 ones too, as nested lists of Python ints."""
    return np.asarray(array).astype(np.int64).tolist()


def _box_slice():
    """A deterministic slice of the norm -2 vectors of the unit box."""
    return _unit_box_vectors()[0][::509]


def test_class_tables_match_fraction_reference(monkeypatch):
    rho = _rho()
    mats = [np.eye(12, dtype=np.int64), rho]
    mats += [_reference_reflections(r)[1] for r in _box_slice()]
    want = [_reference_induced_map(m) for m in mats]
    assert want[0] == want[1] == tuple(range(64))
    tables, in_dual = _batch_class_tables(np.stack(mats))
    assert tables.tolist() == [list(t) for t in want]
    assert in_dual.all()
    assert [lat._class_table(_ints(m)) for m in mats] == [(t, True) for t in want]
    # the alpha of each quarter reflection, against the Fraction class map
    deltas = np.stack([r + rho @ r for r in _box_slice()])
    bits, half_in_dual = _batch_class_bits(deltas)
    assert half_in_dual.all()
    want = [_reference_class_bits([QQ(int(x), 2) for x in d]) for d in deltas]
    assert (bits @ (1 << np.arange(6))).tolist() == want
    assert [lat._class_bits(_ints(d)) for d in deltas] == [(w, True) for w in want]
    # quotient_trivial, read off the doubled generators, against (1 - rho) 2G^{-1}
    # even, at rho and at two matrices that are not isometries
    ginv = linalg.solve_right(lat.lattice_N().gram, np.eye(12, dtype=np.int64).tolist())
    assert all((2 * x).denominator == 1 for row in ginv for x in row)
    two_ginv = np.array([[int(2 * x) for x in row] for row in ginv])
    wrong = rho.copy()
    wrong[0, 0] = -wrong[0, 0]
    verdicts = []
    for m in (rho, wrong, np.zeros((12, 12), dtype=np.int64)):
        monkeypatch.setattr(lat, "order_four_isometry", lambda m=m: _ints(m))
        lat._rho_identities.cache_clear()
        verdicts.append(lat._rho_identities()["quotient_trivial"])
        minus = np.eye(12, dtype=np.int64) - m
        assert verdicts[-1] == (exact_matmul(minus, two_ginv) % 2 == 0).all()
    monkeypatch.undo()
    lat._rho_identities.cache_clear()
    assert verdicts[0] and not verdicts[2]


def test_pair_reflection_is_not_a_transvection():
    vecs = _box_slice()
    pairs, quarters = (np.stack(m) for m in zip(*map(_reference_reflections, vecs)))
    deltas = vecs + vecs @ _rho().T
    # the pair reflection is s_r s_{rho r}, trivial on the dual mod N
    assert _reference_induced_map(pairs[0]) == tuple(range(64))
    anisotropic, induces = _batch_acts_as_transvection(pairs, deltas)
    assert anisotropic.all() and not induces.any()
    anisotropic, induces = _batch_acts_as_transvection(quarters, deltas)
    assert anisotropic.all() and induces.all()
    for pair, quarter, delta in zip(_ints(pairs), _ints(quarters), _ints(deltas)):
        assert lat._acts_as_transvection(pair, delta) == (True, False)
        assert lat._acts_as_transvection(quarter, delta) == (True, True)


def test_single_vector_report_is_the_stack_of_one():
    vecs = _box_slice()[:4]
    for r in vecs:
        assert lat.reflection_identities(_ints(r)) == _batch_reflection_report(r[None])
        assert all(lat.reflection_identities(_ints(r)).values())
    assert all(_batch_reflection_report(vecs).values())
    with pytest.raises(ValueError):
        _batch_reflection_report(np.vstack([vecs, [1, 0] + [0] * 10]))
    with pytest.raises(ValueError):
        lat.reflection_identities([1, 0] + [0] * 10)


def _box_sweep(rows=256):
    """Oracle for the rank-2 lemma: the batched report over every norm -2
    vector of the unit box, in slices of ``rows``, each key true when it holds
    at every vector; and the slices, in order."""
    vecs = _unit_box_vectors()[0]
    slices = [vecs[i:i + rows] for i in range(0, len(vecs), rows)]
    reports = [_batch_reflection_report(s) for s in slices]
    return {key: all(rep[key] for rep in reports) for key in reports[0]}, slices


def test_reflection_family_examines_every_box_vector():
    sweep, handed = _box_sweep()
    assert sum(map(len, handed)) == lat.box_counts(1)[0] == 20354
    # each vector once, in box order: no symmetry reduction and no sample
    assert np.array_equal(np.vstack(handed), _unit_box_vectors()[0])
    # every key holds over the box, as the rank-2 lemma certifies for all of N
    assert sweep == dict.fromkeys(sweep, True)
    assert lat.reflection_family_check() is True


def _norm_minus2_vectors(count, seed, bound=6):
    """Seeded norm -2 vectors of N with no rejection: the ten coordinates after
    (e, f) are drawn from [-bound, bound], leaving norm n; then (e, f) = (a, b)
    with 2ab = -2 - n, a a divisor of (-2 - n)/2 of either sign (a = 0 and b
    drawn when n = -2)."""
    rng = random.Random(seed)
    gram = _gram()
    out = []
    for _ in range(count):
        r = np.array([0, 0] + [rng.randint(-bound, bound) for _ in range(10)], dtype=np.int64)
        m = (-2 - int(r @ gram @ r)) // 2  # N is even, so n is even
        if m:
            divisors = [d for d in range(1, abs(m) + 1) if m % d == 0]
            r[0] = rng.choice(divisors) * rng.choice((1, -1))
            r[1] = m // r[0]
        else:
            r[1] = rng.randint(-bound, bound)
        out.append(r)
    return np.array(out)


def test_reflection_identities_beyond_the_box():
    vecs = _norm_minus2_vectors(200, seed=504233)
    assert (np.einsum("ai,ij,aj->a", vecs, _gram(), vecs) == -2).all()
    # most of them lie outside the unit box that the oracle sweep covers
    assert (np.abs(vecs).max(axis=1) > 1).sum() > 190 and np.abs(vecs[:, 2:]).max() == 6
    for r in vecs:
        assert all(lat.reflection_identities(r.tolist()).values()), r.tolist()


@pytest.fixture
def fresh_rho_identities():
    """Recompute the cached identities of rho inside the test and after it."""
    lat._rho_identities.cache_clear()
    yield
    lat._rho_identities.cache_clear()


@pytest.mark.parametrize("sign", [-1, 1], ids=["minus_identity", "identity"])
def test_reflection_family_fails_for_a_wrong_rho(monkeypatch, fresh_rho_identities, sign):
    """Negative control: -I is not skew, and I is not skew and has square I,
    not -I; the check then returns False, without raising."""
    monkeypatch.setattr(lat, "order_four_isometry", lambda: _scalar(sign))
    assert lat.reflection_family_check() is False
    reports = checks.run_suite("lattice", checks.RunConfig(box_bound=2))
    assert {r.name: r.status for r in reports}["lattice.reflection_family"] == "fail"


@pytest.mark.parametrize("sign", [-1, 1], ids=["minus_identity", "identity"])
def test_correspondence_and_phi_fail_for_a_wrong_rho(monkeypatch, fresh_rho_identities, sign):
    """Negative control: +-I is not skew, and (1 + rho)(1 - rho) = 0, so every
    key of the correspondence turns False and both report lines fail."""
    monkeypatch.setattr(lat, "order_four_isometry", lambda: _scalar(sign))
    assert lat.minus4_vector_scan(2)[0] == dict.fromkeys(("forward", "converse", "direct"), False)
    assert lat.phi_map_check()["inverse_identity"] is False
    statuses = {r.name: r.status for r in checks.run_suite("lattice", checks.RunConfig(box_bound=2))}
    assert statuses["lattice.norm_minus4_correspondence"] == "fail"
    assert statuses["lattice.half_sum_quotient_map"] == "fail"


def test_fixed_point_free_and_phi_fail_for_a_rho_with_fixed_vectors(monkeypatch,
                                                                     fresh_rho_identities):
    """Negative control: rho on U + U(2) and the first D4 block, and the
    identity on the second, is an isometry of N with fixed vectors; its
    square is not -1, so both lines fail."""
    wrong = lat.direct_sum_grams([lat._rho1_block(), lat._rho0_block(), lat._eye(4)])
    gram = lat.lattice_N().gram
    assert linalg.matmul(linalg.matmul(lat._transpose(wrong), gram), wrong) == gram
    assert _characteristic_polynomial(wrong) != _T2_PLUS_1_TO_THE_6
    monkeypatch.setattr(lat, "order_four_isometry", lambda: wrong)
    assert lat.isometry_fixed_point_free() is False
    assert lat.phi_map_check()["bijective"] is False
    statuses = {r.name: r.status for r in checks.run_suite("lattice", checks.RunConfig(box_bound=2))}
    assert statuses["lattice.isometry_fixed_point_free"] == "fail"
    assert statuses["lattice.half_sum_quotient_map"] == "fail"


def _phi_bijective_by_enumeration(class_bits=_batch_class_bits):
    """Oracle for ``phi_map_check``: with invariant factors of I - rho dividing
    2, the 4096 0/1 vectors meet every coset of (1 - rho)Z^12, and phi is
    bijective when their images, all in the dual, reach all 64 classes."""
    reps = (np.arange(4096)[:, None] >> np.arange(12)) & 1
    bits, in_dual = class_bits(reps + reps @ _rho().T)
    return bool(in_dual.all()) and len(set((bits @ (1 << np.arange(6))).tolist())) == 64


def test_phi_bijection_by_generators_agrees_with_the_coset_sweep():
    assert lat.phi_map_check()["bijective"] is _phi_bijective_by_enumeration() is True


@pytest.mark.parametrize("column", [0, 5])
def test_phi_bijection_fails_for_a_lost_class_bit(monkeypatch, column):
    """Negative control: with one class bit read as 0, phi reaches only 32
    classes; the generators and the coset sweep must both see it."""
    class_bits = lat._class_bits

    def lossy_stack(doubled):
        bits, in_dual = _batch_class_bits(doubled)
        bits = bits.copy()
        bits[..., column] = 0
        return bits, in_dual

    def lossy(doubled):
        bits, in_dual = class_bits(doubled)
        return bits & ~(1 << column), in_dual

    monkeypatch.setattr(lat, "_class_bits", lossy)
    assert lat.phi_map_check()["bijective"] is _phi_bijective_by_enumeration(lossy_stack) is False


def test_lattice_suite_allocates_no_unit_box():
    # the parent materialized the unit box here, an 11.6 MB tracemalloc peak;
    # every cache of the module is cleared so the suite runs cold
    for fn in vars(lat).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    tracemalloc.start()
    try:
        assert checks.all_passed(checks.run_suite("lattice", checks.RunConfig()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_reflection_family_fails_for_a_perturbed_quarter(monkeypatch):
    """Negative control: C = [[1/2, 1/2], [1/2, 1/2]] is the reflection in
    delta = r + rho r, an integral isometry inducing the transvection, but of
    order 2 and not commuting with rho; only the family line fails."""
    half = QQ(1, 2)
    monkeypatch.setattr(lat, "QUARTER_COEFFICIENTS", ((half, half), (half, half)))
    assert lat.reflection_family_check() is False
    reports = checks.run_suite("lattice", checks.RunConfig(box_bound=2))
    assert [r.name for r in reports if r.status == "fail"] == ["lattice.reflection_family"]


def test_lattice_suite_hands_the_report_only_e_minus_f(monkeypatch):
    handed = []
    identities = lat.reflection_identities
    monkeypatch.setattr(lat, "reflection_identities",
                        lambda *args: handed.append(args) or identities(*args))
    assert checks.all_passed(checks.run_suite("lattice", checks.RunConfig(box_bound=2)))
    assert handed == [()]  # the default vector, e - f
    assert identities.__defaults__ == (lat.E_MINUS_F,)


def test_reflection_report_fails_for_a_wrong_rho(monkeypatch):
    """Negative control: with rho = -I, rho r = -r is not orthogonal to r, so
    the pair reflection is not s_r s_{rho r} = 1, and the quarter reflection
    is s_r, of order 2; both keys must turn False."""
    vecs = _box_slice()
    monkeypatch.setattr(lat, "order_four_isometry", lambda: _scalar(-1))
    for report in (_batch_reflection_report(vecs), lat.reflection_identities(_ints(vecs[0]))):
        assert report["pair_equals_composition"] is False
        assert report["quarter_order_4"] is False


def test_scan_rejects_an_oversized_bound_before_allocating(monkeypatch):
    def no_histogram(g, bound):
        raise AssertionError("a histogram was built")

    monkeypatch.setattr(lat, "_block_histograms", no_histogram)
    for bound in (lat.MAX_SCAN_BOUND + 1, 100, 1):
        with pytest.raises(ValueError):
            lat.minus4_vector_scan(bound)


# Reference: finite quadratic forms on products of cyclic groups with
# Fraction values, the discriminant form by Fraction Gram products, and the
# backtracking isomorphism search on them, as the lattices module computed
# them before the F2 tables.


def _ref_mod(x, modulus):
    return x - (x / modulus).__floor__() * modulus


class _RefForm:
    """orders[i] is the order of generator i, q_gens[i] its value in Q/2Z and
    pairings[i][j] the pairing in Q/Z; q(sum a_i g_i) = sum a_i^2 q_i +
    2 sum_{i<j} a_i a_j p_ij."""

    def __init__(self, orders, q_gens, pairings):
        self.orders, self.q_gens, self.pairings = tuple(orders), tuple(q_gens), pairings

    @property
    def group_order(self):
        return prod(self.orders)

    def elements(self):
        return iproduct(*(range(d) for d in self.orders))

    @lru_cache(maxsize=None)  # elements are tuples; each value is computed once
    def q(self, elem):
        total = QQ(0)
        k = len(self.orders)
        for i in range(k):
            total += elem[i] * elem[i] * self.q_gens[i]
            for j in range(i + 1, k):
                total += 2 * elem[i] * elem[j] * self.pairings[i][j]
        return _ref_mod(total, 2)

    @lru_cache(maxsize=None)
    def pairing(self, x, y):
        total = QQ(0)
        k = len(self.orders)
        for i in range(k):
            for j in range(k):
                if i == j:
                    total += x[i] * y[i] * _ref_mod(self.q_gens[i], 1)
                else:
                    total += x[i] * y[j] * self.pairings[i][j]
        return _ref_mod(total, 1)

    def neg(self):
        return _RefForm(self.orders, [_ref_mod(-v, 2) for v in self.q_gens],
                        [[_ref_mod(-p, 1) for p in row] for row in self.pairings])

    def direct_sum(self, other):
        k1, k2 = len(self.orders), len(other.orders)
        pair = [[QQ(0)] * (k1 + k2) for _ in range(k1 + k2)]
        for i in range(k1):
            for j in range(k1):
                pair[i][j] = self.pairings[i][j]
        for i in range(k2):
            for j in range(k2):
                pair[k1 + i][k1 + j] = other.pairings[i][j]
        return _RefForm(self.orders + other.orders, self.q_gens + other.q_gens, pair)


def _ref_discriminant_form(lattice):
    gram = lattice.gram
    d, _, v = lat.smith_normal_form(gram)
    n = len(gram)
    gens, orders = [], []
    for k in range(n):
        if d[k][k] > 1:
            orders.append(d[k][k])
            gens.append([QQ(v[r][k], d[k][k]) for r in range(n)])
    grows = [[int(x) for x in row] for row in gram]

    def ip(x, y):
        return sum(x[i] * grows[i][j] * y[j] for i in range(n) for j in range(n))

    q_gens = [_ref_mod(ip(g, g), 2) for g in gens]
    pairings = [[_ref_mod(ip(gi, gj), 1) if i != j else QQ(0) for j, gj in enumerate(gens)]
                for i, gi in enumerate(gens)]
    form = _RefForm(orders, q_gens, pairings)
    assert form.group_order == abs(lattice.det())
    return form


def _ref_find_isomorphism(a, b):
    assert set(a.orders) <= {2} and set(b.orders) <= {2}
    if a.orders != b.orders:
        return None
    k = len(a.orders)
    b_elems = [tuple(int(x) for x in elem) for elem in b.elements()]
    chosen = []

    def independent(imgs):
        return len(f2geom.echelon_basis([_bits(img) for img in imgs])) == len(imgs)

    def extend(i):
        if i == k:
            return True
        for cand in b_elems:
            if not any(cand) or b.q(cand) != a.q(tuple(int(j == i) for j in range(k))):
                continue
            if any(b.pairing(cand, prev) != a.pairings[i][j] for j, prev in enumerate(chosen)):
                continue
            chosen.append(cand)
            if independent(chosen) and extend(i + 1):
                return True
            chosen.pop()
        return False

    return list(chosen) if extend(0) else None


def _bits(elem):
    return sum(int(e) << i for i, e in enumerate(elem))


def _elem(bits, k):
    return tuple((bits >> i) & 1 for i in range(k))


def _as_table(ref):
    """The table form of a 2-elementary reference form."""
    k = len(ref.orders)
    elems = [_elem(x, k) for x in range(1 << k)]
    return lat.FiniteQuadraticForm(tuple(int(2 * ref.q(x)) for x in elems))


# direct sums of at most three 2-elementary atoms: discriminant rank <= 6
atom_sums = st.lists(st.sampled_from(("U", "U(2)", "A1", "A1(-1)", "D4", "D6", "D8",
                                      "D10", "E8")), min_size=1, max_size=3)


@settings(max_examples=20, deadline=None)
@given(atom_sums)
def test_tables_match_fraction_reference(atoms):
    lattice = lat.named_lattice("+".join(atoms))
    form, ref = lat.discriminant_form(lattice), _ref_discriminant_form(lattice)
    assert form.orders == ref.orders and len(form.q4) == ref.group_order
    neg, ref_neg = form.neg(), ref.neg()
    for x in ref.elements():
        assert form.q4[_bits(x)] == 2 * ref.q(x)
        assert neg.q4[_bits(x)] == 2 * ref_neg.q(x)
        for y in ref.elements():
            assert _b2(form, _bits(x), _bits(y)) == 2 * ref.pairing(x, y)
            # b takes values in {0, 1/2}, where -b = b in Q/Z
            assert _b2(neg, _bits(x), _bits(y)) == _b2(form, _bits(x), _bits(y))
    assert all(ref_neg.pairings[i][j] == ref.pairings[i][j]
               for i in range(form.rank) for j in range(form.rank))


def _check_isomorphism_verdict(left, right):
    a, b = (lat.discriminant_form(lat.named_lattice("+".join(x))) for x in (left, right))
    ref_a, ref_b = (_ref_discriminant_form(lat.named_lattice("+".join(x)))
                    for x in (left, right))
    found = lat.find_isomorphism(a, b)
    assert (found is None) == (_ref_find_isomorphism(ref_a, ref_b) is None)
    if found is None:
        return False
    k = a.rank
    image = [_elem(0, k)] * (1 << k)
    for x in range(1, 1 << k):
        low = (x & -x).bit_length() - 1
        image[x] = _elem(_bits(image[x & (x - 1)]) ^ found[low], k)
    # q at every element, and b at every element against each generator,
    # which fixes the bilinear b everywhere
    for x in range(1 << k):
        assert ref_b.q(image[x]) == ref_a.q(_elem(x, k))
        for j in range(k):
            assert ref_b.pairing(image[x], image[1 << j]) == ref_a.pairing(_elem(x, k),
                                                                           _elem(1 << j, k))
    return True


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_isomorphism_verdicts_match_fraction_reference(data):
    left = data.draw(atom_sums)
    # a reordering of the atoms is an isomorphic lattice; a fresh sum may not be
    right = data.draw(st.one_of(st.permutations(left), atom_sums))
    verdicts = {_check_isomorphism_verdict(left, right), _check_isomorphism_verdict(right, left)}
    assert len(verdicts) == 1
    if sorted(left) == sorted(right):
        assert verdicts == {True}


@pytest.mark.parametrize("left, right, isomorphic", [
    (["D8"], ["U(2)"], True), (["D4", "D4"], ["U(2)", "U(2)"], True),
    (["D10", "A1(-1)"], ["D4", "U(2)"], False), (["D4"], ["U(2)"], False),
    (["A1", "A1(-1)"], ["U(2)"], False), (["D6", "A1"], ["A1(-1)", "A1(-1)", "A1"], True),
    (["D4", "D4", "U(2)"], ["U(2)", "U(2)", "U(2)"], True),
    (["D4", "D4", "D4"], ["D6", "D6", "D6"], False)])
def test_isomorphism_verdicts_across_atoms(left, right, isomorphic):
    assert _check_isomorphism_verdict(left, right) is isomorphic
    assert _check_isomorphism_verdict(right, left) is isomorphic


def test_flipped_value_is_not_isomorphic():
    form = lat.discriminant_form(lat.lattice_N())
    assert lat.find_isomorphism(form, form) is not None
    q4 = list(form.q4)
    q4[63] = (q4[63] + 2) % 4
    flipped = lat.FiniteQuadraticForm(tuple(q4))
    assert lat.find_isomorphism(form, flipped) is None
    assert lat.find_isomorphism(flipped, form) is None


def test_discriminant_form_rejects_non_2_elementary():
    with pytest.raises(ValueError):
        lat.discriminant_form(lat.named_lattice("A1(3)"))


def test_corrupted_transvection_table_fails_the_report(monkeypatch):
    # the class map is compared with the transvection at every class, so a
    # wrong entry off the six generator images turns the key False
    r = np.array(lat.E_MINUS_F)
    delta = r + _rho() @ r
    dictionary = lat.split_dictionary()
    alpha = dictionary[lat._class_bits(delta.tolist())[0]]
    point = next(x for x in range(1, 64) if x not in {dictionary[1 << i] for i in range(6)})
    table = list(f2geom.transvection(alpha))
    table[point] ^= alpha
    transvection = f2geom.transvection
    monkeypatch.setattr(f2geom, "transvection",
                        lambda a: tuple(table) if a == alpha else transvection(a))
    report = lat.reflection_identities()
    assert report["alpha_is_anisotropic"] and not report["induces_transvection"]
    monkeypatch.undo()
    assert all(lat.reflection_identities().values())
