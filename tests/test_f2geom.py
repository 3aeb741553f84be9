import sys
from collections import Counter
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octet import checks, f2geom, lattices
from octet.f2geom import VectorType
import oracles

vectors = st.integers(0, 63)


def test_census():
    counts = f2geom.census()
    assert counts[VectorType.ZERO] == 1
    assert counts[VectorType.ISOTROPIC] == 35
    assert counts[VectorType.ANISOTROPIC] == 28


def test_basis_vectors_isotropic():
    for v in f2geom.BASIS:
        assert f2geom.classify(v) is VectorType.ISOTROPIC
    for v in (f2geom.ALPHA1, f2geom.ALPHA2, f2geom.ALPHA3):
        assert f2geom.q(v) == 1


@given(vectors, vectors)
def test_bilinear_symmetric_alternating(x, y):
    assert f2geom.B_TABLE[x][y] == f2geom.B_TABLE[y][x]
    assert f2geom.B_TABLE[x][x] == 0
    assert f2geom.q(x ^ y) == (f2geom.q(x) + f2geom.q(y) + f2geom.B_TABLE[x][y]) % 2


@given(vectors, vectors, vectors)
def test_bilinearity(x, y, z):
    assert f2geom.B_TABLE[x ^ y][z] == (f2geom.B_TABLE[x][z] + f2geom.B_TABLE[y][z]) % 2


def test_tables_match_the_coordinate_formulas():
    # q = sum x_ei x_fi and b = sum x_ei y_fi + x_fi y_ei over the three planes,
    # coordinate by coordinate, against the tables that q, b and classify read
    def bit(x, i):
        return x >> i & 1

    planes = ((0, 1), (2, 3), (4, 5))
    for x in range(64):
        assert f2geom.Q_TABLE[x] == f2geom.q(x) == sum(bit(x, e) * bit(x, f)
                                                       for e, f in planes) % 2
        assert f2geom.classify(x) is (VectorType.ZERO if x == 0 else
                                      VectorType.ANISOTROPIC if f2geom.Q_TABLE[x] else
                                      VectorType.ISOTROPIC)
        for y in range(64):
            want = sum(bit(x, e) * bit(y, f) + bit(x, f) * bit(y, e) for e, f in planes) % 2
            assert f2geom.B_TABLE[x][y] == want
    for alpha in range(64):
        census = f2geom.pair_census(alpha)
        for kind in VectorType:
            for e in (0, 1):
                assert census[(kind, e)] == sum(1 for beta in range(64)
                                                if f2geom.classify(beta) is kind
                                                and f2geom.B_TABLE[alpha][beta] == e)


def test_nondegenerate():
    for x in range(1, 64):
        assert any(f2geom.B_TABLE[x][y] for y in range(64))


def test_pair_census_matches_table():
    table = f2geom.pair_census(f2geom.ALPHA1)
    assert table[(VectorType.ZERO, 0)] == 1
    assert table[(VectorType.ISOTROPIC, 0)] == 15
    assert table[(VectorType.ISOTROPIC, 1)] == 20
    assert table[(VectorType.ANISOTROPIC, 0)] == 16
    assert table[(VectorType.ANISOTROPIC, 1)] == 12
    iso = f2geom.pair_census(f2geom.E1)
    assert iso[(VectorType.ISOTROPIC, 0)] == 19
    assert iso[(VectorType.ISOTROPIC, 1)] == 16
    assert iso[(VectorType.ANISOTROPIC, 0)] == 12
    zero = f2geom.pair_census(0)
    assert all(zero[(t, 1)] == 0 for t in VectorType)


def test_transvection_requires_anisotropic():
    with pytest.raises(ValueError):
        f2geom.transvection(f2geom.E1)


def test_transvection_is_cached_and_keeps_rejecting_isotropic_vectors():
    assert f2geom.transvection(f2geom.ALPHA1) is f2geom.transvection(f2geom.ALPHA1)
    for _ in range(2):  # lru_cache stores no exception
        with pytest.raises(ValueError):
            f2geom.transvection(f2geom.E1)


def test_transvection_examples():
    alpha = f2geom.ALPHA1
    t = f2geom.transvection(alpha)
    assert t[alpha] == alpha
    assert t[f2geom.E1] == f2geom.F1  # e1 + alpha1 = f1
    for x in f2geom.SPACE:
        if f2geom.B_TABLE[x][alpha] == 0:
            assert t[x] == x


@given(st.sampled_from([a for a in range(64) if f2geom.q(a) == 1]), vectors)
def test_transvection_involution_preserves_form(alpha, x):
    t = f2geom.transvection(alpha)
    assert t[t[x]] == x
    assert f2geom.q(t[x]) == f2geom.q(x)


def test_group_order_and_orbits():
    group = f2geom.group_elements()
    assert len(group) == 40320 == f2geom.group_order()
    assert len(set(group)) == 40320
    identity = tuple(range(64))
    assert identity in group
    gens = f2geom.all_transvections()
    assert len(gens) == 28
    assert all(f2geom.compose(g, g) == identity for g in gens)
    orbit_sizes = sorted(len(o) for o in f2geom.orbits())
    assert orbit_sizes == [1, 28, 35]


def test_group_closed_under_generators():
    # every product t o g of a generator and an element lies in the group:
    # t o G, sorted as 64-byte rows, equals the sorted group
    group = np.array(f2geom.group_elements(), dtype=np.uint8)
    rows = np.sort(group.view("V64").ravel()).view(np.uint8)
    assert np.array_equal(rows.reshape(group.shape), group)  # listed in lexicographic order
    for gen in f2geom.all_transvections():
        products = np.array(gen, dtype=np.uint8)[group]
        assert np.array_equal(np.sort(products.view("V64").ravel()).view(np.uint8), rows)
    assert f2geom.compose(gen, f2geom.group_elements()[7]) == tuple(products[7].tolist())


def test_subspace_counts():
    assert len(f2geom.enumerate_isotropic_subspaces(1)) == 35
    assert len(f2geom.enumerate_isotropic_subspaces(2)) == 105
    assert len(f2geom.enumerate_isotropic_subspaces(3)) == 30
    assert len(f2geom.enumerate_singular_subspaces()) == 105
    assert len(f2geom.all_subspaces(3)) == 1395


@pytest.mark.parametrize("dim", [0, 1, 2, 3])
def test_all_subspaces_match_echelon_reduced_combinations(dim):
    # reference: echelon-reduce every dim-tuple of nonzero vectors
    found = {f2geom.echelon_basis(c) for c in combinations(range(1, 64), dim)}
    assert f2geom.all_subspaces(dim) == tuple(sorted(s for s in found if len(s) == dim))


@pytest.mark.parametrize("dim, count", [(4, 651), (5, 63), (6, 1)])
def test_all_subspaces_in_high_dimension(dim, count):
    subs = f2geom.all_subspaces(dim)
    assert len(subs) == len(set(subs)) == count
    assert subs == tuple(sorted(subs))
    assert all(f2geom.echelon_basis(s) == s and len(s) == dim for s in subs)
    with pytest.raises(ValueError):
        f2geom.all_subspaces(7)


def test_isotropic_subspaces_are_isotropic():
    for sub in f2geom.enumerate_isotropic_subspaces(3):
        assert all(f2geom.q(v) == 0 for v in f2geom.span(sub))


def test_singular_membership_split():
    expected = f2geom.echelon_basis([f2geom.ALPHA1, f2geom.ALPHA2, f2geom.ALPHA3])
    assert expected in f2geom.enumerate_singular_subspaces()
    for sub in f2geom.enumerate_singular_subspaces():
        aniso, iso = f2geom.singular_members(sub)
        assert len(aniso) == 4 and len(iso) == 4
        assert all(f2geom.B_TABLE[u][v] == 0
                   for u, v in combinations(f2geom.span(sub), 2) if u and v)
        plane = f2geom.kernel_plane(sub)
        assert set(f2geom.span(plane)) == set(iso)


def test_plane_extensions_example():
    a1, a2, a3 = f2geom.ALPHA1, f2geom.ALPHA2, f2geom.ALPHA3
    plane = f2geom.echelon_basis([a1 ^ a2, a1 ^ a3])
    plus, minus = f2geom.isotropic_plane_extensions(plane)
    e_sum = f2geom.E1 ^ f2geom.E2 ^ f2geom.E3
    f_sum = f2geom.F1 ^ f2geom.F2 ^ f2geom.F3
    expected = {
        f2geom.echelon_basis(list(plane) + [e_sum]),
        f2geom.echelon_basis(list(plane) + [f_sum]),
    }
    assert {plus, minus} == expected


def test_plane_extensions_all():
    for plane in f2geom.enumerate_isotropic_subspaces(2):
        plus, minus = f2geom.isotropic_plane_extensions(plane)
        assert plus != minus
        assert set(f2geom.span(plus)) & set(f2geom.span(minus)) == set(f2geom.span(plane))
        assert f2geom.is_totally_isotropic(plus)
        assert f2geom.is_totally_isotropic(minus)


def test_plane_extensions_rejects_bad_input():
    with pytest.raises(ValueError):
        f2geom.isotropic_plane_extensions((f2geom.ALPHA1, f2geom.E2))
    with pytest.raises(ValueError):
        f2geom.isotropic_plane_extensions((f2geom.E1,))


def test_plane_extensions_match_the_set_oracle():
    planes = f2geom.enumerate_isotropic_subspaces(2)
    assert len(planes) == 105
    for plane in planes:
        assert f2geom.isotropic_plane_extensions(plane) == oracles.isotropic_plane_extensions(plane)
    assert f2geom.plane_extension_pairs() is oracles.plane_extension_pairs() is True


def test_span_mask_sets_the_bits_of_the_span():
    for sub in f2geom.all_subspaces(2) + f2geom.all_subspaces(3):
        assert f2geom.span_mask(sub) == sum(1 << x for x in f2geom.span(sub))


def test_pair_census_matches_the_enum_dict_oracle():
    for alpha in f2geom.SPACE:
        assert f2geom.pair_census(alpha) == oracles.pair_census(alpha)
    assert f2geom.pair_census_type_constant()


@pytest.fixture
def fresh_f2_caches():
    def clear():
        for cached in (f2geom.enumerate_isotropic_subspaces, f2geom.enumerate_singular_subspaces,
                       f2geom.singular_members, f2geom.isotropic_plane_extensions,
                       f2geom.transvection):
            cached.cache_clear()
    clear()
    yield clear
    clear()


def _broken_plane(extra):
    """A plane, and the vector whose q value to flip so that it has
    ``extra`` extensions beyond two: -1 makes one extension fail by an
    anisotropic basis vector, +1 lets the anisotropic class of the plane's
    orthogonal complement pass with an isotropic basis vector."""
    plane = f2geom.enumerate_isotropic_subspaces(2)[0]
    inside = set(f2geom.span(plane))
    if extra < 0:
        ext = f2geom.isotropic_plane_extensions(plane)[0]
    else:
        a = next(v for v in f2geom.SPACE if f2geom.q(v) and not f2geom.B_TABLE[v][plane[0]]
                 and not f2geom.B_TABLE[v][plane[1]])
        ext = f2geom.echelon_basis(plane + (a,))
    return plane, next(v for v in ext if v not in inside)


@pytest.mark.parametrize("extra", [-1, 1], ids=["one_extension", "three_extensions"])
def test_a_plane_without_two_extensions_fails_its_line(monkeypatch, fresh_f2_caches, extra):
    plane, flipped = _broken_plane(extra)
    table = list(f2geom.Q_TABLE)
    table[flipped] ^= 1
    monkeypatch.setattr(f2geom, "Q_TABLE", tuple(table))
    fresh_f2_caches()  # nothing enumerated from the intact table is kept
    assert len(f2geom.isotropic_plane_extensions(plane)) == 2 + extra
    assert len(oracles.isotropic_plane_extensions(plane)) == 2 + extra
    assert f2geom.plane_extension_pairs() is oracles.plane_extension_pairs() is False
    status = {r.name: r.status for r in checks.run_suite("f2")}
    assert status["f2.plane_extension_pairs"] == "fail"


def test_verify_all_filters_each_space_of_subspaces_once(monkeypatch, fresh_f2_caches):
    """``verify all`` filters each all_subspaces(d) for isotropy once, d = 1,
    2, 3, and splits each singular subspace into its members once: every
    call of the isotropy and singularity tests is recorded with the function
    that made it."""
    isotropic, singular = f2geom.is_totally_isotropic, f2geom.is_singular
    calls = Counter()

    def caller():
        frame = sys._getframe(2)
        while frame.f_code.co_name.startswith("<"):  # a comprehension or generator
            frame = frame.f_back
        return frame.f_code.co_name

    def recording_isotropic(s):
        calls[caller(), "isotropic", s] += 1
        return isotropic(s)

    def recording_singular(s):
        calls[caller(), "singular", s] += 1
        return singular(s)

    monkeypatch.setattr(f2geom, "is_totally_isotropic", recording_isotropic)
    monkeypatch.setattr(f2geom, "is_singular", recording_singular)
    assert checks.all_passed(checks.run_suite("all"))
    by_caller = {}
    for (who, test, s), n in calls.items():
        by_caller.setdefault((who, test), Counter())[s] += n
    assert by_caller.pop(("enumerate_isotropic_subspaces", "isotropic")) \
        == Counter(s for d in (1, 2, 3) for s in f2geom.all_subspaces(d))
    assert by_caller.pop(("singular_members", "singular")) \
        == Counter(f2geom.enumerate_singular_subspaces())
    # the only other isotropy tests: each plane and its two extensions, once
    others = {key: sum(c.values()) for key, c in by_caller.items() if key[1] == "isotropic"}
    assert others == {("isotropic_plane_extensions", "isotropic"): 3 * 105}


def test_enumeration_deterministic():
    first = f2geom.enumerate_singular_subspaces()
    again = tuple(s for s in f2geom.all_subspaces(3) if f2geom.is_singular(s))
    assert first == again


def test_maximal_isotropic_by_plane_extension():
    assert f2geom.maximal_isotropic_by_extension() == f2geom.enumerate_isotropic_subspaces(3)


def _table_form(table):
    """The 2-elementary form with q = table (values 0/1) on F2^6."""
    return lattices.FiniteQuadraticForm(tuple(2 * t for t in table))


def _linear(images, v):
    out = 0
    for i in range(6):
        if (v >> i) & 1:
            out ^= images[i]
    return out


@settings(deadline=None)
@given(st.permutations(range(6)), st.integers(0, 2**36 - 1))
def test_split_model_identified_and_q_transported(perm, mixing):
    # scramble the model by a unipotent basis change and a coordinate permutation
    unipotent = [(1 << i) | ((mixing >> (6 * i)) & 63) >> (i + 1) << (i + 1)
                 for i in range(6)]
    scramble = [_linear([1 << p for p in perm], u) for u in unipotent]
    assert len(f2geom.echelon_basis(scramble)) == 6
    table = [f2geom.q(_linear(scramble, v)) for v in range(64)]
    dictionary = lattices.identify_with_split_model(_table_form(table))
    images = [dictionary[1 << i] for i in range(6)]
    assert len(f2geom.echelon_basis(images)) == 6
    for v in range(64):
        assert dictionary[v] == _linear(images, v)
        assert f2geom.q(dictionary[v]) == table[v]
    # the pairing, the polarization of q, is transported with it
    for u in range(64):
        for v in range(64):
            polarization = (table[u ^ v] + table[u] + table[v]) % 2
            assert f2geom.B_TABLE[dictionary[u]][dictionary[v]] == polarization


@given(st.lists(vectors, max_size=6))
def test_linear_table_is_the_xor_at_the_bits(images):
    table = f2geom.linear_table(images)
    assert len(table) == 2 ** len(images)
    assert list(table) == [_linear(images + [0] * 6, x) for x in range(len(table))]
    assert f2geom.span(images) == sorted(table)


@settings(deadline=None)
@given(st.permutations(range(64)), st.permutations(range(6)))
def test_induced_permutation_conjugates_by_the_dictionary(dictionary, perm):
    images = [1 << p for p in perm]  # a coordinate permutation L
    inverse = {m: x for x, m in enumerate(dictionary)}
    want = tuple(dictionary[_linear(images, inverse[m])] for m in range(64))
    assert f2geom.induced_permutation(tuple(dictionary), images) == want
    assert f2geom.induced_permutation(tuple(dictionary), f2geom.BASIS) == f2geom.SPACE


def test_split_model_rejects_nonsplit():
    # the nonsplit form: the first plane anisotropic, x_e1^2 + x_e1 x_f1 + x_f1^2
    table = [(f2geom.q(v) + bin(v & 3).count("1")) % 2 for v in range(64)]
    assert sum(table) == 36  # 28 of the 64 vectors are singular, against 36
    with pytest.raises(ValueError):
        lattices.identify_with_split_model(_table_form(table))


def test_group_elements_hold_python_ints():
    assert type(f2geom.group_elements()[0][0]) is int


@lru_cache(maxsize=None)
def _group_table():
    """Oracle for ``group_elements``: the 40320 x 64 table of images, row g
    holding (g(0), ..., g(63)), in lexicographic order of rows; read-only
    uint8, as the f2geom module computed it in numpy before its pure-Python
    closure.

    The group acts linearly, so an element is fixed by its images of the six
    basis vectors, packed 6 bits each into one int64 key with the image of e1
    highest.  The breadth-first closure of the 28 transvections runs on these
    keys, kept sorted: fresh distinct candidates are found by binary search
    and inserted in place.
    """
    gens = np.array(f2geom.all_transvections(), dtype=np.int64)
    shifts = 6 * np.arange(f2geom.DIM - 1, -1, -1, dtype=np.int64)
    weights = 1 << shifts
    identity = np.array(f2geom.BASIS) @ weights
    frontier = gens[:, f2geom.BASIS]  # the generators' basis images
    seen = np.unique(np.append(frontier @ weights, identity))
    while len(frontier):
        # keys of g h, g a generator and h in the frontier, one basis image at a time
        keys = sum(gens[:, images] << s for images, s in zip(frontier.T, shifts)).ravel()
        keys.sort()
        pos = np.searchsorted(seen, keys)
        new = (seen.take(pos, mode="clip") != keys) & np.append(True, keys[1:] != keys[:-1])
        seen = np.insert(seen, pos[new], keys[new])
        frontier = (keys[new][:, None] >> shifts) & 63
    basis_images = ((seen[:, None] >> shifts) & 63).astype(np.uint8)
    table = np.zeros((len(seen), 64), dtype=np.uint8)
    for x in range(1, 64):
        low = x & -x
        table[:, x] = table[:, x ^ low] ^ basis_images[:, low.bit_length() - 1]
    table.flags.writeable = False
    return table


def test_group_table_is_shared_and_read_only():
    # cached: every call hands out the same tuple of tuples
    assert f2geom.group_elements() is f2geom.group_elements()
    table = _group_table()
    assert table.shape == (40320, 64) and not table.flags.writeable
    assert f2geom.group_elements() == tuple(map(tuple, table.tolist()))


def test_group_preserves_form_detects_a_broken_element(monkeypatch):
    assert f2geom.group_preserves_form()
    iso, aniso = f2geom.E1, f2geom.ALPHA1
    assert f2geom.q(iso) == 0 and f2geom.q(aniso) == 1
    broken = list(range(64))
    broken[iso], broken[aniso] = aniso, iso
    # the certificate reads the generators, not the closure
    gens = f2geom.coxeter_generators()
    gens[3] = tuple(broken)
    monkeypatch.setattr(f2geom, "coxeter_generators", lambda: gens)
    assert not f2geom._presentation_certificate()[2]  # the q check itself
    assert not f2geom.group_preserves_form()
    assert f2geom.group_order() == 0


def test_group_order_fails_for_a_chain_that_breaks_a_braid_relation(monkeypatch):
    # swapping the first two links keeps every vector anisotropic, but
    # t_3 t_19 then has order 2 where the A7 relations ask for 3
    chain = (13, 3) + f2geom.COXETER_CHAIN[2:]
    monkeypatch.setattr(f2geom, "COXETER_CHAIN", chain)
    assert not f2geom.coxeter_relations(f2geom.coxeter_generators(), f2geom.compose,
                                        f2geom.SPACE)
    reports = {r.name: r for r in checks.run_suite("f2")}
    assert reports["f2.group_order"].status == "fail"
    assert reports["f2.group_order"].actual == 0
    assert [name for name, r in reports.items() if r.status == "fail"] == ["f2.group_order"]


def test_group_order_needs_the_chain_to_reach_every_transvection(monkeypatch):
    # an A6 chain satisfies its relations, but its orbit is 21 of the 28
    # anisotropic vectors: it generates S7, not the whole group
    monkeypatch.setattr(f2geom, "COXETER_CHAIN", f2geom.COXETER_CHAIN[:6])
    gens = f2geom.coxeter_generators()
    assert f2geom.coxeter_relations(gens, f2geom.compose, f2geom.SPACE)
    assert f2geom._presentation_certificate() == (True, False, True)
    assert f2geom.group_order() == 0
    assert not f2geom.group_preserves_form()


def test_coxeter_chain_is_an_a7_path_of_anisotropic_vectors():
    chain = f2geom.COXETER_CHAIN
    assert all(f2geom.q(a) == 1 for a in chain)
    assert [[f2geom.B_TABLE[x][y] for y in chain] for x in chain] == [
        [int(abs(i - j) == 1) for j in range(7)] for i in range(7)]
    assert f2geom._presentation_certificate() == (True, True, True)


def _perm_compose(g, h):
    return tuple(g[x] for x in h)


def test_coxeter_relations_ask_for_exact_orders():
    # the adjacent transpositions of S4 satisfy the A3 relations
    swaps = [tuple(j + 1 if k == j else j if k == j + 1 else k for k in range(4))
             for j in range(3)]
    identity = tuple(range(4))
    assert f2geom.coxeter_relations(swaps, _perm_compose, identity)
    # (s1 s1)^3 = 1 holds, but s1 s1 has order 1, not 3
    assert not f2geom.coxeter_relations([swaps[0], swaps[0]], _perm_compose, identity)
    # s1 and s3 commute: their product has order 2, not 3, as neighbours
    assert not f2geom.coxeter_relations([swaps[0], swaps[2]], _perm_compose, identity)
    # a generator of order 3 breaks m_ii = 1
    cycle = (1, 2, 0, 3)
    assert not f2geom.coxeter_relations([cycle], _perm_compose, identity)


def test_the_coxeter_relations_read_the_powers_from_the_identity():
    calls = []
    gens = [tuple(j + 1 if k == j else j if k == j + 1 else k for k in range(8))
            for j in range(3)]

    def compose(g, x):
        calls.append(x)
        return _perm_compose(g, x)

    assert f2geom.coxeter_relations(gens, compose, tuple(range(8)))
    # each pair builds its m powers by two left multiplications each
    assert len(calls) == 2 * (3 * 1 + 1 * 2 + 2 * 3)
    assert calls[0] == tuple(range(8))


def test_group_order_matches_the_closure():
    # the closure is the oracle for the presentation certificate
    group = _group_table()
    assert f2geom.group_order() == len(f2geom.group_elements()) == len(group)
    qtable = np.array([f2geom.q(x) for x in f2geom.SPACE], dtype=np.uint8)
    assert (qtable[group] == qtable).all()
    assert set(f2geom.coxeter_generators()) <= set(f2geom.all_transvections())
