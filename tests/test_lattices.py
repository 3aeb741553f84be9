from fractions import Fraction as QQ
from functools import lru_cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octet import f2geom, lattices as lat, linalg


def test_named_lattices():
    assert lat.named_lattice("U").gram.tolist() == [[0, 1], [1, 0]]
    assert lat.named_lattice("U(2)").gram.tolist() == [[0, 2], [2, 0]]
    assert lat.named_lattice("A1").gram.tolist() == [[-2]]
    assert lat.named_lattice("A1(-1)").gram.tolist() == [[2]]
    assert lat.named_lattice("D4").det() == 4
    assert lat.named_lattice("E8").det() == 1
    assert lat.named_lattice("U+A1^2").rank == 4
    with pytest.raises(ValueError):
        lat.named_lattice("Z9")


def test_signatures():
    assert lat.named_lattice("U").signature() == (1, 1)
    assert lat.named_lattice("D4").signature() == (0, 4)
    assert lat.named_lattice("E8").signature() == (0, 8)
    assert lat.named_lattice("A1(-1)^2+A1^4").signature() == (2, 4)
    assert lat.lattice_N().signature() == (2, 10)


int_matrices = st.lists(
    st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3
)


@settings(max_examples=50, deadline=None)
@given(int_matrices)
def test_smith_normal_form_properties(mat):
    d, u, v = lat.smith_normal_form(mat)
    prod = np.array(u) @ np.array(mat) @ np.array(v)
    assert prod.tolist() == [row[:] for row in d]
    assert abs(lat._int_det(np.array(u, dtype=np.int64))) == 1
    assert abs(lat._int_det(np.array(v, dtype=np.int64))) == 1
    diag = [d[i][i] for i in range(3)]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert b % a == 0
        if a == 0:
            assert b == 0


def test_discriminant_forms():
    trivial = lat.discriminant_form(lat.named_lattice("U"))
    assert trivial.group_order == 1
    u2 = lat.discriminant_form(lat.named_lattice("U(2)"))
    assert u2.orders == (2, 2)
    assert set(u2.q_gens) == {QQ(0)}
    assert u2.pairings[0][1] == QQ(1, 2)
    a1 = lat.discriminant_form(lat.named_lattice("A1"))
    assert a1.orders == (2,)
    assert a1.q_gens[0] == QQ(3, 2)  # -1/2 normalized into [0, 2)
    d4 = lat.discriminant_form(lat.named_lattice("D4"))
    assert d4.group_order == 4
    n_form = lat.discriminant_form(lat.lattice_N())
    assert n_form.orders == (2,) * 6
    assert n_form.group_order == 64


def test_polarization_identity():
    form = lat.discriminant_form(lat.lattice_N())
    elems = list(form.elements())[:16]
    for x in elems[:8]:
        for y in elems[:8]:
            s = tuple((a + b) % 2 for a, b in zip(x, y))
            lhs = (form.q(s) - form.q(x) - form.q(y)) % 2
            assert lhs == (2 * form.pairing(x, y)) % 2


def test_disc_direct_sum_matches():
    both = lat.discriminant_form(lat.named_lattice("U(2)+A1"))
    pieces = lat.discriminant_form(lat.named_lattice("U(2)")).direct_sum(
        lat.discriminant_form(lat.named_lattice("A1")))
    assert lat.find_isomorphism(both, pieces) is not None


def test_split_dictionary_transports_form():
    d = lat.split_dictionary()
    form = lat.discriminant_form(lat.lattice_N())
    for bits in range(64):
        elem = tuple((bits >> i) & 1 for i in range(6))
        assert int(form.q(elem)) % 2 == f2geom.q(d.to_model(bits))


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
    assert lat.identify_with_split_model(form_m).gen_images


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


def test_table1_rows():
    rows = lat.table1_checks()
    assert len(rows) == 10
    for row in rows:
        assert row["rank_sum_ok"], row
        assert row["transcendental_ok"], row
        assert row["picard_hyperbolic"], row
        assert row["disc_complementary"], row


def test_order_four_isometry():
    rho = lat.order_four_isometry()
    eye = np.eye(12, dtype=np.int64)
    assert np.array_equal(rho @ rho, -eye)
    gram = lat.lattice_N().gram
    assert np.array_equal(rho.T @ gram @ rho, gram)
    cp = lat.characteristic_polynomial(rho)
    expected = [QQ(0)] * 13
    for k in range(7):
        expected[2 * k] = QQ(comb(6, k))
    assert cp == expected  # (t^2 + 1)^6: order 4, no fixed vectors


def test_hermitian_grams():
    res = lat.hermitian_gram_checks()
    assert res["d4_matches"]
    assert res["u_matches"]
    assert res["diagonal_real"]


def test_hermitian_sesquilinear():
    rho = lat.order_four_isometry()
    for i in (0, 1, 4, 8):
        for j in (0, 2, 5, 9):
            x = np.zeros(12, dtype=np.int64)
            y = np.zeros(12, dtype=np.int64)
            x[i] = 1
            y[j] = 1
            a, b = lat.hermitian_form(x, y)
            # h(i*x, y) = i*h(x, y): (a + bi) -> (-b + ai)
            ai, bi = lat.hermitian_form(rho @ x, y)
            assert (ai, bi) == (-b, a)
            # hermitian symmetry: h(y, x) is the conjugate
            ac, bc = lat.hermitian_form(y, x)
            assert (ac, bc) == (a, -b)


def test_phi_map():
    rep = lat.phi_map_check()
    assert rep["into_dual"]
    assert rep["inverse_identity"]
    assert rep["rho_trivial_on_quotient"]
    assert rep["quotient_index"] == 64
    assert rep["bijective"]


def test_reflection_identities_default_and_rejects():
    rep = lat.reflection_identities()
    assert all(rep.values())
    with pytest.raises(ValueError):
        lat.reflection_identities([1, 0] + [0] * 10)  # norm 0 vector


def test_reflection_identities_other_vector():
    r = np.zeros(12, dtype=np.int64)
    r[4] = 1  # first D4 basis vector has norm -2
    assert lat.inner(r, r) == -2
    rep = lat.reflection_identities(r)
    assert all(rep.values())


def test_int64_guards_raise_instead_of_wrapping():
    r = np.zeros(12, dtype=np.int64)
    r[:3] = (1, -1, 2**40)  # e - f plus an isotropic vector of U(2)
    assert lat.inner(r, r) == -2
    with pytest.raises(OverflowError):
        lat.reflection_identities(r)
    with pytest.raises(OverflowError):
        lat._reflection_report(np.vstack([lat._box_vectors(1)[0][:3], r]))


def test_minus4_scan():
    scan = lat.minus4_vector_scan(3)
    assert scan["ok"]
    assert scan["forward_inclusion"] and scan["converse_inclusion"]
    assert scan["direct"]["all_verified"]
    assert scan["direct_counts_match"]
    assert scan["example"]["delta_norm"] == -4
    assert scan["example"]["delta_half_in_dual"]
    with pytest.raises(ValueError):
        lat.minus4_vector_scan(1)


def test_scan_counts_at_unit_box_agree_with_direct():
    direct = lat._direct_scan(1)
    assert direct["minus2_count"] == lat._box_norm_count(1, -2, False)
    assert direct["minus4_glue_count"] == lat._box_norm_count(1, -4, True)


def test_reflection_plane_complement():
    rep = lat.reflection_plane_complement()
    assert rep["rank"] == 10
    assert rep["signature"] == (2, 8)
    assert rep["disc_isomorphic"]
    assert rep["ok"]


def test_induced_map_of_identity():
    eye = np.eye(12, dtype=np.int64)
    assert lat.induced_map_on_classes(eye) == tuple(range(64))
    rho = lat.order_four_isometry()
    assert lat.induced_map_on_classes(rho) == tuple(range(64))


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
    gy = [sum(QQ(int(gram[i, j])) * y[j] for j in range(12)) for i in range(12)]
    assert all(c.denominator == 1 for c in gy)
    bits = 0
    for pos, row in enumerate(_reference_snf()[0]):
        bits |= (sum(row[j] * int(gy[j]) for j in range(12)) % 2) << pos
    return bits


def _reference_induced_map(isometry):
    images = [_reference_class_bits([sum(QQ(int(isometry[i, j])) * gen[j] for j in range(12))
                                     for i in range(12)])
              for gen in _reference_snf()[1]]
    dictionary = lat.split_dictionary()
    inv = dictionary.inverse_table()
    table = []
    for model_vec in range(64):
        img = 0
        for i in range(6):
            if (inv[model_vec] >> i) & 1:
                img ^= images[i]
        table.append(dictionary.to_model(img))
    return tuple(table)


def _reference_reflections(r):
    """(pair reflection, quarter reflection) of a norm -2 vector."""
    rho = lat.order_four_isometry()
    gram = lat.lattice_N().gram
    eye = np.eye(12, dtype=np.int64)
    rr = rho @ r
    pair = eye + np.outer(r, gram @ r) + np.outer(rr, gram @ rr)
    doubled = 2 * eye + np.outer(r - rr, gram @ r) + np.outer(r + rr, gram @ rr)
    assert not (doubled % 2).any()
    return pair, doubled // 2


def _box_slice():
    """A deterministic slice of the norm -2 vectors of the unit box."""
    return lat._box_vectors(1)[0][::509]


def test_class_tables_match_fraction_reference():
    rho = lat.order_four_isometry()
    mats = [np.eye(12, dtype=np.int64), rho]
    mats += [_reference_reflections(r)[1] for r in _box_slice()]
    want = [_reference_induced_map(m) for m in mats]
    assert want[0] == want[1] == tuple(range(64))
    assert [lat.induced_map_on_classes(m) for m in mats] == want
    tables, in_dual = lat._class_tables(np.stack(mats))
    assert tables.tolist() == [list(t) for t in want]
    assert in_dual.all()
    # the alpha of each quarter reflection, against the Fraction class map
    deltas = np.stack([r + rho @ r for r in _box_slice()])
    bits, half_in_dual = lat._class_bits(deltas)
    assert half_in_dual.all()
    assert (bits @ (1 << np.arange(6))).tolist() == [
        _reference_class_bits([QQ(int(x), 2) for x in d]) for d in deltas]
    ginv = linalg.invert(lat.lattice_N().gram.tolist())
    assert lat._snf_data_N()[2].tolist() == [[2 * x for x in row] for row in ginv]


def test_pair_reflection_is_not_a_transvection():
    vecs = _box_slice()
    rho = lat.order_four_isometry()
    pairs, quarters = (np.stack(m) for m in zip(*map(_reference_reflections, vecs)))
    deltas = vecs + vecs @ rho.T
    # the pair reflection is s_r s_{rho r}, trivial on the dual mod N
    assert _reference_induced_map(pairs[0]) == tuple(range(64))
    anisotropic, induces = lat._acts_as_transvection(pairs, deltas)
    assert anisotropic.all() and not induces.any()
    anisotropic, induces = lat._acts_as_transvection(quarters, deltas)
    assert anisotropic.all() and induces.all()


def test_single_vector_report_is_the_stack_of_one():
    vecs = _box_slice()[:4]
    for r in vecs:
        assert lat.reflection_identities(r) == lat._reflection_report(r[None])
        assert all(lat.reflection_identities(r).values())
    assert all(lat._reflection_report(vecs).values())
    with pytest.raises(ValueError):
        lat._reflection_report(np.vstack([vecs, [1, 0] + [0] * 10]))


def test_unit_box_is_built_once(monkeypatch):
    calls = []
    box = lat._box

    def counting_box(dim, bound):
        calls.append((dim, bound))
        return box(dim, bound)

    monkeypatch.setattr(lat, "_box", counting_box)
    lat._box_vectors.cache_clear()
    assert lat.reflection_family_check()
    assert lat.minus4_vector_scan(2)["ok"]
    assert lat.minus4_vector_scan(2)["ok"]
    assert calls.count((8, 1)) == 1  # the box is scanned as slices over _box(8, 1)
