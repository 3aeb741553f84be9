from fractions import Fraction as QQ
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octet import f2geom, lattices as lat


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
        lat.reflection_s([1, 0] + [0] * 10)  # norm 0 vector


def test_reflection_identities_other_vector():
    r = np.zeros(12, dtype=np.int64)
    r[4] = 1  # first D4 basis vector has norm -2
    assert lat.inner(r, r) == -2
    rep = lat.reflection_identities(r)
    assert all(rep.values())


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
