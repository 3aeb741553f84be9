from fractions import Fraction

import numpy as np
import pytest

from octet import f2geom, linalg, weil


def test_traces():
    tr = weil.traces()
    assert tr == {"E": 64, "T": 8, "S": 8, "ST": 1}


def test_generator_relations():
    s, t = weil.rho_S(), weil.rho_T()
    eye = weil.RationalMatrix.identity(64)
    assert s @ s == eye
    st = s @ t
    assert st @ st @ st == eye
    assert t @ t == eye


def test_matrix_entry_shapes():
    t = weil.rho_T()
    assert t.den == 1
    assert sorted(set(np.diag(t.num))) == [-1, 1]
    s = weil.rho_S()
    assert s.den == 8
    assert set(np.unique(s.num)) == {-1, 1}


def test_character_decomposition():
    m = weil.character_decomposition()
    assert m == (15, 7, 21)
    assert m[0] + m[1] + 2 * m[2] == 64


def test_apply_matches_fraction_loop():
    rng = np.random.default_rng(3)
    vectors = [list(v) for v in weil.invariant_subspace()[:3]]
    vectors.append([Fraction(int(x), int(d)) for x, d in
                    zip(rng.integers(-50, 50, 64), rng.integers(1, 9, 64))])
    for mat in (weil.rho_S(), weil.rho_T(), weil.rho_S() @ weil.rho_T()):
        for vec in vectors:
            want = [sum(int(c) * x for c, x in zip(row, vec)) / mat.den for row in mat.num]
            assert mat.apply(vec) == want


def test_apply_never_wraps():
    # int64 would wrap the exact entry 2**61 * 8 of num @ v to 0
    assert weil.rho_S().apply([2**58] * 64)[0] == 2**61
    assert weil.is_invariant([2**58] * 64) is weil.is_invariant([1] * 64) is False
    assert weil.rho_S().apply([2**50] * 64)[0] == 2**53


def test_products_never_wrap():
    # int64 would wrap the exact entries 2 * 2**80 of this product to 0
    big = weil.RationalMatrix([[2**40] * 2] * 2)
    assert (big @ big).num == ((2**81, 2**81), (2**81, 2**81))
    assert weil.sl2_relations() == {"s_squared": True, "st_cubed": True}
    assert weil.traces() == {"E": 64, "T": 8, "S": 8, "ST": 1}


def test_invariant_subspace_dimension_and_sums():
    basis = weil.invariant_subspace()
    assert len(basis) == 15
    for iso in f2geom.enumerate_isotropic_subspaces(3):
        assert weil.is_invariant(weil.isotropic_sum_vector(iso))
    e0 = [0] * 64
    e0[0] = 1
    assert not weil.is_invariant(e0)


def test_isotropic_sums_span_everything_invariant():
    from octet import linalg
    ech = linalg.EchelonForm(64)
    for iso in f2geom.enumerate_isotropic_subspaces(3):
        ech.add_row([int(x) for x in weil.isotropic_sum_vector(iso)])
    assert ech.rank == 15
    # the orbit-constant invariant vector (5 at zero, 1 on isotropics)
    fixed = [0] * 64
    for v in f2geom.SPACE:
        kind = f2geom.classify(v)
        fixed[v] = 5 if kind is f2geom.VectorType.ZERO else (
            1 if kind is f2geom.VectorType.ISOTROPIC else 0)
    assert ech.contains(fixed)
    assert weil.is_invariant(fixed)


def test_singular_vector_support():
    for sub in f2geom.enumerate_singular_subspaces():
        vec = weil.singular_vector(sub)
        support = [x for x in range(64) if vec[x]]
        assert len(support) == 8
        assert sorted(vec[x] for x in support) == [-1] * 4 + [1] * 4
        assert not set(support) & set(f2geom.span(sub))
        assert weil.is_invariant(vec)


def test_singular_vector_rejects_isotropic_subspace():
    iso = f2geom.enumerate_isotropic_subspaces(3)[0]
    with pytest.raises(ValueError):
        weil.singular_vector(iso)


def test_transvections_act_by_minus_one():
    for sub in f2geom.enumerate_singular_subspaces():
        vec = weil.singular_vector(sub)
        aniso, _ = f2geom.singular_members(sub)
        for alpha in aniso:
            perm = f2geom.transvection(alpha)
            assert weil.permute_coordinates(perm, vec) == tuple(-x for x in vec)


def test_antivector_unique_for_all_105():
    for sub in f2geom.enumerate_singular_subspaces():
        dim, spanning = weil.minus_one_eigenspace(sub)
        assert dim == 1
        vec = weil.singular_vector(sub)
        assert spanning in (vec, tuple(-x for x in vec))


def _fixed_line_dimension_by_elimination():
    """Oracle: the 128 rows of the fixed space of rho_T and rho_S and the 61
    type-constancy rows v_a - v_x, eliminated together over 64 columns, as
    the weil module computed the dimension before it read the cached basis."""
    ech = linalg.EchelonForm(64)
    ech.add_rows(weil._fixed_space_rows())
    anchor = {}
    for x in f2geom.SPACE:
        tt = f2geom.classify(x)
        if tt in anchor:
            row = [0] * 64
            row[anchor[tt]] = 1
            row[x] = -1
            ech.add_row(row)
        else:
            anchor[tt] = x
    return 64 - ech.rank


def test_span_rank_and_fixed_line():
    assert weil.space_w_rank() == 14
    assert weil.fixed_line_dimension() == 1 == _fixed_line_dimension_by_elimination()


def test_triple_difference_identity():
    a1, a2, a3 = f2geom.ALPHA1, f2geom.ALPHA2, f2geom.ALPHA3
    v1 = f2geom.echelon_basis([a1, a2, a3])
    v2 = f2geom.echelon_basis([a1, a2, a1 ^ f2geom.E3])
    v3 = f2geom.echelon_basis([a1, a2, a1 ^ f2geom.F3])
    hits = weil.triple_sign_identity(v1, v2, v3)
    assert len(hits) == 1


def test_construction_equivariant_up_to_sign():
    subs = f2geom.enumerate_singular_subspaces()
    alpha = f2geom.ALPHA1
    perm = f2geom.transvection(alpha)
    for sub in subs[:20]:
        moved = f2geom.echelon_basis([perm[v] for v in sub])
        lhs = weil.permute_coordinates(perm, weil.singular_vector(sub))
        rhs = weil.singular_vector(moved)
        assert lhs in (rhs, tuple(-x for x in rhs))


def test_permutation_action_commutes_with_matrices():
    s = weil.rho_S()
    for alpha in (f2geom.ALPHA1, f2geom.ALPHA1 ^ f2geom.E2):
        perm = list(f2geom.transvection(alpha))
        num = np.array(s.num)
        assert (num[perm, :][:, perm] == num).all()
