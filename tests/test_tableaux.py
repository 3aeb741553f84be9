from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octet import f2geom, tableaux as tb
from octet.sampling import SplitMix64


def test_counts():
    assert len(tb.enumerate_tableaux()) == 105
    assert len(tb.standard_tableaux()) == 14
    assert tb.double_factorial_count() == 105
    assert tb.hook_count() == 14


def test_every_tableau_valid_and_canonical():
    for t in tb.enumerate_tableaux():
        assert tb.is_valid_tableau(t)
        canon, sign = tb.canonical_tableau(t)
        assert canon == t and sign == 1


def test_standard_examples():
    assert tb.is_standard(((1, 2), (3, 4), (5, 6), (7, 8)))
    assert tb.is_standard(((1, 2), (3, 4), (5, 7), (6, 8)))
    assert not tb.is_standard(((1, 2), (3, 4), (5, 8), (6, 7)))


def test_mu_values():
    config = tb.affine_config(range(1, 9))
    t1 = ((1, 2), (3, 4), (5, 6), (7, 8))
    assert tb.mu(t1, config) == 1
    # swapping one pair's entries negates the product
    swapped, sign = tb.canonical_tableau([(2, 1), (3, 4), (5, 6), (7, 8)])
    assert swapped == t1 and sign == -1
    config2 = tb.affine_config([0, 0, 1, 2, 3, 4, 5, 6])
    assert tb.mu(t1, config2) == 0


def test_theta_golden_and_unstable():
    coords = tb.theta_map(tb.affine_config(range(1, 9)))
    assert coords == tuple(
        QQ(v) for v in (1, 4, 4, 12, 27, 4, 16, 12, 36, 72, 27, 72, 144, 256))
    with pytest.raises(tb.UnstableConfiguration):
        tb.theta_map(tb.affine_config([3, 3, 3, 3, 3, 1, 2, 4]))


def test_theta_projective_invariance():
    config = tb.affine_config([0, 1, 2, 3, 5, 8, 13, 21])
    moved = tuple(
        (2 * a + 3 * bb, a + 2 * bb) for a, bb in config  # det 1 fractional map
    )
    assert tb.theta_map(config) == tb.theta_map(moved)


def test_five_coincident_kills_all():
    config = tb.affine_config([7, 7, 7, 7, 7, 1, 2, 3])
    assert all(tb.mu(t, config) == 0 for t in tb.enumerate_tableaux())
    assert not tb.is_semistable(config)
    assert tb.is_semistable(tb.affine_config([7, 7, 7, 7, 5, 1, 2, 3])) \
        and not tb.is_stable(tb.affine_config([7, 7, 7, 7, 5, 1, 2, 3]))


def test_parse_config_rejects_bad_input():
    with pytest.raises(ValueError):
        tb.parse_config([["0", "0"]] * 8)
    with pytest.raises(ValueError):
        tb.parse_config([["1", "1"]] * 7)


def test_pair_class_form_matches_weight_description():
    form = tb.pair_class_form()
    assert form.orders == (2,) * 6
    dictionary = tb.theta_model_dictionary()
    assert len(set(dictionary.gen_images)) == 6
    # every pair class is anisotropic
    for i in range(1, 9):
        for j in range(i + 1, 9):
            assert f2geom.q(tb.label_vector_in_model((i, j))) == 1


def test_subspace_bijection():
    rep = tb.subspace_bijection_check()
    assert rep["injective"]
    assert rep["image_matches"]
    assert rep["count"] == 105


def test_row_vectors_orthogonal():
    for t in tb.enumerate_tableaux()[:20]:
        vecs = [tb.label_vector_in_model(p) for p in t]
        for i in range(4):
            for j in range(i + 1, 4):
                assert f2geom.b(vecs[i], vecs[j]) == 0
        assert vecs[0] ^ vecs[1] ^ vecs[2] ^ vecs[3] == 0


def test_transposition_transvection_dictionary():
    assert tb.transposition_transvection_check()


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(8)))
def test_induced_map_is_isometry(sigma):
    table = tb.induced_model_map(tuple(sigma))
    assert sorted(table) == list(range(64))
    for v in range(64):
        assert f2geom.q(table[v]) == f2geom.q(v)


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(8)), st.integers(0, 104))
def test_mu_sign_identity(sigma, idx):
    config = tb.affine_config([2, 5, -3, 11, 17, -20, 31, 44])
    t = tb.enumerate_tableaux()[idx]
    assert tb.mu_permutation_identity(t, tuple(sigma), config)


def test_action_matrix_identity_permutation():
    eye = tb.action_matrix(tuple(range(8)))
    assert eye == [[QQ(int(i == j)) for j in range(14)] for i in range(14)]


def test_action_matrix_transposition_12():
    sigma = (1, 0, 2, 3, 4, 5, 6, 7)
    matrix = tb.action_matrix(sigma)
    # the first standard tableau contains the pair (1,2): its product negates
    assert matrix[0][0] == -1
    assert all(matrix[0][j] == 0 for j in range(1, 14))


def test_action_matrix_by_evaluation():
    rng = SplitMix64(5)
    configs = [tb.sample_config(rng) for _ in range(3)]
    for sigma in tb.ADJACENT_TRANSPOSITIONS + (rng.permutation(8),):
        matrix = tb.action_matrix(sigma)
        for c in configs:
            values = tb.mu_vector(c)
            image = [sum(m * v for m, v in zip(row, values)) for row in matrix]
            assert image == list(tb.mu_vector(tb.permute_config(c, sigma)))


def test_equivariance():
    rep = tb.equivariance_check(n_pairs=6, seed=11)
    assert rep["ok"]


def test_straightening():
    rep = tb.straightening_check(n_samples=4, seed=3)
    assert rep["ok"]
    nested = ((1, 4), (2, 3), (5, 6), (7, 8))
    expansion = dict(tb.straighten(nested))
    assert expansion == {((1, 2), (3, 4), (5, 6), (7, 8)): -1,
                         ((1, 3), (2, 4), (5, 6), (7, 8)): 1}
    already = ((1, 3), (2, 4), (5, 6), (7, 8))
    assert tb.straighten(already) == ((already, 1),)
    for t in tb.enumerate_tableaux():
        for std, coeff in tb.straighten(t):
            assert tb.is_standard(std)
            assert coeff != 0


def test_plucker_identity_symbolic():
    import sympy

    xs = sympy.symbols("x1:5")
    a, b, c, d = xs
    expr = (b - a) * (d - c) - (c - a) * (d - b) + (d - a) * (c - b)
    assert sympy.expand(expr) == 0


def test_sampler_is_deterministic_and_stable():
    rng1 = SplitMix64(42)
    rng2 = SplitMix64(42)
    c1 = [tb.sample_config(rng1) for _ in range(5)]
    c2 = [tb.sample_config(rng2) for _ in range(5)]
    assert c1 == c2
    for c in c1:
        assert tb.is_stable(c)
        xs = [b for _, b in c]
        assert len(set(xs)) == 8
        assert all(-50 <= x <= 50 for x in xs)


def test_relation_discovery_degree1():
    rel = tb.relation_discovery(1, 60, 42)
    assert rel["dimension"] == 0
    assert rel["stable"]


def test_relation_discovery_requires_enough_samples():
    with pytest.raises(ValueError):
        tb.relation_discovery(2, 50, 42)


def test_degree_monomial_counts():
    assert len(tb.degree_monomials(1)) == 14
    assert len(tb.degree_monomials(2)) == 105
    assert len(tb.degree_monomials(4)) == 2380


def test_relation_discovery_degree2():
    rel = tb.relation_discovery(2, 300, 42)
    assert rel["dimension"] == 14
    assert rel["stable"]
    # every kernel vector annihilates fresh sample evaluations
    rng = SplitMix64(20250915)
    for _ in range(3):
        config = tb.sample_config(rng)
        values = tb.mu_vector(config)
        for vec in rel["basis"]:
            total = sum(c * tb._monomial_value(m, values)
                        for c, m in zip(vec, rel["monomials"]))
            assert total == 0


def test_mu_rank():
    assert tb.mu_function_rank(samples=40, seed=42) == 14


def test_quadric_kernel_stable_under_action():
    assert tb.quadric_kernel_s8_stable(seed=42, samples=300)


def test_adjacent_transpositions_generate_s8():
    group = {tuple(range(8))}
    frontier = list(group)
    while frontier:
        fresh = []
        for g in frontier:
            for s in tb.ADJACENT_TRANSPOSITIONS:
                h = tuple(g[s[i]] for i in range(8))
                if h not in group:
                    group.add(h)
                    fresh.append(h)
        frontier = fresh
    assert len(group) == 40320
