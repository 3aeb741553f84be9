import sys
from fractions import Fraction as QQ
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octet import checks, f2geom, lattices as lat, linalg, tableaux as tb
from octet.sampling import SplitMix64
import oracles


def mu(t, config):
    """Oracle: the product of the four 2x2 minors picked out by one
    tableau's pairs, computed for that tableau alone (``mu_vector`` shares
    the 28 minors of a configuration among the tableaux)."""
    value = 1
    for a, b in t:
        (x, y), (z, w) = config[a - 1], config[b - 1]
        value *= x * w - y * z
    return value


def test_counts():
    assert len(tb.enumerate_tableaux()) == 105
    assert len(tb.standard_tableaux()) == 14
    assert tb.double_factorial_count() == 105
    assert tb.hook_count() == 14


def test_every_tableau_valid_and_canonical():
    for t in tb.enumerate_tableaux():
        assert sorted(x for pair in t for x in pair) == list(range(1, 9))
        canon, sign = tb.canonical_tableau(t)
        assert canon == t and sign == 1


def test_standard_examples():
    assert tb.is_standard(((1, 2), (3, 4), (5, 6), (7, 8)))
    assert tb.is_standard(((1, 2), (3, 4), (5, 7), (6, 8)))
    assert not tb.is_standard(((1, 2), (3, 4), (5, 8), (6, 7)))


def test_mu_values():
    config = tb.affine_config(range(1, 9))
    t1 = ((1, 2), (3, 4), (5, 6), (7, 8))
    assert mu(t1, config) == 1
    # swapping one pair's entries negates the product
    swapped, sign = tb.canonical_tableau([(2, 1), (3, 4), (5, 6), (7, 8)])
    assert swapped == t1 and sign == -1
    config2 = tb.affine_config([0, 0, 1, 2, 3, 4, 5, 6])
    assert mu(t1, config2) == 0


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
    assert all(mu(t, config) == 0 for t in tb.enumerate_tableaux())
    # four coincident points leave a matching that pairs each with another point
    four = tb.affine_config([7, 7, 7, 7, 5, 1, 2, 3])
    assert any(mu(t, four) != 0 for t in tb.enumerate_tableaux())


def test_parse_config_rejects_bad_input():
    with pytest.raises(ValueError):
        tb.parse_config([["0", "0"]] * 8)
    with pytest.raises(ValueError):
        tb.parse_config([["1", "1"]] * 7)
    for bad in ([1, 2, 3, 4, 5, 6, 7, 8], [["1", "2", "3"]] * 8, ["12"] * 8, "12" * 8,
                [[None, 1]] * 8):
        with pytest.raises(ValueError):
            tb.parse_config(bad)
    for xs in ([1, 2], range(1, 10)):
        with pytest.raises(ValueError):
            tb.affine_config(xs)


def test_pair_class_form_matches_weight_description():
    form = tb.pair_class_form()
    assert form.orders == (2,) * 6
    # the weight rule against the rank-one blocks: each pair vector has self
    # intersection -1 mod 2 and two distinct pair vectors sharing one label
    # pair to -1/2 mod 1, so the doubled generators have self intersection -4
    # and pair to -2
    assert form == lat.FiniteQuadraticForm.from_doubled_gram(
        [[-4 if i == j else -2 for j in range(6)] for i in range(6)])
    dictionary = tb.theta_model_dictionary()
    assert len(set(dictionary)) == 64
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
                assert f2geom.B_TABLE[vecs[i]][vecs[j]] == 0
        assert vecs[0] ^ vecs[1] ^ vecs[2] ^ vecs[3] == 0


def test_transposition_transvection_dictionary():
    assert tb.transposition_transvection_check()


def _reference_induced_model_map(sigma):
    """Reference: each model vector pulled back to its class representative
    with bit 7 clear, relabelled bit by bit, and pushed forward again, as the
    tableaux module computed the map before the linear tables."""
    dictionary = tb.theta_model_dictionary()
    inverse = {m: bits for bits, m in enumerate(dictionary)}
    table = []
    for vec in range(64):
        rep = inverse[vec] << 1
        rep |= bin(rep).count("1") % 2  # the representative of even weight
        permuted = sum(1 << sigma[i] for i in range(8) if (rep >> i) & 1)
        table.append(dictionary[tb._class_coords(permuted)])
    return tuple(table)


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(8)))
def test_induced_map_is_isometry(sigma):
    table = tb.induced_model_map(tuple(sigma))
    assert sorted(table) == list(range(64))
    for v in range(64):
        assert f2geom.q(table[v]) == f2geom.q(v)
    assert table == _reference_induced_model_map(sigma)


def test_class_coords_refuse_odd_weight_and_identify_theta():
    with pytest.raises(ValueError):
        tb._class_coords(0b1)
    for x in range(256):
        if bin(x).count("1") % 2 == 0:
            assert tb._class_coords(x) == tb._class_coords(x ^ 0xFF)


def _permute_config(config, sigma):
    """Move the point with label i to slot sigma(i)."""
    out = [None] * 8
    for i in range(8):
        out[sigma[i]] = config[i]
    return tuple(out)


def _mu_permutation_identity(t, sigma, config):
    """mu of the relabelled tableau at the moved c equals the sign times mu at c."""
    relabelled, sign = tb.apply_permutation(t, sigma)
    return mu(relabelled, _permute_config(config, sigma)) == sign * mu(t, config)


def _shuffle(rng, n):
    """Fisher-Yates shuffle of 0..n-1 drawn from a seeded SplitMix64."""
    arr = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        arr[i], arr[j] = arr[j], arr[i]
    return tuple(arr)


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(8)), st.integers(0, 104))
def test_mu_sign_identity(sigma, idx):
    config = tb.affine_config([2, 5, -3, 11, 17, -20, 31, 44])
    t = tb.enumerate_tableaux()[idx]
    assert _mu_permutation_identity(t, tuple(sigma), config)


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
    for sigma in tb.ADJACENT_TRANSPOSITIONS + (_shuffle(rng, 8),):
        matrix = tb.action_matrix(sigma)
        for c in configs:
            values = tb.mu_vector(c)
            image = [sum(m * v for m, v in zip(row, values)) for row in matrix]
            assert image == list(tb.mu_vector(_permute_config(c, sigma)))


EQUIVARIANT = {"homomorphism": True, "intertwines_subspaces": True, "sign_identity": True}


def test_equivariance():
    assert tb.equivariance_check() == EQUIVARIANT


def test_equivariance_on_seeded_pairs():
    """The sampled route as an oracle: on 20 seeded pairs the action matrices
    and the induced model maps compose, the sign identity holds at a sampled
    configuration and g_sigma intertwines the subspaces."""
    rng = SplitMix64(42)
    config = tb.sample_config(rng)
    tabs = tb.enumerate_tableaux()
    for _ in range(20):
        sigma, tau = _shuffle(rng, 8), _shuffle(rng, 8)
        composed = tuple(sigma[tau[i]] for i in range(8))
        assert linalg.matmul(tb.action_matrix(sigma), tb.action_matrix(tau)) \
            == tuple(map(tuple, tb.action_matrix(composed)))
        g_sigma, g_tau = tb.induced_model_map(sigma), tb.induced_model_map(tau)
        assert tb.induced_model_map(composed) == tuple(g_sigma[g_tau[v]] for v in range(64))
        for t in tabs[:12]:
            assert _mu_permutation_identity(t, sigma, config)
            moved, _ = tb.apply_permutation(t, sigma)
            image = {g_sigma[v] for v in f2geom.span(tb.tableau_to_subspace(t))}
            assert image == set(f2geom.span(tb.tableau_to_subspace(moved)))


def test_a_sign_flipped_generator_matrix_fails_homomorphism(monkeypatch):
    action_matrix = tb.action_matrix
    flipped = tb.ADJACENT_TRANSPOSITIONS[3]

    def patched(sigma):
        matrix = action_matrix(sigma)
        if tuple(sigma) == flipped:
            col = next(j for j, x in enumerate(matrix[5]) if x)
            matrix[5][col] = -matrix[5][col]
        return matrix

    monkeypatch.setattr(tb, "action_matrix", patched)
    assert not oracles.coxeter_relations(_generators())
    assert tb.equivariance_check() == dict(EQUIVARIANT, homomorphism=False)


def _generators():
    return [tb.action_matrix(s) for s in tb.ADJACENT_TRANSPOSITIONS]


def test_the_generator_matrices_meet_the_coxeter_relations():
    """The oracle that ``homomorphism`` implies: the seven matrices, multiplied
    out by ``linalg.matmul``, satisfy the A7 relations with exact orders."""
    assert oracles.coxeter_relations(_generators())


def test_negated_generators_meet_the_coxeter_relations_but_fail_homomorphism(monkeypatch):
    """-M_s satisfies every relation that M_s does, as each relation is a
    product of an even number of generators; only the identity that defines
    M_s tells them apart."""
    action_matrix = tb.action_matrix
    monkeypatch.setattr(tb, "action_matrix",
                        lambda sigma: [[-x for x in row] for row in action_matrix(sigma)])
    assert oracles.coxeter_relations(_generators())
    assert tb.equivariance_check() == dict(EQUIVARIANT, homomorphism=False)


def _wrong_generators(name):
    """Generator sets that break the Coxeter relations: two generators
    swapped, a generator replaced by the identity, and by a product of two."""
    m = _generators()
    if name == "swapped":
        m[1], m[4] = m[4], m[1]
    elif name == "identity":
        m[2] = [[int(i == j) for j in range(14)] for i in range(14)]
    else:
        m[0] = list(map(list, linalg.matmul(m[0], m[1])))
    return m


@pytest.mark.parametrize("name", ["swapped", "identity", "product"])
def test_generators_that_break_the_coxeter_relations_fail_homomorphism(name, monkeypatch):
    wrong = dict(zip(tb.ADJACENT_TRANSPOSITIONS, _wrong_generators(name)))
    assert not oracles.coxeter_relations(list(wrong.values()))
    monkeypatch.setattr(tb, "action_matrix", lambda sigma: wrong[tuple(sigma)])
    assert tb.equivariance_check() == dict(EQUIVARIANT, homomorphism=False)


def test_a_flipped_product_fails_the_sign_identity(monkeypatch, fresh_caches):
    _patched_product(monkeypatch, tb.enumerate_tableaux()[40], _negated)
    rep = tb.equivariance_check()
    assert not rep["sign_identity"] and not rep["homomorphism"]
    assert rep["intertwines_subspaces"]


def test_a_scrambled_dictionary_fails_the_intertwining(monkeypatch):
    scrambled = list(tb.theta_model_dictionary())
    scrambled[7], scrambled[11] = scrambled[11], scrambled[7]
    monkeypatch.setattr(tb, "theta_model_dictionary", lambda: tuple(scrambled))
    assert tb.equivariance_check() == dict(EQUIVARIANT, intertwines_subspaces=False)


def test_straightening():
    rep = tb.straightening_check()
    assert rep["ok"]
    assert oracles.sampled_straightening(4, 3)
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
    for c in c1:  # distinct affine points: stable
        assert all(a == 1 for a, _ in c)
        xs = [b for _, b in c]
        assert len(set(xs)) == 8
        assert all(-50 <= x <= 50 for x in xs)


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_sampler_stream_equals_the_three_call_generator(seed):
    # n = 2**63 + 1 rejects almost half the outputs, n = 1 none
    new, old = SplitMix64(seed), oracles.ThreeCallSplitMix64(seed)
    sizes = [101, 19, 2**63 + 1, 1]
    assert [new.below(sizes[k % 4]) for k in range(10_000)] \
        == [old.below(sizes[k % 4]) for k in range(10_000)]
    new, old = SplitMix64(seed), oracles.ThreeCallSplitMix64(seed)
    assert [new.distinct_integers(8, -50, 50) for _ in range(1_250)] \
        == [old.distinct_integers(8, -50, 50) for _ in range(1_250)]
    assert new.state == old.state


def test_relation_discovery_degree1():
    rel = tb.relation_discovery(1, 60, 42)
    assert rel["dimension"] == 0
    assert rel["stable"]


def test_relation_discovery_hands_each_caller_its_own_result():
    first = tb.relation_discovery(1, 60, 42)
    first["dimension"] = 99
    assert tb.relation_discovery(1, 60, 42)["dimension"] == 0


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
            total = sum(c * prod(v ** e for v, e in zip(values, m))
                        for c, m in zip(vec, rel["monomials"]))
            assert total == 0


def test_mu_rank():
    assert tb.mu_function_rank() == 14 == _dense_mu_function_rank(40, 42)


@pytest.mark.parametrize("config", [
    tb.parse_config([(QQ(1, 2), 3), (2, QQ(-5, 7)), (1, 0), (0, 1), (QQ(3, 4), QQ(2, 9)),
                     (-1, 4), (5, QQ(1, 3)), (QQ(-7, 2), -1)]),
    tb.affine_config([0, 0, 1, 2, 3, 4, 5, 6]),
], ids=["fractions", "repeated_point"])
def test_mu_vector_is_the_product_of_minors_per_tableau(config):
    for tabs in (tb.standard_tableaux(), tb.enumerate_tableaux()):
        want = tuple(mu(t, config) for t in tabs)
        got = tb.mu_vector(config, tabs)
        assert got == want and list(map(type, got)) == list(map(type, want))
    assert tb.mu_vector(config) == tuple(mu(t, config) for t in tb.standard_tableaux())
    assert any(tb.mu_vector(config, tb.enumerate_tableaux()))


def _whole_row_rank_mod_p(rows, ncols, upper=None):
    """Oracle: rank mod p with each pivot column read off the whole packed
    row and the pivot rows kept at full length, residues packed one shift at
    a time."""
    p = linalg.MERSENNE_31
    size = (63 + ncols.bit_length() + 7) // 8
    width, mask = 8 * size, (1 << 8 * size) - 1
    pivots = {}
    for row in rows:
        if len(pivots) >= (ncols if upper is None else upper):
            break
        packed = linalg.pack([x % p for x in row], width)
        for col in sorted(pivots):
            a = (packed >> width * col & mask) % p
            if a:
                packed += (p - a) * pivots[col]
        data = packed.to_bytes(size * ncols, "little")
        residues = [int.from_bytes(data[k:k + size], "little") % p
                    for k in range(0, len(data), size)]
        lead = next((j for j, x in enumerate(residues) if x), None)
        if lead is not None:
            inverse = pow(residues[lead], -1, p)
            pivots[lead] = linalg.pack([x * inverse % p for x in residues], width)
    return len(pivots)


def _dense_relation_discovery(degree, samples, seed):
    """Oracle: relation_discovery with every dense row of monomial values
    built, annihilation read off their product with the kernel, the rank of
    the first ``samples`` rows by ``_whole_row_rank_mod_p``, and the degree-1
    basis from the expanded system."""
    monomials = tb.degree_monomials(degree)
    n_mon = len(monomials)
    basis = oracles.polynomial_kernel(1) if degree == 1 else tb.quadric_closure()[0]
    supports = [([i for i, e in enumerate(m) for _ in range(e)] + [14])[:2]
                for m in monomials]
    rng = SplitMix64(seed)
    rows = []
    for _ in range(max(samples, 3 * n_mon)):
        config = tb.sample_config(rng)
        values = tuple(mu(t, config) for t in tb.standard_tableaux()) + (1,)
        rows.append([values[i] * values[j] for i, j in supports])
    kernel = tuple(zip(*basis))
    annihilated = not any(map(any, linalg.matmul(rows, kernel)))
    return {
        "degree": degree, "monomials": monomials, "monomial_count": n_mon,
        "samples_used": len(rows), "dimension": len(basis), "basis": basis,
        "stable": annihilated
        and _whole_row_rank_mod_p(rows[:samples], n_mon, n_mon - len(basis)) == n_mon - len(basis),
    }


def _dense_mu_function_rank(samples, seed):
    """Oracle: the bounds of mu_function_rank, the lower one from the
    expanded system, checked against the rank mod p of the 105 products at
    ``samples`` seeded configurations, all rows built first."""
    tabs = tb.enumerate_tableaux()
    upper = 14 if tb._straightening_identities() else 105
    lower = 14 - len(oracles.polynomial_kernel(1))
    rng = SplitMix64(seed)
    rows = [[mu(t, c) for t in tabs] for c in (tb.sample_config(rng) for _ in range(samples))]
    return upper if lower == upper == _whole_row_rank_mod_p(rows, 105, upper) else None


@pytest.mark.parametrize("seed", [1, 7, 42, 2**64 - 1])
def test_sampled_certificates_agree_with_the_dense_route(seed):
    for degree, samples in ((1, 75), (2, 300)):
        assert tb.relation_discovery(degree, samples, seed) \
            == _dense_relation_discovery(degree, samples, seed)
    assert tb.mu_function_rank() == _dense_mu_function_rank(40, seed) == 14
    assert tb.straightening_check()["expansions_match"] is oracles.sampled_straightening(5, seed) \
        is True


def test_sampled_certificates_agree_with_the_dense_route_when_unstable(monkeypatch,
                                                                        fresh_caches):
    # a repeated sample: rank 1, so both routes read every row and fail
    points = tb.sample_config(SplitMix64(1))
    monkeypatch.setattr(tb, "sample_config", lambda rng: points)
    for degree, samples in ((1, 75), (2, 300)):
        rel = tb.relation_discovery(degree, samples, 42)
        assert not rel["stable"] and rel == _dense_relation_discovery(degree, samples, 42)
    # the rank of the 105 products is proved, and draws no sample
    assert _dense_mu_function_rank(40, 42) is None
    assert tb.mu_function_rank() == 14


def test_sampled_ranks_stop_drawing_at_the_upper_bound(monkeypatch):
    drawn = []
    sample_config = tb.sample_config

    def counting_sample_config(rng):
        drawn.append(None)
        return sample_config(rng)

    monkeypatch.setattr(tb, "sample_config", counting_sample_config)
    assert tb.mu_function_rank() == 14 and tb.straightening_check()["ok"]
    assert drawn == []
    assert tb.relation_discovery(2, 300, 42)["samples_used"] == len(drawn) == 315


def test_quadric_kernel_stable_under_action():
    assert tb.quadric_kernel_s8_stable()


def test_quadric_closure_is_the_polynomial_kernel():
    # oracle: the 554 expanded rows eliminated, vector for vector, and the 35
    # rows of degree 1 against the leading-monomial system
    basis, certified = tb.quadric_closure()
    assert certified and len(basis) == 14
    assert basis == oracles.polynomial_kernel(2)
    assert {type(x) for v in basis for x in v} == {int}
    assert {x for v in basis for x in v} == {-1, 0, 1}
    assert tb.relation_discovery(2, 300, 42)["basis"] == basis
    assert tb.linear_relations() == oracles.polynomial_kernel(1) == ()


def _kernel_stable_by_contains():
    """Oracle: each generator image of each vector of polynomial_kernel(2)
    lies in its span, as the S8 claim was checked before it read the closure."""
    kernel = oracles.polynomial_kernel(2)
    ech = linalg.EchelonForm(105)
    ech.add_rows(kernel)
    return all(ech.contains(oracles.transform_quadric(v, tb.action_matrix(s)))
               for s in tb.ADJACENT_TRANSPOSITIONS for v in kernel)


def test_closure_flag_agrees_with_the_contains_loop():
    assert tb.quadric_kernel_s8_stable() is _kernel_stable_by_contains() is True
    # the closure property itself, read off the returned basis
    basis = tb.quadric_closure()[0]
    ech = linalg.EchelonForm(105)
    ech.add_rows(basis)
    assert all(ech.contains(oracles.transform_quadric(v, tb.action_matrix(s)))
               for s in tb.ADJACENT_TRANSPOSITIONS for v in basis)


def test_transform_quadric_is_the_pullback():
    # Q'(x) = Q(M x) at integer points, for a random form and matrix
    rng = SplitMix64(11)
    draw = lambda: rng.below(19) - 9
    position = tb.quadric_positions()
    coeffs = [draw() for _ in position]
    matrix = [[draw() * (draw() > 3) for _ in range(14)] for _ in range(14)]
    pulled = tb._pull_back(coeffs, tb._monomial_images(matrix))
    assert pulled == oracles.transform_quadric(coeffs, matrix)
    for _ in range(3):
        x = [draw() for _ in range(14)]
        y = [sum(m * v for m, v in zip(row, x)) for row in matrix]
        value = lambda form, z: sum(c * z[a] * z[b] for c, (a, b) in zip(form, position))
        assert value(pulled, x) == value(coeffs, y)


def test_quadric_positions_follow_the_monomials():
    position = tb.quadric_positions()
    assert len(position) == 105
    for (a, b), k in position.items():
        exps = [0] * 14
        exps[a] += 1
        exps[b] += 1
        assert a <= b and tb.degree_monomials(2)[k] == tuple(exps)


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


def test_sampled_products_are_python_ints():
    rng = SplitMix64(42)
    for _ in range(3):
        points = tb.sample_config(rng)
        values = tb.mu_vector(points)
        assert all(type(v) is int for v in values)
        assert list(values) == list(tb.mu_vector(tb.parse_config(points)))


def _evaluate(poly, xs):
    """A packed-exponent polynomial at the affine coordinates xs."""
    total = 0
    for key, coeff in poly.items():
        term = coeff
        for i, x in enumerate(xs):
            term *= x ** ((key >> 2 * i) & 3)
        total += term
    return total


def test_tableau_polynomial_evaluates_to_mu():
    rng = SplitMix64(9)
    points = [tb.sample_config(rng) for _ in range(3)]
    for t in tb.enumerate_tableaux():
        poly = oracles.tableau_polynomial(t)
        assert len(poly) == 16 and set(poly.values()) <= {-1, 1}
        for p in points:
            assert _evaluate(poly, [x for _, x in p]) == mu(t, p)


def test_polynomial_kernel_sizes():
    rows = oracles.polynomial_rows(2)
    assert len(rows) == 554 and len(set(rows)) == 554
    assert max(abs(x) for row in rows for x in row) == 16
    assert all(next(x for x in row if x) > 0 for row in rows)
    counts = [len(row) - row.count(0) for row in rows]
    assert counts == sorted(counts)
    kernel = oracles.polynomial_kernel(2)
    assert len(kernel) == 14
    assert {c for vec in kernel for c in vec} <= {-1, 0, 1}
    assert oracles.polynomial_kernel(1) == ()


def test_relation_discovery_certified_degrees_only():
    for degree in (0, 3, 4):
        with pytest.raises(ValueError):
            tb.relation_discovery(degree, 3000, 42)


@pytest.fixture
def fresh_caches():
    def clear():
        for cached in (oracles.polynomial_kernel, tb._straightening_identities,
                       tb.quadric_closure, tb.linear_relations, tb.degree_monomials,
                       tb._minor_slots):
            cached.cache_clear()
    clear()
    yield
    clear()


def test_relation_discovery_feeds_no_sample_row(monkeypatch, fresh_caches):
    fed = []
    add_row = linalg.EchelonForm.add_row

    def counting_add_row(self, row):
        fed.append(tuple(row))
        return add_row(self, row)

    monkeypatch.setattr(linalg.EchelonForm, "add_row", counting_add_row)
    rel = tb.relation_discovery(2, 300, 42)
    assert rel["samples_used"] == 315 and rel["stable"]
    # every row eliminated exactly is, with its columns reversed, the seed
    # binomial or a generator image of a row fed before it: the seed, and the
    # seven images of each of the 14 rows that enlarged the span
    monomials = tb.degree_monomials(2)
    matrices = [tb.action_matrix(s) for s in tb.ADJACENT_TRANSPOSITIONS]
    seed = [0] * 105
    seed[monomials.index((1, 0, 0, 0, 0, 0, 1) + (0,) * 7)] = 1
    seed[monomials.index((0, 1, 0, 0, 0, 1) + (0,) * 8)] = -1
    images = set()
    for k, row in enumerate(fed):
        row = list(row[::-1])
        assert row == seed if k == 0 else tuple(row) in images
        images.update(tuple(oracles.transform_quadric(row, m)) for m in matrices)
    assert len(fed) == 1 + 7 * 14


def test_polynomial_kernel_certificate_catches_a_wrong_kernel(monkeypatch, fresh_caches):
    integer_kernel = oracles.integer_kernel

    def padded_kernel(ech):
        bogus = [0] * (ech.ncols - 1) + [1]
        return integer_kernel(ech) + [bogus]

    monkeypatch.setattr(oracles, "integer_kernel", padded_kernel)
    with pytest.raises(ArithmeticError):
        oracles.polynomial_kernel(2)


def test_repeated_sample_is_not_stable(monkeypatch, fresh_caches):
    points = tb.sample_config(SplitMix64(1))
    monkeypatch.setattr(tb, "sample_config", lambda rng: points)
    rel = tb.relation_discovery(2, 300, 42)
    assert rel["dimension"] == 14
    assert not rel["stable"]
    assert not tb.relation_discovery(1, 60, 42)["stable"]
    assert tb.mu_function_rank() == 14  # proved, with no sample


def test_a_sign_flipped_generator_matrix_fails_the_s8_stability(monkeypatch, fresh_caches):
    action_matrix = tb.action_matrix
    flipped = tb.ADJACENT_TRANSPOSITIONS[2]

    def patched(sigma):
        matrix = action_matrix(sigma)
        if tuple(sigma) == flipped:
            matrix[5] = [-x for x in matrix[5]]
        return matrix

    monkeypatch.setattr(tb, "action_matrix", patched)
    # the wrong matrix fails the identity that defines it, so the closure is
    # not certified and builds nothing
    assert tb.quadric_closure() == ((), False)
    assert not tb.quadric_kernel_s8_stable()


def test_sign_flipped_product_is_caught(monkeypatch, fresh_caches):
    _patched_product(monkeypatch, tb.standard_tableaux()[5], _negated)
    rel = tb.relation_discovery(2, 300, 42)
    assert rel["dimension"] != 14 or not rel["stable"]
    # the straightening identities through the flipped product fail too
    assert not tb.straightening_check()["expansions_match"]
    assert tb.mu_function_rank() is None


def test_sampled_certificates_build_no_fraction(monkeypatch, fresh_caches):
    tb.quadric_closure()  # warm: quadric_kernel_s8_stable and relation_discovery read it
    built = []
    new = QQ.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(QQ, "__new__", counting_new)
    assert tb.straightening_check()["ok"] and not built
    assert all(tb.equivariance_check().values()) and not built
    assert tb.quadric_kernel_s8_stable() and not built
    assert tb.relation_discovery(2, 300, 42)["stable"]
    assert not built
    # the counter sees Fractions where they belong
    tb.parse_config([(1, x) for x in range(8)])
    assert built


@pytest.mark.parametrize("seed", [(((0, 6), 1), ((1, 4), -1)), (((0, 6), 1), ((1, 5), 1))],
                         ids=["moved_monomial", "flipped_sign"])
def test_a_perturbed_seed_binomial_fails_the_degree2_kernel(monkeypatch, fresh_caches, seed):
    monkeypatch.setattr(tb, "SEED_BINOMIAL", seed)
    reports = checks.run_suite("tableaux")
    assert {r.name for r in reports if r.status == "fail"} \
        == {"tableaux.degree2_kernel", "tableaux.quadrics_s8_stable"}
    assert tb.quadric_closure() == ((), False)
    assert not oracles.seed_expands_to_zero()


def test_the_seed_binomial_cancels_as_minors_and_as_dicts(fresh_caches):
    assert tb.quadric_closure()[1] is oracles.seed_expands_to_zero() is True


def test_verify_all_expands_no_degree2_row(monkeypatch, fresh_caches):
    """``verify all`` eliminates no expanded coefficient system of the
    standard products: the only echelon forms the tableaux module builds are
    the 14 x 14 system of the leading monomials and the closure of the seed
    binomial, the seed and the seven images of each of its 14 vectors."""
    forms = []
    init, add_row = linalg.EchelonForm.__init__, linalg.EchelonForm.add_row

    def recording_init(self, ncols):
        init(self, ncols)
        if sys._getframe(1).f_globals["__name__"] == tb.__name__:
            forms.append((self, []))

    def recording_add_row(self, row):
        for form, fed in forms:
            if form is self:
                fed.append(list(row))
        return add_row(self, row)

    monkeypatch.setattr(linalg.EchelonForm, "__init__", recording_init)
    monkeypatch.setattr(linalg.EchelonForm, "add_row", recording_add_row)
    assert checks.all_passed(checks.run_suite("all"))
    assert [(form.ncols, len(fed)) for form, fed in forms] == [(14, 14), (105, 1 + 7 * 14)]
    assert forms[0][1] == oracles.leading_relations()


def test_the_leading_coefficients_are_the_dict_coefficients():
    """The coefficient read off the pairs, for all 105 x 14 pairs (f, g),
    is the coefficient of f's dict at the largest key of g's."""
    for g in tb.standard_tableaux():
        lead = max(oracles.tableau_polynomial(g))
        for f in tb.enumerate_tableaux():
            assert tb._leading_coefficient(f, g) == oracles.tableau_polynomial(f).get(lead, 0)


def test_straighten_refuses_a_row_list_without_a_nesting_pair():
    # not standard (5 is no less than 5), yet no row ends after the next one
    with pytest.raises(ArithmeticError):
        tb.straighten(((1, 5), (2, 5), (3, 6), (4, 7)))


@pytest.mark.parametrize("term", [0, 1, 2])
def test_a_flipped_plucker_sign_fails_the_straightening(monkeypatch, term):
    terms = list(tb.PLUCKER_TERMS)
    first, second, coeff = terms[term]
    terms[term] = (first, second, -coeff)
    monkeypatch.setattr(tb, "PLUCKER_TERMS", tuple(terms))
    rep = tb.straightening_check()
    assert rep["expansions_match"] and not rep["ok"]
    assert not oracles.plucker_expands_to_zero()


def test_the_plucker_relation_vanishes_at_the_point_and_as_dicts():
    assert tb.straightening_check()["ok"] and oracles.plucker_expands_to_zero()


def test_every_swap_of_two_dictionary_entries_fails_without_raising(monkeypatch):
    """All 2,016 swaps: the subspace bijection and the transvection
    correspondence return values, and at least one of them fails; 36 swaps
    leave a pair class isotropic, which has no transvection."""
    base = tb.theta_model_dictionary()
    for i in range(64):
        for j in range(i + 1, 64):
            swapped = list(base)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            monkeypatch.setattr(tb, "theta_model_dictionary", lambda d=tuple(swapped): d)
            bijection = tb.subspace_bijection_check()
            assert not (bijection["injective"] and bijection["image_matches"]
                        and tb.transposition_transvection_check())


# ---------------------------------------------------------------------------
# the certificates at one integer point and on packed rows, against the
# routes they replaced (``oracles``)


def _patched_product(monkeypatch, t, change):
    """The product of t replaced by the polynomial change(dict of t) on both
    routes: in the oracles' dicts, and in ``mu_vector``, whose entry for t
    is then that polynomial at the affine point it is given."""
    polynomial, mu_vector = oracles.tableau_polynomial, tb.mu_vector
    changed = change(dict(polynomial(t)))
    monkeypatch.setattr(oracles, "tableau_polynomial",
                        lambda u: changed if u == t else polynomial(u))

    def patched(config, tabs=None):
        tabs = tb.standard_tableaux() if tabs is None else tabs
        assert all(a == 1 for a, _ in config)  # affine points only
        xs = [x for _, x in config]
        return tuple(_evaluate(changed, xs) if u == t else v
                     for u, v in zip(tabs, mu_vector(config, tabs)))
    monkeypatch.setattr(tb, "mu_vector", patched)


def _key(mask):
    """The packed key of the multilinear monomial of a bitmask of variables."""
    return sum(4 ** i for i in range(8) if mask >> i & 1)


def _negated(p):
    """The negated product: its ``mu_vector`` entry negated at every point."""
    return {k: -c for k, c in p.items()}


# changes of one product, made on both routes by ``_patched_product``.  The
# value route rests on each product being multilinear with coefficients +-1;
# each change here, inside that premise or not, moves the product's value at
# the Kronecker points, so the value route sees it
_POLYNOMIAL_MUTATIONS = {
    "flipped": _negated,
    "one_coefficient": lambda p: {**p, max(p): 2 * p[max(p)]},
    "moved_monomial": lambda p: {(k ^ 3 if k == max(p) else k): c for k, c in p.items()},
    "squared_variable": lambda p: {(2 * k if k == max(p) else k): c for k, c in p.items()},
    "huge_coefficient": lambda p: {**p, min(p): p[min(p)] + 2**40},
}


def test_the_kronecker_identities_hold_and_match_the_dict_oracles():
    assert tb._straightening_identities() is oracles.straightening_identities() is True
    assert tb.equivariance_check()["sign_identity"] is oracles.sign_identity() is True


@pytest.mark.parametrize("index", [0, 40, 104])
@pytest.mark.parametrize("mutation", sorted(_POLYNOMIAL_MUTATIONS))
def test_a_mutated_product_fails_both_identity_routes(monkeypatch, fresh_caches, mutation,
                                                      index):
    t = tb.enumerate_tableaux()[index]
    _patched_product(monkeypatch, t, _POLYNOMIAL_MUTATIONS[mutation])
    assert tb._straightening_identities() is oracles.straightening_identities() is False
    rep = tb.equivariance_check()
    assert rep["sign_identity"] is oracles.sign_identity() is False
    assert not rep["homomorphism"] and rep["intertwines_subspaces"]


def test_a_wrong_relabelling_sign_fails_both_sign_identity_routes(monkeypatch):
    apply_permutation = tb.apply_permutation
    t = tb.enumerate_tableaux()[17]

    def patched(u, sigma):
        moved, sign = apply_permutation(u, sigma)
        return (moved, -sign) if u == t and tuple(sigma) == tb.ADJACENT_TRANSPOSITIONS[4] \
            else (moved, sign)

    monkeypatch.setattr(tb, "apply_permutation", patched)
    assert tb.equivariance_check()["sign_identity"] is oracles.sign_identity() is False


def _straighten_with(monkeypatch, t, change):
    """straighten with the expansion of t replaced by change(list of its terms)."""
    expansions = {u: tb.straighten(u) for u in tb.enumerate_tableaux()}  # warm: no recursion
    expansions[t] = tuple(change(list(expansions[t])))
    monkeypatch.setattr(tb, "straighten", expansions.__getitem__)


@pytest.mark.parametrize("change", [
    lambda terms: terms[1:],
    lambda terms: [(std, -c) for std, c in terms],
    lambda terms: terms + [(tb.standard_tableaux()[3], 1)],
], ids=["dropped_term", "negated", "extra_term"])
def test_a_wrong_expansion_fails_both_straightening_routes(monkeypatch, fresh_caches, change):
    t = next(u for u in tb.enumerate_tableaux() if len(tb.straighten(u)) > 2)
    _straighten_with(monkeypatch, t, change)
    assert tb._straightening_identities() is oracles.straightening_identities() is False
    assert not oracles.sampled_straightening(5, 42)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 104), st.integers(0, 20), st.integers(1, 2**70), st.booleans())
def test_a_straightening_coefficient_raised_past_the_old_bound_fails(index, term, step, down):
    """The widest expansion has sum |c_s| = 10, so the slots were 5 bits
    wide; a coefficient raised by any amount, past that bound too, widens
    the slots with it, and the identity fails instead of aliasing."""
    t = tb.enumerate_tableaux()[index]
    terms = list(tb.straighten(t))
    std, c = terms[term % len(terms)]
    terms[term % len(terms)] = (std, c - step if down else c + step)
    with pytest.MonkeyPatch.context() as m:
        _straighten_with(m, t, lambda _: terms)
        tb._straightening_identities.cache_clear()
        try:
            assert tb._straightening_identities() is oracles.straightening_identities() is False
        finally:
            tb._straightening_identities.cache_clear()


_keys = st.integers(0, 255).map(_key)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.data())
def test_multilinear_polynomials_are_equal_exactly_when_their_values_are(width, data):
    """Coefficients of size below 2**(width - 1): a balanced base-2**width
    expansion, so the value at the Kronecker point fixes the polynomial."""
    bound = 2 ** (width - 1) - 1
    coefficients = st.integers(-bound, bound)
    f = data.draw(st.dictionaries(_keys, coefficients, max_size=12))
    edits = data.draw(st.dictionaries(_keys, coefficients, max_size=3))
    g = {**f, **edits}
    same = {k: c for k, c in f.items() if c} == {k: c for k, c in g.items() if c}
    xs = [x for _, x in tb._kronecker_point(width)]
    assert (_evaluate(f, xs) == _evaluate(g, xs)) is same
    # the value is the expansion: digit m is the coefficient at bitmask m
    value, digits = _evaluate(f, xs), {}
    assert value == oracles.kronecker_value(f, width)
    for m in range(256):
        digit = (value + 2 ** (width - 1)) % 2 ** width - 2 ** (width - 1)
        value = (value - digit) >> width
        if digit:
            digits[m] = digit
    assert value == 0
    assert digits == {oracles.MULTILINEAR[k]: c for k, c in f.items() if c}


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_keys, st.integers(-3, 3), max_size=8), st.integers(0, 7),
       st.integers(2, 3), st.integers(1, 6))
def test_a_key_with_an_exponent_of_two_or_more_is_refused(poly, slot, exponent, width):
    """x_i**2 shares no digit with a multilinear monomial: the oracle that
    reads a dict's value off its digits refuses its key (no value), never
    reads it as another monomial."""
    key = next(iter(poly), 0) | exponent << 2 * slot
    assert oracles.kronecker_value({**poly, key: 1}, width) is None
    assert oracles.kronecker_value({key: 0}, width) is None


def test_the_kronecker_width_covers_every_coefficient():
    tabs = tb.enumerate_tableaux()
    assert tb._kronecker_values(tabs)[0] == 2  # coefficients +-1
    assert tb._kronecker_values(tabs, 10)[0] == 5
    width, values = tb._kronecker_values(tabs, 2**40 + 1)
    assert 2 ** (width - 1) > 2**40 + 1 and len(values) == 105
    # the values are the products' dicts read off as digits
    for weight in (1, 10):
        width, values = tb._kronecker_values(tabs, weight)
        assert values == {t: oracles.kronecker_value(oracles.tableau_polynomial(t), width)
                          for t in tabs}


def test_the_closure_basis_annihilates_the_seeded_samples():
    """The sampled annihilation that ``relation_discovery`` no longer runs,
    kept as an oracle: every relation of the closure, as its terms
    c x_i x_j, vanishes at all 315 seeded samples, and each relation with
    one coefficient changed is refuted there."""
    supports = list(tb.quadric_positions())
    relations = [[(i, j, c) for (i, j), c in zip(supports, vec) if c]
                 for vec in tb.quadric_closure()[0]]
    rng = SplitMix64(42)
    samples = [tb.mu_vector(tb.sample_config(rng)) for _ in range(315)]
    assert len(relations) == 14 and oracles.annihilates(relations, samples)
    for r, terms in enumerate(relations):
        for k, (i, j, c) in enumerate(terms):
            wrong = terms[:k] + [(i, j, c + 1)] + terms[k + 1:]
            assert not oracles.annihilates([wrong], samples), (r, k)


def test_monomial_images_pull_back_as_the_per_call_oracle():
    for s in tb.ADJACENT_TRANSPOSITIONS:
        matrix = tb.action_matrix(s)
        images = tb._monomial_images(matrix)
        for k in range(105):
            unit = [int(i == k) for i in range(105)]
            assert tb._pull_back(unit, images) == oracles.transform_quadric(unit, matrix)
        for vec in tb.quadric_closure()[0]:
            assert tb._pull_back(vec, images) == oracles.transform_quadric(vec, matrix)
