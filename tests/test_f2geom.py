from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octet import f2geom
from octet.f2geom import VectorType

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
    assert f2geom.b(x, y) == f2geom.b(y, x)
    assert f2geom.b(x, x) == 0
    assert f2geom.q(x ^ y) == (f2geom.q(x) + f2geom.q(y) + f2geom.b(x, y)) % 2


@given(vectors, vectors, vectors)
def test_bilinearity(x, y, z):
    assert f2geom.b(x ^ y, z) == (f2geom.b(x, z) + f2geom.b(y, z)) % 2


def test_nondegenerate():
    for x in range(1, 64):
        assert any(f2geom.b(x, y) for y in range(64))


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


def test_transvection_examples():
    alpha = f2geom.ALPHA1
    t = f2geom.transvection(alpha)
    assert t[alpha] == alpha
    assert t[f2geom.E1] == f2geom.F1  # e1 + alpha1 = f1
    for x in f2geom.SPACE:
        if f2geom.b(x, alpha) == 0:
            assert t[x] == x


@given(st.sampled_from([a for a in range(64) if f2geom.q(a) == 1]), vectors)
def test_transvection_involution_preserves_form(alpha, x):
    t = f2geom.transvection(alpha)
    assert t[t[x]] == x
    assert f2geom.q(t[x]) == f2geom.q(x)


def test_group_order_and_orbits():
    group = f2geom.group_elements()
    assert len(group) == 40320
    assert len(set(group)) == 40320
    identity = tuple(range(64))
    assert identity in group
    gens = f2geom.all_transvections()
    assert len(gens) == 28
    assert all(f2geom.compose(g, g) == identity for g in gens)
    orbit_sizes = sorted(len(o) for o in f2geom.orbits())
    assert orbit_sizes == [1, 28, 35]


def test_group_closed_under_generators():
    group = set(f2geom.group_elements())
    gen = f2geom.all_transvections()[0]
    sample = list(group)[:200]
    for g in sample:
        assert f2geom.compose(gen, g) in group


def test_subspace_counts():
    assert len(f2geom.enumerate_isotropic_subspaces(1)) == 35
    assert len(f2geom.enumerate_isotropic_subspaces(2)) == 105
    assert len(f2geom.enumerate_isotropic_subspaces(3)) == 30
    assert len(f2geom.enumerate_singular_subspaces()) == 105
    assert len(f2geom.all_subspaces(3)) == 1395


def test_isotropic_subspaces_are_isotropic():
    for sub in f2geom.enumerate_isotropic_subspaces(3):
        assert all(f2geom.q(v) == 0 for v in f2geom.span(sub))


def test_singular_membership_split():
    expected = f2geom.echelon_basis([f2geom.ALPHA1, f2geom.ALPHA2, f2geom.ALPHA3])
    assert expected in f2geom.enumerate_singular_subspaces()
    for sub in f2geom.enumerate_singular_subspaces():
        aniso, iso = f2geom.singular_members(sub)
        assert len(aniso) == 4 and len(iso) == 4
        assert all(f2geom.b(u, v) == 0
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


def test_enumeration_deterministic():
    first = f2geom.enumerate_singular_subspaces()
    again = tuple(s for s in f2geom.all_subspaces(3) if f2geom.is_singular(s))
    assert first == again


@given(st.permutations(range(6)))
def test_model_isomorphism_roundtrip(perm):
    # scramble the model by a coordinate permutation and a basis change
    scramble = [0] * 6
    for i, p in enumerate(perm):
        scramble[i] = 1 << p
    table = [0] * 64
    for v in range(64):
        img = 0
        for i in range(6):
            if (v >> i) & 1:
                img ^= scramble[i]
        table[v] = f2geom.q(img)
    images = f2geom.find_model_isomorphism(table)
    for v in range(64):
        img = 0
        for i in range(6):
            if (v >> i) & 1:
                img ^= images[i]
        assert f2geom.q(img) == table[v]


def test_model_isomorphism_rejects_nonsplit():
    # q = 1 except at 0 on a 2-dim piece makes the census wrong
    bad = [1] * 64
    bad[0] = 0
    with pytest.raises(ValueError):
        f2geom.find_model_isomorphism(bad)


def test_group_elements_hold_python_ints():
    assert type(f2geom.group_elements()[0][0]) is int


def test_group_preserves_form_detects_a_broken_element(monkeypatch):
    assert f2geom.group_preserves_form()
    iso, aniso = f2geom.E1, f2geom.ALPHA1
    assert f2geom.q(iso) == 0 and f2geom.q(aniso) == 1
    broken = list(range(64))
    broken[iso], broken[aniso] = aniso, iso
    group = list(f2geom.group_elements())
    group[123] = tuple(broken)
    monkeypatch.setattr(f2geom, "group_elements", lambda: tuple(group))
    assert not f2geom.group_preserves_form()
