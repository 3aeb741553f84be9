import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

import pytest

from octet import checks, f2geom, linalg, weil
import oracles

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN_REPORT = Path(__file__).parent / "golden" / "verify_all_seed42.jsonl"


def test_traces():
    tr = weil.traces()
    assert tr == {"E": 64, "T": 8, "S": 8, "ST": 1}


def _fraction_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _eye(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def test_the_plane_route_and_the_product_oracle_agree_on_the_real_tables(fresh_weil_caches):
    h, t = weil.b_signs(), weil.q_signs()
    assert tuple(weil.sl2_relations().values()) == oracles.sl2_relations_by_products(h, t) \
        == (True, True)
    # the tables are Kronecker cubes of their block on the first plane, read
    # entry by entry at the plane coordinates of both vectors
    planes = [(x & 3, x >> 2 & 3, x >> 4) for x in f2geom.SPACE]
    assert all(h[x][y] == prod(h[a][b] for a, b in zip(planes[x], planes[y]))
               and t[x] == prod(t[a] for a in planes[x])
               for x in f2geom.SPACE for y in f2geom.SPACE)


@pytest.mark.parametrize("patch, verdicts", [
    (lambda h, t: h[1].__setitem__(2, -h[1][2]), (False, False)),
    (lambda h, t: t.__setitem__(5, -t[5]), (True, False)),
], ids=["flipped_h_entry", "flipped_t_sign"])
def test_the_plane_route_and_the_product_oracle_agree_on_the_broken_tables(
        monkeypatch, fresh_weil_caches, patch, verdicts):
    # the two patches of test_a_broken_weil_table_fails_its_lines
    h, t = [list(row) for row in weil.b_signs()], list(weil.q_signs())
    patch(h, t)
    monkeypatch.setattr(weil, "b_signs", lambda: tuple(map(tuple, h)))
    monkeypatch.setattr(weil, "q_signs", lambda: tuple(t))
    assert tuple(weil.sl2_relations().values()) == oracles.sl2_relations_by_products(h, t) \
        == verdicts


def test_a_relabelling_that_ignores_the_planes_fails_only_the_plane_route(
        monkeypatch, fresh_weil_caches):
    # conjugating both tables by a permutation of the 64 vectors keeps the
    # products, but the relabelled tables no longer factor over the planes
    perm = list(f2geom.SPACE)
    random.Random(5).shuffle(perm)
    h = tuple(tuple(weil.b_signs()[perm[i]][perm[j]] for j in f2geom.SPACE) for i in f2geom.SPACE)
    t = tuple(weil.q_signs()[perm[i]] for i in f2geom.SPACE)
    assert oracles.sl2_relations_by_products(h, t) == (True, True)
    monkeypatch.setattr(weil, "b_signs", lambda: h)
    monkeypatch.setattr(weil, "q_signs", lambda: t)
    assert dict(weil.sl2_relations()) == {"s_squared": False, "st_cubed": False}


def test_generator_relations():
    # rho_S = H/8 and rho_T = diag(t) as Fraction matrices, multiplied plainly
    h, t = weil.b_signs(), weil.q_signs()
    s = [[Fraction(x, 8) for x in row] for row in h]
    tm = [[Fraction(x * (i == j)) for j in range(64)] for i, x in enumerate(t)]
    eye = _eye(64)
    assert _fraction_product(s, s) == eye
    st = _fraction_product(s, tm)
    assert _fraction_product(_fraction_product(st, st), st) == eye
    assert _fraction_product(tm, tm) == eye
    assert weil.sl2_relations() == {"s_squared": True, "st_cubed": True}


def test_matrix_entry_shapes():
    t = weil.q_signs()
    assert len(t) == 64 and sorted(set(t)) == [-1, 1]
    assert t == tuple((-1) ** f2geom.q(a) for a in f2geom.SPACE)
    h = weil.b_signs()
    assert len(h) == 64 and all(len(row) == 64 for row in h)
    assert {x for row in h for x in row} == {-1, 1}
    assert h == tuple(zip(*h))  # symmetric
    assert h[0] == (1,) * 64


def test_character_decomposition():
    m = weil.character_decomposition()
    assert m == (15, 7, 21)
    assert m[0] + m[1] + 2 * m[2] == 64


def test_apply_matches_fraction_loop():
    # the sparse image H @ v of the integer row of v, against H/8, diag(t)
    # and (H/8) diag(t) applied entry by entry in Fractions
    rng = random.Random(3)
    h, t = weil.b_signs(), weil.q_signs()
    vectors = [list(v) for v in weil.invariant_subspace()[:3]]
    vectors.append([Fraction(rng.randrange(-50, 50), rng.randrange(1, 9)) for _ in range(64)])
    for vec in vectors:
        den = lcm(*(Fraction(x).denominator for x in vec))
        ints = linalg.integer_row(vec)
        assert ints == [x * den for x in vec]
        s_vec = [sum(Fraction(c, 8) * x for c, x in zip(row, vec)) for row in h]
        t_vec = [s * x for s, x in zip(t, vec)]
        st_vec = [sum(Fraction(c, 8) * x for c, x in zip(row, t_vec)) for row in h]
        assert [Fraction(y, 8 * den) for y in oracles.image(ints)] == s_vec
        assert [Fraction(y, 8 * den) for y in oracles.image([s * x for s, x in zip(t, ints)])] \
            == st_vec
        assert weil.is_invariant(vec) == (s_vec == t_vec == vec)


def test_apply_never_wraps():
    # int64 would wrap the exact entry 2**61 * 8 of H @ v to 0
    assert oracles.image([2**58] * 64)[0] == 2**61 * 8
    assert weil.is_invariant([2**58] * 64) is weil.is_invariant([1] * 64) is False
    assert oracles.image([2**50] * 64)[0] == 2**53 * 8


def test_products_never_wrap():
    assert weil.sl2_relations() == {"s_squared": True, "st_cubed": True}
    assert weil.traces() == {"E": 64, "T": 8, "S": 8, "ST": 1}


def test_invariant_subspace_dimension_and_sums():
    basis = weil.invariant_subspace()
    assert len(basis) == 15
    # integer rows: the primitive multiples of the canonical basis
    assert {type(x) for v in basis for x in v} == {int}
    assert {x for v in basis for x in v} == {-3, -2, -1, 0, 1, 2}
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
            assert oracles.permute_coordinates(perm, vec) == tuple(-x for x in vec)


def test_antivector_unique_for_all_105():
    for sub in f2geom.enumerate_singular_subspaces():
        dim, spanning = weil.minus_one_eigenspace(sub)
        assert dim == 1
        vec = weil.singular_vector(sub)
        assert spanning in (vec, tuple(-x for x in vec))


def test_minus_one_eigenspace_matches_the_dict_oracle(monkeypatch):
    subs = f2geom.enumerate_singular_subspaces()
    assert len(subs) == 105
    for sub in subs:
        assert weil.minus_one_eigenspace(sub) == oracles.minus_one_eigenspace(sub)
    # two transvections alone: an eigenspace of more than one dimension
    aniso = tuple(a for a in f2geom.SPACE if f2geom.q(a))[:2]
    monkeypatch.setattr(f2geom, "singular_members", lambda s: (aniso, ()))
    assert weil.minus_one_eigenspace(subs[0]) == oracles.minus_one_eigenspace(subs[0])
    assert weil.minus_one_eigenspace(subs[0])[0] > 1


def _invariance_inputs():
    """The 30 isotropic sums, the 64 unit vectors and the 105 signed vectors."""
    sums = [weil.isotropic_sum_vector(i) for i in f2geom.enumerate_isotropic_subspaces(3)]
    units = [[int(x == y) for y in f2geom.SPACE] for x in f2geom.SPACE]
    signed = [weil.singular_vector(s) for s in f2geom.enumerate_singular_subspaces()]
    assert (len(sums), len(units), len(signed)) == (30, 64, 105)
    return sums + units + signed


def test_is_invariant_matches_the_unpacked_oracle():
    vectors = _invariance_inputs()
    verdicts = [weil.is_invariant(v) for v in vectors]
    assert verdicts == [oracles.is_invariant(v) for v in vectors]
    assert verdicts == [True] * 30 + [False] * 64 + [True] * 105


@pytest.mark.parametrize("row, col", [(1, 0), (0, 0), (17, 40)])
def test_is_invariant_reads_a_flipped_h_table(monkeypatch, row, col):
    # the packed rows are repacked for the new table object at every call
    vectors = _invariance_inputs()
    weil.is_invariant(vectors[0])  # packs the intact table
    h = [list(r) for r in weil.b_signs()]
    h[row][col] *= -1
    monkeypatch.setattr(weil, "b_signs", lambda: tuple(map(tuple, h)))
    verdicts = [weil.is_invariant(v) for v in vectors]
    assert verdicts == [oracles.is_invariant(v) for v in vectors]
    assert verdicts != [True] * 30 + [False] * 64 + [True] * 105


def _fixed_space_rows():
    """Integer rows cutting out the joint fixed space of rho_T and rho_S:
    those of rho_T - I, then those of H - 8I."""
    return [[(x - 1) * (i == j) for j in f2geom.SPACE] for i, x in enumerate(weil.q_signs())] \
        + [[x - 8 * (i == j) for j, x in enumerate(row)] for i, row in enumerate(weil.b_signs())]


def test_invariant_basis_is_the_nullspace_of_the_fixed_space_rows():
    # oracle: the 128 x 64 system eliminated, as the weil module solved it
    # before it built the space from the isotropic sums
    ech = linalg.EchelonForm(64)
    ech.add_rows(_fixed_space_rows())
    assert ech.rank == 64 - 15
    assert weil.invariant_subspace() == tuple(map(tuple, ech.nullspace()))


@pytest.fixture
def fresh_weil_caches():
    def clear():
        for cached in (weil.sl2_relations, weil.invariant_subspace, weil.space_w_rank,
                       f2geom.enumerate_isotropic_subspaces, f2geom.singular_members):
            cached.cache_clear()
    clear()
    yield
    clear()


@pytest.mark.parametrize("row, col, sums_rank", [(1, 0, 14), (3, 0, 15), (3, 3, 15)],
                         ids=["sums_rank_drops", "relations_fail", "count_not_integral"])
def test_a_flipped_h_entry_fails_the_invariant_count(monkeypatch, fresh_weil_caches,
                                                     row, col, sums_rank):
    h = [list(r) for r in weil.b_signs()]
    h[row][col] *= -1
    monkeypatch.setattr(weil, "b_signs", lambda: tuple(map(tuple, h)))
    passing = [v for v in map(weil.isotropic_sum_vector, f2geom.enumerate_isotropic_subspaces(3))
               if weil.is_invariant(v)]
    # a full rank of the sums alone would not catch the middle flip: the
    # count is the upper bound only for a representation
    assert linalg.rank(passing, 64) == sums_rank
    status = {r.name: r.status for r in checks.run_suite("weil")}
    assert status["weil.invariant_dimension"] == "fail"
    assert weil.invariant_subspace() == ()


@pytest.mark.parametrize("row, col", [(0, 0), (1, 0), (5, 17), (63, 62), (40, 40)])
def test_a_flipped_h_entry_fails_the_sl2_relations(monkeypatch, fresh_weil_caches, row, col):
    h = [list(r) for r in weil.b_signs()]
    h[row][col] *= -1
    monkeypatch.setattr(weil, "b_signs", lambda: tuple(map(tuple, h)))
    relations = weil.sl2_relations()
    assert not relations["s_squared"]
    # the unpacked products agree with the packed comparison
    st = [[x * s for x, s in zip(r, weil.q_signs())] for r in h]
    cubed = linalg.matmul(linalg.matmul(st, st), st)
    assert relations["st_cubed"] == (cubed == tuple(tuple(512 * (i == j) for j in range(64))
                                                    for i in range(64)))
    assert not relations["st_cubed"]


@pytest.mark.parametrize("index, entry", [(0, 0), (57, 3), (104, 7)])
def test_a_flipped_sign_in_one_signed_vector_fails_its_lines(monkeypatch, fresh_weil_caches,
                                                             index, entry):
    """Negative control for the sparse paths: one nonzero entry of one f_V
    negated.  The eigenspace no longer is its line, and the transvections
    no longer negate it, read at its 8 nonzero entries."""
    target = f2geom.enumerate_singular_subspaces()[index]
    vec = list(weil.singular_vector(target))
    x = [y for y in f2geom.SPACE if vec[y]][entry]
    vec[x] *= -1
    intact = weil.singular_vector
    monkeypatch.setattr(weil, "singular_vector",
                        lambda s: tuple(vec) if s == target else intact(s))
    assert not weil.antivectors_unique()
    assert not weil.transvections_negate()
    status = {r.name: r.status for r in checks.run_suite("weil")}
    assert status["weil.antivector_unique"] == status["weil.transvections_negate"] == "fail"


def _fixed_line_dimension_by_elimination():
    """Oracle: the 128 rows of the fixed space of rho_T and rho_S and the 61
    type-constancy rows v_a - v_x, eliminated together over 64 columns, as
    the weil module computed the dimension before it read the cached basis."""
    ech = linalg.EchelonForm(64)
    ech.add_rows(_fixed_space_rows())
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
        lhs = oracles.permute_coordinates(perm, weil.singular_vector(sub))
        rhs = weil.singular_vector(moved)
        assert lhs in (rhs, tuple(-x for x in rhs))


def test_permutation_action_commutes_with_matrices():
    h, t = weil.b_signs(), weil.q_signs()
    for alpha in (f2geom.ALPHA1, f2geom.ALPHA1 ^ f2geom.E2):
        perm = f2geom.transvection(alpha)
        assert [[h[perm[i]][perm[j]] for j in range(64)] for i in range(64)] == list(map(list, h))
        assert [t[perm[i]] for i in range(64)] == list(t)
    assert weil.commutes_with_transvections()


_BROKEN_RUN = """
from octet import checks, weil
%s
print(checks.reports_to_jsonl(checks.run_suite("all")), end="")
"""


@pytest.mark.parametrize("patch, relations_failing", [
    ("h = [list(row) for row in weil.b_signs()]; h[1][2] *= -1\n"
     "weil.b_signs = lambda: tuple(map(tuple, h))", {"weil.s_squared", "weil.st_cubed"}),
    ("t = list(weil.q_signs()); t[5] *= -1\n"
     "weil.q_signs = lambda: tuple(t)", {"weil.st_cubed"}),
], ids=["flipped_h_entry", "flipped_t_sign"])
def test_a_broken_weil_table_fails_its_lines(patch, relations_failing):
    # a fresh interpreter, so that no table or basis cached from the broken
    # one is seen by another test
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _BROKEN_RUN % patch],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    got, want = proc.stdout.splitlines(), GOLDEN_REPORT.read_text().splitlines()
    assert [json.loads(line)["name"] for line in got] == [json.loads(line)["name"] for line in want]
    status = {doc["name"]: doc["status"] for doc in map(json.loads, got)}
    assert {name for name in ("weil.s_squared", "weil.st_cubed")
            if status[name] == "fail"} == relations_failing
    assert [line for line in got if line.startswith('{"name":"f2.')] \
        == [line for line in want if line.startswith('{"name":"f2.')]
    assert sum(line.startswith('{"name":"f2.') for line in want) == 13
