"""Davis-complex balls: cosets, realizations, walls and singular sets."""
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coxcert.coxeter import INF, CoxeterSystem, racg_from_flag
from coxcert.davis import (
    CellIndex,
    DavisBall,
    SphericalCoset,
    davis_ball,
    hash_union_sharp,
    singular_subcomplex,
)
from coxcert.homology import chain_homology, homology
from coxcert.simplicial import MatrixSizeError, faces_closure, square_report
from coxcert.subdivide import barycentric_subdivision

from helpers import (
    ReferenceBall,
    cycle_complex,
    full_triangle,
    named_simplices,
    projective_plane,
    random_flag_complex,
    reference_coset_counts,
    reference_extract,
    reference_fixed_cosets,
    reference_homology,
    reference_realization,
    reference_sharp,
    reference_singular,
    reference_supersets,
    signed_columns,
    two_points,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from inputs import davis_expectations  # noqa: E402  (counts from explicit elements, r <= 2)

DUMP_CAP = 2000000  # the `davis` command's default --max-cells


def edge_nerve_system():
    """W = (Z/2)^2, nerve a single edge."""
    return racg_from_flag(faces_closure([("a", "b")]))


def dihedral_system():
    return racg_from_flag(two_points())


def triangle_nerve_system():
    """W = (Z/2)^3, nerve a full triangle."""
    return racg_from_flag(full_triangle())


def test_klein_four_ball_counts_and_realization():
    b = davis_ball(edge_nerve_system(), 2)
    assert len(b.cosets) == 9
    kinds = sorted(len(c.gens) for c in b.cosets)
    assert kinds == [0, 0, 0, 0, 1, 1, 1, 1, 2]
    real = reference_realization(b)
    counts = real.counts()
    assert counts == [9, 16, 8]  # barycentric subdivision of a square
    assert square_report(real).is_flag
    assert real.dim() == b.realization_dim() == 2


def test_dihedral_ball_is_a_path():
    b = davis_ball(dihedral_system(), 2)
    chambers = [c for c in b.cosets if not c.gens]
    assert sorted(c.rep for c in chambers) == [(), (0,), (0, 1), (1,), (1, 0)]
    real = reference_realization(b)
    assert real.dim() == 1
    h = homology(real, reduced=True)
    assert h.is_trivial()  # a segment of the line
    deg = [0] * len(real.vertices)
    for s in real.simplices:
        if len(s) == 2:
            deg[s[0]] += 1
            deg[s[1]] += 1
    assert deg.count(1) == 2  # two loose ends


def test_ball_monotone_in_radius():
    sys = racg_from_flag(cycle_complex(4))
    small = {(c.rep, c.gens) for c in davis_ball(sys, 1).cosets}
    large = {(c.rep, c.gens) for c in davis_ball(sys, 2).cosets}
    assert small <= large


def test_leq_matches_invariant():
    b = davis_ball(edge_nerve_system(), 2)
    for a in b.cosets:
        for c in b.cosets:
            if b.leq(a, c):
                assert set(a.gens) <= set(c.gens)
    # the full-group coset is above everything
    top = [c for c in b.cosets if len(c.gens) == 2][0]
    assert all(b.leq(c, top) for c in b.cosets)


def test_sharp_union_klein_four_cross():
    b = davis_ball(edge_nerve_system(), 2)
    sharp = hash_union_sharp(b)
    assert len(sharp.vertices) == 5
    assert len(sharp.k_simplices(1)) == 4
    assert homology(sharp, reduced=True).is_trivial()
    sing = singular_subcomplex(b)
    assert sharp.simplices <= sing.simplices


def test_sharp_union_dihedral_isolated_walls():
    b = davis_ball(dihedral_system(), 2)
    sharp = hash_union_sharp(b)
    assert sharp.dim() == 0
    assert sharp.simplices <= singular_subcomplex(b).simplices


def test_singular_dims_match_nerve_dims():
    cases = [
        (dihedral_system(), 0),
        (edge_nerve_system(), 1),
        (triangle_nerve_system(), 2),
        (racg_from_flag(cycle_complex(4)), 1),
    ]
    for sys, nerve_dim in cases:
        b = davis_ball(sys, 1)
        sing = singular_subcomplex(b)
        assert sing.dim() == nerve_dim
        assert b.singular_dim() == nerve_dim
        assert b.realization_dim() == nerve_dim + 1
        assert reference_realization(b).dim() == nerve_dim + 1


def test_finite_group_singular_acyclic():
    for sys, full_radius in ((edge_nerve_system(), 2), (triangle_nerve_system(), 3)):
        b = davis_ball(sys, full_radius)
        sing = singular_subcomplex(b)
        assert homology(sing, reduced=True).is_trivial()


def test_triangle_nerve_full_ball_size():
    # (Z/2)^3: sum over subsets T of |W|/|W_T| = 8 + 12 + 6 + 1 = 27
    b = davis_ball(triangle_nerve_system(), 3)
    assert len(b.cosets) == 27


def test_materialization_cap_counts_cosets_then_chains(monkeypatch):
    """The index checks its exact cells before it builds any."""
    b = davis_ball(edge_nerve_system(), 2)  # singular set: 5 cosets, 9 chains
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "9")
    assert sum(singular_subcomplex(b).counts()) == 9
    for cap in (4, 8):
        with pytest.raises(MatrixSizeError, match=f"^9 cells exceed the cap {cap}$"):
            CellIndex(b, sharp=False).cells(cap)


def test_realization_is_flag():
    for sys in (edge_nerve_system(), racg_from_flag(cycle_complex(4))):
        real = reference_realization(davis_ball(sys, 1))
        assert square_report(real).is_flag


def test_ball_json_dump():
    b = davis_ball(dihedral_system(), 1)
    data = b.to_json(DUMP_CAP)
    assert data["radius"] == 1
    assert any(c["T"] for c in data["cosets"])
    assert all(isinstance(pair, list) and len(pair) == 2 for pair in data["order"])


def test_ball_json_dump_lists_no_cosets_tuple():
    """The dump numbers the cosets by the up-neighbour walk, not by `cosets`."""
    b = davis_ball(racg_from_flag(cycle_complex(5)), 2)
    b.to_json(DUMP_CAP)
    assert "cosets" not in vars(b)


@pytest.mark.parametrize("radius", [0, 1])
@pytest.mark.parametrize(
    "nerve",
    [lambda: faces_closure([]), lambda: faces_closure([("a",)])],
    ids=["empty", "one-vertex"],
)
def test_small_ball_dump_matches_oracle(nerve, radius):
    """Nerves the random oracle test never draws: with no generator only the
    empty type is walked, with one the walk has a single superset."""
    sys = racg_from_flag(nerve())
    assert davis_ball(sys, radius).to_json(DUMP_CAP) == ReferenceBall(sys, radius).to_json()


def test_cosets_are_frozen_dict_keys():
    b = davis_ball(edge_nerve_system(), 1)
    ids = {c: b.coset_id(c) for c in b.cosets}
    assert len(set(ids.values())) == len(ids) == len(b.cosets)
    for c in b.cosets:
        assert ids[SphericalCoset(tuple(list(c.rep)), tuple(list(c.gens)))] == b.coset_id(c)
    with pytest.raises(AttributeError):
        b.cosets[0].rep = (0,)


def _element_set(sys, words):
    from coxcert.coxeter import reduce as nf

    return {nf(sys, w) for w in words}


def test_fixed_membership_agrees_with_orbit_oracle():
    """g fixes w*W_T iff the explicit element sets g.(wW_T) and wW_T agree."""
    from itertools import product

    from coxcert.coxeter import reduce as nf

    for l, radius in ((faces_closure([("a", "b")]), 2), (cycle_complex(4), 2)):
        sys = racg_from_flag(l)
        b = davis_ball(sys, radius)
        for g in ((0,), (1,), (0, 1)):
            g_nf = nf(sys, g)
            if not g_nf:
                continue
            fixed = reference_fixed_cosets(b, g_nf)
            if len(g_nf) == 1:
                assert fixed == {c for c in b.cosets if g_nf[0] in set(c.gens) & b.walls(c.rep)}
            for c in b.cosets:
                # enumerate the coset elements through words over T
                t = c.gens
                words_over_t = [
                    tuple(w) for k in range(0, 2 * len(t) + 1) for w in product(t, repeat=k)
                ]
                coset_elements = _element_set(sys, [c.rep + w for w in words_over_t])
                translated = _element_set(sys, [g_nf + c.rep + w for w in words_over_t])
                assert (coset_elements == translated) == (c in fixed), (c, g)


ORACLE_MAX_COSETS = 300  # keeps the all-pairs reference dump fast


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0))
def test_fast_coset_paths_match_word_problem_oracle(seed):
    """Descent-set enumeration, normalization and closed-form walls agree
    with the general word problem on random flag nerves."""
    rng = random.Random(seed)
    l = random_flag_complex(rng, rng.randint(1, 7), rng.choice((0.2, 0.5, 0.8)))
    sys = racg_from_flag(l)
    radius = rng.randint(0, 3)
    fast = davis_ball(sys, radius)
    while len(fast.cosets) > ORACLE_MAX_COSETS:
        radius -= 1
        fast = davis_ball(sys, radius)
    ref = ReferenceBall(sys, radius)
    assert fast.cosets == ref.cosets
    assert fast.to_json(DUMP_CAP) == ref.to_json()
    real = reference_realization(fast)
    assert real.simplices == reference_realization(ref).simplices
    assert fast.realization_dim() == real.dim()
    sing, ref_sing = singular_subcomplex(fast), reference_singular(ref)
    assert (sing.vertices, sing.simplices) == (ref_sing.vertices, ref_sing.simplices)
    assert fast.singular_dim() == sing.dim()
    sharp, ref_sharp = hash_union_sharp(fast), reference_sharp(ref)
    assert (sharp.vertices, sharp.simplices) == (ref_sharp.vertices, ref_sharp.simplices)
    assert sharp.dim() == fast.singular_dim()
    n = sys.rank
    for s in range(n):
        wall = {c for c in fast.cosets if s in set(c.gens) & fast.walls(c.rep)}
        assert wall == reference_fixed_cosets(ref, (s,))


def test_dimensions_do_not_enumerate_cosets():
    b = davis_ball(racg_from_flag(cycle_complex(5)), 2)
    assert (b.realization_dim(), b.singular_dim()) == (2, 1)
    assert "cosets" not in b.__dict__
    assert reference_realization(b).dim() == 2


def test_cosets_and_dimensions_build_no_up_lists(monkeypatch):
    """The up-lists cost 2^|T| entries per clique T; only the order complexes read them."""
    import coxcert.davis as davis

    def refuse(*args):
        raise AssertionError("tables of the cliques above each type built")

    monkeypatch.setattr(davis.DavisBall, "_above", property(refuse))
    n = 12
    entries = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    b = davis.DavisBall(CoxeterSystem([f"g{i}" for i in range(n)], entries), 0)
    assert len(b.cosets) == 4096
    assert (b.realization_dim(), b.singular_dim()) == (12, 11)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0))
def test_coset_counts_match_enumeration(seed):
    """The growth-series counts equal the enumerated cosets of each type size,
    and, for r <= 2, the independent counts of the benchmark's expectations."""
    rng = random.Random(seed)
    l = random_flag_complex(rng, rng.randint(5, 9), rng.choice((0.2, 0.5, 0.8)))
    radius = rng.randint(0, 3)
    b = davis_ball(racg_from_flag(l), radius)
    counts = b.coset_counts()
    by_size = Counter(len(c.gens) for c in b.cosets)
    assert counts == [by_size[k] for k in range(b.realization_dim() + 1)]
    if radius <= 2:
        adj = dict(enumerate(map(frozenset, l.adjacency())))
        assert sum(counts) == davis_expectations(adj, radius)["cosets"]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0))
def test_closed_form_counts_match_the_listed_ball(seed):
    """The order pairs counted in closed form are those the dump lists, and
    the identity's 1-cells bound the cells of both sets from below, equal
    to their 1-cells at radius 0."""
    rng = random.Random(seed)
    l = random_flag_complex(rng, rng.randint(3, 8), rng.choice((0.2, 0.5, 0.8)))
    b = davis_ball(racg_from_flag(l), rng.randint(0, 2))
    assert b.order_pairs() == len(b.to_json(DUMP_CAP)["order"])
    edges = sum(2 ** len(c.gens) - 2 for c in b.cosets if not c.rep and c.gens)
    for sharp in (False, True):
        counts = CellIndex(b, sharp).counts
        assert edges <= sum(counts)
        if b.radius == 0:
            assert edges == (counts[1] if len(counts) > 1 else 0)


def test_spine_coset_counts(spine_ball, monkeypatch):
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "2305205373")
    assert spine_ball.coset_counts() == [137, 18496, 66825, 48240]
    assert sum(DavisBall(spine_ball.system, 2).coset_counts()) == 17559543
    assert sum(DavisBall(spine_ball.system, 3).coset_counts()) == 2305205373


def test_spine_sharp_set_pairing(spine_ball):
    """The pairing on the build the CLI reduces (`from_faces` arrays of the
    cube complex in the index's numbering): the critical cells and their
    boundary columns of the spine's radius-1 sharp set, pinned."""
    cc = CellIndex(spine_ball, sharp=True).chain_complex()
    assert cc.sizes == [16366, 28444, 12079]
    assert cc.coreduce() == (
        [[0], [29, 44, 262], [311, 516, 551]],
        [[], [{}, {}, {}], [{262: 1, 44: 1}, {262: 2, 29: -5}, {262: -2, 29: 3, 44: -1}]],
    )


def test_coset_counts_stop_at_the_limit(monkeypatch):
    """A total over the limit raises while summing; a finite group stops at
    its longest element; an infinite group has an element of every length,
    so a radius past the limit raises at once."""
    b = davis_ball(edge_nerve_system(), 2)
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "9")
    assert b.coset_counts() == [4, 4, 1]
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "8")
    with pytest.raises(MatrixSizeError, match="^9 cosets in the radius-2 ball exceed the cap 8$"):
        b.coset_counts()
    monkeypatch.delenv("COXCERT_SNF_CELL_LIMIT")
    assert davis_ball(triangle_nerve_system(), 10**9).coset_counts() == [8, 12, 6, 1]
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", str(10**6))
    with pytest.raises(MatrixSizeError):
        davis_ball(dihedral_system(), 10**9).coset_counts()


def test_sharp_view_over_its_guard_walks_no_word(monkeypatch):
    """`hash_union_sharp` counts the ball's 73 cosets before its count walks
    them: over the cell limit, MatrixSizeError, and no word is listed."""
    b = davis_ball(racg_from_flag(cycle_complex(4)), 2)
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "72")

    def refuse(ball_):
        raise AssertionError("DavisBall._elements walked")

    monkeypatch.setattr(DavisBall, "_elements", refuse)
    with pytest.raises(MatrixSizeError):
        hash_union_sharp(b)


def _check_index(ball_, sharp):
    """The cell index of an extract against the oracle that lists its chains.
    The order complex's cells counted before any is built and the view must
    be the oracle's.  The cubes built must be the intervals [c, c'] of kept
    cosets, each once: the oracle's vertices (c = c') and edges (c < c').  A
    cube's bottom is that of its slot 0 and its top that of its slot 1, and
    the d-cube [T, U], s_1 < ... < s_d the elements of U - T, has the lower
    face [T, U - s_i] in slot 2i-2, with sign (-1)^i, and the upper face
    [T + s_i, U] in slot 2i-1, with sign (-1)^(i-1).  The homology must be
    the oracle's."""
    index = CellIndex(ball_, sharp)
    oracle = reference_sharp(ball_) if sharp else reference_singular(ball_)
    counts = index.counts
    assert counts == oracle.counts()
    view = hash_union_sharp(ball_) if sharp else singular_subcomplex(ball_)
    assert named_simplices(view) == named_simplices(oracle)
    cc = index.chain_complex()  # asserts that the built offsets give the cubes counted
    # the oracle lists the kept cosets in ball order, the index's vertex numbering
    coset = {ball_.coset_id(c): c for c in ball_.cosets}
    types = [coset[name].gens for name in oracle.vertices]
    above = [{t: v} for v, t in enumerate(types)]  # per kept coset, the kept ones above by type
    for edge in oracle.k_simplices(1):
        low, high = sorted(edge, key=lambda v: len(types[v]))
        above[low][types[high]] = high
    intervals = [{(c, c) for c in range(len(types))}] + [set() for _ in counts[1:]]
    for c, up in enumerate(above):
        for t, top in up.items():
            if top != c:
                intervals[len(t) - len(types[c])].add((c, top))
    assert cc.sizes == list(map(len, intervals))
    ends = [[(c, c) for c in range(len(types))]]  # (bottom, top) of each cube
    for d in range(1, len(cc.sizes)):
        faces, width = cc.faces[d], 2 * d
        assert cc.signs[d] == tuple(s for i in range(1, d + 1) for s in ((-1) ** i, (-1) ** (i - 1)))
        assert len(faces) == width * cc.sizes[d]
        below = ends[d - 1]
        ends.append([(below[faces[i]][0], below[faces[i + 1]][1]) for i in range(0, len(faces), width)])
        assert set(ends[d]) == intervals[d]  # so each interval once: there are sizes[d]
        for i, (bottom, top) in enumerate(ends[d]):
            t, u = types[bottom], types[top]
            want = []
            for s in sorted(set(u) - set(t)):
                lower = tuple(x for x in u if x != s)
                upper = tuple(sorted(t + (s,)))
                want += [(bottom, above[bottom][lower]), (above[bottom][upper], top)]
            assert [below[f] for f in faces[i * width : (i + 1) * width]] == want
    result = chain_homology(cc, reduced=True)
    assert result == reference_homology(oracle, reduced=True)
    return result


ORACLE_MAX_CELLS = 4000  # keeps the full-SNF oracle fast


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0), st.booleans())
def test_cell_index_matches_the_listed_extract(seed, sharp):
    rng = random.Random(seed)
    sys = racg_from_flag(random_flag_complex(rng, rng.randint(5, 9), rng.choice((0.2, 0.5, 0.8))))
    radius = rng.randint(0, 2)
    while radius and sum(CellIndex(DavisBall(sys, radius), sharp).counts) > ORACLE_MAX_CELLS:
        radius -= 1
    ball_ = DavisBall(sys, radius)
    assume(sum(CellIndex(ball_, sharp).counts) <= ORACLE_MAX_CELLS)  # large cliques: large at r = 0
    _check_index(ball_, sharp)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0), st.booleans())
def test_cube_build_matches_the_order_complex(seed, sharp):
    """The cube complex `chain_complex` builds, against the order complex
    listed by `reference_extract`: its boundary squares to zero, its Euler
    characteristic is the order complex's, read off `CellIndex.counts`, and
    its reduced homology is the order complex's."""
    rng = random.Random(seed)
    sys = racg_from_flag(random_flag_complex(rng, rng.randint(4, 9), rng.choice((0.3, 0.5, 0.8))))
    radius = rng.randint(0, 2)
    while radius and sum(CellIndex(DavisBall(sys, radius), sharp).counts) > ORACLE_MAX_CELLS:
        radius -= 1
    ball_ = DavisBall(sys, radius)
    index = CellIndex(ball_, sharp)
    assume(sum(index.counts) <= ORACLE_MAX_CELLS)
    cc = index.chain_complex()
    columns = [[]] + [signed_columns(cc, d) for d in range(1, len(cc.sizes))]
    for d in range(2, len(cc.sizes)):
        for column in columns[d]:
            total = Counter()
            for face, sign in column.items():
                for r, v in columns[d - 1][face].items():
                    total[r] += sign * v
            assert not any(total.values())
    euler = sum((-1) ** d * n for d, n in enumerate(cc.sizes))
    assert euler == sum((-1) ** j * n for j, n in enumerate(index.counts))
    oracle = reference_sharp(ball_) if sharp else reference_singular(ball_)
    assert chain_homology(cc, reduced=True) == reference_homology(oracle, reduced=True)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.sampled_from((0.3, 0.6, 0.9)), st.integers(min_value=0))
@example(0, 0.9, 0)  # the empty nerve: every type still has a table 1
@example(1, 0.9, 0)  # a single vertex
@example(4, 1.0, 0)  # a tetrahedron: cubes of every dimension up to 4
def test_clique_tables_match_the_face_poset(n, p, seed):
    """`DavisBall._above` against the up-lists of the face poset of the
    nerve, table by table and place by place, and `CellIndex.counts`, read
    off the tables through surj(m, d), against the listed order complexes."""
    ball_ = DavisBall(racg_from_flag(random_flag_complex(random.Random(seed), n, p)), 1)
    supersets = reference_supersets(ball_)
    assert set(ball_._above) == set(supersets)
    for t, tables in ball_._above.items():
        assert len(tables) >= 2 and tables[0] == {t: 0}
        assert sum(map(len, tables[1:])) == len(supersets[t])
        for m, table in enumerate(tables[1:], 1):
            group = [u for u in supersets[t] if len(u) == len(t) + m]
            assert list(table.items()) == [(u, k) for k, u in enumerate(group)]
    for sharp, oracle in ((False, reference_singular(ball_)), (True, reference_sharp(ball_))):
        sizes = Counter(len(s) - 1 for s in oracle.simplices)
        assert CellIndex(ball_, sharp).counts == [sizes[d] for d in range(len(sizes))]


def test_cell_index_keeps_the_torsion_of_flag_rp2():
    """The flag RP^2 at radius 1: the singular set is a wedge of N_1 = 32
    copies of RP^2 up to homotopy, the sharp set one copy."""
    ball_ = davis_ball(racg_from_flag(barycentric_subdivision(projective_plane())), 1)
    assert ball_.coset_counts()[0] == 32
    singular = _check_index(ball_, sharp=False)
    assert singular.torsion(1) == (2,) * 32 and singular.betti(1) == 0
    sharp = _check_index(ball_, sharp=True)
    assert sharp.torsion(1) == (2,) and sharp.degrees() == [1]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0))
def test_coset_counts_match_the_per_length_sum(seed):
    """Halving the radius gives the counts of summing one length at a time:
    complete graphs give finite groups, two points or a square polynomial
    growth, sparse graphs exponential growth."""
    rng = random.Random(seed)
    l = rng.choice([
        lambda: random_flag_complex(rng, rng.randint(1, 9), rng.choice((0.2, 0.5, 0.8, 1.0))),
        two_points,
        lambda: cycle_complex(4),
    ])()
    b = davis_ball(racg_from_flag(l), rng.randint(0, 300))
    expected = reference_coset_counts(b)
    # the least limit that passes: a radius up to 300 goes past the default
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COXCERT_SNF_CELL_LIMIT", str(sum(expected)))
        assert b.coset_counts() == expected
