"""Coxeter systems: classification, nerves, hyperbolicity, word problem."""
import random
import re
import sys as _sys
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coxcert import coxeter
from coxcert.coxeter import (
    INF,
    CoxeterSystem,
    _is_spherical_idx,
    ball,
    coset_rep,
    hyperbolicity,
    in_special_subgroup,
    min_coset_rep,
    multiply,
    nerve,
    racg_from_flag,
    reduce,
    right_descents,
    system_from_json,
    system_to_json,
)
from coxcert.davis import DavisBall
from coxcert.simplicial import cliques, faces_closure

from helpers import (
    check_invariants,
    cycle_complex,
    diagram_system,
    full_triangle,
    is_spherical,
    named_simplices,
    random_flag_complex,
    reference_ball,
    reference_coset_rep,
    reference_is_spherical,
    reference_min_coset_rep,
    reference_reduce,
    reference_right_descents,
    two_points,
)

_sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from inputs import ball_elements, random_graph  # noqa: E402  (the benchmark's own oracle)


def dihedral_infinite():
    return CoxeterSystem(["s", "t"], [[1, INF], [INF, 1]])


def klein_four():
    return CoxeterSystem(["s", "t"], [[1, 2], [2, 1]])


def test_matrix_validation():
    with pytest.raises(ValueError):
        CoxeterSystem(["s"], [[2]])
    with pytest.raises(ValueError):
        CoxeterSystem(["s", "t"], [[1, 3], [2, 1]])
    with pytest.raises(ValueError):
        CoxeterSystem(["s", "t"], [[1, 1], [1, 1]])


def _first_matrix_fault(entries):
    """The message of the first fault of a square matrix, scanning row by
    row: the diagonal entry, then each entry to its right for symmetry and
    range; None for a Coxeter matrix."""
    n = len(entries)
    for i in range(n):
        if entries[i][i] != 1:
            return "diagonal entries must be 1"
        for j in range(i + 1, n):
            if entries[i][j] != entries[j][i]:
                return "matrix must be symmetric"
            if entries[i][j] != INF and entries[i][j] < 2:
                return "off-diagonal entries must be >= 2 or infinity"
    return None


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.sampled_from((INF, 2, 3, 4)), min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)),
                           st.sampled_from((-1, 0, 1, 2, 5))), max_size=2 if n else 0),
    )
))
def test_system_link_and_right_angled_match_their_definitions(case):
    """On random symmetric matrices, some with faults written in, the
    constructor raises the first fault of a row-by-row scan, or derives
    `link` and `right_angled` as defined."""
    upper, faults = case
    n = len(upper)
    entries = [[1 if i == j else upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    for i, j, m in faults:
        entries[i][j] = m
    fault = _first_matrix_fault(entries)
    if fault is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
            CoxeterSystem([f"g{i}" for i in range(n)], entries)
        return
    sys = CoxeterSystem([f"g{i}" for i in range(n)], entries)
    assert sys.link == tuple(frozenset(j for j in range(n) if entries[i][j] == 2) for i in range(n))
    assert sys.right_angled == all(entries[i][j] in (2, INF) for i in range(n) for j in range(n) if i != j)


def test_racg_from_flag_examples():
    single = racg_from_flag(faces_closure([("v",)]))
    assert single.rank == 1

    two = racg_from_flag(two_points())
    assert two.order(0, 1) == INF
    assert two.right_angled

    pent = racg_from_flag(cycle_complex(5))
    entries = [pent.order(i, j) for i in range(5) for j in range(i + 1, 5)]
    assert entries.count(2) == 5 and entries.count(INF) == 5


def test_racg_rejects_non_flag():
    from helpers import hollow_triangle

    with pytest.raises(ValueError, match="witness"):
        racg_from_flag(hollow_triangle())


def test_is_spherical_basics():
    sys = dihedral_infinite()
    assert is_spherical(sys, ["s"])
    assert not is_spherical(sys, ["s", "t"])
    tri = racg_from_flag(full_triangle())
    assert is_spherical(tri, ["a", "b", "c"])
    with pytest.raises(ValueError):
        is_spherical(tri, ["zz"])


def _path(labels):
    """Diagram of a path whose edges carry `labels` in order."""
    return len(labels) + 1, {(i, i + 1): m for i, m in enumerate(labels)}


def _branch(*arms):
    """Diagram of a vertex 0 with arms of the given numbers of vertices,
    every label 3."""
    labels, v = {}, 1
    for arm in arms:
        prev = 0
        for _ in range(arm):
            labels[prev, v] = 3
            prev, v = v, v + 1
    return v, labels


def _cycle(n):
    return n, {(i, (i + 1) % n): 3 for i in range(n)}


FINITE_TYPES = {
    **{f"A{n}": _path([3] * (n - 1)) for n in range(1, 9)},
    **{f"B{n}": _path([4] + [3] * (n - 2)) for n in range(2, 9)},
    **{f"D{n}": _branch(1, 1, n - 3) for n in range(4, 9)},
    "E6": _branch(1, 2, 2),
    "E7": _branch(1, 2, 3),
    "E8": _branch(1, 2, 4),
    "F4": _path([3, 4, 3]),
    "H3": _path([5, 3]),
    "H4": _path([5, 3, 3]),
    **{f"I2({m})": _path([m]) for m in (5, 6, 7)},
}

INFINITE_TYPES = {
    **{f"A~{n}": _cycle(n + 1) for n in range(2, 8)},
    "B~3": (4, {(0, 2): 3, (1, 2): 3, (2, 3): 4}),
    **{f"C~{n}": _path([4] + [3] * (n - 2) + [4]) for n in range(2, 5)},
    **{
        f"D~{n}": (
            n + 1,
            {(0, 2): 3, (1, 2): 3, **{(i, i + 1): 3 for i in range(2, n - 2)},
             (n - 2, n - 1): 3, (n - 2, n): 3},
        )
        for n in range(4, 7)
    },
    "E~6": _branch(2, 2, 2),
    "E~7": _branch(1, 3, 3),
    "E~8": _branch(1, 2, 5),
    "F~4": _path([3, 3, 4, 3]),
    "G~2": _path([3, 6]),
    "T(1,2,6)": _branch(1, 2, 6),
    "H5": _path([5, 3, 3, 3]),
}


def test_is_spherical_classification_table():
    """Every connected finite type up to rank 8 is spherical; the affine
    types and the near misses T(1,2,6) and H5 are not.  Each diagram is also
    read with its numbering reversed, so a path is walked from either end."""
    for expected, catalogue in ((True, FINITE_TYPES), (False, INFINITE_TYPES)):
        for name, (n, labels) in catalogue.items():
            flipped = {(n - 1 - i, n - 1 - j): m for (i, j), m in labels.items()}
            for edges in (labels, flipped):
                sys = diagram_system(n, edges)
                assert is_spherical(sys, sys.generators) == expected, name


def test_nerve_examples():
    assert named_simplices(nerve(dihedral_infinite())) == {("s",), ("t",)}
    a2 = CoxeterSystem(["s", "t"], [[1, 3], [3, 1]])
    n2 = nerve(a2)
    assert n2.dim() == 1 and len(n2.simplices) == 3  # an edge


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0))
def test_nerve_matches_is_spherical_on_general_matrices(seed):
    """Level-by-level growth, and on right-angled matrices the cliques of the
    commuting graph, find exactly the subsets the catalogue match accepts."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    orders = rng.choice(((INF, 2), (INF, 2, 3, 4, 5, 6)))
    gens = [f"g{i}" for i in range(n)]
    entries = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entries[i][j] = entries[j][i] = rng.choice(orders)
    sys = CoxeterSystem(gens, entries)
    expected = {
        tuple(gens[i] for i in t)
        for r in range(1, n + 1)
        for t in combinations(range(n), r)
        if reference_is_spherical(sys, t)
    }
    check_invariants(nerve(sys))
    assert named_simplices(nerve(sys)) == expected


def test_is_spherical_matches_reference_on_every_small_matrix():
    """Every Coxeter matrix of rank <= 4 over the orders 2, 3, 4, 5, 6 and
    infinity, with the whole generator set."""
    seen = 0
    for n in range(1, 5):
        pairs = list(combinations(range(n), 2))
        idx = tuple(range(n))
        for orders in product((2, 3, 4, 5, 6, INF), repeat=len(pairs)):
            sys = diagram_system(n, dict(zip(pairs, orders)))
            assert _is_spherical_idx(sys, idx) == reference_is_spherical(sys, idx), orders
            seen += 1
    assert seen == 46_879


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0))
def test_is_spherical_matches_reference_on_random_trees(seed):
    """Random labelled trees of up to 10 vertices, numbered in shuffled order:
    half of them labelled 3 throughout, so the D and E arms come up."""
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    orders = (3,) if rng.random() < 0.5 else (3, 3, 3, 4, 5, 6)
    place = list(range(n))
    rng.shuffle(place)
    labels = {
        tuple(sorted((place[rng.randrange(v)], place[v]))): rng.choice(orders)
        for v in range(1, n)
    }
    sys = diagram_system(n, labels)
    idx = tuple(range(n))
    assert _is_spherical_idx(sys, idx) == reference_is_spherical(sys, idx)


def test_general_nerve_stops_at_its_cap(monkeypatch):
    """The general nerve yields each subset as soon as it passes, so a cap of
    1,000 cells stops it within 1,000 finiteness tests, not at the end of a
    level: here all 4,060 triples pass."""
    sys = diagram_system(30, {(0, 1): 3})
    calls = 0
    is_spherical_idx = coxeter._is_spherical_idx

    def counted(*args):
        nonlocal calls
        calls += 1
        return is_spherical_idx(*args)

    monkeypatch.setattr(coxeter, "_is_spherical_idx", counted)
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "1000")
    with pytest.raises(ValueError, match="more than 1000 simplices"):
        nerve(sys)
    assert calls <= 1000
    # the other builders of a nerve read the same limit, with the message the
    # CLI prints: on 11 commuting generators (2,047 cliques), the
    # hyperbolicity test and a ball
    commuting = diagram_system(11, {})
    for build in (lambda: hyperbolicity(commuting), lambda: DavisBall(commuting, 0)):
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == "nerve: more than 1000 simplices, over the cell limit"


def test_nerve_racg_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        l = random_flag_complex(rng, rng.randint(1, 10))
        sys = racg_from_flag(l)
        assert nerve(sys).simplices == l.simplices


def test_hyperbolicity_four_cycle():
    sys = racg_from_flag(cycle_complex(4))
    rep = hyperbolicity(sys)
    assert rep.hyperbolic is False
    a, c, b, d = rep.z2_witness
    ia, ic, ib, id_ = (sys.generators.index(x) for x in (a, c, b, d))
    assert sys.order(ia, ic) == INF and sys.order(ib, id_) == INF
    for x in (ia, ic):
        for y in (ib, id_):
            assert sys.order(x, y) == 2


def test_hyperbolicity_five_cycle():
    rep = hyperbolicity(racg_from_flag(cycle_complex(5)))
    assert rep.hyperbolic is True
    assert rep.z2_witness is None


def test_hyperbolicity_non_right_angled():
    rep = hyperbolicity(CoxeterSystem(["s", "t"], [[1, 3], [3, 1]]))
    assert rep.hyperbolic is None


def test_hyperbolicity_censuses_the_whole_nerve_of_a_non_right_angled_system():
    """The nerve of a system with labels 3 has edges that are not in its
    commuting sets: a 4-cycle of labels 3 with infinite diagonals is an
    empty square of the nerve, though no two generators commute."""
    inf = coxeter.INF
    entries = [[1, 3, inf, 3], [3, 1, 3, inf], [inf, 3, 1, 3], [3, inf, 3, 1]]
    rep = hyperbolicity(CoxeterSystem("abcd", entries))
    assert (rep.right_angled, rep.flag, rep.hyperbolic) == (False, True, None)
    assert rep.empty_squares == (("a", "b", "c", "d"),)


def test_reduce_examples():
    sys = klein_four()
    assert reduce(sys, (0, 0)) == ()
    assert reduce(sys, (0, 1, 0)) == (1,)  # commute then cancel
    d = dihedral_infinite()
    assert reduce(d, (0, 1, 0)) == (0, 1, 0)


def test_reduce_idempotent_and_involutive():
    rng = random.Random(3)
    sys = racg_from_flag(cycle_complex(5))
    for _ in range(200):
        w = tuple(rng.randrange(5) for _ in range(rng.randint(0, 12)))
        nf = reduce(sys, w)
        assert reduce(sys, nf) == nf
        assert reduce(sys, w + tuple(reversed(w))) == ()


def test_ball_infinite_dihedral():
    d = dihedral_infinite()
    b = ball(d, 2)
    assert b == [(), (0,), (1,), (0, 1), (1, 0)]


def test_ball_finite_group_stabilises():
    sys = klein_four()
    assert len(ball(sys, 2)) == 4
    assert len(ball(sys, 5)) == 4


def test_ball_monotone_and_prefix_closed():
    sys = racg_from_flag(cycle_complex(4))
    sizes = [len(ball(sys, r)) for r in range(5)]
    assert sizes == sorted(sizes)
    b = set(ball(sys, 4))
    for w in b:
        assert all(w[:i] in b for i in range(len(w)))


def test_min_coset_rep_examples():
    d = dihedral_infinite()
    assert min_coset_rep(d, (), ["s"]) == ()
    assert min_coset_rep(d, (0,), ["s"]) == ()
    with pytest.raises(ValueError):
        min_coset_rep(d, (), ["s", "t"])


def test_min_coset_rep_idempotent_and_membership():
    rng = random.Random(11)
    sys = racg_from_flag(cycle_complex(5))
    gens = sys.generators
    for _ in range(100):
        w = tuple(rng.randrange(5) for _ in range(rng.randint(0, 8)))
        t_labels = [gens[i] for i in (0, 1)]  # an edge of the pentagon
        rep = min_coset_rep(sys, w, t_labels)
        assert min_coset_rep(sys, rep, t_labels) == rep
        # rep^{-1} * w lies in W_T, i.e. rep and w are in the same left coset
        assert in_special_subgroup(sys, tuple(reversed(rep)) + tuple(w), t_labels)


def test_in_special_subgroup_examples():
    d = dihedral_infinite()
    assert in_special_subgroup(d, (), ["s"])
    assert not in_special_subgroup(d, (0, 1), ["s"])
    k = klein_four()
    assert in_special_subgroup(k, (0, 1, 0), ["t"])


def test_spherical_iff_subsystem_ball_stabilises():
    rng = random.Random(5)
    for _ in range(10):
        l = random_flag_complex(rng, 5)
        sys = racg_from_flag(l)
        gens = sys.generators
        for _ in range(5):
            size = rng.randint(1, 3)
            subset = rng.sample(gens, size)
            idx = sorted(sys.generators.index(g) for g in subset)
            sub_entries = [[sys.order(i, j) for j in idx] for i in idx]
            sub = CoxeterSystem([gens[i] for i in idx], sub_entries)
            stabilises = len(ball(sub, 3)) == len(ball(sub, 4))
            assert is_spherical(sys, subset) == stabilises


def test_words_reduce_to_bfs_distance_small():
    rng = random.Random(13)
    sys = racg_from_flag(cycle_complex(4))
    dist = {(): 0}
    frontier = [()]
    radius = 6
    for d in range(1, radius + 1):
        nxt = []
        for w in frontier:
            for g in range(4):
                nf = multiply(sys, w, g)
                if nf not in dist:
                    dist[nf] = d
                    nxt.append(nf)
        frontier = nxt
    for _ in range(300):
        w = tuple(rng.randrange(4) for _ in range(rng.randint(0, radius)))
        nf = reduce(sys, w)
        assert dist[nf] == len(nf)


def test_insertion_rule_matches_two_pass_oracles():
    """reduce, ball and min_coset_rep agree with the stack-and-sort reduction,
    the BFS ball and greedy descent on random flag nerves."""
    rng = random.Random(1474)
    for _ in range(40):
        l = random_flag_complex(rng, rng.randint(1, 7), rng.choice((0.3, 0.6, 0.9)))
        sys = racg_from_flag(l)
        n = sys.rank
        words = [tuple(rng.randrange(n) for _ in range(rng.randint(0, 14))) for _ in range(30)]
        for w in words:
            assert reduce(sys, w) == reference_reduce(sys, w), w
        for radius in range(4):
            assert ball(sys, radius) == reference_ball(sys, radius)
        for t in cliques(sys.link):
            labels = [sys.generators[i] for i in t]
            for w in words:
                assert min_coset_rep(sys, w, labels) == reference_min_coset_rep(sys, w, t), (w, t)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.lists(st.integers(0, 7), max_size=40))
def test_one_scan_descents_match_suffix_slices(rng, letters):
    """`right_descents` and `coset_rep`, one scan from the right, agree with
    testing each letter against the slice of the word after it."""
    sys = racg_from_flag(random_flag_complex(rng, 8, rng.choice((0.2, 0.5, 0.8))))
    w = reduce(sys, letters)
    assert right_descents(sys, w) == reference_right_descents(sys, w)
    for t in cliques(sys.link):
        assert coset_rep(sys, w, t) == reference_coset_rep(sys, w, t), (w, t)


def test_ball_lengths_and_descents_match_benchmark_table():
    """Length, right descents and commuting generators of each ball element,
    against the closed-form table the benchmark checks its reports with."""
    rng = random.Random(20)
    for _ in range(20):
        n = rng.randint(1, 8)
        adj = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        entries = [[1 if i == j else 2 if j in adj[i] else INF for j in range(n)] for i in range(n)]
        sys = CoxeterSystem([f"v{i}" for i in range(n)], entries)
        every = frozenset(range(n))
        for radius in range(3):
            got = [
                (
                    len(w),
                    sum(1 << x for x in right_descents(sys, w)),
                    sum(1 << x for x in every.intersection(*(sys.link[x] for x in w))),
                )
                for w in ball(sys, radius)
            ]
            assert got == ball_elements(adj, radius)


def test_system_json_round_trip():
    sys = racg_from_flag(cycle_complex(5))
    again = system_from_json(system_to_json(sys))
    assert again == sys
    with pytest.raises(ValueError):
        system_from_json({"generators": ["a"]})


def test_systems_are_frozen_and_equal_ones_hash_equal():
    sys = racg_from_flag(cycle_complex(5))
    again = system_from_json(system_to_json(sys))
    assert again == sys and hash(again) == hash(sys) and len({sys, again}) == 1
    assert sys != racg_from_flag(cycle_complex(4))
    report = hyperbolicity(sys)
    for record, field in [(sys, "entries"), (sys, "link"), (report, "hyperbolic")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
