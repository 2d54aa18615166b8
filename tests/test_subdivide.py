"""Order complexes and subdivision invariants: flagness, square removal, homology."""
import hashlib
import json
import random
import re
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from coxcert.homology import homology
from coxcert.presentations import presentation_complex, spine_presentation
from coxcert.simplicial import (
    SimplicialComplex,
    complex_to_json,
    faces_closure,
    square_report,
)
from coxcert.subdivide import (
    barycentric_subdivision,
    contract_flag_no_squares,
    no_square_subdivision,
    order_complex,
)

from helpers import (
    check_invariants,
    cone,
    cycle_complex,
    full_triangle,
    hollow_triangle,
    projective_plane,
    random_complex,
    random_flag_complex,
    reference_contraction,
    two_points,
)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0))
def test_order_complex_matches_brute_force_chains(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    # a random DAG along a shuffled order, then its transitive closure
    order = list(range(n))
    rng.shuffle(order)
    above = {i: set() for i in range(n)}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                above[order[a]].add(order[b])
    for a in reversed(order):
        for b in list(above[a]):
            above[a] |= above[b]
    names = [f"e{i}" for i in range(n)]
    up = [sorted(above[i]) for i in range(n)]
    chains = [
        c
        for r in range(1, n + 1)
        for c in combinations(range(n), r)
        if all(b in above[a] or a in above[b] for a, b in combinations(c, 2))
    ]
    brute = SimplicialComplex(names, chains)
    fast = order_complex(names, up)
    # facets, equality and hash hold before the facets are closed
    assert fast.maximal_simplices() == brute.maximal_simplices()
    assert fast == brute and hash(fast) == hash(brute)
    assert fast.dim() == brute.dim()
    check_invariants(fast)
    assert fast.simplices == brute.simplices
    assert fast.vertices == tuple(names)


def test_bary_output_is_pinned():
    k = barycentric_subdivision(presentation_complex(spine_presentation()))
    data = json.dumps(complex_to_json(k), sort_keys=True)
    digest = hashlib.sha256(data.encode()).hexdigest()
    assert digest == "eb3d40e0152f7ef9cc59436768693d527f680b8221bb5cbf549a76a4721d7479"


def test_bary_point_is_point():
    pt = faces_closure([("p",)])
    assert len(barycentric_subdivision(pt).simplices) == 1


def test_bary_full_triangle_counts():
    b = barycentric_subdivision(full_triangle())
    counts = b.counts()
    assert counts == [7, 12, 6]


def test_bary_output_is_flag():
    for k in (full_triangle(), cycle_complex(4), projective_plane()):
        assert square_report(barycentric_subdivision(k)).is_flag


def test_bary_preserves_homology():
    for k in (hollow_triangle(), projective_plane(), cone(cycle_complex(5), "z")):
        assert homology(barycentric_subdivision(k)) == homology(k)


def test_no_square_subdivision_four_cycle():
    out = no_square_subdivision(cycle_complex(4))
    rep = square_report(out)
    assert rep.flag_no_squares
    assert homology(out) == homology(cycle_complex(4))


def test_no_square_subdivision_projective_plane():
    out = no_square_subdivision(projective_plane())
    rep = square_report(out)
    assert rep.is_flag and not rep.empty_squares
    assert homology(out) == homology(projective_plane())


def test_no_square_subdivision_rejects_high_dim():
    solid = faces_closure([("a", "b", "c", "d")])
    with pytest.raises(ValueError):
        no_square_subdivision(solid)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0))
def test_no_square_subdivision_random_small(seed):
    rng = random.Random(seed)
    k = random_complex(rng, n_vertices=5, n_faces=4)
    out = no_square_subdivision(k)
    check_invariants(out)
    rep = square_report(out)
    assert rep.flag_no_squares
    assert homology(out) == homology(k)


def test_contraction_preserves_fns_and_homology():
    base = no_square_subdivision(projective_plane())
    small = contract_flag_no_squares(base)
    check_invariants(small)
    assert len(small.vertices) < len(base.vertices)
    assert square_report(small).flag_no_squares
    assert homology(small) == homology(base)


def test_contraction_on_circle():
    circle = no_square_subdivision(cycle_complex(4))
    small = contract_flag_no_squares(circle)
    assert homology(small) == homology(circle)
    assert square_report(small).flag_no_squares


def test_contraction_rejects_non_flag_input():
    with pytest.raises(ValueError, match="flag"):
        contract_flag_no_squares(hollow_triangle())


def test_contraction_rejects_an_empty_square():
    """The one move test is exact only on a graph with no empty square, so
    the contraction refuses such an input at entry and names the square."""
    k = cycle_complex(4)
    square = square_report(k).empty_squares[0]
    with pytest.raises(ValueError, match=re.escape(f"no empty square; {square} is one")):
        contract_flag_no_squares(k)


def test_contraction_refuses_a_four_clique(monkeypatch):
    """The output is the clique complex of the final graph, so a 4-clique would
    be a 3-simplex, not a flag failure: the postcondition checks the dimension."""
    import coxcert.subdivide as subdivide

    real = subdivide.cliques

    def with_four_clique(adj):
        yield from real(adj)
        yield (0, 1, 2, 3)

    monkeypatch.setattr(subdivide, "cliques", with_four_clique)
    with pytest.raises(RuntimeError):
        contract_flag_no_squares(no_square_subdivision(cycle_complex(4)))


def _assert_contraction_matches_reference(k):
    fast = contract_flag_no_squares(k)
    check_invariants(fast)
    assert fast == reference_contraction(k)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0))
def test_contraction_matches_triangle_set_reference_random_small(seed):
    rng = random.Random(seed)
    k = random_complex(rng, n_vertices=rng.randint(3, 8), n_faces=rng.randint(1, 8))
    _assert_contraction_matches_reference(no_square_subdivision(k))


@pytest.mark.parametrize(
    "build",
    [projective_plane, lambda: cycle_complex(4), lambda: presentation_complex(spine_presentation())],
    ids=["projective_plane", "four_cycle", "spine"],
)
def test_contraction_matches_triangle_set_reference(build):
    _assert_contraction_matches_reference(no_square_subdivision(build()))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0))
def test_contraction_matches_triangle_set_reference_with_squares(seed):
    # flag 2-complexes of random graphs, many with empty squares: those are
    # refused at entry, naming the first square; the rest match the oracle
    rng = random.Random(seed)
    k = random_flag_complex(rng, rng.randint(4, 9), p=0.45)
    assume(k.dim() <= 2)
    squares = square_report(k).empty_squares
    if squares:
        with pytest.raises(ValueError, match=re.escape(str(squares[0]))):
            contract_flag_no_squares(k)
    else:
        assert contract_flag_no_squares(k) == reference_contraction(k)
