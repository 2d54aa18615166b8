"""Core complex construction, flag/square reports and wedges."""
import random
from itertools import combinations, count

import pytest
from hypothesis import given, settings, strategies as st

from coxcert.simplicial import (
    MatrixSizeError,
    SimplicialComplex,
    _flag_witness,
    _skeleton,
    capped,
    check_size,
    cliques,
    complex_from_json,
    complex_to_json,
    faces_closure,
    square_report,
    wedge,
)
from coxcert.homology import homology
from coxcert.presentations import presentation_complex, spine_presentation
from coxcert.subdivide import barycentric_subdivision, no_square_subdivision

from helpers import (
    check_invariants,
    cone,
    cycle_complex,
    full_triangle,
    hollow_triangle,
    random_complex,
    reference_closure,
    reference_empty_squares,
    reference_facets,
    reference_flag_witness,
    reference_homology,
    simplex_boundary,
    two_points,
)


def test_faces_closure_full_triangle():
    k = full_triangle()
    assert len(k.simplices) == 7
    assert k.dim() == 2


def test_faces_closure_hollow_triangle():
    k = hollow_triangle()
    assert len(k.simplices) == 6
    assert k.dim() == 1


def test_faces_closure_four_cycle():
    k = cycle_complex(4)
    assert len(k.simplices) == 8


def test_faces_closure_rejects_bad_input():
    assert faces_closure([]) == SimplicialComplex((), [])
    assert faces_closure([], vertices=["a", "b"]) == SimplicialComplex(("a", "b"), [(0,), (1,)])
    with pytest.raises(ValueError, match="empty member set"):
        faces_closure([()])
    with pytest.raises(ValueError, match="outside declared universe"):
        faces_closure([("a", "z")], vertices=["a", "b"])


def test_closure_invariant_enforced():
    """The constructor checks the vertex ids; the oracle checks the simplices.
    Cells not closed under faces, or missing a vertex, generate their closure."""
    with pytest.raises(ValueError, match="duplicate vertex ids"):
        SimplicialComplex(("a", "a"), [(0,)])
    check_invariants(full_triangle())
    for cells in (
        [(0,), (1,), (2,), (0, 1, 2)],  # not closed under faces
        [(0,), (1,)],  # no singleton for c
    ):
        k = SimplicialComplex(("a", "b", "c"), cells)
        check_invariants(k)
        assert k.simplices == reference_closure(3, cells)
        assert k == SimplicialComplex(("a", "b", "c"), reference_closure(3, cells))
    for bad in (
        [(0,), (1,), (2,), (1, 0)],  # not increasing
        [(0,), (1,), (2,), (0, 3)],  # undeclared position
    ):
        with pytest.raises(ValueError):
            check_invariants(SimplicialComplex(("a", "b", "c"), bad))


def test_wedge_of_circles():
    c1, c2 = cycle_complex(3, "a"), cycle_complex(3, "b")
    w = wedge([c1, c2], ["a0", "b0"])
    check_invariants(w)
    h = homology(w, reduced=True)
    assert h.betti(1) == 2 and h.betti(0) == 0


def test_wedge_identity_case():
    k = hollow_triangle()
    assert wedge([k], ["a"]) == k


def test_wedge_rejects_bad_basepoint():
    with pytest.raises(ValueError):
        wedge([hollow_triangle()], ["zz"])


def test_square_report_hollow_triangle():
    rep = square_report(hollow_triangle())
    assert not rep.is_flag
    assert rep.flag_witness == ("a", "b", "c")
    assert rep.empty_squares == ()


def test_square_report_four_cycle():
    rep = square_report(cycle_complex(4))
    assert rep.is_flag
    assert len(rep.empty_squares) == 1
    square = rep.empty_squares[0]
    assert set(square) == {"c0", "c1", "c2", "c3"}


def test_square_report_five_cycle():
    rep = square_report(cycle_complex(5))
    assert rep.is_flag
    assert rep.empty_squares == ()


def _graph(n: int, edges) -> SimplicialComplex:
    return SimplicialComplex([f"v{i}" for i in range(n)], [(i,) for i in range(n)] + list(edges))


@pytest.mark.parametrize(
    "k, count",
    [
        (cycle_complex(4), 1),
        (_graph(5, [(i, j) for i in (0, 1) for j in (2, 3, 4)]), 3),  # K_{2,3}
        (faces_closure([(x, y, z) for x in "aA" for y in "bB" for z in "cC"]), 3),  # octahedron
        (barycentric_subdivision(presentation_complex(spine_presentation())), 306),
    ],
    ids=["c4", "k23", "octahedron", "flagified-spine"],
)
def test_square_census_matches_oracle_on_named_complexes(k, count):
    squares = square_report(k).empty_squares
    assert len(squares) == count
    assert list(squares) == reference_empty_squares(k)


def test_square_census_matches_oracle_on_random_graphs():
    """Each induced 4-cycle once, in the oracle's order, on seeded random
    graphs of up to 14 vertices, from sparse to dense."""
    rng = random.Random(21)
    for _ in range(500):
        n = rng.randint(0, 14)
        p = rng.random()
        k = _graph(n, [s for s in combinations(range(n), 2) if rng.random() < p])
        assert list(square_report(k).empty_squares) == reference_empty_squares(k)


def test_dim_of():
    assert full_triangle().dim() == 2
    assert two_points().dim() == 0
    assert SimplicialComplex((), []).dim() == -1


def test_json_round_trip():
    k = cone(cycle_complex(4), "apex")
    data = complex_to_json(k)
    assert complex_from_json(data) == k


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        complex_from_json({"vertices": "nope"})
    with pytest.raises(ValueError):
        complex_from_json([1, 2, 3])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0))
def test_random_complexes_are_closed_and_euler_consistent(seed):
    rng = random.Random(seed)
    k = random_complex(rng)
    check_invariants(k)
    assert k.euler_characteristic() == sum(
        (-1) ** d * len(k.k_simplices(d)) for d in range(k.dim() + 1)
    )


def _check_generated(n: int, cells: list[tuple[int, ...]]) -> None:
    """The complex of `cells` on n vertices against the closure and facet
    oracles, in every query and in a JSON round trip of the cells.  The
    1-skeleton is read from the facets, before the complex is closed."""
    names = [f"v{i}" for i in range(n)]
    k = SimplicialComplex(names, cells)
    closed = reference_closure(n, cells)
    edges = {s for s in closed if len(s) == 2}
    arcs = {(a, b) for a, nbrs in enumerate(k.adjacency()) for b in nbrs}
    assert arcs == edges | {(b, a) for a, b in edges}
    assert k._simplices is None
    facets = reference_facets(closed)
    assert k.maximal_simplices() == facets
    assert k.dim() == max(map(len, closed), default=0) - 1
    assert k.simplices == closed
    check_invariants(k)
    assert k.counts() == [sum(len(s) == d for s in closed) for d in range(1, k.dim() + 2)]
    for other in (SimplicialComplex(names, closed), SimplicialComplex(names, reversed(facets))):
        assert k == other and other == k and hash(k) == hash(other)
    for reduced in (False, True):
        assert homology(k, reduced) == reference_homology(k, reduced)
    data = {"vertices": names, "maximal_simplices": [[names[i] for i in c] for c in cells]}
    listed = complex_to_json(complex_from_json(data))["maximal_simplices"]
    assert listed == [[names[i] for i in f] for f in facets]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0))
def test_constructor_keeps_the_facets_of_any_generating_set(seed):
    """Shuffled cells with repeats, faces of other cells and uncovered
    vertices generate the complex of their closure, which keeps their
    maximal cells as its facets."""
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    sizes = [rng.randint(1, min(n, 4)) for _ in range(rng.randint(0, 5))]
    cells = [tuple(sorted(rng.sample(range(n), size))) for size in sizes]
    faces = [tuple(sorted(rng.sample(c, rng.randint(1, len(c))))) for c in cells]
    mixed = cells + faces + rng.choices(cells, k=len(cells) // 2)
    rng.shuffle(mixed)
    _check_generated(n, mixed)


@pytest.mark.parametrize(
    "n, cells",
    [
        (0, []),
        (3, []),
        (4, [(1,), (0, 1, 2)]),  # a vertex inside a triangle
        (3, [(0,), (0, 1), (0, 1, 2)]),  # a vertex inside an edge inside a triangle
        (4, [(0, 3), (0, 1, 2, 3), (1, 2)]),  # edges inside a tetrahedron
        (5, [(0, 1, 2), (2, 3), (0, 1, 2), (1, 2)]),  # a repeat, an uncovered vertex
    ],
    ids=["empty", "points", "vertex-in-triangle", "nested", "edges-in-tetrahedron", "repeats"],
)
def test_constructor_keeps_the_facets_of_fixed_generating_sets(n, cells):
    _check_generated(n, cells)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0))
def test_cone_is_always_acyclic(seed):
    rng = random.Random(seed)
    k = random_complex(rng)
    assert homology(cone(k, "zz:apex"), reduced=True).is_trivial()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0))
def test_cliques_match_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 8)
    p = rng.random()
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in combinations(range(n), 2):
        if rng.random() < p:
            adj[a].add(b)
            adj[b].add(a)
    expected = sorted(
        (
            t
            for r in range(1, n + 1)
            for t in combinations(range(n), r)
            if all(b in adj[a] for a, b in combinations(t, 2))
        ),
        key=lambda t: (len(t), t),
    )
    assert list(cliques(adj)) == expected


@pytest.mark.parametrize(
    "n", [3, 4, 5], ids=["hollow-triangle", "boundary-tetrahedron", "boundary-4-simplex"]
)
def test_flag_witness_of_a_simplex_boundary_is_the_whole_clique(n):
    """Every face of the boundary of an (n-1)-simplex is there, so the
    counts agree below size n and the witness is the n-clique itself."""
    k = simplex_boundary(n)
    assert _flag_witness(k, _skeleton(k)) == reference_flag_witness(k) == tuple("abcde"[:n])
    assert not square_report(k).is_flag


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0))
def test_flag_witness_matches_subset_oracle(seed):
    """Complexes given by facets only: random cells of 1 to 5 vertices, so
    edges and vertices that are facets, isolated vertices, and facets of 4
    or 5 vertices beside triangles, with the boundary of a simplex of 3 to
    5 vertices planted among them in most draws, so that a clique of that
    size spans no simplex unless another cell fills it.  The count closes
    no flag complex."""
    rng = random.Random(seed)
    n = rng.randint(5, 9)
    sizes = [rng.randint(1, 5) for _ in range(rng.randint(0, 8))]
    cells = [tuple(sorted(rng.sample(range(n), size))) for size in sizes]
    planted = tuple(sorted(rng.sample(range(n), rng.randint(3, 5))))
    if rng.random() < 0.8:
        cells += combinations(planted, len(planted) - 1)
    k = SimplicialComplex([f"v{i}" for i in range(n)], cells)
    witness = _flag_witness(k, _skeleton(k))
    assert witness is not None or k._simplices is None
    assert witness == reference_flag_witness(k)


@pytest.mark.parametrize(
    "k",
    [cycle_complex(5), hollow_triangle(), barycentric_subdivision(simplex_boundary(4)),
     no_square_subdivision(presentation_complex(spine_presentation()))],
    ids=["c5", "hollow-triangle", "subdivided-sphere", "no-square-spine"],
)
def test_square_report_leaves_a_flag_complex_unclosed(k):
    """The flag count reads the edges off the graph and the larger simplices
    off the facets, so a flag complex is not closed; the hollow triangle
    (not flag) shows the count still refuses."""
    report = square_report(k)
    assert report.is_flag == (len(k.vertices) != 3)
    assert report.is_flag == (k._simplices is None)


class _BudgetedAdjacency(list):
    """Neighbour sets that refuse to be read more than `budget` times."""

    def __init__(self, sets, budget):
        super().__init__(sets)
        self.reads = 0
        self.budget = budget

    def __getitem__(self, i):
        self.reads += 1
        if self.reads > self.budget:
            raise AssertionError(f"adjacency read more than {self.budget} times")
        return super().__getitem__(i)


def test_flag_witness_stops_at_the_first_missing_clique():
    """On the 1-skeleton of K_n the witness is its first triangle, found
    before the other C(n, 3) - 1 triangles are built."""
    n = 200
    edges = list(combinations(range(n), 2))
    k = SimplicialComplex([f"v{i}" for i in range(n)], [(i,) for i in range(n)] + edges)
    assert _flag_witness(k, _skeleton(k)) == ("v0", "v1", "v2")
    adj = _BudgetedAdjacency(k.adjacency(), budget=n * n)
    first_triangle = next(c for c in cliques(adj) if len(c) == 3)
    assert first_triangle == (0, 1, 2)


def test_check_size_refuses_only_past_the_cap(monkeypatch):
    """A count equal to the cap passes and one more is refused, with the
    count, what was counted and the cap; the cap defaults to the cell limit,
    and the error is a `ValueError`, so a refused input is an input error."""
    check_size(5, "cells", 5)
    with pytest.raises(MatrixSizeError, match="^6 cells exceed the cap 5$"):
        check_size(6, "cells", 5)
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "7")
    check_size(7, "or more cells")
    with pytest.raises(ValueError, match="^8 or more cells exceed the cap 7$"):
        check_size(8, "or more cells")


def test_face_cap_is_exact():
    """The 4 faces of two or more vertices of a triangle pass a cap of 4."""
    assert faces_closure([("a", "b", "c")], max_cells=4).counts() == [3, 3, 1]
    reason = "^4 faces of two or more vertices, counted per listed set, exceed the cap 3$"
    with pytest.raises(MatrixSizeError, match=reason):
        faces_closure([("a", "b", "c")], max_cells=3)


def test_capped_yields_the_cell_limit_and_stops_at_one_more(monkeypatch):
    """Three simplices pass a limit of 3; the fourth is refused before it
    is yielded, on an endless source too."""
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "3")
    cells = [(0,), (1,), (0, 1)]
    assert list(capped(cells)) == cells
    reason = "^4 or more simplices in the nerve exceed the cap 3$"
    with pytest.raises(MatrixSizeError, match=reason):
        list(capped(cells + [(2,)]))
    pulled = []
    endless = capped(pulled.append(n) or (n,) for n in count())
    assert [next(endless) for _ in range(3)] == [(0,), (1,), (2,)]
    with pytest.raises(MatrixSizeError, match=reason):
        next(endless)
    assert pulled == [0, 1, 2, 3]
