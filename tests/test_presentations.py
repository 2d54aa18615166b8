"""Presentation complexes, certificates, and the spine pipeline pieces."""
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from coxcert.homology import homology, snf_divisors
from coxcert.presentations import (
    Pi1Certificate,
    Presentation,
    _closure_order,
    find_pi1_certificate,
    free_reduce,
    presentation_complex,
    spine_certificate,
    spine_complex,
    spine_presentation,
)
from coxcert.simplicial import MatrixSizeError, SimplicialComplex, square_report

from helpers import reference_find_pi1_certificate


def exponent_sums(p: Presentation) -> list[list[int]]:
    """Abelianized relator matrix: one row per relator, one column per generator."""
    return [[r.count(g) - r.count(g.upper()) for g in p.generators] for r in p.relators]


def test_free_reduce():
    assert free_reduce("xX") == ""
    assert free_reduce("xyYX") == ""
    assert free_reduce("yyyYXYX") == "yyXYX"
    assert free_reduce("xxX") == "x"


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(("x",), ("xX",))  # freely trivial
    with pytest.raises(ValueError):
        Presentation(("x",), ("xz",))
    with pytest.raises(ValueError):
        Presentation(("X",), ("x",))
    p = Presentation(("x", "y"), ("yyyYXYX",))
    assert p.relators == ("yyXYX",)


def test_presentation_complex_disk():
    k = presentation_complex(Presentation(("x",), ("x",)))
    assert homology(k, reduced=True).is_trivial()
    assert k.euler_characteristic() == 1


def test_presentation_complex_projective_plane():
    k = presentation_complex(Presentation(("x",), ("xx",)))
    h = homology(k)
    assert h.torsion(1) == (2,)
    assert h.betti(1) == 0 and h.betti(2) == 0


def test_presentation_complex_torus_like():
    # <x, y | xyXY>: the torus relator; H1 = Z^2, H2 = Z
    k = presentation_complex(Presentation(("x", "y"), ("xyXY",)))
    h = homology(k)
    assert h.betti(1) == 2 and h.betti(2) == 1


def test_presentation_complex_euler_characteristic():
    for gens, rels in ((("x",), ("xx",)), (("x", "y"), ("xyXY",)), (("a", "b"), ("ab", "abab"))):
        p = Presentation(gens, rels)
        k = presentation_complex(p)
        assert k.euler_characteristic() == 1 - len(gens) + len(rels)


def test_presentation_h1_matches_abelianization():
    cases = [
        Presentation(("x",), ("xx",)),
        Presentation(("x", "y"), ("xyXY",)),
        spine_presentation(),
        Presentation(("a", "b"), ("aabb", "abab")),
    ]
    for p in cases:
        k = presentation_complex(p)
        h = homology(k)
        rows = exponent_sums(p)
        cols = [
            {r: rows[r][c] for r in range(len(rows)) if rows[r][c]}
            for c in range(len(p.generators))
        ]
        divisors = snf_divisors(cols)
        rank = len(divisors)
        assert h.betti(1) == len(p.generators) - rank
        assert h.torsion(1) == tuple(sorted(d for d in divisors if d > 1))
        # H2 of a presentation complex is the kernel of the relator matrix
        assert h.betti(2) == len(p.relators) - rank


def test_spine_presentation_data():
    p = spine_presentation()
    assert exponent_sums(p) == [[3, -2], [-2, 1]]
    x = presentation_complex(p)
    assert homology(x, reduced=True).is_trivial()


def test_certificate_search_finds_alt5():
    cert = spine_certificate()
    assert cert.valid
    assert cert.subgroup_order() == 60
    assert cert.relators_killed()


def test_certificate_invalid_not_exception():
    p = Presentation(("x",), ("x",))
    cert = Pi1Certificate(p, 3, ((1, 2, 0),))
    assert not cert.relators_killed()
    assert not cert.valid
    identity_cert = Pi1Certificate(p, 3, ((0, 1, 2),))
    assert identity_cert.relators_killed()
    assert not identity_cert.valid  # trivial image


def test_presentations_and_certificates_are_frozen():
    p = Presentation(("x", "y"), ("yyyYXYX",))
    same = Presentation(["x", "y"], ["yyXYX"])  # stored freely reduced, as tuples
    assert p == same and hash(p) == hash(same) and len({p, same}) == 1
    assert p != Presentation(("x", "y"), ("yyXY",))
    for record, field in [(p, "relators"), (spine_certificate(), "images")]:
        with pytest.raises(AttributeError):
            setattr(record, field, ())


def test_no_certificate_for_trivial_group():
    p = Presentation(("x",), ("x",))
    assert find_pi1_certificate(p, 3) is None
    assert find_pi1_certificate(Presentation((), ()), 3) is None


@st.composite
def small_presentations(draw, max_generators: int = 3) -> Presentation:
    """One to `max_generators` generators and up to three relators of length
    at most 8."""
    gens = "xyz"[: draw(st.integers(1, max_generators))]
    word = st.text(alphabet=gens + gens.upper(), min_size=1, max_size=8)
    relators = draw(st.lists(word.filter(free_reduce), max_size=3))
    return Presentation(tuple(gens), relators)


@st.composite
def presentations_with_degree(draw) -> tuple[Presentation, int]:
    """A degree from 3 to 5 and a presentation, of at most two generators at
    degree 5, where the oracle tries up to 120^2 tuples."""
    degree = draw(st.sampled_from([3, 4, 5]))
    return draw(small_presentations(3 if degree < 5 else 2)), degree


@settings(max_examples=60, deadline=None)
@given(presentations_with_degree())
def test_certificate_search_matches_exhaustive_oracle(case):
    p, degree = case
    cert = find_pi1_certificate(p, degree)
    assert (None if cert is None else cert.images) == reference_find_pi1_certificate(p, degree)


def test_certificate_search_keeps_a_double_transposition_first():
    """<x, y | x^2, y^3, (xy)^5> is Alt(5); at degree 5 the least
    certificate sends x to (12)(34).  A permutation of order 2 is a
    transposition or a product of two, so a search that tried one first
    image per order, not per cycle type, would try only (34) and find no
    certificate.  At degree 4 no least certificate starts with a double
    transposition: the image group would be Z2, or have a quotient of order
    2 or 3 in which x dies (by the sign, or from A4 or V4), and either gives
    a lesser certificate, sending x to a transposition or to 1."""
    p = Presentation(("x", "y"), ("xx", "yyy", "xyxyxyxyxy"))
    cert = find_pi1_certificate(p, 5)
    assert cert.images == ((0, 2, 1, 4, 3), (1, 3, 2, 0, 4))
    assert cert.images == reference_find_pi1_certificate(p, 5)
    assert cert.subgroup_order() == 60


def test_second_nerve_certificate():
    """<x, y | x^7 = (xy)^2 = y^3>: its relator matrix has determinant +1,
    and the (2, 3, 7) triangle group it maps onto maps onto PSL(2, 7), of
    order 168 on 7 points.  No non-trivial image of degree 6 kills it."""
    p = Presentation(("x", "y"), ("xxxxxxxYXYX", "yyyYXYX"))
    assert exponent_sums(p) == [[5, -2], [-2, 1]]
    cert = find_pi1_certificate(p, 7)
    assert cert.images == ((1, 2, 3, 4, 5, 6, 0), (0, 6, 1, 5, 3, 4, 2))
    assert cert.valid and cert.subgroup_order() == 168
    assert find_pi1_certificate(p, 6) is None


def test_spine_build_reads_one_graph_of_the_subdivision(monkeypatch):
    """The 1279-vertex subdivision's 1-skeleton is built once, for the flag
    count, the square census and the contraction, and the subdivision is
    never closed; the 136-vertex output is checked on the final graph."""
    adjacency, simplices = SimplicialComplex.adjacency, SimplicialComplex.simplices
    calls = Counter()

    def counted(k):
        calls[len(k.vertices)] += 1
        return adjacency(k)

    def closed(k):
        assert len(k.vertices) != 1279, "the subdivision was closed"
        return simplices.fget(k)

    monkeypatch.setattr(SimplicialComplex, "adjacency", counted)
    monkeypatch.setattr(SimplicialComplex, "simplices", property(closed))
    l, squares = spine_complex()
    assert calls == {1279: 1}
    assert len(l.vertices) == 136 and squares.flag_no_squares


def test_spine_build_checks_the_subdivision_once(monkeypatch):
    """The contraction's precondition checks the 1279-vertex subdivision once,
    for flagness and empty squares, and its postcondition the 136-vertex
    result."""
    import coxcert.simplicial as simplicial

    calls = Counter()

    def counted(kind, fn):
        def wrapper(k, graph):
            calls[kind, len(k.vertices)] += 1
            return fn(k, graph)

        return wrapper

    monkeypatch.setattr(simplicial, "_flag_witness", counted("flag", simplicial._flag_witness))
    monkeypatch.setattr(simplicial, "_empty_squares", counted("squares", simplicial._empty_squares))
    spine_complex()
    assert calls == {
        ("flag", 1279): 1, ("squares", 1279): 1, ("flag", 136): 1, ("squares", 136): 1
    }


def test_subgroup_closure_is_capped_level_by_level():
    """A transposition and a 9-cycle generate Sym(9), of order 362,880: the
    closure is refused after the level that takes it past 100,000 elements,
    a lower bound on the order.  Sym(8), of order 40,320, is closed."""
    def gens(n):
        return [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]

    assert _closure_order(gens(8), 8) == 40320
    reason = "^106700 or more elements in the image subgroup exceed the cap 100000$"
    with pytest.raises(MatrixSizeError, match=reason):
        _closure_order(gens(9), 9)
