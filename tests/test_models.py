"""Wedge models, Farrell fillings, main report."""
import hashlib
import json

import pytest

from coxcert import homology as homology_module, models as models_module
from coxcert.coxeter import INF, hyperbolicity, racg_from_flag
from coxcert.homology import homology, pair_ranks
from coxcert.models import (
    canonical_slope,
    farey_slopes,
    farrell_cells,
    farrell_h3_growth,
    farrell_quotient,
    main_theorem_report,
    poset_mapping_cylinder,
    slope_set,
    wedge_model,
    _filling,
    _grid_torus,
)
from coxcert.presentations import (
    Pi1Certificate,
    Presentation,
    presentation_complex,
    spine_certificate,
    spine_presentation,
)
from coxcert.simplicial import MatrixSizeError, complex_to_json, faces_closure, wedge
from coxcert.subdivide import barycentric_subdivision

from helpers import (
    check_invariants,
    cycle_complex,
    full_triangle,
    named_simplices,
    reference_farrell_h3_growth,
)


def test_wedge_model_homology():
    acyclic = full_triangle()
    for k in (0, 1, 5):
        w = wedge_model(acyclic, k)
        h = homology(w, reduced=True)
        assert h.betti(1) == k
        assert h.betti(2) == 0
        assert not h.torsion(1)
    assert wedge_model(acyclic, 0) == acyclic


def test_wedge_model_matches_manual_wedge():
    l = cycle_complex(5)
    model = wedge_model(l, 2)
    manual_circles = [cycle_complex(3, f"z{i}") for i in range(2)]
    manual = wedge([l] + manual_circles, ["c0", "z00", "z10"])
    assert homology(model) == homology(manual)


def test_wedge_model_torsion_unchanged():
    from helpers import projective_plane

    l = projective_plane()
    w = wedge_model(l, 3)
    h = homology(w)
    assert h.torsion(1) == (2,)
    assert h.betti(1) == 3


# -- slopes and fillings -------------------------------------------------------


def test_canonical_slope():
    assert canonical_slope(-1, 2) == (1, -2)
    assert canonical_slope(0, -1) == (0, 1)
    with pytest.raises(ValueError):
        canonical_slope(2, 4)
    with pytest.raises(ValueError):
        slope_set([(1, 0), (-1, 0)])


def test_farey_enumeration():
    assert farey_slopes(5) == ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2))
    assert len(farey_slopes(9)) == 9


def test_mapping_cylinder_identity_and_collapse():
    edge = faces_closure([("a", "b")])
    assert homology(
        poset_mapping_cylinder(edge, [([0, 1], edge)]), reduced=True
    ).is_trivial()
    pt = faces_closure([("w",)])
    assert homology(
        poset_mapping_cylinder(edge, [([0, 0], pt)]), reduced=True
    ).is_trivial()


def test_mapping_cylinder_torus_identity():
    b = _grid_torus(3)
    cyl = poset_mapping_cylinder(b, [(list(range(len(b.vertices))), b)])
    h = homology(cyl)
    assert (h.betti(0), h.betti(1), h.betti(2)) == (1, 2, 1)


def test_mapping_cylinder_rejects_non_simplicial():
    b = _grid_torus(3)
    square = faces_closure([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    bad = [0] * len(b.vertices)  # onto vertex a
    bad[1] = 2  # vertex c: a,c not adjacent in the square
    with pytest.raises(ValueError):
        poset_mapping_cylinder(b, [(bad, square)])


def test_farrell_bare_torus():
    x = farrell_quotient([])
    assert x == barycentric_subdivision(_grid_torus(3))
    h = homology(x)
    assert (h.betti(1), h.betti(2), h.betti(3)) == (2, 1, 0)


def test_farrell_is_union_of_single_cylinders():
    for slopes in ([(1, 0)], [(1, 0), (1, 2)], [(1, 0), (0, 1), (1, 1)]):
        n = 3 * max(max(abs(p), abs(q), abs(p - q)) for p, q in slopes)
        base = _grid_torus(n)
        verts: dict[str, None] = {}
        simplices = set()
        for i, (p, q) in enumerate(slopes):
            piece = poset_mapping_cylinder(base, [_filling(i, p, q, n)])
            verts.update(dict.fromkeys(piece.vertices))
            simplices |= named_simplices(piece)
        x = farrell_quotient(slopes)
        check_invariants(x)
        # each piece numbers its own vertices: renumber the union by name
        assert x == faces_closure(simplices, vertices=list(verts))


def test_farrell_output_is_pinned():
    data = json.dumps(complex_to_json(farrell_quotient([(1, 0), (1, 2)])), sort_keys=True)
    digest = hashlib.sha256(data.encode()).hexdigest()
    assert digest == "c4b931fa3781a5e98cb6805342a599f3204128d324b1bb4e1516096b9ec60162"


def test_farrell_single_filling_is_solid_torus():
    h = homology(farrell_quotient([(1, 0)]))
    assert (h.betti(1), h.betti(2), h.betti(3)) == (1, 0, 0)


def test_farrell_two_fillings_close_a_three_cycle():
    h = homology(farrell_quotient([(1, 0), (0, 1)]))
    assert h.betti(3) == 1
    assert h.betti(1) == 0 and h.betti(2) == 0


def test_farrell_lens_like_torsion():
    h = homology(farrell_quotient([(1, 0), (1, 2)]))
    assert h.betti(3) == 1
    assert h.torsion(1) == (2,)


def test_farrell_h1_is_cokernel_of_slope_matrix():
    slopes = [(1, 1), (2, 1)]
    h = homology(farrell_quotient(slopes))
    # coker [[1,1],[2,1]] has order |det| = 1
    assert h.betti(1) == 0 and h.torsion(1) == ()


def test_farrell_growth_small():
    assert farrell_h3_growth(3) == [0, 1, 2]


def test_farrell_growth_matches_the_per_prefix_oracle():
    """One pair per cylinder gives the ranks of one homology per prefix
    model, for every n <= 8; they read k - 1."""
    expected = reference_farrell_h3_growth(8)
    assert expected == list(range(8))
    for n in range(1, 9):
        assert farrell_h3_growth(n) == expected[:n]


def test_farrell_growth_builds_one_chain_complex_per_slope(monkeypatch):
    """Each cylinder is reduced on its own: one chain complex per slope,
    built from the facets of the torus filled along that slope alone, and
    no prefix model."""
    received = []
    build = homology_module.ChainComplex

    def spy(vertex_count, cells):
        cells = list(cells)
        received.append((vertex_count, cells))
        return build(vertex_count, cells)

    monkeypatch.setattr(homology_module, "ChainComplex", spy)
    assert farrell_h3_growth(4) == [0, 1, 2, 3]
    singles = [farrell_quotient([s]) for s in farey_slopes(4)]
    assert received == [(len(y.vertices), y.maximal_simplices()) for y in singles]


def test_farrell_cells_count_the_built_filling():
    """The closed form is exact on every slope's own grid, for the first 12
    Farey slopes and for slopes with q < 0."""
    for slope in farey_slopes(12) + ((1, -1), (2, -1), (1, -3), (3, -2)):
        assert farrell_cells(slope) == len(farrell_quotient([slope]).simplices)


def test_farrell_growth_caps_the_running_total(monkeypatch):
    """The cap holds the sum over the slopes, not each cylinder alone: every
    one of the first seven has at most 8,436 cells, but together they have
    27,228.  A total at the limit passes, and the sixth cylinder is built
    before its chain complex meets the limit."""
    built = []
    build = models_module.farrell_quotient

    def spy(slopes):
        built.append(slopes)
        return build(slopes)

    monkeypatch.setattr(models_module, "farrell_quotient", spy)
    assert max(map(farrell_cells, farey_slopes(7))) == 8436
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "20000")
    with pytest.raises(MatrixSizeError, match="^27228 or more cells in the Farrell cylinders"
                       " of the first n = 8 slopes exceed the cap 20000$"):
        farrell_h3_growth(8)
    assert built == []
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "18791")
    with pytest.raises(MatrixSizeError, match="^18792 or more cells in the Farrell cylinders"
                       " of the first n = 6 slopes exceed the cap 18791$"):
        farrell_h3_growth(6)
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "18792")
    with pytest.raises(MatrixSizeError, match="^22854 or more boundary entries exceed the cap"):
        farrell_h3_growth(6)
    assert built == [[s] for s in farey_slopes(6)]


def test_farrell_growth_needs_one_class_in_h2_of_the_torus(monkeypatch):
    """The long exact sequence bounds the span of the connecting maps by
    rank H2(T) = 1; any other rank is refused."""
    def doubled(k, sub):
        torus, relative, connecting = pair_ranks(k, sub)
        return [*torus[:2], 2, *torus[3:]], relative, connecting

    monkeypatch.setattr(models_module, "pair_ranks", doubled)
    with pytest.raises(ArithmeticError, match=r"slope \(1, 0\): rank H2 of the torus is 2"):
        farrell_h3_growth(2)


def test_farrell_json_leaves_the_order_complex_unclosed():
    """The JSON of a Farrell model lists the facets the order complex was
    built from, and no simplex set is made for it."""
    x = farrell_quotient(farey_slopes(2))
    listed = complex_to_json(x)["maximal_simplices"]
    assert x._simplices is None
    assert len(listed) == len(x.maximal_simplices()) > 0


def test_farrell_rejects_bad_slopes():
    with pytest.raises(ValueError):
        farrell_quotient([(2, 2)])
    with pytest.raises(ValueError):
        farrell_quotient([(1, 0), (1, 0)])


# -- the main report -----------------------------------------------------------


def _tiny_acyclic_flag_complex():
    """A 2-dimensional contractible flag-no-square complex (a coned path)."""
    from coxcert.subdivide import no_square_subdivision

    disk = faces_closure([("a", "b", "c")])
    return no_square_subdivision(disk)


def test_main_theorem_report_hyperbolic_branch():
    l = _tiny_acyclic_flag_complex()
    cert = spine_certificate()
    report = main_theorem_report(l, cert)
    assert report.ok
    assert report.hyperbolic is True
    assert (report.predicted_cd, report.predicted_gd) == (2, 3)
    assert report.dimension_accounting["ball_dim"] == 3
    assert report.certificate_order == 60


def test_main_theorem_report_non_hyperbolic_branch():
    from coxcert.presentations import presentation_complex, spine_presentation

    l = barycentric_subdivision(presentation_complex(spine_presentation()))
    cert = spine_certificate()
    report = main_theorem_report(l, cert)
    assert report.ok
    assert report.hyperbolic is False
    assert report.predicted_cd == report.predicted_gd == ">=3"
    assert report.squares.empty_squares


def test_main_theorem_report_guard_case():
    cert = spine_certificate()
    report = main_theorem_report(cycle_complex(4), cert)
    assert not report.ok
    assert "dimension" in report.hypothesis_failures
    assert "acyclicity" in report.hypothesis_failures
    assert report.predicted_cd is None


def test_main_theorem_report_invalid_certificate():
    l = _tiny_acyclic_flag_complex()
    p = Presentation(("x",), ("xx",))
    bad = Pi1Certificate(p, 3, ((0, 1, 2),))  # identity image: not nontrivial
    report = main_theorem_report(l, bad)
    assert "certificate" in report.hypothesis_failures
    for record, field in [(report, "hypothesis_failures"), (report.squares, "is_flag")]:
        with pytest.raises(AttributeError):
            setattr(record, field, ())


def test_report_branch_mirrors_square_test():
    from coxcert.simplicial import square_report

    cert = spine_certificate()
    for l in (_tiny_acyclic_flag_complex(),):
        report = main_theorem_report(l, cert)
        assert report.hyperbolic == (not square_report(l).empty_squares)


def test_report_branch_and_pairs_match_the_coxeter_system(spine_bundle):
    # the old path, which rebuilds W_L and reads its nerve, is the oracle
    cert = spine_bundle["certificate"]
    complexes = (
        _tiny_acyclic_flag_complex(),
        spine_bundle["complex"],
        barycentric_subdivision(presentation_complex(spine_presentation())),
    )
    branches = set()
    for l in complexes:
        report = main_theorem_report(l, cert)
        assert report.ok
        sys_ = racg_from_flag(l)
        assert report.hyperbolic == hyperbolicity(sys_).hyperbolic
        rows = sys_.entries
        infinite = sum(row[j] == INF for i, row in enumerate(rows) for j in range(i + 1, len(row)))
        assert report.dihedral_pair_count == infinite
        branches.add(report.hyperbolic)
    assert branches == {True, False}
