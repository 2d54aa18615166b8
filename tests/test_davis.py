"""Davis-complex balls: cosets, realizations, walls and singular sets."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from coxcert.coxeter import INF, racg_from_flag, reduce, system_from_matrix
from coxcert.davis import (
    chamber,
    davis_ball,
    fixed_subcomplex,
    hash_union_sharp,
    singular_subcomplex,
)
from coxcert.homology import homology
from coxcert.simplicial import dim_of, faces_closure, square_report

from helpers import (
    ReferenceBall,
    cycle_complex,
    full_triangle,
    random_flag_complex,
    reference_fixed_cosets,
    reference_sharp,
    two_points,
)


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
    real = b.realization()
    counts = real.counts()
    assert counts == [9, 16, 8]  # barycentric subdivision of a square
    assert square_report(real).is_flag
    assert dim_of(real) == b.realization_dim() == 2


def test_dihedral_ball_is_a_path():
    b = davis_ball(dihedral_system(), 2)
    chambers = [c for c in b.cosets if not c.gens]
    assert sorted(c.rep for c in chambers) == [(), (0,), (0, 1), (1,), (1, 0)]
    real = b.realization()
    assert real.dim() == 1
    h = homology(real, reduced=True)
    assert h.is_trivial()  # a segment of the line
    deg = {v: 0 for v in real.vertices}
    for s in real.simplices:
        if len(s) == 2:
            deg[s[0]] += 1
            deg[s[1]] += 1
    assert sorted(deg.values()).count(1) == 2  # two loose ends


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


def test_fixed_subcomplex_dihedral():
    b = davis_ball(dihedral_system(), 2)
    fs = fixed_subcomplex(b, (0,))
    assert len(fs.vertices) == 1
    assert fs.vertices[0] == "e|s" if b.system.generators[0] == "s" else True
    with pytest.raises(ValueError):
        fixed_subcomplex(b, ())


def test_fixed_subcomplex_klein_four_wall():
    b = davis_ball(edge_nerve_system(), 2)
    wall = fixed_subcomplex(b, (0,))
    assert len(wall.vertices) == 3
    assert wall.dim() == 1
    assert homology(wall, reduced=True).is_trivial()  # a path of 3 vertices


def test_fixed_subcomplex_conjugate_reflection():
    sys = racg_from_flag(cycle_complex(4))
    b = davis_ball(sys, 2)
    g = (1, 0, 1)  # a reflection conjugate to generator 0
    fs = fixed_subcomplex(b, g)
    assert len(fs.vertices) > 0


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
        assert dim_of(sing) == nerve_dim
        assert b.singular_dim() == nerve_dim
        assert b.realization_dim() == nerve_dim + 1
        assert dim_of(b.realization()) == nerve_dim + 1


def test_finite_group_singular_acyclic():
    for sys, full_radius in ((edge_nerve_system(), 2), (triangle_nerve_system(), 3)):
        b = davis_ball(sys, full_radius)
        sing = singular_subcomplex(b)
        assert homology(sing, reduced=True).is_trivial()


def test_triangle_nerve_full_ball_size():
    # (Z/2)^3: sum over subsets T of |W|/|W_T| = 8 + 12 + 6 + 1 = 27
    b = davis_ball(triangle_nerve_system(), 3)
    assert len(b.cosets) == 27


def test_materialization_cap_counts_cosets_then_chains():
    from coxcert.homology import MatrixSizeError

    b = davis_ball(edge_nerve_system(), 2)  # singular set: 5 cosets, 9 chains
    assert sum(singular_subcomplex(b, max_cells=9).counts()) == 9
    for cap in (4, 8):
        with pytest.raises(MatrixSizeError):
            singular_subcomplex(b, max_cells=cap)


def test_realization_is_flag():
    for sys in (edge_nerve_system(), racg_from_flag(cycle_complex(4))):
        real = davis_ball(sys, 1).realization()
        assert square_report(real).is_flag


def test_chamber_two_points():
    c = chamber(two_points())
    assert len(c.complex.vertices) == 3  # a path of two edges
    assert c.complex.dim() == 1
    assert set(c.mirrors) == {"p", "q"}
    assert all(len(m.vertices) == 1 for m in c.mirrors.values())


def test_chamber_edge_nerve():
    l = faces_closure([("a", "b")])
    c = chamber(l)
    assert homology(c.complex, reduced=True).is_trivial()
    assert len(c.mirrors["a"].vertices) == 2  # endpoint plus barycenter
    inter = set(c.mirrors["a"].vertices) & set(c.mirrors["b"].vertices)
    assert len(inter) == 1  # they meet in the barycenter vertex


def test_chamber_mirror_union_is_boundary():
    for l in (two_points(), faces_closure([("a", "b")]), cycle_complex(5)):
        c = chamber(l)
        union = c.mirror_union()
        assert union == c.boundary
        assert homology(union) == homology(l)


def test_chamber_rejects_non_flag():
    from helpers import hollow_triangle

    with pytest.raises(ValueError):
        chamber(hollow_triangle())


def test_ball_json_dump():
    b = davis_ball(dihedral_system(), 1)
    data = b.to_json()
    assert data["radius"] == 1
    assert any(c["T"] for c in data["cosets"])
    assert all(isinstance(pair, list) and len(pair) == 2 for pair in data["order"])


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
            fixed_ids = set(fixed_subcomplex(b, g_nf).vertices)
            fixed = {c for c in b.cosets if b.coset_id(c) in fixed_ids}
            assert fixed == reference_fixed_cosets(b, g_nf)
            for c in b.cosets:
                # enumerate the coset elements through words over T
                t = c.gens
                words_over_t = [
                    tuple(w) for k in range(0, 2 * len(t) + 1) for w in product(t, repeat=k)
                ]
                coset_elements = _element_set(sys, [c.rep + w for w in words_over_t])
                translated = _element_set(sys, [g_nf + c.rep + w for w in words_over_t])
                assert (coset_elements == translated) == (c in fixed), (c, g)


def test_fixed_subcomplex_nonempty_for_conjugates_within_radius():
    sys = racg_from_flag(cycle_complex(5))
    for w in ((1,), (2, 0)):
        g = tuple(w) + (0,) + tuple(reversed(w))
        b = davis_ball(sys, len(g) // 2 + 1 + 1)
        fs = fixed_subcomplex(b, g)
        assert len(fs.vertices) > 0


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
    assert fast.to_json() == ref.to_json()
    assert fast.realization().simplices == ref.realization().simplices
    sing, ref_sing = singular_subcomplex(fast), singular_subcomplex(ref)
    assert (sing.vertices, sing.simplices) == (ref_sing.vertices, ref_sing.simplices)
    sharp, ref_sharp = hash_union_sharp(fast), reference_sharp(ref)
    assert (sharp.vertices, sharp.simplices) == (ref_sharp.vertices, ref_sharp.simplices)
    assert dim_of(sharp) == fast.singular_dim()
    n = sys.matrix.rank
    for s in range(n):
        wall = {c for c in fast.cosets if fast.fixes(s, c)}
        assert wall == reference_fixed_cosets(ref, (s,))
    g = reduce(sys, [rng.randrange(n) for _ in range(rng.randint(1, 4))])
    if g:
        ids = {fast.coset_id(c) for c in reference_fixed_cosets(ref, g)}
        assert set(fixed_subcomplex(fast, g).vertices) == ids
