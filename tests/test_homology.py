"""Homology engine: SNF correctness against independent oracles."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from coxcert.coxeter import racg_from_flag
from coxcert.davis import davis_ball, hash_union_sharp, singular_subcomplex
from coxcert.homology import (
    ChainComplex,
    HomologyResult,
    MatrixSizeError,
    homology,
    snf_divisors,
)
from coxcert.models import farrell_quotient
from coxcert.simplicial import SimplicialComplex, faces_closure

from helpers import (
    boundary_columns,
    cone,
    cycle_complex,
    full_triangle,
    hollow_triangle,
    projective_plane,
    random_complex,
    random_flag_complex,
    rational_betti,
    rational_rank,
    reference_coreduce,
    reference_homology,
    reference_snf_divisors,
    torus_grid,
)

# the dense SNF of the program and the sparse unit-pivot oracle behind
# reference_homology: each SNF test below holds for both
SNFS = (snf_divisors, reference_snf_divisors)


def _columns_from_dense(rows):
    n_cols = len(rows[0]) if rows else 0
    return [
        {r: rows[r][c] for r in range(len(rows)) if rows[r][c]}
        for c in range(n_cols)
    ]


def test_snf_known_matrix():
    # d1 = gcd of entries = 2, d1*d2 = gcd of 2x2 minors = 4, d1*d2*d3 = |det| = 624
    cols = _columns_from_dense([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    for snf in SNFS:
        assert sorted(snf(cols)) == [2, 2, 156]


def test_snf_single_entries():
    for snf in SNFS:
        assert snf([{0: 5}]) == [5]
        assert snf([{}]) == []
        assert sorted(snf(_columns_from_dense([[2, 0], [0, 3]]))) == [1, 6]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0))
def test_snf_rank_matches_rational_rank(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    cols = _columns_from_dense(rows)
    for snf in SNFS:
        assert len(snf(cols)) == rational_rank(cols, m)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0))
def test_snf_divisibility_chain(seed):
    rng = random.Random(seed)
    m, n = rng.randint(2, 5), rng.randint(2, 5)
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    for snf in SNFS:
        chain = sorted(snf(_columns_from_dense(rows)))
        for a, b in zip(chain, chain[1:]):
            assert b % a == 0


def test_snf_matches_sympy_smith_normal_form():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix, ZZ

    rng = random.Random(3)
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(m)]
        normal = normalforms.smith_normal_form(Matrix(rows), domain=ZZ)
        diagonal = sorted(abs(int(normal[i, i])) for i in range(min(m, n)) if normal[i, i])
        for snf in SNFS:
            assert sorted(snf(_columns_from_dense(rows))) == diagonal


def test_dense_residual_is_capped_before_allocation(monkeypatch):
    """50 nonzeros fit under the cap of 100; the 50 x 50 dense array must not."""
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "100")
    with pytest.raises(MatrixSizeError, match="50 x 50"):
        snf_divisors([{i: 2} for i in range(50)])
    assert snf_divisors([{i: 2} for i in range(10)]) == [2] * 10


def _compose(upper, lower):
    """Nonzero entries of the product of two boundary maps, one column each."""
    out = []
    for col in upper:
        acc: dict = {}
        for r, v in col.items():
            for rr, vv in lower[r].items():
                acc[rr] = acc.get(rr, 0) + v * vv
        out.append({r: v for r, v in acc.items() if v})
    return out


def test_boundary_squares_to_zero():
    """The flat face lists, signed by slot, are the full boundary columns,
    and the boundary squares to zero."""
    for k in (full_triangle(), projective_plane(), cone(cycle_complex(4), "z")):
        cc = ChainComplex(k)
        for d in range(1, k.dim() + 1):
            faces, width = cc.faces[d], d + 1
            signed = [
                {faces[i * width + j]: (-1) ** (d - j) for j in range(width)}
                for i in range(cc.sizes[d])
            ]
            assert signed == boundary_columns(k, d)
        for d in range(2, k.dim() + 1):
            assert not any(_compose(boundary_columns(k, d), boundary_columns(k, d - 1)))


def test_hollow_triangle_homology():
    h = homology(hollow_triangle(), reduced=True)
    assert h.betti(1) == 1
    assert h.betti(0) == 0
    assert h.torsion(1) == ()


def test_projective_plane_homology():
    h = homology(projective_plane())
    assert h.betti(0) == 1
    assert h.betti(1) == 0
    assert h.torsion(1) == (2,)
    assert h.betti(2) == 0


def test_torus_homology():
    h = homology(torus_grid(3))
    assert (h.betti(0), h.betti(1), h.betti(2)) == (1, 2, 1)
    assert not h.torsion(1)


def test_empty_complex_reduced_convention():
    empty = SimplicialComplex((), [])
    h = homology(empty, reduced=True)
    assert h.betti(-1) == 1
    assert homology(empty).is_trivial()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0))
def test_betti_matches_rational_oracle_and_euler(seed):
    rng = random.Random(seed)
    k = random_complex(rng)
    h = homology(k)
    oracle = rational_betti(k)
    for d, b in oracle.items():
        assert h.betti(d) == b
    alternating = sum((-1 if d % 2 else 1) * h.betti(d) for d in h.degrees())
    assert alternating == k.euler_characteristic()


def test_homology_result_equality_and_json():
    a = HomologyResult({0: 1, 1: 0}, {1: (2,)}, reduced=False)
    b = HomologyResult({0: 1}, {1: (2,)}, reduced=False)
    assert a == b
    dumped = a.to_json(max_degree=2)
    assert {"degree": 1, "betti": 0, "torsion": [2]} in dumped


def _check_against_reference(k):
    """Homology equals the oracle without coreductions, reduced and unreduced,
    and the critical cells form a chain complex: the boundaries found by
    following the pairing square to 0."""
    for reduced in (False, True):
        assert homology(k, reduced=reduced) == reference_homology(k, reduced=reduced)
    critical, columns = ChainComplex(k).coreduce()
    for d in range(2, len(critical)):
        lower = dict(zip(critical[d - 1], columns[d - 1]))
        assert not any(_compose(columns[d], lower))
    return critical


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0))
def test_coreduced_homology_matches_reference_on_random_complexes(seed):
    rng = random.Random(seed)
    _check_against_reference(random_complex(rng, rng.randint(3, 9), rng.randint(1, 12)))


def _davis_set(seed, radius, sharp):
    rng = random.Random(seed)
    ball = davis_ball(racg_from_flag(random_flag_complex(rng, rng.randint(2, 7))), radius)
    return (hash_union_sharp if sharp else singular_subcomplex)(ball)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0), st.integers(1, 2), st.booleans())
def test_coreduced_homology_matches_reference_on_davis_sets(seed, radius, sharp):
    _check_against_reference(_davis_set(seed, radius, sharp))


FIXED = {
    "rp2": projective_plane,
    "farrell-z14": lambda: farrell_quotient([(2, 5), (4, 3)]),
    "farrell-z7": lambda: farrell_quotient([(3, -2), (3, 5), (2, 1)]),
}


@pytest.mark.parametrize(
    "k, h1_torsion",
    [(FIXED["rp2"], (2,)), (FIXED["farrell-z14"], (14,)), (FIXED["farrell-z7"], (7,))],
    ids=["rp2", "farrell-z14", "farrell-z7"],
)
def test_coreduced_homology_keeps_torsion(k, h1_torsion):
    k = k()
    critical = _check_against_reference(k)
    h = homology(k)
    assert h.torsion(1) == h1_torsion
    assert sum(map(len, critical)) < len(k.simplices)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("random"), st.integers(min_value=0)),
        st.tuples(st.just("davis"), st.integers(min_value=0), st.integers(0, 2), st.booleans()),
        st.tuples(st.sampled_from(sorted(FIXED))),
    )
)
def test_coreduce_matches_eager_reference(case):
    """Pairing, then following the pairing, gives the critical cells and the
    critical boundary columns of the eager change of basis, dict for dict."""
    if case[0] == "random":
        rng = random.Random(case[1])
        k = random_complex(rng, rng.randint(3, 9), rng.randint(1, 12))
    elif case[0] == "davis":
        k = _davis_set(*case[1:])
    else:
        k = FIXED[case[0]]()
    assert ChainComplex(k).coreduce() == reference_coreduce(k)
