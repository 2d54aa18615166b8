"""Homology engine: SNF correctness against independent oracles."""
import random
from functools import partial
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from coxcert.coxeter import racg_from_flag
from coxcert.davis import CellIndex, davis_ball, hash_union_sharp, singular_subcomplex
from coxcert.homology import (
    ChainComplex,
    HomologyResult,
    coface_csr,
    homology,
    pair_ranks,
    snf_divisors,
)
from coxcert.models import farrell_quotient
from coxcert.simplicial import MatrixSizeError, SimplicialComplex, faces_closure

from helpers import (
    boundary_columns,
    chain_cells,
    cone,
    cycle_complex,
    full_triangle,
    hollow_triangle,
    projective_plane,
    random_complex,
    random_flag_complex,
    rational_betti,
    rational_rank,
    reference_chain_complex,
    reference_cofaces,
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
        assert snf(cols) == [2, 2, 156]


def test_snf_single_entries():
    for snf in SNFS:
        assert snf([{0: 5}]) == [5]
        assert snf([{}]) == []
        assert snf(_columns_from_dense([[2, 0], [0, 3]])) == [1, 6]


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
        chain = snf(_columns_from_dense(rows))
        assert all(d > 0 for d in chain)
        for a, b in zip(chain, chain[1:]):
            assert b % a == 0


def test_snf_matches_sympy_smith_normal_form():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix, ZZ

    rng = random.Random(3)
    cases = []
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        cases.append([[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(m)])
    # boundary-like: sparse columns of +-1 entries, up to 8 x 8
    for _ in range(200):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        cols = [rng.sample(range(m), rng.randint(0, min(3, m))) for _ in range(n)]
        cases.append([[rng.choice((1, -1)) if r in col else 0 for col in cols] for r in range(m)])
    for rows in cases:
        m, n = len(rows), len(rows[0])
        normal = normalforms.smith_normal_form(Matrix(rows), domain=ZZ)
        # a divisibility chain of positive integers is in increasing order
        diagonal = sorted(abs(int(normal[i, i])) for i in range(min(m, n)) if normal[i, i])
        for snf in SNFS:
            assert snf(_columns_from_dense(rows)) == diagonal


def test_dense_residual_is_capped_before_allocation(monkeypatch):
    """50 nonzeros fit under the cap of 100; the 50 x 50 dense array must
    not, though it fits a cap of 2,500."""
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "100")
    with pytest.raises(MatrixSizeError, match="^2500 entries of a dense 50 x 50 SNF array"):
        snf_divisors([{i: 2} for i in range(50)])
    assert snf_divisors([{i: 2} for i in range(10)]) == [2] * 10
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "2500")
    assert snf_divisors([{i: 2} for i in range(50)]) == [2] * 50


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


def _chain_complexes(k, inputs):
    """The chain complex built from each of `inputs`, cells that generate k.
    Each degree is a permutation of the simplices of k of that degree, the
    top one in the order of the top cells given, and slot j of each d-cell
    omits the vertex at place d - j; put in sorted order, the complex is
    `reference_chain_complex(k)`."""
    basis = [k.k_simplices(d) for d in range(k.dim() + 1)]
    rank = [{s: i for i, s in enumerate(cells)} for cells in basis]
    want = reference_chain_complex(k)
    built = []
    for given in inputs:
        cc = ChainComplex(len(k.vertices), given)
        cells = chain_cells(cc)
        assert [sorted(c) for c in cells] == basis
        if len(cells) > 1:
            assert cells[-1] == list(dict.fromkeys(s for s in given if len(s) == len(cells)))
        # relabelled: each cell, and each slot, by its place in sorted order
        faces = [[]]
        for d in range(1, len(cells)):
            width, slots = d + 1, list(map(cells[d - 1].__getitem__, cc.faces[d]))
            assert slots == [s[: d - j] + s[d - j + 1 :] for s in cells[d] for j in range(width)]
            order = sorted(range(len(cells[d])), key=cells[d].__getitem__)
            faces.append([
                rank[d - 1][f] for i in order for f in slots[i * width : (i + 1) * width]
            ])
        assert cc.sizes == want.sizes
        assert faces == want.faces
        built.append(cc)
    return built


def test_boundary_squares_to_zero():
    """The flat face lists, signed by slot, are the full boundary columns in
    the complex's own numbering, and the boundary squares to zero; an edge
    given next to a triangle is kept."""
    flap = SimplicialComplex("abcd", [(0, 1, 2), (2, 3)])
    for k in (full_triangle(), projective_plane(), cone(cycle_complex(4), "z"), flap):
        (cc,) = _chain_complexes(k, [k.maximal_simplices()])
        basis = chain_cells(cc)
        columns = [[]]
        for d in range(1, k.dim() + 1):
            faces, width = cc.faces[d], d + 1
            columns.append([
                {faces[i * width + j]: (-1) ** (d - j) for j in range(width)}
                for i in range(cc.sizes[d])
            ])
            assert columns[d] == boundary_columns(k, d, basis)
        for d in range(2, k.dim() + 1):
            assert not any(_compose(columns[d], columns[d - 1]))


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
    critical, columns = ChainComplex(len(k.vertices), k.simplices).coreduce()
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


def _sphere_and_ball() -> SimplicialComplex:
    """The boundary of the 4-simplex beside a solid tetrahedron: the
    sphere's critical 3-cell reaches none of the ball's pairs of degrees 2
    and 3, so `coreduce` makes images for top pairs that no critical cell
    reaches."""
    return faces_closure([*combinations("abcde", 4), "wxyz"])


FIXED = {
    "rp2": projective_plane,
    "farrell-z14": lambda: farrell_quotient([(2, 5), (4, 3)]),
    "farrell-z7": lambda: farrell_quotient([(3, -2), (3, 5), (2, 1)]),
    "sphere-and-ball": _sphere_and_ball,
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
@example(("sphere-and-ball",))
def test_coreduce_matches_eager_reference(case):
    """Pairing, then following the pairing, gives the critical cells and the
    critical boundary columns of the eager change of basis in the same
    numbering, dict for dict, built from every simplex or the maximal ones;
    also where some top pairs are reached from no critical top cell."""
    if case[0] == "random":
        rng = random.Random(case[1])
        k = random_complex(rng, rng.randint(3, 9), rng.randint(1, 12))
    elif case[0] == "davis":
        k = _davis_set(*case[1:])
    else:
        k = FIXED[case[0]]()
    for cells in (k.simplices, k.maximal_simplices()):
        cc = ChainComplex(len(k.vertices), cells)
        assert cc.coreduce() == reference_coreduce(k, chain_cells(cc))


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("random"), st.integers(min_value=0)),
        st.tuples(st.just("davis"), st.integers(min_value=0), st.integers(0, 2), st.booleans()),
    )
)
def test_coface_csr_matches_reference(case):
    """The CSR cofaces of each degree list, per cell and in increasing order,
    the cells of the degree above that have it as a face, whether the face
    lists are the build's arrays or `from_faces` lists; and `coreduce` on
    the list faces in sorted numbering is the eager reference."""
    if case[0] == "random":
        rng = random.Random(case[1])
        k = random_complex(rng, rng.randint(3, 9), rng.randint(1, 12))
    else:
        k = _davis_set(*case[1:])
    listed = reference_chain_complex(k)
    assert all(isinstance(f, list) for f in listed.faces)
    for cc in (ChainComplex(len(k.vertices), k.maximal_simplices()), listed):
        for d in range(1, len(cc.sizes)):
            offsets, flat = coface_csr(cc.sizes[d - 1], cc.faces[d], d + 1)
            assert len(offsets) == cc.sizes[d - 1] + 1 and offsets[-1] == len(flat)
            cofaces = [list(flat[offsets[i] : offsets[i + 1]]) for i in range(cc.sizes[d - 1])]
            assert cofaces == reference_cofaces(cc, d)
    assert listed.coreduce() == reference_coreduce(k)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("random"), st.integers(min_value=0)),
        st.tuples(st.just("davis"), st.integers(min_value=0), st.integers(0, 2), st.booleans()),
        st.tuples(st.sampled_from(sorted(FIXED))),
        st.tuples(st.just("points"), st.integers(0, 4)),
    ),
    st.integers(min_value=0),
)
def test_chain_complex_build_matches_grouped_reference(case, seed):
    """Built from every simplex, from the maximal ones, or from shuffled
    maximal simplices with repeats and nested faces added and no vertex
    named, the chain complex numbers each degree as a permutation of its
    simplices, top cells in the order given, and in sorted order has the
    cells and every face slot of the simplices grouped by degree and
    sorted; points and the empty complex included."""
    if case[0] == "random":
        rng = random.Random(case[1])
        k = random_complex(rng, rng.randint(3, 9), rng.randint(1, 12))
    elif case[0] == "davis":
        k = _davis_set(*case[1:])
    elif case[0] == "points":
        k = SimplicialComplex([f"p{i}" for i in range(case[1])], [(i,) for i in range(case[1])])
    else:
        k = FIXED[case[0]]()
    maximal = k.maximal_simplices()
    rng = random.Random(seed)
    mixed = maximal + rng.choices(maximal, k=len(maximal) // 2)
    mixed += rng.sample(sorted(k.simplices), len(k.simplices) // 4)
    rng.shuffle(mixed)
    mixed = [s for s in mixed if len(s) > 1]
    _chain_complexes(k, [k.simplices, maximal, mixed])


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("random"), st.integers(min_value=0)),
        st.tuples(st.just("davis"), st.integers(min_value=0), st.integers(0, 2), st.booleans()),
    )
)
def test_chain_complex_cap_is_exact(case):
    """With the cell limit at the boundary entries, the sum of (d+1) sizes[d],
    the build succeeds; one below, it raises.  A points-only complex and the
    empty complex build under a limit of 0."""
    if case[0] == "random":
        rng = random.Random(case[1])
        k = random_complex(rng, rng.randint(3, 9), rng.randint(1, 12))
    else:
        k = _davis_set(*case[1:])
    n, facets, sizes = len(k.vertices), k.maximal_simplices(), k.counts()
    entries = sum((d + 1) * c for d, c in enumerate(sizes) if d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COXCERT_SNF_CELL_LIMIT", str(entries))
        assert ChainComplex(n, facets).sizes == sizes
        if entries:
            mp.setenv("COXCERT_SNF_CELL_LIMIT", str(entries - 1))
            reason = f"^{entries} or more boundary entries exceed the cap {entries - 1}$"
            with pytest.raises(MatrixSizeError, match=reason):
                ChainComplex(n, facets)
        mp.setenv("COXCERT_SNF_CELL_LIMIT", "0")
        assert ChainComplex(n, [(v,) for v in range(n)]).sizes == [n]
        assert ChainComplex(0, []).sizes == []


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0), st.integers(0, 2), st.booleans())
def test_from_faces_cap_is_exact(seed, radius, sharp):
    """`from_faces` counts the slots of each degree: d + 1 per d-simplex,
    2d per d-cube, so a Davis extract's cube build writes sum_d 2d n_d
    entries.  With the cell limit at the entries, the build passes; one
    below, it raises, for the cubes `CellIndex` builds (its counts made
    first, with no limit) and for the simplices of the same set."""
    rng = random.Random(seed)
    ball = davis_ball(racg_from_flag(random_flag_complex(rng, rng.randint(2, 7))), radius)
    index = CellIndex(ball, sharp)
    cubes = index.chain_complex()
    entries = sum(map(len, cubes.faces))
    assert entries == sum(2 * d * n for d, n in enumerate(cubes.sizes))
    simplices = reference_chain_complex((hash_union_sharp if sharp else singular_subcomplex)(ball))
    faces = sum(map(len, simplices.faces))
    assert faces == sum((d + 1) * n for d, n in enumerate(simplices.sizes) if d)
    listed = partial(ChainComplex.from_faces, simplices.sizes, simplices.faces, simplices.signs)
    with pytest.MonkeyPatch.context() as mp:
        for build, n in ((index.chain_complex, entries), (listed, faces)):
            mp.setenv("COXCERT_SNF_CELL_LIMIT", str(n))
            build()
            if n:
                mp.setenv("COXCERT_SNF_CELL_LIMIT", str(n - 1))
                reason = f"^{n} boundary entries exceed the cap {n - 1}$"
                with pytest.raises(MatrixSizeError, match=reason):
                    build()


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0), st.integers(0, 2**9 - 1))
def test_pair_ranks_match_the_cone_on_the_subcomplex(seed, mask):
    """Two-level coreduction of K with A, a full subcomplex, first: the
    relative Betti numbers are the reduced ones of K u cone(A), those of A
    are its own, and the connecting ranks close the long exact sequence
    onto the Betti numbers of K, all from `reference_homology`.  No pair
    joins two levels."""
    rng = random.Random(seed)
    k = random_complex(rng, rng.randint(3, 9), rng.randint(1, 12))
    sub = [bool(mask >> v & 1) for v in range(len(k.vertices))]
    pairs = []
    follow = ChainComplex._follow

    def spy(self, d, state, place, upper, critical, cofaces):
        # the j-th pair of degrees d-1 and d is (a, upper[j]), a the lower
        # cell with place j
        lower = {place[d - 1][a]: a for a, s in enumerate(state[d - 1]) if s == 2}
        levels = self.cell_levels(0 if a else 1 for a in sub)
        pairs.extend((levels[d - 1][lower[j]], levels[d][b]) for j, b in enumerate(upper))
        return follow(self, d, state, place, upper, critical, cofaces)

    with mock.patch.object(ChainComplex, "_follow", spy):
        sub_betti, relative, connecting = pair_ranks(k, sub)
    assert all(x == y for x, y in pairs)

    inside = [s for s in k.simplices if all(sub[v] for v in s)]
    kept = [v for v in range(len(k.vertices)) if sub[v]]
    at = {v: i for i, v in enumerate(kept)}
    a = SimplicialComplex([k.vertices[v] for v in kept], [tuple(map(at.get, s)) for s in inside])
    apex = len(k.vertices)
    coned = SimplicialComplex(
        k.vertices + ("*",), [*k.simplices, (apex,), *(s + (apex,) for s in inside)]
    )
    top = len(relative)
    cone_h = reference_homology(coned, reduced=True)
    a_h, k_h = reference_homology(a), reference_homology(k)
    assert relative == [cone_h.betti(d) for d in range(top)] and cone_h.betti(top) == 0
    assert sub_betti == [a_h.betti(d) for d in range(top)]
    for d in range(top):
        after = connecting[d + 1] if d + 1 < top else 0
        assert k_h.betti(d) == sub_betti[d] - after + relative[d] - connecting[d]
