"""Order complexes of posets, and the subdivisions built from them."""
from __future__ import annotations

from functools import reduce
from itertools import chain, combinations
from operator import or_
from typing import Sequence

from .simplicial import SimplicialComplex, _skeleton, cliques, square_report


def order_complex(names: Sequence[str], up: Sequence[Sequence[int]]) -> SimplicialComplex:
    """Order complex of a finite poset on the element ids 0..n-1.

    `up[i]` lists every element strictly above i, and element i becomes the
    vertex at position i, named `names[i]`.  Only the maximal chains are
    listed, since they are the facets of the order complex (Wachs, Poset
    Topology, 2007): each once, by a depth-first search along the covers of
    each element (up[i] less everything above an element of up[i]) from
    each minimal element.  The complex keeps them as its facets.
    """
    covers = []
    for above in up:
        higher = set().union(*map(up.__getitem__, above))
        covers.append([j for j in above if j not in higher])
    has_below = set(chain.from_iterable(up))
    stack = [(i,) for i in range(len(names)) if i not in has_below]
    facets = []
    while stack:
        path = stack.pop()
        nxt = covers[path[-1]]
        if nxt:
            stack.extend([path + (j,) for j in nxt])
        else:
            facets.append(tuple(sorted(path)))
    return SimplicialComplex(names, facets)


def _chain_id(k: SimplicialComplex, simplex: tuple[int, ...]) -> str:
    """Vertex name of a simplex of k in a subdivision."""
    return "(" + " ".join(k.vertices[i] for i in simplex) + ")"


def face_poset(
    k: SimplicialComplex, start: int = 0
) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], int], list[list[int]]]:
    """Face poset of k: faces in (size, lex) order, ids and up-lists.

    Face number i gets the id `start + i`; the up-lists, indexed by i, hold
    the ids of the strict supersets of each face.
    """
    faces = sorted(k.simplices, key=lambda s: (len(s), s))
    ids = {s: start + i for i, s in enumerate(faces)}
    up: list[list[int]] = [[] for _ in faces]
    for s in faces:
        for r in range(1, len(s)):
            for face in combinations(s, r):
                up[ids[face] - start].append(ids[s])
    return faces, ids, up


def barycentric_subdivision(k: SimplicialComplex) -> SimplicialComplex:
    """Order complex of the face poset; vertex ids name the parent simplices.

    The output is always a flag complex and carries the same homology.
    """
    faces, _, up = face_poset(k)
    return order_complex([_chain_id(k, s) for s in faces], up)


def no_square_subdivision(k: SimplicialComplex) -> SimplicialComplex:
    """Triangulate the same space so the result is flag with no empty squares.

    One pass of the pentagon scheme: trisect the edges and split each
    triangle {a,b,c} into 21 cells.  Per triangle: two edge points per edge,
    a near-corner point per vertex, a private mid point per edge, and a
    center.  Resulting vertex links: original links once-subdivided (old
    vertices), theta graphs (edge points), 5-cycles (mid points), 6-cycles
    (corner points and centers) - none of which contains an induced 4-cycle,
    for an arbitrary 2-complex, and all short cycles acquire chords.  The
    vertices are named q0, q1, ... in the order they are made: the old
    vertices first, then two edge points per edge, then per triangle its
    three corner points, three mid points and center.  Nothing is checked
    here; `contract_flag_no_squares` checks that its input is flag with no
    empty square.
    """
    if k.dim() > 2:
        raise ValueError("no_square_subdivision requires dim <= 2")
    count = len(k.vertices)
    point: dict[tuple[int, int], int] = {}  # (a, b): the point of edge ab next to a
    cells: list[tuple[int, ...]] = []  # each in increasing order
    for a, b in k.k_simplices(1):
        pa, pb = count, count + 1
        point[(a, b)], point[(b, a)] = pa, pb
        count += 2
        cells += [(a, pa), (pa, pb), (b, pb)]
    for t in k.k_simplices(2):
        q = dict(zip(t, range(count, count + 3)))
        sides = list(combinations(t, 2))
        mid = dict(zip(sides, range(count + 3, count + 6)))
        z = count + 6
        count += 7
        for u, w in sides:
            pu, pw, m = point[(u, w)], point[(w, u)], mid[(u, w)]
            cells += [
                # corner cells and the edge strip around the private mid point
                (u, pu, q[u]),
                (w, pw, q[w]),
                (pu, pw, m),
                (pu, q[u], m),
                (pw, q[w], m),
                # center fan over the interior hexagon
                (q[u], m, z),
                (q[w], m, z),
            ]
    return SimplicialComplex([f"q{i}" for i in range(count)], cells)


# -- flag-no-square preserving compaction ----------------------------------


def contract_flag_no_squares(k: SimplicialComplex) -> SimplicialComplex:
    """Shrink a flag 2-complex with no empty square by edge contractions.

    The 1-skeleton is built once (`_skeleton`): one `square_report` on it
    checks the input, where a clique that spans no simplex, or an empty
    square, raises `ValueError` naming the first one, and the contraction
    then works on those same neighbour sets and bitsets.  As the input is
    flag, its triangles are the 3-cliques of the 1-skeleton and every move
    is decided on the graph alone, so the input is never closed.  The
    output, the clique complex of the final graph, is checked on that
    graph renumbered.  In a flag 2-complex each
    edge meets the link condition of Dey, Edelsbrunner, Guha and Nekhayev
    ("Topology preserving edge contraction", 1999), since a common link
    edge of u and v would be a 4-clique.  So every contraction preserves
    homotopy type, hence homology and the fundamental group, but generally
    not PL type.

    Merging v into u is refused when a vertex outside N(u) | N(v) is
    adjacent to a vertex of A = N(u) - N[v] and to one of B = N(v) - N[u]:
    one test on integer bitsets of the neighbour sets.  Every move taken
    keeps the graph flag with no empty square, so the test is exact at
    each move.  An edge x-y from A to B would close the empty square
    u-x-y-v, so every triangle at the merged vertex comes from one at u or
    v.  A new empty square d-x-w-y at the merged vertex w was the empty
    square d-x-u-y (or d-x-v-y) already when x and y are both neighbours of
    u (or both of v); otherwise one is in A and one in B, the refused case.
    Squares away from w are unchanged.
    """
    if k.dim() > 2:
        raise ValueError("contraction pass requires dim <= 2")
    adj, bits = graph = _skeleton(k)  # a vertex merged away keeps no neighbours
    _, witness, squares = square_report(k, graph)
    if witness is not None:
        raise ValueError(f"contraction pass requires a flag complex; {witness} spans no simplex")
    if squares:
        raise ValueError(f"contraction pass requires no empty square; {squares[0]} is one")
    n = len(k.vertices)
    gone: set[int] = set()

    def crossing_ok(u: int, v: int) -> bool:
        # near_a, near_b: every neighbour of A = N(u) - N[v], of B = N(v) - N[u]
        near_a = reduce(or_, map(bits.__getitem__, adj[u].difference(adj[v], (v,))), 0)
        if not near_a:
            return True
        near_b = reduce(or_, map(bits.__getitem__, adj[v].difference(adj[u], (u,))), 0)
        return not near_a & near_b & ~(bits[u] | bits[v])

    def contract(u: int, v: int) -> None:
        # merge v into u
        ub, vb = 1 << u, 1 << v
        for w in adj[v]:
            adj[w].discard(v)
            if w != u:
                adj[w].add(u)
                adj[u].add(w)
                bits[w] = bits[w] & ~vb | ub
        adj[u].discard(v)
        adj[v].clear()
        bits[u], bits[v] = (bits[u] | bits[v]) & ~(ub | vb), 0
        gone.add(v)

    while True:
        merged = 0
        edges = sorted(
            (len(adj[u]) + len(adj[v]), u, v)
            for u in range(n)
            for v in adj[u]
            if u < v
        )
        for _, u, v in edges:
            if v in adj[u] and crossing_ok(u, v):
                contract(u, v)
                merged += 1
        if not merged:
            break

    # the survivors in name order; the output is the clique complex of the
    # final graph, so a 4-clique would be a 3-simplex, not a flag failure
    keep = sorted(set(range(n)) - gone, key=k.vertices.__getitem__)
    new = {i: p for p, i in enumerate(keep)}
    final = [{new[j] for j in adj[i]} for i in keep]
    out = SimplicialComplex([k.vertices[i] for i in keep], cliques(final))
    if out.dim() > 2 or not square_report(out, _skeleton(out, final)).flag_no_squares:
        raise RuntimeError("contraction pass broke the flag-no-square property")
    return out
