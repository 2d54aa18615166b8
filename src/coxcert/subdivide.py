"""Order complexes of posets, and the subdivisions built from them."""
from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from .homology import MatrixSizeError
from .simplicial import SimplicialComplex, square_report


def order_complex(
    names: Sequence[str], up: Sequence[Sequence[int]], max_cells: Optional[int] = None
) -> SimplicialComplex:
    """Order complex of a finite poset on the element ids 0..n-1.

    `up[i]` lists every element strictly above i, and element i becomes the
    vertex `names[i]`; vertices keep the order of `names`.  Each chain is
    found once, by a depth-first search from its least element.  More than
    `max_cells` chains raise `MatrixSizeError`.
    """
    chains: list[tuple[int, ...]] = []
    for i in range(len(names)):
        stack = [(i,)]
        while stack:
            chain = stack.pop()
            chains.append(chain)
            stack.extend([chain + (j,) for j in up[chain[-1]]])
        if max_cells is not None and len(chains) > max_cells:
            raise MatrixSizeError(f"{len(chains)} chains exceed the materialization cap")
    return SimplicialComplex(
        names, (tuple(names[j] for j in chain) for chain in chains), _validate=False
    )


def _chain_id(simplex: tuple[str, ...]) -> str:
    return "(" + " ".join(simplex) + ")"


def face_poset(
    k: SimplicialComplex, start: int = 0
) -> tuple[list[tuple[str, ...]], dict[tuple[str, ...], int], list[list[int]]]:
    """Face poset of k: faces in (size, positions) order, ids and up-lists.

    Face number i gets the id `start + i`; the up-lists, indexed by i, hold
    the ids of the strict supersets of each face.
    """
    faces = sorted(k.simplices, key=lambda s: (len(s), tuple(k._pos[v] for v in s)))
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
    return order_complex([_chain_id(s) for s in faces], up)


def _pentagon_subdivision(k: SimplicialComplex) -> SimplicialComplex:
    """Trisect edges and split each triangle into 21 cells with good links.

    Per triangle {a,b,c}: two edge points per edge, a near-corner point per
    vertex, a private mid point per edge, and a center.  Resulting vertex
    links: original links once-subdivided (old vertices), theta graphs (edge
    points), 5-cycles (mid points), 6-cycles (corner points and centers) -
    none of which contains an induced 4-cycle, for an arbitrary 2-complex.
    """
    verts: list[str] = list(k.vertices)
    simplices: set[tuple[str, ...]] = {(v,) for v in k.vertices}

    def add(*cell: str) -> None:
        cell_sorted = tuple(sorted(cell))
        simplices.add(cell_sorted)
        if len(cell) > 1:
            for r in range(1, len(cell)):
                for face in combinations(cell_sorted, r):
                    simplices.add(face)

    p_id: dict[tuple[str, str], str] = {}
    for a, b in k.k_simplices(1):
        pa, pb = f"[{a}>{b}]", f"[{b}>{a}]"
        p_id[(a, b)] = pa
        p_id[(b, a)] = pb
        verts.extend((pa, pb))
        add(a, pa)
        add(pa, pb)
        add(pb, b)
    for t in k.k_simplices(2):
        a, b, c = t
        q = {v: f"[q {v}|{' '.join(u for u in t if u != v)}]" for v in t}
        mid = {}
        for u, w in combinations(t, 2):
            other = next(x for x in t if x not in (u, w))
            mid[(u, w)] = f"[m {u} {w}@{other}]"
        z = f"[z {a} {b} {c}]"
        verts.extend(q.values())
        verts.extend(mid.values())
        verts.append(z)
        for u, w in combinations(t, 2):
            pu, pw, m = p_id[(u, w)], p_id[(w, u)], mid[(u, w)]
            # corner cells and the edge strip around the private mid point
            add(u, pu, q[u])
            add(w, pw, q[w])
            add(pu, pw, m)
            add(pu, m, q[u])
            add(pw, m, q[w])
            # center fan over the interior hexagon
            add(z, q[u], m)
            add(z, m, q[w])
    return SimplicialComplex(verts, simplices, _validate=False)


def no_square_subdivision(k: SimplicialComplex) -> SimplicialComplex:
    """Triangulate the same space so the result is flag with no empty squares.

    One pass of the pentagon subdivision scheme; every vertex link of the
    output is a square-free graph and all short cycles acquire chords, which
    is checked again on the result.
    """
    if k.dim() > 2:
        raise ValueError("no_square_subdivision requires dim <= 2")
    out = relabel_compact(_pentagon_subdivision(k), "q")
    report = square_report(out)
    if not report.flag_no_squares:
        raise RuntimeError(f"no-square subdivision failed verification: {report}")
    return out


def relabel_compact(k: SimplicialComplex, prefix: str) -> SimplicialComplex:
    """Rename vertices to short sequential ids, keeping the vertex order."""
    names = {v: f"{prefix}{i}" for i, v in enumerate(k.vertices)}
    return SimplicialComplex(
        [names[v] for v in k.vertices],
        [tuple(names[v] for v in s) for s in k.simplices],
        _validate=False,
    )


# -- flag-no-square preserving compaction ----------------------------------


def contract_flag_no_squares(k: SimplicialComplex) -> SimplicialComplex:
    """Shrink a flag-no-square 2-complex by edge contractions.

    Each contraction satisfies the link condition (no common link edge of the
    endpoints, every common neighbour spans with the edge), so it preserves
    homotopy type; a local check additionally rejects any move that would
    break flagness or create an empty square or an unfillable 4-clique.  The
    underlying homotopy type, and hence homology and the fundamental group,
    are preserved, while the triangulation generally changes PL type.
    """
    if k.dim() > 2:
        raise ValueError("contraction pass requires dim <= 2")
    n = len(k.vertices)
    adj: list[set[int]] = [set() for _ in range(n)]
    pos = k._pos
    triangles: set[frozenset[int]] = set()
    tri_at: list[set[frozenset[int]]] = [set() for _ in range(n)]
    for s in k.simplices:
        if len(s) == 2:
            a, b = pos[s[0]], pos[s[1]]
            adj[a].add(b)
            adj[b].add(a)
        elif len(s) == 3:
            t = frozenset(pos[v] for v in s)
            triangles.add(t)
            for v in t:
                tri_at[v].add(t)
    alive = [True] * n

    def link_edges(u: int) -> set[frozenset[int]]:
        return {t - {u} for t in tri_at[u]}

    def contraction_ok(u: int, v: int) -> bool:
        # link condition: no link edge shared by both endpoints
        lu = link_edges(u)
        if any(e in lu for e in link_edges(v)):
            return False
        nbrs = (adj[u] | adj[v]) - {u, v}
        # flagness in dim 2 forbids 4-cliques at the merged vertex: a triangle
        # inside the merged neighbourhood would need a 3-simplex to span
        for x in nbrs:
            for t in tri_at[x]:
                if t <= nbrs:
                    return False
        # every edge inside the merged neighbourhood must span a triangle
        for x in nbrs:
            for y in adj[x] & nbrs:
                if x < y:
                    xy = frozenset((x, y))
                    if (xy | {u}) not in triangles and (xy | {v}) not in triangles:
                        return False
        # no empty square through the merged vertex
        nbr_list = sorted(nbrs)
        for i, x in enumerate(nbr_list):
            ax = adj[x]
            for y in nbr_list[i + 1 :]:
                if y in ax:
                    continue
                for d in (ax & adj[y]) - nbrs - {u, v}:
                    return False
        return True

    def contract(u: int, v: int) -> None:
        # merge v into u
        for t in list(tri_at[v]):
            triangles.discard(t)
            for w in t:
                tri_at[w].discard(t)
            rest = t - {v}
            if u in rest:
                continue  # triangle through the contracted edge degenerates
            nt = frozenset(rest | {u})
            if len(nt) == 3:
                triangles.add(nt)
                for w in nt:
                    tri_at[w].add(nt)
        for w in list(adj[v]):
            adj[w].discard(v)
            if w != u:
                adj[w].add(u)
                adj[u].add(w)
        adj[u].discard(u)
        adj[u].discard(v)
        adj[v].clear()
        tri_at[v].clear()
        alive[v] = False

    while True:
        merged = 0
        edges = sorted(
            (len(adj[u]) + len(adj[v]), u, v)
            for u in range(n)
            if alive[u]
            for v in adj[u]
            if u < v
        )
        for _, u, v in edges:
            if not (alive[u] and alive[v]) or v not in adj[u]:
                continue
            if contraction_ok(u, v):
                contract(u, v)
                merged += 1
        if not merged:
            break

    keep = [i for i in range(n) if alive[i]]
    names = {i: k.vertices[i] for i in keep}
    simplices: set[tuple[str, ...]] = set()
    for i in keep:
        simplices.add((names[i],))
        for j in adj[i]:
            if i < j:
                simplices.add(tuple(sorted((names[i], names[j]))))
    for t in triangles:
        simplices.add(tuple(sorted(names[i] for i in t)))
    out = SimplicialComplex(sorted(names.values()), simplices, _validate=False)
    if not square_report(out).flag_no_squares:
        raise RuntimeError("contraction pass broke the flag-no-square property")
    return out
