"""Shared test fixtures: reference complexes and independent oracles."""
from __future__ import annotations

from fractions import Fraction
import heapq
from collections import deque
from itertools import combinations
from math import comb
import random

from coxcert.coxeter import _is_spherical_idx, _subset_indices
from coxcert.davis import DavisBall, SphericalCoset
from coxcert.homology import ChainComplex, MatrixSizeError
from coxcert.simplicial import SimplicialComplex, faces_closure
from coxcert.subdivide import order_complex


def is_spherical(sys, subset) -> bool:
    """True iff the special subgroup on the named generators is finite."""
    return _is_spherical_idx(sys, _subset_indices(sys, subset))


def check_invariants(k: SimplicialComplex) -> None:
    """Oracle for the representation: raise ValueError unless every simplex is a
    non-empty, strictly increasing tuple of vertex positions, the simplex set
    is closed under facets and every vertex is a singleton simplex."""
    n = len(k.vertices)
    for s in k.simplices:
        if not s:
            raise ValueError("empty simplex")
        if not all(isinstance(v, int) and 0 <= v < n for v in s):
            raise ValueError(f"simplex {s!r} uses an undeclared vertex position")
        if any(a >= b for a, b in zip(s, s[1:])):
            raise ValueError(f"simplex {s!r} is not strictly increasing")
        if len(s) > 1:
            for facet in combinations(s, len(s) - 1):
                if facet not in k.simplices:
                    raise ValueError(f"not closed under faces: missing {facet!r}")
    for v in range(n):
        if (v,) not in k.simplices:
            raise ValueError(f"missing singleton for vertex {k.vertices[v]!r}")


def named_simplices(k: SimplicialComplex) -> set[tuple[str, ...]]:
    """The simplices of k as tuples of vertex names."""
    return {tuple(k.vertices[i] for i in s) for s in k.simplices}


def hollow_triangle() -> SimplicialComplex:
    return faces_closure([("a", "b"), ("b", "c"), ("a", "c")])


def full_triangle() -> SimplicialComplex:
    return faces_closure([("a", "b", "c")])


def cycle_complex(n: int, prefix: str = "c") -> SimplicialComplex:
    verts = [f"{prefix}{i}" for i in range(n)]
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    return faces_closure(edges, vertices=verts)


def cone(k: SimplicialComplex, apex: str) -> SimplicialComplex:
    """Cone on a complex: every simplex gains a copy joined with the apex."""
    assert apex not in k.vertices
    a = len(k.vertices)  # the apex comes last, so s + (a,) stays sorted
    simplices = set(k.simplices) | {(a,)} | {s + (a,) for s in k.simplices}
    return SimplicialComplex(k.vertices + (apex,), simplices)


def two_points() -> SimplicialComplex:
    return SimplicialComplex(("p", "q"), [(0,), (1,)])


def projective_plane() -> SimplicialComplex:
    """Minimal 6-vertex triangulation of the projective plane."""
    faces = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
    ]
    return faces_closure([tuple(f"v{i}" for i in f) for f in faces])


def torus_grid(n: int) -> SimplicialComplex:
    """n-by-n grid triangulation of the torus (n >= 3)."""
    verts = [f"t{x}_{y}" for x in range(n) for y in range(n)]

    def v(x: int, y: int) -> str:
        return f"t{x % n}_{y % n}"

    faces = []
    for x in range(n):
        for y in range(n):
            faces.append((v(x, y), v(x + 1, y), v(x + 1, y + 1)))
            faces.append((v(x, y), v(x, y + 1), v(x + 1, y + 1)))
    return faces_closure(faces, vertices=verts)


def random_complex(rng: random.Random, n_vertices: int = 6, n_faces: int = 5) -> SimplicialComplex:
    verts = [f"r{i}" for i in range(n_vertices)]
    faces = []
    for _ in range(n_faces):
        size = rng.choice((1, 2, 2, 3, 3))
        faces.append(tuple(rng.sample(verts, size)))
    return faces_closure(faces, vertices=verts)


def random_flag_complex(rng: random.Random, n_vertices: int, p: float = 0.5) -> SimplicialComplex:
    """Flag complex of a random graph (used for nerve round trips)."""
    verts = [f"f{i}" for i in range(n_vertices)]
    adj = [set() for _ in verts]
    for i in range(n_vertices):
        for j in range(i + 1, n_vertices):
            if rng.random() < p:
                adj[i].add(j)
                adj[j].add(i)
    simplices = set()
    frontier = [(u,) for u in range(n_vertices)]
    while frontier:
        nxt = []
        for clique in frontier:
            simplices.add(clique)
            cands = set(adj[clique[0]])
            for u in clique[1:]:
                cands &= adj[u]
            for u in sorted(cands):
                if u > clique[-1]:
                    nxt.append(clique + (u,))
        frontier = nxt
    return SimplicialComplex(verts, simplices)


# -- independent rational-rank oracle --------------------------------------


def rational_rank(columns: list[dict[int, int]], n_rows: int) -> int:
    """Rank over Q by fraction-exact Gaussian elimination."""
    dense = [[Fraction(col.get(r, 0)) for col in columns] for r in range(n_rows)]
    rank = 0
    col = 0
    n_cols = len(columns)
    while rank < n_rows and col < n_cols:
        pivot = None
        for r in range(rank, n_rows):
            if dense[r][col]:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        dense[rank], dense[pivot] = dense[pivot], dense[rank]
        pv = dense[rank][col]
        for r in range(rank + 1, n_rows):
            if dense[r][col]:
                factor = dense[r][col] / pv
                dense[r] = [x - factor * y for x, y in zip(dense[r], dense[rank])]
        rank += 1
        col += 1
    return rank


# -- sparse unit-pivot SNF ---------------------------------------------------


def reference_snf_divisors(columns: list[dict[int, int]]) -> list[int]:
    """SNF divisors with the unit pivots eliminated sparsely first.

    Markowitz-style: the shortest column goes first, pivoting on the +-1
    entry whose row has the fewest entries, to limit fill.  What is left
    (torsion candidates) goes through `snf_divisors`.  Handles full
    boundary matrices of tens of thousands of cells, which the dense
    `snf_divisors` alone cannot: the oracle behind `reference_homology`.
    """
    from coxcert.homology import snf_divisors

    cols: dict[int, dict[int, int]] = {}
    rows: dict[int, set[int]] = {}
    for j, col in enumerate(columns):
        col = {r: v for r, v in col.items() if v}
        if col:
            cols[j] = col
            for r in col:
                rows.setdefault(r, set()).add(j)
    unit_rank = 0
    heap = [(len(c), j) for j, c in cols.items()]
    heapq.heapify(heap)
    while heap:
        size, j = heapq.heappop(heap)
        col = cols.get(j)
        if col is None:
            continue
        if len(col) != size:
            heapq.heappush(heap, (len(col), j))
            continue
        units = [r for r, v in col.items() if v in (1, -1)]
        if not units:
            continue  # left for the dense stage
        pivot_row = min(units, key=lambda r: len(rows[r]))
        pv = col[pivot_row]
        unit_rank += 1
        rest = [(r, v) for r, v in col.items() if r != pivot_row]
        for r, _ in rest:
            rows[r].discard(j)
        del cols[j]
        for c in rows.pop(pivot_row) - {j}:
            target = cols[c]
            factor = target.pop(pivot_row) * pv
            for r, v in rest:
                nv = target.get(r, 0) - factor * v
                if nv:
                    if r not in target:
                        rows[r].add(c)
                    target[r] = nv
                elif r in target:
                    del target[r]
                    rows[r].discard(c)
            if target:
                heapq.heappush(heap, (len(target), c))
            else:
                del cols[c]
    return [1] * unit_rank + snf_divisors(list(cols.values()))


# -- full boundary matrices and eager coreductions ---------------------------


def boundary_columns(k: SimplicialComplex, d: int) -> list[dict[int, int]]:
    """Columns of the degree-d boundary map of k, one dict per d-cell.

    Columns and rows are the d- and (d-1)-cells in sorted order, and the
    faces carry the sorted-vertex orientation: omitting vertex m of a
    d-cell has sign (-1)^m.  Empty for d < 1.
    """
    if d < 1:
        return []
    rows = {s: i for i, s in enumerate(k.k_simplices(d - 1))}
    signs = [(-1) ** (d - j) for j in range(d + 1)]  # combinations omit the last vertex first
    return [dict(zip(map(rows.__getitem__, combinations(s, d)), signs)) for s in k.k_simplices(d)]


def reference_chain_complex(k: SimplicialComplex) -> ChainComplex:
    """Every simplex of k, grouped by degree and sorted within each, and the
    faces of each listed in `combinations` order: the oracle for the
    degree-by-degree build of `ChainComplex` from generating simplices."""
    basis = [k.k_simplices(d) for d in range(k.dim() + 1)]
    faces: list = [[]]
    for d in range(1, len(basis)):
        face_index = {s: i for i, s in enumerate(basis[d - 1])}
        faces.append([face_index[f] for s in basis[d] for f in combinations(s, d)])
    return ChainComplex.from_faces([len(cells) for cells in basis], faces)


def reference_coreduce(k: SimplicialComplex) -> tuple[list[list[int]], list[list[dict[int, int]]]]:
    """Coreductions with an eager change of basis: the oracle for
    `ChainComplex.coreduce`, with the same pairing order and the same result.

    When a pair (a, b) is removed, every coface c of a that is not removed
    gets d(c) -= <d(c), a> <d(b), a> d(b) (Kaczynski-Mrozek-Slusarek 1998),
    restricted to the faces of b that are critical by then; entries on
    removed cells go stale and are skipped.  At the end the column of each
    critical cell is trimmed to its critical entries.
    """
    basis = [k.k_simplices(d) for d in range(k.dim() + 1)]
    top = len(basis)
    cols = [boundary_columns(k, d) for d in range(1, top)]
    # per cell: 0 active, 1 critical, 2 removed; and its number of active faces
    state = [bytearray(len(cells)) for cells in basis]
    live = [bytearray([d + 1 if d else 0]) * len(cells) for d, cells in enumerate(basis)]
    critical: list[list[int]] = [[] for _ in basis]
    queue: deque[tuple[int, int]] = deque()
    cofaces = []
    for d in range(top - 1):
        up: list[list[int]] = [[] for _ in basis[d]]
        for i, col in enumerate(cols[d]):
            for r in col:
                up[r].append(i)
        cofaces.append(up)

    def release(d: int, i: int, fill=(), pivot: int = 0) -> None:
        # cell i of degree d stops being active; a removed face hands its
        # pair's fill on to its cofaces
        if d + 1 == top:
            return
        above, count, col_above = state[d + 1], live[d + 1], cols[d]
        for c in cofaces[d][i]:
            s = above[c]
            if s == 2:
                continue
            if fill:
                target = col_above[c]
                factor = target[i] * pivot
                for r, v in fill:
                    nv = target.get(r, 0) - factor * v
                    if nv:
                        target[r] = nv
                    else:
                        del target[r]
            if s == 0:
                count[c] -= 1
                if count[c] == 1:
                    queue.append((d + 1, c))

    start = [0] * top
    while True:
        while queue:
            d, b = queue.popleft()
            if state[d][b] or live[d][b] != 1:
                continue
            below = state[d - 1]
            fill = []
            for r, v in cols[d - 1][b].items():
                if below[r] == 0:
                    a, pivot = r, v
                elif below[r] == 1:
                    fill.append((r, v))
            below[a] = state[d][b] = 2
            release(d - 1, a, fill, pivot)
            release(d, b)
        for d in range(top):
            cells, i = state[d], start[d]
            while i < len(cells) and cells[i]:
                i += 1
            start[d] = i
            if i < len(cells):
                break
        else:
            break
        cells[i] = 1
        critical[d].append(i)
        release(d, i)
    boundaries: list[list[dict[int, int]]] = [[]]
    for d in range(1, top):
        below = state[d - 1]
        boundaries.append(
            [{r: v for r, v in cols[d - 1][i].items() if below[r] == 1} for i in critical[d]]
        )
    return critical, boundaries


def reference_homology(k: SimplicialComplex, reduced: bool = False):
    """Integral homology from the SNF of every full boundary matrix, with no
    reduction before it: the oracle for the coreduced path of `homology`."""
    from coxcert.homology import HomologyResult

    if not k.simplices:
        return HomologyResult({-1: 1} if reduced else {}, {}, reduced=reduced)
    counts = k.counts()
    dim = len(counts) - 1
    ranks = {0: 1 if reduced else 0, dim + 1: 0}
    torsions = {dim + 1: ()}
    for d in range(1, dim + 1):
        divisors = reference_snf_divisors(boundary_columns(k, d))
        ranks[d], torsions[d] = len(divisors), tuple(sorted(x for x in divisors if x > 1))
    betti = {d: counts[d] - ranks[d] - ranks[d + 1] for d in range(dim + 1)}
    return HomologyResult(betti, {d: torsions[d + 1] for d in range(dim + 1)}, reduced=reduced)


def rational_betti(k: SimplicialComplex) -> dict[int, int]:
    """Unreduced Betti numbers over Q, computed independently of the SNF path."""
    counts = k.counts()
    dim = len(counts) - 1
    ranks = {0: 0, dim + 1: 0}
    for d in range(1, dim + 1):
        ranks[d] = rational_rank(boundary_columns(k, d), counts[d - 1])
    return {d: counts[d] - ranks[d] - ranks[d + 1] for d in range(dim + 1)}


# -- contraction with explicit triangle sets ---------------------------------


def reference_contraction(k: SimplicialComplex) -> SimplicialComplex:
    """Edge contractions of `contract_flag_no_squares`, checked on explicit
    triangle sets instead of the 1-skeleton: its oracle on flag 2-complexes.

    Same edge order, passes and survivor naming; each move keeps the set of
    triangles and tests the link condition on the endpoints' link edges.
    """
    n = len(k.vertices)
    adj = k.adjacency()
    triangles: set[frozenset[int]] = set()
    tri_at: list[set[frozenset[int]]] = [set() for _ in range(n)]
    for s in k.simplices:
        if len(s) == 3:
            t = frozenset(s)
            triangles.add(t)
            for v in t:
                tri_at[v].add(t)
    alive = [True] * n

    def link_edges(u: int) -> set[frozenset[int]]:
        return {t - {u} for t in tri_at[u]}

    def contraction_ok(u: int, v: int) -> bool:
        lu = link_edges(u)
        if any(e in lu for e in link_edges(v)):
            return False
        nbrs = (adj[u] | adj[v]) - {u, v}
        for x in nbrs:
            for t in tri_at[x]:
                if t <= nbrs:
                    return False
        for x in nbrs:
            for y in adj[x] & nbrs:
                if x < y:
                    xy = frozenset((x, y))
                    if (xy | {u}) not in triangles and (xy | {v}) not in triangles:
                        return False
        nbr_list = sorted(nbrs)
        for i, x in enumerate(nbr_list):
            for y in nbr_list[i + 1 :]:
                if y not in adj[x] and (adj[x] & adj[y]) - nbrs - {u, v}:
                    return False
        return True

    def contract(u: int, v: int) -> None:
        for t in list(tri_at[v]):
            triangles.discard(t)
            for w in t:
                tri_at[w].discard(t)
            rest = t - {v}
            if u in rest:
                continue
            nt = frozenset(rest | {u})
            triangles.add(nt)
            for w in nt:
                tri_at[w].add(nt)
        for w in list(adj[v]):
            adj[w].discard(v)
            if w != u:
                adj[w].add(u)
                adj[u].add(w)
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
            if alive[u] and alive[v] and v in adj[u] and contraction_ok(u, v):
                contract(u, v)
                merged += 1
        if not merged:
            break

    keep = sorted((i for i in range(n) if alive[i]), key=k.vertices.__getitem__)
    new = {i: p for p, i in enumerate(keep)}
    simplices = {(new[i],) for i in keep}
    simplices.update(tuple(sorted((new[i], new[j]))) for i in keep for j in adj[i] if i < j)
    simplices.update(tuple(sorted(new[i] for i in t)) for t in triangles)
    return SimplicialComplex([k.vertices[i] for i in keep], simplices)


# -- the right-angled word problem, without the insertion rule ---------------


def reference_reduce(sys, w) -> tuple[int, ...]:
    """ShortLex normal form in a right-angled system, in two passes.

    A stack pass deletes pairs of equal letters separated only by commuting
    letters (yielding a geodesic word), then commuting swaps sort the result
    to its lexicographically least representative.
    """
    out: list[int] = []
    for g in w:
        cancelled = False
        for j in range(len(out) - 1, -1, -1):
            if out[j] == g:
                del out[j]
                cancelled = True
                break
            if not sys.commutes(out[j], g):
                break
        if not cancelled:
            out.append(g)
    # repeatedly emit the least letter that can commute to the front of what remains
    result: list[int] = []
    while out:
        best = None
        for i, g in enumerate(out):
            if all(sys.commutes(out[j], g) for j in range(i)):
                if best is None or g < out[best]:
                    best = i
        result.append(out.pop(best))
    return tuple(result)


def reference_ball(sys, radius: int) -> list[tuple[int, ...]]:
    """Normal forms of length <= radius: BFS over `reference_reduce`, then sorted."""
    seen = {()}
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for g in range(sys.matrix.rank):
                nf = reference_reduce(sys, w + (g,))
                if len(nf) == len(w) + 1 and nf not in seen:
                    seen.add(nf)
                    nxt.append(nf)
        frontier = nxt
    return sorted(seen, key=lambda w: (len(w), w))


def reference_min_coset_rep(sys, w, t) -> tuple[int, ...]:
    """Shortest element of w*W_T, T given by generator indices, by greedy
    descent: multiply by a letter of T while that shortens the normal form."""
    cur = reference_reduce(sys, w)
    changed = True
    while changed:
        changed = False
        for s in t:
            nxt = reference_reduce(sys, cur + (s,))
            if len(nxt) < len(cur):
                cur = nxt
                changed = True
                break
    return cur


# -- Davis-ball coset arithmetic through the general word problem -----------


class ReferenceBall(DavisBall):
    """DavisBall whose cosets and containments come from the word problem.

    Every (w, T) with w in `reference_ball` is normalized by greedy descent
    (`reference_min_coset_rep`) and the cosets are sorted; `to_json` lists
    them and tests containment on all pairs.  An oracle for the right-angled
    fast paths of DavisBall, its up-neighbour walk included.
    """

    def __init__(self, system, radius: int):
        super().__init__(system, radius)
        cosets = {
            SphericalCoset(self._normalize(w, t), t)
            for w in reference_ball(system, radius)
            for t in self._sphericals
        }
        self.cosets = tuple(
            sorted(cosets, key=lambda c: (len(c.rep), c.rep, len(c.gens), c.gens))
        )

    def _normalize(self, w, t):
        return reference_min_coset_rep(self.system, w, t)

    def to_json(self) -> dict:
        gens = self.system.generators
        return {
            "radius": self.radius,
            "cosets": [
                {"rep": "".join(gens[i] for i in c.rep), "T": [gens[i] for i in c.gens]}
                for c in self.cosets
            ],
            "order": [
                [i, j]
                for i, a in enumerate(self.cosets)
                for j, b in enumerate(self.cosets)
                if i != j and self.leq(a, b)
            ],
        }


def reference_fixed_cosets(ball_: DavisBall, g) -> set:
    """Cosets w*W_T with g.w*W_T = w*W_T, i.e. w^-1 g w in W_T: its normal
    form uses only letters of T."""
    return {
        c
        for c in ball_.cosets
        if set(reference_reduce(ball_.system, c.rep[::-1] + tuple(g) + c.rep)) <= set(c.gens)
    }


def reference_extract(ball_: DavisBall, keep, max_cells=None) -> SimplicialComplex:
    """Order complex of the cosets `keep` accepts, listed chain by chain: the
    oracle for `CellIndex`.  Each kept coset is a chain, so past `max_cells`
    kept cosets MatrixSizeError comes before any up-list; past `max_cells`
    chains, from the depth-first search of `order_complex`."""
    kept = [i for i, c in enumerate(ball_.cosets) if keep(c)]
    if max_cells is not None and len(kept) > max_cells:
        raise MatrixSizeError(f"{len(kept)} cosets exceed the materialization cap")
    ids = [-1] * len(ball_.cosets)
    for n, i in enumerate(kept):
        ids[i] = n
    # the coset above c of each strict superset T of its type: c's
    # representative normalized to T, looked up among the listed cosets
    index = {c: i for i, c in enumerate(ball_.cosets)}
    up = []
    for i in kept:
        c = ball_.cosets[i]
        above = [index[(ball_._normalize(c.rep, t), t)] for t in ball_._supersets[c.gens]]
        up.append([ids[j] for j in above if ids[j] >= 0])
    return order_complex([ball_.coset_id(ball_.cosets[i]) for i in kept], up, max_cells)


def reference_realization(ball_: DavisBall, max_cells=None) -> SimplicialComplex:
    """The whole ball as an order complex."""
    return reference_extract(ball_, lambda c: True, max_cells)


def reference_singular(ball_: DavisBall, max_cells=None) -> SimplicialComplex:
    """Order complex of the cosets of non-empty type."""
    return reference_extract(ball_, lambda c: bool(c.gens), max_cells)


def reference_sharp(ball_: DavisBall) -> SimplicialComplex:
    """Union of the generators' fixed subcomplexes, built one wall at a time."""
    verts: set[str] = set()
    simplices: set[tuple[str, ...]] = set()
    for s in range(ball_.system.matrix.rank):
        fixed = reference_fixed_cosets(ball_, (s,))
        part = reference_extract(ball_, lambda c: c in fixed)
        verts.update(part.vertices)
        simplices |= named_simplices(part)
    order = {ball_.coset_id(c): i for i, c in enumerate(ball_.cosets)}
    return faces_closure(simplices, vertices=sorted(verts, key=order.__getitem__))


def reference_coset_counts(ball_: DavisBall) -> list[int]:
    """`DavisBall.coset_counts` summed one length at a time: the coefficients
    of W(t) by their linear recurrence, and those of W(t) / (1+t)^k each from
    the one before, as (1+t) c_k = c_(k-1)."""
    sizes = [len(t) for t in ball_._sphericals]
    d = max(sizes)
    f = [sizes.count(k) for k in range(d + 1)]
    # [t^j] of the denominator for j >= 1; its constant term is f_0 = 1
    denom = [
        sum((-1) ** k * f[k] * comb(d - k, j - k) for k in range(j + 1)) for j in range(1, d + 1)
    ]
    recent = deque([0] * d, maxlen=d)  # [t^(n-1)], ..., [t^(n-d)] of W(t)
    c = [0] * (d + 1)
    counts = [0] * (d + 1)
    for n in range(ball_.radius + 1):
        c[0] = comb(d, n) - sum(a * b for a, b in zip(denom, recent))
        if not c[0]:
            break  # no element of length n, so none longer
        recent.appendleft(c[0])
        for k in range(1, d + 1):
            c[k] = c[k - 1] - c[k]
        for k in range(d + 1):
            counts[k] += f[k] * c[k]
    return counts
