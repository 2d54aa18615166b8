"""Shared test fixtures: reference complexes and independent oracles."""
from __future__ import annotations

from fractions import Fraction
import random

from coxcert.coxeter import ball, in_special_subgroup, min_coset_rep
from coxcert.davis import DavisBall, SphericalCoset
from coxcert.simplicial import SimplicialComplex, faces_closure


def hollow_triangle() -> SimplicialComplex:
    return faces_closure([("a", "b"), ("b", "c"), ("a", "c")])


def full_triangle() -> SimplicialComplex:
    return faces_closure([("a", "b", "c")])


def cycle_complex(n: int, prefix: str = "c") -> SimplicialComplex:
    verts = [f"{prefix}{i}" for i in range(n)]
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    return faces_closure(edges, vertices=verts)


def two_points() -> SimplicialComplex:
    return SimplicialComplex(("p", "q"), [("p",), ("q",)])


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
    adj = {u: set() for u in verts}
    for i in range(n_vertices):
        for j in range(i + 1, n_vertices):
            if rng.random() < p:
                adj[verts[i]].add(verts[j])
                adj[verts[j]].add(verts[i])
    simplices = set()
    frontier = [(u,) for u in verts]
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


def rational_betti(k: SimplicialComplex) -> dict[int, int]:
    """Unreduced Betti numbers over Q, computed independently of the SNF path."""
    from coxcert.homology import ChainComplex

    cc = ChainComplex(k)
    dim = k.dim()
    ranks = {0: 0, dim + 1: 0}
    for d in range(1, dim + 1):
        ranks[d] = rational_rank(cc.boundary_columns(d), cc.n_cells(d - 1))
    return {d: cc.n_cells(d) - ranks[d] - ranks[d + 1] for d in range(dim + 1)}


# -- Davis-ball coset arithmetic through the general word problem -----------


class ReferenceBall(DavisBall):
    """DavisBall whose cosets and containments come from the word problem.

    Every (w, T) with w in the ball is normalized by greedy descent
    (`min_coset_rep`) and the cosets are sorted; `to_json` tests containment
    on all pairs.  An oracle for the right-angled fast paths of DavisBall.
    """

    def __init__(self, system, radius: int):
        super().__init__(system, radius)
        cosets = {
            SphericalCoset(self._normalize(w, t), t)
            for w in ball(system, radius)
            for t in self._sphericals
        }
        self.cosets = tuple(
            sorted(cosets, key=lambda c: (len(c.rep), c.rep, len(c.gens), c.gens))
        )

    def _normalize(self, w, t):
        if not t:
            return w
        return min_coset_rep(self.system, w, [self.system.generators[i] for i in t])

    def to_json(self) -> dict:
        data = super().to_json()
        data["order"] = [
            [i, j]
            for i, a in enumerate(self.cosets)
            for j, b in enumerate(self.cosets)
            if i != j and self.leq(a, b)
        ]
        return data


def reference_fixed_cosets(ball_: DavisBall, g) -> set:
    """Cosets w*W_T with g.w*W_T = w*W_T, i.e. w^-1 g w in W_T."""
    sys = ball_.system
    return {
        c
        for c in ball_.cosets
        if in_special_subgroup(
            sys, tuple(reversed(c.rep)) + tuple(g) + c.rep, [sys.generators[i] for i in c.gens]
        )
    }


def reference_sharp(ball_: DavisBall) -> SimplicialComplex:
    """Union of the generators' fixed subcomplexes, built one wall at a time."""
    verts: set[str] = set()
    simplices: set[tuple[str, ...]] = set()
    for s in range(ball_.system.matrix.rank):
        fixed = reference_fixed_cosets(ball_, (s,))
        part = ball_._order_complex(lambda c: c in fixed)
        verts.update(part.vertices)
        simplices |= part.simplices
    order = {ball_.coset_id(c): i for i, c in enumerate(ball_.cosets)}
    return SimplicialComplex(sorted(verts, key=order.__getitem__), simplices, _validate=False)
