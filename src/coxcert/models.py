"""Wedge and Farrell classifying-space models and the main dimension report."""
from __future__ import annotations

from itertools import combinations, islice
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .homology import MatrixSizeError, homology, pair_ranks
from .presentations import Pi1Certificate
from .simplicial import (
    SimplicialComplex,
    SquareReport,
    cell_limit,
    faces_closure,
    square_report,
    wedge,
)
from .subdivide import _chain_id, face_poset, order_complex
# unused here, but kept bound: the benchmark's tracing hooks wrap these names
from .coxeter import hyperbolicity, racg_from_flag  # noqa: F401
from .subdivide import barycentric_subdivision  # noqa: F401


# -- wedge model ---------------------------------------------------------------


def wedge_model(l: SimplicialComplex, k: int) -> SimplicialComplex:
    """L wedge k triangulated circles at the first vertex of L."""
    if not l.vertices:
        raise ValueError("wedge model needs a non-empty complex")
    if k < 0:
        raise ValueError("circle count must be >= 0")
    circles = [_circle(f"s1_{i}_", 3) for i in range(k)]
    return wedge([l, *circles], [l.vertices[0]] + [c.vertices[0] for c in circles])


# -- main theorem report --------------------------------------------------------


class MainTheoremReport(NamedTuple):
    """Dimension predictions for the virtually-cyclic classifying space.

    Hyperbolic branch: cohomological dimension 2 and geometric dimension 3,
    with the upper bound coming from dim(ball) = dim(nerve) + 1 = 3 and
    cell attachments in dimension at most 2.  Non-hyperbolic branch: both
    dimensions agree and are at least 3.
    """

    nerve_dim: int
    nerve_acyclic: bool
    squares: SquareReport
    hyperbolic: Optional[bool]
    certificate_order: Optional[int]
    dihedral_pair_count: int
    hypothesis_failures: tuple[str, ...]
    predicted_cd: Optional[object]  # int or ">=3"
    predicted_gd: Optional[object]
    dimension_accounting: Optional[dict]

    @property
    def ok(self) -> bool:
        return not self.hypothesis_failures

    def to_json(self) -> dict:
        return {
            "nerve": {
                "dim": self.nerve_dim,
                "acyclic": self.nerve_acyclic,
                "flag": self.squares.is_flag,
                "empty_squares": len(self.squares.empty_squares),
            },
            "hyperbolic": self.hyperbolic,
            "certificate_order": self.certificate_order,
            "dihedral_pairs": self.dihedral_pair_count,
            "hypothesis_failures": list(self.hypothesis_failures),
            "predicted_cd": self.predicted_cd,
            "predicted_gd": self.predicted_gd,
            "dimension_accounting": self.dimension_accounting,
        }


def main_theorem_report(
    l: SimplicialComplex, cert: Pi1Certificate, squares: Optional[SquareReport] = None
) -> MainTheoremReport:
    """Check the hypothesis bundle on L and emit the dimension predictions.

    One square census of L decides both flagness and the branch: a flag L
    is the nerve of W_L, so W_L is hyperbolic exactly when L has no empty
    square, and its infinite dihedral pairs are the non-edges of L.  A
    caller that already holds the census of L passes it as `squares`.
    """
    sq = square_report(l) if squares is None else squares
    dim = l.dim()
    acyclic = homology(l, reduced=True).is_trivial()
    order = cert.subgroup_order() if cert.valid else None
    checks = (("flag", sq.is_flag), ("dimension", dim == 2), ("acyclicity", acyclic),
              ("certificate", order is not None))
    failures = tuple(name for name, holds in checks if not holds)
    hyperbolic = cd = gd = accounting = None
    pairs = 0
    if not failures:
        hyperbolic = not sq.empty_squares
        n = len(l.vertices)
        pairs = n * (n - 1) // 2 - l.counts()[1]
        if hyperbolic:
            accounting = {
                "nerve_dim": dim,
                "ball_dim": dim + 1,
                "vc_attachment_max_dim": 2,
                "gd_upper": max(dim + 1, 2 + 1),
            }
            cd, gd = 2, 3
        else:
            cd = gd = ">=3"
    return MainTheoremReport(
        nerve_dim=dim,
        nerve_acyclic=acyclic,
        squares=sq,
        hyperbolic=hyperbolic,
        certificate_order=order,
        dihedral_pair_count=pairs,
        hypothesis_failures=failures,
        predicted_cd=cd,
        predicted_gd=gd,
        dimension_accounting=accounting,
    )


# -- slopes ---------------------------------------------------------------------


def canonical_slope(p: int, q: int) -> tuple[int, int]:
    if p == 0 and q == 0:
        raise ValueError("(0, 0) is not a slope")
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError(f"slope ({p}, {q}) is not primitive")
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    return (p, q)


def slope_set(slopes: Iterable[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    """Canonical primitive directions in Z^2, identified up to sign."""
    canon = []
    for p, q in slopes:
        c = canonical_slope(int(p), int(q))
        if c in canon:
            raise ValueError(f"parallel slopes: {c} repeated")
        canon.append(c)
    return tuple(canon)


def farey_slopes(n: int) -> tuple[tuple[int, int], ...]:
    """First n primitive slopes: (1,0), (0,1), then mediant levels p+q = 2, 3, ...

    Within a level, smaller q first.  Only non-negative directions appear;
    slopes are identified up to sign so this ordering is a canonical
    enumeration of distinct directions.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return tuple(islice(_farey(), n))


def _farey() -> Iterator[tuple[int, int]]:
    """Every slope of `farey_slopes`, in its order, one at a time."""
    yield from [(1, 0), (0, 1)]
    s = 2
    while True:
        for q in range(1, s):
            if gcd(s - q, q) == 1:
                yield (s - q, q)
        s += 1


# -- torus with slope fillings ----------------------------------------------


def _grid_torus(n: int) -> SimplicialComplex:
    verts = [f"t{x}_{y}" for x in range(n) for y in range(n)]

    def v(x: int, y: int) -> str:
        return f"t{x % n}_{y % n}"

    faces = []
    for x in range(n):
        for y in range(n):
            faces.append((v(x, y), v(x + 1, y), v(x + 1, y + 1)))
            faces.append((v(x, y), v(x, y + 1), v(x + 1, y + 1)))
    return faces_closure(faces, vertices=verts)


def poset_mapping_cylinder(
    source: SimplicialComplex,
    maps: Sequence[tuple[Sequence[int], SimplicialComplex]],
) -> SimplicialComplex:
    """Order complex of the mapping-cylinder poset of simplicial maps.

    `maps` holds `(vertex_map, target)` pairs out of one source, where
    `vertex_map[i]` is the target position of source vertex i.  Elements
    are the faces of the source and of each target ordered by inclusion,
    with a target face below a source face whenever it is a face of that
    map's image.  The result contains the barycentric subdivisions of all
    ends and carries the homotopy type of the topological mapping cylinders
    glued along the source.  Targets share no vertex name.  Vertices come in
    blocks: the first target's faces, the source faces, then the other
    targets' faces.
    """
    # source faces keep barycentric naming (the source end is the barycentric
    # subdivision); target faces get their own namespace
    ends = [t for _, t in maps[:1]] + [source] + [t for _, t in maps[1:]]
    at = 1 if maps else 0  # position of the source among the ends
    names: list[str] = []
    up: list[list[int]] = []
    ids = []
    for e, k in enumerate(ends):
        faces, k_ids, k_up = face_poset(k, len(names))
        tag = "" if e == at else "~"
        names += [tag + _chain_id(k, s) for s in faces]
        up += k_up
        ids.append(k_ids)
    source_ids = ids.pop(at)
    for (vertex_map, target), target_ids in zip(maps, ids):
        for s, i in source_ids.items():
            image = tuple(sorted({vertex_map[v] for v in s}))
            if image not in target_ids:
                named = tuple(source.vertices[v] for v in s)
                raise ValueError(f"vertex map is not simplicial on {named}")
            for r in range(1, len(image) + 1):
                for face in combinations(image, r):
                    up[target_ids[face]].append(i)
    return order_complex(names, up)


def _circle(tag: str, m: int) -> SimplicialComplex:
    verts = [f"{tag}{j}" for j in range(m)]
    edges = [(verts[j], verts[(j + 1) % m]) for j in range(m)]
    return faces_closure(edges, vertices=verts)


def _filling(i: int, p: int, q: int, n: int) -> tuple[list[int], SimplicialComplex]:
    """Map of the n-by-n grid torus onto circle i, collapsing the (p, q) direction."""
    m = 3  # target circle size; edge spans stay within one third of the grid
    # torus vertex t{x}_{y} sits at position x*n + y, circle vertex v{j} at j
    vmap = [((p * y - q * x) % n) * m // n for x in range(n) for y in range(n)]
    return vmap, _circle(f"c{i}v", m)


def farrell_quotient(slopes: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Torus with one solid-torus filling per slope, as a simplicial complex.

    Each filling is the mapping cylinder of a degree-(-q, p) circle-valued
    simplicial map on a common grid torus: collapsing in the (p, q) direction
    kills that curve class in the filling, exactly as gluing a solid torus
    along its boundary with meridian (p, q).  The shared end of all cylinders
    is the barycentric subdivision of the grid torus, which is all there is
    with no slopes.
    """
    slopes = slope_set(slopes)
    spans = [max(abs(p), abs(q), abs(p - q)) for p, q in slopes]
    n = 3 * max(spans, default=1)
    # the circles share no vertex, so every chain lies in a single cylinder
    maps = [_filling(i, p, q, n) for i, (p, q) in enumerate(slopes)]
    return poset_mapping_cylinder(_grid_torus(n), maps)


def farrell_cells(slope: Sequence[int]) -> int:
    """Number of simplices of `farrell_quotient([slope])`: 104 n^2 + 12 on
    its n x n grid, n = 3 * span.

    The barycentric subdivision of the grid torus has 36 n^2 chains.  The
    cylinder adds the 12 chains of the circle's face poset and, per torus
    chain, one simplex per circle chain below the image of its least face:
    1 over a vertex, 5 over an edge.  Chains start at a vertex in 25 ways,
    at an edge in 3 and at a triangle in 1.  The map sends grid point (x, y)
    to the arc of p*y - q*x mod n, which takes each value at n points, and
    the three arcs have length span.  So a grid edge of step d lies over a
    circle edge at 3|d|n points: the steps -q, p and p - q sum to 2 span in
    size, giving 2 n^2 such edges, and a triangle, whose steps span one
    arc, always lies over a circle edge.  In all 36 n^2 + 12 + 36 n^2 + 4 *
    3 * 2 n^2 + 4 * 2 n^2.
    """
    p, q = slope
    n = 3 * max(abs(p), abs(q), abs(p - q))
    return 104 * n * n + 12


def farrell_h3_growth(n: int) -> list[int]:
    """Rank of H3 after filling the first k Farey slopes, for k = 1..n.

    X_k, the torus T filled along the first k slopes, is the union of the
    cylinders C_i, which meet only in T.  T is 2-dimensional, so H3(T) = 0
    and H2(T) has no boundaries.  By excision H3(X_k, T) is the direct sum
    of the H3(C_i u T, T), so the long exact sequence of (X_k, T) gives
    rank H3(X_k) = sum_{i<=k} r_i - rank span{d_i}, with r_i = rank
    H3(C_i u T, T) and d_i its connecting map into H2(T).  H2(T) has rank
    1, so the span has rank 1 exactly when some d_i is not 0.

    So each cylinder is reduced on its own, as the pair (Y_i, T) with Y_i =
    `farrell_quotient([s_i])` on its slope's own grid (`pair_ranks`), and
    no prefix model is built.  On any grid the pair is a simplicial
    approximation of the same linear map T -> S^1, so neither r_i nor
    whether d_i is 0 depends on the grid.  The torus is the full
    subcomplex on the faces of the grid torus: every vertex but the faces
    of the filling circle, tagged "~" (`poset_mapping_cylinder`).  A rank
    of H2(T) other than 1 raises ArithmeticError.

    Before any cylinder is built, their cells are summed slope by slope
    (`farrell_cells`); past the cell limit, MatrixSizeError, so the work
    of any n is bounded.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    slopes, cells, limit = [], 0, cell_limit()
    for slope in islice(_farey(), n):
        cells += farrell_cells(slope)
        if cells > limit:
            raise MatrixSizeError(
                f"farrell growth with {cells} cells in the cylinders of the first"
                f" {len(slopes) + 1} slopes exceeds cell limit"
            )
        slopes.append(slope)
    out = []
    total, bounded = 0, False
    for slope in slopes:
        y = farrell_quotient([slope])
        torus, relative, connecting = pair_ranks(y, [v[0] != "~" for v in y.vertices])
        if torus[2] != 1:
            raise ArithmeticError(f"slope {slope}: rank H2 of the torus is {torus[2]}, not 1")
        total += relative[3]
        bounded = bounded or connecting[3] > 0
        out.append(total - bounded)
    return out
