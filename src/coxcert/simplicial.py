"""Finite abstract simplicial complexes and their basic constructions."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Mapping, Optional, Sequence


class SimplicialComplex:
    """Immutable abstract simplicial complex on opaque string vertex ids.

    Simplices are non-empty vertex subsets stored as tuples that are strictly
    increasing in the declared vertex order, and the simplex set is closed
    under taking non-empty faces.  Every vertex occurs as a singleton simplex.
    """

    __slots__ = ("vertices", "simplices", "_pos")

    def __init__(
        self,
        vertices: Sequence[str],
        simplices: Iterable[Sequence[str]],
        _validate: bool = True,
    ):
        verts = tuple(vertices)
        pos = {v: i for i, v in enumerate(verts)}
        if len(pos) != len(verts):
            raise ValueError("duplicate vertex ids")
        sorted_simplices = set()
        for s in simplices:
            t = tuple(sorted(s, key=pos.__getitem__))
            sorted_simplices.add(t)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "simplices", frozenset(sorted_simplices))
        object.__setattr__(self, "_pos", pos)
        if _validate:
            self._check_invariants()

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("SimplicialComplex is immutable")

    def _check_invariants(self) -> None:
        for s in self.simplices:
            if not s:
                raise ValueError("empty simplex")
            for v in s:
                if v not in self._pos:
                    raise ValueError(f"simplex uses undeclared vertex {v!r}")
            if len(set(s)) != len(s):
                raise ValueError(f"repeated vertex in simplex {s!r}")
            if len(s) > 1:
                for facet in combinations(s, len(s) - 1):
                    if facet not in self.simplices:
                        raise ValueError(f"not closed under faces: missing {facet!r}")
        for v in self.vertices:
            if (v,) not in self.simplices:
                raise ValueError(f"missing singleton for vertex {v!r}")

    # -- basic queries ---------------------------------------------------

    def sort_simplex(self, s: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(s, key=self._pos.__getitem__))

    def dim(self) -> int:
        """Max simplex cardinality minus one; -1 for the empty complex."""
        if not self.simplices:
            return -1
        return max(len(s) for s in self.simplices) - 1

    def k_simplices(self, k: int) -> list[tuple[str, ...]]:
        """All k-dimensional simplices in a canonical (position-lex) order."""
        found = [s for s in self.simplices if len(s) == k + 1]
        found.sort(key=lambda s: tuple(self._pos[v] for v in s))
        return found

    def counts(self) -> list[int]:
        out = [0] * (self.dim() + 1 if self.simplices else 0)
        for s in self.simplices:
            out[len(s) - 1] += 1
        return out

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.counts()))

    def maximal_simplices(self) -> list[tuple[str, ...]]:
        maximal = []
        by_size = sorted(self.simplices, key=len, reverse=True)
        seen: set[tuple[str, ...]] = set()
        for s in by_size:
            if s not in seen:
                maximal.append(s)
            for k in range(1, len(s)):
                seen.update(combinations(s, k))
        maximal.sort(key=lambda s: (len(s), tuple(self._pos[v] for v in s)))
        return maximal

    def adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for s in self.simplices:
            if len(s) == 2:
                adj[s[0]].add(s[1])
                adj[s[1]].add(s[0])
        return adj

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return set(self.vertices) == set(other.vertices) and self.simplices == other.simplices

    def __hash__(self) -> int:
        return hash(self.simplices)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.vertices)} vertices, {len(self.simplices)} simplices)"


def faces_closure(
    maximal: Sequence[Iterable[str]],
    vertices: Optional[Sequence[str]] = None,
) -> SimplicialComplex:
    """Smallest simplicial complex containing the given vertex sets.

    The vertex universe defaults to the sorted union of the given sets; an
    explicit `vertices` sequence fixes both universe and order.
    """
    if not maximal:
        raise ValueError("faces_closure needs at least one maximal face")
    sets = [tuple(dict.fromkeys(m)) for m in maximal]
    if not all(sets):
        raise ValueError("empty member set")
    used = set(chain.from_iterable(sets))
    if vertices is None:
        universe: list[str] = sorted(used)
    else:
        universe = list(vertices)
        outside = used.difference(universe)
        if outside:
            v = next(v for m in sets for v in m if v in outside)
            raise ValueError(f"vertex {v!r} outside declared universe")
    simplices = {(v,) for v in universe}
    for m in sets:
        for k in range(2, len(m) + 1):
            simplices.update(combinations(m, k))
    return SimplicialComplex(universe, simplices, _validate=False)


def wedge(
    complexes: Sequence[SimplicialComplex],
    basepoints: Sequence[str],
) -> SimplicialComplex:
    """Disjoint union with all basepoints identified.

    The first complex keeps its vertex names; later summands are prefixed
    with their index, except their basepoint which is renamed to the first
    basepoint.  Wedging a single complex returns it unchanged.
    """
    if len(complexes) != len(basepoints):
        raise ValueError("one basepoint per complex required")
    if not complexes:
        raise ValueError("empty wedge")
    for k, b in zip(complexes, basepoints):
        if b not in k._pos:
            raise ValueError(f"basepoint {b!r} is not a vertex")
    if len(complexes) == 1:
        return complexes[0]
    base = basepoints[0]
    verts: list[str] = list(complexes[0].vertices)
    simplices: set[tuple[str, ...]] = set(complexes[0].simplices)
    for i in range(1, len(complexes)):
        k, b = complexes[i], basepoints[i]
        rename = {v: f"{i}:{v}" for v in k.vertices}
        rename[b] = base
        for v in k.vertices:
            if v != b:
                verts.append(rename[v])
        for s in k.simplices:
            simplices.add(tuple(rename[v] for v in s))
    if len(set(verts)) != len(verts):
        raise ValueError("vertex name collision while wedging")
    return SimplicialComplex(verts, simplices)


@dataclass(frozen=True)
class SquareReport:
    """Flag status and induced-4-cycle census of a complex's 1-skeleton."""

    is_flag: bool
    flag_witness: Optional[tuple[str, ...]]
    empty_squares: tuple[tuple[str, str, str, str], ...]

    @property
    def flag_no_squares(self) -> bool:
        return self.is_flag and not self.empty_squares


def _empty_squares(k: SimplicialComplex) -> list[tuple[str, str, str, str]]:
    """All induced 4-cycles: 4 vertices, cyclically adjacent, no diagonal edge."""
    adj = k.adjacency()
    pos = k._pos
    # middles[(x, y)] = vertices adjacent to both x and y, for non-adjacent x < y
    middles: dict[tuple[str, str], list[str]] = {}
    for u in k.vertices:
        nbrs = sorted(adj[u], key=pos.__getitem__)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                x, y = nbrs[i], nbrs[j]
                if y not in adj[x]:
                    middles.setdefault((x, y), []).append(u)
    squares = set()
    for (x, y), mids in middles.items():
        for i in range(len(mids)):
            for j in range(i + 1, len(mids)):
                u, w = mids[i], mids[j]
                if w in adj[u]:
                    continue
                # cycle x-u-y-w with non-edges (x,y) and (u,w)
                a = min((x, u, y, w), key=pos.__getitem__)
                if a in (x, y):
                    b, d = sorted((u, w), key=pos.__getitem__)
                    c = y if a == x else x
                else:
                    b, d = sorted((x, y), key=pos.__getitem__)
                    c = w if a == u else u
                squares.add((a, b, c, d))
    return sorted(squares, key=lambda q: tuple(pos[v] for v in q))


def _flag_witness(k: SimplicialComplex) -> Optional[tuple[str, ...]]:
    """An inclusion-minimal clique of the 1-skeleton that spans no simplex.

    Cliques are grown in size order; None when k is flag.
    """
    adj = k.adjacency()
    pos = k._pos
    frontier: list[tuple[str, ...]] = [(v,) for v in k.vertices]
    while frontier:
        nxt = []
        for clique in frontier:
            cands = set(adj[clique[0]])
            for v in clique[1:]:
                cands &= adj[v]
            last = pos[clique[-1]]
            for v in sorted(cands, key=pos.__getitem__):
                if pos[v] <= last:
                    continue
                bigger = clique + (v,)
                if bigger not in k.simplices:
                    return bigger
                nxt.append(bigger)
        frontier = nxt
    return None


def square_report(k: SimplicialComplex) -> SquareReport:
    """Check flagness (all cliques span simplices) and list empty squares."""
    witness = _flag_witness(k)
    return SquareReport(
        is_flag=witness is None,
        flag_witness=witness,
        empty_squares=tuple(_empty_squares(k)),
    )


def dim_of(k: SimplicialComplex) -> int:
    """Dimension of a complex: max simplex cardinality - 1 (empty -> -1)."""
    return k.dim()


# -- JSON interchange ----------------------------------------------------


def complex_to_json(k: SimplicialComplex) -> dict:
    return {
        "vertices": list(k.vertices),
        "maximal_simplices": [list(s) for s in k.maximal_simplices()],
    }


def complex_from_json(data: Mapping) -> SimplicialComplex:
    if not isinstance(data, Mapping):
        raise ValueError("complex JSON must be an object")
    try:
        vertices = data["vertices"]
        maximal = data["maximal_simplices"]
    except (KeyError, TypeError) as exc:
        raise ValueError("complex JSON needs 'vertices' and 'maximal_simplices'") from exc
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ValueError("'vertices' must be a list of strings")
    if not isinstance(maximal, list) or not all(
        isinstance(m, list) and all(isinstance(v, str) for v in m) for m in maximal
    ):
        raise ValueError("'maximal_simplices' must be a list of vertex lists")
    if not maximal:
        return SimplicialComplex(vertices, [(v,) for v in vertices])
    return faces_closure(maximal, vertices=vertices)
