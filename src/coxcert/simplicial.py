"""Finite abstract simplicial complexes and their basic constructions."""
from __future__ import annotations

import os
from collections import Counter, defaultdict
from functools import reduce
from itertools import chain, combinations, islice, repeat
from operator import and_
from typing import AbstractSet, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence


class SimplicialComplex:
    """Immutable abstract simplicial complex on opaque string vertex ids.

    A simplex is a non-empty tuple of vertex positions, indices into
    `vertices`, in strictly increasing order.  The constructor takes any
    set of simplices that generates the complex under faces, in any order,
    with repeats and with cells that are faces of others; every vertex is a
    simplex whether or not a cell holds it.  It keeps the vertices and the
    maximal simplices, the facets, in (size, lex) order, and closes the
    facets into every simplex only when `simplices` is first read.  Vertex
    names are looked up only where a simplex leaves the program: JSON and
    reports.
    """

    __slots__ = ("vertices", "_simplices", "_facets")

    def __init__(self, vertices: Sequence[str], cells: Iterable[tuple[int, ...]]):
        verts = tuple(vertices)
        if len(set(verts)) != len(verts):
            raise ValueError("duplicate vertex ids")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_facets", _maximal(len(verts), cells))
        object.__setattr__(self, "_simplices", None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("SimplicialComplex is immutable")

    @property
    def simplices(self) -> frozenset[tuple[int, ...]]:
        """Every simplex: the facets are closed under faces on first read."""
        if self._simplices is None:
            faces = (combinations(f, k) for f in self._facets for k in range(2, len(f) + 1))
            closed = frozenset(chain(zip(range(len(self.vertices))), chain.from_iterable(faces)))
            object.__setattr__(self, "_simplices", closed)
        return self._simplices

    # -- basic queries ---------------------------------------------------

    def dim(self) -> int:
        """Max simplex cardinality minus one; -1 for the empty complex."""
        return len(self._facets[-1]) - 1 if self._facets else -1

    def k_simplices(self, k: int) -> list[tuple[int, ...]]:
        """All k-dimensional simplices in lexicographic order."""
        return sorted(s for s in self.simplices if len(s) == k + 1)

    def counts(self) -> list[int]:
        """Number of simplices in each degree, from one pass over them."""
        sizes = Counter(map(len, self.simplices))
        return [sizes[n] for n in range(1, max(sizes, default=0) + 1)]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.counts()))

    def maximal_simplices(self) -> list[tuple[int, ...]]:
        """Simplices that are a face of no other simplex, in (size, lex) order."""
        return list(self._facets)

    def adjacency(self) -> list[set[int]]:
        """Neighbours of each vertex in the 1-skeleton, by position: the edges
        are the 2-subsets of the facets, so the complex is not closed."""
        adj: list[set[int]] = [set() for _ in self.vertices]
        for f in self._facets:
            for a, b in combinations(f, 2):
                adj[a].add(b)
                adj[b].add(a)
        return adj

    def __eq__(self, other) -> bool:
        """Equal vertices and facets, so that neither complex is closed."""
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertices == other.vertices and self._facets == other._facets

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.vertices)} vertices, {len(self.simplices)} simplices)"


def _maximal(n: int, cells: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The maximal ones among the cells and the singletons of 0..n-1, in
    (size, lex) order.  The cells are grouped by size, largest first, and a
    cell is dropped only if it is a face of a larger facet; only faces of
    the sizes among the cells are listed, so cells of one size cost a sort.
    Then every vertex in no facet is one."""
    groups: defaultdict[int, set[tuple[int, ...]]] = defaultdict(set)
    for s in cells:
        groups[len(s)].add(s)
    facets: list[tuple[int, ...]] = []
    for size in sorted(groups, reverse=True):
        group = groups[size]
        group.difference_update(chain.from_iterable(map(combinations, facets, repeat(size))))
        facets += group
    covered = set(chain.from_iterable(facets))
    facets += [(v,) for v in range(n) if v not in covered]
    facets.sort()
    facets.sort(key=len)
    return tuple(facets)


def vertex_positions(
    sets: Sequence[Iterable[str]],
    vertices: Optional[Sequence[str]] = None,
    max_cells: Optional[int] = None,
) -> tuple[list[str], list[tuple[int, ...]]]:
    """The universe of vertex names, and each given vertex set as the
    increasing tuple of its names' positions there; no face is listed.

    The universe defaults to the sorted union of the sets; an explicit
    `vertices` sequence fixes both universe and order.  `ValueError` is
    raised, in this order, for an empty set; for more than `max_cells`
    faces with two or more vertices, counted per set (2^n - 1 - n for a set
    of n vertices) before any is listed; for a vertex outside the universe;
    and for a name repeated in it.
    """
    sets = [tuple(m) for m in sets]
    if not all(sets):
        raise ValueError("empty member set")
    if max_cells is not None:
        faces = sum((1 << n) - 1 - n for n in map(len, map(set, sets)))
        check_size(faces, "faces of two or more vertices, counted per listed set,", max_cells)
    used = set(chain.from_iterable(sets))
    if vertices is None:
        universe: list[str] = sorted(used)
    else:
        universe = list(vertices)
        outside = used.difference(universe)
        if outside:
            v = next(v for m in sets for v in m if v in outside)
            raise ValueError(f"vertex {v!r} outside declared universe")
    pos = {v: i for i, v in enumerate(universe)}
    if len(pos) != len(universe):
        raise ValueError("duplicate vertex ids")
    return universe, [tuple(sorted(set(map(pos.__getitem__, m)))) for m in sets]


def faces_closure(
    sets: Sequence[Iterable[str]],
    vertices: Optional[Sequence[str]] = None,
    max_cells: Optional[int] = None,
) -> SimplicialComplex:
    """Smallest simplicial complex containing the given vertex sets, on the
    universe and positions of `vertex_positions`, with its checks; with
    `vertices` and no sets, the complex of those vertices alone."""
    return SimplicialComplex(*vertex_positions(sets, vertices, max_cells))


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
        if b not in k.vertices:
            raise ValueError(f"basepoint {b!r} is not a vertex")
    if len(complexes) == 1:
        return complexes[0]
    base = complexes[0].vertices.index(basepoints[0])
    verts: list[str] = list(complexes[0].vertices)
    facets = complexes[0].maximal_simplices()
    for i in range(1, len(complexes)):
        k, b = complexes[i], complexes[i].vertices.index(basepoints[i])
        moved = []  # new position of each vertex of k
        for j, v in enumerate(k.vertices):
            if j == b:
                moved.append(base)
            else:
                moved.append(len(verts))
                verts.append(f"{i}:{v}")
        facets += [tuple(sorted(moved[j] for j in s)) for s in k.maximal_simplices()]
    if len(set(verts)) != len(verts):
        raise ValueError("vertex name collision while wedging")
    return SimplicialComplex(verts, facets)


class SquareReport(NamedTuple):
    """Flag status and induced-4-cycle census of a complex's 1-skeleton."""

    is_flag: bool
    flag_witness: Optional[tuple[str, ...]]
    empty_squares: tuple[tuple[str, str, str, str], ...]

    @property
    def flag_no_squares(self) -> bool:
        return self.is_flag and not self.empty_squares


# a 1-skeleton: neighbour sets by vertex position, and the same as int bitsets
_Graph = tuple[Sequence[AbstractSet[int]], list[int]]


def _skeleton(k: SimplicialComplex, nbrs: Optional[Sequence[AbstractSet[int]]] = None) -> _Graph:
    """The 1-skeleton of k, the one graph that every graph test reads: the
    neighbour sets of the vertices by position, from one `k.adjacency()`
    call unless a caller that already holds them passes them as `nbrs`,
    and the same sets as int bitsets."""
    if nbrs is None:
        nbrs = k.adjacency()
    return nbrs, [sum(1 << w for w in a) for a in nbrs]


def _empty_squares(
    k: SimplicialComplex, adj: Sequence[AbstractSet[int]]
) -> list[tuple[str, str, str, str]]:
    """All induced 4-cycles of the graph `adj`, the 1-skeleton of k: 4
    vertices, cyclically adjacent, no diagonal edge.

    Each is listed once, as (a, b, c, d) from its least vertex a: c is
    opposite a, and b < d are common neighbours of a and c with no edge
    between them.  One walk over the neighbours v > a of a, in increasing
    order, and over their neighbours c > a not adjacent to a collects each
    such c's common neighbours with a, already sorted.
    """
    squares = []
    for a, nbrs_a in enumerate(adj):
        middles: dict[int, list[int]] = {}
        for v in sorted(w for w in nbrs_a if w > a):
            for c in adj[v] - nbrs_a:
                if c > a:
                    middles.setdefault(c, []).append(v)
        for c, mids in middles.items():
            if len(mids) > 1:
                for i, b in enumerate(mids):
                    squares.extend((a, b, c, d) for d in mids[i + 1 :] if d not in adj[b])
    names = k.vertices
    return [(names[a], names[b], names[c], names[d]) for a, b, c, d in sorted(squares)]


def cliques(adj: Sequence[AbstractSet[int]]) -> Iterator[tuple[int, ...]]:
    """Cliques of the graph on 0..n-1 with neighbour sets `adj`, as increasing
    tuples in (size, lex) order.  Each level grows from the one before by the
    common neighbours beyond a clique's last vertex, and each clique is
    yielded as soon as it is built, so a caller that stops early builds no more.
    """
    level = [(v,) for v in range(len(adj))]
    yield from level
    while level:
        nxt = []
        for clique in level:
            common = adj[clique[0]].intersection(*(adj[v] for v in clique[1:]))
            for v in sorted(w for w in common if w > clique[-1]):
                bigger = clique + (v,)
                yield bigger
                nxt.append(bigger)
        level = nxt


def cell_limit() -> int:
    """The cell limit, `COXCERT_SNF_CELL_LIMIT` (default 50,000,000), read
    where each cap is checked; `ValueError` unless a non-negative integer."""
    raw = os.environ.get("COXCERT_SNF_CELL_LIMIT", "50000000")
    try:
        limit = int(raw)
    except ValueError:
        limit = -1  # rejected below, with the message for a negative value
    if limit < 0:
        raise ValueError(f"COXCERT_SNF_CELL_LIMIT must be a non-negative integer, got {raw!r}")
    return limit


class MatrixSizeError(ValueError):
    """A size over its cap, raised by `check_size` alone: a step that catches
    it is "skipped", and where an input is loaded it is an input error."""


def check_size(n: int, what: str, cap: Optional[int] = None) -> None:
    """Refuse n things over the cap, the cell limit unless given: when n >
    cap, `MatrixSizeError` with the reason "<n> <what> exceed the cap <cap>".
    Where n only bounds the size from below, `what` says so ("or more
    cells"), so that every reason is true."""
    cap = cell_limit() if cap is None else cap
    if n > cap:
        raise MatrixSizeError(f"{n} {what} exceed the cap {cap}")


def capped(cells: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """The simplices of a nerve as they come, up to the cell limit, read
    once; one more is refused before it is yielded, so that nothing past
    the limit is built."""
    limit = cell_limit()
    cells = iter(cells)
    yield from islice(cells, limit)
    for _ in cells:
        check_size(limit + 1, "or more simplices in the nerve", limit)


def _flag_witness(k: SimplicialComplex, graph: _Graph) -> Optional[tuple[str, ...]]:
    """An inclusion-minimal clique of the 1-skeleton that spans no simplex.

    The first such clique in (size, lex) order; None when k is flag.  It is
    decided by counting on `graph`, the 1-skeleton of k as `_skeleton`
    gives it: each simplex σ of size s extends to the (s+1)-cliques
    σ + (v,) with v a common neighbour of σ above max σ.  Summed over σ,
    these counts give every (s+1)-clique whose first s vertices span a
    simplex, so when every s-clique is a simplex they give the number of
    (s+1)-cliques, and k is flag exactly when each such sum equals the
    number of simplices of size s+1.  The edges are the graph's and the
    larger simplices the faces of the facets, so k is not closed; only
    when a sum differs are the cliques listed, up to the first that is not
    among the closed simplices.
    """
    adj, nbrs = graph
    level = [(a, b) for a, bs in enumerate(adj) for b in bs if a < b]
    size = 2
    while level:
        bigger = {c for f in k._facets if len(f) > size for c in combinations(f, size + 1)}
        # common neighbours of each simplex beyond its last vertex
        above = (reduce(and_, map(nbrs.__getitem__, s)) >> (s[-1] + 1) for s in level)
        if sum(c.bit_count() for c in above) != len(bigger):
            missing = next(c for c in cliques(adj) if c not in k.simplices)
            return tuple(k.vertices[i] for i in missing)
        level, size = bigger, size + 1
    return None


def square_report(k: SimplicialComplex, graph: Optional[_Graph] = None) -> SquareReport:
    """Check flagness (all cliques span simplices) and list empty squares,
    both on one 1-skeleton: `graph` as `_skeleton` gives it, built here
    unless the caller holds it.  A flag complex is not closed."""
    graph = _skeleton(k) if graph is None else graph
    witness = _flag_witness(k, graph)
    return SquareReport(
        is_flag=witness is None,
        flag_witness=witness,
        empty_squares=tuple(_empty_squares(k, graph[0])),
    )


# -- JSON interchange ----------------------------------------------------


def complex_to_json(k: SimplicialComplex) -> dict:
    names = k.vertices
    return {
        "vertices": list(names),
        "maximal_simplices": [[names[i] for i in s] for s in k.maximal_simplices()],
    }


def cells_from_json(data: Mapping) -> tuple[list[str], list[tuple[int, ...]]]:
    """The vertex names and the listed sets as positions (`vertex_positions`,
    with its checks) of a complex JSON object, after checks on its shape;
    the cell limit caps the faces the sets span.  `homology` builds its
    chain complex from these alone."""
    if not isinstance(data, Mapping):
        raise ValueError("complex JSON must be an object")
    try:
        vertices = data["vertices"]
        maximal = data["maximal_simplices"]
    except (KeyError, TypeError) as exc:
        raise ValueError("complex JSON needs 'vertices' and 'maximal_simplices'") from exc
    if not isinstance(vertices, list) or not all(map(isinstance, vertices, repeat(str))):
        raise ValueError("'vertices' must be a list of strings")
    if not (
        isinstance(maximal, list)
        and all(map(isinstance, maximal, repeat(list)))
        and all(map(isinstance, chain.from_iterable(maximal), repeat(str)))
    ):
        raise ValueError("'maximal_simplices' must be a list of vertex lists")
    return vertex_positions(maximal, vertices, cell_limit())


def complex_from_json(data: Mapping) -> SimplicialComplex:
    """Complex of a JSON object: the complex that the listed sets of
    `cells_from_json`, with its checks, generate."""
    return SimplicialComplex(*cells_from_json(data))
