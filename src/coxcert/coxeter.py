"""Coxeter systems, nerves, finiteness classification and the RA word problem."""
from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .simplicial import SimplicialComplex, _flag_witness, capped, cliques, square_report

INF = 0  # Coxeter matrix entries use 0 to encode infinity (as in the JSON format)

Word = tuple[int, ...]


class CoxeterSystem:
    """A Coxeter system: generator labels and the symmetric matrix of relation
    orders (diagonal 1, off-diagonal >= 2 or 0 for infinity), whether it is
    right-angled, and in `link[i]` the generators that commute with generator
    i.  The generators and entries alone decide equality."""

    __slots__ = ("generators", "entries", "right_angled", "link")

    def __init__(self, generators: Sequence[str], entries: Sequence[Sequence[int]]):
        generators = tuple(generators)
        entries = tuple(tuple(row) for row in entries)
        n = len(generators)
        if len(set(generators)) != n:
            raise ValueError("duplicate generator labels")
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError("matrix shape does not match generators")
        # one pass over the rows, each checked against its column of the
        # transpose by whole-row calls; a checked row is right-angled when no
        # entry exceeds 2, and its commuting generators are found by `index`
        ra, link = True, []
        for i, (row, column) in enumerate(zip(entries, zip(*entries))):
            upper = row[i + 1 :]
            if row[i] != 1 or upper != column[i + 1 :] or min(filter(None, upper), default=2) < 2:
                _check_row(entries, i)
            ra = ra and max(row) <= 2
            j = -1
            link.append(frozenset([j := row.index(2, j + 1) for _ in range(row.count(2))]))
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "right_angled", ra)
        object.__setattr__(self, "link", tuple(link))

    def __setattr__(self, name, value):
        raise AttributeError("CoxeterSystem is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoxeterSystem):
            return NotImplemented
        return self.generators == other.generators and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.generators, self.entries))

    def __repr__(self) -> str:
        return f"CoxeterSystem(generators={self.generators!r}, entries={self.entries!r})"

    def order(self, i: int, j: int) -> int:
        return self.entries[i][j]

    @property
    def rank(self) -> int:
        return len(self.generators)

    def commutes(self, i: int, j: int) -> bool:
        return j in self.link[i]


def _check_row(entries: tuple[tuple[int, ...], ...], i: int) -> None:
    """Raise the `ValueError` for the first fault of row i of a Coxeter matrix:
    its diagonal entry, then each entry to its right, for symmetry and then
    for its range (>= 2, or 0 for infinity)."""
    if entries[i][i] != 1:
        raise ValueError("diagonal entries must be 1")
    for j in range(i + 1, len(entries)):
        m = entries[i][j]
        if m != entries[j][i]:
            raise ValueError("matrix must be symmetric")
        if m != INF and m < 2:
            raise ValueError("off-diagonal entries must be >= 2 or infinity")


def racg_from_flag(l: SimplicialComplex) -> CoxeterSystem:
    """Right-angled system on the vertices of a flag complex L.

    m_st = 2 for edges of L and infinity for non-edges; rejects non-flag
    input, reporting the minimal witness clique.
    """
    witness = _flag_witness(l)
    if witness is not None:
        raise ValueError(f"input is not flag; witness clique {witness}")
    n = len(l.vertices)
    entries = []
    for i, nbrs in enumerate(l.adjacency()):
        row = [INF] * n
        for j in nbrs:
            row[j] = 2
        row[i] = 1
        entries.append(row)
    return CoxeterSystem(l.vertices, entries)


# -- finiteness classification ----------------------------------------------


def _is_spherical_idx(sys: CoxeterSystem, idx: tuple[int, ...]) -> bool:
    """Whether W_T is finite for T = idx: every component of T's Coxeter
    diagram (the pairs with order other than 2) must be of finite type."""
    order = sys.order
    nbrs = {u: {w: order(u, w) for w in idx if w != u and order(u, w) != 2} for u in idx}
    seen: set[int] = set()
    for start in idx:
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], {}
        while stack:
            u = stack.pop()
            comp[u] = nbrs[u]
            fresh = nbrs[u].keys() - seen
            seen |= fresh
            stack += fresh
        if not _is_finite_diagram(comp):
            return False
    return True


def _is_finite_diagram(nbrs: dict[int, dict[int, int]]) -> bool:
    """Whether one connected Coxeter diagram, `nbrs[u]` mapping each neighbour
    of u to its label, is A_n, B_n, D_n, E6-E8, F4, H3, H4 or I2(m)
    (Humphreys, Reflection Groups and Coxeter Groups, 2.7)."""
    n = len(nbrs)
    labels = [m for u, ws in nbrs.items() for w, m in ws.items() if u < w]
    if len(labels) != n - 1 or INF in labels:
        return False  # a cycle, or an infinite dihedral subgroup
    if n <= 2:
        return True  # A1 or I2(m)
    degrees = sorted(len(ws) for ws in nbrs.values())
    if degrees[-1] > 3 or degrees[-2] == 3:
        return False
    if degrees[-1] == 3:
        hub = next(u for u, ws in nbrs.items() if len(ws) == 3)
        a, b, c = sorted(1 + len(_walk(nbrs, hub, v)) for v in nbrs[hub])
        # arms of a <= b <= c vertices: D_n, then E6, E7, E8
        return all(m == 3 for m in labels) and a == 1 and (b == 1 or (b == 2 and c <= 4))
    path = _walk(nbrs, None, next(u for u, ws in nbrs.items() if len(ws) == 1))
    heavy = [i for i, m in enumerate(path) if m > 3]
    if not heavy:
        return True  # A_n
    if len(heavy) > 1:
        return False
    i = heavy[0]
    at_end = i in (0, n - 2)
    if path[i] == 4:
        return at_end or (n == 4 and i == 1)  # B_n or F4
    return path[i] == 5 and at_end and n <= 4  # H3, H4


def _walk(nbrs: dict[int, dict[int, int]], prev: Optional[int], v: int) -> list[int]:
    """The labels met walking on from v, away from prev, while the way on is unique."""
    labels = []
    while len(way_on := [w for w in nbrs[v] if w != prev]) == 1:
        prev, v = v, way_on[0]
        labels.append(nbrs[prev][v])
    return labels


def nerve(sys: CoxeterSystem) -> SimplicialComplex:
    """Complex on the generators whose simplices are the spherical subsets.

    In a right-angled system they are the cliques of the commuting graph.
    Otherwise each level grows from the one before by larger indices (they
    are closed under subsets), a candidate passing when each component of
    its diagram is a finite-type tree (`_is_finite_diagram`).  More
    simplices than the cell limit raise `ValueError` as soon as they are listed.
    """
    return SimplicialComplex(sys.generators, capped(_spherical_subsets(sys)))


def _spherical_subsets(sys: CoxeterSystem) -> Iterable[tuple[int, ...]]:
    """The simplices of the nerve in (size, lex) order, each yielded as
    soon as it passes, so a caller that stops early tests no more."""
    if sys.right_angled:
        yield from cliques(sys.link)
        return
    n = sys.rank
    level = [(i,) for i in range(n)]
    yield from level
    while level:
        nxt = []
        for t in level:
            for j in range(t[-1] + 1, n):
                bigger = t + (j,)
                if _is_spherical_idx(sys, bigger):
                    yield bigger
                    nxt.append(bigger)
        level = nxt


# -- hyperbolicity -----------------------------------------------------------


class HyperbolicityReport(NamedTuple):
    right_angled: bool
    flag: bool
    empty_squares: tuple[tuple[str, str, str, str], ...]
    hyperbolic: Optional[bool]
    z2_witness: Optional[tuple[str, str, str, str]]


def hyperbolicity(sys: CoxeterSystem) -> HyperbolicityReport:
    """Flag-no-squares test on the nerve; decides word hyperbolicity for RA systems.

    An empty square (a, b, c, d) of the nerve yields the witness (a, c, b, d):
    the two diagonal pairs generate commuting infinite dihedral subgroups,
    hence a Z x Z subgroup.  The cell limit caps the nerve, as in `nerve`.
    """
    l = nerve(sys)
    report = square_report(l)
    if not sys.right_angled:
        return HyperbolicityReport(False, report.is_flag, report.empty_squares, None, None)
    witness = None
    hyperbolic = report.is_flag and not report.empty_squares
    if report.empty_squares:
        a, b, c, d = report.empty_squares[0]
        witness = (a, c, b, d)
    return HyperbolicityReport(True, report.is_flag, report.empty_squares, hyperbolic, witness)


# -- right-angled word problem ------------------------------------------------


def _check_ra(sys: CoxeterSystem) -> None:
    if not sys.right_angled:
        raise ValueError("word problem operations require a right-angled system")


def _check_word(sys: CoxeterSystem, w: Iterable[int]) -> Word:
    word = tuple(w)
    n = sys.rank
    for x in word:
        if not 0 <= x < n:
            raise ValueError(f"letter {x} out of range")
    return word


def _append(sys: CoxeterSystem, w: Word, g: int) -> Word:
    """Normal form of w*g for a normal form w.

    A word is its ShortLex normal form exactly when it is geodesic and has no
    factor b.u.a with a < b where a commutes with b and with every letter of u
    (Anisimov-Knuth, lex-least trace representatives).  Scan back over the
    letters of w that commute with g: if the scan stops at g, g is a right
    descent and that letter cancels; otherwise g goes in before the first
    scanned letter larger than g, or at the end.
    """
    link = sys.link[g]
    i = len(w)
    while i and w[i - 1] in link:
        i -= 1
    if i and w[i - 1] == g:
        return w[: i - 1] + w[i:]
    while i < len(w) and w[i] < g:
        i += 1
    return w[:i] + (g,) + w[i:]


def reduce(sys: CoxeterSystem, w: Iterable[int]) -> Word:
    """ShortLex-canonical normal form of a word in a right-angled system."""
    _check_ra(sys)
    out: Word = ()
    for g in _check_word(sys, w):
        out = _append(sys, out, g)
    return out


def multiply(sys: CoxeterSystem, w: Word, g: int) -> Word:
    """Normal form of w*g."""
    return reduce(sys, w + (g,))


def ball(sys: CoxeterSystem, radius: int) -> list[Word]:
    """All canonical normal forms of length <= radius, sorted by (length, lex).

    A normal form of length k + 1 is a normal form w of length k followed by
    a letter g that `_append` puts at the end; growing each level in lex
    order by increasing g yields every normal form once, already sorted.
    """
    _check_ra(sys)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    words: list[Word] = [()]
    level = [()]
    for _ in range(radius):
        level = [
            w + (g,)
            for w in level
            for g in range(sys.rank)
            if _append(sys, w, g) == w + (g,)
        ]
        words += level
    return words


def right_descents(sys: CoxeterSystem, w: Word) -> set[int]:
    """Right-descent set of a normal form w: the letters that commute with
    every letter after them.  One scan from the right, keeping the letters
    seen: O(|w| * rank)."""
    link, after, descents = sys.link, set(), set()
    for x in reversed(w):
        if link[x].issuperset(after):
            descents.add(x)
        after.add(x)
    return descents


def coset_rep(sys: CoxeterSystem, w: Word, t: tuple[int, ...]) -> Word:
    """Minimal representative of w*W_T for a normal form w and a clique T:
    w without its right descents in T (Bjorner-Brenti, Prop. 2.4.4).

    T is a clique, so deleting one such descent leaves the others descents;
    the result is again a normal form.  One scan from the right, as in
    `right_descents`.
    """
    if not t:
        return w
    link, after, kept = sys.link, set(), []
    for x in reversed(w):
        if x not in t or not link[x].issuperset(after):
            kept.append(x)
        after.add(x)
    return tuple(reversed(kept))


def min_coset_rep(sys: CoxeterSystem, w: Iterable[int], subset: Iterable[str]) -> Word:
    """Unique shortest element of w*W_T for spherical T."""
    _check_ra(sys)
    t_idx = _subset_indices(sys, subset)
    if not _is_spherical_idx(sys, t_idx):
        raise ValueError("subset is not spherical")
    return coset_rep(sys, reduce(sys, w), t_idx)


def in_special_subgroup(sys: CoxeterSystem, w: Iterable[int], subset: Iterable[str]) -> bool:
    """Membership in W_T: the normal form may only use letters of T."""
    _check_ra(sys)
    t_idx = set(_subset_indices(sys, subset))
    return all(x in t_idx for x in reduce(sys, w))


def _subset_indices(sys: CoxeterSystem, subset: Iterable[str]) -> tuple[int, ...]:
    lookup = {g: i for i, g in enumerate(sys.generators)}
    try:
        return tuple(sorted({lookup[g] for g in subset}))
    except KeyError as exc:
        raise ValueError(f"unknown generator {exc.args[0]!r}") from exc


# -- JSON interchange ---------------------------------------------------------


def system_to_json(sys: CoxeterSystem) -> dict:
    return {
        "generators": list(sys.generators),
        "matrix": [list(row) for row in sys.entries],
    }


def system_from_json(data: Mapping) -> CoxeterSystem:
    if not isinstance(data, Mapping):
        raise ValueError("system JSON must be an object")
    try:
        gens = data["generators"]
        matrix = data["matrix"]
    except (KeyError, TypeError) as exc:
        raise ValueError("system JSON needs 'generators' and 'matrix'") from exc
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise ValueError("'generators' must be a list of strings")
    # bool is a subclass of int, and int() would also take floats and strings
    if not isinstance(matrix, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in matrix
    ):
        raise ValueError("'matrix' must be a list of integer rows")
    try:
        return CoxeterSystem(gens, matrix)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid Coxeter matrix: {exc}") from exc
