"""Finite-radius Davis-complex balls as posets of spherical cosets."""
from __future__ import annotations

from array import array
from collections import Counter
from functools import cached_property
from itertools import accumulate, combinations
from math import comb
from operator import add
from typing import Callable, Iterable, Iterator, NamedTuple

from .coxeter import CoxeterSystem, Word, _check_ra, ball, coset_rep, right_descents
from .homology import ChainComplex
from .simplicial import SimplicialComplex, capped, cell_limit, check_size, cliques
from .subdivide import order_complex
# unused here, but kept bound: the benchmark's tracing hooks wrap these names
from .coxeter import in_special_subgroup, min_coset_rep, nerve, reduce  # noqa: F401
from .simplicial import square_report  # noqa: F401
from .subdivide import barycentric_subdivision  # noqa: F401

Subset = tuple[int, ...]  # sorted generator indices


class SphericalCoset(NamedTuple):
    """A coset w*W_T named by its minimal representative and type T."""

    rep: Word
    gens: Subset


class DavisBall:
    """All spherical cosets whose minimal representative has length <= radius.

    The order relation is containment of cosets; its order complex is the
    radius-r piece of the Davis complex.  Truncation keeps exactly the cosets
    with short minimal representatives and never completes boundary chambers.

    Coset arithmetic uses two rules of right-angled systems, with w a normal
    form and T a clique of the nerve.  w is the minimal representative of
    w*W_T exactly when T misses the right-descent set of w, the letters that
    commute with every letter after them (Bjorner-Brenti, Prop. 2.4.4).  A
    generator s fixes w*W_T exactly when s is in T and commutes with every
    letter of w (Davis, walls of the Davis complex).
    """

    def __init__(self, system: CoxeterSystem, radius: int):
        _check_ra(system)
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.system = system
        self.radius = radius
        # the empty type, then the cliques of the nerve in (size, lex) order,
        # at most the cell limit of them (`capped`)
        self._sphericals: list[Subset] = [()] + list(capped(cliques(system.link)))

    @cached_property
    def _above(self) -> dict[Subset, list[dict[Subset, int]]]:
        """The cliques above each type, built on first use: table m of type
        T maps each clique of |T| + m elements containing T to its place in
        (size, T) order, and table 0 is {T: 0}.  Every type has the tables
        0..dim L + 2, so table 1 exists even when the nerve is empty.

        A clique of size k lies in the tables of its 2^k - 1 strict subsets,
        the empty type's included, so the entries are counted from the sizes
        first and checked against the cell limit before any table is built.
        The cliques come in (size, T) order, so each table fills in order.
        """
        entries = sum((1 << len(t)) - 1 for t in self._sphericals)
        check_size(entries, "entries in the up-lists of the nerve's types")
        top = len(self._sphericals[-1]) + 1  # dim L + 2
        above = {t: [{t: 0}] + [{} for _ in range(top)] for t in self._sphericals}
        for u in self._sphericals:
            for k in range(len(u)):
                for t in combinations(u, k):
                    table = above[t][len(u) - k]
                    table[u] = len(table)
        return above

    def coset_counts(self) -> list[int]:
        """Number of cosets of each type size 0..dim L + 1, without listing them.

        Entry 0 is N_r, the number of elements of length <= r.  With f_k the
        number of types of size k and d = dim L + 1, the growth series of W is
        W(t) = (1+t)^d / D(t), D(t) = sum_k f_k (-t)^k (1+t)^(d-k) (Davis, The
        Geometry and Topology of Coxeter Groups, ch. 17).  The w with w*W_T in
        the ball are the minimal representatives of W^T, counted by
        W(t) / (1+t)^|T| (Bjorner-Brenti, Prop. 2.4.4).  Summing up to t^r is
        taking [t^r] of (1+t)^(d-|T|) / ((1-t) D(t)), read off by halving r
        (`_coefficients`).  The ball grows with the radius, so the total is
        checked against the cell limit first at the radii 1, 2, 4, ... below
        r, a lower bound there, and a ball far over the limit stops early.
        """
        d = len(self._sphericals[-1])
        f = [0] * (d + 1)
        for t in self._sphericals:
            f[len(t)] += 1
        denom = [
            sum((-1) ** k * f[k] * comb(d - k, j - k) for k in range(j + 1)) for j in range(d + 1)
        ]
        q = _poly_mul(denom, [1, -1])
        nums = [[comb(d - k, j) for j in range(d - k + 1)] for k in range(d + 1)]
        radii = [1 << n for n in range(self.radius.bit_length()) if 1 << n < self.radius]
        for n in radii + [self.radius]:
            counts = [fk * c for fk, c in zip(f, _coefficients(nums, q, n))]
            bound = "" if n == self.radius else "or more "
            check_size(sum(counts), f"{bound}cosets in the radius-{self.radius} ball")
        return counts

    def order_pairs(self) -> int:
        """Number of the pairs of cosets, one inside the other, without
        listing them.  Above a coset of type T lies one coset per strict
        superset U of T, and each of the f_k types of size k has n_k =
        `coset_counts()[k]` / f_k cosets, so the pairs number sum_U sum_{k <
        |U|} C(|U|, k) n_k."""
        counts = self.coset_counts()
        f = Counter(map(len, self._sphericals))
        n = [c // f[k] for k, c in enumerate(counts)]
        return sum(f[m] * sum(comb(m, k) * n[k] for k in range(m)) for m in f)

    @cached_property
    def cosets(self) -> tuple[SphericalCoset, ...]:
        """Every coset, ordered by (length, word) of the representative, then (size, T).

        Enumerated on first use, and no command reads it: `coset_counts`
        gives the counts, the dimensions come in closed form, and the dump
        and `CellIndex` number the cosets by `_numbered`.  It stays for the
        tests and the benchmark's coset census.
        """
        return tuple(SphericalCoset(w, t) for w, types in self._elements() for t in types)

    def _elements(self) -> Iterator[tuple[Word, list[Subset]]]:
        """Each w of length <= r in (length, word) order, with the types T of
        its cosets w*W_T in (size, T) order: those missing its right descents.
        The N_r words hold at most N_r * r letters, checked against the
        cell limit before any word is listed."""
        words, r = self.coset_counts()[0], self.radius
        check_size(words * r, f"letter slots, {r} for each of the {words} words of length <= {r},")
        for w in ball(self.system, self.radius):
            descents = right_descents(self.system, w)
            yield w, [t for t in self._sphericals if descents.isdisjoint(t)]

    def _kept(
        self, keep: Callable[[Word, list[Subset]], Iterable[Subset]]
    ) -> list[tuple[Word, dict[Subset, int]]]:
        """Each element w of the ball with the types `keep(w, types)` picks
        among those of its cosets w*W_T, each mapped to its place among
        them.  Elements with equal kept types share one dict."""
        shared: dict[tuple[Subset, ...], dict[Subset, int]] = {}
        kept = []
        for w, types in self._elements():
            mine = tuple(keep(w, types))
            if mine not in shared:
                shared[mine] = {t: k for k, t in enumerate(mine)}
            kept.append((w, shared[mine]))
        return kept

    def _numbered(
        self, kept: list[tuple[Word, dict[Subset, int]]], covers: bool = False
    ) -> Iterator[tuple[int, Word, Subset, list[int]]]:
        """Each coset w*W_T of `kept`, a set closed upwards, in ball order:
        its number, w, T, and the numbers of the cosets above it, one per
        strict superset of T in (size, T) order (the tables 1, 2, ... of
        `_above[T]` in turn), or with `covers` one per superset of one more
        element, in the order of table 1.  One walk numbers them all: a
        superset u that holds a right descent of w gives a strictly shorter
        representative, whose cosets are numbered already."""
        stop = 2 if covers else None
        supersets = {
            t: [u for up in tables[1:stop] for u in up] for t, tables in self._above.items()
        }
        where: dict[Word, tuple[int, dict[Subset, int]]] = {}
        b = 0
        for w, places in kept:
            where[w] = (b, places)
            # the coset of type u above w*W_T is w*W_u, whatever T is; it is
            # kept, and w is its representative when u misses the descents of w
            number = {}
            for u in set().union(*map(supersets.__getitem__, places)):
                if u in places:
                    number[u] = b + places[u]
                else:
                    start, there = where[coset_rep(self.system, w, u)]
                    number[u] = start + there[u]
            for t in places:
                yield b, w, t, list(map(number.__getitem__, supersets[t]))
                b += 1

    # -- coset arithmetic --------------------------------------------------

    def leq(self, a: SphericalCoset, b: SphericalCoset) -> bool:
        """Coset containment: types nest and a's representative lies in b."""
        if not set(a.gens) <= set(b.gens):
            return False
        return coset_rep(self.system, a.rep, b.gens) == b.rep

    def walls(self, w: Word) -> frozenset[int]:
        """The generators that commute with every letter of w: generator s
        fixes the coset w*W_T exactly when s is in T and in walls(w)."""
        return frozenset(s for s, link in enumerate(self.system.link) if link.issuperset(w))

    def coset_id(self, c: SphericalCoset) -> str:
        """Vertex name of c in its order complexes, from generator indices:
        "0.2|1" is the coset 02*W_{1}, "|" the trivial coset of the identity.
        Digits and separators only, so distinct cosets get distinct names
        whatever the generators are called."""
        return f"{'.'.join(map(str, c.rep))}|{','.join(map(str, c.gens))}"

    # -- dimensions (closed form) ------------------------------------------

    def realization_dim(self) -> int:
        """Dimension of the order complex: dim L + 1 at every radius.

        The identity has no right descents, so e*W_T is in the ball for every
        clique T, and the chain e*W_() < ... < e*W_T along a largest clique T
        is a longest chain of cosets.
        """
        return len(self._sphericals[-1])

    def singular_dim(self) -> int:
        """Dimension of the singular subcomplex (chains of non-chamber cosets): dim L."""
        return len(self._sphericals[-1]) - 1

    def to_json(self, max_cells: int) -> dict:
        """Every coset, and each pair [b, j] of a coset and one above it,
        once the cosets, then the pairs (`order_pairs`), pass `max_cells`."""
        check_size(sum(self.coset_counts()), f"cosets in the radius-{self.radius} ball", max_cells)
        check_size(self.order_pairs(), "order pairs", max_cells)
        gens = self.system.generators
        cosets, order = [], []
        for b, w, t, above in self._numbered(self._kept(lambda w, types: types)):
            cosets.append({"rep": "".join(gens[i] for i in w), "T": [gens[i] for i in t]})
            order += ([b, j] for j in sorted(above))
        return {"radius": self.radius, "cosets": cosets, "order": order}


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _coefficients(nums: list[list[int]], q: list[int], n: int) -> list[int]:
    """[t^n] p(t) / q(t) for each p in `nums`, with q(0) = 1.

    Bostan-Mori halving: p(t)/q(t) = p(t)q(-t) / (q(t)q(-t)), whose
    denominator is even, so [t^n] keeps the terms of the numerator with the
    parity of n and halves every exponent.  O(log n) products of polynomials
    of degree deg q.
    """
    while n:
        q_neg = [-c if i % 2 else c for i, c in enumerate(q)]
        nums = [_poly_mul(p, q_neg)[n % 2 :: 2] for p in nums]
        q = _poly_mul(q, q_neg)[::2]
        n //= 2
    return [p[0] if p else 0 for p in nums]


def davis_ball(sys: CoxeterSystem, radius: int) -> DavisBall:
    return DavisBall(sys, radius)


# -- distinguished subcomplexes ---------------------------------------------


def cube_signs(d: int) -> tuple[int, ...]:
    """The slot signs of a d-cube [T, U], s_1 < ... < s_d the elements of
    U - T: slot 2i-2 holds the lower face [T, U - s_i], with sign (-1)^i,
    and slot 2i-1 the upper face [T + s_i, U], with sign (-1)^(i-1)."""
    return tuple(sign for i in range(1, d + 1) for sign in ((-1) ** i, (-1) ** (i - 1)))


class CellIndex:
    """The singular or the sharp set of a ball, as an index of its cells,
    with no cell listed.

    The singular set keeps the cosets of non-empty type.  The sharp set, the
    union over the generators of their fixed subcomplexes, keeps the cosets
    some generator fixes: a coset fixed by s lies only below cosets fixed by
    s, so every chain of the union lies in one wall.  Both sets are closed
    upwards.

    The cosets above c = w*W_T are the cosets coset_rep(w, U)*W_U, one for
    each clique U containing T strictly, and between c and the one of type U
    lie those of the types V with T <= V <= U: the interval [c, w*W_U] is a
    Boolean lattice.  So the order complex of a set closed upwards, whose
    chains are the chains from a kept bottom, triangulates the cube complex
    whose d-cells are the pairs [c, U] of a kept c and a clique U of |T| + d
    elements containing T (the cubical structure on the Davis complex:
    Davis, The Geometry and Topology of Coxeter Groups, 2008).  `counts` and
    `cells` count the order complex, the views list it (`_extract`), and
    `chain_complex` builds the cube complex, which has the same homology
    and fewer cells.

    The kept cosets are numbered in ball order, and the d-cube [b, U] is
    numbered offset_d[b] + k, k the place of U in `DavisBall._above[T][d]`.
    Its upper face [T + s, U] moves the bottom to the coset of type T + s
    above it; its lower face [T, U - s] keeps the bottom.  So the cells per
    degree are known before any is built: the kept cosets of each type times
    the cubes from that type, and the chains from the cubes.  The singular
    set's kept cosets are counted in closed form; the sharp set's are
    counted by a walk of every coset of the ball, which `cells` checks first.
    """

    def __init__(self, ball_: DavisBall, sharp: bool):
        self.ball, self.sharp = ball_, sharp

    def _keep(self, w: Word, types: list[Subset]) -> Iterator[Subset]:
        """The kept types of the cosets w*W_T: those that meet walls(w) in
        the sharp set, the non-empty ones in the singular set."""
        if self.sharp:
            walls = self.ball.walls(w)
            return (t for t in types if not walls.isdisjoint(t))
        return (t for t in types if t)

    @cached_property
    def _kept(self) -> list[tuple[Word, dict[Subset, int]]]:
        return self.ball._kept(self._keep)

    @cached_property
    def _per_type(self) -> dict[Subset, int]:
        """The kept cosets of each type.  The singular set keeps every coset
        of non-empty type, counted without listing: `coset_counts` gives
        them per type size, the same for each type."""
        if self.sharp:
            return Counter(t for _, types in self._kept for t in types)
        sphericals = self.ball._sphericals
        sizes = Counter(map(len, sphericals))
        by_size = self.ball.coset_counts()
        return {t: by_size[len(t)] // sizes[len(t)] for t in sphericals if t}

    def _cube_counts(self) -> list[int]:
        """The d-cubes per degree d, up to the last non-zero: the kept
        cosets of each type T times the cliques of |T| + d elements
        containing T."""
        above = self.ball._above
        counts = [0] * len(above[()])
        for t, n in self._per_type.items():
            for d, table in enumerate(above[t]):
                counts[d] += n * len(table)
        while counts and not counts[-1]:
            counts.pop()
        return counts

    @cached_property
    def counts(self) -> list[int]:
        """Cells of the order complex per degree, from the cubes.  A d-chain
        from w*W_T up to w*W_U is an ordered partition of U - T into d
        blocks, so an m-cube holds surj(m, d) of the d-chains, the
        surjections of m elements onto d: surj(m, d) = d (surj(m-1, d) +
        surj(m-1, d-1))."""
        cubes = self._cube_counts()
        counts = [0] * len(cubes)
        surj = [1]  # surj(m, d) for d = 0..m
        for n in cubes:
            for d, ways in enumerate(surj):
                counts[d] += n * ways
            surj = [d * (a + b) for d, (a, b) in enumerate(zip(surj + [0], [0] + surj))]
        return counts

    def cells(self, max_cells: int) -> int:
        """Number of cells of the order complex, checked against
        `max_cells`.  Two checks come before the count.  The identity has no
        right descents, so each pair T < U of non-empty types is a 1-cell
        e*W_T < e*W_U of both sets: sum_T (2^|T| - 2) over the non-empty
        types bounds the cells from below (the 1-cells at radius 0), read
        off the clique sizes before the tables of `DavisBall._above` are
        built.  The sharp set is counted by testing every coset of the
        ball, so the cosets are checked first."""
        edges = sum((1 << len(t)) - 2 for t in self.ball._sphericals[1:])
        check_size(edges, "or more cells", max_cells)
        if self.sharp:
            cosets, r = sum(self.ball.coset_counts()), self.ball.radius
            check_size(cosets, f"cosets in the radius-{r} ball", max_cells)
        total = sum(self.counts)
        check_size(total, "cells", max_cells)
        return total

    def _slots(self, t: Subset, top: int) -> list[tuple[int, list[int], list[int]]]:
        """The face slots of the d-cubes from type t, for 0 < d < top, in
        `cube_signs` order.  Slot j of a cube is base[src] + val, where
        base[0] is the offset of its bottom in degree d-1 and base[1 + k]
        that of the coset above its bottom whose type is at place k in
        `_above[t][1]`: the order of the up-lists `_numbered` gives with
        `covers`."""
        above = self.ball._above
        tables = above[t]
        slots = []
        for d in range(1, top):
            src, val = [], []
            for u in tables[d]:
                for s in sorted(set(u).difference(t)):
                    lower, upper = tuple(x for x in u if x != s), tuple(sorted((*t, s)))
                    src += (0, 1 + tables[1][upper])
                    val += (tables[d - 1][lower], above[upper][d - 1][u])
            if src:
                slots.append((d, src, val))
        return slots

    def chain_complex(self) -> ChainComplex:
        """The boundary maps of the cube complex, in the slot layout of
        `ChainComplex` with `cube_signs`.  The boundary entries count
        against the cell limit (`from_faces`) before any is listed; the
        offsets must give the counted cells."""
        sizes = self._cube_counts()
        faces: list = [array("i") for _ in sizes]
        cc = ChainComplex.from_faces(sizes, faces, list(map(cube_signs, range(len(sizes)))))
        types = [t for _, places in self._kept for t in places]
        per_degree = [
            {t: len(tables[d]) for t, tables in self.ball._above.items()} for d in range(len(sizes))
        ]
        offsets = [array("q", accumulate(map(n.__getitem__, types), initial=0)) for n in per_degree]
        assert [off[-1] for off in offsets] == sizes, "built cells differ from the count"
        slots: dict[Subset, list[tuple[int, list[int], list[int]]]] = {}
        for b, _, t, above in self.ball._numbered(self._kept, covers=True):
            if t not in slots:
                slots[t] = self._slots(t, len(sizes))
            for d, src, val in slots[t]:
                lower = offsets[d - 1]
                base = [lower[b], *map(lower.__getitem__, above)]
                faces[d].extend(map(add, map(base.__getitem__, src), val))
        return cc


def _extract(ball_: DavisBall, sharp: bool) -> SimplicialComplex:
    """Order complex of the singular or sharp set, on cosets named by
    `coset_id`, once its cells pass the cell limit.  The set is closed
    upwards, so a kept coset's up-list holds every coset above it."""
    index = CellIndex(ball_, sharp)
    index.cells(cell_limit())
    names, up = [], []
    for _, w, t, above in ball_._numbered(index._kept):
        names.append(ball_.coset_id(SphericalCoset(w, t)))
        up.append(above)
    return order_complex(names, up)


def hash_union_sharp(ball_: DavisBall) -> SimplicialComplex:
    """Union of the generators' fixed subcomplexes: the cosets some generator fixes."""
    return _extract(ball_, sharp=True)


def singular_subcomplex(ball_: DavisBall) -> SimplicialComplex:
    """Order complex of the cosets with non-trivial type (stabilised points)."""
    return _extract(ball_, sharp=False)
