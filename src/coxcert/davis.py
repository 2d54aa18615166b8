"""Finite-radius Davis-complex balls as posets of spherical cosets."""
from __future__ import annotations

from array import array
from collections import Counter
from functools import cached_property
from itertools import accumulate
from math import comb
from operator import add
from typing import Callable, Iterable, Iterator, NamedTuple

from .coxeter import CoxeterSystem, Word, _check_ra, ball, coset_rep, right_descents
from .homology import ChainComplex, MatrixSizeError, check_boundary_entries
from .simplicial import SimplicialComplex, capped, cell_limit, cliques
from .subdivide import face_poset, order_complex
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
        # at most the cell limit of them (ValueError past that)
        self._sphericals: list[Subset] = [()] + list(capped(cliques(system.link)))

    @cached_property
    def _supersets(self) -> dict[Subset, list[Subset]]:
        """Strict supersets of each type, for the up-lists; built on first use.

        A type of size k lies in 2^k - 1 of these lists, the empty type's
        included, so the entries are counted from the sizes first: past the
        cell limit, MatrixSizeError before any list is built.
        """
        entries = sum((1 << len(t)) - 1 for t in self._sphericals)
        if entries > cell_limit():
            raise MatrixSizeError(f"nerve: {entries} superset entries, over the cell limit")
        faces, _, up = face_poset(SimplicialComplex(self.system.generators, self._sphericals[1:]))
        supersets = {t: [faces[j] for j in above] for t, above in zip(faces, up)}
        supersets[()] = faces
        return supersets

    def coset_counts(self) -> list[int]:
        """Number of cosets of each type size 0..dim L + 1, without listing them.

        Entry 0 is N_r, the number of elements of length <= r.  With f_k the
        number of types of size k and d = dim L + 1, the growth series of W is
        W(t) = (1+t)^d / D(t), D(t) = sum_k f_k (-t)^k (1+t)^(d-k) (Davis, The
        Geometry and Topology of Coxeter Groups, ch. 17).  The w with w*W_T in
        the ball are the minimal representatives of W^T, counted by
        W(t) / (1+t)^|T| (Bjorner-Brenti, Prop. 2.4.4).  Summing up to t^r is
        taking [t^r] of (1+t)^(d-|T|) / ((1-t) D(t)), read off by halving r
        (`_coefficients`).  Past the cell limit, MatrixSizeError: the ball
        grows with the radius, so the total is first checked at the radii
        1, 2, 4, ... below r, and a ball far over the limit stops early.
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
        limit = cell_limit()
        radii = [1 << n for n in range(self.radius.bit_length()) if 1 << n < self.radius]
        for n in radii + [self.radius]:
            counts = [fk * c for fk, c in zip(f, _coefficients(nums, q, n))]
            if sum(counts) > limit:
                raise MatrixSizeError(
                    f"radius-{self.radius} ball: more than {limit} cosets, over the cell limit"
                )
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
        The N_r words hold at most N_r * r letters; past the cell limit,
        MatrixSizeError before any word is listed."""
        words = self.coset_counts()[0]
        if words * self.radius > cell_limit():
            raise MatrixSizeError(
                f"radius-{self.radius} ball: {words} words of up to {self.radius} letters,"
                " over the cell limit"
            )
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
        self, kept: list[tuple[Word, dict[Subset, int]]]
    ) -> Iterator[tuple[int, Word, Subset, list[int]]]:
        """Each coset w*W_T of `kept`, a set closed upwards, in ball order:
        its number, w, T, and the numbers of the cosets above it, one per
        strict superset of T.  One walk numbers them all: a superset u that
        holds a right descent of w gives a strictly shorter representative,
        whose cosets are numbered already."""
        supersets = self._supersets
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

    def to_json(self) -> dict:
        """Every coset, and each pair [b, j] of a coset and one above it."""
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


class CellIndex:
    """The order complex of the singular or the sharp set of a ball, as an
    index of its cells, with no simplex listed.

    The singular set keeps the cosets of non-empty type.  The sharp set, the
    union over the generators of their fixed subcomplexes, keeps the cosets
    some generator fixes: a coset fixed by s lies only below cosets fixed by
    s, so every chain of the union lies in one wall.  Both sets are closed
    upwards, so their cells are all the chains whose bottom coset is kept.

    The cosets above c = w*W_T0 are the cosets coset_rep(w, T)*W_T, one for
    each clique T containing T0 strictly, so a chain c0 < ... < cj is its
    bottom c0 and a chain of cliques T0 < ... < Tj.  The kept cosets are
    numbered in ball order, and the j-cell of bottom b and clique chain k is
    numbered offset_j[b] + k, k its place in the table of j-chains from T0,
    one dict from each chain to its place.  Deleting Ti with i >= 1 keeps
    the bottom and picks another chain from the same table; deleting T0
    moves the bottom to the coset of type T1 above it.  So the cells per
    degree are known before any is built: the kept cosets of each type times
    the chains from that type.  The singular set's kept cosets are counted
    in closed form; the sharp set's are counted by a walk of every coset of
    the ball, which `cells` checks first.  The views below are order
    complexes of the walk of its kept cosets (`_extract`).
    """

    def __init__(self, ball_: DavisBall, sharp: bool):
        self.ball, self.sharp = ball_, sharp
        self._width = ball_.singular_dim() + 1

    @cached_property
    def _lengths(self) -> dict[Subset, list[int]]:
        """The number of chains of types from each non-empty type, by length
        0..dim L; larger types first, so each sums over its supersets.  Built
        on first use, from the face poset of the nerve."""
        lengths: dict[Subset, list[int]] = {}
        for t in reversed(self.ball._sphericals[1:]):
            n = [1] + [0] * (self._width - 1)
            for u in self.ball._supersets[t]:
                n[1:] = map(add, n[1:], lengths[u])
            lengths[t] = n
        return lengths

    @cached_property
    def _chains(self) -> dict[Subset, list[dict[tuple[Subset, ...], int]]]:
        """The chains of types from each non-empty type, by length: the
        tables, each chain mapped to its place in insertion order, built
        only once their cells are counted and let through."""
        chains: dict[Subset, list[dict[tuple[Subset, ...], int]]] = {}
        for t in reversed(self.ball._sphericals[1:]):
            by_length = [{(t,): 0}] + [{} for _ in range(self._width - 1)]
            for u in self.ball._supersets[t]:
                for table, tails in zip(by_length[1:], chains[u]):
                    for tail in tails:
                        table[(t,) + tail] = len(table)
            chains[t] = by_length
        return chains

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
    def counts(self) -> list[int]:
        """Cells per degree, from the kept cosets of each type.  The singular
        set keeps every coset of non-empty type, counted without listing:
        `coset_counts` gives them per type size, the same for each type."""
        if self.sharp:
            per_type = Counter(t for _, types in self._kept for t in types)
        else:
            sphericals = self.ball._sphericals
            sizes = Counter(map(len, sphericals))
            by_size = self.ball.coset_counts()
            per_type = {t: by_size[len(t)] // sizes[len(t)] for t in sphericals if t}
        counts = [0] * self._width
        for t, n in per_type.items():
            for j, m in enumerate(self._lengths[t]):
                counts[j] += n * m
        while counts and not counts[-1]:
            counts.pop()
        return counts

    def cells(self, max_cells: int) -> int:
        """Number of cells; over `max_cells`, MatrixSizeError.  Two checks
        come before the count.  The identity has no right descents, so each
        pair T < U of non-empty types is a 1-cell e*W_T < e*W_U of both
        sets: sum_T (2^|T| - 2) over the non-empty types bounds the cells
        from below (it is the number of 1-cells at radius 0), read off the
        clique sizes before the face poset of the nerve is built.  The sharp
        set is counted by testing every coset of the ball, so over
        `max_cells` cosets it is refused before any is listed."""
        edges = sum((1 << len(t)) - 2 for t in self.ball._sphericals[1:])
        if edges > max_cells:
            raise MatrixSizeError(f"at least {edges} cells exceed the materialization cap")
        if self.sharp:
            cosets = sum(self.ball.coset_counts())
            if cosets > max_cells:
                raise MatrixSizeError(f"{cosets} cosets exceed the materialization cap")
        total = sum(self.counts)
        if total > max_cells:
            raise MatrixSizeError(f"{total} cells exceed the materialization cap")
        return total

    def _slots(self, t: Subset, d: int) -> tuple[list[int], list[int]]:
        """The face slots of the d-cells from type t.  Slot j of a cell is
        base[src] + val, where base[0] is the offset of its bottom in degree
        d-1 and base[n] that of the coset above the bottom of the n-th strict
        superset of t.  Slot j deletes the type at place d-j of the chain."""
        up = {u: n for n, u in enumerate(self.ball._supersets[t], 1)}
        tables = self._chains
        same = tables[t][d - 1]
        src, val = [], []
        for chain in tables[t][d]:
            for m in range(d, 0, -1):
                src.append(0)
                val.append(same[chain[:m] + chain[m + 1 :]])
            src.append(up[chain[1]])
            val.append(tables[chain[1]][d - 1][chain[1:]])
        return src, val

    def chain_complex(self) -> ChainComplex:
        """The boundary maps, in the slot layout of `ChainComplex`.  The
        boundary entries count against the cell limit before any is listed;
        the offsets built from the kept cosets must give the counted cells."""
        counts = self.counts
        check_boundary_entries(counts)
        types = [t for _, places in self._kept for t in places]
        lengths = [{t: n[j] for t, n in self._lengths.items()} for j in range(len(counts))]
        offsets = [array("q", accumulate(map(n.__getitem__, types), initial=0)) for n in lengths]
        assert [off[-1] for off in offsets] == counts, "built cells differ from the count"
        faces: list = [array("i") for _ in counts]
        slots: dict[Subset, list[tuple[int, list[int], list[int]]]] = {}
        for b, _, t, above in self.ball._numbered(self._kept):
            if t not in slots:
                slots[t] = [
                    (d, *self._slots(t, d)) for d in range(1, len(counts)) if self._lengths[t][d]
                ]
            for d, src, val in slots[t]:
                lower = offsets[d - 1]
                base = [lower[b], *map(lower.__getitem__, above)]
                faces[d].extend(map(add, map(base.__getitem__, src), val))
        return ChainComplex.from_faces(counts, faces)


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
