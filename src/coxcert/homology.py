"""Integral simplicial homology: coreductions, then one dense exact Smith
normal form on the critical cells they leave."""
from __future__ import annotations

from array import array
from collections import defaultdict, deque
from functools import reduce
from itertools import accumulate, chain, combinations, compress, count, repeat
from operator import or_
from typing import Iterable, Iterator, Optional

from .simplicial import SimplicialComplex, check_size


# -- Smith normal form ----------------------------------------------------


def snf_divisors(columns: Iterable[dict[int, int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form of a sparse integer matrix,
    in chain order d1 | d2 | ....

    `columns[j]` maps row index to entry.  Exact dense elimination with
    arbitrary-precision integers over the nonzero rows and columns; the
    m x n array counts against the cell limit before it is allocated.
    One loop over the pivot position: an entry of least absolute value in
    the remaining block moves there, and its column and row are reduced
    modulo it.  A remainder left, or an entry of the block that the pivot
    does not divide (its row is added to the pivot row), becomes a smaller
    pivot; otherwise the pivot divides the whole block and is recorded.
    `homology` calls it only on the critical cells left by coreductions.
    """
    cols = [col for col in ({r: v for r, v in c.items() if v} for c in columns) if col]
    rmap = {r: i for i, r in enumerate(sorted({r for col in cols for r in col}))}
    m, n = len(rmap), len(cols)
    check_size(m * n, f"entries of a dense {m} x {n} SNF array")
    a = [[0] * n for _ in range(m)]
    for j, col in enumerate(cols):
        for r, v in col.items():
            a[rmap[r]][j] = v
    divisors = []
    top = 0
    while top < m and top < n:
        best = 0
        for i in range(top, m):
            row = a[i]
            for j in range(top, n):
                v = abs(row[j])
                if v and (not best or v < best):
                    best, pi, pj = v, i, j
                    if v == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        pivot = a[top]
        p = pivot[top]
        for i in range(top + 1, m):
            q = a[i][top] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], pivot)]
        for j in range(top + 1, n):
            q = pivot[j] // p
            if q:
                for row in a:
                    row[j] -= q * row[top]
        # a remainder left is a smaller pivot
        if any(pivot[top + 1 :]) or any(a[i][top] for i in range(top + 1, m)):
            continue
        # so is an entry of the block the pivot does not divide: this keeps
        # the chain d1 | d2 | ...
        if best > 1:
            i = next((i for i in range(top + 1, m) if any(x % p for x in a[i][top + 1 :])), None)
            if i is not None:
                a[top] = [x + y for x, y in zip(pivot, a[i])]
                continue
        divisors.append(best)
        top += 1
    return divisors


def rank_and_torsion(columns: Iterable[dict[int, int]]) -> tuple[int, tuple[int, ...]]:
    divisors = snf_divisors(columns)
    return len(divisors), tuple(d for d in divisors if d > 1)


# -- chain complexes -------------------------------------------------------

# translate tables: 1 where a count is 1; the first state by level, 0
# (active) for level 0 and 4 (waiting) for level 1
_ONE = bytes(v == 1 for v in range(256))
_WAIT = bytes([0, 4]) + bytes(254)


def _slot_flags(flags: bytes, faces, width: int) -> Iterator[int]:
    """For each face slot of cells with `width` slots, the flags of the
    faces in that slot, one byte per cell, as one little-endian integer."""
    for j in range(width):
        yield int.from_bytes(bytes(map(flags.__getitem__, faces[j::width])), "little")


def coface_csr(n: int, faces, width: int) -> tuple[array, array]:
    """The cofaces of n cells in CSR form, from the flat face lists of the
    cells of the degree above, `width` slots each: the cofaces of cell i are
    flat[offsets[i] : offsets[i + 1]], in increasing order.  Returns
    (offsets, flat).  A counting sort: no list per cell is made."""
    sizes = [0] * n
    for f in faces:
        sizes[f] += 1
    offsets = array("i", accumulate(sizes, initial=0))
    del sizes
    free = offsets.tolist()  # the next free place of each cell's cofaces
    flat = array("i", [0]) * len(faces)
    # the cells of the degree above in increasing order, each once per slot
    owners = chain.from_iterable(map(repeat, range(len(faces) // width), repeat(width)))
    for f, c in zip(faces, owners):
        p = free[f]
        flat[p] = c
        free[f] = p + 1
    return offsets, flat


def simplex_signs(d: int) -> tuple[int, ...]:
    """The slot signs of a d-simplex: slot j omits the vertex at place d-j,
    with sign (-1)^(d-j)."""
    return tuple((-1) ** (d - j) for j in range(d + 1))


class ChainComplex:
    """Boundary maps of a complex, as cells per degree and flat face lists.

    `sizes[d]` is the number of d-cells.  `signs[d]` holds the incidence of
    each face slot of a d-cell, the same for every cell of the degree, and
    its length w_d is the number of slots: `simplex_signs(d)` for
    simplices, 2d signs for the cubes of a Davis extract (`CellIndex`);
    `signs[0]` is empty.  `faces[d]` is one flat `array('i')` of (d-1)-cell
    indices (4-byte entries: no complex that fits in memory has 2^31
    cells): cell i of degree d >= 1 owns slots i*w_d ... i*w_d + w_d - 1,
    and each slot's sign is read off its position.  The faces of a cell are
    distinct and every incidence is +-1.  `coreduce` reads the cofaces of
    each degree in the same flat form (`coface_csr`).

    Built from simplices: `cells` are strictly increasing tuples of vertex
    positions below `vertex_count` that generate the complex, in any order
    and with repeats; each position is a vertex.  From the top down, each
    degree is numbered in the order its cells are first seen: the top cells
    in the order given; below, the faces in slot order (`combinations`
    order, last vertex omitted first), then the cells given there that are
    not among them.  The boundary entries of the degrees built so far count
    against the cell limit before their slots are written; one dict closes,
    numbers and writes each degree.
    """

    def __init__(self, vertex_count: int, cells: Iterable[tuple[int, ...]]):
        given: defaultdict[int, dict[tuple[int, ...], None]] = defaultdict(dict)
        for s in cells:
            given[len(s)][s] = None
        top = max(given, default=1) - 1 if vertex_count else 0
        self.sizes = [vertex_count] + [0] * top if vertex_count else []
        self.signs = [()] + [simplex_signs(d) for d in range(1, len(self.sizes))]
        self.faces: list = [array("i") for _ in range(top + 1)]
        upper: dict = given.pop(top + 1, {})
        entries = 0
        for d in range(top, 0, -1):
            self.sizes[d] = len(upper)
            entries += (d + 1) * len(upper)
            check_size(entries, "or more boundary entries")
            if d == 1:
                self.faces[1] = array("i", chain.from_iterable(upper))
                break
            seen = defaultdict(count().__next__)
            slots = chain.from_iterable(map(combinations, upper, repeat(d)))
            self.faces[d] = array("i", map(seen.__getitem__, slots))
            deque(map(seen.__getitem__, given.pop(d, ())), maxlen=0)
            upper = seen

    @classmethod
    def from_faces(cls, sizes: list[int], faces: list, signs: list[tuple[int, ...]]) -> ChainComplex:
        """A complex given by its cells per degree, its face lists and its
        slot signs, laid out as above.  Its boundary entries, sum_d w_d
        sizes[d], are checked against the cell limit first, so a caller may
        fill the lists once this returns."""
        check_size(sum(len(w) * n for w, n in zip(signs, sizes)), "boundary entries")
        cc = cls.__new__(cls)
        cc.sizes, cc.faces, cc.signs = sizes, faces, signs
        return cc

    def cell_levels(self, vertex_levels: Iterable[int]) -> list[bytearray]:
        """The level of each cell, per degree: a vertex's is given, 0 or 1,
        and any other cell's is 1 when one of its faces' is.  So the cells of
        level 0 are the full subcomplex on the level-0 vertices."""
        levels = [bytearray(vertex_levels)]
        for d in range(1, len(self.sizes)):
            flags = reduce(or_, _slot_flags(levels[-1], self.faces[d], len(self.signs[d])))
            levels.append(bytearray(flags.to_bytes(self.sizes[d], "little")))
        return levels

    def coreduce(
        self, levels: Optional[list[bytearray]] = None
    ) -> tuple[list[list[int]], list[list[dict[int, int]]]]:
        """Critical cells by degree, and the boundary of each in the critical
        cells of the degree below (no columns in degree 0).

        Coreductions (Mrozek-Batko, DCG 2009): an active cell b whose only
        active face is a is paired with a; when no such b is left, the
        lowest-degree active cell becomes critical.  The incidence of a pair
        is +-1, so the pairs are a discrete Morse matching over Z, and the
        boundary of a critical cell follows the pairing (Forman; Harker,
        Mischaikow, Mrozek and Nanda, FoCM 2014): a critical face stays, a
        face removed as the upper cell of a pair vanishes, and a face a
        removed as the lower cell of the pair (a, b) becomes
        -<d(b), a> (d(b) - <d(b), a> a), its faces resolved the same way.

        One loop makes the pairs and the critical cells.  When a cell stops
        being active (the lower then the upper cell of each pair, and each
        critical cell), the active-face count of each active coface drops,
        and one left with a single active face is queued as its (degree,
        cell) pair, first in, first out.  The loop reads, per degree d, one
        tuple of what a pair of degrees (d-1, d) touches.  The cofaces of
        each degree are one CSR pair of flat arrays (`coface_csr`), built
        one degree at a time, each cell's in increasing order: that order
        sets the order cells are queued in, and so the pairing.

        With `levels` (`cell_levels`), the subcomplex of level 0 is reduced
        first, then the rest, and no pair joins two levels: a cell of level
        1 waits in a state that the counts and the critical rule skip.  When
        level 1 starts, its cells become active, each with its number of
        faces of level 1, and those with one are queued in (degree, cell)
        order; the critical rule then finds only active cells, those of
        level 1.  Every face of level 0 is removed by then, so the pairing
        stays acyclic and is followed as before.  The critical cells of level 0, with their columns, are a
        Morse complex of the subcomplex.  With no `levels` there is one
        level and every face counts from the start.
        """
        sizes, faces = self.sizes, self.faces
        top = len(sizes)
        widths = list(map(len, self.signs))
        # per cell: 0 active, 1 critical, 2 removed as the lower cell of a
        # pair, 3 removed as the upper cell, 4 waiting for its level; and its
        # number of active faces
        if levels is None:
            state = [bytearray(n) for n in sizes]
            live = [bytearray([w]) * n for w, n in zip(widths, sizes)]
        else:
            # level 0 starts active, with all its faces; level 1 waits, and
            # counts its faces of level 1, the active ones once it starts.
            # The flags add up as bytes of one integer: no count reaches 256
            state = [cells.translate(_WAIT) for cells in levels]
            live = [bytearray(sizes[0])]
            for d in range(1, top):
                count = sum(_slot_flags(levels[d - 1], faces[d], widths[d]))
                count += int.from_bytes(levels[d].translate(bytes([widths[d]]) + bytes(255)), "little")
                live.append(bytearray(count.to_bytes(sizes[d], "little")))
        # per degree, the upper cell b of each pair (a, b) in the order the
        # pairs are made, and per cell removed, the place of its pair in that
        # order (4-byte entries: no complex that fits in memory has 2^31 cells)
        upper = [array("i") for _ in sizes[:-1]]
        place = [array("i", [0]) * n for n in sizes]
        critical: list[list[int]] = [[] for _ in sizes]
        queue: deque[tuple[int, int]] = deque()  # (degree, cell)
        # per degree d >= 1, the d-cells that have each (d-1)-cell as a face
        cofaces = [None] + [coface_csr(sizes[d - 1], faces[d], widths[d]) for d in range(1, top)]
        # per degree d >= 1, what a pair of degrees (d-1, d) reads: the
        # states of both, the counts of d, the faces and width of d, the
        # pairs, the places of both and the CSR cofaces of the (d-1)-cells;
        # None above the top degree
        reads = [None] * (top + 1)
        for d in range(1, top):
            reads[d] = (state[d - 1], state[d], live[d], faces[d], widths[d], upper[d - 1],
                        place[d - 1], place[d], *cofaces[d])
        push, pop = queue.append, queue.popleft

        for level in range(2 if levels else 1):
            if level:
                self._activate(levels, state, live, queue)
            start = [0] * top
            while True:
                if queue:
                    d, b = pop()
                    below, here, count, cells, width, pairs, place_a, place_b, off, flat = reads[d]
                    if here[b] or count[b] != 1:
                        continue
                    for a in cells[b * width : b * width + width]:
                        if not below[a]:
                            break
                    below[a], here[b] = 2, 3
                    place_a[a] = place_b[b] = len(pairs)
                    pairs.append(b)
                    # a stops being active: each active coface loses an
                    # active face, and one left with a single one is queued
                    for c in flat[off[a] : off[a + 1]]:
                        if not here[c]:
                            count[c] -= 1
                            if count[c] == 1:
                                push((d, c))
                else:
                    # no pair left: the lowest-degree active cell becomes critical
                    for d in range(top):
                        b = state[d].find(0, start[d])
                        if b >= 0:
                            break
                        start[d] = sizes[d]
                    else:
                        break
                    start[d] = b + 1
                    state[d][b] = 1
                    critical[d].append(b)
                # b, the upper cell of the pair or the critical cell, stops too
                if reads[d + 1]:
                    _, above, count, _, _, _, _, _, off, flat = reads[d + 1]
                    for c in flat[off[b] : off[b + 1]]:
                        if not above[c]:
                            count[c] -= 1
                            if count[c] == 1:
                                push((d + 1, c))
        del reads  # so that `_follow` can free each degree's cofaces below
        columns = [[]]
        for d in range(1, top):
            columns.append(self._follow(d, state, place, upper[d - 1], critical, cofaces[d]))
            cofaces[d] = None
        return critical, columns

    def _activate(self, levels: list, state: list, live: list, queue: deque) -> None:
        """Make the cells of level 1 active, and queue those with one face of
        level 1 in (degree, cell) order.  Whole degrees at a time, on the
        flags as bytes of one integer."""
        for d, cells in enumerate(levels):
            n, flags = len(cells), int.from_bytes(cells, "little")
            # clear the waiting state 4 of each cell of level 1
            waiting = int.from_bytes(state[d], "little") & ~(255 * flags)
            state[d][:] = waiting.to_bytes(n, "little")
            if d:
                single = flags & int.from_bytes(live[d].translate(_ONE), "little")
                queue.extend(zip(repeat(d), compress(range(n), single.to_bytes(n, "little"))))

    def _follow(
        self, d: int, state: list, place: list, pairs: array, critical: list, cofaces: tuple
    ) -> list:
        """Boundaries of the critical d-cells in the critical (d-1)-cells.

        `pairs[k]` is the cell b of the k-th pair (a, b) of degrees d-1 and
        d, and `place[d - 1][a]` and `place[d][b]` are k.  The image of a is
        made of the other faces of b, all removed before a was paired:
        critical cells, and lower cells of earlier pairs.  So one backward
        pass over the pairs marks those whose image some critical d-cell
        reaches, skipping to the next mark.  An image vanishes unless b has
        a critical face or a face whose image does not vanish, so the
        forward pass computes, in pairing order, only the marked images
        that some such face pushes: first through the cofaces of the
        critical (d-1)-cells, then through those of each lower cell whose
        image is kept (`cofaces`, the CSR pair of `coface_csr`).  Only the
        images that do not vanish are kept.

        In the top degree the backward pass would mark every pair or nearly
        (all 12,418 degree-3 pairs of a 3-slope torus filling, all 146,561
        degree-2 pairs of the cubes of the spine's radius-1 singular set),
        so there, when a critical cell exists, every pair counts as marked
        and the forward pass alone limits the images: 266 on the filling
        and 33,035 on the cubes, the same with or without the marks.
        Marking more pairs makes no image wrong, since the marks of a pair
        cover all those its image reads.  Below the top the backward pass
        prunes (191 images instead of 5,511 on the filling's degree 2), and
        a degree with no critical cell marks none, so no image is made
        there."""
        below, above = state[d - 1], state[d]
        place_a, place_b = place[d - 1], place[d]
        cells = critical[d]
        faces, signs = self.faces[d], self.signs[d]
        width = len(signs)
        if cells and d == len(self.sizes) - 1:
            reached = bytearray([1]) * len(pairs)  # by the place of the pair
        else:
            reached = bytearray(len(pairs))

            def marked() -> Iterator[int]:
                # the given cells, then the b of each marked pair, last first
                yield from cells
                k = len(pairs)
                while (k := reached.rfind(1, 0, k)) >= 0:
                    yield pairs[k]

            for b in marked():
                for r in faces[b * width : (b + 1) * width]:
                    if below[r] == 2:
                        reached[place_a[r]] = 1

        images: dict[int, dict[int, int]] = {}  # by the place of the pair; none is empty
        pushed = bytearray(len(pairs))  # marked pairs whose b has a face that counts
        off, flat = cofaces

        def push(a: int, k: int) -> None:
            # the marked pairs after the k-th whose b has the face a
            for c in flat[off[a] : off[a + 1]]:
                if above[c] == 3:
                    j = place_b[c]
                    if j > k and reached[j]:
                        pushed[j] = 1

        def combine(slots: array, k: int = -1) -> dict[int, int]:
            # d(b) in the critical cells, b with these face slots or, for the
            # k-th pair (a, b), the image of a: -<d(b), a> (d(b) - <d(b), a> a)
            acc: dict[int, int] = {}
            factor = 1
            for r, sign in zip(slots, signs):
                kind = below[r]
                if kind == 2:
                    j = place_a[r]
                    if j in images:  # never j == k: a's image is not made yet
                        for rr, v in images[j].items():
                            acc[rr] = acc.get(rr, 0) + sign * v
                    elif j == k:
                        factor = -sign
                elif kind == 1:
                    acc[r] = acc.get(r, 0) + sign
            return {r: factor * v for r, v in acc.items() if v} if acc else acc

        for r in critical[d - 1]:
            push(r, -1)
        k = -1
        while (k := pushed.find(1, k + 1)) >= 0:
            b = pairs[k]
            slots = faces[b * width : (b + 1) * width]
            image = combine(slots, k)
            if image:
                images[k] = image
                push(next(r for r in slots if below[r] == 2 and place_a[r] == k), k)
        return [combine(faces[b * width : (b + 1) * width]) for b in cells]


class HomologyResult:
    """Per-degree Betti numbers and torsion divisors of a chain complex."""

    def __init__(self, betti: dict[int, int], torsion: dict[int, tuple[int, ...]], reduced: bool):
        self.reduced = reduced
        self._betti = {d: b for d, b in betti.items() if b}
        self._torsion = {d: tuple(t) for d, t in torsion.items() if t}

    def betti(self, degree: int) -> int:
        return self._betti.get(degree, 0)

    def torsion(self, degree: int) -> tuple[int, ...]:
        return self._torsion.get(degree, ())

    def degrees(self) -> list[int]:
        return sorted(set(self._betti) | set(self._torsion))

    def is_trivial(self) -> bool:
        """All stored groups vanish (for reduced results: acyclicity)."""
        return not self._betti and not self._torsion

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomologyResult):
            return NotImplemented
        return (
            self.reduced == other.reduced
            and self._betti == other._betti
            and self._torsion == other._torsion
        )

    def __hash__(self) -> int:
        return hash((self.reduced, tuple(sorted(self._betti.items())), tuple(sorted(self._torsion.items()))))

    def __repr__(self) -> str:
        parts = []
        for d in self.degrees():
            summands = ["Z"] * self.betti(d) + [f"Z/{t}" for t in self.torsion(d)]
            parts.append(f"H{d}=" + ("+".join(summands) if summands else "0"))
        kind = "reduced" if self.reduced else "unreduced"
        return f"HomologyResult({kind}: {', '.join(parts) if parts else 'trivial'})"

    def to_json(self, max_degree: int) -> list[dict]:
        top = max(max(self.degrees(), default=0), max_degree)
        low = -1 if self.betti(-1) else 0
        return [
            {"degree": d, "betti": self.betti(d), "torsion": list(self.torsion(d))}
            for d in range(low, top + 1)
        ]


def homology(k: SimplicialComplex, reduced: bool = False) -> HomologyResult:
    """Integral homology of a simplicial complex: `chain_homology` of the
    chain complex built from its facets, with no cap on the critical cells."""
    return chain_homology(ChainComplex(len(k.vertices), k.maximal_simplices()), reduced)


def chain_homology(
    cc: ChainComplex, reduced: bool = False, *, max_cells: Optional[int] = None
) -> HomologyResult:
    """Integral homology: coreductions, then Smith normal form over exact integers.

    More than `max_cells` critical cells, when given, are refused before any
    SNF.  The empty complex in reduced mode reports the augmentation kernel
    as a single Z in degree -1.
    """
    if not any(cc.sizes):
        if reduced:
            return HomologyResult({-1: 1}, {}, reduced=True)
        return HomologyResult({}, {}, reduced=False)
    critical, boundaries = cc.coreduce()
    n_critical = sum(map(len, critical))
    if max_cells is not None:
        check_size(n_critical, "critical cells", max_cells)
    dim = len(cc.sizes) - 1
    # the augmentation onto Z is onto for a non-empty complex
    ranks = {0: 1 if reduced else 0, dim + 1: 0}
    torsions = {dim + 1: ()}
    for d in range(1, dim + 1):
        ranks[d], torsions[d] = rank_and_torsion(boundaries[d])
    betti = {d: len(critical[d]) - ranks[d] - ranks[d + 1] for d in range(dim + 1)}
    return HomologyResult(betti, {d: torsions[d + 1] for d in range(dim + 1)}, reduced=reduced)


def pair_ranks(k: SimplicialComplex, sub: Iterable[bool]) -> tuple[list[int], list[int], list[int]]:
    """Ranks in the long exact sequence of the pair (K, A), A the full
    subcomplex of K on the vertices flagged in `sub`.  Per degree d of K:
    rank H_d(A), rank H_d(K, A), and the rank of the connecting map
    H_d(K, A) -> H_{d-1}(A).

    One coreduction of K in two levels, A first (`ChainComplex.coreduce`):
    no pair joins the levels, so the critical cells of A with their columns
    are a Morse complex of A, and the other critical cells, with their
    columns cut to the rows outside A, one of (K, A).  In each degree the
    whole Morse boundary B is block triangular, [B_1 0; B_01 B_0], with B_0
    that of A and B_1 that of (K, A).  Its rank is rank B_1 + rank B_0 plus
    the rank of B_01 on the kernel of B_1 modulo the image of B_0, which is
    the connecting map.  Each rank is one `rank_and_torsion` on the
    critical columns, so the ranks are exact.
    """
    cc = ChainComplex(len(k.vertices), k.maximal_simplices())
    levels = cc.cell_levels(0 if a else 1 for a in sub)
    critical, columns = cc.coreduce(levels)
    top = len(critical)
    # per degree, and one past the top: ranks of B_0, B_1 and B
    rank_sub, rank_rel, rank_all = [0] * (top + 1), [0] * (top + 1), [0] * (top + 1)
    for d in range(1, top):
        mine, rows = levels[d], levels[d - 1]
        cells = list(zip(critical[d], columns[d]))
        rank_sub[d] = rank_and_torsion([c for i, c in cells if not mine[i]])[0]
        cut = [{r: v for r, v in c.items() if rows[r]} for i, c in cells if mine[i]]
        rank_rel[d] = rank_and_torsion(cut)[0]
        rank_all[d] = rank_and_torsion(columns[d])[0]
    in_sub = [sum(not levels[d][i] for i in cells) for d, cells in enumerate(critical)]
    sub_betti = [in_sub[d] - rank_sub[d] - rank_sub[d + 1] for d in range(top)]
    relative = [len(critical[d]) - in_sub[d] - rank_rel[d] - rank_rel[d + 1] for d in range(top)]
    connecting = [rank_all[d] - rank_sub[d] - rank_rel[d] for d in range(top)]
    return sub_betti, relative, connecting
