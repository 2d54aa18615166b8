"""Integral simplicial homology: coreductions, then one dense exact Smith
normal form on the critical cells they leave."""
from __future__ import annotations

from array import array
from collections import defaultdict, deque
from itertools import accumulate, chain, combinations, count, repeat
from typing import Iterable, Iterator, Optional

from .simplicial import SimplicialComplex, cell_limit


class MatrixSizeError(RuntimeError):
    """Raised when a boundary matrix exceeds the configured safety cap."""


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
    if m * n > cell_limit():
        raise MatrixSizeError(f"dense {m} x {n} SNF array exceeds cell limit")
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


def check_boundary_entries(sizes: list[int]) -> None:
    """The boundary entries of `sizes[d]` cells of each degree d, or of those
    counted so far, count against the cell limit: `MatrixSizeError` past it."""
    nnz = sum((d + 1) * n for d, n in enumerate(sizes) if d)
    if nnz > cell_limit():
        raise MatrixSizeError(f"chain complex with at least {nnz} boundary entries exceeds cell limit")


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


class ChainComplex:
    """Boundary maps of a complex, as cells per degree and flat face lists.

    `sizes[d]` is the number of d-cells.  `faces[d]` is one flat `array('i')`
    of (d-1)-cell indices (4-byte entries: no complex that fits in memory
    has 2^31 cells): cell i of degree d >= 1 owns slots i*(d+1) ...
    i*(d+1)+d, and slot j, which omits the vertex at place d-j, has sign
    (-1)^(d-j), read off its position.  `coreduce` reads the cofaces of each
    degree in the same flat form (`coface_csr`).

    Built from simplices: `cells` are strictly increasing tuples of vertex
    positions below `vertex_count` that generate the complex, in any order
    and with repeats; each position is a vertex.  From the top down, each
    degree is numbered in the order its cells are first seen: the top cells
    in the order given; below, the faces in slot order (`combinations`
    order, last vertex omitted first), then the cells given there that are
    not among them.  Its boundary entries count against the cell limit
    before its slots are written; one dict closes, numbers and writes it.
    """

    def __init__(self, vertex_count: int, cells: Iterable[tuple[int, ...]]):
        given: defaultdict[int, dict[tuple[int, ...], None]] = defaultdict(dict)
        for s in cells:
            given[len(s)][s] = None
        top = max(given, default=1) - 1 if vertex_count else 0
        self.sizes = [vertex_count] + [0] * top if vertex_count else []
        self.faces: list = [array("i") for _ in range(top + 1)]
        upper: dict = given.pop(top + 1, {})
        for d in range(top, 0, -1):
            self.sizes[d] = len(upper)
            check_boundary_entries(self.sizes)
            if d == 1:
                self.faces[1] = array("i", chain.from_iterable(upper))
                break
            seen = defaultdict(count().__next__)
            slots = chain.from_iterable(map(combinations, upper, repeat(d)))
            self.faces[d] = array("i", map(seen.__getitem__, slots))
            deque(map(seen.__getitem__, given.pop(d, ())), maxlen=0)
            upper = seen

    @classmethod
    def from_faces(cls, sizes: list[int], faces: list) -> ChainComplex:
        """A complex given by its cells per degree and its face lists, laid
        out as above; the caller has checked `sizes` against the cell limit."""
        cc = cls.__new__(cls)
        cc.sizes, cc.faces = sizes, faces
        return cc

    def coreduce(self) -> tuple[list[list[int]], list[list[dict[int, int]]]]:
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

        One step, `release`, serves every cell that stops being active: the
        lower then the upper cell of each pair, and each critical cell.  It
        lowers the active-face count of each active coface, and queues one
        left with a single active face as its (degree, cell) pair, first in,
        first out.  The cofaces of each degree are one CSR pair of flat
        arrays (`coface_csr`), built one degree at a time, each cell's in
        increasing order: that order sets the order cells are queued in, and
        so the pairing.
        """
        sizes, faces = self.sizes, self.faces
        top = len(sizes)
        # per cell: 0 active, 1 critical, 2 removed as the lower cell of a
        # pair, 3 removed as the upper cell; and its number of active faces
        state = [bytearray(n) for n in sizes]
        live = [bytearray([d + 1 if d else 0]) * n for d, n in enumerate(sizes)]
        # per degree, the upper cell b of each pair (a, b) in the order the
        # pairs are made, and per cell removed, the place of its pair in that
        # order (4-byte entries: no complex that fits in memory has 2^31 cells)
        upper = [array("i") for _ in sizes[:-1]]
        place = [array("i", [0]) * n for n in sizes]
        critical: list[list[int]] = [[] for _ in sizes]
        queue: deque[tuple[int, int]] = deque()  # (degree, cell)
        # per degree d >= 1, the d-cells that have each (d-1)-cell as a face;
        # None above the top degree
        cofaces = [None] + [coface_csr(sizes[d - 1], faces[d], d + 1) for d in range(1, top)] + [None]
        start = [0] * top

        def release(d: int, x: int) -> None:
            # the d-cell x stops being active: each active coface loses an
            # active face, and one left with a single active face is queued
            if cofaces[d + 1]:
                above, count = state[d + 1], live[d + 1]
                off, flat = cofaces[d + 1]
                for c in flat[off[x] : off[x + 1]]:
                    if not above[c]:
                        count[c] -= 1
                        if count[c] == 1:
                            queue.append((d + 1, c))

        while True:
            while queue:
                d, b = queue.popleft()
                here, count = state[d], live[d]
                if here[b] or count[b] != 1:
                    continue
                below, width = state[d - 1], d + 1
                for a in faces[d][b * width : b * width + width]:
                    if not below[a]:
                        break
                below[a], here[b] = 2, 3
                pairs = upper[d - 1]
                place[d - 1][a] = place[d][b] = len(pairs)
                pairs.append(b)
                release(d - 1, a)
                release(d, b)
            # no pair left: the lowest-degree active cell becomes critical
            for d in range(top):
                i = state[d].find(0, start[d])
                if i >= 0:
                    break
                start[d] = sizes[d]
            else:
                break
            start[d] = i + 1
            state[d][i] = 1
            critical[d].append(i)
            release(d, i)
        columns = [[]]
        for d in range(1, top):
            columns.append(self._follow(d, state, place, upper[d - 1], critical, cofaces[d]))
            cofaces[d] = None
        return critical, columns

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

        The backward pass is wasted only where every pair is reached, as in
        a top degree: all 293,437 degree-2 pairs of the spine's radius-1
        singular set, all degree-3 pairs of a torus filling.  Below the top
        it prunes (601 of 2,761 degree-1 pairs marked on a radius-2 singular
        set, 5 of 1,361 on a filling), and a degree with no critical cell
        marks none, so no image is made there; without it, `coreduce` on
        the benchmark's fillings and Davis sets measured slower."""
        below, above = state[d - 1], state[d]
        place_a, place_b = place[d - 1], place[d]
        cells = critical[d]
        faces, width = self.faces[d], d + 1
        signs = [(-1) ** (d - j) for j in range(width)]
        reached = bytearray(len(pairs))  # by the place of the pair

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

    More than `max_cells` critical cells raise `MatrixSizeError` before any
    SNF.  The empty complex in reduced mode reports the augmentation kernel
    as a single Z in degree -1.
    """
    if not any(cc.sizes):
        if reduced:
            return HomologyResult({-1: 1}, {}, reduced=True)
        return HomologyResult({}, {}, reduced=False)
    critical, boundaries = cc.coreduce()
    n_critical = sum(map(len, critical))
    if max_cells is not None and n_critical > max_cells:
        raise MatrixSizeError(f"{n_critical} critical cells exceed the homology cap {max_cells}")
    dim = len(cc.sizes) - 1
    # the augmentation onto Z is onto for a non-empty complex
    ranks = {0: 1 if reduced else 0, dim + 1: 0}
    torsions = {dim + 1: ()}
    for d in range(1, dim + 1):
        ranks[d], torsions[d] = rank_and_torsion(boundaries[d])
    betti = {d: len(critical[d]) - ranks[d] - ranks[d + 1] for d in range(dim + 1)}
    return HomologyResult(betti, {d: torsions[d + 1] for d in range(dim + 1)}, reduced=reduced)
