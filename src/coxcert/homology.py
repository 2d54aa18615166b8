"""Integral simplicial homology: coreductions, then one dense exact Smith
normal form on the critical cells they leave."""
from __future__ import annotations

import gc
import math
import os
from collections import defaultdict, deque
from itertools import chain, combinations, repeat
from typing import Iterable, Optional

from .simplicial import SimplicialComplex


class MatrixSizeError(RuntimeError):
    """Raised when a boundary matrix exceeds the configured safety cap."""


def _cell_limit() -> int:
    raw = os.environ.get("COXCERT_SNF_CELL_LIMIT", "50000000")
    try:
        limit = int(raw)
    except ValueError:
        limit = -1  # rejected below, with the message for a negative value
    if limit < 0:
        raise ValueError(f"COXCERT_SNF_CELL_LIMIT must be a non-negative integer, got {raw!r}")
    return limit


# -- Smith normal form ----------------------------------------------------


def snf_divisors(columns: Iterable[dict[int, int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form of a sparse integer matrix.

    `columns[j]` maps row index to entry.  Exact dense elimination with
    arbitrary-precision integers over the nonzero rows and columns; the
    m x n array counts against the cell limit before it is allocated.
    `homology` calls it only on the critical cells left by coreductions.
    """
    cols = [col for col in ({r: v for r, v in c.items() if v} for c in columns) if col]
    rmap = {r: i for i, r in enumerate(sorted({r for col in cols for r in col}))}
    m, n = len(rmap), len(cols)
    if m * n > _cell_limit():
        raise MatrixSizeError(f"dense {m} x {n} SNF array exceeds cell limit")
    a = [[0] * n for _ in range(m)]
    for j, col in enumerate(cols):
        for r, v in col.items():
            a[rmap[r]][j] = v
    divisors = []
    top = 0
    while True:
        pivot = None
        best = None
        for i in range(top, m):
            row = a[i]
            for j in range(top, n):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        i, j = pivot
        a[top], a[i] = a[i], a[top]
        for row in a:
            row[top], row[j] = row[j], row[top]
        while True:
            # clear column by row operations, reducing the pivot as needed
            p = a[top][top]
            for i in range(top + 1, m):
                if a[i][top]:
                    q = a[i][top] // p
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[top])]
                    if a[i][top]:
                        a[top], a[i] = a[i], a[top]
                        break
            else:
                p = a[top][top]
                done = True
                for j in range(top + 1, n):
                    if a[top][j]:
                        q = a[top][j] // p
                        if q:
                            for row in a:
                                row[j] -= q * row[top]
                        if a[top][j]:
                            for row in a:
                                row[top], row[j] = row[j], row[top]
                            done = False
                            break
                if done:
                    break
        divisors.append(abs(a[top][top]))
        top += 1
        if top >= m or top >= n:
            break
    # enforce the divisibility chain d1 | d2 | ...
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            di, dj = divisors[i], divisors[j]
            if dj % di:
                g = math.gcd(di, dj)
                divisors[i], divisors[j] = g, di * dj // g
    return divisors


def rank_and_torsion(columns: Iterable[dict[int, int]]) -> tuple[int, tuple[int, ...]]:
    divisors = snf_divisors(columns)
    return len(divisors), tuple(sorted(d for d in divisors if d > 1))


# -- chain complexes -------------------------------------------------------


def check_boundary_entries(sizes: list[int]) -> None:
    """The boundary entries of a complex with `sizes[d]` cells of each degree
    d count against the cell limit: `MatrixSizeError` past it."""
    nnz = sum((d + 1) * n for d, n in enumerate(sizes) if d)
    if nnz > _cell_limit():
        raise MatrixSizeError(f"chain complex with {nnz} boundary entries exceeds cell limit")


class ChainComplex:
    """Boundary maps of a complex, as cells per degree and flat face lists.

    `sizes[d]` is the number of d-cells.  `faces[d]` is one flat list of
    (d-1)-cell indices: cell i of degree d >= 1 owns slots i*(d+1) ...
    i*(d+1)+d, and slot j, which omits the vertex at place d-j, has sign
    (-1)^(d-j), read off its position.  Built from a simplicial complex, the
    cells are its position tuples, grouped by degree and sorted within each
    degree, and the slots come in `combinations` order, which omits the last
    vertex first.  The boundary entries count against the cell limit before
    any face is listed.
    """

    def __init__(self, k: SimplicialComplex):
        groups: defaultdict[int, list[tuple[int, ...]]] = defaultdict(list)
        for s in k.simplices:
            groups[len(s)].append(s)
        basis = [groups[n] for n in range(1, max(groups, default=0) + 1)]
        self.sizes = [len(cells) for cells in basis]
        check_boundary_entries(self.sizes)
        for cells in basis:
            cells.sort()
        self.faces: list = [[]]
        for d in range(1, len(basis)):
            face_index = {s: i for i, s in enumerate(basis[d - 1])}.__getitem__
            slots = chain.from_iterable(combinations(s, d) for s in basis[d])
            self.faces.append(list(map(face_index, slots)))

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
        """
        sizes = self.sizes
        top = len(sizes)
        # per cell: 0 active, 1 critical, 2 removed as the lower cell of a
        # pair, 3 removed as the upper cell; and its number of active faces
        state = [bytearray(n) for n in sizes]
        live = [bytearray([d + 1 if d else 0]) * n for d, n in enumerate(sizes)]
        partner = [[0] * n for n in sizes[:-1]]  # b of each lower cell a
        critical: list[list[int]] = [[] for _ in sizes]
        queue: deque[tuple[int, int]] = deque()
        faces = self.faces
        # the lists built here form no cycles, and every collection would
        # rescan them (about 1 s of 4 s on a complex of 854,641 cells)
        collecting = gc.isenabled()
        gc.disable()
        try:
            cofaces = []
            for d in range(top - 1):
                up: list[list[int]] = [[] for _ in range(sizes[d])]
                # one int object per coface, repeated for each of its faces
                owners = chain.from_iterable(map(repeat, range(sizes[d + 1]), repeat(d + 2)))
                for c, r in zip(owners, faces[d + 1]):
                    up[r].append(c)
                cofaces.append(up)

            def release(d: int, i: int) -> None:
                # cell i of degree d stops being active
                if d + 1 == top:
                    return
                above, count = state[d + 1], live[d + 1]
                for c in cofaces[d][i]:
                    if above[c] == 0:
                        count[c] -= 1
                        if count[c] == 1:
                            queue.append((d + 1, c))

            start = [0] * top
            while True:
                while queue:
                    d, b = queue.popleft()
                    if state[d][b] or live[d][b] != 1:
                        continue
                    below = state[d - 1]
                    for a in faces[d][b * (d + 1) : (b + 1) * (d + 1)]:
                        if not below[a]:
                            break
                    below[a], state[d][b] = 2, 3
                    partner[d - 1][a] = b
                    release(d - 1, a)
                    release(d, b)
                # no pair left: the lowest-degree active cell becomes critical
                for d in range(top):
                    cells, i = state[d], start[d]
                    while i < len(cells) and cells[i]:
                        i += 1
                    start[d] = i
                    if i < len(cells):
                        break
                else:
                    break
                cells[i] = 1
                critical[d].append(i)
                release(d, i)
            del cofaces
            columns = [
                self._follow(d, state[d - 1], partner[d - 1], critical[d]) for d in range(1, top)
            ]
        finally:
            if collecting:
                gc.enable()
        return critical, [[]] + columns

    def _follow(self, d: int, below: bytearray, partner: list[int], cells: list[int]) -> list:
        """Boundaries of the given d-cells in the critical (d-1)-cells.  The
        image of each lower face reached is computed once, after the images
        it is made of: faces removed before it, so the search ends."""
        faces, width = self.faces[d], d + 1
        signs = [(-1) ** (d - j) for j in range(width)]
        images: list[Optional[dict[int, int]]] = [None] * len(below)
        empty: dict[int, int] = {}  # shared by every image that vanishes

        def combine(b: int, skip: int = -1) -> dict[int, int]:
            # d(b) in the critical cells or, for the pair (skip, b), the image
            # of skip: -<d(b), skip> (d(b) - <d(b), skip> skip)
            acc: dict[int, int] = {}
            factor = 1
            for r, sign in zip(faces[b * width : (b + 1) * width], signs):
                if r == skip:
                    factor = -sign
                elif below[r] == 1:
                    acc[r] = acc.get(r, 0) + sign
                elif below[r] == 2:
                    for rr, v in images[r].items():
                        acc[rr] = acc.get(rr, 0) + sign * v
            return {r: factor * v for r, v in acc.items() if v} if acc else acc

        def pending(b: int, skip: int = -1) -> list[int]:
            # the lower faces of b, other than skip, with no image yet
            slots = faces[b * width : (b + 1) * width]
            return [r for r in slots if below[r] == 2 and r != skip and images[r] is None]

        columns = []
        for b in cells:
            stack = pending(b)
            while stack:
                a = stack.pop()
                if a >= 0 and images[a] is None:  # first visit: its faces go above it
                    stack += [~a] + pending(partner[a], a)
                elif a < 0 and images[~a] is None:
                    images[~a] = combine(partner[~a], ~a) or empty
            columns.append(combine(b))
        return columns


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

    def to_json(self, max_degree: Optional[int] = None) -> list[dict]:
        top = max(self.degrees(), default=0)
        if max_degree is not None:
            top = max(top, max_degree)
        low = -1 if self.betti(-1) else 0
        return [
            {"degree": d, "betti": self.betti(d), "torsion": list(self.torsion(d))}
            for d in range(low, top + 1)
        ]


def homology(
    k: SimplicialComplex, reduced: bool = False, *, max_cells: Optional[int] = None
) -> HomologyResult:
    """Integral homology of a simplicial complex: `chain_homology` of its chain complex."""
    return chain_homology(ChainComplex(k), reduced, max_cells=max_cells)


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
