"""Integral simplicial homology: coreductions, then one dense exact Smith
normal form on the critical cells they leave."""
from __future__ import annotations

import gc
import math
import os
from collections import deque
from contextlib import contextmanager
from itertools import combinations
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


@contextmanager
def _collector_paused():
    """Pause the process-wide cyclic garbage collector, then restore it.

    For building many small lists of integers: they form no cycles, and
    every collection would rescan them (about 1 s of coreductions on a
    complex of 854,641 cells)."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


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


class ChainComplex:
    """Boundary matrices of a complex with the sorted-vertex orientation.

    The cells are the complex's position tuples, grouped by degree in one
    pass and sorted within each degree.  Degree-k boundary columns are
    indexed by k-simplices, rows by (k-1)-simplices, with alternating signs
    over omitted vertices.  `combinations` lists the faces of a cell with
    its last vertex omitted first, so the signs run from (-1)^k to +1.
    """

    def __init__(self, k: SimplicialComplex):
        self.basis: list[list[tuple[int, ...]]] = [[] for _ in range(k.dim() + 1)]
        for s in k.simplices:
            self.basis[len(s) - 1].append(s)
        for cells in self.basis:
            cells.sort()
        self.boundaries: list[list[dict[int, int]]] = []
        for d in range(1, len(self.basis)):
            face_index = {s: i for i, s in enumerate(self.basis[d - 1])}.__getitem__
            signs = [(-1) ** (d - j) for j in range(d + 1)]
            self.boundaries.append(
                [dict(zip(map(face_index, combinations(s, d)), signs)) for s in self.basis[d]]
            )

    def coreduce(self) -> list[list[int]]:
        """Reduce the complex in place to its critical cells, listed by degree.

        Coreductions (Mrozek-Batko, DCG 2009): an active cell b whose only
        active face is a is paired with a; when no such b is left, the
        lowest-degree active cell becomes critical.  The incidence of a pair
        is +-1, so removing it is an exact change of basis over Z
        (Kaczynski-Mrozek-Slusarek 1998): each coface c of a gets
        d(c) -= <d(c), a> <d(b), a> d(b).  The other faces of b are critical,
        so the fill lands only on critical cells.  Entries on removed cells go
        stale and are skipped; at the end the column of each critical cell
        holds just its boundary in the critical cells of the degree below.
        Run once, on a freshly built complex.
        """
        top = len(self.basis)
        cols = self.boundaries
        # per cell: 0 active, 1 critical, 2 removed; and its number of active faces
        state = [bytearray(len(cells)) for cells in self.basis]
        live = [bytearray([d + 1 if d else 0]) * len(cells) for d, cells in enumerate(self.basis)]
        critical: list[list[int]] = [[] for _ in self.basis]
        queue: deque[tuple[int, int]] = deque()
        with _collector_paused():
            cofaces = []
            for d in range(top - 1):
                up: list[list[int]] = [[] for _ in self.basis[d]]
                for i, col in enumerate(cols[d]):
                    for r in col:
                        up[r].append(i)
                cofaces.append(up)

            def release(d: int, i: int, fill=(), pivot: int = 0) -> None:
                # cell i of degree d stops being active; a removed face hands
                # its pair's fill on to its cofaces
                if d + 1 == top:
                    return
                above, count, col_above = state[d + 1], live[d + 1], cols[d]
                for c in cofaces[d][i]:
                    s = above[c]
                    if s == 2:
                        continue
                    if fill:
                        target = col_above[c]
                        factor = target[i] * pivot
                        for r, v in fill:
                            nv = target.get(r, 0) - factor * v
                            if nv:
                                target[r] = nv
                            else:
                                del target[r]
                    if s == 0:
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
                    fill = []
                    for r, v in cols[d - 1][b].items():
                        if below[r] == 0:
                            a, pivot = r, v
                        elif below[r] == 1:
                            fill.append((r, v))
                    below[a] = state[d][b] = 2
                    release(d - 1, a, fill, pivot)
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
        for d in range(1, top):
            below = state[d - 1]
            for i in critical[d]:
                col = cols[d - 1][i]
                for r in [r for r in col if below[r] != 1]:
                    del col[r]
        return critical

    def boundary_columns(self, d: int) -> list[dict[int, int]]:
        """Columns of the degree-d boundary map (d >= 1)."""
        if 1 <= d < len(self.basis):
            return self.boundaries[d - 1]
        return []


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
    """Integral homology: coreductions, then Smith normal form over exact integers.

    The boundary entries count against the cell limit before the chain
    complex is built; more than `max_cells` critical cells raise
    `MatrixSizeError` before any SNF.  The empty complex in reduced mode
    reports the augmentation kernel as a single Z in degree -1.
    """
    if not k.simplices:
        if reduced:
            return HomologyResult({-1: 1}, {}, reduced=True)
        return HomologyResult({}, {}, reduced=False)
    nnz = sum(map(len, k.simplices)) - len(k.vertices)  # a vertex has no boundary
    if nnz > _cell_limit():
        raise MatrixSizeError(f"chain complex with {nnz} boundary entries exceeds cell limit")
    cc = ChainComplex(k)
    critical = cc.coreduce()
    n_critical = sum(map(len, critical))
    if max_cells is not None and n_critical > max_cells:
        raise MatrixSizeError(f"{n_critical} critical cells exceed the homology cap {max_cells}")
    dim = k.dim()
    ranks = {}
    torsions = {}
    for d in range(1, dim + 1):
        cols = cc.boundary_columns(d)
        ranks[d], torsions[d] = rank_and_torsion([cols[i] for i in critical[d]])
    if reduced:
        ranks[0] = 1  # augmentation onto Z is onto for a non-empty complex
        torsions[0] = ()
    else:
        ranks[0], torsions[0] = 0, ()
    ranks[dim + 1], torsions[dim + 1] = 0, ()
    betti = {}
    torsion = {}
    for d in range(dim + 1):
        betti[d] = len(critical[d]) - ranks[d] - ranks[d + 1]
        torsion[d] = torsions[d + 1]
    return HomologyResult(betti, torsion, reduced=reduced)
