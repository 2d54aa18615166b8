"""Finite-radius Davis-complex balls as posets of spherical cosets."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional

from .coxeter import (
    CoxeterSystem,
    Word,
    _check_ra,
    ball,
    nerve,
    reduce,
)
# unused here, but kept bound: the benchmark's tracing hooks wrap these names
from .coxeter import in_special_subgroup, min_coset_rep  # noqa: F401
from .homology import MatrixSizeError
from .simplicial import SimplicialComplex, cone, dim_of, square_report
from .subdivide import barycentric_subdivision

Subset = tuple[int, ...]  # sorted generator indices


@dataclass(frozen=True, slots=True)
class SphericalCoset:
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
        self.nerve = nerve(system)
        gens = system.generators
        lookup = {g: i for i, g in enumerate(gens)}
        # _link[s]: the generators that commute with s
        self._link = [
            frozenset(j for j in range(len(gens)) if system.commutes(i, j))
            for i in range(len(gens))
        ]
        self._sphericals: list[Subset] = [()]
        self._sphericals += sorted(
            (tuple(sorted(lookup[v] for v in s)) for s in self.nerve.simplices),
            key=lambda t: (len(t), t),
        )
        # strict superset lists drive chain enumeration and height DP
        self._supersets: dict[Subset, list[Subset]] = {t: [] for t in self._sphericals}
        for t in self._sphericals:
            if t:
                self._supersets[()].append(t)
                for r in range(1, len(t)):
                    for sub in combinations(t, r):
                        self._supersets[sub].append(t)
        # ordered by (length, word) of the representative, then (size, T)
        cosets: list[SphericalCoset] = []
        for w in ball(system, radius):
            descents = self._descents(w)
            cosets += [SphericalCoset(w, t) for t in self._sphericals if descents.isdisjoint(t)]
        self.cosets: tuple[SphericalCoset, ...] = tuple(cosets)
        self._height: dict[Subset, int] = {}
        self._realization: Optional[SimplicialComplex] = None

    # -- coset arithmetic --------------------------------------------------

    def _descents(self, w: Word) -> set[int]:
        """Right-descent set of a normal form w."""
        link = self._link
        return {x for i, x in enumerate(w) if link[x].issuperset(w[i + 1 :])}

    def _normalize(self, w: Word, t: Subset) -> Word:
        """Minimal representative of w*W_T: w without its right descents in T.

        T is a clique, so deleting one such descent leaves the others
        descents; the result is again a normal form.
        """
        if not t:
            return w
        link = self._link
        return tuple(
            x for i, x in enumerate(w) if x not in t or not link[x].issuperset(w[i + 1 :])
        )

    def leq(self, a: SphericalCoset, b: SphericalCoset) -> bool:
        """Coset containment: types nest and a's representative lies in b."""
        if not set(a.gens) <= set(b.gens):
            return False
        return self._normalize(a.rep, b.gens) == b.rep

    def fixes(self, s: int, c: SphericalCoset) -> bool:
        """Whether generator s fixes the coset c."""
        return s in c.gens and self._link[s].issuperset(c.rep)

    @cached_property
    def _coset_index(self) -> dict[tuple[Word, Subset], int]:
        return {(c.rep, c.gens): i for i, c in enumerate(self.cosets)}

    def _above(self, c: SphericalCoset) -> dict[Subset, int]:
        """Index of the coset of each strictly larger type that contains c."""
        idx = self._coset_index
        return {t: idx[(self._normalize(c.rep, t), t)] for t in self._supersets[c.gens]}

    def coset_id(self, c: SphericalCoset) -> str:
        gens = self.system.generators
        rep = ".".join(gens[i] for i in c.rep) or "e"
        t = ",".join(gens[i] for i in c.gens) or "-"
        return f"{rep}|{t}"

    def chambers(self) -> list[SphericalCoset]:
        return [c for c in self.cosets if not c.gens]

    # -- order complex -----------------------------------------------------

    def _chains(self, kept: list[bool], max_cells: Optional[int] = None) -> list[tuple[int, ...]]:
        """All chains of the coset poset restricted to the kept cosets."""
        out: list[tuple[int, ...]] = []
        supersets = self._supersets
        for i, c in enumerate(self.cosets):
            if not kept[i]:
                continue
            above = self._above(c)
            stack: list[tuple[tuple[int, ...], Subset]] = [((i,), c.gens)]
            while stack:
                chain, t = stack.pop()
                out.append(chain)
                for t2 in supersets[t]:
                    j = above[t2]
                    if kept[j]:
                        stack.append((chain + (j,), t2))
            if max_cells is not None and len(out) > max_cells:
                raise MatrixSizeError(f"{len(out)} chains exceed the materialization cap")
        return out

    def _order_complex(self, keep, max_cells: Optional[int] = None) -> SimplicialComplex:
        kept = [keep(c) for c in self.cosets]
        n_kept = sum(kept)
        if max_cells is not None and n_kept > max_cells:
            raise MatrixSizeError(f"{n_kept} cosets exceed the materialization cap")
        ids = [self.coset_id(c) if k else None for c, k in zip(self.cosets, kept)]
        chains = self._chains(kept, max_cells)
        return SimplicialComplex(
            [v for v in ids if v is not None],
            [tuple(ids[j] for j in chain) for chain in chains],
            _validate=False,
        )

    def realization(self, max_cells: Optional[int] = None) -> SimplicialComplex:
        if self._realization is None:
            self._realization = self._order_complex(lambda c: True, max_cells)
        return self._realization

    # -- poset heights (dimensions without materializing chains) -----------

    def _type_height(self, t: Subset) -> int:
        cached = self._height.get(t)
        if cached is not None:
            return cached
        best = 1
        for t2 in self._supersets[t]:
            h = 1 + self._type_height(t2)
            if h > best:
                best = h
        self._height[t] = best
        return best

    def realization_dim(self) -> int:
        """Dimension of the order complex: longest coset chain minus one."""
        if not self.cosets:
            return -1
        return max(self._type_height(c.gens) for c in self.cosets) - 1

    def singular_dim(self) -> int:
        """Dimension of the singular subcomplex (chains of non-chamber cosets)."""
        heights = [self._type_height(c.gens) for c in self.cosets if c.gens]
        return max(heights, default=0) - 1

    def to_json(self) -> dict:
        gens = self.system.generators
        return {
            "radius": self.radius,
            "cosets": [
                {
                    "rep": "".join(gens[i] for i in c.rep),
                    "T": [gens[i] for i in c.gens],
                }
                for c in self.cosets
            ],
            "order": [
                [i, j] for i, c in enumerate(self.cosets) for j in sorted(self._above(c).values())
            ],
        }


def davis_ball(sys: CoxeterSystem, radius: int) -> DavisBall:
    return DavisBall(sys, radius)


# -- distinguished subcomplexes ---------------------------------------------


def fixed_subcomplex(ball_: DavisBall, g: Iterable[int]) -> SimplicialComplex:
    """Full subcomplex of the realization on the cosets fixed by g.

    g fixes w*W_T exactly when g*w*W_T has minimal representative w.
    """
    sys = ball_.system
    word = reduce(sys, tuple(g))
    if not word:
        raise ValueError("fixed_subcomplex requires a non-identity element")
    return ball_._order_complex(
        lambda c: ball_._normalize(reduce(sys, word + c.rep), c.gens) == c.rep
    )


def hash_union_sharp(ball_: DavisBall, max_cells: Optional[int] = None) -> SimplicialComplex:
    """Union over the fundamental generators of their fixed subcomplexes.

    A coset fixed by s lies only below cosets fixed by s, so every chain of
    the union lies in one wall: the union is the order complex of the cosets
    fixed by some generator.
    """
    return ball_._order_complex(lambda c: any(ball_.fixes(s, c) for s in c.gens), max_cells)


def singular_subcomplex(ball_: DavisBall, max_cells: Optional[int] = None) -> SimplicialComplex:
    """Full subcomplex on the cosets with non-trivial type (stabilised points)."""
    return ball_._order_complex(lambda c: bool(c.gens), max_cells)


# -- the fundamental chamber -------------------------------------------------


@dataclass(frozen=True)
class Chamber:
    """Cone on the barycentric subdivision of the nerve, with its mirrors."""

    complex: SimplicialComplex
    apex: str
    boundary: SimplicialComplex
    mirrors: dict[str, SimplicialComplex]

    def mirror_union(self) -> SimplicialComplex:
        verts = []
        seen = set()
        simplices: set[tuple[str, ...]] = set()
        for m in self.mirrors.values():
            for v in m.vertices:
                if v not in seen:
                    seen.add(v)
                    verts.append(v)
            simplices |= m.simplices
        order = {v: i for i, v in enumerate(self.boundary.vertices)}
        verts.sort(key=order.__getitem__)
        return SimplicialComplex(verts, simplices, _validate=False)


def chamber(l: SimplicialComplex) -> Chamber:
    """Fundamental chamber of the right-angled system with nerve L."""
    report = square_report(l)
    if not report.is_flag:
        raise ValueError(f"nerve must be flag; witness {report.flag_witness}")
    bary = barycentric_subdivision(l)
    apex = "*cone*"
    k = cone(bary, apex)
    mirrors = {}
    for v in l.vertices:
        star_center = f"({v})"
        containing = [s for s in bary.simplices if star_center in s]
        verts = []
        seen = set()
        simplices: set[tuple[str, ...]] = set()
        for s in containing:
            simplices.add(s)
            for r in range(1, len(s)):
                for face in combinations(s, r):
                    simplices.add(face)
            for u in s:
                if u not in seen:
                    seen.add(u)
                    verts.append(u)
        order = {u: i for i, u in enumerate(bary.vertices)}
        verts.sort(key=order.__getitem__)
        mirrors[v] = SimplicialComplex(verts, simplices, _validate=False)
    return Chamber(complex=k, apex=apex, boundary=bary, mirrors=mirrors)
