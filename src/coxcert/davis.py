"""Finite-radius Davis-complex balls as posets of spherical cosets."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Optional

from .coxeter import CoxeterSystem, Word, _check_ra, ball, coset_rep, right_descents
from .homology import MatrixSizeError
from .simplicial import SimplicialComplex, capped, cliques
from .subdivide import face_poset, order_complex
# unused here, but kept bound: the benchmark's tracing hooks wrap these names
from .coxeter import in_special_subgroup, min_coset_rep, nerve, reduce  # noqa: F401
from .simplicial import square_report  # noqa: F401
from .subdivide import barycentric_subdivision  # noqa: F401

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

    def __init__(self, system: CoxeterSystem, radius: int, *, max_cells: Optional[int] = None):
        _check_ra(system)
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.system = system
        self.radius = radius
        # the empty type, then the cliques of the nerve in (size, lex) order,
        # at most max_cells of them (ValueError past that)
        self._sphericals: list[Subset] = [()] + list(capped(cliques(system.link), max_cells))

    @cached_property
    def _supersets(self) -> dict[Subset, list[Subset]]:
        """Strict supersets of each type, for the up-lists; built on first use."""
        faces, _, up = face_poset(SimplicialComplex(self.system.generators, self._sphericals[1:]))
        supersets = {t: [faces[j] for j in above] for t, above in zip(faces, up)}
        supersets[()] = faces
        return supersets

    def coset_counts(self, limit: Optional[int] = None) -> list[int]:
        """Number of cosets of each type size 0..dim L + 1, without listing them.

        Entry 0 is N_r, the number of elements of length <= r.  With f_k the
        number of types of size k and d = dim L + 1, the growth series of W is
        W(t) = (1+t)^d / sum_k f_k (-t)^k (1+t)^(d-k) (Davis, The Geometry and
        Topology of Coxeter Groups, ch. 17).  The w with w*W_T in the ball are
        the minimal representatives of W^T, counted by W(t) / (1+t)^|T|
        (Bjorner-Brenti, Prop. 2.4.4).  The series is summed one length at a
        time; once the running total passes `limit`, MatrixSizeError.
        """
        d = len(self._sphericals[-1])
        f = [0] * (d + 1)
        for t in self._sphericals:
            f[len(t)] += 1
        # [t^j] of the denominator for j >= 1; its constant term is f_0 = 1
        denom = [
            sum((-1) ** k * f[k] * comb(d - k, j - k) for k in range(j + 1)) for j in range(1, d + 1)
        ]
        recent = deque([0] * d, maxlen=d)  # [t^(n-1)], ..., [t^(n-d)] of W(t)
        # c[k] = [t^n] W(t) / (1+t)^k; as (1+t) c_k = c_(k-1), each follows from the one before
        c = [0] * (d + 1)
        counts = [0] * (d + 1)
        infinite = d < len(self.system.generators)  # some two generators do not commute
        for n in range(self.radius + 1):
            c[0] = comb(d, n) - sum(a * b for a, b in zip(denom, recent))
            if not c[0]:
                break  # no element of length n, so none longer
            recent.appendleft(c[0])
            for k in range(1, d + 1):
                c[k] = c[k - 1] - c[k]
            for k in range(d + 1):
                counts[k] += f[k] * c[k]
            # an infinite W has an element of every length, a chamber for each length to come
            if limit is not None and sum(counts) + infinite * (self.radius - n) > limit:
                raise MatrixSizeError(
                    f"radius-{self.radius} ball: more than {limit} cosets, over the cell limit"
                )
        return counts

    @cached_property
    def cosets(self) -> tuple[SphericalCoset, ...]:
        """Every coset, ordered by (length, word) of the representative, then (size, T).

        Enumerated on first use, and only the order complexes and the dump
        need it: `coset_counts` gives the counts and the dimensions come in
        closed form.  Callers with a cap check `coset_counts` against it first.
        """
        cosets: list[SphericalCoset] = []
        for w in ball(self.system, self.radius):
            descents = right_descents(self.system, w)
            cosets += [SphericalCoset(w, t) for t in self._sphericals if descents.isdisjoint(t)]
        return tuple(cosets)

    # -- coset arithmetic --------------------------------------------------

    def _normalize(self, w: Word, t: Subset) -> Word:
        """Minimal representative of w*W_T."""
        return coset_rep(self.system, w, t)

    def leq(self, a: SphericalCoset, b: SphericalCoset) -> bool:
        """Coset containment: types nest and a's representative lies in b."""
        if not set(a.gens) <= set(b.gens):
            return False
        return self._normalize(a.rep, b.gens) == b.rep

    def fixes(self, s: int, c: SphericalCoset) -> bool:
        """Whether generator s fixes the coset c."""
        return s in c.gens and self.system.link[s].issuperset(c.rep)

    @cached_property
    def _coset_index(self) -> dict[tuple[Word, Subset], int]:
        return {(c.rep, c.gens): i for i, c in enumerate(self.cosets)}

    def _above(self, c: SphericalCoset) -> dict[Subset, int]:
        """Index of the coset of each strictly larger type that contains c."""
        idx = self._coset_index
        return {t: idx[(self._normalize(c.rep, t), t)] for t in self._supersets[c.gens]}

    def coset_id(self, c: SphericalCoset) -> str:
        """Vertex name of c in its order complexes, from generator indices:
        "0.2|1" is the coset 02*W_{1}, "|" the trivial coset of the identity.
        Digits and separators only, so distinct cosets get distinct names
        whatever the generators are called."""
        return f"{'.'.join(map(str, c.rep))}|{','.join(map(str, c.gens))}"

    # -- order complex -----------------------------------------------------

    def _order_complex(self, keep, max_cells: Optional[int] = None) -> SimplicialComplex:
        """Order complex of the kept cosets: a full subcomplex of the realization."""
        kept = [i for i, c in enumerate(self.cosets) if keep(c)]
        # each coset is a chain: check the cap before building the up-lists
        if max_cells is not None and len(kept) > max_cells:
            raise MatrixSizeError(f"{len(kept)} cosets exceed the materialization cap")
        ids = [-1] * len(self.cosets)
        for n, i in enumerate(kept):
            ids[i] = n
        up = []
        for i in kept:
            above = [ids[j] for j in self._above(self.cosets[i]).values()]
            up.append([j for j in above if j >= 0])
        return order_complex([self.coset_id(self.cosets[i]) for i in kept], up, max_cells)

    def realization(self, max_cells: Optional[int] = None) -> SimplicialComplex:
        return self._order_complex(lambda c: True, max_cells)

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


def davis_ball(sys: CoxeterSystem, radius: int, *, max_cells: Optional[int] = None) -> DavisBall:
    return DavisBall(sys, radius, max_cells=max_cells)


# -- distinguished subcomplexes ---------------------------------------------


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
