"""Presentation 2-complexes, permutation certificates and the spine example."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Mapping, Optional, Sequence

from .homology import snf_divisors
from .simplicial import SimplicialComplex
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


@dataclass(frozen=True)
class Presentation:
    """Group presentation; relators are stored freely reduced.

    Generators are single lowercase letters; an uppercase letter in a relator
    denotes the inverse of the corresponding generator.
    """

    generators: tuple[str, ...]
    relators: tuple[str, ...]

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

    def abelianized_matrix(self) -> list[list[int]]:
        """Exponent-sum matrix, one row per relator, one column per generator."""
        rows = []
        for r in self.relators:
            row = [0] * len(self.generators)
            for ch in r:
                idx = self.generators.index(ch.lower())
                row[idx] += 1 if ch.islower() else -1
            rows.append(row)
        return rows

    def to_json(self) -> dict:
        return {"generators": list(self.generators), "relators": list(self.relators)}


def presentation_from_json(data: Mapping) -> Presentation:
    try:
        return Presentation(tuple(data["generators"]), tuple(data["relators"]))
    except (KeyError, TypeError) as exc:
        raise ValueError("presentation JSON needs 'generators' and 'relators'") from exc


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
    simplices: set[tuple[str, ...]] = {(base,)}

    def add_edge(a: str, b: str) -> None:
        simplices.add(tuple(sorted((a, b))))

    def add_tri(a: str, b: str, c: str) -> None:
        cell = tuple(sorted((a, b, c)))
        simplices.add(cell)
        add_edge(cell[0], cell[1])
        add_edge(cell[0], cell[2])
        add_edge(cell[1], cell[2])

    loop: dict[str, tuple[str, str]] = {}
    for g in p.generators:
        g1, g2 = f"{g}1", f"{g}2"
        loop[g] = (g1, g2)
        verts.extend((g1, g2))
        simplices.add((g1,))
        simplices.add((g2,))
        add_edge(base, g1)
        add_edge(g1, g2)
        add_edge(g2, base)
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
        simplices.add((apex,))
        for b in ring:
            simplices.add((b,))
        for i in range(m):
            j = (i + 1) % m
            add_tri(apex, ring[i], ring[j])
            add_tri(ring[i], ring[j], path[i])
            add_tri(ring[j], path[i], path[j])
    return SimplicialComplex(verts, simplices, _validate=False)


# -- permutation certificates -------------------------------------------------


def _perm_mul(a: Perm, b: Perm) -> Perm:
    """Composition: apply a, then b."""
    return tuple(b[x] for x in a)


def _perm_inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def _evaluate(relator: str, images: Mapping[str, Perm], degree: int) -> Perm:
    acc = tuple(range(degree))
    for ch in relator:
        img = images[ch.lower()]
        acc = _perm_mul(acc, img if ch.islower() else _perm_inv(img))
    return acc


def _closure_order(gens: Sequence[Perm], degree: int, cap: int = 100000) -> int:
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
                    if len(seen) > cap:
                        raise RuntimeError("subgroup closure exceeded cap")
        frontier = nxt
    return len(seen)


@dataclass(frozen=True)
class Pi1Certificate:
    """Nontriviality certificate: a permutation image killing every relator.

    All three checks (relators die, the image subgroup's order, nontriviality)
    are recomputable from the stored fields alone.
    """

    presentation: Presentation
    degree: int
    images: tuple[Perm, ...]

    def image_map(self) -> dict[str, Perm]:
        return dict(zip(self.presentation.generators, self.images))

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


def certificate_from_json(data: Mapping) -> Pi1Certificate:
    try:
        p = presentation_from_json(data["presentation"])
        degree = int(data["degree"])
        images = tuple(tuple(int(x) for x in img) for img in data["images"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("malformed certificate JSON") from exc
    return pi1_certificate(p, degree, images)


def pi1_certificate(
    p: Presentation, degree: int, images: Sequence[Sequence[int]]
) -> Pi1Certificate:
    """Package candidate permutation images; validity is a property, not an error."""
    if len(images) != len(p.generators):
        raise ValueError("one permutation per generator required")
    perms = []
    for img in images:
        perm = tuple(int(x) for x in img)
        if sorted(perm) != list(range(degree)):
            raise ValueError(f"{perm} is not a permutation of degree {degree}")
        perms.append(perm)
    return Pi1Certificate(presentation=p, degree=degree, images=tuple(perms))


def find_pi1_certificate(p: Presentation, degree: int) -> Optional[Pi1Certificate]:
    """Exhaustive search for the lexicographically least valid image tuple.

    Practical for two-generator presentations at small degree; the search is
    the oracle that both finds and verifies the certificate.
    """
    identity = tuple(range(degree))
    perms = list(permutations(range(degree)))

    def search(prefix: list[Perm]) -> Optional[tuple[Perm, ...]]:
        if len(prefix) == len(p.generators):
            imap = dict(zip(p.generators, prefix))
            ok = all(_evaluate(r, imap, degree) == identity for r in p.relators)
            if ok and any(x != identity for x in prefix):
                return tuple(prefix)
            return None
        for cand in perms:
            found = search(prefix + [cand])
            if found is not None:
                return found
        return None

    images = search([])
    if images is None:
        return None
    return Pi1Certificate(presentation=p, degree=degree, images=images)


# -- the canonical example ----------------------------------------------------


def spine_presentation() -> Presentation:
    """Balanced two-generator presentation of binary-icosahedral type.

    The abelianized relator matrix [[3, -2], [-2, 1]] has determinant -1, so
    the presentation 2-complex is acyclic, while mapping onto Alt(5) shows the
    group is nontrivial.
    """
    return Presentation(("x", "y"), ("xxxxxYXYX", "yyyYXYX"))


def spine_certificate(degree: int = 5) -> Pi1Certificate:
    cert = find_pi1_certificate(spine_presentation(), degree)
    if cert is None:
        raise RuntimeError("no certificate found for the spine presentation")
    return cert


def spine_complex(compact: bool = True) -> SimplicialComplex:
    """Flag-no-squares acyclic 2-complex with nontrivial perfect fundamental group.

    Pipeline: triangulated presentation 2-complex of the binary-icosahedral
    type presentation, then the no-square subdivision (which also flagifies),
    then an optional homotopy-preserving contraction pass that keeps the
    flag-no-square property while shrinking the complex to a size where
    Davis-ball computations stay desk-scale.  Each stage checks its output
    for flag-no-squares and raises if it fails.
    """
    x = presentation_complex(spine_presentation())
    l = no_square_subdivision(x)
    if compact:
        l = contract_flag_no_squares(l)
    return l


def abelianized_divisors(p: Presentation) -> list[int]:
    """SNF divisors of the abelianized relator matrix (independent H1 check)."""
    rows = p.abelianized_matrix()
    cols = [
        {r: rows[r][c] for r in range(len(rows)) if rows[r][c]}
        for c in range(len(p.generators))
    ]
    return sorted(snf_divisors(cols))
