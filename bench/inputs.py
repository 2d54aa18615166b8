"""Seeded benchmark inputs and the values the program must report on them.

Only the standard library is used, and none of the program's own code, so
the expected values below are an independent check on its outputs.
"""
from __future__ import annotations

import json
import random
from itertools import combinations, permutations
from math import gcd


def json_bytes(obj) -> bytes:
    """Canonical JSON: the same object always gives the same bytes."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


# -- clique complexes of random graphs ----------------------------------------

Graph = dict  # vertex -> frozenset of neighbours


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p) on the vertices 0..n-1."""
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in combinations(range(n), 2):
        if rng.random() < p:
            adj[u].add(v)
            adj[v].add(u)
    return {v: frozenset(nb) for v, nb in adj.items()}


def cliques(adj: Graph) -> list[tuple[int, ...]]:
    """All non-empty cliques as sorted tuples, by size then lexicographically."""
    out = []
    stack = [((v,), adj[v]) for v in adj]
    while stack:
        c, common = stack.pop()
        out.append(c)
        for v in common:
            if v > c[-1]:
                stack.append((c + (v,), common & adj[v]))
    return sorted(out, key=lambda c: (len(c), c))


def clique_complex_json(adj: Graph) -> dict:
    """Complex JSON of the clique complex (a flag complex) of a graph."""
    maximal = [c for c in cliques(adj) if not frozenset.intersection(*(adj[v] for v in c))]
    return {
        "vertices": [f"v{v}" for v in sorted(adj)],
        "maximal_simplices": [[f"v{v}" for v in c] for c in maximal],
    }


def graph_from_complex_json(data: dict) -> Graph:
    """1-skeleton of a complex JSON, on the positions of its vertices."""
    pos = {v: i for i, v in enumerate(data["vertices"])}
    adj: dict[int, set[int]] = {i: set() for i in pos.values()}
    for simplex in data["maximal_simplices"]:
        for a, b in combinations(simplex, 2):
            adj[pos[a]].add(pos[b])
            adj[pos[b]].add(pos[a])
    return {v: frozenset(nb) for v, nb in adj.items()}


def induced_squares(adj: Graph) -> int:
    """Number of induced 4-cycles, i.e. empty squares of the clique complex.

    Each induced 4-cycle has two diagonals, the non-adjacent pairs x, y whose
    common neighbours include two non-adjacent vertices.
    """
    count = 0
    verts = sorted(adj)
    for i, x in enumerate(verts):
        for y in verts[i + 1 :]:
            if y not in adj[x]:
                mids = sorted(adj[x] & adj[y])
                count += sum(1 for a, b in combinations(mids, 2) if b not in adj[a])
    return count // 2


# -- Davis balls of right-angled Coxeter groups --------------------------------


def ball_elements(adj: Graph, radius: int) -> list[tuple[int, int, int]]:
    """(length, right-descent mask, commuting-generator mask) of each element of length <= radius.

    In the right-angled group with defining graph `adj`, generators commute
    exactly when adjacent.  A product st of distinct generators has right
    descents {t}, or {s, t} when they commute.  The second mask holds the
    generators that commute with every letter of the element.
    """
    if not 0 <= radius <= 2:
        raise ValueError("expected values are implemented for radius 0..2")
    nbr = {v: sum(1 << u for u in adj[v]) for v in adj}
    every = sum(1 << v for v in adj)
    out = [(0, 0, every)]
    if radius >= 1:
        out += [(1, 1 << s, nbr[s]) for s in sorted(adj)]
    if radius >= 2:
        for s, t in permutations(sorted(adj), 2):
            if t not in adj[s]:
                out.append((2, 1 << t, nbr[s] & nbr[t]))
            elif s < t:
                out.append((2, (1 << s) | (1 << t), nbr[s] & nbr[t]))
    return out


def davis_expectations(adj: Graph, radius: int) -> dict:
    """Coset, chain and dimension counts of the radius-r Davis ball.

    Cosets are the pairs (w, T), T a clique or empty, with T disjoint from
    the right-descent set of w (Bjorner-Brenti, Prop. 2.4.4).  The cosets
    above wW_T correspond to the cliques above T, so the chains of the coset
    poset that start at wW_T are counted by the clique chains that start at
    T.  A generator s fixes wW_T when s is in T and commutes with every
    letter of w; fixed sets are closed upwards, so a chain lies in the sharp
    set (the union of the fixed sets) when its bottom coset does.

    `leq_words` counts the ordered pairs of distinct cosets aW_T, bW_U with
    T inside non-empty U and a of length >= 2: the containment tests of an
    all-pairs scan that must move a word into a coset.
    """
    types = [()] + cliques(adj)
    up: dict[tuple[int, ...], int] = {t: 0 for t in types}
    chains: dict[tuple[int, ...], list[int]] = {}
    supersets: dict[tuple[int, ...], list[tuple[int, ...]]] = {t: [] for t in types}
    for c in types[1:]:
        supersets[()].append(c)
        for r in range(1, len(c)):
            for face in combinations(c, r):
                supersets[face].append(c)
    top = len(types[-1])
    for t in reversed(types):
        row = [1] + [0] * (top - len(t))
        for u in supersets[t]:
            for k, c in enumerate(chains[u]):
                row[k + 1] += c
        chains[t] = row
        up[t] = len(supersets[t])
    elements = ball_elements(adj, radius)
    width = top + 1
    by_size = [0] * width
    realization = [0] * width
    singular = [0] * width
    sharp = [0] * width
    order_pairs = 0
    present_of: dict[tuple[int, ...], int] = {}
    long_of: dict[tuple[int, ...], int] = {}
    for t in types:
        mask = sum(1 << v for v in t)
        present = fixed = long = 0
        for length, descents, commuting in elements:
            if not descents & mask:
                present += 1
                long += length >= 2
                if commuting & mask:
                    fixed += 1
        present_of[t], long_of[t] = present, long
        by_size[len(t)] += present
        order_pairs += present * up[t]
        for k, c in enumerate(chains[t]):
            realization[k] += present * c
            if t:
                singular[k] += present * c
            sharp[k] += fixed * c
    leq_words = sum(
        long_of[face] * present_of[u]
        for u in types[1:]
        for r in range(len(u) + 1)
        for face in combinations(u, r)
    ) - sum(long_of[u] for u in types[1:])  # the scan skips a coset against itself
    return {
        "cosets": sum(by_size),
        "cosets_by_type_size": by_size,
        "realization_dim": top,
        "singular_dim": top - 1,
        "realization_cells": _trim(realization),
        "singular_cells": _trim(singular),
        "sharp_cells": _trim(sharp),
        "order_pairs": order_pairs,
        "leq_words": leq_words,
    }


def _trim(counts: list[int]) -> list[int]:
    while counts and not counts[-1]:
        counts = counts[:-1]
    return counts


def nearest(draws: int, draw, miss):
    """The first of `draws` calls of `draw` whose result has the least `miss`.

    A fixed number of draws keeps set-up time the same for every seed, and
    taking the nearest to a target size keeps the work of a pass nearly the
    same too.
    """
    best = None
    for _ in range(draws):
        cand = draw()
        m = miss(cand)
        if best is None or m < best[0]:
            best = (m, cand)
    return best[1]


def nearest_graph(rng: random.Random, n: int, p: float, draws: int, target: dict) -> tuple[Graph, dict]:
    """The draw from G(n, p) whose radius-2 sizes lie nearest `target`, with its expectations."""
    def draw():
        adj = random_graph(rng, n, p)
        return adj, davis_expectations(adj, 2)

    def miss(cand):
        exp = cand[1]
        return max(abs(_size(exp, key) / want - 1) for key, want in target.items())

    return nearest(draws, draw, miss)


def _size(exp: dict, key: str) -> int:
    value = exp[key]
    return sum(value) if isinstance(value, list) else value


# -- torus fillings ------------------------------------------------------------


def span(slope: tuple[int, int]) -> int:
    """Grid reach of a slope; a filled torus is built on a 3 * max(span) grid."""
    p, q = slope
    return max(abs(p), abs(q), abs(p - q))


def random_slopes(rng: random.Random, k: int, reach: int) -> list[tuple[int, int]]:
    """k primitive, pairwise non-parallel slopes with torsion in H1.

    Every span is at most `reach` and one equals it, which fixes the grid
    and so the size of the filled model.  Candidates are taken up to sign,
    so no two are parallel.
    """
    cands = [
        (p, q)
        for p in range(0, reach + 1)
        for q in range(-reach, reach + 1)
        if (p > 0 or q > 0) and gcd(p, q) == 1 and span((p, q)) <= reach
    ]
    while True:
        slopes = rng.sample(cands, k)
        if max(span(s) for s in slopes) == reach and minors_gcd(slopes) > 1:
            return slopes


def filling_cells(slopes: list[tuple[int, int]]) -> int:
    """Number of simplices of the torus filled along `slopes`.

    The model is built on an n x n grid torus, n = 3 * max span, with one
    mapping cylinder per slope onto a 3-vertex circle; every cylinder shares
    the barycentric subdivision of the torus (36 n^2 chains of its face
    poset).  A cylinder adds the 12 chains of the circle's face poset and,
    for each torus chain, one simplex per circle chain below the image of
    its bottom face: 1 when that face maps to a vertex, 5 when it maps to an
    edge.  Chains start at a vertex in 25 ways, at an edge in 3 and at a
    triangle in 1.
    """
    n = 3 * max(span(s) for s in slopes)
    total = 36 * n * n
    for p, q in slopes:
        level = [[((p * y - q * x) % n) * 3 // n for y in range(n)] for x in range(n)]
        total += 12 + 25 * n * n
        for x in range(n):
            x1 = (x + 1) % n
            for y in range(n):
                y1 = (y + 1) % n
                a, right, up, diag = level[x][y], level[x1][y], level[x][y1], level[x1][y1]
                total += 3 * sum(1 if a == b else 5 for b in (right, up, diag))
                total += 1 if a == right == diag else 5
                total += 1 if a == up == diag else 5
    return total


def nearest_slopes(rng: random.Random, k: int, reach: int, draws: int, target: int) -> list[tuple[int, int]]:
    """The draw of `random_slopes` whose model size lies nearest `target`."""
    return nearest(draws, lambda: random_slopes(rng, k, reach),
                   lambda slopes: abs(filling_cells(slopes) - target))


def minors_gcd(slopes: list[tuple[int, int]]) -> int:
    """gcd of the 2x2 minors of the slope matrix: |H1| of the filled torus."""
    g = 0
    for (p1, q1), (p2, q2) in combinations(slopes, 2):
        g = gcd(g, p1 * q2 - p2 * q1)
    return g


def filling_homology(slopes: list[tuple[int, int]]) -> list[dict]:
    """Unreduced integral homology table of the torus filled along k >= 2 slopes.

    H1 = Z^2 / <slopes>: its invariant factors are d1, the gcd of the
    entries, and d2 = (gcd of the 2x2 minors) / d1.  H2 = Z^(k-2) and
    H3 = Z^(k-1), so the Euler characteristic is 0.
    """
    k = len(slopes)
    if k < 2:
        raise ValueError("need at least two slopes")
    d1 = 0
    for p, q in slopes:
        d1 = gcd(d1, gcd(p, q))
    torsion = [d for d in (d1, minors_gcd(slopes) // d1) if d > 1]
    return [
        {"betti": 1, "degree": 0, "torsion": []},
        {"betti": 0, "degree": 1, "torsion": torsion},
        {"betti": k - 2, "degree": 2, "torsion": []},
        {"betti": k - 1, "degree": 3, "torsion": []},
    ]
