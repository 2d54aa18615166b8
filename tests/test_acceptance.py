"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines alongside the pytest verdicts.
"""
import random
import time

from coxcert.coxeter import (
    multiply,
    nerve,
    racg_from_flag,
    reduce,
)
from coxcert.davis import davis_ball, singular_subcomplex
from coxcert.homology import homology
from coxcert.models import farrell_h3_growth, main_theorem_report, wedge_model
from coxcert.presentations import presentation_complex, spine_presentation
from coxcert.simplicial import faces_closure, square_report
from coxcert.subdivide import barycentric_subdivision

from helpers import (
    cycle_complex,
    full_triangle,
    hollow_triangle,
    projective_plane,
    random_flag_complex,
    rational_betti,
    reference_realization,
    torus_grid,
    two_points,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{verdict}] {name}{suffix}", flush=True)
    assert ok, f"{name}{suffix}"


def test_criterion_1_hypothesis_bundle():
    from coxcert.presentations import spine_certificate, spine_complex

    start = time.monotonic()
    l = spine_complex()
    cert = spine_certificate()
    h = homology(l, reduced=True)
    acyclic = h.is_trivial()
    sq = square_report(l)
    order = cert.subgroup_order()
    elapsed = time.monotonic() - start
    ok = (
        acyclic
        and sq.is_flag
        and len(sq.empty_squares) == 0
        and cert.valid
        and order == 60
        and elapsed < 120.0
    )
    _report(
        "criterion 1: spine hypothesis bundle",
        ok,
        f"acyclic={acyclic}, flag={sq.is_flag}, squares={len(sq.empty_squares)}, "
        f"order={order}, {elapsed:.1f}s",
    )


def test_criterion_2_main_theorem_report(spine_bundle):
    l = spine_bundle["complex"]
    cert = spine_bundle["certificate"]
    hyperbolic_report = main_theorem_report(l, cert)
    square_variant = barycentric_subdivision(presentation_complex(spine_presentation()))
    square_report_ = main_theorem_report(square_variant, cert)
    branch_mirrors = (
        hyperbolic_report.hyperbolic == (not square_report(l).empty_squares)
        and square_report_.hyperbolic
        == (not square_report(square_variant).empty_squares)
    )
    ok = (
        hyperbolic_report.ok
        and (hyperbolic_report.predicted_cd, hyperbolic_report.predicted_gd) == (2, 3)
        and square_report_.ok
        and square_report_.predicted_cd == square_report_.predicted_gd == ">=3"
        and branch_mirrors
    )
    _report(
        "criterion 2: main theorem report on both branches",
        ok,
        f"hyperbolic branch=({hyperbolic_report.predicted_cd},{hyperbolic_report.predicted_gd}), "
        f"square branch={square_report_.predicted_cd}",
    )


def test_criterion_3_singular_set_dimensions(spine_ball):
    results = []
    spine_sing = spine_ball.singular_dim()
    spine_real = spine_ball.realization_dim()
    results.append(("spine", spine_sing, spine_real, 2, 3))

    edge_ball = davis_ball(racg_from_flag(faces_closure([("a", "b")])), 1)
    edge_dims = singular_subcomplex(edge_ball).dim(), reference_realization(edge_ball).dim()
    results.append(("edge", *edge_dims, 1, 2))
    point_ball = davis_ball(racg_from_flag(two_points()), 1)
    point_dims = singular_subcomplex(point_ball).dim(), reference_realization(point_ball).dim()
    results.append(("two points", *point_dims, 0, 1))
    ok = all(s == es and r == er for _, s, r, es, er in results)
    _report(
        "criterion 3: singular-set dimensions at radius 1",
        ok,
        "; ".join(f"{n}: sing={s} real={r}" for n, s, r, *_ in results),
    )


def test_criterion_4_finite_group_acyclicity():
    klein = racg_from_flag(faces_closure([("a", "b")]))
    cube = racg_from_flag(full_triangle())
    oks = []
    for sys_, radius in ((klein, 2), (cube, 3)):
        sing = singular_subcomplex(davis_ball(sys_, radius))
        oks.append(homology(sing, reduced=True).is_trivial())
    _report(
        "criterion 4: finite-group singular sets are acyclic",
        all(oks),
        f"(Z/2)^2={oks[0]}, (Z/2)^3={oks[1]}",
    )


def test_criterion_5_word_problem_oracle():
    start = time.monotonic()
    rng = random.Random(20240811)
    seeds = [0, 1, 2, 3]  # sampled flag complexes with enumerable balls
    systems = []
    for seed in seeds:
        r = random.Random(seed)
        l = random_flag_complex(r, r.choice((4, 5)), p=0.65)
        systems.append(racg_from_flag(l))
    total_words = 0
    for sys_ in systems:
        n = sys_.matrix.rank
        dist = {(): 0}
        frontier = [()]
        for d in range(1, 13):
            nxt = []
            for w in frontier:
                for g in range(n):
                    nf = multiply(sys_, w, g)
                    if nf not in dist:
                        dist[nf] = d
                        nxt.append(nf)
            frontier = nxt
        for _ in range(300):
            word = tuple(rng.randrange(n) for _ in range(rng.randint(0, 12)))
            nf = reduce(sys_, word)
            assert dist[nf] == len(nf), (word, nf)
            assert reduce(sys_, nf) == nf
            # canonical: commuting swaps do not change the normal form
            shuffled = list(word)
            for _ in range(5):
                i = rng.randrange(max(1, len(shuffled) - 1)) if len(shuffled) > 1 else 0
                if len(shuffled) > 1 and sys_.commutes(shuffled[i], shuffled[i + 1]):
                    shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
            assert reduce(sys_, tuple(shuffled)) == nf
            total_words += 1
    elapsed = time.monotonic() - start
    ok = total_words >= 1000 and elapsed < 60.0
    _report(
        "criterion 5: word-problem oracle equivalence",
        ok,
        f"{total_words} words over {len(systems)} systems, {elapsed:.1f}s",
    )


def test_criterion_6_homology_engine():
    torsion_free_zoo = [
        hollow_triangle(),
        full_triangle(),
        cycle_complex(4),
        cycle_complex(5),
        torus_grid(3),
        wedge_model(full_triangle(), 2),
        barycentric_subdivision(cycle_complex(4)),
    ]
    betti_ok = True
    euler_ok = True
    for k in torsion_free_zoo + [projective_plane()]:
        h = homology(k)
        oracle = rational_betti(k)
        if any(h.betti(d) != oracle[d] for d in oracle):
            betti_ok = False
        alternating = sum((-1) ** d * h.betti(d) for d in range(k.dim() + 1))
        if alternating != k.euler_characteristic():
            euler_ok = False
    rp2 = homology(projective_plane())
    torsion_ok = rp2.torsion(1) == (2,) and rp2.betti(1) == 0
    ok = betti_ok and euler_ok and torsion_ok
    _report(
        "criterion 6: homology engine against rational oracle",
        ok,
        f"betti={betti_ok}, euler={euler_ok}, RP2 torsion={rp2.torsion(1)}",
    )


def test_criterion_7_nerve_round_trip():
    rng = random.Random(77)
    ok = True
    for _ in range(20):
        l = random_flag_complex(rng, rng.randint(1, 10), p=rng.choice((0.3, 0.5, 0.7)))
        sys_ = racg_from_flag(l)
        if nerve(sys_).simplices != l.simplices:
            ok = False
    _report("criterion 7: nerve round trip on 20 random flag complexes", ok)


def test_criterion_8_farrell_growth():
    start = time.monotonic()
    ranks = farrell_h3_growth(5)
    elapsed = time.monotonic() - start
    ok = ranks == [0, 1, 2, 3, 4] and elapsed < 120.0
    _report("criterion 8: Farrell H3 growth", ok, f"ranks={ranks}, {elapsed:.1f}s")


def test_criterion_9_wedge_model():
    acyclic = full_triangle()
    ok = True
    details = []
    for k in (0, 1, 5):
        h = homology(wedge_model(acyclic, k), reduced=True)
        good = h.betti(1) == k and h.betti(2) == 0 and not h.torsion(1)
        details.append(f"k={k}:{'ok' if good else 'bad'}")
        ok = ok and good
    _report("criterion 9: wedge model homology", ok, ", ".join(details))
