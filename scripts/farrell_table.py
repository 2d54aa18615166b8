#!/usr/bin/env python3
"""Print the H1 and H3 table for torus models with 1..n slope fillings.

Usage: PYTHONPATH=src python scripts/farrell_table.py [-n N]

Unlike `coxcert farrell`, which reduces each filling once, as a pair with
the torus (`models.farrell_h3_growth`), this builds every prefix model and
takes its whole homology, because it prints H1, whose torsion depends on
the slopes together.  So it costs one model per row, each on the grid of
its prefix.
"""
import argparse
import time

from coxcert.models import farey_slopes, farrell_quotient
from coxcert.homology import homology


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", type=int, default=5, help="number of slopes")
    args = parser.parse_args()
    slopes = farey_slopes(args.n)
    print(f"{'k':>3} {'slope':>8} {'H1':>12} {'H3 rank':>8} {'cells':>8} {'sec':>6}")
    for k in range(1, args.n + 1):
        start = time.monotonic()
        x = farrell_quotient(slopes[:k])
        h = homology(x)
        h1 = "Z^%d" % h.betti(1) + (
            " + " + "+".join(f"Z/{t}" for t in h.torsion(1)) if h.torsion(1) else ""
        )
        print(
            f"{k:>3} {str(slopes[k-1]):>8} {h1:>12} {h.betti(3):>8} "
            f"{sum(x.counts()):>8} {time.monotonic() - start:>6.1f}"
        )


if __name__ == "__main__":
    main()
