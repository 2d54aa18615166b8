#!/usr/bin/env python3
"""Print the H1 and H3 table for torus models with 1..n slope fillings.

Usage: PYTHONPATH=src python scripts/farrell_table.py [-n N]

Unlike `coxcert farrell`, which reduces each filling once, as a pair with
the torus (`models.farrell_h3_growth`), this builds every prefix model and
takes its whole homology, because it prints H1, whose torsion depends on
the slopes together.  So it costs one model per row, each on the grid of
its prefix.

Before a model is built, a lower bound on its cells is checked against the
cell limit (`COXCERT_SNF_CELL_LIMIT`).  On the n x n grid the barycentric
subdivision of the torus has 36 n^2 cells, and each of the k cylinders adds
at least 36 n^2 + 12: the 12 chains of its circle and, as in
`models.farrell_cells`, at least one simplex per chain of the torus.  A
refusal there, or in the homology, ends the table with one
"skipped: <reason>" line, and the exit code is 0.
"""
import argparse
import time

from coxcert.models import farey_slopes, farrell_quotient
from coxcert.homology import homology
from coxcert.simplicial import MatrixSizeError, check_size


def positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", type=positive, default=5, help="number of slopes")
    args = parser.parse_args()
    slopes = farey_slopes(args.n)
    print(f"{'k':>3} {'slope':>8} {'H1':>12} {'H3 rank':>8} {'cells':>8} {'sec':>6}")
    for k in range(1, args.n + 1):
        start = time.monotonic()
        n = 3 * max(max(abs(p), abs(q), abs(p - q)) for p, q in slopes[:k])
        try:
            check_size(36 * n * n + k * (36 * n * n + 12),
                       f"or more cells in the model of {k} slopes on the {n} x {n} grid")
            x = farrell_quotient(slopes[:k])
            h = homology(x)
        except MatrixSizeError as exc:
            print(f"skipped: {exc}")
            return
        h1 = "Z^%d" % h.betti(1) + (
            " + " + "+".join(f"Z/{t}" for t in h.torsion(1)) if h.torsion(1) else ""
        )
        print(
            f"{k:>3} {str(slopes[k-1]):>8} {h1:>12} {h.betti(3):>8} "
            f"{sum(x.counts()):>8} {time.monotonic() - start:>6.1f}"
        )


if __name__ == "__main__":
    main()
