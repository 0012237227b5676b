"""Exhaustive comparison of the witness search against the closed descriptions.

Runs the full grid of type tuples for each configured case and reports any
disagreement between the decision routes.  Exits nonzero if any is found.
"""

from __future__ import annotations

import argparse
import sys
import time

from kleinhorn.oracle import cross_check


# (n, m, bound) triples
DEFAULT_GRID = (
    (1, 3, 4),
    (2, 3, 3),
    (1, 5, 3),
    (2, 5, 2),
    (3, 3, 2),
    (1, 4, 3),
    (1, 6, 2),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case", action="append", metavar="N,M,BOUND",
                        help="run only these cases (repeatable), e.g. --case 2,3,3")
    args = parser.parse_args()

    if args.case:
        cases = [tuple(map(int, c.split(","))) for c in args.case]
    else:
        cases = list(DEFAULT_GRID)

    bad = 0
    for n, m, bound in cases:
        start = time.perf_counter()
        report = cross_check(n, m, bound)
        took = time.perf_counter() - start
        status = "ok" if report.clean else f"{len(report.disagreements)} DISAGREEMENTS"
        print(
            f"n={n} m={m} bound={bound}: {report.total} tuples, "
            f"routes=[{','.join(report.routes)}], {status} ({took:.2f}s)"
        )
        for d in report.disagreements:
            print(f"  {d.route} says {d.other}, oracle says {d.oracle} on {d.lams}")
        bad += len(report.disagreements)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
