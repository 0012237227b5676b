"""Exhaustive comparison of the witness search against the closed descriptions.

Runs the full grid of type tuples for each configured case and reports any
disagreement between the decision routes.  Exits nonzero if any is found.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from kleinhorn.oracle import cross_check


@dataclass(frozen=True)
class GridCase:
    n: int
    m: int
    bound: int


DEFAULT_GRID = (
    GridCase(1, 3, 4),
    GridCase(2, 3, 3),
    GridCase(1, 5, 3),
    GridCase(2, 5, 2),
    GridCase(3, 3, 2),
    GridCase(1, 4, 3),
    GridCase(1, 6, 2),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case", action="append", metavar="N,M,BOUND",
                        help="run only these cases (repeatable), e.g. --case 2,3,3")
    args = parser.parse_args()

    if args.case:
        cases = [GridCase(*map(int, c.split(","))) for c in args.case]
    else:
        cases = list(DEFAULT_GRID)

    bad = 0
    for case in cases:
        start = time.perf_counter()
        report = cross_check(case.n, case.m, case.bound)
        took = time.perf_counter() - start
        status = "ok" if report.clean else f"{len(report.disagreements)} DISAGREEMENTS"
        print(
            f"n={case.n} m={case.m} bound={case.bound}: {report.total} tuples, "
            f"routes=[{','.join(report.routes)}], {status} ({took:.2f}s)"
        )
        for d in report.disagreements:
            print(f"  {d.route} says {d.other}, oracle says {d.oracle} on {d.lams}")
        bad += len(report.disagreements)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
