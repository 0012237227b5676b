"""Exhaustive comparison of the witness search against the closed descriptions.

Runs the full grid of type tuples for each configured case and reports any
disagreement between the decision routes.  Exits 0 when every case is
clean, 1 when a disagreement is found, 2 on a malformed or rejected case and
4 on any other error.

    PYTHONPATH=src python scripts/run_crosscheck.py [--case N,M,BOUND ...]
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


def parse_case(text: str) -> tuple[int, int, int]:
    """An N,M,BOUND triple of integers."""
    try:
        n, m, bound = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N,M,BOUND, got {text!r}") from None
    return n, m, bound


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--case", action="append", metavar="N,M,BOUND", type=parse_case,
                        help="run only these cases (repeatable), e.g. --case 2,3,3")
    args = parser.parse_args()

    bad = 0
    for n, m, bound in args.case or DEFAULT_GRID:
        start = time.perf_counter()
        try:
            report = cross_check(n, m, bound)
        except ValueError as e:  # includes UnsupportedLengthError
            print(f"error: case {n},{m},{bound}: {e}", file=sys.stderr)
            return 2
        except Exception as e:  # a crash must not read as "disagreements found"
            print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
            return 4
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
