"""Exhaustive comparison of the witness search against the closed descriptions.

Runs `kleinhorn crosscheck` on the full grid of type tuples for each
configured case and prints its report and the time the case took.  The exit
code is the CLI's: 0 when every case is clean, 1 when a disagreement is
found; a case the CLI rejects (2 usage, 3 unsupported, 4 internal) stops the
run with that code.  A malformed --case exits 2.

    PYTHONPATH=src python scripts/run_crosscheck.py [--case N,M,BOUND ...]
"""

from __future__ import annotations

import argparse
import sys
import time

from kleinhorn import cli


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

    worst = 0
    for n, m, bound in args.case or DEFAULT_GRID:
        start = time.perf_counter()
        code = cli.main(["crosscheck", "-n", str(n), "-m", str(m), "--bound", str(bound)])
        if code > 1:
            return code
        print(f"  took {time.perf_counter() - start:.2f}s")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
