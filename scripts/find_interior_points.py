"""Print the strictly interior staircase tuple of each inequality system.

For each n,m pair, interior_point(n, m) returns (rho,) * m with
rho = (n, ..., 1), after checking that every inequality is strictly
negative there; its existence shows the system is full-dimensional and
that none of the inequalities is an implicit equality.  Each line gives the
tuple, its largest (least negative) inequality value and the system size.

    PYTHONPATH=src python scripts/find_interior_points.py [--pairs '9,3;2,5']
"""

from __future__ import annotations

import argparse
import sys

from kleinhorn.cone import interior_point, system_rows
from kleinhorn.partitions import format_partition


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", default="1,3;2,3;1,5;2,5",
                        help="semicolon-separated n,m pairs")
    args = parser.parse_args()

    for chunk in args.pairs.split(";"):
        n, m = map(int, chunk.split(","))
        point = interior_point(n, m)
        margins = [iq.value(point) for iq in system_rows(n, m)]
        rows = " ; ".join(map(format_partition, point))
        print(f"n={n} m={m}: [{rows}]  (max margin {max(margins)}, "
              f"{len(margins)} inequalities)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
