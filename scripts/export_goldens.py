"""Regenerate the ineqs_* and quiver_* golden JSON files under tests/golden/.

Run after any deliberate change to the serialization format, then review the
diff before committing.
"""

from __future__ import annotations

import sys
from pathlib import Path

from kleinhorn.cone import inequality_system
from kleinhorn.partitions import to_json
from kleinhorn.quiver import build_star, quiver_to_json_dict

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"

INEQ_CASES = [(1, 3), (2, 3), (2, 5), (3, 5), (2, 7)]
QUIVER_CASES = [(1, 3), (2, 3)]


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for n, m in INEQ_CASES:
        path = GOLDEN / f"ineqs_n{n}_m{m}.json"
        path.write_text(inequality_system(n, m).to_json() + "\n")
        print(f"wrote {path}")
    for n, m in QUIVER_CASES:
        path = GOLDEN / f"quiver_n{n}_m{m}.json"
        path.write_text(to_json(quiver_to_json_dict(build_star(n, m))) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
