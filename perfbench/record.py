"""Write reference.json, the answers the benchmark checks against.

    python3 perfbench/record.py

Run it only on a commit whose answers are trusted.  It records, for each
membership class, a pool of member and non-member tuples; the verdicts of
the fixed witness-deep tuples; and the sha256 of `ineqs --json` for every
(n, m) the index-build workload asks for.  Each verdict is decided by the
witness search and, where one applies, by the closed route as well; the two
must agree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys

import workloads

POOL_PER_SIDE = 100
POOL_SEED = 2008


def closed_member(kh, lams, n, m):
    if m % 2 == 1:
        return kh.member_cone(lams, n, m).member
    if n == 1:
        return kh.member_single_row(lams, m).member
    return None


def oracle_member(kh, lams, n, m) -> bool:
    member = kh.witness_search(lams, n).chain is not None
    closed = closed_member(kh, lams, n, m)
    if closed is not None and closed != member:
        raise SystemExit(f"routes disagree on {lams}: closed {closed}, oracle {member}")
    return member


def pool(kh, rng: random.Random, n: int, m: int, bound: int) -> dict:
    sides = {True: [], False: []}
    seen = set()
    while min(len(v) for v in sides.values()) < POOL_PER_SIDE:
        lams = tuple(
            tuple(x for x in sorted((rng.randint(0, bound) for _ in range(n)), reverse=True) if x)
            for _ in range(m)
        )
        if lams in seen:
            continue
        seen.add(lams)
        side = sides[oracle_member(kh, lams, n, m)]
        if len(side) < POOL_PER_SIDE:
            side.append(workloads.format_rows(lams))
    return {"bound": bound, "members": sides[True], "non_members": sides[False]}


def ineqs_digest(kh, n: int, m: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = kh.cli.main(["ineqs", "-n", str(n), "-m", str(m), "--json"])
    if code != 0:
        raise SystemExit(f"ineqs -n {n} -m {m} exited {code}")
    workloads.check_golden_overlap(json.loads(out.getvalue()))
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> int:
    sys.path.insert(0, str(workloads.ROOT / "src"))
    import kleinhorn as kh
    import kleinhorn.cli  # noqa: F401  (makes kh.cli available)

    rng = random.Random(POOL_SEED)
    ref = {
        "membership": {
            f"{n},{m}": pool(kh, rng, n, m, bound) for (n, m), bound in workloads.MEMBERSHIP_CLASSES
        },
        "witness_deep": {
            key: oracle_member(kh, workloads.parse_rows(text), n, len(text.split(";")))
            for key, (_verb, n, text) in workloads.DEEP_TUPLES.items()
        },
        "ineqs_sha256": {
            f"{n},{m}": ineqs_digest(kh, n, m) for n, m in workloads.INDEX_BUILD + workloads.SHORT_INDEX_BUILD
        },
    }
    (workloads.HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
