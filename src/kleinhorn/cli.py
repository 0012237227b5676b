"""Command line interface.

Verbs: lr, kostka, genlr, snm, ineqs, decide, witness, crosscheck.
Exit codes: 0 success / member, 1 well-formed non-member, 2 usage error,
3 unsupported request (e.g. inequality output for even tuple length),
4 internal disagreement between decision routes (never expected).
JSON output is byte-stable: fixed key order, no timestamps.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .cone import UnsupportedLengthError, horn_index_set, inequality_system, routes
from .oracle import clear_denominators, cross_check, witness_search
from .partitions import (
    format_partition,
    format_subset,
    parse_partition,
    parse_rational_parts,
    to_json,
)
from .tableaux import gen_lr, kostka_number, lr_coefficient

OK = 0
NON_MEMBER = 1
USAGE = 2
UNSUPPORTED = 3
INTERNAL = 4


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _parse_rows(text: str, n: int, m: int):
    """Semicolon-separated rational rows: (rows, integer rows, scale).

    Checks the row count against m and each row's shape against n.
    """
    rows = tuple(parse_rational_parts(chunk) for chunk in text.split(";"))
    if len(rows) != m:
        raise ValueError(f"expected m = {m} rows, got {len(rows)}")
    return (rows, *clear_denominators(rows, n))


def _chain_text(mus) -> str:
    return ";".join("[" + format_partition(mu) + "]" for mu in mus)


def _cmd_lr(args) -> int:
    left = parse_partition(args.mu)
    right = parse_partition(args.nu)
    outer = parse_partition(args.lam)
    print(lr_coefficient(outer, left, right))
    return OK


def _cmd_kostka(args) -> int:
    shape = parse_partition(args.shape)
    content = parse_rational_parts(args.content)
    if any(Fraction(a).denominator != 1 or a < 0 for a in content):
        raise ValueError(f"content must be nonnegative integers: {args.content!r}")
    print(kostka_number(shape, tuple(int(a) for a in content)))
    return OK


def _cmd_genlr(args) -> int:
    if len(args.partitions) < 3:
        return _fail("genlr needs at least three partitions", USAGE)
    lams = [parse_partition(t) for t in args.partitions]
    print(gen_lr(lams))
    return OK


def _cmd_snm(args) -> int:
    indices = horn_index_set(args.n, args.m)
    if args.json:
        payload = {
            "n": args.n,
            "m": args.m,
            "count": len(indices),
            "tuples": [[list(s) for s in hi.subsets.sets] for hi in indices],
        }
        print(to_json(payload))
    else:
        for hi in indices:
            print("(" + ",".join(format_subset(s) for s in hi.subsets.sets) + ")")
    return OK


def _cmd_ineqs(args) -> int:
    system = inequality_system(args.n, args.m)
    if args.json:
        print(system.to_json())
    else:
        for iq in system.inequalities:
            print(iq.render())
        print(f"# suppressed trivial: {system.suppressed_trivial}")
    return OK


def _cmd_decide(args) -> int:
    rows, scaled, scale = _parse_rows(args.types, args.n, args.m)
    if args.m < 3:
        return _fail("need m >= 3", USAGE)

    ineq_verdict = route = None
    oracle_member = outcome = None
    if args.method in ("ineq", "both"):
        available = routes(args.n, args.m)
        if available:
            route, decide = available[0]
            ineq_verdict = decide(rows)
        elif args.method == "ineq":
            return _fail(
                f"no inequality route for n = {args.n}, m = {args.m}; use --method oracle",
                UNSUPPORTED,
            )
    if args.method in ("oracle", "both"):
        outcome = witness_search(scaled, args.n)
        oracle_member = outcome.chain is not None

    if ineq_verdict is not None and oracle_member is not None:
        if ineq_verdict.member != oracle_member:
            print(
                f"internal disagreement on {args.types!r}: "
                f"{route} says {ineq_verdict.member}, oracle says {oracle_member} "
                f"(certificate: {ineq_verdict.certificate.render() if ineq_verdict.certificate else None}, "
                f"explored: {outcome.explored})",
                file=sys.stderr,
            )
            return INTERNAL

    member = oracle_member if oracle_member is not None else ineq_verdict.member

    if args.json:
        payload: dict = {"n": args.n, "m": args.m, "member": member, "method": args.method}
        if ineq_verdict is not None:
            payload["route"] = "inequality-system" if route == "inequality" else route
            cert = ineq_verdict.certificate
            payload["certificate"] = cert.to_json_dict() if cert else None
        if oracle_member is not None:
            payload["scale"] = scale
            payload["witness"] = [list(mu) for mu in outcome.chain.mus] if outcome.chain else None
            payload["explored"] = outcome.explored
        print(to_json(payload))
    else:
        print("member" if member else "not a member")
        if not member and ineq_verdict is not None and ineq_verdict.certificate is not None:
            cert = ineq_verdict.certificate
            print(f"violated: {cert.render()} (value {cert.value(rows)})")
        if oracle_member is not None:
            if outcome.chain is not None:
                suffix = f" (after scaling by {scale})" if scale != 1 else ""
                print(f"witness: {_chain_text(outcome.chain.mus)}{suffix}")
            else:
                print(f"no witness chain exists (explored {outcome.explored} states)")
    return OK if member else NON_MEMBER


def _cmd_witness(args) -> int:
    _, lams, scale = _parse_rows(args.types, args.n, args.m)
    if scale != 1:
        return _fail("witness search needs integer partitions; use decide for rational input", USAGE)
    outcome = witness_search(lams, args.n)
    if args.json:
        if outcome.chain is not None:
            print(to_json({"exists": True, "chain": [list(mu) for mu in outcome.chain.mus]}))
        else:
            print(to_json({"exists": False, "search_space": outcome.explored}))
    else:
        if outcome.chain is not None:
            print(_chain_text(outcome.chain.mus))
        else:
            print(f"no witness chain exists (explored {outcome.explored} states)")
    return OK if outcome.chain is not None else NON_MEMBER


def _cmd_crosscheck(args) -> int:
    report = cross_check(args.n, args.m, args.bound)
    if args.json:
        payload = {
            "n": report.n,
            "m": report.m,
            "bound": report.bound,
            "total": report.total,
            "routes": list(report.routes),
            "disagreements": [
                {
                    "types": [list(l) for l in d.lams],
                    "oracle": d.oracle,
                    "other": d.other,
                    "route": d.route,
                }
                for d in report.disagreements
            ],
        }
        print(to_json(payload))
    else:
        names = ",".join(report.routes) if report.routes else "none"
        print(
            f"crosscheck n={report.n} m={report.m} bound={report.bound}: "
            f"{report.total} tuples, routes=[{names}], "
            f"disagreements={len(report.disagreements)}"
        )
        for d in report.disagreements:
            types = ";".join(format_partition(l) for l in d.lams)
            print(f"  disagree [{d.route}] on {types!r}: oracle={d.oracle} other={d.other}")
    return OK if report.clean else NON_MEMBER


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kleinhorn",
        description="Existence of long exact sequences of finite abelian p-group types.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("lr", help="Littlewood-Richardson coefficient of LAM against MU, NU")
    q.add_argument("mu")
    q.add_argument("nu")
    q.add_argument("lam")

    q = sub.add_parser("kostka", help="Kostka number of SHAPE with CONTENT")
    q.add_argument("shape")
    q.add_argument("content")

    q = sub.add_parser("genlr", help="chained coefficient of m >= 3 partitions")
    q.add_argument("partitions", nargs="+")

    q = sub.add_parser("snm", help="qualifying subset tuples (odd m)")
    q.add_argument("-n", type=int, required=True)
    q.add_argument("-m", type=int, required=True)
    q.add_argument("--json", action="store_true")

    q = sub.add_parser("ineqs", help="full inequality system (odd m)")
    q.add_argument("-n", type=int, required=True)
    q.add_argument("-m", type=int, required=True)
    q.add_argument("--json", action="store_true")

    q = sub.add_parser("decide", help="membership of a tuple of rational types")
    q.add_argument("-n", type=int, required=True)
    q.add_argument("-m", type=int, required=True)
    q.add_argument("types", help="semicolon-separated rows, e.g. '3;3;1;2'")
    q.add_argument("--method", choices=("ineq", "oracle", "both"), default="both")
    q.add_argument("--json", action="store_true")

    q = sub.add_parser("witness", help="witness chain for a tuple of integer types")
    q.add_argument("-n", type=int, required=True)
    q.add_argument("-m", type=int, required=True)
    q.add_argument("types")
    q.add_argument("--json", action="store_true")

    q = sub.add_parser("crosscheck", help="oracle vs other routes on a full grid")
    q.add_argument("-n", type=int, required=True)
    q.add_argument("-m", type=int, required=True)
    q.add_argument("--bound", type=int, required=True)
    q.add_argument("--json", action="store_true")
    return p


_HANDLERS = {
    "lr": _cmd_lr,
    "kostka": _cmd_kostka,
    "genlr": _cmd_genlr,
    "snm": _cmd_snm,
    "ineqs": _cmd_ineqs,
    "decide": _cmd_decide,
    "witness": _cmd_witness,
    "crosscheck": _cmd_crosscheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on usage errors, 0 on --help
        return int(e.code or 0)
    try:
        return _HANDLERS[args.cmd](args)
    except UnsupportedLengthError as e:
        return _fail(str(e), UNSUPPORTED)
    except ValueError as e:
        return _fail(str(e), USAGE)


if __name__ == "__main__":
    sys.exit(main())
