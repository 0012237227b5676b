"""Command line interface.

Verbs: lr, kostka, genlr, snm, ineqs, decide, witness, crosscheck.
Exit codes: 0 success / member, 1 well-formed non-member, 2 usage error,
3 unsupported request (e.g. inequality output for even tuple length),
4 internal error: a disagreement between decision routes or any other
unexpected exception (never expected).
JSON output is byte-stable: fixed key order, no timestamps.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from fractions import Fraction

from . import cone
from .oracle import clear_denominators, search_canonical, witness_search
from .partitions import (
    check_size,
    format_partition,
    format_subset,
    parse_int_parts,
    parse_partition,
    parse_rational_rows,
    read_rows,
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
    """Semicolon-separated rational rows, m in number.

    The rows are read once, by the library call they go to; read_rows runs
    here only to refuse a wrong count, with its checks and messages.
    """
    rows = parse_rational_rows(text)
    if len(rows) != m:
        read_rows(rows, n, m)
    return rows


def _chain_text(mus) -> str:
    return ";".join("[" + format_partition(mu) + "]" for mu in mus)


def _cmd_lr(args) -> int:
    outer, left, right = map(parse_partition, (args.lam, args.mu, args.nu))
    print(lr_coefficient(outer, left, right))
    return OK


def _cmd_kostka(args) -> int:
    print(kostka_number(parse_partition(args.shape), parse_int_parts(args.content)))
    return OK


def _cmd_genlr(args) -> int:
    print(gen_lr([parse_partition(t) for t in args.partitions]))
    return OK


def _cmd_snm(args) -> int:
    indices = cone.horn_index_set(args.n, args.m)
    if args.json:
        payload = {
            "n": args.n,
            "m": args.m,
            "count": len(indices),
            "tuples": indices,
        }
        print(to_json(payload))
    else:
        for sets in indices:
            print("(" + ",".join(format_subset(s) for s in sets) + ")")
    return OK


def _cmd_ineqs(args) -> int:
    """Each row is written as it is produced; the first chunk comes after n and m are checked."""
    if args.json:
        sys.stdout.writelines(cone.system_json(args.n, args.m))
        print()
    else:
        for iq in cone.system_rows(args.n, args.m):
            print(iq.render())
        print(f"# suppressed trivial: {(args.m - 1) // 2}")
    return OK


def _cmd_decide(args) -> int:
    # the rows are checked here once and go to search_canonical as they are
    ints, scale = clear_denominators(_parse_rows(args.types, args.n, args.m), args.n)

    ineq_verdict = route = outcome = None
    if args.method in ("ineq", "both"):
        available = cone.routes(args.n, args.m)
        if available:
            route, decide = available[0]
            ineq_verdict = decide(ints)
        elif args.method == "ineq":
            return _fail(
                f"no inequality route for n = {args.n}, m = {args.m}; use --method oracle",
                UNSUPPORTED,
            )
    if args.method in ("oracle", "both"):
        outcome = search_canonical(ints)

    member = outcome.chain is not None if outcome is not None else ineq_verdict.member
    if ineq_verdict is not None and outcome is not None and ineq_verdict.member != member:
        print(
            f"internal disagreement on {args.types!r}: "
            f"{route} says {ineq_verdict.member}, oracle says {member} "
            f"(certificate: {ineq_verdict.certificate.render() if ineq_verdict.certificate else None}, "
            f"explored: {outcome.explored})",
            file=sys.stderr,
        )
        return INTERNAL

    if args.json:
        payload: dict = {"n": args.n, "m": args.m, "member": member, "method": args.method}
        if ineq_verdict is not None:
            payload["route"] = "inequality-system" if route == "inequality" else route
            cert = ineq_verdict.certificate
            payload["certificate"] = cert.to_json_dict() if cert else None
        if outcome is not None:
            payload["scale"] = scale
            payload["witness"] = outcome.chain.mus if outcome.chain else None
            payload["explored"] = outcome.explored
        print(to_json(payload))
    else:
        print("member" if member else "not a member")
        if not member and ineq_verdict is not None and ineq_verdict.certificate is not None:
            cert = ineq_verdict.certificate
            print(f"violated: {cert.render()} (value {Fraction(cert.value(ints), scale)})")
        if outcome is not None:
            if outcome.chain is not None:
                suffix = f" (after scaling by {scale})" if scale != 1 else ""
                print(f"witness: {_chain_text(outcome.chain.mus)}{suffix}")
            else:
                print(f"no witness chain exists (explored {outcome.explored} states)")
    return OK if member else NON_MEMBER


def _cmd_witness(args) -> int:
    outcome = witness_search(_parse_rows(args.types, args.n, args.m), args.n)
    if args.json:
        if outcome.chain is not None:
            print(to_json({"exists": True, "chain": outcome.chain.mus}))
        else:
            print(to_json({"exists": False, "search_space": outcome.explored}))
    else:
        if outcome.chain is not None:
            print(_chain_text(outcome.chain.mus))
        else:
            print(f"no witness chain exists (explored {outcome.explored} states)")
    return OK if outcome.chain is not None else NON_MEMBER


def _cmd_crosscheck(args) -> int:
    report = cone.cross_check(args.n, args.m, args.bound)
    if args.json:
        print(to_json(dataclasses.asdict(report)))
    else:
        names = ",".join(report.routes)
        print(
            f"crosscheck n={report.n} m={report.m} bound={report.bound}: "
            f"{report.total} tuples, routes=[{names}], "
            f"disagreements={len(report.disagreements)}"
        )
        for d in report.disagreements:
            types = ";".join(format_partition(l) for l in d.types)
            print(f"  disagree [{d.route}] on {types!r}: oracle={d.oracle} other={d.other}")
    return OK if report.clean else NON_MEMBER


def build_parser() -> argparse.ArgumentParser:
    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("-n", type=int, required=True)
    sized.add_argument("-m", type=int, required=True)
    sized.add_argument("--json", action="store_true")

    p = argparse.ArgumentParser(
        prog="kleinhorn",
        description="Existence of long exact sequences of finite abelian p-group types.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def verb(name, handler, help, parents=(sized,)):
        q = sub.add_parser(name, help=help, parents=parents)
        q.set_defaults(handler=handler)
        return q

    q = verb("lr", _cmd_lr, "Littlewood-Richardson coefficient of LAM against MU, NU", parents=())
    q.add_argument("mu")
    q.add_argument("nu")
    q.add_argument("lam")
    q = verb("kostka", _cmd_kostka, "Kostka number of SHAPE with CONTENT", parents=())
    q.add_argument("shape")
    q.add_argument("content")
    q = verb("genlr", _cmd_genlr, "chained coefficient of m >= 3 partitions", parents=())
    q.add_argument("partitions", nargs="+")
    verb("snm", _cmd_snm, "qualifying subset tuples (odd m)")
    verb("ineqs", _cmd_ineqs, "full inequality system (odd m)")
    q = verb("decide", _cmd_decide, "membership of a tuple of rational types")
    q.add_argument("types", help="semicolon-separated rows, e.g. '3;3;1;2'")
    q.add_argument("--method", choices=("ineq", "oracle", "both"), default="both")
    q = verb("witness", _cmd_witness, "witness chain for a tuple of integer types")
    q.add_argument("types")
    q = verb("crosscheck", _cmd_crosscheck, "oracle vs other routes on a full grid")
    q.add_argument("--bound", type=int, required=True)
    return p


_parser = None  # built by the first main call, not at import


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on usage errors, 0 on --help
        return int(e.code or 0)
    try:
        if "m" in args:  # no route covers m < 3
            check_size("m", args.m, 3)
        return args.handler(args)
    except cone.UnsupportedLengthError as e:
        return _fail(str(e), UNSUPPORTED)
    except ValueError as e:
        return _fail(str(e), USAGE)
    except Exception as e:  # a crash must never read as a verdict
        return _fail(f"internal: {type(e).__name__}: {e}", INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
