"""The benchmark's workloads: inputs made from a seed, the operations, and their checks.

Every operation is checked against a reference other than the code under
test: two decision routes must agree, n = 1 tuples must match the
alternating-window closed form computed here, every returned chain must pass
`chain_is_valid`, and the remaining verdicts and the `ineqs --json` output
must match `reference.json`, recorded from the program by `record.py`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "tests" / "golden"

# (n, m) and the largest part of the membership pool for each class.
MEMBERSHIP_CLASSES = (((3, 5), 6), ((2, 7), 6), ((2, 4), 8), ((2, 6), 6), ((1, 8), 20))
MEMBERSHIP_SYSTEMS = ((3, 5), (2, 7))  # built during set-up
SHORT_PER_SIDE = 3  # members and non-members per class in short mode
RATIONAL_SHARE = 0.05  # share of queries asked with rows divided by 2 or 3

INDEX_BUILD = ((4, 5), (2, 9))
SHORT_INDEX_BUILD = ((2, 5), (3, 3))

# Adversarial witness inputs: (k,k,k);(1);(3k/2,3k/2,1), an n=2 m=4 member
# and an n=2 m=6 non-member whose searches take about 0.2 s each.
DEEP_TUPLES = {
    "k12": ("witness", 3, "12,12,12;1;18,18,1"),
    "k16": ("witness", 3, "16,16,16;1;24,24,1"),
    "k20": ("decide", 3, "20,20,20;1;30,30,1"),
    "n2m4": ("witness", 2, "30,20;8,6;4;4"),
    "n2m6": ("decide", 2, "24,13;23,12;22,21;;22,19;"),
}
SHORT_DEEP = ("k12", "n2m4", "n2m6")
# n = 1 chains (m, verb); m = 1200 and the 1500-part tuple overflow the
# recursion limit at the seed and must stay in the workload until fixed.
DEEP_CHAINS = ((200, "witness"), (400, "decide"), (1200, "witness"))
BIG_SINGLE_ROW = "1500;1500;0"


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


class WrongOutput(Exception):
    """An operation's answer disagrees with its reference."""


class BadExit(Exception):
    """The command exited with a code outside the documented 0-4."""


def parse_rows(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row.split(",")) if row else () for row in text.split(";"))


def format_rows(rows) -> str:
    return ";".join(",".join(str(x) for x in row) for row in rows)


def single_row_member(values) -> bool:
    """Closed form for n = 1: every alternating window sum of odd length is >= 0."""
    m = len(values)
    for i in range(m):
        acc = 0
        for j in range(i, m):
            acc += values[j] if (j - i) % 2 == 0 else -values[j]
            if (j - i) % 2 == 0 and acc < 0:
                return False
    return True


def _valid_chain(kh, mus, lams) -> bool:
    chain = kh.WitnessChain(tuple(tuple(mu) for mu in mus))
    return kh.chain_is_valid(chain, lams)


@dataclass
class Query:
    """One library decision, made the way `decide --method both` makes it."""

    n: int
    m: int
    rows: tuple
    member: bool  # recorded verdict
    rational: bool

    def run(self, kh):
        closed = None
        if self.m % 2 == 1:
            closed = kh.member_cone(self.rows, self.n, self.m).member
        elif self.n == 1:
            closed = kh.member_single_row(self.rows, self.m).member
        if self.rational:
            return closed, kh.rational_member(self.rows, self.n), None
        chain = kh.witness_search(self.rows, self.n).chain
        return closed, chain is not None, chain

    def check(self, kh, value) -> None:
        closed, oracle, chain = value
        if closed is not None and closed != oracle:
            raise WrongOutput(f"{self}: closed route says {closed}, oracle says {oracle}")
        if oracle != self.member:
            raise WrongOutput(f"{self}: verdict {oracle}, recorded {self.member}")
        if chain is not None and not kh.chain_is_valid(chain, self.rows):
            raise WrongOutput(f"{self}: invalid witness chain {chain}")


@dataclass
class Command:
    """One `cli.main` call; stdout is captured and checked afterwards."""

    argv: list[str]
    lams: tuple = ()
    member: bool | None = None  # expected verdict of witness/decide
    digest: str | None = None  # expected sha256 of ineqs stdout

    def run(self, kh):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = kh.cli.main(self.argv)
        if not 0 <= code <= 4:
            raise BadExit(f"{self.argv[:5]} exited {code}")
        return code, out.getvalue()

    def check(self, kh, value) -> None:
        code, out = value
        if self.digest is not None:
            if code != 0 or hashlib.sha256(out.encode()).hexdigest() != self.digest:
                raise WrongOutput(f"{self.argv}: exit {code}, output differs from the recorded digest")
            check_golden_overlap(json.loads(out))
            return
        if code != (0 if self.member else 1):
            raise WrongOutput(f"{self.argv[:5]}: exit {code}, expected member={self.member}")
        payload = json.loads(out)
        if self.argv[0] == "witness":
            member, chain = payload["exists"], payload.get("chain")
        else:
            member, chain = payload["member"], payload.get("witness")
        if member != self.member or (chain is None) == member:
            raise WrongOutput(f"{self.argv[:5]}: answer {payload!r:.200}")
        if chain is not None and not _valid_chain(kh, chain, self.lams):
            raise WrongOutput(f"{self.argv[:5]}: invalid witness chain")


def check_golden_overlap(payload: dict) -> None:
    """The level-L rows of an (n, m) system are the level-0 rows of the (n, m-2L)
    system shifted down L rows; compare them with every golden file that has them."""
    n, m = payload["n"], payload["m"]
    for path in sorted(GOLDEN.glob(f"ineqs_n{n}_m*.json")):
        golden = json.loads(path.read_text())
        if golden["m"] > m:
            continue
        level = (m - golden["m"]) // 2
        ours = [iq for iq in payload["inequalities"] if iq["origin"] in ("trace", "horn") and iq["level"] == level]
        theirs = [iq for iq in golden["inequalities"] if iq["origin"] in ("trace", "horn") and iq["level"] == 0]
        zero = [0] * n
        for a, b in zip(ours, theirs):
            coeffs = [zero] * level + b["coeffs"] + [zero] * level
            if a["origin"] != b["origin"] or a["subsets"] != b["subsets"] or a["coeffs"] != coeffs:
                raise WrongOutput(f"ineqs n={n} m={m} level {level} disagrees with {path.name}")
        if len(ours) != len(theirs):
            raise WrongOutput(f"ineqs n={n} m={m} level {level}: {len(ours)} rows, {path.name} has {len(theirs)}")


@dataclass
class Workload:
    name: str
    ops: list
    # work done once per process after import, e.g. building inequality systems
    systems: tuple = ()
    # modules whose caches survive from one pass to the next (the set-up's work)
    warm: tuple = ()
    # clear every cache before each operation, as a fresh CLI process would start
    cold_per_op: bool = False
    # layer functions the operations must leave idle (checked by the traced run)
    idle: tuple = ()

    def prepare(self, kh) -> None:
        for n, m in self.systems:
            kh.inequality_system(n, m)


def _membership(rng: random.Random, ref: dict, short: bool) -> Workload:
    """Every pool tuple once per pass, the first twentieth of each pool side with
    rational rows, so each seed asks the same mix; the seed picks the order,
    and with it which query pays for filling the shared caches."""
    ops = []
    for (n, m), _bound in MEMBERSHIP_CLASSES:
        pool = ref["membership"][f"{n},{m}"]
        for member in (True, False):
            texts = pool["members" if member else "non_members"]
            texts = texts[:SHORT_PER_SIDE] if short else texts
            n_rational = max(1, round(RATIONAL_SHARE * len(texts)))
            for k, text in enumerate(texts):
                rows = parse_rows(text)
                if k < n_rational:
                    d = 2 + k % 2
                    rows = tuple(tuple(Fraction(x, d) for x in row) for row in rows)
                ops.append(Query(n, m, rows, member, k < n_rational))
    rng.shuffle(ops)
    return Workload(
        "membership", ops, systems=MEMBERSHIP_SYSTEMS, warm=("cone",), idle=("cone.horn_index_set",)
    )


def _index_build(rng: random.Random, ref: dict, short: bool) -> Workload:
    shapes = list(SHORT_INDEX_BUILD if short else INDEX_BUILD)
    rng.shuffle(shapes)
    ops = [
        Command(["ineqs", "-n", str(n), "-m", str(m), "--json"], digest=ref["ineqs_sha256"][f"{n},{m}"])
        for n, m in shapes
    ]
    return Workload("index-build", ops, cold_per_op=True, idle=("cone.member_cone", "oracle.witness_search"))


def _deep_command(verb: str, n: int, text: str, member: bool | None = None) -> Command:
    """A witness or decide call; n = 1 verdicts come from the closed form."""
    lams = parse_rows(text)
    if member is None:
        member = single_row_member([row[0] if row else 0 for row in lams])
    argv = [verb, "-n", str(n), "-m", str(len(lams)), text, "--json"]
    if verb == "decide":
        argv += ["--method", "oracle"]
    return Command(argv, lams=lams, member=member)


def _witness_deep(rng: random.Random, ref: dict, short: bool) -> Workload:
    ops = []
    for key in SHORT_DEEP if short else DEEP_TUPLES:
        verb, n, text = DEEP_TUPLES[key]
        ops.append(_deep_command(verb, n, text, ref["witness_deep"][key]))
    for m, verb in DEEP_CHAINS:
        # lam_i = mu_(i-1) + mu_i links consecutive single rows: a long member
        mus = [rng.randint(0, 30) for _ in range(m + 1)]
        text = ";".join(str(mus[i] + mus[i + 1]) for i in range(m))
        ops.append(_deep_command(verb, 1, text))
    ops.append(_deep_command("decide", 1, BIG_SINGLE_ROW))
    rng.shuffle(ops)
    return Workload("witness-deep", ops, cold_per_op=True, idle=("cone.member_cone",))


WORKLOADS = {"membership": _membership, "index-build": _index_build, "witness-deep": _witness_deep}


def make(name: str, seed: int, short: bool = False) -> Workload:
    return WORKLOADS[name](random.Random(seed), load_reference(), short)
