"""Ground-truth membership by exhaustive search for a witness chain.

A tuple of integer partition types admits the required long exact sequence
iff some chain of partitions links consecutive positions through nonzero
Littlewood-Richardson coefficients.  The search below decides exactly that,
with global memoization of dead states; it never consults the inequality
machinery, which is what makes cross-checking meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .partitions import (
    Partition,
    format_partition,
    is_partition,
    normalize,
    partitions_in_box,
    subpartitions,
)
from .tableaux import lr_coefficient, lr_complements


@dataclass(frozen=True)
class WitnessChain:
    """Partitions mu(0..m) with every consecutive coefficient nonzero."""

    mus: tuple[Partition, ...]


@dataclass(frozen=True)
class SearchOutcome:
    chain: WitnessChain | None
    explored: int  # number of (position, partition) states expanded


def chain_is_valid(chain: WitnessChain, lams) -> bool:
    """Re-validate a chain: length, size telescoping, and nonzero coefficients."""
    lams = tuple(normalize(l) for l in lams)
    mus = chain.mus
    if len(mus) != len(lams) + 1:
        return False
    for i, lam in enumerate(lams):
        if sum(mus[i]) + sum(mus[i + 1]) != sum(lam):
            return False
        if lr_coefficient(lam, mus[i], mus[i + 1]) < 1:
            return False
    return True


def witness_search(lams, n: int) -> SearchOutcome:
    """Depth-first search for the canonically smallest witness chain.

    mu(0) runs over subpartitions of the first type in lexicographic order
    (the empty partition first), and each later mu over the complement
    listing, so the found chain is deterministic.  Dead (position, partition)
    states are memoized within the search.
    """
    lams = tuple(normalize(l) for l in lams)
    m = len(lams)
    if m < 3:
        raise ValueError(f"need at least three partitions, got {m}")
    for lam in lams:
        if len(lam) > n:
            raise ValueError(f"partition {lam!r} has more than n = {n} parts")
    dead: set[tuple[int, Partition]] = set()
    explored = 0

    def extend(pos: int, prev: Partition):
        """Tail mu(pos..m) given mu(pos-1) = prev, or None if impossible."""
        nonlocal explored
        if pos == m + 1:
            return ()
        key = (pos, prev)
        if key in dead:
            return None
        explored += 1
        for nxt, _ in lr_complements(lams[pos - 1], prev):
            tail = extend(pos + 1, nxt)
            if tail is not None:
                return (nxt,) + tail
        dead.add(key)
        return None

    for mu0 in subpartitions(lams[0]):
        tail = extend(1, mu0)
        if tail is not None:
            return SearchOutcome(WitnessChain((mu0,) + tail), explored)
    return SearchOutcome(None, explored)


def witness_chain(lams, n: int) -> WitnessChain | None:
    """The canonical witness chain, or None when no exact sequence exists."""
    return witness_search(lams, n).chain


def clear_denominators(lams, n: int) -> tuple[list[Partition], int]:
    """Validate rational rows and scale them to integers: (partitions, scale).

    Every row must be weakly decreasing and nonnegative with at most n parts;
    scale is the least common multiple of all denominators (1 for integer rows).
    """
    rows = []
    for k, lam in enumerate(lams, 1):
        row = tuple(Fraction(x) for x in lam)
        if not is_partition(row):
            raise ValueError(f"row {k} ({format_partition(row)!r}) is not weakly decreasing and nonnegative")
        if len(row) > n:
            raise ValueError(f"row {k} ({format_partition(row)!r}) has more than n = {n} parts")
        rows.append(row)
    scale = math.lcm(*(x.denominator for row in rows for x in row), 1)
    return [normalize(tuple(int(x * scale) for x in row)) for row in rows], scale


def rational_member(lams, n: int) -> bool:
    """Membership for weakly decreasing nonnegative rational rows.

    Clears denominators by their least common multiple and decides the
    scaled integer tuple; saturation makes the answer scale-invariant.
    """
    rows, _ = clear_denominators(lams, n)
    return witness_chain(rows, n) is not None


@dataclass
class Disagreement:
    lams: tuple[Partition, ...]
    oracle: bool
    other: bool
    route: str


@dataclass
class CrossCheckReport:
    n: int
    m: int
    bound: int
    total: int
    routes: tuple[str, ...]
    disagreements: list[Disagreement] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.disagreements


def cross_check(n: int, m: int, bound: int) -> CrossCheckReport:
    """Compare the oracle against every available route on a full grid.

    The grid is all m-tuples of partitions with at most n parts, each at most
    bound; the routes are those cone.routes lists for (n, m).  Disagreements
    are collected in grid order.
    """
    # imported here: the comparison harness may use the inequality modules,
    # the decision procedure above must not
    from .cone import UnsupportedLengthError, routes

    checks = routes(n, m)
    if not checks:
        raise UnsupportedLengthError(
            f"no finite description to compare against for n={n}, m={m}; "
            "only the witness search covers this case"
        )
    grid = tuple(partitions_in_box(n, bound))
    found: list[Disagreement] = []
    for lams in product(grid, repeat=m):
        truth = witness_chain(lams, n) is not None
        for route, decide in checks:
            got = decide(lams).member
            if got != truth:
                found.append(Disagreement(lams, truth, got, route))
    names = tuple(route for route, _ in checks)
    return CrossCheckReport(n, m, bound, len(grid) ** m, names, found)
