"""Ground-truth membership by exhaustive search for a witness chain.

A tuple of integer partition types admits the required long exact sequence
iff some chain of partitions links consecutive positions through nonzero
Littlewood-Richardson coefficients.  The search below decides exactly that,
with global memoization of dead states; it never consults the inequality
machinery, which is what makes cross-checking meaningful.  The harness that
compares it with the closed routes, cross_check, lives in cone beside routes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import itemgetter, le, sub

from .partitions import Partition, check_size, clear_denominators, is_partition, normalize
from .tableaux import _listing, lr_coefficient


@dataclass(frozen=True)
class WitnessChain:
    """Partitions mu(0..m) with every consecutive coefficient nonzero."""

    mus: tuple[Partition, ...]


@dataclass(frozen=True)
class SearchOutcome:
    chain: WitnessChain | None
    explored: int  # number of (position, partition) states expanded


def chain_is_valid(chain: WitnessChain, lams) -> bool:
    """Re-validate a chain: length, int partitions, size telescoping, and nonzero coefficients."""
    lams = tuple(normalize(l) for l in lams)
    mus = chain.mus
    if len(mus) != len(lams) + 1 or not all({int}.issuperset(map(type, mu)) and is_partition(mu) for mu in mus):
        return False
    for i, lam in enumerate(lams):
        if sum(mus[i]) + sum(mus[i + 1]) != sum(lam):
            return False
        if lr_coefficient(lam, mus[i], mus[i + 1]) < 1:
            return False
    return True


def _least_partner(lam: Partition, mu: Partition) -> Partition:
    """The lex-least nu with a nonzero coefficient against lam and mu (mu inside lam).

    It is the row lengths of lam/mu sorted in decreasing order; see fact (b)
    of search_canonical.
    """
    return tuple(sorted(filter(None, map(sub, lam, mu + (0,) * (len(lam) - len(mu)))), reverse=True))


def _first_entries(lam: Partition, nxt: Partition, lo: int, hi: int):
    """The distinct _least_partner(lam, mu1) of size lo..hi over mu1 inside lam and nxt, ascending.

    A best-first walk down from the intersection of lam and nxt; see facts
    (c), (d) and (e) of search_canonical.  A node is d, the row lengths of
    lam/mu1 padded to len(lam) rows, with the lowest row j it may still take
    a box from: boxes leave the rows bottom row first, so each mu1 is reached
    once.  The key of d has size sum(d), and each step down adds one, so the
    walk stops below a node of size hi.  Heap keys keep their trailing zeros,
    which does not change their order.
    """
    if lo > hi:
        return
    k = len(lam)
    top = tuple(map(min, lam, nxt))
    d = tuple(map(sub, lam, top + (0,) * (k - len(top))))
    heap = [(sorted(d, reverse=True), d, k - 1)]
    last = None
    while heap:
        key, d, j = heapq.heappop(heap)
        size = sum(d)
        if key != last and lo <= size <= hi:
            last = key
            yield tuple(key[: k - key.count(0)])
        if size >= hi:
            continue
        for r in range(j + 1):
            # mu1 loses a box from row r: it must stay above row r + 1
            if lam[r] - d[r] > (lam[r + 1] - d[r + 1] if r + 1 < k else 0):
                child = d[:r] + (d[r] + 1,) + d[r + 1 :]
                heapq.heappush(heap, (sorted(child, reverse=True), child, r))


def witness_search(lams, n: int) -> SearchOutcome:
    """search_canonical on rows read and checked by clear_denominators.

    A part of another type with an integer value, such as Fraction(4, 2),
    reads as that int; a part that is not an integer raises ValueError once
    every row has passed clear_denominators' checks.
    """
    rows, scale = clear_denominators(lams, n)
    if scale != 1:
        raise ValueError("witness search needs integer partitions; use decide for rational input")
    return search_canonical(rows)


def search_canonical(lams) -> SearchOutcome:
    """Depth-first search for the canonically smallest witness chain.

    lams are canonical partitions, as clear_denominators returns them; they
    are not checked again, apart from their count m >= 3.

    The chain mu(0..m) is lex-smallest: its mu(0) is the least one that extends
    to a whole chain, and each later mu(i) is the first entry of the
    complement listing of lam(i)/mu(i-1) that extends.  Dead (position,
    partition) states are memoized within the search, and the search keeps
    an explicit stack, so the chain length is not bounded by the recursion
    limit.  It visits only entries that can be extended, by five facts:

    (a) mu has a partner nu with c^lam_{mu,nu} != 0 iff mu fits inside lam.
        A coefficient is zero unless mu fits, and when it fits, s_{lam/mu}
        is a nonzero sum of Schur functions with nonnegative coefficients.
        So an entry mu(i), i < m, drawn from its complement listing is
        skipped unless it fits inside lam(i+1).  The test runs when the
        entry is drawn, so entries after the first that extends are never
        tested.
    (b) The lex-least nu with c^lam_{mu,nu} != 0 is rho, the row lengths of
        lam/mu sorted decreasingly.  Conjugate: c^lam_{mu,nu} =
        c^lam'_{mu',nu'}, and the columns of lam'/mu' have the heights rho.
        A constituent nu' of s_{lam'/mu'} has a semistandard filling of
        lam'/mu' with content nu'; a column holds distinct letters, so the
        letters up to k fill at most min(k, height) cells of each column,
        and nu' is dominated by rho'.  Writing 1, 2, ... down every column
        is semistandard, because column tops rise to the right, and has
        content rho'; so some constituent dominates rho' and thus equals it.
        Hence rho is a constituent, every constituent dominates it, and lex
        order extends dominance.  So rho is the first entry of the listing
        of lam/mu, and every state takes its first candidate in this closed
        form, with no walk: once mu(m-1) fits inside lam(m), mu(m) is read
        off it, and each earlier state tries rho first and walks its listing,
        from the second entry on, only when the search comes back to it.
    (c) Which mu(0) to try.  A feasible mu1 (one that extends to mu(1..m))
        fits inside lam(1) and, by (a), inside lam(2).  By the symmetry
        c^lam_{mu,nu} = c^lam_{nu,mu} and (b), the least mu0 linked to mu1
        through lam(1) is key(mu1), the value of (b) for lam(1)/mu1.  So the
        least feasible mu(0) is the least key of a feasible mu1, and mu(0)
        runs only over the distinct keys of the mu1 inside lam(1) and
        lam(2), in ascending order; the first key that extends is it.
    (d) Taking a box out of row r of mu1 adds one to a row length of
        lam(1)/mu1, and raising one entry of a multiset never lowers its
        decreasing sort, so key(mu1) only grows on the way down.  A
        best-first walk (heapq) down from the intersection of lam(1) and
        lam(2) therefore yields the keys in ascending order without listing
        every mu1 first; a type of (60, 60, 60, 60) has 635,376 of them.
    (e) The sizes telescope.  A nonzero c^lam_{mu,nu} forces |mu| + |nu| =
        |lam|, so by induction on i every chain has |mu(i)| = s_i +
        (-1)^i |mu(0)|, where s_0 = 0 and s_i = |lam(i)| - s_(i-1).  Each
        |mu(i)| is at least 0, so |mu(0)| >= -s_i for even i and |mu(0)| <=
        s_i for odd i: lo <= |mu(0)| <= hi with lo = max(0, -s_i over even
        i) and hi = min(s_i over odd i).  A key outside this window starts no
        chain, so skipping it leaves the first key that extends unchanged.
        The key of mu1 has size |lam(1)| - |mu1|, which by (d) grows by one
        with each box taken out of mu1, so the walk yields only keys of size
        lo..hi and never goes below a node of size hi.  When lo > hi no
        mu(0) has an admissible size and nothing is walked.

    explored counts the states expanded: each mu(0) key tried and each later
    mu(i), 0 < i < m, that fits inside lam(i+1) and is not already known
    dead.  It is 0 when no key has a size in the window of (e).  The chain
    and the verdict are those of trying every subpartition of lam(1) as
    mu(0) with no filter; only explored differs.
    """
    m = len(lams)
    check_size("m", m, 3)
    dead: set[tuple[int, Partition]] = set()
    explored = 0
    mus: list[Partition] = []  # mu(0..k) chosen so far
    # s_0..s_m of fact (e): even i bound |mu(0)| below, odd i above
    s = list(accumulate(map(sum, lams), lambda prev, size: size - prev, initial=0))
    # stack[k] holds the remaining candidates for mu(k), in canonical order.  A
    # state enters as its pair (lam, mu) and its least partner is tried at once;
    # the pair becomes the rest of its listing only when the search comes back.
    stack = [_first_entries(lams[0], lams[1], max(-x for x in s[::2]), min(s[1::2]))]
    nxt = None  # a candidate for mu(len(mus)) not yet tried
    while stack:
        if nxt is None:
            top = stack[-1]
            if type(top) is tuple:
                stack[-1] = top = islice(map(itemgetter(0), _listing(*top)), 1, None)
            nxt = next(top, None)
            if nxt is None:
                stack.pop()
                if mus:
                    dead.add((len(mus), mus.pop()))
                continue
        pos = len(mus) + 1  # the state (pos, nxt) picks mu(pos) from lam = lams[pos - 1]
        lam = lams[pos - 1]
        # fact (a), then the memo, which is empty until the search first backtracks
        if len(nxt) > len(lam) or not all(map(le, nxt, lam)) or dead and (pos, nxt) in dead:
            nxt = None
            continue
        mus.append(nxt)
        explored += 1
        if pos == m:
            mus.append(_least_partner(lam, nxt))
            return SearchOutcome(WitnessChain(tuple(mus)), explored)
        stack.append((lam, nxt))
        nxt = _least_partner(lam, nxt)
    return SearchOutcome(None, explored)


def witness_chain(lams, n: int) -> WitnessChain | None:
    """The canonical witness chain, or None when no exact sequence exists."""
    return witness_search(lams, n).chain


def rational_member(lams, n: int) -> bool:
    """Membership for weakly decreasing nonnegative rational rows.

    Clears denominators by their least common multiple and decides the
    scaled integer tuple.  The answer does not depend on the scale for
    m = 3, where Knutson-Tao saturation proves it; for other m nothing
    proves it, and tests only check it on small grids.
    """
    rows, _ = clear_denominators(lams, n)
    return search_canonical(rows).chain is not None
