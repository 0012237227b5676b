"""Littlewood-Richardson and Kostka coefficients by exact tableau counting.

Everything here is integer counting — no symmetric-function algebra, no
floats.  One walk lists every lattice filling of a skew shape once, bucketed
by content; every coefficient, Kostka numbers included, is read from that
walk.  The walk chooses how many of each letter a row holds, not the letter
of each cell: column strictness, the lattice word and the letter range of a
row are conditions on those counts (see _walk), so its depth is rows times
letters and a part of any size costs what a short one does.

_walk takes canonical partitions and checks nothing; _listing = cache(_walk)
is the only memo, so its keys are canonical.  The public functions
lr_complements, lr_coefficient, gen_lr and kostka_number normalize their
arguments once, before the memo, so an input gets the same answer or the
same error whatever is cached.  Internal callers (_chain_step, and through
it the index set, and the witness search) pass canonical rows to _listing.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from functools import cache

from .partitions import Partition, check_size, contains, normalize


def lr_coefficient(outer: Partition, left: Partition, right: Partition) -> int:
    """Multiplicity of outer in the product of left and right.

    The number of fillings of the skew diagram outer/left with content right
    whose rows weakly increase, columns strictly increase, and whose reverse
    reading word (right to left along rows, top row first) is a lattice
    word, found by bisection in the sorted lr_complements listing.  Zero
    unless left and right fit inside outer and sizes add up.
    """
    listing = _listing(normalize(outer), normalize(left))
    right = normalize(right)
    i = bisect_left(listing, (right,))
    return listing[i][1] if i < len(listing) and listing[i][0] == right else 0


def kostka_number(shape: Partition, content: tuple[int, ...]) -> int:
    """Count semistandard tableaux of the given shape and content.

    The content is any finite sequence of nonnegative ints, each checked
    before the sizes are compared; the count ignores its order, so the
    largest part a is peeled first (fewer states).  Each state nu passes its
    weight to every rho of _walk(nu, (a,)), a horizontal strip nu/rho by
    Pieri's rule, read without the memo as nu shrinks.
    """
    shape = normalize(shape)
    content = tuple(content)
    if not {int}.issuperset(map(type, content)) or any(a < 0 for a in content):
        raise ValueError(f"content must be nonnegative ints: {content!r}")
    state: dict[Partition, int] = {shape: 1} if sum(content) == sum(shape) else {}
    for a in sorted(filter(None, content), reverse=True):
        prev, state = state, defaultdict(int)
        for nu, w in prev.items():
            for rho, c in _walk(nu, (a,)):
                state[rho] += w * c
    return state.get((), 0)


def lr_complements(outer: Partition, left: Partition) -> tuple[tuple[Partition, int], ...]:
    """Every right factor with nonzero coefficient against outer and left.

    Returns (partition, coefficient) pairs in lexicographic partition order;
    the list is complete: anything absent has coefficient zero.  outer and
    left are any sequences of int parts, trailing zeros allowed; they are
    normalized before the memo is read.
    """
    return _listing(normalize(outer), normalize(left))


def _walk(outer: Partition, left: Partition) -> tuple[tuple[Partition, int], ...]:
    """lr_complements of canonical partitions outer and left, uncached and unchecked.

    A filling with weakly increasing rows is fixed by its letter counts per
    row: c[r][v] letters v in row r (0-based).  Write
    P_r(v) = left_r + sum_(u <= v) c[r][u] for the position in row r after its
    letters <= v, with P_r(0) = left_r, and T_r(v) = sum_(s <= r) c[s][v] for
    the letters v in rows 0..r, with T_(-1) = 0.

    (a) Columns strictly increase iff P_r(v) <= P_(r-1)(v-1) for r >= 1 and
        v >= 1: the cells of row r left of P_r(v) hold letters <= v, and the
        cell above each must lie in left or hold a letter <= v - 1, that is,
        lie left of P_(r-1)(v-1).
    (b) The reverse reading word is a lattice word iff
        T_r(v) <= T_(r-1)(v-1) for v >= 2: row r is read right to left, so
        the count of v gains on that of v - 1 only while row r's letters v
        are read, after its larger letters and before its letters v - 1; it
        peaks after the last of them, where the counts are T_r(v) and
        T_(r-1)(v-1).
    (c) Row r holds letters from v0 to h = top + 1, where top <= r is the
        largest letter of rows 0..r-1: by (b), T_r(top + 2) <= T_(r-1)(top + 1)
        = 0.  Its first cell, at column left_r, needs P_(r-1)(v - 1) > left_r
        by (a), and P_(r-1) grows with v, so no letter below
        v0 = min{v : P_(r-1)(v - 1) > left_r} fits anywhere in the row.  For
        r = 0, or if left_r < left_(r-1), v0 = 1; otherwise v0 = f + 1, where
        f is the first letter row r - 1 holds.  An empty row holds letter h
        zero times.
    (d) Letter h takes what is left: P_r(h) = outer_r.
    (e) After P_r(v), the cells take letters v + 1..h, and by (b) letter u
        takes at most T_(r-1)(u-1) - T_(r-1)(u); these telescope to T_(r-1)(v)
        by (f), so P_r(v) >= outer_r - T_(r-1)(v): (b) for letter h at v = h - 1.
    (f) On entering row r, h exceeds every letter of rows 0..r-1, so
        T_(r-1)(h) = 0, and (a) and (b) hold at h: P_(r-1)(h - 1) =
        outer_(r-1) >= outer_r, and (b) matters only if v0 = h > 1 in a
        nonempty row, where left_r = left_(r-1) and row r - 1 holds letter
        top alone by (c), so T_r(h) = outer_r - left_r <= T_(r-1)(h - 1).

    The walk chooses P_r(v) for each row r and each letter v from v0 to
    h - 1, within the bounds (a), (b) and (e), on an explicit stack of one
    range per open (row, letter); letter h then takes the rest, so by (f) a
    row with v0 = h is entered without a choice or a check.  Letters outside
    v0..h keep (a) and (b) already, as left_r <= left_(r-1) and T_(r-1) is
    zero past top, so each complete set of choices is one lattice filling,
    counted once under its content T(1), ..., T(top).  Entering row q adds
    outer_q - left_q to letter top_q + 1, and top_q is fixed while row q is
    entered, so the count of rows entered is the whole undo record: an open
    letter of row r takes back the rows past r before its next choice.  A
    row keeps positions only for its letters v0..h, so the depth is at most
    rows times letters, and no step's cost grows with the part sizes.
    """
    if not contains(outer, left):
        return ()
    rows = len(outer)
    inn = left + (0,) * (rows - len(left))
    placed = [0] * (rows + 2)  # placed[v]: letters v written so far
    top = [0] * (rows + 1)  # top[r]: the largest letter of rows 0..r-1
    first = [1] * rows  # first[r]: v0 of row r
    pos = [[]] * rows  # pos[r][k]: P_r(first[r] - 1 + k); the last entry is outer_r
    counts: dict[Partition, int] = defaultdict(int)
    entered = 0  # rows 0..entered-1 have added their letters h to placed
    stack = []  # per open letter v < h: (positions, row, k)
    r, k = 0, -1  # open letter k of row r; k = -1 enters row r, k = -2 resumes the stack
    while True:
        while k == -1:
            if r == rows:
                # a lattice word's content is a partition: letters 1..top all occur
                counts[tuple(placed[1 : top[r] + 1])] += 1
                k = -2
                break
            lam, mu = outer[r], inn[r]
            h = top[r] + 1
            if lam == mu:
                v0 = h
            elif r == 0 or mu < inn[r - 1]:
                v0 = 1
            else:
                above = pos[r - 1]
                j = 1
                while above[j] <= mu:
                    j += 1
                v0 = first[r - 1] + j
            first[r] = v0
            placed[h] += lam - mu  # (d): letter h holds every cell the others leave
            entered = r + 1
            pos[r] = [mu] * (h - v0 + 1) + [lam]
            if v0 < h:
                k = 0
            else:
                top[r + 1] = h if lam > mu else h - 1
                r += 1
        if k >= 0:
            row = pos[r]
            v = first[r] + k
            p = row[k]
            tv = placed[v]
            lo = outer[r] - tv  # (e)
            if lo < p:
                lo = p
            j = v - first[r - 1]
            hi = pos[r - 1][j if j > 0 else 0]  # (a)
            if hi > outer[r]:
                hi = outer[r]
            if v > 1:
                # (b): p plus T_(r-1)(v - 1) - T_(r-1)(v), where T_(r-1)(v - 1)
                # is placed[v - 1] less the p - row[k - 1] letters v - 1 of row r
                most = placed[v - 1] - tv + (row[k - 1] if k else p)
                if most < hi:
                    hi = most
            row[k + 1] = p
            stack.append((iter(range(lo, hi + 1)), r, k))
        if not stack:
            break
        it, r, k = stack[-1]
        while entered > r + 1:
            entered -= 1
            placed[top[entered] + 1] -= outer[entered] - inn[entered]
        row = pos[r]
        v = first[r] + k
        h = top[r] + 1
        p = next(it, None)
        if p is None:
            d = row[k + 1] - row[k]
            placed[v] -= d
            placed[h] += d
            stack.pop()
            k = -2
            continue
        d = p - row[k + 1]
        placed[v] += d
        placed[h] -= d
        row[k + 1] = p
        if k + 3 < len(row):
            k += 1
        else:
            top[r + 1] = h if outer[r] > p else h - 1
            r += 1
            k = -1
    return tuple(sorted(counts.items()))


_listing = cache(_walk)  # the only LR memo, keyed by canonical partitions


def gen_lr(lams) -> int:
    """Chained Littlewood-Richardson coefficient of m >= 3 partitions.

    Sums, over all chains of intermediate partitions, the product of the
    coefficients linking consecutive entries; for m = 3 this is the plain
    coefficient of the middle partition against the outer two.  The chain
    enforces the alternating size relation itself: a prefix that outgrows the
    next partition has no complement, and a last partition of the wrong size
    is never reached, so either gives zero.  Each entry is checked and made
    canonical here; _chain_state walks the chain up to the last entry, whose
    weight there is the count.
    """
    lams = tuple(normalize(l) for l in lams)
    check_size("m", len(lams), 3)
    return _chain_state(lams[:-1]).get(lams[-1], 0)


def _chain_state(lams) -> dict[Partition, int]:
    """The chain's weights after its last row: nu -> the chained count ending at nu.

    Starts at {lams[0]: 1} and takes one _chain_step per later row, so for
    two or more rows gen_lr(lams + (nu,)) is the weight of nu.  Empty once no
    chain continues.
    """
    state: dict[Partition, int] = {lams[0]: 1}
    for lam in lams[1:]:
        if not state:
            break
        state = _chain_step(state, lam)
    return state


def _chain_step(state: dict[Partition, int], lam: Partition) -> dict[Partition, int]:
    """Weights one row further: nu -> sum over prev of state[prev] * c^lam_(prev nu)."""
    nxt: dict[Partition, int] = defaultdict(int)
    for prev, w in state.items():
        for nu, c in _listing(lam, prev):
            nxt[nu] += w * c
    return nxt
