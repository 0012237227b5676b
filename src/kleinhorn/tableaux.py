"""Littlewood-Richardson and Kostka coefficients by exact tableau counting.

Everything here is integer counting — no symmetric-function algebra, no
floats.  One walk lists every lattice filling of a skew shape once, bucketed
by content; every Littlewood-Richardson coefficient is read from that list,
which is the only memo.  Partitions are canonical tuples.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache

from .partitions import Partition, contains, normalize


def lr_coefficient(outer: Partition, left: Partition, right: Partition) -> int:
    """Multiplicity of outer in the product of left and right.

    The number of fillings of the skew diagram outer/left with content right
    whose rows weakly increase, columns strictly increase, and whose reverse
    reading word (right to left along rows, top row first) is a lattice
    word, read from the lr_complements listing.  Zero unless left and right
    fit inside outer and sizes add up.
    """
    return dict(lr_complements(outer, left)).get(normalize(right), 0)


def kostka_number(shape: Partition, content: tuple[int, ...]) -> int:
    """Count semistandard tableaux of the given shape and content.

    The content is any finite sequence of nonnegative integers; letters are
    added one at a time, each contributing a horizontal strip.
    """
    shape = normalize(shape)
    content = tuple(content)
    if any(a < 0 for a in content):
        raise ValueError(f"content must be nonnegative: {content!r}")
    if sum(content) != sum(shape):
        return 0
    state: dict[Partition, int] = {(): 1}
    for a in content:
        nxt: dict[Partition, int] = defaultdict(int)
        for mu, w in state.items():
            for tau in _strip_extensions(mu, a, shape):
                nxt[tau] += w
        if not nxt:
            return 0
        state = dict(nxt)
    return state.get(shape, 0)


def _strip_extensions(mu: Partition, size: int, bound: Partition) -> list[Partition]:
    """Partitions tau inside bound with tau/mu a horizontal strip of the given size.

    Rows are chosen top to bottom, each length in increasing order, with an
    explicit stack of candidate ranges, so results come out in lexicographic
    order.  A horizontal strip keeps tau_i <= mu_(i-1), so rows below the
    first empty row of mu stay empty and are not searched.
    """
    rows = min(len(bound), len(mu) + 1)
    if rows == 0:
        return [()] if size == 0 else []
    mup = mu + (0,) * (rows - len(mu))
    out: list[Partition] = []
    acc = [0] * rows  # acc[i]: the chosen length of row i
    rem = [size] * rows  # rem[i]: strip cells still to place in rows i and below
    stack = [iter(range(mup[0], min(bound[0], mup[0] + size) + 1))]
    while stack:
        i = len(stack) - 1
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            continue
        acc[i] = v
        left = rem[i] - (v - mup[i])
        if i + 1 < rows:
            rem[i + 1] = left
            lo = mup[i + 1]
            stack.append(iter(range(lo, min(bound[i + 1], mup[i], lo + left) + 1)))
        elif left == 0:
            t = tuple(acc)
            while t and t[-1] == 0:
                t = t[:-1]
            out.append(t)
    return out


@cache
def lr_complements(outer: Partition, left: Partition) -> tuple[tuple[Partition, int], ...]:
    """Every right factor with nonzero coefficient against outer and left.

    Returns (partition, coefficient) pairs in lexicographic partition order;
    the list is complete: anything absent has coefficient zero.  The cells of
    outer/left are filled in reading-word order (top row first, right to
    left), row r (0-based) with letters at most r + 1, keeping columns strict
    and the word lattice; each complete filling counts once under its content.
    """
    outer = normalize(outer)
    left = normalize(left)
    if not contains(outer, left):
        return ()
    rows = len(outer)
    inn = left + (0,) * (rows - len(left))
    cells = [(r, c) for r in range(rows) for c in range(outer[r] - 1, inn[r] - 1, -1)]
    fill = [[0] * width for width in outer]
    placed = [0] * (rows + 1)  # placed[v]: letters v written so far
    counts: dict[Partition, int] = defaultdict(int)
    idx = 0
    while idx >= 0:
        if idx == len(cells):
            # a lattice word's content is a partition: zeros only trail
            counts[tuple(k for k in placed[1:] if k)] += 1
            idx -= 1
            continue
        r, c = cells[idx]
        v = fill[r][c]
        if v:
            placed[v] -= 1  # take back the letter tried last, then try the next one
        else:
            # the cell above is in the shape iff it sits right of the inner row
            v = fill[r - 1][c] if r > 0 and c >= inn[r - 1] else 0
        hi = fill[r][c + 1] if c + 1 < outer[r] else r + 1
        v += 1
        while v <= hi and v > 1 and placed[v] >= placed[v - 1]:
            # the lattice prefix would break; with no letter v - 1 placed yet,
            # it breaks for every larger letter too
            v = v + 1 if placed[v - 1] else hi + 1
        if v <= hi:
            fill[r][c] = v
            placed[v] += 1
            idx += 1
        else:
            fill[r][c] = 0
            idx -= 1
    return tuple(sorted(counts.items()))


def gen_lr(lams) -> int:
    """Chained Littlewood-Richardson coefficient of m >= 3 partitions.

    Sums, over all chains of intermediate partitions, the product of the
    coefficients linking consecutive entries; for m = 3 this is the plain
    coefficient of the middle partition against the outer two.  The chain
    enforces the alternating size relation itself: a prefix that outgrows the
    next partition has no complement, and a last partition of the wrong size
    is never reached, so either gives zero.
    """
    lams = tuple(normalize(l) for l in lams)
    m = len(lams)
    if m < 3:
        raise ValueError(f"need at least three partitions, got {m}")
    state: dict[Partition, int] = {lams[0]: 1}
    for i in range(1, m - 1):
        nxt: dict[Partition, int] = defaultdict(int)
        for prev, w in state.items():
            for nu, c in lr_complements(lams[i], prev):
                nxt[nu] += w * c
        if not nxt:
            return 0
        state = nxt
    return state.get(lams[-1], 0)
