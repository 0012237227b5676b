"""Independent brute-force reference implementations used only by tests.

These deliberately take different routes from the production code: tableaux
are enumerated cell by cell in forward reading order with a final lattice
check, Kostka numbers come from direct semistandard fillings rather than
a chain of Pieri strips, and chained coefficients from explicit nested sums.  The Horn index set is
the plain filter over every subset tuple, with every row rebuilt per tuple, or a
depth-first search over all m positions with one chain count per tuple, and cone
membership evaluates each inequality's matrix with Inequality.value, or, for
single rows, sums every alternating window in turn.  The
witness search tries every subpartition of the first type as mu(0) and every
listed complement as each later entry, with no filter.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import product

from kleinhorn.cone import Inequality, MembershipVerdict, inequality_system
from kleinhorn.oracle import SearchOutcome, WitnessChain
from kleinhorn.partitions import (
    adjusted_conjugate,
    clear_denominators,
    contains,
    is_partition,
    normalize,
    subpartitions,
    subsets_of_range,
)
from kleinhorn.tableaux import gen_lr, lr_coefficient, lr_complements


def ssyt_count(shape, content) -> int:
    """Count semistandard tableaux of a straight shape with the given content."""
    shape = tuple(shape)
    content = tuple(content)
    if sum(shape) != sum(content):
        return 0
    nletters = len(content)
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    grid = [[0] * w for w in shape]
    left = list(content)
    total = 0

    def fill(idx: int) -> None:
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, nletters + 1):
            if left[v - 1] == 0:
                continue
            grid[r][c] = v
            left[v - 1] -= 1
            fill(idx + 1)
            left[v - 1] += 1
            grid[r][c] = 0

    fill(0)
    return total


def _is_lattice(word) -> bool:
    counts = Counter()
    for v in word:
        counts[v] += 1
        if v > 1 and counts[v] > counts[v - 1]:
            return False
    return True


def lr_fillings_by_content(outer, inner, cap_by_row: bool = True) -> Counter:
    """All lattice skew tableaux of outer/inner, bucketed by content partition.

    Fills cells left to right, top to bottom, with the lattice property
    checked on the completed reverse reading word.  Entries in row r (1-based)
    of a lattice filling never exceed r; set cap_by_row=False to drop that
    bound and search all letters up to the cell count (slow, tiny shapes only).
    """
    outer = tuple(outer)
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    cells = [(r, c) for r in range(len(outer)) for c in range(inner[r], outer[r])]
    ncells = len(cells)
    grid = {}
    found: Counter = Counter()

    def fill(idx: int) -> None:
        if idx == ncells:
            word = []
            for r in range(len(outer)):
                for c in range(outer[r] - 1, inner[r] - 1, -1):
                    word.append(grid[(r, c)])
            if _is_lattice(word):
                content = Counter(word)
                parts = tuple(content[v] for v in range(1, max(word) + 1)) if word else ()
                if all(a >= b for a, b in zip(parts, parts[1:])):
                    found[parts] += 1
            return
        r, c = cells[idx]
        lo = 1
        if (r, c - 1) in grid:
            lo = max(lo, grid[(r, c - 1)])
        if (r - 1, c) in grid:
            lo = max(lo, grid[(r - 1, c)] + 1)
        hi = (r + 1) if cap_by_row else ncells
        for v in range(lo, hi + 1):
            grid[(r, c)] = v
            fill(idx + 1)
            del grid[(r, c)]

    fill(0)
    return found


def lr_complements_by_cells(outer, left):
    """lr_complements walked cell by cell: the same sorted (partition, coefficient) pairs.

    The cells of outer/left are filled in reading-word order (top row first,
    right to left), row r (0-based) with letters at most r + 1, keeping
    columns strict and the word lattice; each complete filling counts once
    under its content.  Its cost grows with the number of cells.
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
    counts = Counter()
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


def partitions_of(total: int, max_part: int | None = None):
    """All partitions of total with parts at most max_part, lex descending first part."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions_of(total - first, first):
            yield (first,) + rest


def gen_lr_nested_sum(lams) -> int:
    """Chained coefficient for m in {3, 4, 5} as an explicit nested sum."""
    lams = [tuple(l) for l in lams]
    m = len(lams)
    if m == 3:
        return lr_coefficient(lams[1], lams[0], lams[2])
    if m == 4:
        s1 = sum(lams[1]) - sum(lams[0])
        if s1 < 0:
            return 0
        return sum(
            lr_coefficient(lams[1], lams[0], mu) * lr_coefficient(lams[2], mu, lams[3])
            for mu in partitions_of(s1)
        )
    if m == 5:
        s1 = sum(lams[1]) - sum(lams[0])
        s2 = sum(lams[2]) - s1
        if s1 < 0 or s2 < 0:
            return 0
        total = 0
        for mu1 in partitions_of(s1):
            a = lr_coefficient(lams[1], lams[0], mu1)
            if not a:
                continue
            for mu2 in partitions_of(s2):
                total += (
                    a
                    * lr_coefficient(lams[2], mu1, mu2)
                    * lr_coefficient(lams[3], mu2, lams[4])
                )
        return total
    raise ValueError(f"nested sum only written for m <= 5, got {m}")


def dominates(p, q) -> bool:
    """Dominance order on partitions of equal size: prefix sums of p are >=."""
    if sum(p) != sum(q):
        return False
    acc_p = acc_q = 0
    for i in range(max(len(p), len(q))):
        acc_p += p[i] if i < len(p) else 0
        acc_q += q[i] if i < len(q) else 0
        if acc_p < acc_q:
            return False
    return True


def unit_coefficient_triples(n: int):
    """Equal-cardinality subset triples with unit coefficient, r < n.

    The independent construction for the three-type case: triples
    (I_1, I_2, I_3) of subsets of {1..n} of one cardinality r < n whose
    subset partitions satisfy a unit Littlewood-Richardson coefficient.
    """
    from itertools import combinations, product

    from kleinhorn.partitions import partition_of_subset

    out = []
    for r in range(0, n):
        subs = list(combinations(range(1, n + 1), r))
        for i1, i2, i3 in product(subs, repeat=3):
            a = partition_of_subset(i1, n)
            b = partition_of_subset(i2, n)
            c = partition_of_subset(i3, n)
            if lr_coefficient(b, a, c) == 1:
                out.append((i1, i2, i3))
    return sorted(out)


def horn_index_set_by_filter(n: int, m: int):
    """Qualifying subset tuples by filtering all 2^(n*m) tuples in product order.

    Every tuple is screened on its own: not every subset full, equal first and
    last cardinality pairs, every adjusted conjugate a partition, and a unit
    chained coefficient.  Exponential in n*m; small shapes only.
    """
    out = []
    for sets in product(subsets_of_range(n), repeat=m):
        if all(len(s) == n for s in sets):
            continue
        if len(sets[0]) != len(sets[1]) or len(sets[m - 2]) != len(sets[m - 1]):
            continue
        rows = [adjusted_conjugate(sets, i, n) for i in range(1, m + 1)]
        if all(is_partition(r) for r in rows) and gen_lr([normalize(r) for r in rows]) == 1:
            out.append(sets)
    return tuple(out)


def horn_index_set_by_dfs(n: int, m: int):
    """Qualifying subset tuples by a depth-first search over positions 1..m, in product order.

    Subsets are tried in subsets_of_range order at each position, with an
    explicit stack.  Each row is fixed at the first depth that determines it:
    row i needs only I_i, except at odd interior positions, whose shift also
    needs I_(i-1) and I_(i+1); each (I_i, shift) row is built once per call.
    A prefix is dropped as soon as a row is not a partition or the size gen_lr
    forces on the next chain step goes negative.  I_2 is drawn only from the
    subsets of size |I_1|, and I_m only from the subsets of size |I_(m-1)|
    whose weight sum(I_m) - r(r + 1)/2 (the size of the unshifted last row)
    equals the size gen_lr forces there.  Every complete tuple that passes the
    screens gets its own chain count.  Reaches shapes the filter cannot.
    """
    subsets = subsets_of_range(n)
    by_size: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    by_size_weight: dict[tuple[int, int], list[tuple[int, ...]]] = defaultdict(list)
    for s in subsets:
        r = len(s)
        by_size[r].append(s)
        by_size_weight[r, sum(s) - r * (r + 1) // 2].append(s)
    # fix_at[k]: the rows that I_(k+1) completes, in chain order
    fix_at: list[list[int]] = [[] for _ in range(m)]
    for i in range(m):
        fix_at[i + 1 if 0 < i < m - 1 and i % 2 == 0 else i].append(i)
    memo: dict[tuple[tuple[int, ...], int], tuple[int, ...] | None] = {}
    sets: list[tuple[int, ...]] = [()] * m  # I_1..I_m, valid up to the current depth
    rows: list[tuple[int, ...]] = [()] * m  # normalized adjusted conjugates, fixed so far
    need = [0] * m  # need[i]: size gen_lr forces on the chain step after row i
    found = []
    stack = [iter(subsets)]  # stack[k] yields the remaining candidates for I_(k+1)
    while stack:
        k = len(stack) - 1
        s = next(stack[-1], None)
        if s is None:
            stack.pop()
            continue
        sets[k] = s
        for i in fix_at[k]:
            shift = len(sets[i]) - len(sets[i + 1]) - len(sets[i - 1]) if i < k else 0
            key = (sets[i], shift)
            if key not in memo:
                row = adjusted_conjugate(sets, i + 1, n)
                memo[key] = normalize(row) if is_partition(row) else None
            row = memo[key]
            if row is None:
                break
            rows[i] = row
            need[i] = sum(row) - (need[i - 1] if i else 0)
            if need[i] < 0:
                break
        else:
            if k == 0:
                stack.append(iter(by_size[len(s)]))
            elif k == m - 2:
                stack.append(iter(by_size_weight.get((len(s), need[k]), ())))
            elif k < m - 2:
                stack.append(iter(subsets))
            elif any(len(t) < n for t in sets) and gen_lr(rows) == 1:
                found.append(tuple(sets))
    return tuple(found)


def member_cone_by_value(lams, n: int, m: int) -> MembershipVerdict:
    """Cone membership by evaluating every inequality of the system on the rows as given.

    The domain rows (monotone, nonneg) are filtered out and checked first, then
    the trace and horn rows, each with Inequality.value in exact arithmetic; the
    first violated inequality is the certificate.
    """
    rows = [tuple(lam) for lam in lams]
    system = inequality_system(n, m)
    domain = [iq for iq in system if iq.origin in ("monotone", "nonneg")]
    cone = [iq for iq in system if iq.origin in ("trace", "horn")]
    for iq in domain:
        if iq.value(rows) > 0:
            return MembershipVerdict(False, iq, note="domain")
    for iq in cone:
        if iq.value(rows) > 0:
            note = f"level {iq.level} (window length {m - 2 * iq.level})"
            return MembershipVerdict(False, iq, note=note)
    return MembershipVerdict(True, None, note="all levels hold")


def member_single_row_by_windows(lams, m: int) -> MembershipVerdict:
    """Single-row membership by summing every alternating window (i, j) in (i, j) order.

    Rows are single parts or empty; the first window of odd length with a
    negative alternating sum is the certificate, as member_single_row gives it.
    """
    vals = [lam[0] if lam else 0 for lam in map(tuple, lams)]
    assert len(vals) == m
    for i in range(1, m + 1):
        acc = 0
        sign = 1
        for j in range(i, m + 1):
            acc += sign * vals[j - 1]
            if (j - i) % 2 == 0 and acc < 0:
                window = tuple(((-1) ** (r - i + 1) if i <= r <= j else 0,) for r in range(1, m + 1))
                cert = Inequality(window, "alt", position=(i, j))
                return MembershipVerdict(False, cert, note=f"window ({i},{j})")
            sign = -sign
    return MembershipVerdict(True, None, note="all alternating windows hold")


def witness_search_unfiltered(lams, n: int) -> SearchOutcome:
    """The lex-smallest witness chain by plain depth-first search.

    mu(0) runs over every subpartition of the first type in lexicographic
    order and each later mu over the whole complement listing, with dead
    (position, partition) states memoized; explored counts expanded states.
    The rows are read and checked by clear_denominators and must be integers.
    """
    lams, scale = clear_denominators(lams, n)
    m = len(lams)
    if scale != 1 or m < 3:
        raise ValueError("need at least three integer partitions")
    dead = set()
    explored = 0
    chain = []
    stack = [subpartitions(lams[0])]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            if chain:
                dead.add((len(chain), chain.pop()))
            continue
        chain.append(nxt)
        pos = len(chain)
        if pos == m + 1:
            return SearchOutcome(WitnessChain(tuple(chain)), explored)
        if (pos, nxt) in dead:
            chain.pop()
            continue
        explored += 1
        stack.append(nu for nu, _ in lr_complements(lams[pos - 1], nxt))
    return SearchOutcome(None, explored)
