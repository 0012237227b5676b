"""Horn-type index sets and the inequality description of the feasibility cone.

The inequality route only exists for tuples of odd length m: the system is
the union, over recursion levels k = 0, 1, ..., of a trace inequality and
one inequality per qualifying subset tuple of the inner window
(positions 1+k .. m-k), plus weak-decrease and nonnegativity constraints.
Even m has no such description here; callers are directed to the oracle.
cross_check, after routes, compares the witness-chain oracle with every
route on a full grid; the oracle imports nothing from this module.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import chain, compress, count, product
from operator import add, getitem

from .oracle import witness_chain
from .partitions import (
    Partition,
    adjusted_conjugate,
    check_size,
    format_subset,
    partitions_in_box,
    read_rows,
    subsets_of_range,
    to_json,
)
from .tableaux import _chain_state, _chain_step


class UnsupportedLengthError(ValueError):
    """No inequality description is available for this tuple length."""


@dataclass(frozen=True)
class Inequality:
    """A linear constraint: sum of coeffs[i][j] * row_i[j] <= 0.

    coeffs is an m-by-n integer matrix; origin is one of trace, horn,
    monotone, nonneg (system rows) or alt (single-row closed-form windows).
    Horn rows carry the subsets of their inner window plus the level that
    maps inner position i to outer row i + level.
    """

    coeffs: tuple[tuple[int, ...], ...]
    origin: str
    level: int | None = None
    subsets: tuple[tuple[int, ...], ...] | None = None
    position: tuple[int, ...] | None = None

    def value(self, rows):
        """Evaluate on rows (each zero-extended to the coefficient width)."""
        total = 0
        for crow, lam in zip(self.coeffs, rows):
            for j, c in enumerate(crow):
                if c and j < len(lam):
                    total += c * lam[j]
        return total

    def to_json_dict(self) -> dict:
        return {
            "origin": self.origin,
            "level": self.level,
            "subsets": self.subsets,
            "position": self.position,
            "coeffs": self.coeffs,
        }

    def render(self) -> str:
        """One-line human form, terms ordered by (row, column)."""
        terms = []
        for i, crow in enumerate(self.coeffs, 1):
            for j, c in enumerate(crow, 1):
                if c:
                    sign = "+" if c > 0 else "-"
                    mag = "" if abs(c) == 1 else f"{abs(c)}*"
                    terms.append(f"{sign}{mag}l{i}_{j}")
        body = " ".join(terms) if terms else "0"
        tag = self.origin
        if self.level is not None:
            tag += f" level={self.level}"
        if self.subsets is not None:
            tag += " I=(" + ",".join(format_subset(s) for s in self.subsets) + ")"
        if self.position is not None:
            tag += " at=" + ",".join(str(x) for x in self.position)
        return f"{tag}: {body} <= 0"


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    certificate: Inequality | None = None
    note: str = ""


def horn_index_set(n: int, m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All qualifying subset tuples for odd m >= 3, in lexicographic order.

    Each is an m-tuple of sorted subsets of {1..n}.  A tuple qualifies when
    not every subset is full, the first two and last two subsets have equal
    cardinalities, every adjusted conjugate is a partition, and their chained
    coefficient is exactly one.  The first is the all-empty tuple, which
    _horn_levels drops and only this function puts back, after _horn_levels
    has checked n and m; the rest are L + T for each left half L and tail T
    of _horn_levels(n, m)[0] after the first, the trace, in order, built on every call.
    """
    first = _horn_levels(n, m)[0]
    return (((),) * m, *(left + tail for left, tails in first[1:] for tail in tails))


def _horn_levels(n: int, m: int) -> list[list[tuple[tuple, list]]]:
    """The rows of each level k = 0, 1, ..., (m - 3) // 2 in system order, uncached, from one search.

    Level k lists (L, tails of L) pairs, whose rows L + T, in that order, are
    the trace tuple (full,) * (m - 2k), then horn_index_set(n, m - 2k) but the
    all-empty tuple.  Readers only read the lists.

    Take one odd length l, with 0-based positions and centre c = (l - 1)/2.  Row
    i of a tuple I is the adjusted conjugate of I_i; it is shifted by
    |I_i| - |I_(i-1)| - |I_(i+1)| at even interior i and unshifted elsewhere.
    gen_lr forces the size need[i] = |row_i| - need[i-1] (need[-1] = 0) on the
    chain step after row i, and a tuple passes the size screens when every
    need[i] >= 0 and need[l-1] = 0.  The tuples are found from half-tuples
    through the reversal rev(I) = (I_(l-1), ..., I_0):

    * The set is closed under rev.  l - 1 is even, so position i of rev(I)
      has the parity of l - 1 - i, and its neighbours are those of
      I_(l-1-i), swapped; the shift is symmetric in them, so row i of rev(I)
      is row l - 1 - i of I.  The chain count is symmetric under reversing
      its rows, because c^lam_(mu nu) = c^lam_(nu mu), and the other
      conditions are symmetric as stated.
    * A half is a tuple (J_0, ..., J_c) with |J_0| = |J_1|, rows 0..c-1
      partitions and need[0..c-1] >= 0.  Put r[i] = |row_i| - r[i+1]
      (r[l] = 0), the sizes read from the right.  Since need[i] - r[i+1] =
      (-1)^i (|row_0| - |row_1| + ... + |row_(l-1)|), the size screens hold
      iff need[i] = r[i+1] for every i and every need[i] >= 0, that is, iff
      need[0..c-1] >= 0, r[c+1..l-1] >= 0 and need[c-1] + r[c+1] = |row_c|.
      So I passes every screen iff its left half L = (I_0, ..., I_c) and its
      right half R = (I_(l-1), ..., I_c) are halves, the centre row (shifted
      by |I_c| - |L_(c-1)| - |R_(c-1)| when c is even) is a partition, and
      a_L + a_R = |row_c| with a the need[c-1] of each half.  The rows of R
      are the rows of I from the right.  I = L + R[-2::-1] is a bijection
      from the pairs (L, R) that pass the join to the tuples that pass every
      screen, and rev(I) is the image of (R, L).
    * The count splits at the centre.  gen_lr sums, over the chains
      mu_0 = row_0, mu_1, ..., mu_(l-2) = row_(l-1), the product of
      c^(row_i)_(mu_(i-1) mu_i) over i = 1..l-2.  Fix alpha = mu_(c-1) and
      beta = mu_c: the factors i < c read only mu_0..mu_(c-1), the factor
      i = c is c^(row_c)_(alpha beta), and the factors i > c read only
      mu_c..mu_(l-2).  So the count is the sum over alpha, beta of
      S_L(alpha) c^(row_c)_(alpha beta) S_R(beta), where S_L(alpha) sums the
      factors i < c over the chains from row_0 to alpha, the chain state of
      L's rows 0..c-1, and S_R(beta), by c^lam_(mu nu) = c^lam_(nu mu), is
      the chain state of R's rows 0..c-1.  The centre listing
      nu -> sum over alpha of S_L(alpha) c^(row_c)_(alpha nu) is one more
      chain step from S_L, and a partner's count is the sum over beta of
      listing(beta) S_R(beta).  A half whose state is empty is in no
      qualifying tuple, whichever side it is on, and is not filed.
    * The centre enters only by its size.  Call B = (J_0, ..., J_(c-1)) the
      body of a half and t = |J_c|.  Row c - 1 is shifted by
      |J_(c-1)| - t - |J_(c-2)| when c - 1 is even and at least 2; when
      c = 1 the screen |J_0| = |J_1| reads t; no other of rows 0..c-1 reads
      J_c.  So the halves are the bodies, each with every size t it admits,
      and any centre of that size: the search files each body once per
      admissible t, and the join pairs the bodies filed under t once per
      centre J of size t, with J's centre row.  A partner's tail R[-2::-1]
      is its reversed body, built once per body.
    * Levels are prefixes.  Every length starts at position 0, and row i < c
      is interior, so rows 0..c-1 of a length-l tuple, with their shifts,
      needs and state, are those of every longer tuple that starts with the
      same c + 1 subsets.  The search fixes row d at depth d, where J_d is
      placed, except that an even d >= 2 waits for depth d + 1, as its shift
      reads |J_(d+1)|.  So at depth d it has screened rows 0..d - 1, and row
      d unless row d waits: exactly what a body J_0..J_d of the level with
      centre d + 1 needs, with a waiting row d read at each t and t = |J_0|
      when d = 0.  Each deeper body needs these screens too, so one stack
      search over J_0..J_(c-1) of the longest length files, at each depth d,
      the bodies of the level with centre d + 1 and prunes none of any level.
    * The join works on groups.  A state is a function of the rows, every key
      of a nonempty state has size a, and the count of a pair reads the two
      states and the centre row alone; that row reads the centre and, when c
      is even, the sides |L_(c-1)| and |R_(c-1)|.  So the bodies filed under
      one t are grouped by (side, state), with side 0 when c is odd, and
      the centres of a pool by the centre row they give each pair of sides.
      A pair of groups is counted once per centre row, and a unit count holds
      for every left of the one group, right of the other and centre with
      that row.  By rev, the count of (R, L) is that of (L, R), so of two
      groups only one ordered pair is counted, by side, then a, then filing
      order: a unit count makes every right of the second group a partner of
      every left of the first and, when the groups differ, every left of the
      first a partner of every right of the second.  So each qualifying tuple
      is listed once.

    The all-full tuple passes every screen with count 1 and is moved from its
    left's tails to the front as the trace row.  The all-empty tuple, whose
    window is zero, is taken out: not every subset is full, every cardinality
    and shift is 0, so every row is n zeros, and the chain count of empty
    partitions is 1.  It is first in every index set, as () is the least subset,
    and the only tuple whose window is zero.  The search meets the bodies of a
    level in lexicographic order, so the lefts come in lexicographic order as
    pairs (body, centre), and each left's tails are sorted, so the tuples after
    the trace come in lexicographic order without sorting them: every L has
    c + 1 subsets.  (subsets_of_range lists subsets in tuple order, so tuple
    order is product order.)  Each subset's row is built once per call and
    each shift of it once, each state once per distinct rows, and each centre
    listing once per group, centre row and partner side.  The walks take the
    canonical rows as they are, without gen_lr's checks.
    """
    check_size("n", n, 1)
    check_size("m", m, 3)
    if m % 2 == 0:
        raise UnsupportedLengthError(
            f"no inequality description for m = {m}; use the witness-chain oracle"
        )
    c = (m - 1) // 2
    subsets = subsets_of_range(n)
    by_size: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for s in subsets:
        by_size[len(s)].append(s)
    # each subset's unshifted row, weakly decreasing (position 1 is never shifted)
    base = {s: adjusted_conjugate((s,), 1, n) for s in subsets}
    memo: dict[tuple[tuple[int, ...], int], tuple[int, ...] | None] = {}

    def row(s, shift: int):
        """Subset s's row shifted down by shift, without trailing zeros, or None if not a partition."""
        key = (s, shift)
        if key not in memo:
            raw = base[s]
            memo[key] = tuple(x - shift for x in raw if x != shift) if not raw or raw[-1] >= shift else None
        return memo[key]

    # fix_at[d]: the rows that J_d completes, in chain order; an even row d >= 2 waits for J_(d+1)
    fix_at: list[list[int]] = [[] for _ in range(c + 1)]
    for i in range(c):
        fix_at[i + 1 if i % 2 == 0 and i else i].append(i)
    sets: list[tuple[int, ...]] = [()] * c  # J_0..J_(c-1), valid up to the current depth
    rows: list[tuple[int, ...]] = [()] * c  # rows fixed so far
    need = [0] * c  # need[i]: size gen_lr forces on the chain step after row i
    states: dict[tuple[tuple[int, ...], ...], tuple] = {}  # rows -> their chain state, as a dict and a key
    bodies: list[list[tuple]] = [[] for _ in range(c)]  # bodies[d]: J_0..J_d, in search order
    # filed[d][t][side][a][state]: (state, indices into bodies[d], tails) of the
    # bodies J_0..J_d filed under centre size t; no row reads t when d is odd
    filed = [[{} for _ in range(n + 1)] if d % 2 == 0 else [{}] for d in range(c)]

    stack = [iter(subsets)]  # stack[d] yields the remaining candidates for J_d
    while stack:
        d = len(stack) - 1
        s = next(stack[-1], None)
        if s is None:
            stack.pop()
            continue
        sets[d] = s
        for i in fix_at[d]:
            shift = len(sets[i]) - len(sets[i + 1]) - len(sets[i - 1]) if i < d else 0
            rows[i] = row(sets[i], shift)
            if rows[i] is None:
                break
            need[i] = sum(rows[i]) - (need[i - 1] if i else 0)
            if need[i] < 0:
                break
        else:
            if d % 2:  # the centre's size reads no row; side is |J_d|
                filings = [(0, len(s), rows[d], need[d])]
            elif not d:  # |J_1| = |J_0| when J_1 is the centre
                filings = [(len(s), 0, rows[0], need[0])]
            else:  # row d is shifted by |J_d| - t - |J_(d-1)|
                filings = []
                for t in range(n + 1):
                    last = row(s, len(s) - t - len(sets[d - 1]))
                    if last is not None and sum(last) >= need[d - 1]:
                        filings.append((t, 0, last, sum(last) - need[d - 1]))
            body = tuple(sets[: d + 1])
            index, tail = len(bodies[d]), body[::-1]
            bodies[d].append(body)
            for t, side, last, a in filings:
                key = (*rows[:d], last)
                state = states.get(key)
                if state is None:
                    state = _chain_state(key)
                    state = states[key] = state, frozenset(state.items())
                if state[0]:
                    by_state = filed[d][t].setdefault(side, {}).setdefault(a, {})
                    group = by_state.get(state[1])
                    if group is None:
                        group = by_state[state[1]] = (state[0], [], [])
                    group[1].append(index)
                    group[2].append(tail)
            if d < c - 1:
                stack.append(iter(by_size[len(s)] if d == 0 else subsets))
    full, numbered = tuple(range(1, n + 1)), list(enumerate(subsets))
    levels = []
    for d in range(c - 1, -1, -1):
        partners: dict[tuple[int, int], list] = defaultdict(list)  # (body, centre) -> tails
        for t, groups in enumerate(filed[d]):
            pool = numbered if d % 2 else [(j, s) for j, s in numbered if len(s) == t]
            for side_l, lefts_by_need in groups.items():
                for side_r, rights_by_need in groups.items():
                    if side_l > side_r:
                        continue
                    at = defaultdict(list)  # centre row -> the centres j with that row
                    for j, centre in pool:
                        mid = row(centre, len(centre) - side_l - side_r if d % 2 else 0)
                        if mid is not None:
                            at[mid].append(j)
                    for mid, js in at.items():
                        for a_l, lefts in lefts_by_need.items():
                            a_r = sum(mid) - a_l
                            rights = rights_by_need.get(a_r)
                            if rights is None or side_l == side_r and a_l > a_r:
                                continue
                            same = lefts is rights
                            rights = list(rights.values())
                            for x, (state_l, lefts_at, tails_l) in enumerate(lefts.values()):
                                listing = _chain_step(state_l, mid)  # the group's centre listing
                                for state_r, rights_at, tails_r in rights[x:] if same else rights:
                                    if sum(listing.get(nu, 0) * w for nu, w in state_r.items()) == 1:
                                        for j in js:
                                            for i in lefts_at:
                                                partners[i, j].extend(tails_r)
                                            if tails_l is not tails_r:
                                                for i in rights_at:
                                                    partners[i, j].extend(tails_l)
        level = [((full,) * (d + 2), [(full,) * (d + 1)])]  # the trace row first
        for i, j in sorted(partners):
            tails, left = partners.pop((i, j)), bodies[d][i] + (subsets[j],)
            if left.count(full) == d + 2 or not any(left):  # all full or all empty
                tails.remove(left[-2::-1])
            if tails:
                tails.sort()
                level.append((left, tails))
        levels.append(level)
    return levels


@lru_cache(maxsize=None, typed=True)
def inequality_system(n: int, m: int) -> tuple[Inequality, ...]:
    """system_rows(n, m) as a tuple, cached per (n, m), typed, so a float or bool n or m is refused every time."""
    return tuple(system_rows(n, m))


def system_rows(n: int, m: int):
    """The full flattened system for odd m: all recursion levels plus domain rows.

    Level k applies the length-(m - 2k) description to rows 1+k .. m-k: inner
    row i (inner positions keep their own parity) is the +1 (i even) or -1
    (i odd) indicator row of the inner tuple's i-th subset, and every other row
    is zero.  The trace row at level k is the window of the all-full tuple
    (full,) * (m - 2k), the level's first, which horn_index_set leaves out.
    Monotone row (i, j) is the step -1, +1 at columns j, j + 1 of row i; nonneg
    row i is the -1 indicator row of {n} at row i.  The rows come in this
    order: for each level of one _horn_levels(n, m) call, the _cone_row of
    each of the level's tuples L + T in its order; then _domain_rows.

    The all-empty tuple, whose window is zero, is suppressed and counted, never
    emitted: _horn_levels drops it from every level, so the suppressed count
    is the number of levels, (m - 1) // 2.

    Every matrix is m references into _row_table(n).  member_cone's
    certificates come from the same _cone_row and _domain_rows, so each row
    has one definition.  _horn_levels checks n and m before any row is built.
    """
    for level, pairs in enumerate(_horn_levels(n, m)):
        yield from (_cone_row(n, level, left + tail) for left, tails in pairs for tail in tails)
    yield from _domain_rows(n, m)


def system_json(n: int, m: int):
    """to_json({"n": n, "m": m, "suppressed_trivial": (m - 1) // 2, "inequalities": [the
    to_json_dict of each row of system_rows(n, m)]}) as chunks: the header, one per row, then "]}".

    No Inequality and no index set is built for a trace or horn row: one
    _horn_levels call gives every level, whose first row, the trace, is one
    chunk, and a row I = L + T is four texts:
    L's subsets, T's subsets, L's coefficient rows and T's, each made once per
    left and per distinct tail T.  Each subset and each of its indicator rows
    in _row_table(n) is encoded once per call by to_json, and a level's zero
    rows at each end are one prefix and one suffix.  Domain rows are encoded
    from _domain_rows.  Every level is built, and n and m checked, before the header.
    """
    levels = _horn_levels(n, m)
    zero, indicator, _ = _row_table(n)
    subset = {s: to_json(s) for s in indicator}
    plus = {s: to_json(rows[0]) for s, rows in indicator.items()}
    minus = {s: to_json(rows[1]) for s, rows in indicator.items()}
    yield f'{{"n":{n},"m":{m},"suppressed_trivial":{len(levels)},"inequalities":['
    for level, ((left, (tail,)), *pairs) in enumerate(levels):
        signs = ([minus, plus] * m)[: m - 2 * level]  # inner row i takes the -1 row at odd i
        tail_signs = signs[(m + 1) // 2 - level :]  # a left half holds positions 0..c
        pad = (to_json(zero) + ",") * level
        end = ("," + to_json(zero)) * level + "]}"
        yield (
            f'{"," if level else ""}{{"origin":"trace","level":{level},"subsets":null,"position":null,'
            f'"coeffs":[{pad}{",".join(map(getitem, signs, left + tail))}{end}'
        )
        texts = {}  # tail -> its subsets' text and its coefficient rows' text
        for left, tails in pairs:
            head = f',{{"origin":"horn","level":{level},"subsets":[{",".join(map(subset.__getitem__, left))},'
            coeffs = f'],"position":null,"coeffs":[{pad}{",".join(map(getitem, signs, left))},'
            for tail in tails:
                text = texts.get(tail)
                if text is None:
                    text = texts[tail] = (
                        ",".join(map(subset.__getitem__, tail)),
                        ",".join(map(getitem, tail_signs, tail)) + end,
                    )
                yield f"{head}{text[0]}{coeffs}{text[1]}"
    for iq in _domain_rows(n, m):
        yield "," + to_json(iq.to_json_dict())
    yield "]}"


@cache
def _row_table(n: int):
    """The zero row, indicator[s] = (+1 row, -1 row) of each subset s, and the n - 1 monotone steps."""
    zero = (0,) * n
    indicator = {(): (zero, zero)}
    for s in subsets_of_range(n)[1:]:
        plus = tuple(int(j in s) for j in range(1, n + 1))
        indicator[s] = (plus, tuple(-x for x in plus))
    steps = [zero[: j - 1] + (-1, 1) + zero[j + 1 :] for j in range(1, n)]
    return zero, indicator, steps


def _cone_row(n: int, level: int, sets) -> Inequality:
    """Level `level`'s row of the inner subset tuple sets; the all-full tuple gives the trace row."""
    zero, indicator, _ = _row_table(n)
    pad = (zero,) * level
    coeffs = pad + tuple(indicator[s][i % 2] for i, s in enumerate(sets, 1)) + pad
    trace = all(len(s) == n for s in sets)
    return Inequality(coeffs, "trace" if trace else "horn", level=level, subsets=None if trace else sets)


@cache
def _domain_rows(n: int, m: int) -> tuple[Inequality, ...]:
    """The monotone rows (i, j), then the nonneg rows i, of the (n, m) system."""
    zero, indicator, steps = _row_table(n)
    ineqs = []
    for i in range(1, m + 1):
        above, below = (zero,) * (i - 1), (zero,) * (m - i)
        for j, step in enumerate(steps, 1):
            ineqs.append(Inequality(above + (step,) + below, "monotone", position=(i, j)))
    nonneg = indicator[(n,)][1]
    for i in range(1, m + 1):
        coeffs = (zero,) * (i - 1) + (nonneg,) + (zero,) * (m - i)
        ineqs.append(Inequality(coeffs, "nonneg", position=(i,)))
    return tuple(ineqs)


@cache
def _level_halves(n: int, m: int) -> tuple[tuple, ...]:
    """Each level of one _horn_levels(n, m) call as bitmask columns over its distinct halves.

    Level k is (left columns, tail columns, tail lists, picks, lefts, tails): lefts are the
    level's lefts L in order, the trace's first; tails are the distinct tails T, the
    trace's first; column i holds each half's mask at position i; left i's tails are the
    positions in tails listed at lists[picks[i]].  Bit j - 1 is element j, and odd positions
    from 1 hold the complement: -S(I) = S(complement of I) - S(full), so a row L + T is
    positive iff its subset sums exceed the window's full sums at odd positions.
    """
    full, mask = (1 << n) - 1, {s: sum(1 << (j - 1) for j in s) for s in subsets_of_range(n)}
    found = []
    for level, pairs in enumerate(_horn_levels(n, m)):
        c, at, lists = (m - 1) // 2 - level, {}, {}
        picks = tuple(lists.setdefault(tuple(at.setdefault(t, len(at)) for t in ts), len(lists)) for _, ts in pairs)
        lefts, tails = tuple(left for left, _ in pairs), tuple(at)
        left_columns = tuple(tuple(mask[left[i]] ^ full * (i % 2 == 0) for left in lefts) for i in range(c + 1))
        tail_columns = tuple(tuple(mask[tail[i]] ^ full * ((c + i) % 2) for tail in tails) for i in range(c))
        found.append((left_columns, tail_columns, tuple(lists), picks, lefts, tails))
    return tuple(found)


def _half_values(window, columns):
    """A lazy map of each half's sum of subset sums: window[i][its mask in column i], summed over i."""
    values = map(window[0].__getitem__, columns[0])
    for sums, column in zip(window[1:], columns[1:]):
        values = map(add, values, map(sums.__getitem__, column))
    return values


@cache
def _certificate(n: int, m: int, level: int, left: int, tail: int) -> Inequality:
    """The _cone_row of lefts[left] + tails[tail] of _level_halves(n, m)[level]."""
    lefts, tails = _level_halves(n, m)[level][4:]
    return _cone_row(n, level, lefts[left] + tails[tail])


def member_cone(lams, n: int, m: int) -> MembershipVerdict:
    """Decide cone membership for odd m by the rows of system_rows(n, m).

    The domain rows are checked first, though system_rows yields them last,
    so malformed rows always get a monotone/nonneg certificate: monotone
    (i, j) is violated when l_ij < l_i(j+1), nonneg i when l_in < 0.  Then
    each level's trace row and Horn rows follow in system order: level
    k = 0, 1, ... is the level-0 check of the (n, m - 2k) system on rows
    k+1 .. m-k.  The rows are read by partitions.read_rows, which checks n,
    m, the row count and the width and scales the parts to ints (every row
    is linear and homogeneous, so a positive scale keeps each sign and the
    first violated row), and zero-padded to n parts; an even m then raises
    UnsupportedLengthError.  Each row's subset sums are taken once.  A row L + T
    has value V(L) + V(T), so by _level_halves each left and distinct tail is
    summed once per level.  A level lists the trace row, then each left's tails
    in order: its first violated row, the certificate, is the first left over
    the bound with its largest tail, and its first such tail.  The trace row,
    left 0 with tail 0, is checked first from the full sums, a fast path.
    """
    rows = [row + (0,) * (n - len(row)) for row in read_rows(lams, n, m)[0]]
    halves = _level_halves(n, m)  # _horn_levels refuses an even m
    violated = [row[j - 1] < row[j] for row in rows for j in range(1, n)] + [row[-1] < 0 for row in rows]
    for iq in compress(_domain_rows(n, m), violated):
        return MembershipVerdict(False, iq, note="domain")
    sums = []
    for row in rows:
        row_sums = [0]
        for x in row:
            row_sums += [s + x for s in row_sums]
        sums.append(row_sums)
    for level, (left_columns, tail_columns, lists, picks, _, _) in enumerate(halves):
        window, note = sums[level : m - level], f"level {level} (window length {m - 2 * level})"
        bound = sum(s[-1] for s in window[::2])
        if sum(s[-1] for s in window[1::2]) > bound:  # the trace row, left 0 with tail 0
            return MembershipVerdict(False, _certificate(n, m, level, 0, 0), note=note)
        tail_values = list(_half_values(window[len(left_columns) :], tail_columns))
        best = [max(map(tail_values.__getitem__, tails)) for tails in lists]
        totals = map(add, _half_values(window, left_columns), map(best.__getitem__, picks))
        for left in compress(count(), map(bound.__lt__, totals)):  # lefts are summed up to it
            room = bound - sum(s[column[left]] for s, column in zip(window, left_columns))
            tail = next(t for t in lists[picks[left]] if tail_values[t] > room)
            return MembershipVerdict(False, _certificate(n, m, level, left, tail), note=note)
    return MembershipVerdict(True, None, note="all levels hold")


def routes(n: int, m: int):
    """The closed decision routes for (n, m) as (name, decide) pairs, in order.

    "single-row" (member_single_row) applies for n = 1 and comes first, as it
    needs no inequality system; "inequality" (member_cone) applies for odd m.
    decide maps m rows to a MembershipVerdict.
    """
    found = []
    if n == 1:
        found.append(("single-row", lambda lams: member_single_row(lams, m)))
    if m % 2 == 1:
        found.append(("inequality", lambda lams: member_cone(lams, n, m)))
    return tuple(found)


@dataclass
class Disagreement:
    types: tuple[Partition, ...]
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
    bound; the routes are those that routes(n, m), above, lists.
    Disagreements are collected in grid order.  Raises ValueError unless n,
    m and bound are ints with n >= 1, m >= 3 and bound >= 0, and
    UnsupportedLengthError when no route applies: even m
    with n >= 2.
    """
    check_size("n", n, 1)
    check_size("m", m, 3)
    check_size("bound", bound, 0)
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


def member_single_row(lams, m: int) -> MembershipVerdict:
    """Closed-form membership when every row has a single part (n = 1).

    lams is m >= 3 rows of at most one part each, read by read_rows at
    n = 1 as member_cone reads its rows, so the sums below are exact int
    sums; a decreasing or sign violation is certified, not refused.  The
    tuple belongs to the cone iff every
    alternating window sum v_i - v_(i+1) + ... + v_j with i <= j of equal parity
    is nonnegative; works for every m >= 3, odd or even.  The first violated
    window (i, j), in (i, j) order, is returned as an origin-"alt" certificate
    in <= 0 form: -1, +1, -1, ... on rows i..j and 0 on every other row.

    Linear time: with r_0 = 0 and r_k = v_k - r_(k-1), the window (i, j) sums
    to r_j + r_(i-1).  So i starts a violated window iff the least r_j over
    j >= i of i's parity is below -r_(i-1).  One backward pass keeps that
    least value for each parity and finds the first such i; a forward scan
    from it finds j.
    """
    r = [0]
    for row in read_rows(lams, 1, m)[0]:
        r.append((row[0] if row else 0) - r[-1])
    low, other = r[m], r[m - 1]  # least r_j over j >= i of i's parity, and of the other
    first = None
    for i in range(m, 0, -1):
        if r[i] < low:
            low = r[i]
        if low + r[i - 1] < 0:
            first = i
        low, other = other, low
    if first is None:
        return MembershipVerdict(True, None, note="all alternating windows hold")
    i = first
    j = next(j for j in range(i, m + 1, 2) if r[j] + r[i - 1] < 0)
    window = ((0,),) * (i - 1) + ((-1,), (1,)) * ((j - i) // 2) + ((-1,),) + ((0,),) * (m - j)
    cert = Inequality(window, "alt", position=(i, j))
    return MembershipVerdict(False, cert, note=f"window ({i},{j})")


def interior_point(n: int, m: int):
    """The staircase tuple (rho,) * m, rho = (n, ..., 1), strictly inside the cone.

    Raises RuntimeError unless Inequality.value (member_cone's subset sums do
    not use it) is negative on it for every row.  It always is: monotone and nonneg rows read
    -1, trace rows -|rho|.  A horn row of a qualifying (I_1..I_L), r_t = |I_t|,
    reads V = sum (-1)^t (r_t (n+1) - sum I_t).  The adjusted conjugates have sizes
    sum I_t - r_t (r_t+1)/2, less (n - r_t)(r_t - r_(t-1) - r_(t+1)) at odd interior
    t; gen_lr = 1 makes their alternating sum vanish, and with r_1 = r_2 and
    r_(L-1) = r_L this leaves -2V = r_L (2n+1-r_L) + the sum over t = 3, 5, .., L-2
    of 2 r_(t-1) (n-r_t) + d_t (d_t+1), d_t = r_t - r_(t+1).  No term is negative,
    and all vanish only if r_L = 0 and then, downward, every r_t = 0: the all-empty
    row, which system_rows suppresses.  The identity for -2V was checked
    against Inequality.value on every horn row with n*m <= 30.
    """
    rows = system_rows(n, m)
    first = next(rows)  # _horn_levels checks n and m before the point is built
    point = (tuple(range(n, 0, -1)),) * m
    if any(iq.value(point) >= 0 for iq in chain((first,), rows)):
        raise RuntimeError(f"the staircase tuple is not strictly interior for n={n}, m={m}")
    return point
