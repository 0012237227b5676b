"""Horn-type index sets and the inequality description of the feasibility cone.

The inequality route only exists for tuples of odd length m: the system is
the union, over recursion levels k = 0, 1, ..., of a trace inequality and
one inequality per qualifying subset tuple of the inner window
(positions 1+k .. m-k), plus weak-decrease and nonnegativity constraints.
Even m has no such description here; callers are directed to the oracle.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from itertools import chain
from math import lcm
from operator import mul

from .partitions import (
    adjusted_conjugate,
    format_subset,
    is_partition,
    normalize,
    pad_to,
    subsets_of_range,
    to_json,
)
from .tableaux import _chain_count


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
class InequalitySystem:
    n: int
    m: int
    inequalities: tuple[Inequality, ...]
    suppressed_trivial: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "suppressed_trivial": self.suppressed_trivial,
            "inequalities": [iq.to_json_dict() for iq in self.inequalities],
        }

    def to_json(self) -> str:
        return to_json(self.to_json_dict())


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    certificate: Inequality | None = None
    note: str = ""


@cache
def horn_index_set(n: int, m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All qualifying subset tuples for odd m >= 3, in lexicographic order.

    Each is an m-tuple of sorted subsets of {1..n}.  A tuple qualifies when
    not every subset is full, the first two and last two subsets have equal
    cardinalities, every adjusted conjugate is a partition, and their chained
    coefficient is exactly one.  Results are cached per (n, m).

    The tuples are built by a depth-first search over positions 1..m with an
    explicit stack, trying subsets in subsets_of_range order at each position,
    so they come out in product order.  Row i depends only on I_i, except at
    odd interior positions, where its shift also needs I_(i-1) and I_(i+1);
    each row is fixed at the first depth that determines it, and each
    (I_i, shift) row is built once per call.  A prefix is dropped as soon as a
    row is not a partition or the alternating size that gen_lr forces on the
    next chain step goes negative.  I_2 is drawn only from the subsets of size
    |I_1|.  I_m is drawn only from the subsets of size |I_(m-1)| and weight
    need, the size gen_lr forces on the last row: that row is an unshifted
    end row, the padded conjugate of the partition (z_r - r, ..., z_1 - 1) of
    I_m = {z_1 < ... < z_r}, so it is always a partition and its size is the
    weight sum(I_m) - r(r + 1)/2.  A last row of any other size makes gen_lr
    zero, so the bucket holds exactly the I_m that pass the size screens.
    Both buckets keep subsets_of_range order.  Only full tuples that pass
    every screen reach the chain count, which takes the normalized rows as
    they are, without gen_lr's checks.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    if m % 2 == 0:
        raise UnsupportedLengthError(
            f"no inequality description for m = {m}; use the witness-chain oracle"
        )
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
            elif any(len(t) < n for t in sets) and _chain_count(rows) == 1:
                found.append(tuple(sets))
    return tuple(found)


def _matrix(m: int, n: int, cells, rows: dict) -> tuple[tuple[int, ...], ...]:
    """The m-by-n matrix with c at each 1-based (row, column, c) cell and 0 elsewhere.

    rows maps each coefficient row to itself, so equal rows built through one
    dict are one tuple.
    """
    mat = [[0] * n for _ in range(m)]
    for i, j, c in cells:
        mat[i - 1][j - 1] = c
    return tuple(rows.setdefault(row, row) for row in map(tuple, mat))


def _window(m: int, n: int, level: int, sets, rows: dict) -> tuple[tuple[int, ...], ...]:
    """The m-by-n window matrix: +1 on even and -1 on odd inner rows, at each subset's columns.

    Inner row i is outer row i + level; every other row is zero.  rows maps
    each coefficient row to itself and each (subset, parity of i) to its row,
    so a window row is built once per key and equal rows are one tuple.  The
    trace row is the window of the all-full tuple, the one tuple
    horn_index_set leaves out; the n = 1 alt certificate is the window of
    one-column subsets.
    """
    zero = (0,) * n
    mat = [rows.setdefault(zero, zero)] * m
    for i, s in enumerate(sets, 1):
        key = (s, i % 2)
        row = rows.get(key)
        if row is None:
            cells = [0] * n
            for j in s:
                cells[j - 1] = -1 if i % 2 else 1
            row = tuple(cells)
            row = rows[key] = rows.setdefault(row, row)
        mat[i + level - 1] = row
    return tuple(mat)


@cache
def inequality_system(n: int, m: int) -> InequalitySystem:
    """The full flattened system for odd m: all recursion levels plus domain rows.

    Level k applies the length-(m - 2k) description to rows 1+k .. m-k; inner
    positions keep their own parity.  Identically-zero subset rows (from the
    all-empty tuple) are suppressed and counted, never emitted.  Every
    coefficient matrix is a tuple of rows shared across the system, so equal
    rows are one object.  horn_index_set checks n and m before any row is built.
    """
    horn_index_set(n, m)
    full = tuple(range(1, n + 1))
    rows: dict = {}
    ineqs: list[Inequality] = []
    suppressed = 0
    for level in range((m - 3) // 2 + 1):
        inner_len = m - 2 * level
        trace = _window(m, n, level, (full,) * inner_len, rows)
        ineqs.append(Inequality(trace, "trace", level=level))
        for sets in horn_index_set(n, inner_len):
            if not any(sets):
                suppressed += 1
            else:
                horn = _window(m, n, level, sets, rows)
                ineqs.append(Inequality(horn, "horn", level=level, subsets=sets))
    for i in range(1, m + 1):
        for j in range(1, n):
            cells = ((i, j, -1), (i, j + 1, 1))
            ineqs.append(Inequality(_matrix(m, n, cells, rows), "monotone", position=(i, j)))
    for i in range(1, m + 1):
        ineqs.append(Inequality(_matrix(m, n, ((i, n, -1),), rows), "nonneg", position=(i,)))
    return InequalitySystem(n, m, tuple(ineqs), suppressed)


def _pad_rows(lams, n: int, m: int):
    if len(lams) != m:
        raise ValueError(f"expected {m} rows, got {len(lams)}")
    rows = []
    for lam in lams:
        lam = tuple(lam)
        if len(lam) > n:
            raise ValueError(f"row {lam!r} longer than n = {n}")
        rows.append(pad_to(lam, n))
    return tuple(rows)


_DOMAIN = ("monotone", "nonneg")


@cache
def _compiled(n: int, m: int) -> tuple[tuple[tuple[int, ...], Inequality], ...]:
    """The (n, m) system as (flat coefficients, inequality) pairs, domain rows first.

    The flat coefficients are the inequality's matrix read row by row.  The
    monotone and nonneg rows come first, then the trace and horn rows, each
    group in system order.
    """
    ineqs = inequality_system(n, m).inequalities
    domain = [iq for iq in ineqs if iq.origin in _DOMAIN]
    cone = [iq for iq in ineqs if iq.origin not in _DOMAIN]
    return tuple((tuple(chain.from_iterable(iq.coeffs)), iq) for iq in domain + cone)


def member_cone(lams, n: int, m: int) -> MembershipVerdict:
    """Decide cone membership for odd m by checking every inequality.

    The rows are flattened once and checked against the compiled system,
    domain rows (weak decrease, nonnegativity) first, so that malformed rows
    always get a monotone/nonneg certificate.  The entries are first scaled
    to integers by the lcm of their denominators: every inequality is linear
    and homogeneous, so a positive scale keeps each sign and the first
    violated inequality is the same.  That inequality is returned as the
    certificate and evaluates strictly positive on the input.
    """
    flat = [x for row in _pad_rows(lams, n, m) for x in row]
    scale = lcm(*(x.denominator for x in flat))
    flat = [x.numerator * (scale // x.denominator) for x in flat]
    for coeffs, iq in _compiled(n, m):
        if sum(map(mul, coeffs, flat)) > 0:
            if iq.origin in _DOMAIN:
                note = "domain"
            else:
                note = f"level {iq.level} (window length {m - 2 * iq.level})"
            return MembershipVerdict(False, iq, note=note)
    return MembershipVerdict(True, None, note="all levels hold")


def routes(n: int, m: int):
    """The closed decision routes for (n, m) as (name, decide) pairs, in order.

    "inequality" (member_cone) applies for odd m, "single-row"
    (member_single_row) for n = 1; decide maps m rows to a MembershipVerdict.
    """
    found = []
    if m % 2 == 1:
        found.append(("inequality", lambda lams: member_cone(lams, n, m)))
    if n == 1:
        found.append(("single-row", lambda lams: member_single_row(lams, m)))
    return tuple(found)


def member_single_row(values, m: int | None = None) -> MembershipVerdict:
    """Closed-form membership when every row has a single part (n = 1).

    The tuple belongs to the cone iff every alternating window sum
    value_i - value_{i+1} + ... + value_j with i <= j of equal parity is
    nonnegative; works for every m >= 3, odd or even.  A violated window is
    returned as an origin-"alt" certificate in <= 0 form.
    """
    vals = []
    for v in values:
        if isinstance(v, (list, tuple)):
            if len(v) > 1:
                raise ValueError(f"row {v!r} has more than one part")
            vals.append(v[0] if v else 0)
        else:
            vals.append(v)
    if m is None:
        m = len(vals)
    if len(vals) != m:
        raise ValueError(f"expected {m} values, got {len(vals)}")
    if m < 3:
        raise ValueError(f"need at least three values, got {m}")
    for i in range(1, m + 1):
        acc = 0
        sign = 1
        for j in range(i, m + 1):
            acc += sign * vals[j - 1]
            if (j - i) % 2 == 0 and acc < 0:
                window = _window(m, 1, i - 1, ((1,),) * (j - i + 1), {})
                cert = Inequality(window, "alt", position=(i, j))
                return MembershipVerdict(False, cert, note=f"window ({i},{j})")
            sign = -sign
    return MembershipVerdict(True, None, note="all alternating windows hold")


def interior_point(n: int, m: int):
    """The staircase tuple (rho,) * m, rho = (n, ..., 1), strictly inside the cone.

    Raises RuntimeError unless Inequality.value (no code shared with member_cone)
    is negative on it for every row.  It always is: monotone and nonneg rows read
    -1, trace rows -|rho|.  A horn row of a qualifying (I_1..I_L), r_t = |I_t|,
    reads V = sum (-1)^t (r_t (n+1) - sum I_t).  The adjusted conjugates have sizes
    sum I_t - r_t (r_t+1)/2, less (n - r_t)(r_t - r_(t-1) - r_(t+1)) at odd interior
    t; gen_lr = 1 makes their alternating sum vanish, and with r_1 = r_2 and
    r_(L-1) = r_L this leaves -2V = r_L (2n+1-r_L) + the sum over t = 3, 5, .., L-2
    of 2 r_(t-1) (n-r_t) + d_t (d_t+1), d_t = r_t - r_(t+1).  No term is negative,
    and all vanish only if r_L = 0 and then, downward, every r_t = 0: the all-empty
    row, which inequality_system suppresses.  The identity for -2V was checked
    against Inequality.value on every horn row with n*m <= 30.
    """
    point = (tuple(range(n, 0, -1)),) * m
    if any(iq.value(point) >= 0 for iq in inequality_system(n, m).inequalities):
        raise RuntimeError(f"the staircase tuple is not strictly interior for n={n}, m={m}")
    return point
