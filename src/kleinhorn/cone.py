"""Horn-type index sets and the inequality description of the feasibility cone.

The inequality route only exists for tuples of odd length m: the system is
the union, over recursion levels k = 0, 1, ..., of a trace inequality and
one inequality per qualifying subset tuple of the inner window
(positions 1+k .. m-k), plus weak-decrease and nonnegativity constraints.
Even m has no such description here; callers are directed to the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, product

from .partitions import (
    adjusted_conjugate,
    format_subset,
    is_partition,
    normalize,
    pad_to,
    subsets_of_range,
    to_json,
)
from .quiver import SubsetTuple
from .tableaux import gen_lr


class UnsupportedLengthError(ValueError):
    """No inequality description is available for this tuple length."""


@dataclass(frozen=True)
class HornIndex:
    """A qualifying subset tuple, tagged with the recursion level it applies to."""

    subsets: SubsetTuple
    level: int = 0


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

    def is_trivial(self) -> bool:
        return all(c == 0 for crow in self.coeffs for c in crow)

    def to_json_dict(self) -> dict:
        return {
            "origin": self.origin,
            "level": self.level,
            "subsets": [list(s) for s in self.subsets] if self.subsets is not None else None,
            "position": list(self.position) if self.position is not None else None,
            "coeffs": [list(crow) for crow in self.coeffs],
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


def _qualifies(sets: tuple[tuple[int, ...], ...], n: int) -> bool:
    """Conditions on a subset tuple: adjusted conjugates are partitions whose
    chained coefficient is exactly one (size/cardinality screens are assumed)."""
    rows = [adjusted_conjugate(sets, i, n) for i in range(1, len(sets) + 1)]
    if not all(is_partition(r) for r in rows):
        return False
    return gen_lr([normalize(r) for r in rows]) == 1


_horn_cache: dict[tuple[int, int], tuple[HornIndex, ...]] = {}


def horn_index_set(n: int, m: int) -> tuple[HornIndex, ...]:
    """All qualifying subset tuples for odd m >= 3, in lexicographic order.

    A tuple qualifies when not every subset is full, the first two and last
    two subsets have equal cardinalities, every adjusted conjugate is a
    partition, and their chained coefficient is exactly one.  Results are
    cached per (n, m).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if m < 3 or m % 2 == 0:
        raise UnsupportedLengthError(
            f"no inequality description for m = {m}; use the witness-chain oracle"
        )
    key = (n, m)
    if key in _horn_cache:
        return _horn_cache[key]
    result = tuple(
        HornIndex(SubsetTuple(combo, n), 0)
        for combo in product(subsets_of_range(n), repeat=m)
        if any(len(s) < n for s in combo)
        and len(combo[0]) == len(combo[1])
        and len(combo[m - 2]) == len(combo[m - 1])
        and _qualifies(combo, n)
    )
    _horn_cache[key] = result
    return result


def _zero_matrix(m: int, n: int) -> list[list[int]]:
    return [[0] * n for _ in range(m)]


def _freeze(mat) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(row) for row in mat)


def _trace_inequality(n: int, m: int, level: int) -> Inequality:
    """Even inner rows minus odd inner rows, whole-row coefficients."""
    mat = _zero_matrix(m, n)
    inner_len = m - 2 * level
    for i in range(1, inner_len + 1):
        sign = 1 if i % 2 == 0 else -1
        mat[i + level - 1] = [sign] * n
    return Inequality(_freeze(mat), "trace", level=level)


def _horn_inequality(n: int, m: int, level: int, sets: tuple[tuple[int, ...], ...]) -> Inequality:
    """Subset-restricted column sums: + on even inner rows, - on odd."""
    mat = _zero_matrix(m, n)
    for i, s in enumerate(sets, 1):
        sign = 1 if i % 2 == 0 else -1
        for j in s:
            mat[i + level - 1][j - 1] = sign
    return Inequality(_freeze(mat), "horn", level=level, subsets=sets)


def _monotone_inequality(n: int, m: int, i: int, j: int) -> Inequality:
    """Row i must weakly decrease across column j."""
    mat = _zero_matrix(m, n)
    mat[i - 1][j - 1] = -1
    mat[i - 1][j] = 1
    return Inequality(_freeze(mat), "monotone", position=(i, j))


def _nonneg_inequality(n: int, m: int, i: int) -> Inequality:
    """Row i must end nonnegative."""
    mat = _zero_matrix(m, n)
    mat[i - 1][n - 1] = -1
    return Inequality(_freeze(mat), "nonneg", position=(i,))


_system_cache: dict[tuple[int, int], InequalitySystem] = {}


def inequality_system(n: int, m: int) -> InequalitySystem:
    """The full flattened system for odd m: all recursion levels plus domain rows.

    Level k applies the length-(m - 2k) description to rows 1+k .. m-k; inner
    positions keep their own parity.  Identically-zero subset rows (from the
    all-empty tuple) are suppressed and counted, never emitted.
    """
    if m < 3 or m % 2 == 0:
        raise UnsupportedLengthError(
            f"no inequality description for m = {m}; use the witness-chain oracle"
        )
    key = (n, m)
    if key in _system_cache:
        return _system_cache[key]
    ineqs: list[Inequality] = []
    suppressed = 0
    for level in range((m - 3) // 2 + 1):
        inner_len = m - 2 * level
        ineqs.append(_trace_inequality(n, m, level))
        for hi in horn_index_set(n, inner_len):
            iq = _horn_inequality(n, m, level, hi.subsets.sets)
            if iq.is_trivial():
                suppressed += 1
            else:
                ineqs.append(iq)
    for i in range(1, m + 1):
        for j in range(1, n):
            ineqs.append(_monotone_inequality(n, m, i, j))
    for i in range(1, m + 1):
        ineqs.append(_nonneg_inequality(n, m, i))
    system = InequalitySystem(n, m, tuple(ineqs), suppressed)
    _system_cache[key] = system
    return system


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


def member_cone(lams, n: int, m: int) -> MembershipVerdict:
    """Decide cone membership for odd m by checking every inequality.

    Domain rows (weak decrease, nonnegativity) are checked first so that
    malformed rows always get a monotone/nonneg certificate; a violated
    inequality is returned as the certificate and evaluates strictly
    positive on the input.
    """
    rows = _pad_rows(lams, n, m)
    system = inequality_system(n, m)
    domain = [iq for iq in system.inequalities if iq.origin in ("monotone", "nonneg")]
    cone = [iq for iq in system.inequalities if iq.origin in ("trace", "horn")]
    for iq in domain:
        if iq.value(rows) > 0:
            return MembershipVerdict(False, iq, note="domain")
    for iq in cone:
        if iq.value(rows) > 0:
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
                return MembershipVerdict(False, _window_inequality(m, i, j), note=f"window ({i},{j})")
            sign = -sign
    return MembershipVerdict(True, None, note="all alternating windows hold")


def _window_inequality(m: int, i: int, j: int) -> Inequality:
    """<= 0 form of the alternating window starting and ending at i, j."""
    mat = _zero_matrix(m, 1)
    sign = -1
    for v in range(i, j + 1):
        mat[v - 1][0] = sign
        sign = -sign
    return Inequality(_freeze(mat), "alt", position=(i, j))


def interior_point(n: int, m: int, max_part: int = 8, limit: int = 200_000):
    """A tuple of strictly decreasing positive rows strictly inside the cone.

    Rows are searched in (size, lex) order and tuples in product order, so
    the result is deterministic; every emitted inequality must evaluate
    strictly negative.  Raises if nothing is found within the search limit.
    """
    system = inequality_system(n, m)
    rows = sorted(
        (tuple(reversed(combo)) for combo in combinations(range(1, max_part + 1), n)),
        key=lambda r: (sum(r), r),
    )
    for cand in islice(product(rows, repeat=m), limit):
        if all(iq.value(cand) < 0 for iq in system.inequalities):
            return cand
    raise RuntimeError(f"no strict interior point found for n={n}, m={m} with parts <= {max_part}")
