"""Partitions and integer/rational sequences, with exact arithmetic throughout.

A partition is stored canonically as a tuple of weakly decreasing positive
integers with no trailing zeros.  Sequences that are not yet known to be
partitions (padded conjugates, shifted rows) are plain tuples that may carry
zeros or negative entries.  The semantic length of a row is supplied by the
caller where it matters; storage never pads.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations

Partition = tuple[int, ...]
IntSeq = tuple[int, ...]

_INT_TOKEN = re.compile(r"[+-]?\d+")


def is_weakly_decreasing(seq) -> bool:
    return all(a >= b for a, b in zip(seq, seq[1:]))


def is_partition(seq) -> bool:
    """True iff seq is weakly decreasing with nonnegative entries."""
    seq = tuple(seq)
    return is_weakly_decreasing(seq) and (not seq or seq[-1] >= 0)


def normalize(seq) -> Partition:
    """Canonical form: validate weak decrease and nonnegativity, strip trailing zeros."""
    parts = tuple(seq)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts!r}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram; column i has height #{j : p_j > i}."""
    nparts = len(p)
    cols: list[int] = []
    for k in range(nparts, 0, -1):
        width = p[k - 1] - (p[k] if k < nparts else 0)
        cols.extend([k] * width)
    return tuple(cols)


def contains(outer, inner) -> bool:
    """Diagram containment, row by row (both arguments canonical partitions)."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def pad_to(seq, length: int) -> tuple:
    """Right-pad with zeros to exactly the given length."""
    if len(seq) > length:
        raise ValueError(f"sequence {seq!r} longer than target length {length}")
    return tuple(seq) + (0,) * (length - len(seq))


def pad_add(a, b) -> tuple:
    """Componentwise sum after zero-padding to the common length."""
    length = max(len(a), len(b))
    a = pad_to(a, length)
    b = pad_to(b, length)
    return tuple(x + y for x, y in zip(a, b))


def scale(seq, r) -> tuple:
    """Componentwise multiple by a positive rational; integral results stay ints."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError(f"scale factor must be positive, got {r}")
    out = tuple(x * r for x in seq)
    if all(v.denominator == 1 for v in out):
        return tuple(int(v) for v in out)
    return out


def check_subset(zs: tuple, n: int) -> None:
    """Raise ValueError unless zs is a strictly increasing tuple of integers in 1..n."""
    prev = 0
    for z in zs:
        if not isinstance(z, int):
            raise ValueError(f"subset must contain integers: {zs!r}")
        if z <= 0 or z > n:
            raise ValueError(f"subset {zs!r} not inside 1..{n}")
        if z <= prev:
            raise ValueError(f"subset {zs!r} not strictly increasing")
        prev = z


def partition_of_subset(subset, n: int) -> Partition:
    """Partition (z_r - r, ..., z_1 - 1) attached to a subset {z_1 < ... < z_r} of {1..n}.

    Has at most |subset| nonzero parts, each at most n - |subset|.
    """
    zs = tuple(subset)
    check_subset(zs, n)
    r = len(zs)
    return normalize(tuple(zs[r - 1 - k] - (r - k) for k in range(r)))


def adjusted_conjugate(sets, i: int, n: int) -> IntSeq:
    """Conjugate of the i-th subset partition, zero-padded to n - |I_i| entries.

    For interior odd positions (1 < i < m, i odd) every entry is shifted down
    by |I_i| - |I_{i+1}| - |I_{i-1}|; the result is then weakly decreasing but
    may fail to be a partition.  Positions are 1-based.
    """
    m = len(sets)
    if not 1 <= i <= m:
        raise IndexError(f"position {i} outside 1..{m}")
    s = tuple(sets[i - 1])
    base = pad_to(conjugate(partition_of_subset(s, n)), n - len(s))
    if i == 1 or i == m or i % 2 == 0:
        return base
    shift = len(s) - len(sets[i]) - len(sets[i - 2])
    return tuple(x - shift for x in base)


def subsets_of_range(n: int) -> tuple[tuple[int, ...], ...]:
    """All subsets of {1..n} as sorted tuples, in lexicographic order."""
    out: list[tuple[int, ...]] = []
    for r in range(n + 1):
        out.extend(combinations(range(1, n + 1), r))
    return tuple(sorted(out))


def partitions_in_box(max_len: int, max_part: int):
    """All partitions with at most max_len parts, each at most max_part, lex ascending."""
    return subpartitions((max_part,) * max_len)


def subpartitions(p: Partition):
    """All partitions contained in p, lex ascending (the empty partition first)."""

    def grow(prefix: Partition):
        yield prefix
        k = len(prefix)
        if k == len(p):
            return
        top = min(p[k], prefix[-1]) if prefix else (p[0] if p else 0)
        for v in range(1, top + 1):
            yield from grow(prefix + (v,))

    yield from grow(())


def partitions_of_size_in(total: int, shape: Partition):
    """Partitions of the given size contained in shape, lex ascending."""
    if total < 0:
        return

    def grow(prefix: Partition, rem: int):
        if rem == 0:
            yield prefix
            return
        k = len(prefix)
        if k == len(shape):
            return
        top = min(shape[k], prefix[-1] if prefix else rem, rem)
        rows_after = len(shape) - k - 1
        for v in range(1, top + 1):
            # a first part of v caps everything below it at v per row
            if rem - v > v * rows_after:
                continue
            yield from grow(prefix + (v,), rem - v)

    yield from grow((), total)


def parse_int_parts(text: str) -> tuple[int, ...]:
    """Comma-separated integers; '' and '0' denote the empty sequence."""
    t = text.strip().replace(" ", "")
    if t in ("", "0"):
        return ()
    parts = []
    for tok in t.split(","):
        if not _INT_TOKEN.fullmatch(tok):
            raise ValueError(f"bad integer part {tok!r} in {text!r}")
        parts.append(int(tok))
    return tuple(parts)


def parse_partition(text: str) -> Partition:
    parts = parse_int_parts(text)
    if not is_partition(parts):
        raise ValueError(f"not weakly decreasing and nonnegative: {text!r}")
    return normalize(parts)


def parse_rational_parts(text: str) -> tuple[Fraction, ...]:
    """Comma-separated rationals (p/q allowed); '' and '0' denote the empty sequence."""
    t = text.strip().replace(" ", "")
    if t in ("", "0"):
        return ()
    parts = []
    for tok in t.split(","):
        try:
            parts.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad rational part {tok!r} in {text!r}") from None
    return tuple(parts)


def parse_subset(text: str, n: int) -> tuple[int, ...]:
    """A subset of {1..n} written as {2,5}; braces optional, {} is empty."""
    t = text.strip().replace(" ", "")
    if t.startswith("{") and t.endswith("}"):
        t = t[1:-1]
    if t == "":
        return ()
    elems = []
    for tok in t.split(","):
        if not _INT_TOKEN.fullmatch(tok):
            raise ValueError(f"bad subset element {tok!r} in {text!r}")
        elems.append(int(tok))
    zs = tuple(elems)
    check_subset(zs, n)
    return zs


def format_partition(p, length: int | None = None) -> str:
    """Comma-separated parts, zero-padded to a display length if given."""
    seq = tuple(p)
    if length is not None:
        seq = pad_to(seq, length)
    return ",".join(str(x) for x in seq)


def format_subset(s) -> str:
    return "{" + ",".join(str(z) for z in s) + "}"


def to_json(d: dict) -> str:
    """Stable byte-for-byte serialization: fixed key order, no whitespace."""
    return json.dumps(d, separators=(",", ":"))
