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
from itertools import chain, combinations
from math import isfinite, lcm
from operator import le

Partition = tuple[int, ...]
IntSeq = tuple[int, ...]

_PART = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def is_partition(seq) -> bool:
    """True iff no entry of seq exceeds the one before it and the last, if any, is nonnegative.

    One pass over seq, which may be any iterable; the entries are not
    checked for type.
    """
    prev = None
    for x in seq:
        if prev is not None and prev < x:
            return False
        prev = x
    return prev is None or prev >= 0


def normalize(seq) -> Partition:
    """Canonical form: validate int parts, weak decrease and nonnegativity, strip trailing zeros."""
    parts = tuple(seq)
    if not {int}.issuperset(map(type, parts)) or not is_partition(parts):
        raise ValueError(f"not a partition: {parts!r}")
    return parts[: len(parts) - parts.count(0)]  # zeros come last in a partition


def check_size(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an int (not a bool or another number type) and value >= least."""
    if type(value) is not int:
        raise ValueError(f"need int {name}, got {value!r}")
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")


def read_rows(lams, n: int, m: int):
    """The m rows of lams as ints of at most n parts each: (rows, scale).

    Checks n >= 1, m >= 3 and the row count, in that order, then reads the
    rows through scale_rows.  A zero part past the n-th is dropped; any other
    part past it is refused, for the first such row, with the row as given.
    rows is a new list of tuples; order and sign are left to the caller.
    """
    check_size("n", n, 1)
    check_size("m", m, 3)
    if len(lams) != m:
        raise ValueError(f"expected m = {m} rows, got {len(lams)}")
    rows, scale = scale_rows(list(map(tuple, lams)))
    if max(map(len, rows)) > n:
        for k, row in enumerate(rows):
            if any(row[n:]):
                given = format_partition(Fraction(x, scale) for x in row)
                raise ValueError(f"row {k + 1} ({given!r}) has more than n = {n} parts")
            rows[k] = row[:n]
    return rows, scale


def clear_denominators(lams, n: int) -> tuple[list[Partition], int]:
    """The rows of lams as canonical partitions of at most n parts: (partitions, scale).

    read_rows with m = len(lams), so n, m, the parts and the widths are
    checked as it checks them, and scale clears every denominator.  Then
    each row must be weakly decreasing and nonnegative, which a positive
    scale leaves as it was given; the first row that is not is refused,
    shown as given.  The same pass strips each row's trailing zeros.
    """
    rows, scale = read_rows(lams, n, len(lams))
    for k, row in enumerate(rows):
        if not is_partition(row):
            given = format_partition(Fraction(x, scale) for x in row)
            raise ValueError(f"row {k + 1} ({given!r}) is not weakly decreasing and nonnegative")
        if row and not row[-1]:  # zeros come last in a partition
            rows[k] = row[: len(row) - row.count(0)]
    return rows, scale


def scale_rows(rows):
    """Rows of rational parts as rows of ints: (rows, scale).

    Every part must be an int, a Fraction or a finite float; any other part,
    a bool, a str, an infinity or a NaN included, raises ValueError naming
    it.  Int parts are kept as they are and every other part is read exactly
    as a Fraction, a float as the binary fraction it holds; each part is then
    multiplied by scale, the least common multiple of the denominators.  When every part is an int,
    rows come back unchanged with scale 1.
    """
    if {int}.issuperset(map(type, chain.from_iterable(rows))):
        return rows, 1
    for x in chain.from_iterable(rows):
        if type(x) not in (int, Fraction, float) or type(x) is float and not isfinite(x):
            raise ValueError(f"part {x!r} is not an int, Fraction or finite float")
    rows = [tuple(x if type(x) is int or type(x) is Fraction else Fraction(x) for x in row) for row in rows]
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [tuple(x.numerator * (scale // x.denominator) for x in row) for row in rows], scale


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram; column c has height #{j : p_j > c}."""
    cols: list[int] = []
    k = len(p)  # height of the current column: rows 1..k reach past it
    for c in range(p[0] if p else 0):
        while p[k - 1] <= c:
            k -= 1
        cols.append(k)
    return tuple(cols)


def contains(outer, inner) -> bool:
    """Diagram containment, row by row (both arguments canonical partitions)."""
    return len(inner) <= len(outer) and all(map(le, inner, outer))


def check_subset(zs: tuple, n: int) -> None:
    """Raise ValueError unless zs is a strictly increasing tuple of integers in 1..n."""
    prev = 0
    for z in zs:
        if type(z) is not int:
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
    # the partition fits in a |s| x (n - |s|) box, so its conjugate has at most n - |s| parts
    base = conjugate(partition_of_subset(s, n))
    base += (0,) * (n - len(s) - len(base))
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
    """All partitions contained in p, lex ascending (the empty partition first).

    A preorder walk that keeps the current partition as a list: append a part
    of 1 when one fits, otherwise drop the trailing parts already at their
    bound (p's part and the part above) and raise the last one left.  No
    recursion, so p may have any number of parts.
    """
    cur: list[int] = []
    yield ()
    while True:
        if len(cur) < len(p) and p[len(cur)] >= 1:
            cur.append(1)
        else:
            while cur and cur[-1] >= min(p[len(cur) - 1], cur[-2] if len(cur) > 1 else p[0]):
                cur.pop()
            if not cur:
                return
            cur[-1] += 1
        yield tuple(cur)


def parse_rational_parts(text: str) -> tuple[int | Fraction, ...]:
    """Comma-separated parts, each an optional sign, ASCII digits and an optional /q, q > 0.

    An integer part reads as an int and a p/q part as a Fraction; spaces are
    ignored and '' is the empty sequence.
    """
    t = text.strip().replace(" ", "")
    if not t:
        return ()
    parts = []
    for tok in t.split(","):
        match = _PART.fullmatch(tok)
        if match is None:
            raise ValueError(f"bad rational part {tok!r} in {text!r}")
        p, q = match.groups()
        parts.append(int(p) if q is None else Fraction(int(p), int(q)))
    return tuple(parts)


def parse_rational_rows(text: str) -> tuple[tuple[int | Fraction, ...], ...]:
    """Semicolon-separated rows, each read as parse_rational_parts reads it.

    A text of ASCII digits, commas and semicolons alone holds only unsigned
    integer parts, which int reads exactly as the grammar does, so such a
    text is split and converted with no match per part, and a text whose
    rows each hold one part is converted in one pass.  Any other text, or
    one with an empty part, is read row by row by parse_rational_parts,
    which raises for the first bad part.
    """
    chunks = text.split(";")
    digits = text.replace(",", "").replace(";", "")
    if digits.isascii() and digits.isdigit():
        try:
            if "," in text or "" in chunks:
                return tuple(tuple(map(int, chunk.split(","))) if chunk else () for chunk in chunks)
            return tuple(zip(map(int, chunks)))
        except ValueError:  # an empty part, or more digits than int reads
            pass
    return tuple(map(parse_rational_parts, chunks))


def parse_int_parts(text: str) -> tuple[int, ...]:
    """parse_rational_parts, where every part must have an integer value."""
    parts = parse_rational_parts(text)
    for x in parts:
        if x.denominator != 1:
            raise ValueError(f"part {x} of {text!r} is not an integer")
    return tuple(x.numerator for x in parts)


def parse_partition(text: str) -> Partition:
    return normalize(parse_int_parts(text))


def format_partition(p) -> str:
    return ",".join(str(x) for x in p)


def format_subset(s) -> str:
    return "{" + ",".join(str(z) for z in s) + "}"


def to_json(d: object) -> str:
    """Stable byte-for-byte serialization: fixed key order, no whitespace.

    Tuples and lists are both written as arrays.  Every payload is a tree the
    caller builds, so the encoder's cycle check is off.  A value shared within
    a payload is encoded at each use; cone.system_json instead encodes each
    subset and indicator row once here and joins those texts row by row.
    """
    return json.dumps(d, separators=(",", ":"), check_circular=False)
