from __future__ import annotations

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import kleinhorn
from kleinhorn import cone
from kleinhorn.partitions import (
    adjusted_conjugate,
    check_subset,
    conjugate,
    contains,
    format_partition,
    format_subset,
    is_partition,
    is_weakly_decreasing,
    normalize,
    pad_to,
    parse_int_parts,
    parse_partition,
    parse_rational_parts,
    parse_rational_rows,
    partition_of_subset,
    partitions_in_box,
    read_rows,
    scale_rows,
    subpartitions,
    subsets_of_range,
)
from kleinhorn.quiver import dimvector_of_subsets

partition_st = st.lists(st.integers(1, 9), max_size=8).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_normalize_strips_and_validates():
    assert normalize((3, 1, 0, 0)) == (3, 1)
    assert normalize(()) == ()
    assert normalize((0, 0)) == ()
    with pytest.raises(ValueError):
        normalize((1, 2))
    with pytest.raises(ValueError):
        normalize((1, -1))
    for parts in [(Fraction(3, 2),), (2.0, 1), (Fraction(2), 1), (True,)]:
        with pytest.raises(ValueError, match="not a partition"):
            normalize(parts)


def test_scale_rows():
    rows = [(3, 1), ()]
    out, scale = scale_rows(rows)
    assert out is rows and scale == 1
    assert scale_rows([(Fraction(3, 2), 1), (Fraction(1, 3),)]) == ([(9, 6), (2,)], 6)
    # a float is the binary fraction it holds; an integer value of another type scales by 1
    assert scale_rows([(0.5, 0.25)]) == ([(2, 1)], 4)
    assert scale_rows([(0.1,)]) == ([(3602879701896397,)], 36028797018963968)
    assert scale_rows([(Fraction(4, 2), 2.0, 1)]) == ([(2, 2, 1)], 1)
    assert all(type(x) is int for x in scale_rows([(Fraction(4, 2), 2.0)])[0][0])
    # any other part is named, not read as a number: Fraction(" 1000 ") is 1000
    for part in ("1", " 1000 ", "1e3", True, 1j, None, float("inf"), float("-inf"), float("nan")):
        for rows in ([(1,), (part,)], [(Fraction(1, 2),), (part, 0.5)]):
            with pytest.raises(ValueError) as err:
                scale_rows(rows)
            assert str(err.value) == f"part {part!r} is not an int, Fraction or finite float"


def test_read_rows():
    rows, scale = read_rows([(3, 1, 0, 0), (2,), ()], 2, 3)
    assert (rows, scale) == ([(3, 1), (2,), ()], 1)
    assert read_rows([(Fraction(1, 2), 0), (1,), [0.25]], 1, 3) == ([(2,), (4,), (1,)], 4)
    # order and sign are left to the caller
    assert read_rows([(1, 2), (-1,), (), ()], 2, 4) == ([(1, 2), (-1,), (), ()], 1)
    # the checks come in order: n, m, the row count, the parts, the width
    for lams, n, m, message in [
        ([(1, 1)], 0, 2, "need n >= 1, got 0"),
        ([(1, 1)], 1, 2, "need m >= 3, got 2"),
        ([(1, 1), ("1",)], 1, 3, "expected m = 3 rows, got 2"),
        ([(1, 1), ("1",), ()], 1, 3, "part '1' is not an int, Fraction or finite float"),
        ([(1,), (1, 0, 2), (1, 1)], 1, 3, "row 2 ('1,0,2') has more than n = 1 parts"),
    ]:
        with pytest.raises(ValueError) as err:
            read_rows(lams, n, m)
        assert str(err.value) == message


def _strings(node, func=None):
    """(innermost enclosing function, text) for each string literal but a docstring; a field of an f-string reads {}."""
    if isinstance(node, ast.FunctionDef):
        func = node.name
    if isinstance(node, ast.JoinedStr):
        yield func, "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
        return
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield func, node.value
    children = list(ast.iter_child_nodes(node))
    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node) is not None:
        children.remove(node.body[0])
    for child in children:
        yield from _strings(child, func)


def test_sizes_and_rows_are_checked_in_one_place():
    # a size message (need int x, need x >= k), a row-width or row-count
    # message or a refused part is written in check_size, read_rows or
    # scale_rows and nowhere else
    message = re.compile(r"need int |need \S+ >= |need at least |more than n = |longer than n = |rows, got |is not an int, ")
    found = set()
    for path in sorted(Path(kleinhorn.__file__).parent.glob("*.py")):
        for func, text in _strings(ast.parse(path.read_text())):
            if message.search(text):
                found.add((path.name, func, text))
    assert found == {
        ("partitions.py", "check_size", "need int {}, got {}"),
        ("partitions.py", "check_size", "need {} >= {}, got {}"),
        ("partitions.py", "read_rows", "expected m = {} rows, got {}"),
        ("partitions.py", "read_rows", "row {} ({}) has more than n = {} parts"),
        ("partitions.py", "scale_rows", "part {} is not an int, Fraction or finite float"),
    }
    assert not hasattr(cone, "_pad_rows")


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((5,)) == (1, 1, 1, 1, 1)
    assert conjugate((2, 2)) == (2, 2)


def test_conjugate_involution_exhaustive_box():
    # every partition with parts <= 12 and length <= 12
    count = 0
    for p in partitions_in_box(12, 12):
        count += 1
        q = conjugate(p)
        assert is_partition(q)
        assert sum(q) == sum(p)
        assert conjugate(q) == p
    assert count == 2704156  # binomial(24, 12)


def test_partition_of_subset_examples():
    assert partition_of_subset((1, 2, 3), 5) == ()
    assert partition_of_subset((2, 5), 5) == (3, 1)
    assert partition_of_subset((2,), 2) == (1,)
    assert partition_of_subset((), 4) == ()


def test_partition_of_subset_bounds_exhaustive():
    for n in range(1, 7):
        for s in subsets_of_range(n):
            p = partition_of_subset(s, n)
            assert len(p) <= len(s)
            assert all(x <= n - len(s) for x in p)


def test_partition_of_subset_rejects_bad_input():
    with pytest.raises(ValueError):
        partition_of_subset((2, 2), 4)
    with pytest.raises(ValueError):
        partition_of_subset((0, 1), 4)
    with pytest.raises(ValueError):
        partition_of_subset((5,), 4)
    with pytest.raises(ValueError, match="integers"):
        check_subset((1.5,), 2)


@pytest.mark.parametrize("bad", [(0,), (4,), (2, 2), (3, 1), (True,)])
def test_subset_validators_agree_on_rejection(bad):
    n = 3
    with pytest.raises(ValueError):
        partition_of_subset(bad, n)
    with pytest.raises(ValueError):
        dimvector_of_subsets((bad,), n, 0)


def test_adjusted_conjugate_branches():
    # even index never shifts
    sets = ((1,), (1, 2), (2,))
    assert adjusted_conjugate(sets, 2, 2) == pad_to(conjugate(partition_of_subset((1, 2), 2)), 0)
    # interior odd index shifts by |I_i| - |I_{i+1}| - |I_{i-1}|
    all_one = ((1,),) * 5
    assert adjusted_conjugate(all_one, 3, 2) == (1,)
    assert adjusted_conjugate(all_one, 1, 2) == (0,)
    assert adjusted_conjugate(all_one, 5, 2) == (0,)
    # full subset at interior odd index: empty padding length
    full_mid = ((1,), (1, 2), (1, 2), (1, 2), (1,))
    assert adjusted_conjugate(full_mid, 3, 2) == ()
    with pytest.raises(IndexError):
        adjusted_conjugate(all_one, 6, 2)


def test_adjusted_conjugate_always_weakly_decreasing():
    from itertools import product

    for n in (1, 2, 3):
        subs = subsets_of_range(n)
        for combo in product(subs, repeat=3):
            for i in (1, 2, 3):
                assert is_weakly_decreasing(adjusted_conjugate(combo, i, n))


def test_contains():
    assert contains((3, 2), (2, 2))
    assert not contains((3, 2), (2, 2, 1))
    assert contains((3,), ())
    assert not contains((2,), (3,))


def test_enumerators_are_lex_sorted_and_complete():
    box = list(partitions_in_box(2, 2))
    assert box == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
    assert list(subpartitions((2, 1))) == [(), (1,), (1, 1), (2,), (2, 1)]


@given(st.integers(1, 4), st.integers(1, 4))
def test_box_enumeration_matches_filter(max_len, max_part):
    box = list(partitions_in_box(max_len, max_part))
    assert len(set(box)) == len(box)
    assert box == sorted(box)
    for p in box:
        assert is_partition(p) and len(p) <= max_len
        assert all(x <= max_part for x in p)


def test_subsets_of_range():
    assert subsets_of_range(2) == ((), (1,), (1, 2), (2,))
    assert len(subsets_of_range(4)) == 16


def test_parsing():
    assert parse_partition("3,1") == (3, 1)
    assert parse_partition("") == ()
    assert parse_partition("0") == ()
    assert parse_partition("3, 1") == (3, 1)
    assert parse_int_parts("4,0,0") == (4, 0, 0)
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("a,1")
    assert parse_rational_parts("3/2,1") == (Fraction(3, 2), Fraction(1))
    with pytest.raises(ValueError):
        parse_rational_parts("1/0")


def _read(parse, text):
    """A reader's rows with each part's type, or the text of the ValueError it raised."""
    try:
        rows = parse(text)
    except ValueError as e:
        return str(e)
    return [[(type(x), x) for x in row] for row in rows]


# digits, commas and semicolons alone take the reader's integer path
ROWS_TEXT = st.one_of(
    st.text(alphabet="0123456789+-/,; \t", max_size=30),
    st.text(alphabet="0123456789,;", max_size=30),
    st.text(alphabet="0123456789;", max_size=30),
)


@settings(max_examples=1000)
@given(ROWS_TEXT)
@example("3;;1")
@example("1,,2;3")
@example("7;1/0;1,2,")
@example("1" * 4301 + ";2")
def test_rows_reader_matches_per_row_parser(text):
    def per_row(t):
        return tuple(parse_rational_parts(chunk) for chunk in t.split(";"))

    assert _read(parse_rational_rows, text) == _read(per_row, text)


def test_formatting():
    assert format_partition((3, 1)) == "3,1"
    assert format_partition(()) == ""
    assert format_subset((2, 5)) == "{2,5}"
    assert format_subset(()) == "{}"


@given(partition_st)
def test_parse_format_roundtrip(p):
    assert parse_partition(format_partition(p)) == normalize(p)
