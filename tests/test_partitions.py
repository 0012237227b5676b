from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kleinhorn.partitions import (
    adjusted_conjugate,
    conjugate,
    contains,
    format_partition,
    format_subset,
    is_partition,
    is_weakly_decreasing,
    normalize,
    pad_add,
    pad_to,
    parse_int_parts,
    parse_partition,
    parse_rational_parts,
    parse_subset,
    partition_of_subset,
    partitions_in_box,
    partitions_of_size_in,
    scale,
    subpartitions,
    subsets_of_range,
)
from kleinhorn.quiver import SubsetTuple

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


@pytest.mark.parametrize("bad", [(0,), (4,), (2, 2), (3, 1)])
def test_subset_validators_agree_on_rejection(bad):
    n = 3
    with pytest.raises(ValueError):
        partition_of_subset(bad, n)
    with pytest.raises(ValueError):
        parse_subset(format_subset(bad), n)
    with pytest.raises(ValueError):
        SubsetTuple((bad,), n)


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


def test_pad_add_examples():
    assert pad_add((2, 1), (3,)) == (5, 1)
    assert pad_add((), (1, 1)) == (1, 1)
    assert pad_add((), ()) == ()


@given(
    st.lists(st.integers(-5, 5), max_size=6),
    st.lists(st.integers(-5, 5), max_size=6),
    st.lists(st.integers(-5, 5), max_size=6),
)
def test_pad_add_commutative_associative(a, b, c):
    a, b, c = tuple(a), tuple(b), tuple(c)
    assert pad_add(a, b) == pad_add(b, a)
    assert pad_add(pad_add(a, b), c) == pad_add(a, pad_add(b, c))


def test_scale():
    assert scale((3, 1), 2) == (6, 2)
    assert scale((3, 1), Fraction(1, 2)) == (Fraction(3, 2), Fraction(1, 2))
    assert scale((4, 2), Fraction(1, 2)) == (2, 1)
    with pytest.raises(ValueError):
        scale((1,), 0)
    with pytest.raises(ValueError):
        scale((1,), -2)


@given(partition_st, st.integers(1, 5))
def test_scale_by_integer_keeps_partition(p, r):
    assert is_partition(scale(p, r))


def test_contains():
    assert contains((3, 2), (2, 2))
    assert not contains((3, 2), (2, 2, 1))
    assert contains((3,), ())
    assert not contains((2,), (3,))


def test_enumerators_are_lex_sorted_and_complete():
    box = list(partitions_in_box(2, 2))
    assert box == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
    assert list(subpartitions((2, 1))) == [(), (1,), (1, 1), (2,), (2, 1)]
    assert list(partitions_of_size_in(2, (2, 1))) == [(1, 1), (2,)]
    assert list(partitions_of_size_in(0, (3,))) == [()]
    assert list(partitions_of_size_in(5, (2, 1))) == []


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
    assert parse_subset("{2,5}", 5) == (2, 5)
    assert parse_subset("{}", 3) == ()
    assert parse_subset("2,3", 3) == (2, 3)
    with pytest.raises(ValueError):
        parse_subset("{0}", 3)
    with pytest.raises(ValueError):
        parse_subset("{2,2}", 3)


def test_formatting():
    assert format_partition((3, 1)) == "3,1"
    assert format_partition(()) == ""
    assert format_partition((3, 1), length=4) == "3,1,0,0"
    assert format_subset((2, 5)) == "{2,5}"
    assert format_subset(()) == "{}"


@given(partition_st)
def test_parse_format_roundtrip(p):
    assert parse_partition(format_partition(p)) == normalize(p)
