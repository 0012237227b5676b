from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from kleinhorn.cone import member_cone
from kleinhorn.oracle import (
    chain_is_valid,
    cross_check,
    rational_member,
    witness_chain,
    witness_search,
)
from kleinhorn.partitions import pad_add, partitions_in_box


def test_witness_frozen_examples():
    # the middle row alone can never exceed what its neighbours absorb
    assert witness_chain([(1,), (3,), (1,)], 1) is None
    chain = witness_chain([(1,), (2,), (1,)], 1)
    assert chain is not None and chain.mus == ((), (1,), (1,), ())
    chain = witness_chain([(3,), (3,), (1,), (2,)], 1)
    assert chain is not None and chain.mus == ((), (3,), (), (1,), (1,))
    # a pair of equal adjacent rows cancels outright
    chain = witness_chain([(2, 1), (2, 1), (), (), ()], 2)
    assert chain is not None and chain.mus == ((), (2, 1), (), (), (), ())


def test_witness_trivial_tuple():
    chain = witness_chain([(), (), ()], 1)
    assert chain is not None and chain.mus == ((), (), (), ())


def test_witness_chains_are_valid():
    grid = list(partitions_in_box(2, 2))
    found = 0
    for lams in product(grid, repeat=3):
        out = witness_search(lams, 2)
        assert out.explored >= 1
        if out.chain is not None:
            found += 1
            assert chain_is_valid(out.chain, lams)
    assert found > 0


def test_witness_chain_is_canonical_smallest():
    out1 = witness_search([(2,), (2,), (2,), (2,), ()], 1)
    out2 = witness_search([(2,), (2,), (2,), (2,), ()], 1)
    assert out1.chain == out2.chain
    assert chain_is_valid(out1.chain, [(2,), (2,), (2,), (2,), ()])


def test_chain_is_valid_rejects_wrong_shapes():
    chain = witness_chain([(1,), (2,), (1,)], 1)
    assert not chain_is_valid(chain, [(1,), (2,), (2,)])


def test_witness_rejects_bad_input():
    with pytest.raises(ValueError):
        witness_search([(1, 1), (1,), (1,)], 1)
    with pytest.raises(ValueError):
        witness_search([(1,), (1,)], 1)
    with pytest.raises(ValueError):
        witness_search([(1,), (-1,), (1,)], 1)


def test_saturation_on_small_grid():
    grid = list(partitions_in_box(1, 3))
    for lams in product(grid, repeat=3):
        once = witness_chain(lams, 1) is not None
        twice = witness_chain([pad_add(p, p) for p in lams], 1) is not None
        assert once == twice


def test_members_add():
    grid = [lams for lams in product(list(partitions_in_box(2, 2)), repeat=3)
            if witness_chain(lams, 2) is not None]
    for a, b in zip(grid[::7], grid[1::7]):
        summed = [pad_add(x, y) for x, y in zip(a, b)]
        assert witness_chain(summed, 2) is not None


def test_rational_member_scales():
    assert rational_member([(Fraction(1, 2),), (1,), (Fraction(1, 2),)], 1)
    assert not rational_member([(Fraction(1, 2),), (Fraction(3, 2),), (Fraction(1, 2),)], 1)
    assert rational_member([(Fraction(2, 3), Fraction(1, 3)), (Fraction(2, 3), Fraction(1, 3)),
                            (), (), ()], 2)
    # integral input goes through unchanged
    assert rational_member([(1,), (2,), (1,)], 1)


def test_rational_member_rejects_non_rows():
    with pytest.raises(ValueError):
        rational_member([(Fraction(1, 2), 1), (1,), (1,)], 1)
    with pytest.raises(ValueError):
        rational_member([(Fraction(-1, 2),), (), ()], 1)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=3, max_size=3),
    st.integers(1, 4),
)
def test_rational_scaling_invariance(vals, q):
    vals = sorted(vals, reverse=True)
    rows = [(v,) if v else () for v in vals]
    scaled = [(Fraction(v, q),) if v else () for v in vals]
    assert rational_member(scaled, 1) == (witness_chain(rows, 1) is not None)


def test_cross_check_clean_grids():
    for n, m, bound in [(1, 3, 3), (2, 3, 2), (1, 5, 2), (1, 4, 3)]:
        report = cross_check(n, m, bound)
        assert report.clean, report.disagreements
        assert report.total == (len(list(partitions_in_box(n, bound)))) ** m
        assert set(report.routes) <= {"inequality", "single-row"} and report.routes


def test_cross_check_routes_by_case():
    assert cross_check(2, 3, 1).routes == ("inequality",)
    assert cross_check(1, 4, 1).routes == ("single-row",)
    assert cross_check(1, 3, 1).routes == ("inequality", "single-row")


def test_cross_check_even_m_wide_rows_unroutable():
    from kleinhorn.cone import UnsupportedLengthError

    with pytest.raises(UnsupportedLengthError):
        cross_check(2, 4, 2)


def test_oracle_matches_cone_on_mixed_grid():
    grid = list(partitions_in_box(2, 3))
    hits = 0
    for lams in product(grid, repeat=3):
        want = member_cone(lams, 2, 3).member
        got = witness_chain(lams, 2) is not None
        assert want == got
        hits += got
    assert 0 < hits < len(grid) ** 3
