from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kleinhorn.cone import (
    UnsupportedLengthError,
    horn_index_set,
    inequality_system,
    interior_point,
    member_cone,
    member_single_row,
)
from kleinhorn.partitions import pad_add, partitions_in_box, scale

GOLDEN = Path(__file__).parent / "golden"

S23 = {((), (), ()), ((1,), (1,), (1,)), ((1,), (2,), (2,)), ((2,), (2,), (1,))}


def test_horn_index_set_trivial_for_n1_m3():
    assert [hi.subsets.sets for hi in horn_index_set(1, 3)] == [((), (), ())]


def test_horn_index_set_n2_m3_frozen():
    got = [hi.subsets.sets for hi in horn_index_set(2, 3)]
    assert len(got) == 4
    assert set(got) == S23
    # canonical order: lexicographic in the subset tuples
    assert got == sorted(got)


def test_horn_index_set_n3_m3_frozen():
    got = {hi.subsets.sets for hi in horn_index_set(3, 3)}
    singles = {
        ((1,), (1,), (1,)),
        ((1,), (2,), (2,)),
        ((2,), (2,), (1,)),
        ((1,), (3,), (3,)),
        ((3,), (3,), (1,)),
        ((2,), (3,), (2,)),
    }
    doubles = {
        ((1, 2), (1, 2), (1, 2)),
        ((1, 2), (1, 3), (1, 3)),
        ((1, 3), (1, 3), (1, 2)),
        ((1, 2), (2, 3), (2, 3)),
        ((2, 3), (2, 3), (1, 2)),
        ((1, 3), (2, 3), (1, 3)),
    }
    assert got == {((), (), ())} | singles | doubles


def test_horn_index_set_n1_m5_frozen():
    got = {hi.subsets.sets for hi in horn_index_set(1, 5)}
    assert got == {
        ((),) * 5,
        ((), (), (1,), (), ()),
        ((), (), (1,), (1,), (1,)),
        ((1,), (1,), (1,), (), ()),
    }


def test_horn_index_set_equal_edge_cardinalities():
    for hi in horn_index_set(2, 5):
        sets = hi.subsets.sets
        assert len(sets[0]) == len(sets[1])
        assert len(sets[3]) == len(sets[4])
        assert any(len(s) < 2 for s in sets)


def test_horn_index_set_rejects_even_or_tiny_m():
    with pytest.raises(UnsupportedLengthError):
        horn_index_set(2, 4)
    with pytest.raises(UnsupportedLengthError):
        horn_index_set(1, 2)
    with pytest.raises(ValueError):
        horn_index_set(0, 3)


def test_inequality_system_n1_m3_coefficients():
    system = inequality_system(1, 3)
    mats = [(iq.origin, iq.coeffs) for iq in system.inequalities]
    assert ("trace", ((-1,), (1,), (-1,))) in mats
    origins = [iq.origin for iq in system.inequalities]
    assert origins.count("horn") == 0  # only the all-empty tuple, suppressed
    assert origins.count("nonneg") == 3
    assert origins.count("monotone") == 0
    assert system.suppressed_trivial == 1


def test_inequality_system_n2_m3_coefficients():
    system = inequality_system(2, 3)
    horn = [iq for iq in system.inequalities if iq.origin == "horn"]
    assert [iq.subsets for iq in horn] == [
        ((1,), (1,), (1,)),
        ((1,), (2,), (2,)),
        ((2,), (2,), (1,)),
    ]
    assert horn[0].coeffs == ((-1, 0), (1, 0), (-1, 0))
    assert horn[1].coeffs == ((-1, 0), (0, 1), (0, -1))
    assert horn[2].coeffs == ((0, -1), (0, 1), (-1, 0))
    trace = [iq for iq in system.inequalities if iq.origin == "trace"]
    assert len(trace) == 1 and trace[0].coeffs == ((-1, -1), (1, 1), (-1, -1))
    assert [iq.origin for iq in system.inequalities].count("monotone") == 3
    assert system.suppressed_trivial == 1


def test_system_levels_nest():
    # the level-1 block of the 5-row system is the 3-row system shifted by one row
    for n in (1, 2):
        outer = inequality_system(n, 5)
        inner = inequality_system(n, 3)
        lvl1 = [iq for iq in outer.inequalities if iq.level == 1]
        base = [iq for iq in inner.inequalities if iq.origin in ("trace", "horn")]
        assert len(lvl1) == len(base)
        for got, src in zip(lvl1, base):
            assert got.origin == src.origin
            assert got.subsets == src.subsets
            assert got.coeffs == ((0,) * n,) + src.coeffs + ((0,) * n,)


def test_inequality_system_rejects_even_m():
    with pytest.raises(UnsupportedLengthError):
        inequality_system(1, 4)


def test_member_cone_examples():
    assert member_cone([(1,), (2,), (1,)], 1, 3).member
    verdict = member_cone([(1,), (3,), (1,)], 1, 3)
    assert not verdict.member
    assert verdict.certificate.origin == "trace"
    assert verdict.certificate.value([(1,), (3,), (1,)]) == 1
    assert member_cone([(), (), ()], 1, 3).member
    assert member_cone([(2, 1), (2, 1), (), (), ()], 2, 5).member


def test_member_cone_domain_certificates():
    bad_rows = member_cone([(0, 1), (1, 1), (1, 0)], 2, 3)
    assert not bad_rows.member
    assert bad_rows.certificate.origin == "monotone"
    neg = member_cone([(0, -1), (), ()], 2, 3)
    assert not neg.member
    assert neg.certificate.origin == "nonneg"


def test_member_cone_certificate_is_strictly_positive():
    grid = list(partitions_in_box(2, 2))
    for lams in product(grid, repeat=3):
        verdict = member_cone(lams, 2, 3)
        if not verdict.member:
            assert verdict.certificate.value(lams) > 0


def test_member_cone_rejects_bad_shapes():
    with pytest.raises(ValueError):
        member_cone([(1,), (1,)], 1, 3)
    with pytest.raises(ValueError):
        member_cone([(1, 1), (1,), (1,)], 1, 3)
    with pytest.raises(UnsupportedLengthError):
        member_cone([(1,), (1,), (1,), (1,)], 1, 4)


def test_member_single_row_examples():
    assert member_single_row([3, 3, 1, 2]).member
    assert member_single_row([0, 0, 0]).member
    v = member_single_row([1, 3, 1])
    assert not v.member and v.certificate.origin == "alt" and v.certificate.position == (1, 3)
    assert member_single_row([(1,), (), (2,)]).member  # rows are accepted too
    v = member_single_row([(1,), (3,), (1,)])
    assert not v.member and v.certificate.position == (1, 3)


def test_member_single_row_matches_cone_small():
    for m in (3, 5):
        for vals in product(range(4), repeat=m):
            rows = [(v,) if v else () for v in vals]
            assert member_single_row(vals, m).member == member_cone(rows, 1, m).member


def test_member_single_row_certificate_positive():
    for m in (3, 4, 5):
        for vals in product(range(3), repeat=m):
            v = member_single_row(list(vals), m)
            if not v.member:
                assert v.certificate.value([(x,) for x in vals]) > 0


def test_member_single_row_rejects_wide_rows():
    with pytest.raises(ValueError):
        member_single_row([(1, 1), (1,), (1,)])


@settings(max_examples=40)
@given(st.data())
def test_members_closed_under_sum_and_scaling(data):
    grid = [lams for lams in product(list(partitions_in_box(2, 2)), repeat=3)
            if member_cone(lams, 2, 3).member]
    a = data.draw(st.sampled_from(grid))
    b = data.draw(st.sampled_from(grid))
    summed = tuple(pad_add(x, y) for x, y in zip(a, b))
    assert member_cone(summed, 2, 3).member
    r = data.draw(st.integers(1, 5))
    assert member_cone([scale(x, r) for x in a], 2, 3).member
    half = [scale(x, Fraction(1, 2)) for x in a]
    assert member_cone(half, 2, 3).member


def test_interior_points_are_strict():
    for n, m in [(1, 3), (2, 3), (1, 5), (2, 5)]:
        point = interior_point(n, m)
        system = inequality_system(n, m)
        assert all(iq.value(point) < 0 for iq in system.inequalities)
        for row in point:
            assert all(x > y for x, y in zip(row, row[1:]))
            assert row[-1] > 0


def test_ineqs_json_golden():
    for n, m in [(1, 3), (2, 3), (2, 5)]:
        got = inequality_system(n, m).to_json()
        expect = (GOLDEN / f"ineqs_n{n}_m{m}.json").read_text().strip()
        assert got == expect


def test_ineqs_json_shape():
    payload = json.loads(inequality_system(2, 3).to_json())
    assert payload["n"] == 2 and payload["m"] == 3
    assert payload["suppressed_trivial"] == 1
    horn = [iq for iq in payload["inequalities"] if iq["origin"] == "horn"]
    assert [iq["subsets"] for iq in horn] == [[[1], [1], [1]], [[1], [2], [2]], [[2], [2], [1]]]
    for iq in payload["inequalities"]:
        assert set(iq) == {"origin", "level", "subsets", "position", "coeffs"}
        assert len(iq["coeffs"]) == 3 and all(len(r) == 2 for r in iq["coeffs"])
