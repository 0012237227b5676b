from __future__ import annotations

import copy
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product, zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import (
    horn_index_set_by_dfs,
    horn_index_set_by_filter,
    member_cone_by_value,
    member_single_row_by_windows,
)
from kleinhorn import cone
from kleinhorn.cone import (
    UnsupportedLengthError,
    horn_index_set,
    inequality_system,
    interior_point,
    member_cone,
    member_single_row,
    system_json,
    system_rows,
)
from kleinhorn.oracle import rational_member, witness_search
from kleinhorn.partitions import is_partition, partitions_in_box, to_json

GOLDEN = Path(__file__).parent / "golden"

S23 = {((), (), ()), ((1,), (1,), (1,)), ((1,), (2,), (2,)), ((2,), (2,), (1,))}


def test_horn_index_set_trivial_for_n1_m3():
    assert list(horn_index_set(1, 3)) == [((), (), ())]


def test_horn_index_set_n2_m3_frozen():
    got = list(horn_index_set(2, 3))
    assert len(got) == 4
    assert set(got) == S23
    # canonical order: lexicographic in the subset tuples
    assert got == sorted(got)


def test_horn_index_set_n3_m3_frozen():
    got = set(horn_index_set(3, 3))
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
    got = set(horn_index_set(1, 5))
    assert got == {
        ((),) * 5,
        ((), (), (1,), (), ()),
        ((), (), (1,), (1,), (1,)),
        ((1,), (1,), (1,), (), ()),
    }


def test_horn_index_set_equal_edge_cardinalities():
    for sets in horn_index_set(2, 5):
        assert len(sets[0]) == len(sets[1])
        assert len(sets[3]) == len(sets[4])
        assert any(len(s) < 2 for s in sets)


@pytest.mark.parametrize(
    "n,m", [(1, 3), (1, 5), (1, 7), (1, 9), (2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (4, 3), (5, 3)]
)
def test_horn_index_set_matches_bruteforce_filter(n, m):
    # same tuples in the same order as the filter over every subset tuple
    assert horn_index_set(n, m) == horn_index_set_by_filter(n, m)


@pytest.mark.parametrize("n,m", [(4, 5), (2, 9), (3, 7), (5, 5), (2, 11), (4, 7)])
def test_horn_index_set_matches_dfs(n, m):
    # same tuples in the same order as the search over all m positions, at
    # shapes the filter cannot reach; (4,7) has half states of weight 2
    assert horn_index_set(n, m) == horn_index_set_by_dfs(n, m)


@pytest.mark.parametrize(
    "n,m", [(2, 3), (3, 3), (3, 5), (4, 5), (5, 5), (2, 7), (3, 7), (2, 9), (1, 9)]
)
def test_horn_index_set_closed_under_reversal(n, m):
    found = set(horn_index_set(n, m))
    assert {sets[::-1] for sets in found} == found


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in (3, 5, 7)] + [(1, 9), (2, 9)])
def test_horn_index_set_starts_with_all_empty_tuple(n, m):
    # the tuple whose window is zero, which inequality_system skips at every level
    assert horn_index_set(n, m)[0] == ((),) * m


@pytest.mark.parametrize("n,m", [(1, 9), (2, 9), (3, 7), (4, 5), (5, 3), (5, 5)])
def test_horn_levels_match_dfs_at_every_level(n, m):
    # one search files the halves of every level; level k is the (n, m - 2k)
    # index set without its first tuple, the all-empty one
    levels = cone._horn_levels(n, m)
    assert len(levels) == (m - 1) // 2
    for k, level in enumerate(levels):
        assert tuple(left + tail for left, tails in level for tail in tails) == horn_index_set_by_dfs(n, m - 2 * k)[1:]
        assert all(any(left + tail) for left, tails in level for tail in tails)  # no all-empty tuple


@pytest.mark.parametrize("n,m", [(2, 5), (1, 5)])
def test_readers_leave_horn_levels_as_built(monkeypatch, n, m):
    # every reader only reads the levels; at (1, 5) the window-3 level is empty
    built = []
    build = cone._horn_levels

    def kept(n, m):
        levels = build(n, m)
        built.append((levels, copy.deepcopy(levels)))
        return levels

    monkeypatch.setattr(cone, "_horn_levels", kept)
    for _ in system_rows(n, m):
        pass
    "".join(system_json(n, m))
    cone._level_masks.cache_clear()
    cone._level_masks(n, m)
    cone._level_masks.cache_clear()
    horn_index_set(n, m)
    assert len(built) == 4
    for levels, as_built in built:
        assert levels == as_built


# one chain walk per distinct rows of a body, at every level (its state), and
# one centre listing per group of equal states and centre row that meets a
# partner group, for the one search horn_index_set reads its first level from,
# made on every call
@pytest.mark.parametrize(
    "n,m,walks,listings", [(4, 5, 38, 186), (2, 9, 36, 26), (3, 7, 175, 55), (3, 5, 13, 45)]
)
def test_horn_index_set_chain_walks(monkeypatch, n, m, walks, listings):
    calls = Counter()

    def counted(name):
        work = getattr(cone, name)

        def call(*args):
            calls[name] += 1
            return work(*args)

        return call

    for name in ("_chain_state", "_chain_step"):
        monkeypatch.setattr(cone, name, counted(name))
    horn_index_set(n, m)
    assert calls == {"_chain_state": walks, "_chain_step": listings}


def test_horn_index_set_rejects_even_or_tiny_m():
    with pytest.raises(UnsupportedLengthError):
        horn_index_set(2, 4)
    # m < 3 is a usage error, not an unsupported length: no route covers it
    with pytest.raises(ValueError, match="need m >= 3, got 2") as caught:
        horn_index_set(1, 2)
    assert not isinstance(caught.value, UnsupportedLengthError)
    with pytest.raises(ValueError):
        horn_index_set(0, 3)
    # m is checked before the all-empty tuple ((),) * m is built
    with pytest.raises(UnsupportedLengthError):
        horn_index_set(2, 10**20)


def test_inequality_system_n1_m3_coefficients():
    system = inequality_system(1, 3)
    mats = [(iq.origin, iq.coeffs) for iq in system]
    assert ("trace", ((-1,), (1,), (-1,))) in mats
    origins = [iq.origin for iq in system]
    assert origins.count("horn") == 0  # only the all-empty tuple, suppressed
    assert origins.count("nonneg") == 3
    assert origins.count("monotone") == 0
    assert len(system) == 4


def test_inequality_system_n2_m3_coefficients():
    system = inequality_system(2, 3)
    horn = [iq for iq in system if iq.origin == "horn"]
    assert [iq.subsets for iq in horn] == [
        ((1,), (1,), (1,)),
        ((1,), (2,), (2,)),
        ((2,), (2,), (1,)),
    ]
    assert horn[0].coeffs == ((-1, 0), (1, 0), (-1, 0))
    assert horn[1].coeffs == ((-1, 0), (0, 1), (0, -1))
    assert horn[2].coeffs == ((0, -1), (0, 1), (-1, 0))
    trace = [iq for iq in system if iq.origin == "trace"]
    assert len(trace) == 1 and trace[0].coeffs == ((-1, -1), (1, 1), (-1, -1))
    assert [iq.origin for iq in system].count("monotone") == 3
    assert len(system) == 10


def test_system_levels_nest():
    # the level-1 block of the 5-row system is the 3-row system shifted by one row
    for n in (1, 2):
        outer = inequality_system(n, 5)
        inner = inequality_system(n, 3)
        lvl1 = [iq for iq in outer if iq.level == 1]
        base = [iq for iq in inner if iq.origin in ("trace", "horn")]
        assert len(lvl1) == len(base)
        for got, src in zip(lvl1, base):
            assert got.origin == src.origin
            assert got.subsets == src.subsets
            assert got.coeffs == ((0,) * n,) + src.coeffs + ((0,) * n,)


@pytest.mark.parametrize("n,m", [(1, 9), (4, 5), (2, 9)])
def test_equal_coefficient_rows_are_one_object(n, m):
    rows = [row for iq in inequality_system(n, m) for row in iq.coeffs]
    assert len({id(r) for r in rows}) == len(set(rows))


@pytest.mark.parametrize("n,m", [(2, 5), (3, 5), (2, 7), (1, 9), (4, 5), (2, 9)])
def test_suppressed_trivial_is_one_per_level(n, m):
    levels = (m - 1) // 2
    horn = [iq for iq in inequality_system(n, m) if iq.origin == "horn"]
    listed = sum(len(horn_index_set(n, length)) for length in range(3, m + 1, 2))
    assert len(horn) == listed - levels
    assert all(any(map(any, iq.coeffs)) for iq in horn)
    assert json.loads("".join(system_json(n, m)))["suppressed_trivial"] == levels


@pytest.mark.parametrize("n,m", [(1, 3), (2, 5), (3, 5), (1, 9)])
def test_inequality_system_is_system_rows(n, m):
    assert inequality_system(n, m) == tuple(system_rows(n, m))


def test_inequality_system_rejects_even_m():
    with pytest.raises(UnsupportedLengthError):
        inequality_system(1, 4)
    # the checks are horn_index_set's, with its messages and in its order
    for n, m, message in ((0, 3, "need n >= 1, got 0"), (0, 4, "need n >= 1, got 0"),
                          (2, 1, "need m >= 3, got 1"), (2, 2, "need m >= 3, got 2")):
        with pytest.raises(ValueError) as caught:
            inequality_system(n, m)
        assert str(caught.value) == message
        assert not isinstance(caught.value, UnsupportedLengthError)


def test_index_set_refuses_non_int_n_or_m_cold_and_warm():
    # an equal float, bool or Fraction is refused on a cleared cache and after the
    # int call alike: horn_index_set keeps no memo, inequality_system's is typed,
    # and member_cone checks its sizes before _level_masks' memo
    def decide(n, m):
        return member_cone([(1,), (2,), (1,)], n, m)

    for fn, clear in ((horn_index_set, lambda: None), (inequality_system, inequality_system.cache_clear),
                      (decide, cone._level_masks.cache_clear)):
        for n, m, message in ((2.0, 3, "need int n, got 2.0"), (2, 3.0, "need int m, got 3.0"),
                              (True, 3, "need int n, got True"), (1, Fraction(3), "need int m, got Fraction(3, 1)")):
            for warm_up in (False, True):
                clear()
                if warm_up:
                    fn(int(n), int(m))
                with pytest.raises(ValueError) as caught:
                    fn(n, m)
                assert str(caught.value) == message


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


@pytest.mark.parametrize(
    "n,lams",
    [
        (2, [(2, 1, 0), (2, 1), (1,)]),
        (2, [(0, 0, 0), (1, 1, 0), (2, 0)]),  # a non-member, as ";1,1;2"
        (1, [(1, 0), (3, 0, 0), (1,)]),  # a non-member
        (1, [(1, 0), (2,), (1, 0, 0)]),
    ],
)
def test_zero_parts_past_n_are_read_as_absent(n, lams):
    # trailing zeros are no parts: every route reads the row as its first n parts
    trimmed = [lam[:n] for lam in lams]
    assert member_cone(lams, n, 3) == member_cone(trimmed, n, 3)
    if n == 1:
        assert member_single_row(lams, 3) == member_single_row(trimmed, 3)
    truth = member_cone(trimmed, n, 3).member
    assert (witness_search(lams, n).chain is not None) == truth
    assert rational_member(lams, n) == truth


def test_member_cone_rejects_bad_shapes():
    with pytest.raises(ValueError):
        member_cone([(1,), (1,)], 1, 3)
    with pytest.raises(ValueError):
        member_cone([(1, 1), (1,), (1,)], 1, 3)
    with pytest.raises(UnsupportedLengthError):
        member_cone([(1,), (1,), (1,), (1,)], 1, 4)


def _random_tuple(rng: random.Random, n: int, m: int, kind: str):
    """m rows of width <= n: integer partitions, except as kind says."""

    def row(den: int = 1):
        parts = sorted((rng.randint(0, 4 * den) for _ in range(n)), reverse=True)
        if den == 1:
            return tuple(p for p in parts if p)
        return tuple(Fraction(p, den) for p in parts)

    if kind == "integer":
        return [row() for _ in range(m)]
    if kind == "small denominators":
        return [row(rng.choice((1, 2, 3, 6))) for _ in range(m)]
    if kind == "boundary":
        # row i is mu(i-1) + mu(i) or their union, for a chain mu of small
        # partitions, about half of them empty: a member, often on a facet of some
        # level; then one part of an inner row, the rows every level reads,
        # moves by one where that leaves a partition
        mus = [tuple(sorted((rng.randint(1, 2) for _ in range(rng.choice((0, rng.randint(1, n))))), reverse=True))
               for _ in range(m + 1)]
        rows = []
        for a, b in zip(mus, mus[1:]):
            if len(a) + len(b) <= n and rng.random() < 0.5:
                rows.append(tuple(sorted(a + b, reverse=True)))
            else:
                rows.append(tuple(x + y for x, y in zip_longest(a, b, fillvalue=0)))
        i, j = rng.randrange(1, m - 1), rng.randrange(n)
        parts = list(rows[i]) + [0] * (n - len(rows[i]))
        parts[j] += rng.choice((-1, 1))
        if is_partition(parts):
            rows[i] = tuple(parts)
        return rows
    rows = [row() for _ in range(m)]
    i = rng.randrange(m)
    if kind == "large prime denominator":
        rows[i] = row(1_000_003)
    elif n > 1 and rng.random() < 0.5:  # malformed: an increasing row
        rows[i] = tuple(sorted(rng.sample(range(5), n)))
    else:  # malformed: a negative part
        rows[i] = tuple(rows[i])[: n - 1] + (-rng.randint(1, 3),)
    return rows


# draws per kind: Inequality.value on Fraction rows takes about 0.1 s per
# member tuple at (3,7), where the system has 3,298 rows
_BY_VALUE_DRAWS = {(4, 5): 10, (3, 7): 10}


@pytest.mark.parametrize("n,m", [(1, 3), (2, 3), (1, 5), (2, 5), (3, 5), (2, 7), (4, 5), (3, 7)])
def test_member_cone_matches_evaluation_by_value(n, m):
    rng = random.Random(1000 * n + m)
    origins = Counter()
    deeper = 0  # certificates of a level past the first, read back from its masks
    for kind in ("integer", "small denominators", "large prime denominator", "malformed", "boundary"):
        for _ in range(_BY_VALUE_DRAWS.get((n, m), 60)):
            lams = _random_tuple(rng, n, m, kind)
            verdict = member_cone(lams, n, m)
            assert verdict == member_cone_by_value(lams, n, m), (kind, lams)
            origins[verdict.certificate.origin if verdict.certificate else "member"] += 1
            deeper += bool(verdict.certificate and verdict.certificate.level)
    assert origins["member"]
    assert origins["trace"] + origins["horn"]
    assert origins["monotone"] + origins["nonneg"]
    assert m < 5 or deeper


def test_member_single_row_examples():
    assert member_single_row([(3,), (3,), (1,), (2,)], 4).member
    assert member_single_row([(), (), ()], 3).member
    v = member_single_row([(1,), (3,), (1,)], 3)
    assert not v.member and v.certificate.origin == "alt" and v.certificate.position == (1, 3)
    assert member_single_row([(1,), (), (2,)], 3).member
    # rational rows are read exactly
    v = member_single_row([(Fraction(1, 3),), (1,), (Fraction(1, 3),)], 3)
    assert not v.member and v.certificate.position == (1, 3)


def test_float_rows_read_as_their_exact_value():
    def exact(lams):
        return [tuple(map(Fraction, lam)) for lam in lams]

    # in float arithmetic window (2,4) sums below zero; read exactly it sums to 0
    lams = [(0.1,), (0.2,), (0.4,), (0.2,)]
    assert member_single_row(lams, 4).member and member_single_row(exact(lams), 4).member
    values = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9)
    for m in (3, 4):
        for vals in product(values, repeat=m):
            lams = [(v,) for v in vals]
            assert member_single_row(lams, m) == member_single_row(exact(lams), m), lams
    for vals in product((0.0, 0.1, 0.2, 0.3, 0.7), repeat=3):
        lams = [(v,) for v in vals]
        assert member_cone(lams, 1, 3) == member_cone(exact(lams), 1, 3), lams
    for lams in product([(0.5, 0.25), (0.3, 0.1), (0.2,), ()], repeat=3):
        assert member_cone(lams, 2, 3) == member_cone(exact(lams), 2, 3), lams


def test_member_single_row_matches_cone_small():
    for m in (3, 5):
        for vals in product(range(4), repeat=m):
            rows = [(v,) if v else () for v in vals]
            assert member_single_row(rows, m).member == member_cone(rows, 1, m).member


def _single_rows(rng: random.Random, m: int):
    """Seeded single-part rows: linked chains (members), their one-step changes, and noise."""
    mus = [rng.randint(0, 4) for _ in range(m + 1)]
    vals = [mus[i] + mus[i + 1] for i in range(m)]
    kind = rng.randrange(3)
    if kind == 1:
        k = rng.randrange(m)
        vals[k] = max(0, vals[k] + rng.choice((-1, 1)))
    elif kind == 2:
        vals = [rng.randint(0, 6) for _ in range(m)]
    q = rng.choice((1, 1, 2, 3))
    return [(Fraction(v, q) if q > 1 else v,) if v else () for v in vals]


def test_member_single_row_matches_every_window():
    # the linear pass gives the quadratic walk's verdict and first window (i, j)
    rng = random.Random(2029)
    members = 0
    for m in (*range(3, 12), 50):
        for _ in range(300):
            rows = _single_rows(rng, m)
            got = member_single_row(rows, m)
            assert got == member_single_row_by_windows(rows, m), rows
            members += got.member
    assert 0 < members < 3000


def test_member_single_row_certificate_positive():
    for m in (3, 4, 5):
        for vals in product(range(3), repeat=m):
            rows = [(x,) for x in vals]
            v = member_single_row(rows, m)
            if not v.member:
                assert v.certificate.value(rows) > 0


def test_member_single_row_rejects_wide_rows():
    with pytest.raises(ValueError, match=r"row 1 \('1,1'\) has more than n = 1 parts"):
        member_single_row([(1, 1), (1,), (1,)], 3)
    with pytest.raises(ValueError, match=r"row 1 \('1,0,1'\) has more than n = 1 parts"):
        member_single_row([(1, 0, 1), (1,), (1,)], 3)
    with pytest.raises(TypeError):
        member_single_row([1, (1,), (1,)], 3)


@settings(max_examples=40)
@given(st.data())
def test_members_closed_under_sum_and_scaling(data):
    grid = [lams for lams in product(list(partitions_in_box(2, 2)), repeat=3)
            if member_cone(lams, 2, 3).member]
    a = data.draw(st.sampled_from(grid))
    b = data.draw(st.sampled_from(grid))
    summed = tuple(tuple(map(sum, zip_longest(x, y, fillvalue=0))) for x, y in zip(a, b))
    assert member_cone(summed, 2, 3).member
    r = data.draw(st.integers(1, 5))
    assert member_cone([tuple(r * v for v in x) for x in a], 2, 3).member
    half = [tuple(Fraction(v, 2) for v in x) for x in a]
    assert member_cone(half, 2, 3).member


def test_interior_points_are_strict():
    # n = 9: a strictly decreasing row of nine parts has a part above 8
    for (n, m), size in {(1, 3): 4, (2, 3): 10, (1, 5): 10, (2, 5): 42, (9, 3): 37182}.items():
        point = interior_point(n, m)
        assert point == (tuple(range(n, 0, -1)),) * m
        # the largest row value is -1, over a system of the given size
        values = [iq.value(point) for iq in system_rows(n, m)]
        assert max(values) == -1 and len(values) == size
        for row in point:
            assert all(x > y for x, y in zip(row, row[1:]))
            assert row[-1] > 0


def test_interior_point_builds_no_system():
    inequality_system.cache_clear()
    interior_point(3, 5)
    interior_point(4, 3)
    assert inequality_system.cache_info().currsize == 0


def test_ineqs_json_golden():
    for n, m in [(1, 3), (2, 3), (2, 5), (3, 5), (2, 7)]:
        got = "".join(system_json(n, m))
        expect = (GOLDEN / f"ineqs_n{n}_m{m}.json").read_text().strip()
        assert got == expect


# (4,5), (3,7) and (5,3) share a tail among many lefts and pair some halves with themselves
@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in (3, 5, 7)] + [(1, 9), (2, 9), (5, 5), (5, 3)])
def test_ineqs_json_writer_matches_dict_encoding(n, m):
    reference = {
        "n": n,
        "m": m,
        "suppressed_trivial": (m - 1) // 2,
        "inequalities": [iq.to_json_dict() for iq in inequality_system(n, m)],
    }
    assert "".join(system_json(n, m)) == to_json(reference)


def test_ineqs_json_shape():
    payload = json.loads("".join(system_json(2, 3)))
    assert payload["n"] == 2 and payload["m"] == 3
    assert payload["suppressed_trivial"] == 1
    horn = [iq for iq in payload["inequalities"] if iq["origin"] == "horn"]
    assert [iq["subsets"] for iq in horn] == [[[1], [1], [1]], [[1], [2], [2]], [[2], [2], [1]]]
    for iq in payload["inequalities"]:
        assert set(iq) == {"origin", "level", "subsets", "position", "coeffs"}
        assert len(iq["coeffs"]) == 3 and all(len(r) == 2 for r in iq["coeffs"])
