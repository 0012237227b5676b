from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kleinhorn.cone import inequality_system
from kleinhorn.partitions import partitions_in_box, subsets_of_range, to_json
from kleinhorn.quiver import (
    APEX,
    Quiver,
    build_star,
    dimvector_of_subsets,
    euler_form,
    quiver_to_json_dict,
    star_dimension,
    subsets_of_dimvector,
    tuple_of_weight,
    vector_to_json_dict,
    weight_of_tuple,
    weight_pairing,
)

GOLDEN = Path(__file__).parent / "golden"


def _unit(q: Quiver, x):
    return {y: (1 if y == x else 0) for y in q.vertices}


def _euler_direct(q: Quiver, a, b):
    # independent expansion over the arrow multiset, one arrow at a time
    total = sum(a[x] * b[x] for x in q.vertices)
    for t, h, mult in q.arrows:
        for _ in range(mult):
            total -= a[t] * b[h]
    return total


def test_build_star_smallest():
    q = build_star(1, 3)
    assert len(q.vertices) == 4
    assert set(q.arrows) == {
        ((0, 0), (1, 1), 1),
        ((0, 0), (1, 3), 1),
        ((1, 2), (1, 1), 1),
        ((1, 2), (1, 3), 1),
    }


def test_build_star_two_by_three():
    q = build_star(2, 3)
    assert len(q.vertices) == 7
    # flags: odd arms point away from the long end, even arms toward it
    assert ((2, 1), (1, 1), 1) in q.arrows
    assert ((1, 2), (2, 2), 1) in q.arrows
    assert ((2, 3), (1, 3), 1) in q.arrows
    # chain between long ends
    assert ((2, 2), (2, 1), 1) in q.arrows
    assert ((2, 2), (2, 3), 1) in q.arrows
    # apex sends n parallel arrows to arm 1 and to arm m (m odd)
    assert ((0, 0), (2, 1), 2) in q.arrows
    assert ((0, 0), (2, 3), 2) in q.arrows


def test_build_star_even_m_reverses_last_bundle():
    q = build_star(2, 4)
    assert ((2, 4), (0, 0), 2) in q.arrows
    assert not any(t == APEX and h == (2, 4) for t, h, _ in q.arrows)


def _star_order(x):
    """Even-arm vertices by ascending j, then the apex, then odd-arm vertices by descending j."""
    j, i = x
    if x == APEX:
        return (1, 0)
    return (0, j) if i % 2 == 0 else (2, -j)


def test_build_star_counts_and_acyclicity_grid():
    for n in range(1, 7):
        for m in range(3, 9):
            q = build_star(n, m)
            assert len(q.vertices) == n * m + 1
            assert len(set(q.vertices)) == len(q.vertices)
            # arrow count: m flags of (n-1), m-1 chain arrows, 2 apex bundles
            assert len(q.arrows) == m * (n - 1) + (m - 1) + 2
            # every arrow goes forward in one order, so there is no cycle
            assert all(_star_order(t) < _star_order(h) for t, h, _ in q.arrows)


def test_build_star_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_star(0, 3)
    with pytest.raises(ValueError):
        build_star(1, 2)


def test_star_dimension_sincere():
    for n, m in [(1, 3), (3, 3), (2, 5)]:
        d = star_dimension(n, m)
        assert d[APEX] == 1
        assert all(d[(j, i)] == j for i in range(1, m + 1) for j in range(1, n + 1))
        assert all(v > 0 for v in d.values())


def test_euler_form_on_units():
    q = build_star(2, 3)
    for x in q.vertices:
        assert euler_form(q, _unit(q, x), _unit(q, x)) == 1
    assert euler_form(q, _unit(q, APEX), _unit(q, (2, 1))) == -2
    assert euler_form(q, _unit(q, (1, 2)), _unit(q, (2, 2))) == -1
    assert euler_form(q, _unit(q, (2, 2)), _unit(q, (1, 2))) == 0


def test_euler_form_matches_direct_expansion():
    import random

    rng = random.Random(7)
    for n, m in [(1, 3), (2, 3), (2, 4), (3, 5)]:
        q = build_star(n, m)
        for _ in range(20):
            a = {x: rng.randint(-3, 3) for x in q.vertices}
            b = {x: rng.randint(-3, 3) for x in q.vertices}
            assert euler_form(q, a, b) == _euler_direct(q, a, b)


def test_euler_form_index_check():
    q = build_star(1, 3)
    with pytest.raises(ValueError):
        euler_form(q, {APEX: 1}, _unit(q, APEX))


_STAR_2_3 = build_star(2, 3)
_KEYED_ENTRY_POINTS = {
    "euler_form": lambda v: euler_form(_STAR_2_3, v, v),
    "vector_to_json_dict": lambda v: vector_to_json_dict(_STAR_2_3, v),
    "tuple_of_weight": lambda v: tuple_of_weight(v, 2, 3),
    "subsets_of_dimvector": lambda v: subsets_of_dimvector(v, 2, 3),
}


@pytest.mark.parametrize("entry", sorted(_KEYED_ENTRY_POINTS))
def test_star_vertex_keys_checked(entry):
    call = _KEYED_ENTRY_POINTS[entry]
    zero = {x: 0 for x in _STAR_2_3.vertices}
    call(zero)  # the zero vector is valid everywhere, so only the keys can fail
    missing = dict(zero)
    del missing[(2, 3)]
    with pytest.raises(ValueError):
        call(missing)
    with pytest.raises(ValueError):
        call({**zero, (3, 1): 0})


def test_weight_of_tuple_example():
    w = weight_of_tuple([(2,), (3,), (1,)], 1)
    assert w == {APEX: 0, (1, 1): -2, (1, 2): 3, (1, 3): -1}


def test_weight_of_zero_tuple():
    w = weight_of_tuple([(), (), ()], 2)
    assert all(v == 0 for v in w.values())


def test_weight_pairs_to_zero_with_sincere_vector():
    grid = [(), (1,), (2,), (2, 1), (2, 2)]
    for lams in product(grid, repeat=3):
        w = weight_of_tuple(lams, 2)
        assert weight_pairing(w, star_dimension(2, 3)) == 0


@settings(max_examples=50)
@given(st.data())
def test_weight_of_tuple_linearity(data):
    n, m = 2, 4
    mk = st.lists(
        st.fractions(min_value=0, max_value=6, max_denominator=4), min_size=n, max_size=n
    ).map(lambda xs: tuple(sorted(xs, reverse=True)))
    a = tuple(data.draw(mk) for _ in range(m))
    b = tuple(data.draw(mk) for _ in range(m))
    wa = weight_of_tuple(a, n)
    wb = weight_of_tuple(b, n)
    summed = tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
    ws = weight_of_tuple(summed, n)
    assert all(ws[x] == wa[x] + wb[x] for x in ws)


def test_weight_of_tuple_rejects_bad_rows():
    with pytest.raises(ValueError):
        weight_of_tuple([(1, 2), (1,), (1,)], 2)
    with pytest.raises(ValueError):
        weight_of_tuple([(1,), (1,)], 1)
    with pytest.raises(ValueError):
        weight_of_tuple([(1, 1, 1), (1,), (1,)], 2)


def test_weight_of_tuple_reads_parts_exactly():
    # a float part is the binary fraction it holds, so its weights are Fractions
    w = weight_of_tuple([(0.5,), (1,), (0.5,)], 1)
    assert w == {(1, 1): Fraction(-1, 2), (1, 2): 1, (1, 3): Fraction(-1, 2), APEX: 0}
    assert all(type(v) is Fraction for v in w.values())
    # parts of integer value give int weights, whatever their type
    w = weight_of_tuple([(Fraction(4, 2),), (2.0,), ()], 1)
    assert all(type(v) is int for v in w.values())


def test_tuple_of_weight_roundtrip_exhaustive():
    grid = [(), (1,), (2,), (1, 1), (2, 1)]
    for lams in product(grid, repeat=3):
        w = weight_of_tuple(lams, 2)
        rows = tuple_of_weight(w, 2, 3)
        padded = tuple(t + (0,) * (2 - len(t)) for t in lams)
        assert rows == padded


@settings(max_examples=50)
@given(st.data())
def test_tuple_of_weight_roundtrip_rational(data):
    n, m = 2, 5
    mk = st.lists(
        st.fractions(min_value=0, max_value=5, max_denominator=6), min_size=n, max_size=n
    ).map(lambda xs: tuple(sorted(xs, reverse=True)))
    lams = tuple(data.draw(mk) for _ in range(m))
    assert tuple_of_weight(weight_of_tuple(lams, n), n, m) == lams


def test_tuple_of_weight_validation():
    w = weight_of_tuple([(2,), (3,), (1,)], 1)
    bad = dict(w)
    bad[(1, 1)] = 1  # positive at an odd arm breaks the chamber
    with pytest.raises(ValueError):
        tuple_of_weight(bad, 1, 3)
    bad2 = dict(w)
    bad2[APEX] = 5  # pairing with the sincere vector becomes nonzero
    with pytest.raises(ValueError):
        tuple_of_weight(bad2, 1, 3)
    with pytest.raises(ValueError):
        tuple_of_weight({APEX: 0}, 1, 3)


def test_dimvector_of_subsets_full_and_empty():
    full = ((1, 2), (1, 2), (1, 2))
    assert dimvector_of_subsets(full, 2, 1) == star_dimension(2, 3)
    vec = dimvector_of_subsets(((), (), ()), 2, 0)
    assert all(v == 0 for v in vec.values())


def test_subsets_of_dimvector_roundtrip_small():
    for n, m in [(1, 3), (2, 3), (2, 4), (3, 3)]:
        subs = subsets_of_range(n)
        for combo in product(subs, repeat=m):
            for z in (0, 1):
                vec = dimvector_of_subsets(combo, n, z)
                assert subsets_of_dimvector(vec, n, m) == combo


def test_subsets_of_dimvector_rejects_non_unit_jumps():
    vec = dimvector_of_subsets(((1,), (), ()), 1, 0)
    vec[(1, 2)] = 2
    with pytest.raises(ValueError):
        subsets_of_dimvector(vec, 1, 3)
    vec[(1, 2)] = -1
    with pytest.raises(ValueError):
        subsets_of_dimvector(vec, 1, 3)


def test_weight_pairing_closed_forms():
    # pairing a type weight with a subset vector sums signed column entries
    grid = [(), (1,), (2,), (2, 1)]
    subs = subsets_of_range(2)
    for lams in product(grid, repeat=3):
        w = weight_of_tuple(lams, 2)
        padded = [t + (0,) * (2 - len(t)) for t in lams]
        for combo in product(subs, repeat=3):
            vec = dimvector_of_subsets(combo, 2, 0)
            expect = 0
            for i, s in enumerate(combo, 1):
                sign = 1 if i % 2 == 0 else -1
                expect += sign * sum(padded[i - 1][j - 1] for j in s)
            assert weight_pairing(w, vec) == expect
            # complementary vector (apex 1): pairing flips sign because the
            # weight pairs to zero with the sincere vector
            comp = dimvector_of_subsets(
                tuple(tuple(sorted(set((1, 2)) - set(s))) for s in combo), 2, 1
            )
            assert weight_pairing(w, comp) == -expect


@pytest.mark.parametrize("n,m", [(1, 3), (2, 3), (3, 3), (2, 5), (3, 5), (2, 7), (1, 9), (4, 5), (3, 7)])
def test_every_system_row_is_a_quiver_quantity(n, m):
    # each row of the odd-m system, derived from flag weights instead of the
    # indicator table: trace and horn rows pair the weight with the padded
    # subsets' dimension vector, domain rows read one flag vertex
    rng = random.Random(n * 100 + m)
    box = list(partitions_in_box(n, 3))
    full = tuple(range(1, n + 1))
    for _ in range(3):
        lams = [rng.choice(box) for _ in range(m)]
        w = weight_of_tuple(lams, n)
        for iq in inequality_system(n, m):
            if iq.origin in ("trace", "horn"):
                k = iq.level
                inner = iq.subsets or (full,) * (m - 2 * k)
                vec = dimvector_of_subsets(((),) * k + inner + ((),) * k, n, 0)
                expect = (-1) ** k * weight_pairing(w, vec)
            elif iq.origin == "monotone":
                i, j = iq.position
                expect = -((-1) ** i) * w[(j, i)]
            else:
                (i,) = iq.position
                expect = -((-1) ** i) * w[(n, i)]
            assert iq.value(lams) == expect, (lams, iq.render())


def test_weight_pairing_balanced_example():
    # sizes 2 - 3 + 1 balance, so the full singleton tuple pairs to zero
    w = weight_of_tuple([(2,), (3,), (1,)], 1)
    vec = dimvector_of_subsets(((1,), (1,), (1,)), 1, 0)
    assert weight_pairing(w, vec) == 0


def test_weight_pairing_index_mismatch():
    w = weight_of_tuple([(2,), (3,), (1,)], 1)
    with pytest.raises(ValueError):
        weight_pairing(w, {APEX: 1})


def test_quiver_json_golden():
    for n, m in [(1, 3), (2, 3)]:
        got = to_json(quiver_to_json_dict(build_star(n, m)))
        expect = (GOLDEN / f"quiver_n{n}_m{m}.json").read_text().strip()
        assert got == expect


def test_vector_json_fractions():
    q = build_star(1, 3)
    w = weight_of_tuple([(Fraction(1, 2),), (1,), (Fraction(1, 2),)], 1)
    d = vector_to_json_dict(q, w)
    assert d["values"][q.vertices.index((1, 1))] == "-1/2"
    assert d["values"][q.vertices.index((1, 2))] == 1
    # integral Fractions flatten to plain ints
    assert json.loads(to_json(d))["values"][0] == 0
