from __future__ import annotations

import ast
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kleinhorn
from bruteforce import (
    dominates,
    gen_lr_nested_sum,
    lr_complements_by_cells,
    lr_fillings_by_content,
    partitions_of,
    ssyt_count,
)
from kleinhorn.partitions import (
    conjugate,
    contains,
    partitions_in_box,
    subpartitions,
)
from kleinhorn.tableaux import (
    _chain_state,
    _listing,
    gen_lr,
    kostka_number,
    lr_coefficient,
    lr_complements,
)


def _all_partitions_up_to(total):
    for k in range(total + 1):
        yield from partitions_of(k)


def _partitions_of_size_in(total, shape):
    return (nu for nu in partitions_of(total) if contains(shape, nu))


def test_lr_frozen_values():
    assert lr_coefficient((4, 2, 1), (4, 2, 1), ()) == 1
    assert lr_coefficient((2, 1), (1,), (1,)) == 0
    assert lr_coefficient((2, 1), (1, 1), (1,)) == 1
    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (1,), (2,)) == 1
    assert lr_coefficient((2, 2), (1,), (2, 1)) == 1
    # smallest multiplicity-two case
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2


def test_lr_large_parts():
    # one walk step per (row, letter), no recursion: long rows cost what short ones do
    assert lr_coefficient((1500,), (), (1500,)) == 1
    assert lr_coefficient((700, 600), (100,), (600, 600)) == 1
    assert lr_coefficient((700, 600), (100,), (1200,)) == 0
    assert lr_coefficient((20000, 10000), (10000,), (10000, 10000)) == 1


def _listing_cases():
    # every pair in six boxes; columns 1^k/1^j and one of 1200 rows; rows (a)/(b)
    # and, on a grid of step 3, (a, b)/(c) up to 60 (the 2 x 9 box has every such
    # pair up to 9).  The 8 x 2 box has tall rows entered without a choice and
    # then taken back several at a time.
    for box in [(4, 5), (5, 4), (3, 6), (6, 3), (2, 9), (8, 2)]:
        for lam in partitions_in_box(*box):
            for mu in subpartitions(lam):
                yield lam, mu
    for k in range(41):
        for j in range(k + 1):
            yield (1,) * k, (1,) * j
    yield (1,) * 1200, (1,)
    for a in range(61):
        for b in range(a + 1):
            yield (a,), (b,)
    for a, b, c in product(range(0, 61, 3), repeat=3):
        if b <= a and c <= a:
            yield (a, b), (c,)


def test_lr_complements_match_cell_walk():
    for outer, left in _listing_cases():
        assert lr_complements(outer, left) == lr_complements_by_cells(outer, left), (outer, left)


def test_lr_coefficient_matches_dict_reading():
    # every triple of the 3 x 4 box, and right factors with trailing zeros
    grid = list(partitions_in_box(3, 4))
    for outer, left in product(grid, repeat=2):
        listed = dict(lr_complements(outer, left))
        for right in grid:
            assert lr_coefficient(outer, left, right) == listed.get(right, 0), (outer, left, right)
            assert lr_coefficient(outer, left, right + (0,)) == listed.get(right, 0), (outer, left, right)


def test_lr_against_independent_enumeration():
    # bucket every lattice filling by content and compare coefficient by coefficient
    for lam in _all_partitions_up_to(6):
        for mu in subpartitions(lam):
            buckets = lr_fillings_by_content(lam, mu)
            rest = sum(lam) - sum(mu)
            for nu in _partitions_of_size_in(rest, lam):
                assert lr_coefficient(lam, mu, nu) == buckets.get(nu, 0), (lam, mu, nu)
            assert sum(buckets.values()) == sum(
                c for _, c in lr_complements(lam, mu)
            ), (lam, mu)


def test_row_cap_in_brute_enumerator_is_safe():
    # dropping the per-row letter bound finds exactly the same fillings
    for lam in _all_partitions_up_to(4):
        for mu in subpartitions(lam):
            assert lr_fillings_by_content(lam, mu) == lr_fillings_by_content(
                lam, mu, cap_by_row=False
            )


def test_lr_vanishing():
    assert lr_coefficient((2, 1), (3,), ()) == 0  # left not contained
    assert lr_coefficient((2, 1), (1,), (1,)) == 0  # size mismatch
    assert lr_coefficient((2,), (1, 1), (1,)) == 0  # left not contained
    assert lr_coefficient((2, 2), (1,), (3,)) == 0  # right not contained


def test_lr_symmetry_small():
    for lam in _all_partitions_up_to(6):
        for mu in subpartitions(lam):
            for nu, c in lr_complements(lam, mu):
                assert lr_coefficient(lam, nu, mu) == c


def test_lr_conjugation_small():
    for lam in _all_partitions_up_to(6):
        for mu in subpartitions(lam):
            for nu, c in lr_complements(lam, mu):
                assert lr_coefficient(conjugate(lam), conjugate(mu), conjugate(nu)) == c


def test_kostka_frozen_values():
    assert kostka_number((3, 1), (3, 1)) == 1
    assert kostka_number((2, 1), (1, 1, 1)) == 2
    assert kostka_number((1, 1), (2,)) == 0
    assert kostka_number((2, 1), (2, 1)) == 1
    assert kostka_number((), ()) == 1
    assert kostka_number((2,), (1, 0, 1)) == 1
    assert kostka_number((2, 1), (1, 1)) == 0  # sizes differ
    assert kostka_number((1,), (1, 1)) == 0
    assert kostka_number((10**20,), (10**20,)) == 1  # the last row takes what is left


def test_kostka_frozen_values_beyond_the_grid():
    # beyond the six-box grid: long contents, equal parts and an interior zero part
    assert kostka_number((8, 7, 6, 5, 4, 3, 2, 1), (1,) * 36) == 29258366996258488320
    assert kostka_number((60, 40, 20), (20,) * 6) == 36256671
    assert kostka_number((12, 12, 12, 12), (4,) * 12) == 429982575
    assert kostka_number((4, 3, 2, 1), (2, 0, 3, 1, 4)) == 1
    staircase = (10, 9, 8, 7, 6, 5, 4, 3, 2, 1)
    # largest part first, in either content order: a few states, not a 55-cell walk each
    assert kostka_number(staircase, staircase) == kostka_number(staircase, staircase[::-1]) == 1


def test_kostka_leaves_the_lr_memo_alone():
    # nu shrinks every step, so no listing recurs in a call: the walk skips the memo
    before = _listing.cache_info()
    assert kostka_number((5, 3, 2, 1), (2, 1, 0, 3, 2, 3)) == 20
    assert kostka_number((3, 1), (1, 1, 1)) == 0  # sizes differ
    assert _listing.cache_info() == before


def test_kostka_against_direct_ssyt_enumeration():
    for lam in _all_partitions_up_to(6):
        for content in product(range(4), repeat=3):
            if sum(content) != sum(lam):
                continue
            assert kostka_number(lam, content) == ssyt_count(lam, content), (lam, content)


def test_kostka_identity_and_dominance_small():
    for lam in _all_partitions_up_to(6):
        assert kostka_number(lam, lam) == 1
        for mu in partitions_of(sum(lam)):
            positive = kostka_number(lam, mu) > 0
            assert positive == dominates(lam, mu), (lam, mu)


@given(st.permutations(list(range(4))), st.data())
def test_kostka_content_permutation_invariance(perm, data):
    lam = data.draw(
        st.lists(st.integers(1, 4), min_size=0, max_size=4).map(
            lambda xs: tuple(sorted(xs, reverse=True))
        )
    )
    content = list(lam) + [0] * (4 - len(lam))
    permuted = tuple(content[i] for i in perm)
    # kostka_number peels the largest part first whatever the order, so the
    # invariance itself is checked against the cell-by-cell count
    assert kostka_number(lam, permuted) == kostka_number(lam, tuple(content)) == ssyt_count(lam, permuted)


def _cold_and_warm(call, int_call):
    """call's answer, or its ValueError as text, on a cleared memo and again once int_call has run."""
    outcomes = []
    for warm_up in (None, int_call):
        _listing.cache_clear()
        if warm_up is not None:
            warm_up()
        try:
            outcomes.append(call())
        except ValueError as err:
            outcomes.append(f"ValueError: {err}")
    return outcomes


def test_lr_layer_rejects_non_integer_parts():
    # each call is paired with the int call of equal value, which fills the memo
    # under keys that compare and hash equal to the call's: (2.0,) == (2,), (True,) == (1,)
    half, three_halves = (Fraction(1, 2),), (Fraction(3, 2),)
    refused = [
        (lambda: lr_complements(three_halves, half), None),
        (lambda: lr_coefficient(three_halves, half, (1,)), None),
        (lambda: lr_coefficient((2,), (1,), (0.5, 0.5)), None),
        (lambda: gen_lr([half, half, ()]), None),
        (lambda: kostka_number(three_halves, three_halves), None),
        (lambda: lr_complements((2.0,), (1,)), lambda: lr_complements((2,), (1,))),
        (lambda: lr_complements((2,), (True,)), lambda: lr_complements((2,), (1,))),
        (lambda: lr_complements((Fraction(2),), (1,)), lambda: lr_complements((2,), (1,))),
        (lambda: lr_complements([2.0, 0], [1]), lambda: lr_complements([2, 0], [1])),
        (lambda: lr_coefficient((2, 1), (1.0,), (2,)), lambda: lr_coefficient((2, 1), (1,), (2,))),
        (lambda: lr_coefficient((2, 1), (1,), (True, True)), lambda: lr_coefficient((2, 1), (1,), (1, 1))),
        (lambda: lr_coefficient([Fraction(2), 1], [1], [2]), lambda: lr_coefficient([2, 1], [1], [2])),
        (lambda: gen_lr([(1,), (2.0,), (1,)]), lambda: gen_lr([(1,), (2,), (1,)])),
        (lambda: kostka_number((2.0,), (2,)), lambda: kostka_number((2,), (2,))),
        (lambda: kostka_number([True, True], [1, 1]), lambda: kostka_number([1, 1], [1, 1])),
    ]
    for call, int_call in refused:
        cold, warm = _cold_and_warm(call, int_call)
        assert cold == warm and cold.startswith("ValueError: not a partition"), (cold, warm)
    # a list, or int parts with trailing zeros, answers as the canonical tuples do
    accepted = [
        (lambda: lr_complements([3, 0], [1]), lambda: lr_complements((3,), (1,))),
        (lambda: lr_complements((3,), (1, 0)), lambda: lr_complements((3,), (1,))),
        (lambda: lr_coefficient([3], [1], [2]), lambda: lr_coefficient((3,), (1,), (2,))),
        (lambda: lr_coefficient((2, 1, 0), [1, 0], (1, 1, 0)), lambda: lr_coefficient((2, 1), (1,), (1, 1))),
        (lambda: gen_lr([[1], [2, 0], [1]]), lambda: gen_lr([(1,), (2,), (1,)])),
        (lambda: kostka_number([2, 1, 0], [1, 0, 1, 1]), lambda: kostka_number((2, 1), (1, 1, 1))),
    ]
    for call, int_call in accepted:
        expected = int_call()
        assert expected and _cold_and_warm(call, int_call) == [expected, expected]


def test_lr_memo_keys_are_canonical():
    # trailing zeros and lists share the canonical tuples' memo entry
    _listing.cache_clear()
    for outer, left in [((3,), (1,)), ((3, 0), (1,)), ((3,), (1, 0)), ([3], [1])]:
        assert lr_complements(outer, left) == (((2,), 1),)
    info = _listing.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 3)


def _named(node):
    """The name a decorator or call refers to: "cache" for cache, functools.cache and cache(f)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_no_memo_validates_its_arguments():
    # a memo that checks its arguments inside the cache refuses an argument on a
    # cold cache and answers it once an equal valid key is cached: validation
    # belongs before the memo
    memos = {"cache", "lru_cache"}
    wrapped = {}  # module file -> names of the functions a memo wraps
    for path in sorted(Path(kleinhorn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(_named(d) in memos for d in node.decorator_list):
                names.add(node.name)
            elif isinstance(node, ast.Call) and _named(node) in memos:
                # cache(f) and lru_cache(...)(f)
                names.update(arg.id for arg in node.args if isinstance(arg, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in names:
                calls = [_named(call) for call in ast.walk(node) if isinstance(call, ast.Call)]
                assert "normalize" not in calls, (path.name, node.name)
        wrapped[path.name] = names
    assert {"_walk"} <= wrapped["tableaux.py"]
    assert {"inequality_system", "_level_halves", "_certificate"} <= wrapped["cone.py"]


def test_kostka_rejects_negative_content():
    with pytest.raises(ValueError):
        kostka_number((2,), (3, -1))
    # a part that is not an int is refused whatever the sizes, as normalize refuses it
    for shape, content in [
        ((3,), (Fraction(3, 2),)),
        ((2,), (1.0,)),
        ((3,), (Fraction(3, 2),) * 2),
        ((2,), (2.0,)),
        ((2,), (True, True)),
        ((2,), (Fraction(2),)),
    ]:
        with pytest.raises(ValueError, match="content must be nonnegative ints"):
            kostka_number(shape, content)


def test_lr_complements_frozen():
    assert lr_complements((2, 1), (1,)) == (((1, 1), 1), ((2,), 1))
    assert lr_complements((2, 1), (2, 1)) == (((), 1),)
    assert lr_complements((1,), (2,)) == ()
    assert lr_complements((2, 1), ()) == (((2, 1), 1),)


def test_lr_complements_complete_and_positive():
    for lam in _all_partitions_up_to(6):
        for mu in subpartitions(lam):
            listed = dict(lr_complements(lam, mu))
            assert all(c > 0 for c in listed.values())
            rest = sum(lam) - sum(mu)
            for nu in _partitions_of_size_in(rest, lam):
                if nu not in listed:
                    assert lr_coefficient(lam, mu, nu) == 0


@pytest.mark.parametrize("box", [(3, 6), (4, 5)])
def test_least_complement_is_sorted_skew_rows(box):
    # the dominance-minimal constituent of s_{lam/mu}: the witness search's closed form
    for lam in partitions_in_box(*box):
        for mu in subpartitions(lam):
            rows = [a - (mu[i] if i < len(mu) else 0) for i, a in enumerate(lam)]
            assert lr_complements(lam, mu)[0][0] == tuple(sorted((r for r in rows if r), reverse=True))


def test_gen_lr_matches_plain_lr_for_three():
    grid = list(partitions_in_box(2, 2))
    for a, b, c in product(grid, repeat=3):
        assert gen_lr([a, b, c]) == lr_coefficient(b, a, c)


def test_gen_lr_frozen_values():
    assert gen_lr([(1, 1), (2, 1), (1,)]) == 1
    assert gen_lr([(1,), (2,), (2,), (2,), (1,)]) == 1
    # forced intermediate sizes telescope; a negative one kills the chain
    assert gen_lr([(), (2, 1), (), (2, 1), ()]) == 0
    assert gen_lr([(), (2, 1), (2, 1), (), ()]) == 1
    assert gen_lr([(3,), (1,), (1,)]) == 0
    assert gen_lr([(1,), (2,), (2,)]) == 0  # the last size mismatches
    with pytest.raises(ValueError):
        gen_lr([(1,), (1,)])


def test_gen_lr_against_nested_sums():
    grid = list(partitions_in_box(2, 2))
    for m in (4, 5):
        for lams in product(grid, repeat=m):
            assert gen_lr(lams) == gen_lr_nested_sum(lams), lams


@settings(max_examples=60)
@given(st.data())
def test_gen_lr_reversal_invariance(data):
    grid = list(partitions_in_box(2, 3))
    m = data.draw(st.integers(3, 5))
    lams = tuple(data.draw(st.sampled_from(grid)) for _ in range(m))
    assert gen_lr(lams) == gen_lr(tuple(reversed(lams)))


def test_gen_lr_split_at_the_centre():
    # gen_lr(lams) = sum of S_L(a) * c^(lams[c])_(a b) * S_R(b), with S_L the chain
    # state of rows 0..c-1 and S_R that of rows m-1..c+1: the split that
    # horn_index_set counts its joined halves by.  Each chain links random
    # mus, lams[i] a term of mus[i-1] * mus[i], so gen_lr(lams) >= 1.
    rng = random.Random(19)
    grid = list(partitions_in_box(3, 3))
    widest = heaviest = 0
    for m in (3, 5, 7, 9):
        c = (m - 1) // 2
        for _ in range(40):
            mus = [rng.choice(grid) for _ in range(m - 1)]
            lams = [mus[0]]
            for a, b in zip(mus, mus[1:]):
                lams.append(rng.choice([lam for lam in partitions_of(sum(a) + sum(b))
                                        if lr_coefficient(lam, a, b)]))
            lams.append(mus[-1])
            left, right = _chain_state(lams[:c]), _chain_state(lams[:c:-1])
            split = sum(wa * lr_coefficient(lams[c], a, b) * wb
                        for a, wa in left.items() for b, wb in right.items())
            assert split == gen_lr(lams) >= 1, lams
            for state in (left, right):
                widest = max(widest, len(state))
                heaviest = max(heaviest, max(state.values()))
    assert widest >= 2 and heaviest >= 2
