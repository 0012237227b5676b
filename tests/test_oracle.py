from __future__ import annotations

import ast
import inspect
import random
from fractions import Fraction
from itertools import product, zip_longest
from math import inf, nan

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import witness_search_unfiltered
from kleinhorn import oracle
from kleinhorn.cone import cross_check, horn_index_set, inequality_system, member_cone, member_single_row
from kleinhorn.oracle import (
    SearchOutcome,
    WitnessChain,
    chain_is_valid,
    clear_denominators,
    rational_member,
    search_canonical,
    witness_chain,
    witness_search,
)
from kleinhorn.partitions import partitions_in_box
from kleinhorn.quiver import (
    build_star,
    dimvector_of_subsets,
    star_dimension,
    subsets_of_dimvector,
    tuple_of_weight,
    weight_of_tuple,
)
from kleinhorn.tableaux import _listing, gen_lr


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


def _admits_sizes(lams) -> bool:
    """Whether some |mu(0)| makes every |mu(i)| = |lam(i)| - |mu(i-1)| nonnegative."""
    for size in range(sum(lams[0]) + 1):
        sizes = [size]
        for lam in lams:
            sizes.append(sum(lam) - sizes[-1])
        if min(sizes) >= 0:
            return True
    return False


def test_witness_chains_are_valid():
    grid = list(partitions_in_box(2, 2))
    found = 0
    for lams in product(grid, repeat=3):
        out = witness_search(lams, 2)
        assert out.explored <= witness_search_unfiltered(lams, 2).explored
        if not _admits_sizes(lams):
            assert out.explored == 0 and out.chain is None
        if out.chain is not None:
            found += 1
            assert chain_is_valid(out.chain, lams)
    assert found > 0


def test_witness_chain_is_canonical_smallest():
    out1 = witness_search([(2,), (2,), (2,), (2,), ()], 1)
    out2 = witness_search([(2,), (2,), (2,), (2,), ()], 1)
    assert out1.chain == out2.chain
    assert chain_is_valid(out1.chain, [(2,), (2,), (2,), (2,), ()])


def test_witness_long_single_row_chain():
    # lam_i = mu_(i-1) + mu_i makes a member; 1200 positions once hit the recursion limit
    rng = random.Random(1200)
    mus = [rng.randint(0, 30) for _ in range(1201)]
    lams = [(mus[i] + mus[i + 1],) for i in range(1200)]
    chain = witness_chain(lams, 1)
    assert chain is not None and chain_is_valid(chain, lams)


def test_chain_is_valid_rejects_wrong_shapes():
    chain = witness_chain([(1,), (2,), (1,)], 1)
    assert not chain_is_valid(chain, [(1,), (2,), (2,)])


def test_chain_is_valid_rejects_zero_coefficient():
    # the sizes telescope, but a row (2) does not fit in the column (1, 1)
    assert not chain_is_valid(WitnessChain(((2,), (), ())), [(1, 1), ()])


def test_chain_is_valid_rejects_non_partitions():
    # an entry that is not a partition makes the chain invalid, not an error
    lams = [(3,), (3,), (1,), (2,)]
    assert not chain_is_valid(WitnessChain(((), (1, 2), (), (1,), (1,))), lams)
    assert not chain_is_valid(WitnessChain(((), (3,), (), (1,), (-1,))), lams)
    # sizes telescope and every coefficient read on the fractions is one
    halves = tuple((Fraction(k, 2),) for k in (1, 5, 1, 1, 3))
    assert not chain_is_valid(WitnessChain(halves), lams)
    assert chain_is_valid(WitnessChain(((), (3,), (), (1,), (1,))), lams)


def test_witness_matches_unfiltered_reference():
    # same chain or same None as the search over every subpartition of lam_1
    rng = random.Random(8)
    members = 0
    for _ in range(30000):
        n, m, top = rng.randint(1, 3), rng.randint(3, 8), rng.randint(1, 5)
        lams = [() if rng.random() < 0.2 else tuple(sorted((rng.randint(0, top) for _ in range(n)), reverse=True))
                for _ in range(m)]
        got = witness_search(lams, n).chain
        want = witness_search_unfiltered(lams, n).chain
        assert (got and got.mus) == (want and want.mus), lams
        members += got is not None
    assert 0 < members < 30000


def test_witness_search_cost_pins():
    # mu(0) comes from mu(1) inside lam_1 and lam_2 = (1): 79,421 states by the plain search
    out = witness_search([(60, 60, 60), (1,), (90, 90, 1)], 3)
    assert out.chain.mus == ((60, 60, 59), (1,), (), (90, 90, 1)) and out.explored == 3
    # 635,376 candidates for mu(0); the keys are walked lazily from the least
    out = witness_search([(60, 60, 60, 60), (60, 60, 60, 60), ()], 4)
    assert out.chain.mus == ((), (60, 60, 60, 60), (), ()) and out.explored == 3
    # the size window of |mu(0)|: 6,268, 5,498, 2,208 and 6,295 states without it
    out = witness_search([(30, 26, 12), (27, 18, 11), (29, 26, 17), (20, 7)], 3)
    assert out.chain.mus == ((23, 22, 12), (7, 4), (20, 16, 9), (20, 7), ()) and out.explored == 6
    out = witness_search([(30, 24, 22), (23, 22, 11), (29, 25, 17), (11, 5, 4)], 3)
    assert out.chain.mus == ((25, 24, 22), (5,), (22, 18, 11), (11, 5, 4), ()) and out.explored == 4
    out = witness_search([(19, 15, 14), (20, 15, 11), (11, 3, 3), (19, 13, 3), (13, 4, 1)], 3)
    assert out.chain is None and out.explored == 0
    out = witness_search([(95, 80, 70, 63), (38, 27, 21, 2), (38, 38, 30, 2), (35, 25, 16, 2), (34, 20, 13, 5)], 4)
    assert out.chain.mus == ((63, 63, 62, 62), (32, 17, 8, 1), (14, 13, 3), (35, 25, 16, 2), (), (34, 20, 13, 5))
    assert out.explored == 22


def test_witness_search_walk_pins():
    # fact (b) gives each state's first candidate; a listing is walked only on backtrack
    pins = [
        ([(60, 60, 60), (1,), (90, 90, 1)], 3, 0),
        ([(60, 60, 60, 60), (60, 60, 60, 60), ()], 4, 0),
        ([(30, 26, 12), (27, 18, 11), (29, 26, 17), (20, 7)], 3, 4),
        ([(30, 24, 22), (23, 22, 11), (29, 25, 17), (11, 5, 4)], 3, 1),
        ([(95, 80, 70, 63), (38, 27, 21, 2), (38, 38, 30, 2), (35, 25, 16, 2), (34, 20, 13, 5)], 4, 19),
    ]
    for lams, n, walks in pins:
        _listing.cache_clear()
        witness_search(lams, n)
        assert _listing.cache_info().misses == walks, lams
    # lam_i = mu_(i-1) + mu_i with mu_i = i % 7: every least partner extends
    lams = [((i - 1) % 7 + i % 7,) for i in range(1, 1201)]
    _listing.cache_clear()
    out = witness_search(lams, 1)
    assert out.chain.mus == tuple((i % 7,) if i % 7 else () for i in range(1201))
    assert out.explored == 1200 and _listing.cache_info().misses == 0


def test_clear_denominators_pins():
    # int rows: scale 1, canonical rows, trailing zeros past n not counted
    assert clear_denominators([(3, 2, 1), (2,), ()], 3) == ([(3, 2, 1), (2,), ()], 1)
    assert clear_denominators([(3, 2, 1, 0, 0), (2, 0), (0,)], 3) == ([(3, 2, 1), (2,), ()], 1)
    assert clear_denominators([(Fraction(7, 3), 0, 0, 0), (), ()], 1) == ([(7,), (), ()], 3)
    # mixed int and Fraction rows; Fraction(4, 2) is the int 2
    rows, scale = clear_denominators([(Fraction(1, 2), Fraction(1, 3)), (1,), (2, 1)], 2)
    assert (rows, scale) == ([(3, 2), (6,), (12, 6)], 6)
    rows, scale = clear_denominators([(Fraction(4, 2), 1), (Fraction(3, 1),), (1,)], 2)
    assert (rows, scale) == ([(2, 1), (3,), (1,)], 1)
    assert all(type(x) is int for row in rows for x in row)
    # a 20-digit denominator
    big = 10**20 + 1
    assert clear_denominators([(Fraction(1, big),), (5,), ()], 1) == ([(1,), (5 * big,), ()], big)


@pytest.mark.parametrize(
    "lams,n,message",
    [
        ([(1,)], 0, "need n >= 1, got 0"),
        ([(1,), (1, 2), ()], 2, "row 2 ('1,2') is not weakly decreasing and nonnegative"),
        ([(1,), (2, -1), ()], 2, "row 2 ('2,-1') is not weakly decreasing and nonnegative"),
        ([(Fraction(1, 2), Fraction(3, 4)), (), ()], 2, "row 1 ('1/2,3/4') is not weakly decreasing and nonnegative"),
        ([(3, 2, 1), (), ()], 2, "row 1 ('3,2,1') has more than n = 2 parts"),
        # the row as given, not scaled
        ([(Fraction(3, 2), Fraction(1, 2), Fraction(1, 4)), (), ()], 2, "row 1 ('3/2,1/2,1/4') has more than n = 2 parts"),
        # read_rows refuses a row with too many parts before any row is checked for order
        ([(1, 2), (3, 2, 1), ()], 2, "row 2 ('3,2,1') has more than n = 2 parts"),
    ],
)
def test_clear_denominators_messages(lams, n, message):
    with pytest.raises(ValueError) as err:
        clear_denominators(lams, n)
    assert str(err.value) == message


def test_witness_rejects_bad_input():
    with pytest.raises(ValueError):
        witness_search([(1, 1), (1,), (1,)], 1)
    with pytest.raises(ValueError):
        witness_search([(1,), (1,)], 1)
    with pytest.raises(ValueError):
        witness_search([(1,), (-1,), (1,)], 1)
    with pytest.raises(ValueError, match="need n >= 1, got 0"):
        witness_search([(), (), ()], 0)


@pytest.mark.parametrize("entry", [witness_search, witness_chain], ids=["witness_search", "witness_chain"])
def test_witness_entry_points_refuse_non_integer_rows(entry):
    # a member by rational_member, and still refused: the search takes integers only
    halves = [(Fraction(1, 2),), (Fraction(1, 2),), (Fraction(1, 2),), ()]
    assert rational_member(halves, 1)
    wide = [(Fraction(3, 2), Fraction(1, 2)), (2,), (Fraction(1, 2),)]
    for lams, n in [(halves, 1), (wide, 2), ([(0.5,), (1,), (0.5,)], 1)]:
        with pytest.raises(ValueError, match="use decide"):
            entry(lams, n)
    # a part of another type with an integer value reads as that int
    assert entry([(Fraction(4, 2),), (1,), (1.0,)], 1) == entry([(2,), (1,), (1,)], 1)


def test_witness_search_refuses_every_half_integer_tuple():
    halves = [Fraction(k, 2) for k in range(7)]
    count = 0
    for m in (3, 4):
        for vals in product(halves, repeat=m):
            if all(x.denominator == 1 for x in vals):
                continue
            lams = [(x,) for x in vals]
            with pytest.raises(ValueError, match="use decide"):
                witness_search(lams, 1)
            assert rational_member(lams, 1) == member_single_row(lams, m).member, lams
            count += 1
    assert count == 2424


# Every public entry point that reads a size or rows checks them through
# partitions.check_size and partitions.read_rows, so each bad input has one
# message.  An entry point takes the arguments it names, from the valid
# defaults below with the case's changes; member_single_row reads at n = 1.
ENTRY_POINTS = {
    "witness_search": (witness_search, ("lams", "n")),
    "witness_chain": (witness_chain, ("lams", "n")),
    "rational_member": (rational_member, ("lams", "n")),
    "clear_denominators": (clear_denominators, ("lams", "n")),
    "member_cone": (member_cone, ("lams", "n", "m")),
    "member_single_row": (member_single_row, ("lams", "m")),
    "search_canonical": (search_canonical, ("lams",)),
    "gen_lr": (gen_lr, ("lams",)),
    "weight_of_tuple": (weight_of_tuple, ("lams", "n")),
    "horn_index_set": (horn_index_set, ("n", "m")),
    "inequality_system": (inequality_system, ("n", "m")),
    "build_star": (build_star, ("n", "m")),
    "star_dimension": (star_dimension, ("n", "m")),
    "tuple_of_weight": (tuple_of_weight, ("w", "n", "m")),
    "subsets_of_dimvector": (subsets_of_dimvector, ("b", "n", "m")),
    "dimvector_of_subsets": (dimvector_of_subsets, ("sets", "n", "at_zero")),
    "cross_check": (cross_check, ("n", "m", "bound")),
}
VALID = {
    "lams": [(1,), (2,), (1,)],
    "n": 1,
    "m": 3,
    "bound": 1,
    "w": weight_of_tuple([(1,), (2,), (1,)], 1),
    "b": dimvector_of_subsets([(1,), (), (1,)], 1, 1),
    "sets": [(1,), (), (1,)],
    "at_zero": 1,
}
READERS = ("witness_search", "witness_chain", "rational_member", "clear_denominators", "member_cone", "member_single_row")
# the closed routes certify a decreasing or sign violation rather than refuse it
ORDERED = READERS[:4]


def _taking(arg):
    return {entry for entry, (_, names) in ENTRY_POINTS.items() if arg in names}


def _bad_inputs():
    """(entry, changes, message), id "entry-case", for every case an entry point refuses."""
    cases = []
    for name, least in (("n", 1), ("m", 3), ("bound", 0)):
        for value in (2.0, 3.0, True, Fraction(3), 2, 0, -1):
            if type(value) is not int:
                cases.append((f"{name}={value!r}", {name: value}, _taking(name), f"need int {name}, got {value!r}"))
            elif value < least:
                cases.append((f"{name}={value}", {name: value}, _taking(name), f"need {name} >= {least}, got {value}"))
    # a function that takes rows but no m counts its rows as m
    given_m, counted = _taking("lams") & _taking("m"), _taking("lams") - _taking("m")
    for case, lams in (("short", [(1,), (1,)]), ("short-and-wide", [(1, 1), (1,)])):
        cases.append((case, {"lams": lams}, given_m, "expected m = 3 rows, got 2"))
        cases.append((case, {"lams": lams}, counted, "need m >= 3, got 2"))
    cases.append(("long", {"lams": [(1,)] * 4}, given_m, "expected m = 3 rows, got 4"))
    wide = [(2,), (1, 1), (1,)]
    cases.append(("wide", {"lams": wide}, set(READERS), "row 2 ('1,1') has more than n = 1 parts"))
    cases.append(("wide", {"lams": wide}, {"weight_of_tuple"}, "sequence (1, 1) longer than target length 1"))
    for case, bad in (("increasing", (1, 2)), ("negative", (1, -1))):
        changes = {"lams": [(2,), bad, (1,)], "n": 2}
        given = ",".join(map(str, bad))
        cases.append((case, changes, set(ORDERED), f"row 2 ({given!r}) is not weakly decreasing and nonnegative"))
        cases.append((case, changes, {"gen_lr"}, f"not a partition: {bad!r}"))
    cases.append(("increasing", {"lams": [(2,), (1, 2), (1,)], "n": 2}, {"weight_of_tuple"},
                  "row 2 not weakly decreasing: (1, 2)"))
    # a part that is not an int, Fraction or finite float is named, not read as a number
    for case, part in (("str", "1"), ("bool", True), ("complex", 1j), ("inf", inf), ("-inf", -inf), ("nan", nan)):
        changes = {"lams": [(part,), (2,), (1,)]}
        cases.append((case, changes, {*READERS, "weight_of_tuple"}, f"part {part!r} is not an int, Fraction or finite float"))
        cases.append((case, changes, {"gen_lr"}, f"not a partition: {(part,)!r}"))
    return [
        pytest.param(entry, changes, message, id=f"{entry}-{case}")
        for entry in ENTRY_POINTS
        for case, changes, entries, message in cases
        if entry in entries
    ]


@pytest.mark.parametrize("entry,changes,message", _bad_inputs())
def test_public_entry_points_validate_rows(entry, changes, message):
    fn, names = ENTRY_POINTS[entry]
    args = {**VALID, **changes}
    with pytest.raises(ValueError) as err:
        fn(*(args[name] for name in names))
    assert str(err.value) == message


def test_public_entry_points_accept_trailing_zeros():
    lams = [(2, 0, 0), (1, 0), (1,)]
    chain = WitnessChain(((1,), (1,), (), (1,)))
    assert witness_search(lams, 1) == SearchOutcome(chain, 3)
    assert witness_chain(lams, 1) == chain
    assert rational_member(lams, 1)
    assert rational_member([(Fraction(1, 2), 0), (Fraction(1, 2),), (0, 0)], 1)


def test_search_canonical_takes_cleared_rows():
    rows, scale = clear_denominators([(Fraction(4, 2), 0), (1, 0), (1,)], 1)
    assert (rows, scale) == ([(2,), (1,), (1,)], 1)
    assert search_canonical(rows) == witness_search(rows, 1)
    with pytest.raises(ValueError, match="need m >= 3, got 2"):
        search_canonical(rows[:2])


def test_saturation_on_small_grid():
    grid = list(partitions_in_box(1, 3))
    for lams in product(grid, repeat=3):
        once = witness_chain(lams, 1) is not None
        twice = witness_chain([tuple(2 * x for x in p) for p in lams], 1) is not None
        assert once == twice


def test_members_add():
    grid = [lams for lams in product(list(partitions_in_box(2, 2)), repeat=3)
            if witness_chain(lams, 2) is not None]
    for a, b in zip(grid[::7], grid[1::7]):
        summed = [tuple(map(sum, zip_longest(x, y, fillvalue=0))) for x, y in zip(a, b)]
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
    for n, m, bound in [(1, 3, 3), (2, 3, 2), (1, 5, 2), (1, 4, 3), (1, 6, 2)]:
        report = cross_check(n, m, bound)
        assert report.clean, report.disagreements
        assert report.total == (len(list(partitions_in_box(n, bound)))) ** m
        assert set(report.routes) <= {"inequality", "single-row"} and report.routes


def test_cross_check_routes_by_case():
    assert cross_check(2, 3, 1).routes == ("inequality",)
    assert cross_check(1, 4, 1).routes == ("single-row",)
    assert cross_check(1, 3, 1).routes == ("single-row", "inequality")


def test_cross_check_even_m_wide_rows_unroutable():
    from kleinhorn.cone import UnsupportedLengthError

    with pytest.raises(UnsupportedLengthError):
        cross_check(2, 4, 2)
    # a short tuple is a usage error even where a route exists
    with pytest.raises(ValueError) as caught:
        cross_check(1, 2, 1)
    assert str(caught.value) == "need m >= 3, got 2"
    assert not isinstance(caught.value, UnsupportedLengthError)


def test_oracle_imports_nothing_from_cone():
    # at any depth: a function-local import would couple the routes as surely
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[-1] == "cone" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[-1] != "cone"
            assert not any(alias.name == "cone" for alias in node.names)


def test_closed_routes_never_consult_the_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the witness search was consulted")

    monkeypatch.setattr(oracle, "witness_search", refuse)
    monkeypatch.setattr(oracle, "search_canonical", refuse)
    assert member_cone([(2, 1), (2, 1), (), (), ()], 2, 5).member
    assert not member_cone([(2, 1), (3,), (), (), ()], 2, 5).member
    assert member_single_row([(3,), (3,), (1,), (2,)], 4).member
    assert not member_single_row([(1,), (3,), (1,), ()], 4).member


def test_oracle_matches_cone_on_mixed_grid():
    grid = list(partitions_in_box(2, 3))
    hits = 0
    for lams in product(grid, repeat=3):
        want = member_cone(lams, 2, 3).member
        got = witness_chain(lams, 2) is not None
        assert want == got
        hits += got
    assert 0 < hits < len(grid) ** 3
