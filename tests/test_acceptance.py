"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Verdict lines are collected in RESULTS and echoed by the terminal-summary
hook in conftest.py, so they appear even though pytest captures stdout.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction
from itertools import product

from bruteforce import dominates, unit_coefficient_triples, partitions_of

from kleinhorn.cone import (
    cross_check,
    horn_index_set,
    inequality_system,
    interior_point,
    member_single_row,
)
from kleinhorn.oracle import chain_is_valid, witness_search
from kleinhorn.partitions import (
    conjugate,
    normalize,
    partitions_in_box,
    subpartitions,
)
from kleinhorn.quiver import (
    dimvector_of_subsets,
    star_dimension,
    subsets_of_dimvector,
    tuple_of_weight,
    weight_of_tuple,
    weight_pairing,
)
from kleinhorn.tableaux import gen_lr, lr_coefficient, lr_complements, kostka_number
from kleinhorn.cli import main as cli_main


RESULTS: list[str] = []


def criterion(num: int, text: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                RESULTS.append(f"[FAIL] criterion {num}: {text}")
                print(RESULTS[-1])
                raise
            RESULTS.append(f"[PASS] criterion {num}: {text}")
            print(RESULTS[-1])

        return inner

    return wrap


@criterion(1, "witness search and inequality system agree on every grid tuple")
def test_routes_agree_on_grids():
    start = time.perf_counter()
    for n, m, bound in [(1, 3, 4), (2, 3, 3), (1, 5, 3), (2, 5, 2), (3, 3, 2)]:
        report = cross_check(n, m, bound)
        assert report.clean, (n, m, bound, report.disagreements[:3])
    assert time.perf_counter() - start < 300


@criterion(2, "qualifying index tuples for m=3 match the brute-force unit-coefficient triples")
def test_index_set_matches_bruteforce_m3():
    for n in (2, 3):
        got = list(horn_index_set(n, 3))
        assert got == unit_coefficient_triples(n)
    nontrivial = [sets for sets in horn_index_set(2, 3) if any(sets)]
    assert len(nontrivial) == 3


@criterion(3, "even-length tuple (3;3;1;2) is a member although the alternating size comparison fails")
def test_even_length_member_beyond_alternating_test():
    lams = [(3,), (3,), (1,), (2,)]
    outcome = witness_search(lams, 1)
    assert outcome.chain is not None
    assert chain_is_valid(outcome.chain, lams)
    even_sizes = 3 + 2
    odd_sizes = 3 + 1
    assert not (even_sizes <= odd_sizes)  # the naive size test would reject it
    assert cli_main(["decide", "-n", "1", "-m", "4", "3;3;1;2"]) == 0


@criterion(4, "single-row window criterion equals the witness search for m in 3..7")
def test_single_row_equals_oracle():
    start = time.perf_counter()
    for m in range(3, 8):
        for vals in product(range(5), repeat=m):
            rows = [(v,) if v else () for v in vals]
            window = member_single_row(rows, m).member
            oracle = witness_search(rows, 1).chain is not None
            assert window == oracle, (m, vals)
    assert time.perf_counter() - start < 60


@criterion(5, "membership is saturated: a tuple belongs iff its double belongs")
def test_saturation():
    # Knutson-Tao proves m = 3; the even-m grids only check scale invariance
    for n, m, bound in [(2, 3, 2), (2, 4, 4), (3, 4, 2), (2, 6, 2)]:
        grid = list(partitions_in_box(n, bound))
        for lams in product(grid, repeat=m):
            once = witness_search(lams, n).chain is not None
            doubled = [tuple(2 * x for x in p) for p in lams]
            twice = witness_search(doubled, n).chain is not None
            assert once == twice, lams


@criterion(6, "the solution cone is full-dimensional: strict interior points exist")
def test_interior_points():
    for n, m in [(1, 3), (2, 3), (1, 5), (2, 5)]:
        point = interior_point(n, m)
        assert all(iq.value(point) < 0 for iq in inequality_system(n, m))


@criterion(7, "coefficient identities: symmetry, conjugation, vanishing, dominance, chaining")
def test_coefficient_identities():
    lams = [p for size in range(9) for p in partitions_of(size, size or 1)]
    for lam in lams:
        seen = {}
        for mu in subpartitions(lam):
            for nu, c in lr_complements(lam, mu):
                assert c == lr_coefficient(lam, mu, nu)
                assert c >= 1
                seen[(mu, nu)] = c
                assert lr_coefficient(conjugate(lam), conjugate(mu), conjugate(nu)) == c
        for (mu, nu), c in seen.items():
            assert seen[(nu, mu)] == c
        # sizes that cannot telescope give zero
        assert lr_coefficient(lam, lam, (1,)) == 0 or lam == ()
    for size in range(8):
        for lam in partitions_of(size, size or 1):
            for mu in partitions_of(size, size or 1):
                assert (kostka_number(lam, mu) > 0) == dominates(lam, mu)
    grid = list(partitions_in_box(2, 2))
    for a, b, c in product(grid, repeat=3):
        assert gen_lr([a, b, c]) == lr_coefficient(b, a, c)


@criterion(8, "weight and dimension-vector dictionaries are exact mutual inverses")
def test_dictionary_roundtrips():
    for n in range(1, 5):
        for m in range(3, 6):
            subset_tuples = list(product(_subsets(n), repeat=m))
            zeros = (0, 1) if len(subset_tuples) <= 70_000 else (0,)
            for sets in subset_tuples:
                for at_zero in zeros:
                    beta = dimvector_of_subsets(sets, n, at_zero)
                    back = subsets_of_dimvector(beta, n, m)
                    assert back == sets
    for lams in product(list(partitions_in_box(2, 2)), repeat=3):
        w = weight_of_tuple(lams, 2)
        back = tuple_of_weight(w, 2, 3)  # rows come back padded to n parts
        assert tuple(normalize(row) for row in back) == tuple(lams)
        assert weight_pairing(w, star_dimension(2, 3)) == 0
    frac = ((Fraction(5, 2), 1), (Fraction(3, 2), Fraction(1, 2)), (), (), ())
    w = weight_of_tuple(frac, 2)
    back = tuple_of_weight(w, 2, 5)
    assert all(tuple(row) + (0,) * (2 - len(row)) == got for row, got in zip(frac, back))


def _subsets(n):
    out = [()]
    for x in range(1, n + 1):
        out += [s + (x,) for s in out]
    return sorted(out)
