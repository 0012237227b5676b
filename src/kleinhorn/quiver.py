"""The star-shaped flag quiver, its dimension vectors, and weight arithmetic.

Vertices are labelled (j, i) for flag position j in 1..n on arm i in 1..m,
plus the apex (0, 0).  Dimension vectors and weights are plain dicts keyed by
vertex; weights may carry Fractions.  The Euler form and all pairings are
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .partitions import check_size, check_subset, is_weakly_decreasing, pad_to, scale_rows

Vertex = tuple[int, int]
APEX: Vertex = (0, 0)


@dataclass(frozen=True)
class Quiver:
    """Finite quiver with multiplicities; arrows are (tail, head, count) triples."""

    n: int
    m: int
    vertices: tuple[Vertex, ...]
    arrows: tuple[tuple[Vertex, Vertex, int], ...]


def build_star(n: int, m: int) -> Quiver:
    """Star of m equioriented flags of length n glued along a chain at the apex.

    Even arms point into their long-end vertex, odd arms point out of it;
    the apex sends n parallel arrows to arm 1 and exchanges n arrows with
    arm m (outgoing for odd m, incoming for even m).  The result is acyclic:
    every arrow goes forward in the order even-arm vertices by ascending j,
    then the apex, then odd-arm vertices by descending j.  Flag arrows climb an
    even arm and descend an odd one, a chain arrow joins the even one of two
    neighbouring arms to the odd one, and the apex bundles go to the odd arms
    1 and m, or come from the even arm m.
    """
    check_size("n", n, 1)
    check_size("m", m, 3)
    vertices = (APEX,) + tuple((j, i) for i in range(1, m + 1) for j in range(1, n + 1))
    arrows: list[tuple[Vertex, Vertex, int]] = []
    for i in range(1, m + 1):
        for j in range(1, n):
            if i % 2 == 0:
                arrows.append(((j, i), (j + 1, i), 1))
            else:
                arrows.append(((j + 1, i), (j, i), 1))
    for i in range(1, m):
        if i % 2 == 1:
            arrows.append(((n, i + 1), (n, i), 1))
        else:
            arrows.append(((n, i), (n, i + 1), 1))
    arrows.append((APEX, (n, 1), n))
    if m % 2 == 1:
        arrows.append((APEX, (n, m), n))
    else:
        arrows.append(((n, m), APEX, n))
    return Quiver(n, m, vertices, tuple(sorted(arrows)))


@cache
def _vertex_keys(n: int, m: int) -> frozenset[Vertex]:
    return frozenset({APEX} | {(j, i) for i in range(1, m + 1) for j in range(1, n + 1)})


def _require_star_keys(v: dict, n: int, m: int) -> None:
    if v.keys() != _vertex_keys(n, m):
        raise ValueError("vector not indexed by the star quiver's vertices")


def star_dimension(n: int, m: int) -> dict[Vertex, int]:
    """The sincere dimension vector: j at flag vertex (j, i), 1 at the apex."""
    check_size("n", n, 1)
    check_size("m", m, 3)
    d: dict[Vertex, int] = {APEX: 1}
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            d[(j, i)] = j
    return d


def euler_form(q: Quiver, a: dict, b: dict):
    """Sum of a(x)b(x) over vertices minus sum of a(tail)b(head) over arrows."""
    _require_star_keys(a, q.n, q.m)
    _require_star_keys(b, q.n, q.m)
    s = sum(a[x] * b[x] for x in q.vertices)
    s -= sum(mult * a[t] * b[h] for t, h, mult in q.arrows)
    return s


def weight_pairing(s: dict, b: dict):
    """Pointwise product summed over the common vertex index set."""
    if set(s.keys()) != set(b.keys()):
        raise ValueError("weight and dimension vector indexed differently")
    return sum(s[x] * b[x] for x in s)


def weight_of_tuple(lams, n: int) -> dict[Vertex, object]:
    """Weight attached to a tuple of weakly decreasing rows (length <= n each).

    Flag vertex (j, i) carries the signed row difference
    (-1)^i (lam(i)_j - lam(i)_{j+1}); the apex carries the alternating sum of
    row sizes (odd positions minus even).  Pairs to zero with the sincere
    dimension vector.  A part that is not an int, Fraction or finite float
    is refused as partitions.scale_rows refuses it; every other part keeps
    its value, so int and Fraction weights are exact.
    """
    check_size("n", n, 1)
    check_size("m", len(lams), 3)
    scale_rows(lams)  # for its check of each part; the scaled rows are not used
    rows = []
    for idx, lam in enumerate(lams, 1):
        row = pad_to(tuple(lam), n)
        if not is_weakly_decreasing(row):
            raise ValueError(f"row {idx} not weakly decreasing: {tuple(lam)!r}")
        rows.append(row)
    w: dict[Vertex, object] = {}
    apex = 0
    for i, row in enumerate(rows, 1):
        sign = -1 if i % 2 else 1
        apex -= sign * sum(row)
        for j in range(1, n + 1):
            nxt = row[j] if j < n else 0
            w[(j, i)] = sign * (row[j - 1] - nxt)
    w[APEX] = apex
    return w


def tuple_of_weight(w: dict, n: int, m: int):
    """Invert weight_of_tuple: rows of signed suffix sums along each arm.

    Requires the chamber inequalities ((-1)^i w(j, i) >= 0 for all flags) and
    a zero pairing against the sincere dimension vector; raises ValueError
    otherwise, as for n < 1 or m < 3.  Returns m weakly decreasing nonnegative
    rows of length n.
    """
    check_size("n", n, 1)
    check_size("m", m, 3)
    _require_star_keys(w, n, m)
    for i in range(1, m + 1):
        sign = -1 if i % 2 else 1
        for j in range(1, n + 1):
            if sign * w[(j, i)] < 0:
                raise ValueError(f"chamber inequality fails at vertex {(j, i)}")
    # the pairing with star_dimension(n, m), whose keys were just checked
    if w[APEX] + sum(j * w[(j, i)] for i in range(1, m + 1) for j in range(1, n + 1)) != 0:
        raise ValueError("weight does not pair to zero with the sincere dimension vector")
    rows = []
    for i in range(1, m + 1):
        sign = -1 if i % 2 else 1
        row = []
        acc = 0
        for j in range(n, 0, -1):
            acc += w[(j, i)]
            row.append(sign * acc)
        rows.append(tuple(reversed(row)))
    return tuple(rows)


def dimvector_of_subsets(sets, n: int, at_zero: int) -> dict[Vertex, int]:
    """Dimension vector counting, on arm i, the elements of sets[i-1] at most j.

    Each subset must be a strictly increasing tuple inside 1..n, with n >= 1;
    raises ValueError otherwise.
    """
    check_size("n", n, 1)
    d: dict[Vertex, int] = {APEX: at_zero}
    for i, s in enumerate(sets, 1):
        check_subset(s, n)
        count = 0  # elements of the sorted subset s that are at most j
        for j in range(1, n + 1):
            if count < len(s) and s[count] == j:
                count += 1
            d[(j, i)] = count
    return d


def subsets_of_dimvector(b: dict, n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Invert dimvector_of_subsets: the m tuples of jump positions, one per arm.

    Requires every arm to be weakly increasing from 0 in steps of 0 or 1;
    raises ValueError otherwise, as for n < 1 or m < 3.  The apex value is
    ignored.
    """
    check_size("n", n, 1)
    check_size("m", m, 3)
    _require_star_keys(b, n, m)
    sets = []
    for i in range(1, m + 1):
        prev = 0
        jumps = []
        for j in range(1, n + 1):
            height = b[(j, i)]
            if height == prev + 1:
                jumps.append(j)
            elif height != prev:
                raise ValueError(f"arm {i} is not a unit-jump profile at height {j}")
            prev = height
        sets.append(tuple(jumps))
    return tuple(sets)


def _json_value(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    return x


def quiver_to_json_dict(q: Quiver) -> dict:
    return {
        "n": q.n,
        "m": q.m,
        "vertices": [list(x) for x in q.vertices],
        "arrows": [[list(t), list(h), mult] for t, h, mult in q.arrows],
    }


def vector_to_json_dict(q: Quiver, v: dict) -> dict:
    """Values listed in the quiver's canonical vertex order."""
    _require_star_keys(v, q.n, q.m)
    return {
        "vertices": [list(x) for x in q.vertices],
        "values": [_json_value(v[x]) for x in q.vertices],
    }
