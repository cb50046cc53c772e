"""Placing combinatorics and the simplex family of k-graphs.

A placing of {0, ..., k} is a function f whose value at j equals the
number of elements placed strictly before j -- equivalently an ordered
set partition (think of a race result with ties: f(j) says how many
competitors finished strictly ahead of j).  Placings ordered pointwise
form the vertex poset of the simplex k-graph: morphisms are the
comparable pairs f <= g, composing by path concatenation, with degree
measured by the heights picked up between the two ends.

Placings are generated directly as ordered set partitions (a non-empty
first block takes the count already placed, the rest follows) and then
sorted once.  The builders work on these known-valid tables by index:
each placing's up-set is the AND of one "value at j is >= f(j)" bitmask
per coordinate, so no pair of placings is compared or re-validated.  The
public helpers (placing_id, height, tail_factor, leq, is_placing) still
validate their arguments, refusing any value that is not integral.

The simplex is a k-graph by construction (the paper proves it), so
build_simplex gives it the verdict () as if validate_kgraph had run, and
its factorisation index is built on first use; the tests hold that
verdict to the full scan for k <= 5.

The k-sphere is two copies of the simplex glued along their boundary:
the placings other than the zero placing, a hereditary set.  A wedge
glues n spheres at a pole, a co-hereditary set.  Each is one pass of
core._glue, which gives the ids, numbers and table order of the quotient
of the tagged copies by the identification.  The paper proves both are
k-graphs, so both builders keep the verdict () as build_simplex does:
"lift" holds because no morphism outside the rim reaches a rim vertex
(every one has the zero placing as its range), and only the identity
leaves a pole.  The tests hold both verdicts to the full scan.

Ids are human-readable: a placing prints as its blocks in order of
first appearance, elements within a block in decreasing order, so e.g.
"{20,1}" places 0 and 2 joint first and 1 third; the zero placing
prints as "0".  A morphism f <= g prints as "(f,g)".
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb

from .core import FiniteKGraph, _glue, _numbering, _sorted_parts
from .errors import BadArgument, HeightExceeded, OutOfBox, OutOfRange

Placing = tuple[int, ...]


def _ints(f) -> tuple[int, ...] | None:
    """The values of f as ints, or None unless each equals its int()
    (core._integral's rule, checked on the whole tuple at once)."""
    try:
        f = tuple(f)
        t = tuple(map(int, f))
    except (TypeError, ValueError, OverflowError):
        return None
    return t if t == f else None


def _as_table(f) -> Placing:
    t = _ints(f)
    if t is None:
        raise OutOfRange(f"not a function table: {f!r}")
    if not t:
        raise OutOfRange("a placing has domain {0, ..., k} with k >= 0")
    k = len(t) - 1
    for x in t:
        if x < 0 or x > k:
            raise OutOfRange(f"value {x} lies outside 0..{k}")
    return t


def _placing(f) -> Placing:
    """The table of f, checked to be a placing (else OutOfRange)."""
    t = _as_table(f)
    # sorted, each new value must be its index (the count of values before it)
    prev = 0
    for i, v in enumerate(sorted(t)):
        if v != prev and v != i:
            raise OutOfRange(f"{t} is not a placing")
        prev = v
    return t


def is_placing(f) -> bool:
    """Whether every value of f equals the count of strictly smaller values."""
    try:
        _placing(f)
    except OutOfRange:
        return False
    return True


def enumerate_placings(k: int) -> list[Placing]:
    """All placings of {0, ..., k}, lexicographically.  (Their number is the
    k+1-st ordered Bell number: 1, 3, 13, 75, 541, ...)"""
    if not isinstance(k, int) or k < 0:
        raise OutOfRange("k must be an integer >= 0")
    n = k + 1
    if n >= sys.maxsize.bit_length():  # more subsets of {0, ..., k} than a list holds
        raise OutOfRange(f"k = {k} is too large to list placings")
    members = [[j for j in range(n) if m >> j & 1] for m in range(1 << n)]
    out: list[Placing] = []
    table = [0] * n

    def place(rest: int, count: int) -> None:
        # every non-empty subset of the unplaced points can come next
        if not rest:
            out.append(tuple(table))
            return
        block = rest
        while block:
            for j in members[block]:
                table[j] = count
            place(rest & ~block, count + len(members[block]))
            block = (block - 1) & rest

    place((1 << n) - 1, 0)
    out.sort()
    return out


def count_placings(k: int) -> int:
    """The number of placings of {0, ..., k} without listing them: the
    ordered Bell number a(k+1), where a(n) = sum_j C(n, j) a(n - j)."""
    if not isinstance(k, int) or k < 0:
        raise OutOfRange("k must be an integer >= 0")
    if k >= sys.maxsize:  # the recurrence keeps k + 2 terms
        raise OutOfRange(f"k = {k} is too large to count placings")
    a = [1]
    for n in range(1, k + 2):
        a.append(sum(comb(n, j) * a[n - j] for j in range(1, n + 1)))
    return a[k + 1]


def _pid(t: Placing) -> str:
    if not any(t):
        return "0"
    blocks = [""] * len(t)  # the points of each value, in decreasing order
    for j, v in enumerate(t):
        blocks[v] = str(j) + blocks[v]
    return "{" + ",".join(filter(None, blocks)) + "}"


def _height(t: Placing) -> tuple[int, ...]:
    vals = set(t)
    return tuple(1 if i in vals else 0 for i in range(1, len(t)))


def placing_id(f) -> str:
    """Canonical human-readable id, e.g. (0,2,0) -> "{20,1}"."""
    return _pid(_placing(f))


def height(f) -> tuple[int, ...]:
    """The 0-1 vector recording which of 1..k occur as values of f."""
    return _height(_as_table(f))


def tail_factor(f, z) -> Placing:
    """The unique placing g <= f with height exactly z (needs z <= height(f)).

    Each value of f drops to the largest level at or below it that z keeps
    (level 0 is always kept)."""
    t = _as_table(f)
    k = len(t) - 1
    z = _ints(z)
    if z is None or len(z) != k or any(x not in (0, 1) for x in z):
        raise BadArgument(f"z must be a 0-1 vector of length {k}")
    h = height(t)
    if any(zi > hi for zi, hi in zip(z, h)):
        raise HeightExceeded(f"{z} is not dominated by height {h}")
    kept = [0] + [i for i in range(1, k + 1) if z[i - 1] == 1]
    g = tuple(max(j for j in kept if j <= v) for v in t)
    return g


def leq(f, g) -> bool:
    """Pointwise order on placings of the same {0, ..., k}."""
    s, t = _as_table(f), _as_table(g)
    if len(s) != len(t):
        raise OutOfRange(f"{s} and {t} have different domains")
    return all(a <= b for a, b in zip(s, t))


# ---------------------------------------------------------------------------
# embeddings


def basis_point(f, n: int) -> tuple[Fraction, ...]:
    """The barycentre of the face spanned by everything f places before
    level n (a convex combination of n basis vectors, so its l1 norm is 1)."""
    t = _placing(f)
    if n < 1 or n not in t:
        raise OutOfRange(f"{n} is not a positive value of the placing")
    members = [j for j, v in enumerate(t) if v < n]
    share = Fraction(1, len(members))
    return tuple(share if j in members else Fraction(0) for j in range(len(t)))


def embed(f, t) -> tuple[Fraction, ...]:
    """Evaluate the realisation map of the cube at f on a point of its box.

    The box coordinate t has one slot per direction 1..k; slots outside
    the height of f must be 0, all slots must lie in [0, 1] (else
    OutOfBox).  At 0 the map gives the barycentre of the whole simplex;
    the vertex itself sits at embed(f, height(f)).  Exact rational
    arithmetic throughout.
    """
    table = _placing(f)
    k = len(table) - 1
    try:
        point = tuple(Fraction(x) for x in t)
    except (TypeError, ValueError, OverflowError):
        raise OutOfBox(f"not a box point: {t!r}") from None
    if len(point) != k:
        raise OutOfBox(f"box point needs {k} coordinates, got {len(point)}")
    h = height(table)
    for i, (x, hi) in enumerate(zip(point, h), start=1):
        if x < 0 or x > 1:
            raise OutOfBox(f"coordinate {i} = {x} is outside [0, 1]")
        if x > 0 and hi == 0:
            raise OutOfBox(f"the cube at {placing_id(table)} has no extent in direction {i}")

    sup = max(point) if point else Fraction(0)
    centre = Fraction(1, k + 1)
    out = [(1 - sup) * centre] * (k + 1)
    if sup > 0:
        scale = sup / sum(point)
        for n in range(1, k + 1):
            x = point[n - 1]
            if x > 0:
                w = x * scale
                for j, c in enumerate(basis_point(table, n)):
                    out[j] += w * c
    return tuple(out)


def _level_weights(values, size: int) -> dict[int, Fraction]:
    """Coordinate j of the vertex point of a placing with these values, on
    {0, ..., size - 1}, by its value at j.  The vertex weights the basis
    points of its L positive levels equally, and the basis point of level n
    spreads 1 over the n points placed before it, so coordinate j is the
    sum of 1/(L n) over the levels n above t(j)."""
    levels = sorted(set(values) - {0}, reverse=True)
    if not levels:
        return {0: Fraction(1, size)}
    above = {}
    acc = Fraction(0)
    for n in levels:
        above[n] = acc / len(levels)
        acc += Fraction(1, n)
    above[0] = acc / len(levels)
    return above


# ---------------------------------------------------------------------------
# builders


def _up_sets(placings: list[Placing]) -> list[int]:
    """For each placing f, the bitmask of the indices of all g >= f.

    ge[j][v] holds the placings whose value at j is at least v, so the
    up-set of f is the AND of ge[j][f(j)] over the k+1 coordinates."""
    n = len(placings[0])
    ge = [[0] * (n + 1) for _ in range(n)]
    for i, f in enumerate(placings):
        for j, v in enumerate(f):
            ge[j][v] |= 1 << i
    for row in ge:
        for v in range(n - 1, -1, -1):
            row[v] |= row[v + 1]
    ups = []
    for f in placings:
        mask = -1
        for j, v in enumerate(f):
            mask &= ge[j][v]
        ups.append(mask)
    return ups


def _indices(mask: int) -> list[int]:
    """The set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def build_simplex(k: int) -> FiniteKGraph:
    """The simplex k-graph: placings as vertices, comparable pairs as
    morphisms, degree the height gained.  A k-graph by construction, it
    keeps the verdict () without a scan.  Carries an exact embedding of
    its vertices into the standard k-simplex."""
    placings = enumerate_placings(k)
    pids = [_pid(f) for f in placings]
    # a degree is the height gained, so one tuple serves each pair of heights
    heights = list(map(_height, placings))
    code = {h: c for c, h in enumerate(dict.fromkeys(heights))}
    hc = [code[h] for h in heights]
    gained = [[tuple(b - a for a, b in zip(x, y)) for y in code] for x in code]

    # numbered as built: the placings, then each placing's morphisms up;
    # above[i] = {j: number of the morphism} for the placings strictly above
    # placing i, in lexicographic order (g > f pointwise puts g after f)
    n = len(pids)
    ids, deg, r, s = list(pids), [(0,) * k] * n, list(range(n)), list(range(n))
    above: list[dict[int, int]] = []
    for i, up in enumerate(_up_sets(placings)):
        js = _indices(up & ~(1 << i))
        above.append(dict(zip(js, range(len(ids), len(ids) + len(js)))))
        pre, gain = f"({pids[i]},", gained[hc[i]]
        ids += [f"{pre}{pids[j]})" for j in js]
        deg += [gain[hc[j]] for j in js]
        r += [i] * len(js)
        s += js
    ids, order, new, at = _numbering(ids)
    above = [{j: new[x] for j, x in row.items()} for row in above]

    table = {}
    for row in above:
        for j, ab in row.items():
            for h, bc in above[j].items():
                table[(ab, bc)] = row[h]

    # placing ids are distinct and "(f,g)" ids parse back to their pair; a
    # placing strictly above another has a strictly larger height
    isv = [1] * n + [0] * (len(ids) - n)
    r, s = [new[x] for x in r], [new[x] for x in s]
    graph = FiniteKGraph._from_parts(*_sorted_parts(int(k), order, at, deg, r, s, isv, table))
    graph._violations = ()  # a k-graph by construction (see the module notes)
    # a vertex's point depends only on the set of values its placing takes
    weights = {vals: _level_weights(vals, k + 1) for vals in set(map(frozenset, placings))}
    points = (tuple(map(weights[frozenset(f)].__getitem__, f)) for f in placings)
    graph.embedding = dict(zip(pids, points))
    return graph


def build_sphere(k: int) -> FiniteKGraph:
    """The k-sphere: two copies of the simplex, "(0,m)" and "(1,m)", glued
    along the boundary (every placing but the zero placing), a hereditary
    set: each morphism whose range is not the zero placing is one with its
    copy.  A k-graph by construction, it keeps the verdict () (see the
    module notes).  Carries an embedding with one extra coordinate (the
    two copies of the barycentre become the poles)."""
    simplex = build_simplex(k)
    points, zero = simplex.embedding, simplex._at["0"]
    rim = {m: m for m, x in enumerate(simplex._r) if x != zero}
    sphere = _glue([simplex, simplex], ["(0,{})", "(1,{})"], rim)
    sphere._violations = ()  # a k-graph by construction

    embedding = {}
    for v, base in points.items():
        if v == "0":
            delta = min(base)
            embedding["(0,0)"] = base + (delta,)
            embedding["(1,0)"] = base + (-delta,)
        else:
            # boundary vertices carry a zero extra coordinate and are shared
            embedding[f"(0,{v})"] = base + (Fraction(0),)
    sphere.embedding = embedding
    return sphere


def sphere_pole(k: int, copy: int = 0) -> str:
    """The vertex id of the given copy's barycentre in build_sphere(k)."""
    if copy not in (0, 1):
        raise BadArgument("copy must be 0 or 1")
    if not isinstance(k, int) or k < 0:
        raise OutOfRange("a placing has domain {0, ..., k} with k >= 0")
    return f"({copy},0)"  # the zero placing prints as "0" for every k


def build_wedge(k: int, n: int) -> FiniteKGraph:
    """n copies of the k-sphere, tagged "1:" to "n:", glued at their 0-side
    poles: only identities leave a pole, so it is a co-hereditary set.  The
    pole is named by its least id ("10:(0,0)" once n >= 10, as "0" sorts
    before ":").  A k-graph by construction, as build_sphere's output is;
    carries no embedding."""
    if not isinstance(n, int) or n < 1:
        raise BadArgument("a wedge needs n >= 1 spheres")
    sphere = build_sphere(k)
    pole = sphere._at[sphere_pole(k, 0)]
    wedge = _glue([sphere] * n, [f"{t}:{{}}" for t in range(1, n + 1)], {pole: pole})
    wedge._violations = ()  # a k-graph by construction
    return wedge
