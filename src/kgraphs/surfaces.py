"""Compact surfaces as rank-2 skeletons, and their connected sums.

The catalog covers the sphere S, torus T, Klein bottle K and projective
plane P.  Each catalog skeleton is a small two-coloured digraph with a
complete set of commuting squares, marked with a top vertex u (only
receives edges), a bottom vertex v (only emits edges), and one marked
square joining them; connected sums cut the marked squares open and
cross-glue the flaps.

The catalog square sets are frozen constants, certified by their
homology; `regenerate_squares` re-derives them by searching the
endpoint-preserving pairings of two-colour paths that contain the
marked square and have the right homology, taking the least such set.
The catalog is constant data, so it is certified once, by the tests
(validation, homology and marking), and not at run time; every
`basic_surface` call returns a fresh skeleton.
"""

from __future__ import annotations

import itertools

from .core import Skeleton2Graph, Square, _Record, _set, validate_skeleton
from .errors import BadMarking, BadSurfaceSpec, InvalidModel
from .homology import chain_complex, homology


# Catalog digraphs, edges written (range, source) == (head, tail).  The
# torus and the Klein bottle share a digraph and differ only in squares.
_TORUS_DIGRAPH = {
    "vertices": ["u", "v", "w", "x"],
    "blue": {"a": ("w", "v"), "b": ("w", "v"), "c": ("u", "x"), "d": ("u", "x")},
    "red": {"e": ("x", "v"), "f": ("x", "v"), "g": ("u", "w"), "h": ("u", "w")},
}
_DIGRAPHS: dict[str, dict] = {
    "S": {
        "vertices": ["u", "v", "w", "x", "y", "z"],
        "blue": {"a": ("w", "v"), "b": ("w", "y"), "c": ("u", "x"), "d": ("z", "x")},
        "red": {"e": ("x", "v"), "f": ("x", "y"), "g": ("u", "w"), "h": ("z", "w")},
    },
    "T": _TORUS_DIGRAPH,
    "K": _TORUS_DIGRAPH,
    "P": {
        "vertices": ["u", "v", "w", "x", "y"],
        "blue": {"a": ("w", "v"), "b": ("w", "x"), "c": ("u", "y"), "d": ("u", "y")},
        "red": {"e": ("y", "v"), "f": ("y", "x"), "g": ("u", "w"), "h": ("u", "w")},
    },
}

_MARKED_SQUARE: Square = ("c", "e", "g", "a")

# (betti, torsion) per dimension 0, 1, 2
_EXPECTED_HOMOLOGY = {
    "S": ((1, ()), (0, ()), (1, ())),
    "T": ((1, ()), (2, ()), (1, ())),
    "K": ((1, ()), (1, (2,)), (0, ())),
    "P": ((1, ()), (0, (2,)), (0, ())),
}

# Frozen catalog square sets, as found by regenerate_squares (a test keeps
# them honest).  For T there are two torus-homology candidates containing
# the marked square and this is the least; for S and P the set is unique.
_FROZEN_SQUARES: dict[str, tuple[Square, ...]] = {
    "S": (("c", "e", "g", "a"), ("c", "f", "g", "b"), ("d", "e", "h", "a"), ("d", "f", "h", "b")),
    "T": (("c", "e", "g", "a"), ("c", "f", "g", "b"), ("d", "e", "h", "a"), ("d", "f", "h", "b")),
    "K": (("c", "e", "g", "a"), ("c", "f", "g", "b"), ("d", "e", "h", "b"), ("d", "f", "h", "a")),
    "P": (("c", "e", "g", "a"), ("c", "f", "h", "b"), ("d", "e", "h", "a"), ("d", "f", "g", "b")),
}


class SurfaceSummand(_Record):
    """One catalog summand tag: S, T, K or P."""

    __slots__ = ("tag",)
    tag: str

    def __init__(self, tag: str):
        if tag not in _DIGRAPHS:
            raise BadSurfaceSpec(f"unknown surface tag {tag!r} (use S, T, K or P)")
        _set(self, "tag", tag)


class MarkedSkeleton(_Record):
    """A surface skeleton with the marking used by connected sums."""

    __slots__ = ("skeleton", "u", "v", "square")
    skeleton: Skeleton2Graph
    u: str
    v: str
    square: Square

    def __init__(self, skeleton: Skeleton2Graph, u: str, v: str, square: Square):
        _set(self, "skeleton", skeleton)
        _set(self, "u", u)
        _set(self, "v", v)
        _set(self, "square", square)


def validate_marking(ms: MarkedSkeleton) -> list[str]:
    """All broken marking invariants, as human-readable strings."""
    sk = ms.skeleton
    problems = []
    if ms.u not in sk.vertices:
        problems.append(f"marked vertex u = {ms.u!r} is not a vertex")
    if ms.v not in sk.vertices:
        problems.append(f"marked vertex v = {ms.v!r} is not a vertex")
    if ms.square not in sk.squares:
        problems.append(f"marked square {ms.square} is not a square of the skeleton")
        return problems
    for e, rec in itertools.chain(sk.blue.items(), sk.red.items()):
        if rec.s == ms.u:
            problems.append(f"edge {e!r} leaves the top vertex u")
        if rec.r == ms.v:
            problems.append(f"edge {e!r} enters the bottom vertex v")
    f, g, g2, f2 = ms.square
    if f in sk.blue and sk.blue[f].r != ms.u:
        problems.append("the marked square's first blue edge must end at u")
    if g in sk.red and sk.red[g].s != ms.v:
        problems.append("the marked square's first red edge must start at v")
    if f in sk.blue and g2 in sk.red:
        corners = (ms.u, sk.blue[f].s, sk.red[g2].s, ms.v)
        if len(set(corners)) != 4:
            problems.append(f"the marked square's corners {corners} are not distinct")
    return problems


def regenerate_squares(tag: str) -> tuple[Square, ...]:
    """Search the catalog digraph for its certified square set.

    Candidates are the endpoint-preserving bijections between composable
    blue-red and red-blue paths that contain the marked square; the
    certificate is the surface's homology.  Returns the least passing
    set.
    """
    data = _DIGRAPHS[SurfaceSummand(tag).tag]
    blue, red = data["blue"], data["red"]
    br = [
        (F, G)
        for F in sorted(blue)
        for G in sorted(red)
        if blue[F][1] == red[G][0]  # source of F == range of G
    ]
    rb = [
        (G2, F2)
        for G2 in sorted(red)
        for F2 in sorted(blue)
        if red[G2][1] == blue[F2][0]
    ]

    def path_ends(kind, pair):
        if kind == "br":
            F, G = pair
            return (blue[F][0], red[G][1])
        G2, F2 = pair
        return (red[G2][0], blue[F2][1])

    groups: dict[tuple[str, str], tuple[list, list]] = {}
    for p in br:
        groups.setdefault(path_ends("br", p), ([], []))[0].append(p)
    for p in rb:
        groups.setdefault(path_ends("rb", p), ([], []))[1].append(p)
    for ends, (lhs, rhs) in groups.items():
        if len(lhs) != len(rhs):
            raise InvalidModel(
                f"catalog digraph {tag}: {len(lhs)} blue-red but {len(rhs)} "
                f"red-blue paths between {ends}"
            )

    keys = sorted(groups)
    winners = []
    for perms in itertools.product(
        *(itertools.permutations(groups[k][1]) for k in keys)
    ):
        squares = []
        for k, perm in zip(keys, perms):
            for (F, G), (G2, F2) in zip(groups[k][0], perm):
                squares.append((F, G, G2, F2))
        squares = tuple(sorted(squares))
        if _MARKED_SQUARE not in squares:
            continue
        sk = Skeleton2Graph(data["vertices"], blue, red, squares)
        if validate_skeleton(sk):
            continue
        found = tuple((h.betti, h.torsion) for h in homology(chain_complex(sk)))
        if found == _EXPECTED_HOMOLOGY[tag]:
            winners.append(squares)
    if not winners:
        raise InvalidModel(f"no square set with the right homology for {tag!r}")
    return min(winners)


def basic_surface(tag) -> MarkedSkeleton:
    """The catalog skeleton for S, T, K or P, marked.

    Every call returns a fresh skeleton, so no caller can change what
    another one gets.
    """
    tag = tag.tag if isinstance(tag, SurfaceSummand) else SurfaceSummand(str(tag)).tag
    data = _DIGRAPHS[tag]
    sk = Skeleton2Graph(data["vertices"], data["blue"], data["red"], _FROZEN_SQUARES[tag])
    return MarkedSkeleton(sk, "u", "v", _MARKED_SQUARE)


# ---------------------------------------------------------------------------
# connected sums


class _Renaming(dict):
    """A summand's new names: the ids it holds, and any other name (an
    endpoint that is not a vertex, an edge a square names but the summand
    lacks) with the summand's suffix appended."""

    def __init__(self, ids, suffix: str):
        super().__init__(zip(ids, [x + suffix for x in ids]))
        self.suffix = suffix

    def __missing__(self, name):
        return name + self.suffix


def _splice(summands: list[MarkedSkeleton]) -> MarkedSkeleton:
    """The connected sum of one or more marked summands, in one pass.

    Summand i's ids get the fewest appended primes that free them from
    the ids placed before it.  The cut-open marked squares are re-paired
    in a cycle: summand i is closed by (f_i, g_i, g2_{i-1}, f2_{i-1}),
    and the square closing summand 0 marks the result.  That is what a
    left fold of `connected_sum` builds, validated once instead of per
    step.

    The prime search skips ahead.  For each id x, every name x plus
    fewer than free[x] primes is taken; that stays true because placed
    ids are only ever added.  A summand's search starts at the largest
    free[x] over its ids: no shorter suffix frees all of them.  While
    some id x is blocked at the current count, the count moves past x's
    run of taken names, none of which frees x; free[x] becomes the run's
    end only when the run began at free[x], so that every count below it
    is taken.  The first count with no blocker is then the least suffix
    that frees every id, which is what adding one prime at a time finds.
    Edges are scanned first: every catalog piece has the edge a, which
    blocks at its own free count, so in `compact_surface` each summand
    costs about one pass over its ids and the search is linear in the
    number of summands.
    """
    for i, ms in enumerate(summands):
        problems = validate_marking(ms)
        if problems:
            raise BadMarking(f"{'right' if i else 'left'} summand: " + "; ".join(problems))

    top, bottom = summands[0].u, summands[0].v
    vertices, taken, blue, red, squares, marked = set(), set(), {}, {}, [], []
    free: dict[str, int] = {}
    for ms in summands:
        sk = ms.skeleton
        ids = [*sk.blue, *sk.red, *sk.vertices]
        k = max(map(free.get, ids, itertools.repeat(0)))
        primes = "'" * k
        while (blocker := next((x for x in ids if x + primes in taken), None)) is not None:
            start = k
            while blocker + primes in taken:
                k += 1
                primes += "'"
            if start == free.get(blocker, 0):
                free[blocker] = k

        new = _Renaming(ids, primes)
        squares += [tuple(map(new.__getitem__, sq)) for sq in sk.squares if sq != ms.square]
        marked.append(tuple(map(new.__getitem__, ms.square)))
        # u and v merge into the first summand's; a square naming them
        # (a broken one) has kept their primed names above
        new[ms.u], new[ms.v] = top, bottom
        vertices.update(map(new.__getitem__, sk.vertices))
        for table, edges in ((blue, sk.blue), (red, sk.red)):
            table.update((new[e], (new[rec.r], new[rec.s])) for e, rec in edges.items())
        taken.update(new.values())
    closing = [
        (f, g, g2, f2) for (f, g, _, _), (_, _, g2, f2) in zip(marked, marked[-1:] + marked)
    ]

    out = Skeleton2Graph(vertices, blue, red, squares + closing)
    problems = validate_skeleton(out)
    if problems:
        raise InvalidModel(f"connected sum fails validation: {problems[0]}")
    return MarkedSkeleton(out, top, bottom, closing[0])


def connected_sum(a: MarkedSkeleton, b: MarkedSkeleton) -> MarkedSkeleton:
    """Connected sum along the marked squares.

    The two skeletons are laid side by side (the right one's ids primed
    if they clash), the marked top and bottom vertices are merged, the
    two marked squares are removed, and the four loose flaps are
    cross-paired into two new squares.  Marked with a's top and bottom
    and the square (f_a, g_a, g2_b, f2_b).  This is the two-summand case
    of the one splice `compact_surface` also runs.
    """
    return _splice([a, b])


def compact_surface(spec) -> MarkedSkeleton:
    """Connected sum of a list of tags (or a "T,T,P" string), in one splice."""
    if isinstance(spec, str):
        tags = [t.strip() for t in spec.split(",") if t.strip()]
    else:
        tags = [t.tag if isinstance(t, SurfaceSummand) else str(t) for t in spec]
    if not tags:
        raise BadSurfaceSpec("a surface spec needs at least one summand")
    # one catalog piece per distinct tag, in first-seen order so that the
    # first bad tag fails first; _splice only reads its summands
    pieces = {t: basic_surface(t) for t in dict.fromkeys(tags)}
    return _splice([pieces[t] for t in tags])
