"""Finite higher-rank graphs and their two-dimensional skeleton presentations.

A rank-k graph is modelled as a finite category with a degree functor to
N^k satisfying unique factorisation: every morphism of degree m+n splits
uniquely into a head of degree m followed by a tail of degree n.  We keep
the data completely explicit -- a finite set of morphism ids, a degree /
range / source record per id, and a composition table over the
non-identity composable pairs.  Identities are synthesised, one per
vertex, and share the vertex's id.

Composition is written functionally: ``compose(a, b)`` is "a after b" and
is defined exactly when ``source(a) == range(b)``.

Nothing in the constructors enforces the category axioms beyond basic
shape; `validate_kgraph` / `validate_skeleton` report violations instead
of raising, so that broken models (e.g. quotients by relations that are
not congruences) can be inspected.  A graph does not change after
construction, so it keeps what is derived from it: its list of
violations, found by the first `validate_kgraph` call, and the
factorisation index, from which cube faces are read.  A validation that
finds nothing leaves the index it built for the faces to read.

`FiniteKGraph` has two constructors.  The public one checks shape
(BadArgument) and normalises ids, degrees and identity records.  The
private `_from_parts` trusts parts a caller has already checked: distinct
vertex ids, one record per id (each vertex's identity among them, no other
of degree zero) and no identity pair in the table.  Each caller says why
its parts hold.

Both models are cube complexes with one view: `rank`, `_cubes()` (the
unit cubes in basis order) and `_unit_faces(key)` (a cube's faces per
direction, oriented as documented on `Cube`).  `cubes`, `face`,
`homology.chain_complex` and the exports read a model only through it.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from operator import add, attrgetter

from .errors import (
    BadArgument,
    BadDirection,
    BadSplit,
    DimensionTooLarge,
    InvalidModel,
    NotComposable,
    RankMismatch,
    UnknownId,
)

Degree = tuple[int, ...]

_AMBIGUOUS = object()  # sentinel in the factorisation index


# ---------------------------------------------------------------------------
# degrees


def zero_degree(rank: int) -> Degree:
    return (0,) * rank

def unit_degree(rank: int, i: int) -> Degree:
    """The i-th coordinate vector, directions numbered 1..rank."""
    if not 1 <= i <= rank:
        raise BadDirection(f"direction {i} not in 1..{rank}")
    return tuple(1 if j == i - 1 else 0 for j in range(rank))

def deg_add(m: Degree, n: Degree) -> Degree:
    return tuple(a + b for a, b in zip(m, n, strict=True))

def deg_sub(m: Degree, n: Degree) -> Degree:
    return tuple(a - b for a, b in zip(m, n, strict=True))

def deg_join(m: Degree, n: Degree) -> Degree:
    return tuple(max(a, b) for a, b in zip(m, n, strict=True))

def deg_leq(m: Degree, n: Degree) -> bool:
    return all(a <= b for a, b in zip(m, n, strict=True))

def deg_total(m: Degree) -> int:
    return sum(m)


def _splits(d: Degree):
    """All p with 0 <= p <= d, lexicographically."""
    return itertools.product(*(range(x + 1) for x in d))


# ---------------------------------------------------------------------------
# report records


@dataclass(frozen=True)
class Violation:
    """One broken axiom: a machine-readable rule id plus witnesses."""

    rule: str
    witness: tuple[str, ...]
    detail: str

    def __str__(self) -> str:  # used verbatim by the CLI
        ids = ", ".join(self.witness)
        return f"[{self.rule}] {self.detail} (witness: {ids})"


@dataclass(frozen=True)
class VertexSetReport:
    """Outcome of a vertex-set predicate; witness is populated iff it fails."""

    predicate: str
    holds: bool
    witness: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# the category model


@dataclass(frozen=True)
class Morphism:
    d: Degree
    r: str
    s: str


class FiniteKGraph:
    """A finite k-graph candidate: explicit morphisms plus a composition table.

    Parameters
    ----------
    rank:
        k, the length of every degree vector.
    vertices:
        iterable of vertex ids (strings).  Each vertex contributes an
        identity morphism under the same id.
    morphisms:
        mapping id -> (degree, range, source) for the non-identity
        morphisms.  Degree-zero entries are rejected here: degree zero is
        reserved for identities.
    compose:
        mapping (a, b) -> c giving the composite of each composable pair
        of non-identity morphisms.  Pairs involving identities are
        implicit and must not appear.
    """

    def __init__(self, rank, vertices, morphisms, compose):
        rank = int(rank)
        if rank < 0:
            raise BadArgument("rank must be >= 0")
        if rank > sys.maxsize:  # no degree tuple is that long
            raise BadArgument(f"rank = {rank} is too large")
        vs = [str(v) for v in vertices]
        vset = set(vs)
        if len(vs) != len(vset):
            raise BadArgument("duplicate vertex id")
        mor = {v: Morphism(zero_degree(rank), v, v) for v in vs}
        for mid, rec in dict(morphisms).items():
            mid = str(mid)
            if mid in mor:
                raise BadArgument(f"duplicate morphism id {mid!r}")
            if isinstance(rec, Morphism):
                d, r, s = rec.d, rec.r, rec.s
            else:
                d, r, s = rec
            d = tuple(int(x) for x in d)
            if len(d) == rank and not any(d):
                raise BadArgument(
                    f"{mid!r} has degree zero; degree-zero morphisms are identities"
                )
            mor[mid] = Morphism(d, str(r), str(s))

        table: dict[tuple[str, str], str] = {}
        for (a, b), c in dict(compose).items():
            a, b, c = str(a), str(b), str(c)
            if a in vset or b in vset:
                raise BadArgument(
                    f"composition with an identity must stay implicit: ({a}, {b})"
                )
            table[(a, b)] = c
        self._index(rank, vs, mor, table)

    @classmethod
    def _from_parts(cls, rank: int, vertices, mor: dict, table: dict) -> FiniteKGraph:
        """A graph on parts its caller has already checked, taken as they are:
        the shape that __init__ checks and normalises must already hold (see
        the module notes).  The graph owns mor and table from now on."""
        g = cls.__new__(cls)
        g._index(rank, vertices, mor, table)
        return g

    def _index(self, rank, vertices, mor, table) -> None:
        self.rank = rank
        self._vertices = tuple(sorted(vertices))
        self._vset = vset = set(self._vertices)
        self._mor: dict[str, Morphism] = mor
        self._compose: dict[tuple[str, str], str] = table
        self._ids = tuple(sorted(mor))
        self._nonid = tuple(m for m in self._ids if m not in vset)

        self._with_range: dict[str, list[str]] = {v: [] for v in self._vertices}
        self._with_source: dict[str, list[str]] = {v: [] for v in self._vertices}
        for mid in self._ids:
            rec = mor[mid]
            if rec.r in vset:
                self._with_range[rec.r].append(mid)
            if rec.s in vset:
                self._with_source[rec.s].append(mid)

        self._factor_index: dict | None = None
        self._deg_range_index: dict | None = None
        self._violations: tuple[Violation, ...] | None = None

        # optional geometric realisation of the vertices, set by builders
        self.embedding: dict[str, tuple] | None = None

    # -- basic accessors ----------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    def morphism_ids(self) -> tuple[str, ...]:
        """All morphism ids, identities included, sorted."""
        return self._ids

    def nonidentity_ids(self) -> tuple[str, ...]:
        return self._nonid

    def has(self, mid: str) -> bool:
        return mid in self._mor

    def _rec(self, mid: str) -> Morphism:
        try:
            return self._mor[mid]
        except KeyError:
            raise UnknownId(f"no morphism with id {mid!r}") from None

    def d(self, mid: str) -> Degree:
        return self._rec(mid).d

    def r(self, mid: str) -> str:
        return self._rec(mid).r

    def s(self, mid: str) -> str:
        return self._rec(mid).s

    def is_identity(self, mid: str) -> bool:
        self._rec(mid)
        return mid in self._vset

    def is_vertex(self, mid: str) -> bool:
        return mid in self._vset

    def morphisms_with_range(self, v: str) -> tuple[str, ...]:
        if v not in self._vset:
            raise UnknownId(f"no vertex with id {v!r}")
        return tuple(self._with_range[v])

    def morphisms_with_source(self, v: str) -> tuple[str, ...]:
        if v not in self._vset:
            raise UnknownId(f"no vertex with id {v!r}")
        return tuple(self._with_source[v])

    def compose_table(self) -> dict[tuple[str, str], str]:
        """A copy of the stored (non-identity) composition table."""
        return dict(self._compose)

    # -- composition and factorisation --------------------------------------

    def compose(self, a: str, b: str) -> str:
        """The composite "a after b"; defined when source(a) == range(b)."""
        ra = self._rec(a)
        rb = self._rec(b)
        if ra.s != rb.r:
            raise NotComposable(
                f"source({a!r}) = {ra.s!r} differs from range({b!r}) = {rb.r!r}"
            )
        if a in self._vset:
            return b
        if b in self._vset:
            return a
        try:
            return self._compose[(a, b)]
        except KeyError:
            raise InvalidModel(
                f"no composite recorded for the composable pair ({a!r}, {b!r})"
            ) from None

    def composable_pairs(self, include_identities: bool = False):
        """Iterate over composable pairs (a, b).

        By default only pairs of non-identity morphisms (the composition
        table's domain).  With identities included, the implicit pairs
        (id, b), (a, id) and (id, id) are generated as well.
        """
        yield from self._compose
        if include_identities:
            for v in self._vertices:
                yield (v, v)
            for m in self._nonid:
                rec = self._mor[m]
                if rec.r in self._vset:
                    yield (rec.r, m)
                if rec.s in self._vset:
                    yield (m, rec.s)

    def _composites(self):
        """(a, b, compose(a, b)) for each composable pair, identities
        included, in composable_pairs order, read from the table and the
        records.  A table entry that compose would reject raises compose's
        error when it is reached."""
        table, mor, vset = self._compose, self._mor, self._vset
        for a, b in self.composable_pairs(include_identities=True):
            if a in vset:
                yield a, b, b
            elif b in vset:
                yield a, b, a
            else:
                ra, rb = mor.get(a), mor.get(b)
                if ra is None or rb is None or ra.s != rb.r:
                    self.compose(a, b)
                yield a, b, table[(a, b)]

    def _factors(self) -> dict:
        if self._factor_index is None:
            index: dict[tuple[str, Degree], object] = {}
            for (a, b), c in self._compose.items():
                if a not in self._mor:
                    continue
                key = (c, self._mor[a].d)
                old = index.get(key)
                if old is None:
                    index[key] = (a, b)
                elif old != (a, b):
                    index[key] = _AMBIGUOUS
            self._factor_index = index
        return self._factor_index

    def factorise(self, mid: str, p) -> tuple[str, str]:
        """Split mid as head * tail with d(head) == p.  Unique on valid models."""
        rec = self._rec(mid)
        p = tuple(int(x) for x in p)
        if len(p) != self.rank or any(x < 0 for x in p) or not deg_leq(p, rec.d):
            raise BadSplit(f"split {p} is not between 0 and d({mid!r}) = {rec.d}")
        return self._split(mid, rec, p)

    def _split(self, mid: str, rec: Morphism, p: Degree) -> tuple[str, str]:
        """factorise for a split p already known to lie between 0 and rec.d."""
        if not any(p):
            return (rec.r, mid)
        if p == rec.d:
            return (mid, rec.s)
        hit = self._factors().get((mid, p))
        if hit is None:
            raise InvalidModel(f"no factorisation of {mid!r} at split {p} is recorded")
        if hit is _AMBIGUOUS:
            raise InvalidModel(f"factorisation of {mid!r} at split {p} is ambiguous")
        return hit

    # -- the cube view (see Cube) --------------------------------------------

    def _cubes(self) -> list[Cube]:
        """The morphisms of degree <= (1,...,1), by dimension, degree, id."""
        out = []
        for m in self._ids:
            d = self._mor[m].d
            if len(d) == self.rank and not (d and max(d) > 1):
                out.append(Cube(m, d))
        out.sort(key=lambda c: (deg_total(c.degree), c.degree, c.key))
        return out

    def _unit_faces(self, key: str) -> dict:
        """Faces read from the factorisation index: in direction i, the
        tail after the unit step and the head before it.  Raises
        InvalidModel when a factorisation is missing or ambiguous."""
        rec = self._rec(key)
        d = rec.d
        out = {}
        for i, x in enumerate(d):
            if x == 1:
                unit = (0,) * i + (1,) + (0,) * (len(d) - i - 1)
                rest = d[:i] + (0,) + d[i + 1:]
                tail = self._split(key, rec, unit)[1]
                out[i + 1] = (tail, self._split(key, rec, rest)[0], rest)
        return out

    # -- simple indexes ------------------------------------------------------

    def by_degree(self, n) -> tuple[str, ...]:
        n = tuple(int(x) for x in n)
        return tuple(m for m in self._ids if self._mor[m].d == n)

    def _by_degree_and_range(self) -> dict:
        if self._deg_range_index is None:
            index: dict[tuple[Degree, str], list[str]] = {}
            for m in self._ids:
                rec = self._mor[m]
                index.setdefault((rec.d, rec.r), []).append(m)
            self._deg_range_index = index
        return self._deg_range_index

    def __len__(self) -> int:
        return len(self._mor)

    def __repr__(self) -> str:
        return (
            f"FiniteKGraph(rank={self.rank}, |vertices|={len(self._vertices)}, "
            f"|morphisms|={len(self._mor)})"
        )


# ---------------------------------------------------------------------------
# validation of the category axioms


def validate_kgraph(g: FiniteKGraph) -> list[Violation]:
    """Check the k-graph axioms; returns all violations found (never raises).

    Identity neutrality and "degree zero means identity" hold by
    construction and are not re-checked.  Associativity is checked on
    every composable triple.  The violations are found once per graph
    and kept on it; every call returns a fresh list.
    """
    if g._violations is None:
        g._violations = tuple(_find_violations(g))
    return list(g._violations)


def _find_violations(g: FiniteKGraph) -> list[Violation]:
    """One walk over the records and one over the stored table, unsorted.
    Rule groups come in a fixed order, each sorted by witness on its own
    (factor-unique by its second pair), as a walk in sorted order would
    find them.  A clean graph keeps the factorisation index built here."""
    out: list[Violation] = []
    mor, vset, rank = g._mor, g._vset, g.rank
    bad_shape: set[str] = set()
    bad_ends: set[str] = set()
    for m in g._nonid:
        rec = mor[m]
        if len(rec.d) != rank or min(rec.d, default=0) < 0:
            out.append(Violation("degree-shape", (m,), f"degree {rec.d} is not in N^{rank}"))
            bad_shape.add(m)
        if rec.r not in vset or rec.s not in vset:
            bad = [v for v in (rec.r, rec.s) if v not in vset]
            out.append(Violation("endpoints", (m,), f"range/source {bad} are not vertices"))
            bad_ends.add(m)

    # after[a][b] = ab over the usable entries: known ids, a and b with
    # vertex endpoints, composable.  index[(c, d(a))] = (a, b) over those
    # with a and b of good shape; clashes holds every pair of a repeated key.
    table = g._compose
    domain: list[Violation] = []
    composite: list[Violation] = []
    after: dict[str, dict[str, str]] = {}
    index: dict[tuple[str, Degree], tuple[str, str]] = {}
    clashes: dict[tuple[str, Degree], list[tuple[str, str]]] = {}
    for ab, c in table.items():
        a, b = ab
        ra, rb, rc = mor.get(a), mor.get(b), mor.get(c)
        if ra is None or rb is None or rc is None:
            missing = [x for x in (a, b, c) if x not in mor]
            domain.append(Violation("compose-domain", (a, b, c), f"unknown ids {missing} in table"))
            continue
        if a in bad_ends or b in bad_ends:
            continue
        if ra.s != rb.r:
            domain.append(Violation(
                "compose-domain",
                ab,
                f"table entry for a non-composable pair: source({a!r}) != range({b!r})",
            ))
            continue
        after.setdefault(a, {})[b] = c
        if (rc.r != ra.r or rc.s != rb.s) and c not in bad_ends:
            composite.append(Violation(
                "compose-endpoints",
                (a, b, c),
                "composite endpoints disagree with range(a) / source(b)",
            ))
        if a in bad_shape or b in bad_shape:
            continue
        if c not in bad_shape and rc.d != tuple(map(add, ra.d, rb.d)):
            composite.append(Violation(
                "compose-degree",
                (a, b, c),
                f"d({c!r}) = {rc.d} differs from d(a)+d(b) = {deg_add(ra.d, rb.d)}",
            ))
        key = (c, ra.d)
        old = index.setdefault(key, ab)
        if old != ab:
            clashes.setdefault(key, [old]).append(ab)
    by_witness = attrgetter("witness")
    out += sorted(domain, key=by_witness)

    for a in g._nonid:
        if a in bad_ends:
            continue
        # one of the followers is the identity of source(a)
        followers = g._with_range[mor[a].s]
        if len(after.get(a, ())) == len(followers) - 1:
            continue
        for b in followers:
            if (a, b) not in table and b not in vset:
                detail = "composable pair has no composite in the table"
                out.append(Violation("compose-total", (a, b), detail))

    # a stable sort keeps compose-endpoints before compose-degree per pair
    out += sorted(composite, key=by_witness)

    assoc = []
    for a, a_row in after.items():
        for b, ab in a_row.items():
            b_row, ab_row = after.get(b), after.get(ab)
            if b_row is None or ab_row is None:
                continue
            for c, bc in b_row.items():
                left, right = ab_row.get(c), a_row.get(bc)
                # a missing composite is reported by compose-total
                if left is not None and right is not None and left != right:
                    assoc.append(
                        Violation("assoc", (a, b, c), f"(a b) c = {left!r} but a (b c) = {right!r}")
                    )
    out += sorted(assoc, key=by_witness)

    unique = []
    for (c, p), pairs in clashes.items():
        pairs.sort()
        a0, b0 = pairs[0]
        detail = f"two factorisations of {c!r} at split {p}"
        unique += [Violation("factor-unique", (c, a0, b0, a, b), detail) for a, b in pairs[1:]]
    out += sorted(unique, key=lambda v: v.witness[3:])

    inner: dict[Degree, list[Degree]] = {}  # the splits p of d with 0 < p < d
    for m in g._nonid:
        if m in bad_shape or m in bad_ends:
            continue
        d = mor[m].d
        if d not in inner:
            inner[d] = [p for p in _splits(d) if any(p) and p != d]
        for p in inner[d]:
            if (m, p) not in index:
                detail = f"no factorisation of {m!r} at split {p}"
                out.append(Violation("factor-exists", (m,), detail))

    if not out:
        g._factor_index = index
    return out


# ---------------------------------------------------------------------------
# skeletons of rank-2 graphs


@dataclass(frozen=True)
class Edge:
    r: str
    s: str


Square = tuple[str, str, str, str]
# (f, g, g2, f2) encodes the commuting relation  f g  =  g2 f2 :
# f, f2 are colour-1 ("blue") edges, g, g2 colour-2 ("red") edges, and the
# two edge paths share endpoints.


class Skeleton2Graph:
    """Presentation of a rank-2 graph: a two-coloured digraph plus squares.

    The squares must pair every composable blue-red path with a unique
    red-blue path (and vice versa); `validate_skeleton` checks this.
    """

    rank = 2

    def __init__(self, vertices, blue, red, squares):
        vs = [str(v) for v in vertices]
        self.vertices: tuple[str, ...] = tuple(sorted(vs))
        self.blue: dict[str, Edge] = {
            str(e): Edge(str(r), str(s)) for e, (r, s) in dict(blue).items()
        }
        self.red: dict[str, Edge] = {
            str(e): Edge(str(r), str(s)) for e, (r, s) in dict(red).items()
        }
        ids = vs + list(self.blue) + list(self.red)
        if len(ids) != len(set(ids)):
            raise BadArgument("vertex and edge ids must be pairwise distinct")
        self.squares: tuple[Square, ...] = tuple(
            sorted(tuple(str(x) for x in sq) for sq in squares)
        )
        for sq in self.squares:
            if len(sq) != 4:
                raise BadArgument(f"square {sq} is not a quadruple")

    def edge(self, e: str) -> Edge:
        rec = self.blue.get(e) or self.red.get(e)
        if rec is None:
            raise UnknownId(f"no edge with id {e!r}")
        return rec

    def colour(self, e: str) -> int:
        if e in self.blue:
            return 1
        if e in self.red:
            return 2
        raise UnknownId(f"no edge with id {e!r}")

    def _cubes(self) -> list[Cube]:
        return [
            *(Cube(v, ()) for v in self.vertices),
            *(Cube(e, (1, 0)) for e in sorted(self.blue)),
            *(Cube(e, (0, 1)) for e in sorted(self.red)),
            *(Cube(sq, (1, 1)) for sq in self.squares),
        ]

    def _unit_faces(self, key) -> dict:
        """An edge's faces are its endpoints, in its colour's direction; a
        square (f, g, g2, f2) has the red g, g2 in direction 1 and the
        blue f2, f in direction 2."""
        if isinstance(key, tuple):
            f, gg, g2, f2 = key
            return {1: (gg, g2, (0, 1)), 2: (f2, f, (1, 0))}
        e = self.edge(key)
        return {self.colour(key): (e.s, e.r, ())}

    def __repr__(self) -> str:
        return (
            f"Skeleton2Graph(|vertices|={len(self.vertices)}, "
            f"|blue|={len(self.blue)}, |red|={len(self.red)}, "
            f"|squares|={len(self.squares)})"
        )


def validate_skeleton(sk: Skeleton2Graph) -> list[Violation]:
    """Check the skeleton axioms; returns all violations found (never raises).

    Costs O(edges + squares + composable pairs), apart from sorting the
    edge ids once: the bijection checks visit only composable blue-red
    and red-blue pairs, found through the edges grouped by range vertex.
    Violations come in sorted-id order: edges, then squares, then
    blue-red pairs by (blue, red) id, then red-blue pairs by (red, blue).
    """
    out: list[Violation] = []
    vset = set(sk.vertices)
    for e, rec in sorted({**sk.blue, **sk.red}.items()):
        bad = [v for v in (rec.r, rec.s) if v not in vset]
        if bad:
            out.append(Violation("edge-endpoints", (e,), f"endpoints {bad} are not vertices"))

    seen: set[Square] = set()
    br_seen: dict[tuple[str, str], int] = {}
    rb_seen: dict[tuple[str, str], int] = {}
    for sq in sk.squares:
        f, gg, g2, f2 = sq
        if sq in seen:
            out.append(Violation("square-dup", sq, "square listed twice"))
            continue
        seen.add(sq)
        if f not in sk.blue or f2 not in sk.blue or gg not in sk.red or g2 not in sk.red:
            out.append(
                Violation(
                    "square-edges",
                    sq,
                    "square must be (blue, red, red, blue) edge ids",
                )
            )
            continue
        ef, eg, eg2, ef2 = sk.blue[f], sk.red[gg], sk.red[g2], sk.blue[f2]
        if not (ef.s == eg.r and eg2.s == ef2.r and ef.r == eg2.r and eg.s == ef2.s):
            out.append(
                Violation(
                    "square-commute",
                    sq,
                    "the two paths of the square do not share endpoints",
                )
            )
            continue
        br_seen[(f, gg)] = br_seen.get((f, gg), 0) + 1
        rb_seen[(g2, f2)] = rb_seen.get((g2, f2), 0) + 1

    blue, red = sorted(sk.blue.items()), sorted(sk.red.items())
    blue_by_range: dict[str, list[str]] = {}
    red_by_range: dict[str, list[str]] = {}
    for e, rec in blue:
        blue_by_range.setdefault(rec.r, []).append(e)
    for e, rec in red:
        red_by_range.setdefault(rec.r, []).append(e)

    for f, ef in blue:
        for gg in red_by_range.get(ef.s, ()):
            n = br_seen.get((f, gg), 0)
            if n != 1:
                out.append(
                    Violation(
                        "square-bijection",
                        (f, gg),
                        f"blue-red path occurs in {n} squares (needs exactly 1)",
                    )
                )
    for g2, eg2 in red:
        for f2 in blue_by_range.get(eg2.s, ()):
            n = rb_seen.get((g2, f2), 0)
            if n != 1:
                out.append(
                    Violation(
                        "square-bijection",
                        (g2, f2),
                        f"red-blue path occurs in {n} squares (needs exactly 1)",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# cubes and faces


@dataclass(frozen=True)
class Cube:
    """A unit cube of a model: a morphism of degree <= (1,...,1).

    For category models the key is the morphism id; for skeletons it is a
    vertex id (degree ()), an edge id or a square quadruple.

    A model's `_unit_faces(key)` maps each direction i the cube extends
    in, in increasing order, to (side-1 key, side-0 key, face degree):
    side 0 is the face at the range end (the head before the unit step
    in direction i), side 1 the face at the source end (the tail after
    it), and both have the cube's degree with coordinate i set to 0 (or
    (), for a skeleton's vertices).
    """

    key: object
    degree: Degree

    @property
    def dim(self) -> int:
        return sum(self.degree)


def cubes(model, n: int | None = None) -> list[Cube]:
    """The unit cubes of the model, optionally restricted to dimension n.

    Cubes come back in a fixed canonical order (the chain-complex basis
    order).  Raises DimensionTooLarge when n exceeds the rank.
    """
    if n is not None and n > model.rank:
        raise DimensionTooLarge(f"a rank-{model.rank} graph has no {n}-cubes")
    out = model._cubes()
    return out if n is None else [c for c in out if c.dim == n]


def face(model, cube: Cube, i: int, side: int) -> Cube:
    """The side-0 / side-1 face of a cube in direction i (1-based).

    Side 0 is the face at the range end (the head complement), side 1 the
    face at the source end; see `Cube`.
    """
    if side not in (0, 1):
        raise BadArgument("side must be 0 or 1")
    faces = {}
    if 1 <= i <= len(cube.degree) and cube.degree[i - 1] == 1:
        faces = model._unit_faces(cube.key)
    if i not in faces:
        raise BadDirection(f"cube {cube.key!r} has no extent in direction {i}")
    hi, lo, degree = faces[i]
    return Cube(lo if side == 0 else hi, degree)


# ---------------------------------------------------------------------------
# minimal common extensions


def mce(g: FiniteKGraph, a: str, b: str) -> list[str]:
    """Minimal common extensions of a and b: morphisms of degree
    d(a) v d(b) that factor through both.  Sorted by id."""
    da, db = g.d(a), g.d(b)
    if g.r(a) != g.r(b):
        return []
    if len(da) != g.rank or len(db) != g.rank:
        raise InvalidModel("mce needs well-shaped degrees")
    n = deg_join(da, db)
    out = []
    for lam in g._by_degree_and_range().get((n, g.r(a)), []):
        if g.factorise(lam, da)[0] == a and g.factorise(lam, db)[0] == b:
            out.append(lam)
    return sorted(out)


def mce_set(g: FiniteKGraph, morphisms) -> list[str]:
    """Minimal common extensions of a finite set, by the pairwise recursion
    MCE(F) = union over mu in MCE(F - {lam}) of MCE(lam, mu)."""
    F = [str(m) for m in morphisms]
    if not F:
        raise BadArgument("mce_set needs a non-empty set of morphisms")
    for m in F:
        if not g.has(m):
            raise UnknownId(f"no morphism with id {m!r}")
    F = sorted(set(F))
    acc = {F[0]}
    for lam in F[1:]:
        acc = {ext for mu in acc for ext in mce(g, lam, mu)}
        if not acc:
            break
    return sorted(acc)


def is_exhaustive(g: FiniteKGraph, v: str, morphisms) -> bool:
    """Is E exhaustive at v: does every morphism with range v have a common
    extension with some member of E?"""
    E = [str(m) for m in morphisms]
    for m in E:
        if not g.has(m):
            raise UnknownId(f"no morphism with id {m!r}")
    for mu in g.morphisms_with_range(v):
        if not any(mce(g, mu, lam) for lam in E):
            return False
    return True


# ---------------------------------------------------------------------------
# vertex-set predicates


def vertex_predicate(g: FiniteKGraph, vertex_set, kind: str) -> VertexSetReport:
    """Test a named predicate of a vertex set.

    kind is one of "hereditary" (closed under taking sources),
    "cohereditary" (closed under taking ranges) or "saturated" (no vertex
    outside the set admits a finite exhaustive set of morphisms whose
    sources all land in it).
    """
    V = {str(v) for v in vertex_set}
    for v in V:
        if not g.is_vertex(v):
            raise UnknownId(f"no vertex with id {v!r}")

    if kind == "hereditary":
        for m in g.morphism_ids():
            if g.r(m) in V and g.s(m) not in V:
                return VertexSetReport(kind, False, (m,))
        return VertexSetReport(kind, True)

    if kind == "cohereditary":
        for m in g.morphism_ids():
            if g.s(m) in V and g.r(m) not in V:
                return VertexSetReport(kind, False, (m,))
        return VertexSetReport(kind, True)

    if kind == "saturated":
        # A vertex v outside V admits some finite exhaustive E with
        # sources in V iff the largest candidate -- every morphism out of
        # v whose source lies in V -- is non-empty and exhaustive
        # (exhaustiveness only improves when E grows).
        for v in g.vertices:
            if v in V:
                continue
            E = [m for m in g.morphisms_with_range(v) if g.s(m) in V]
            if E and is_exhaustive(g, v, E):
                return VertexSetReport(kind, False, (v, *E))
        return VertexSetReport(kind, True)

    raise BadArgument(f"unknown predicate kind {kind!r}")


# ---------------------------------------------------------------------------
# products, sums, subgraphs


def _pair_id(a: str, b: str) -> str:
    return f"({a},{b})"


def cartesian_product(a: FiniteKGraph, b: FiniteKGraph) -> FiniteKGraph:
    """The product category with componentwise degree; rank adds."""
    mor = {
        _pair_id(m, n): Morphism(ra.d + rb.d, _pair_id(ra.r, rb.r), _pair_id(ra.s, rb.s))
        for m, ra in a._mor.items()
        for n, rb in b._mor.items()
    }
    av, bv = a._vset, b._vset
    table = {}
    a_pairs = b_pairs = []
    if (a._compose or a._vertices) and (b._compose or b._vertices):
        # On a broken table, raise what composing pair by pair in product
        # order raises first: a's first pair, then b's pairs, then a's.
        next(a._composites())
        b_pairs = list(b._composites())
        a_pairs = list(a._composites())
    for x, x2, xx in a_pairs:
        for y, y2, yy in b_pairs:
            if (x in av and y in bv) or (x2 in av and y2 in bv):
                continue
            table[(_pair_id(x, y), _pair_id(x2, y2))] = _pair_id(xx, yy)
    # the records of a and b pair up to one record per pair id, unless ids
    # with commas collide; the identities are the pairs of vertices, which
    # the table skips
    if len(mor) != len(a._mor) * len(b._mor):
        raise BadArgument("duplicate morphism id: pair ids of the product collide")
    vertices = [_pair_id(u, v) for u in a.vertices for v in b.vertices]
    # degrees outside N^rank (broken factors) can add up to zero
    ids, zero = set(vertices), (0,) * (a.rank + b.rank)
    bad = sorted(m for m, rec in mor.items() if rec.d == zero and m not in ids)
    if bad:
        raise BadArgument(f"{bad[0]!r} has degree zero; degree-zero morphisms are identities")
    return FiniteKGraph._from_parts(a.rank + b.rank, vertices, mor, table)


def _tagged_union(graphs, tags) -> FiniteKGraph:
    """The union of graphs whose ids are prefixed "tag:"; tags must be
    distinct and free of ":", so that prefixed ids stay distinct."""
    rank = graphs[0].rank
    vertices = []
    mor = {}
    table = {}
    for g, t in zip(graphs, tags, strict=True):
        if g.rank != rank:
            raise RankMismatch(f"cannot union a rank-{g.rank} graph with rank {rank}")
        vertices.extend(f"{t}:{v}" for v in g.vertices)
        for m, rec in g._mor.items():
            mor[f"{t}:{m}"] = Morphism(rec.d, f"{t}:{rec.r}", f"{t}:{rec.s}")
        for (x, y), z in g._compose.items():
            table[(f"{t}:{x}", f"{t}:{y}")] = f"{t}:{z}"
    return FiniteKGraph._from_parts(rank, vertices, mor, table)


def disjoint_union(a: FiniteKGraph, b: FiniteKGraph) -> FiniteKGraph:
    """Tagged coproduct of two graphs of the same rank ("0:" and "1:" ids)."""
    return _tagged_union([a, b], ["0", "1"])


def induced_subgraph(g: FiniteKGraph, vertex_set) -> FiniteKGraph:
    """Full subcategory on a vertex set.

    The result is a k-graph when the set is hereditary or co-hereditary
    (factorisations then stay inside); for arbitrary sets it is just a
    candidate and may fail validation.
    """
    V = {str(v) for v in vertex_set}
    for v in V:
        if not g.is_vertex(v):
            raise UnknownId(f"no vertex with id {v!r}")
    # g's records and table restricted to V, which keeps its identities
    mor = {m: rec for m, rec in g._mor.items() if rec.r in V and rec.s in V}
    table = {
        (x, y): z
        for (x, y), z in g._compose.items()
        if x in mor and y in mor and z in mor
    }
    return FiniteKGraph._from_parts(g.rank, V, mor, table)
