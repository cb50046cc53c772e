"""Finite higher-rank graphs and their two-dimensional skeleton presentations.

A rank-k graph is modelled as a finite category with a degree functor to
N^k satisfying unique factorisation: every morphism of degree m+n splits
uniquely into a head of degree m followed by a tail of degree n.  We keep
the data completely explicit -- a finite set of morphism ids, a degree /
range / source record per id, and a composition table over the
non-identity composable pairs.  Identities are synthesised, one per
vertex, and share the vertex's id.

Inside a graph the morphisms are numbered 0..N-1 in sorted-id order, and
all is kept by number: degree, range and source as parallel lists, a
vertex mask, the table {(a, b): ab}, the factorisation index and, built
on first use, the morphisms by range and by source.  Names a broken model
uses that are not ids are numbered from N on.  String ids appear only at
the boundary: accessors, compose, factorise, compose_table, cube keys,
errors and witnesses.  Builders format each id once and sort the ids
once; a quotient names each class by its least member, so its ids are
the parent's representatives in the parent's order, and `_glue` (unions,
spheres, wedges, glue_on_common) names each merged morphism the same way.

Composition is written functionally: ``compose(a, b)`` is "a after b" and
is defined exactly when ``source(a) == range(b)``.

Nothing in the constructors enforces the category axioms beyond basic
shape; `validate_kgraph` / `validate_skeleton` report violations instead
of raising, so that broken models (e.g. quotients by relations that are
not congruences) can be inspected, and `_violations_of` picks a model's
validator.  A graph does not change after construction, so it keeps
what is derived from it: its list of violations, found by the first
`validate_kgraph` call, and the factorisation index, from which cube
faces are read.  A validation that finds nothing leaves the index it
built for the faces to read.  Some builders give their graph the
verdict () instead, and it builds its index on first use: the simplex,
sphere and wedge builders, whose outputs the paper proves are k-graphs,
and glue_on_common on clean inputs when its "lift" check holds.

`FiniteKGraph` has two constructors.  The private `_from_parts` trusts
numbered parts a caller has already checked: distinct ids, one record per
id (each vertex's identity among them, no other of degree zero) and no
identity pair in the table.  Builders call it and say why their parts
hold.  A graph given by strings comes through one of two doors, the
public constructor or a category document (`io.loads`), and one checker,
`_checked`, serves both: each door checks the shape of its records and
compose entries as they are drawn, and `_checked` checks the rules above,
and that no pair has two composites, and numbers the parts.  It raises
one BadArgument message per rule (the loader raises it as a ParseError).

Both models are cube complexes with one view: `rank`, `_cubes()` (the
unit cubes in basis order), `_unit_faces(key)` and its row form
`_chain_rows()`, as documented on `Cube`.  A graph reads both forms off
the factorisation index through one step table per degree (`_steps`).
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from operator import add, attrgetter, lt

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


def unit_degree(rank: int, i: int) -> Degree:
    """The i-th coordinate vector, directions numbered 1..rank."""
    if not 1 <= i <= rank:
        raise BadDirection(f"direction {i} not in 1..{rank}")
    return tuple(1 if j == i - 1 else 0 for j in range(rank))

def deg_add(m: Degree, n: Degree) -> Degree:
    return tuple(a + b for a, b in zip(m, n, strict=True))

def deg_join(m: Degree, n: Degree) -> Degree:
    return tuple(max(a, b) for a, b in zip(m, n, strict=True))

def deg_leq(m: Degree, n: Degree) -> bool:
    return all(a <= b for a, b in zip(m, n, strict=True))


def _splits(d: Degree):
    """All p with 0 <= p <= d, lexicographically."""
    return itertools.product(*(range(x + 1) for x in d))


# ---------------------------------------------------------------------------
# records


_set = object.__setattr__  # how a record's __init__ fills its slots


class _Record:
    """Base of the package's value records: immutable, compared and hashed
    by class and field values, picklable, matched by position.  A record
    names its fields in `__slots__` and fills them in its own `__init__`;
    a subclass inherits them and appends any slots of its own."""

    __slots__ = ()
    __match_args__ = ()  # the fields, in order

    def __init_subclass__(cls):
        cls.__match_args__ += cls.__dict__.get("__slots__", ())

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Violation(_Record):
    """One broken axiom: a machine-readable rule id plus witnesses."""

    __slots__ = ("rule", "witness", "detail")
    rule: str
    witness: tuple[str, ...]
    detail: str

    def __init__(self, rule: str, witness: tuple[str, ...], detail: str):
        _set(self, "rule", rule)
        _set(self, "witness", witness)
        _set(self, "detail", detail)

    def __str__(self) -> str:  # used verbatim by the CLI
        ids = ", ".join(self.witness)
        return f"[{self.rule}] {self.detail} (witness: {ids})"


class VertexSetReport(_Record):
    """Outcome of a vertex-set predicate; witness is populated iff it fails."""

    __slots__ = ("predicate", "holds", "witness")
    predicate: str
    holds: bool
    witness: tuple[str, ...]

    def __init__(self, predicate: str, holds: bool, witness: tuple[str, ...] = ()):
        _set(self, "predicate", predicate)
        _set(self, "holds", holds)
        _set(self, "witness", witness)


# ---------------------------------------------------------------------------
# the category model


class Morphism(_Record):
    """A morphism's record: degree, range and source."""

    __slots__ = ("d", "r", "s")
    d: Degree
    r: str
    s: str

    def __init__(self, d: Degree, r: str, s: str):
        _set(self, "d", d)
        _set(self, "r", r)
        _set(self, "s", s)


class _Numbering(dict):
    """The index of each name, numbered in first-seen order."""

    def __missing__(self, name):
        self[name] = i = len(self)
        return i


def _numbering(ids: list[str]):
    """A builder's ids, sorted, as (ids, order, new, at): order[i] is the
    builder's number of the i-th sorted id, new[j] the sorted number of its
    j-th, and at numbers names, the ids first, then the unknown names a
    broken part looks up, in first-seen order.  Ids already in strictly
    increasing order, as a sphere's tags give them, are not sorted."""
    if all(map(lt, ids, ids[1:])):
        order = new = list(range(len(ids)))  # neither is written to
    else:
        order = sorted(range(len(ids)), key=ids.__getitem__)
        new = [0] * len(ids)
        for i, old in enumerate(order):
            new[old] = i
        ids = [ids[old] for old in order]
    return ids, order, new, _Numbering(zip(ids, range(len(ids))))


def _sorted_parts(rank, order, at, deg, r, s, isv, table) -> tuple:
    """The parts of the graph on a builder's records, given in the builder's
    order and numbered by at, and its table; at goes last as a plain dict,
    for `_index` to keep (the _Numbering would insert on a lookup)."""
    if order != list(range(len(order))):
        deg, r, s = ([x[old] for old in order] for x in (deg, r, s))
        isv = bytearray(isv[old] for old in order)
    isv = bytearray(isv[:len(order)]) + bytearray(len(at) - len(order))
    return rank, tuple(at), len(order), deg, r, s, isv, table, dict(at)


def _checked(rank: int, vertices: list[str], records, triples) -> tuple:
    """The parts of a graph on string parts, for `_from_parts`, by the one
    checker of both doors (see the module notes).  It draws records (id,
    degree, range, source) and then triples (a, b, ab), which the caller
    checks for shape as they are drawn.  A broken rule is a BadArgument."""
    vset = set(vertices)
    if len(vset) != len(vertices):
        raise BadArgument("duplicate vertex ids")
    mor = {}
    for mid, d, r, s in records:
        if mid in vset:
            raise BadArgument(f"morphism id {mid!r} collides with a vertex")
        if mid in mor:
            raise BadArgument(f"duplicate morphism id {mid!r}")
        if len(d) == rank and not any(d):
            raise BadArgument(f"{mid!r} has degree zero; identities are implicit")
        mor[mid] = (d, r, s)
    ids, order, new, at = _numbering([*vertices, *mor])
    table = {}
    for a, b, c in triples:  # the table's names take numbers before endpoints
        if a in vset or b in vset:
            raise BadArgument(f"identity composition [{a}, {b}] must be omitted")
        if (key := (at[a], at[b])) in table:
            raise BadArgument(f"duplicate compose entry for ({a}, {b})")
        table[key] = at[c]
    records = [((0,) * rank, v, v) for v in vertices] + list(mor.values())
    r, s = [at[x] for _, x, _ in records], [at[x] for _, _, x in records]
    isv = [1] * len(vertices) + [0] * len(mor)
    return _sorted_parts(rank, order, at, [d for d, _, _ in records], r, s, isv, table)


def _integral(x) -> int:
    """x as an int; TypeError, ValueError or OverflowError unless x equals
    its int()."""
    if (n := int(x)) != x:
        raise ValueError(x)
    return n


def _vertex_ids(vertices) -> list[str]:
    try:
        return [str(v) for v in vertices]
    except TypeError:
        raise BadArgument("vertices must be an iterable of ids") from None


def _morphism_records(morphisms: dict):
    """FiniteKGraph's morphisms as (id, degree, range, source) records."""
    for mid, rec in morphisms.items():
        mid = str(mid)
        try:
            d, r, s = (rec.d, rec.r, rec.s) if isinstance(rec, Morphism) else rec
            d = tuple(map(_integral, d))
        except (TypeError, ValueError, OverflowError):
            raise BadArgument(f"record of {mid!r} is not (degree, range, source)") from None
        if min(d, default=0) < 0:
            raise BadArgument(f"degree of {mid!r} must be a list of non-negative integers")
        yield mid, d, str(r), str(s)


def _compose_triples(compose: dict):
    """FiniteKGraph's compose table as (a, b, ab) triples of ids."""
    for key, c in compose.items():
        try:
            a, b = map(str, key)
        except (TypeError, ValueError):
            raise BadArgument(f"compose key {key!r} is not a pair of ids") from None
        yield a, b, str(c)


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
        reserved for identities.  So are negative degree entries.
    compose:
        mapping (a, b) -> c giving the composite of each composable pair
        of non-identity morphisms.  Pairs involving identities are
        implicit and must not appear.
    """

    def __init__(self, rank, vertices, morphisms, compose):
        try:
            rank = _integral(rank)
        except (TypeError, ValueError, OverflowError):
            raise BadArgument(f"rank {rank!r} is not an integer") from None
        if rank < 0:
            raise BadArgument("rank must be >= 0")
        if rank > sys.maxsize:  # no degree tuple is that long
            raise BadArgument(f"rank = {rank} is too large")
        vertices = _vertex_ids(vertices)
        try:
            morphisms, compose = dict(morphisms), dict(compose)
        except (TypeError, ValueError):
            raise BadArgument("morphisms and compose must be mappings") from None
        self._index(*_checked(rank, vertices, _morphism_records(morphisms), _compose_triples(compose)))

    @classmethod
    def _from_parts(cls, rank: int, names, n: int, deg, r, s, isv, table,
                    at=None) -> FiniteKGraph:
        """A graph on integer parts its caller has already checked, taken as
        they are (see the module notes).  The graph owns them from now on;
        at, if given, is the plain dict numbering names."""
        g = cls.__new__(cls)
        g._index(rank, names, n, deg, r, s, isv, table, at)
        return g

    def _index(self, rank, names, n, deg, r, s, isv, table, at=None) -> None:
        self.rank = rank
        self._names = names  # the n ids, sorted, then unknown names a broken model uses
        self._ids = names[:n]
        self._at = {m: i for i, m in enumerate(names)} if at is None else at
        self._r, self._s, self._isv = r, s, isv
        self._table: dict[tuple[int, int], int] = table
        self._vidx = [i for i in range(n) if isv[i]]
        self._vertices = tuple(names[i] for i in self._vidx)
        self._nonid = [i for i in range(n) if not isv[i]]
        # each distinct degree's number, in id order: a factorisation of c at
        # split p is keyed c * len(codes) + codes[p]
        self._codes: dict[Degree, int] = {}
        self._dc = [self._codes.setdefault(x, len(self._codes)) for x in deg]
        self._d = list(map(list(self._codes).__getitem__, self._dc))  # one tuple per degree

        self._by_end: tuple[dict, dict] | None = None  # for _incidence
        self._factor_index: dict | None = None
        self._unit_steps: dict[int, list] = {}  # per degree code, for _steps
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
        return tuple(self._names[m] for m in self._nonid)

    def has(self, mid: str) -> bool:
        return self._at.get(mid, len(self._ids)) < len(self._ids)

    def _num(self, mid: str) -> int:
        i = self._at.get(mid, len(self._ids))
        if i >= len(self._ids):
            raise UnknownId(f"no morphism with id {mid!r}")
        return i

    def _vertex_num(self, v: str) -> int:
        i = self._at.get(v)
        if i is None or not self._isv[i]:
            raise UnknownId(f"no vertex with id {v!r}")
        return i

    def d(self, mid: str) -> Degree:
        return self._d[self._num(mid)]

    def r(self, mid: str) -> str:
        return self._names[self._r[self._num(mid)]]

    def s(self, mid: str) -> str:
        return self._names[self._s[self._num(mid)]]

    def is_identity(self, mid: str) -> bool:
        return bool(self._isv[self._num(mid)])

    def is_vertex(self, mid: str) -> bool:
        i = self._at.get(mid)
        return i is not None and bool(self._isv[i])

    def morphisms_with_range(self, v: str) -> tuple[str, ...]:
        v = self._vertex_num(v)
        return tuple(map(self._names.__getitem__, self._incidence()[0][v]))

    def morphisms_with_source(self, v: str) -> tuple[str, ...]:
        v = self._vertex_num(v)
        return tuple(map(self._names.__getitem__, self._incidence()[1][v]))

    def _incidence(self) -> tuple[dict, dict]:
        """The morphisms by range vertex and by source vertex, by number in id
        order; built on first use, as most graphs never ask."""
        if self._by_end is None:
            r, s, isv = self._r, self._s, self._isv
            with_range: dict[int, list[int]] = {v: [] for v in self._vidx}
            with_source: dict[int, list[int]] = {v: [] for v in self._vidx}
            for m in range(len(self._ids)):
                if isv[r[m]]:
                    with_range[r[m]].append(m)
                if isv[s[m]]:
                    with_source[s[m]].append(m)
            self._by_end = with_range, with_source
        return self._by_end

    def compose_table(self) -> dict[tuple[str, str], str]:
        """A copy of the stored (non-identity) composition table."""
        names = self._names
        return {(names[a], names[b]): names[c] for (a, b), c in self._table.items()}

    # -- composition and factorisation --------------------------------------

    def compose(self, a: str, b: str) -> str:
        """The composite "a after b"; defined when source(a) == range(b)."""
        i, j = self._num(a), self._num(b)
        if self._s[i] != self._r[j]:
            raise NotComposable(
                f"source({a!r}) = {self.s(a)!r} differs from range({b!r}) = {self.r(b)!r}"
            )
        if self._isv[i]:
            return b
        if self._isv[j]:
            return a
        c = self._table.get((i, j))
        if c is None:
            raise InvalidModel(f"no composite recorded for the composable pair ({a!r}, {b!r})")
        return self._names[c]

    def composable_pairs(self, include_identities: bool = False):
        """Iterate over composable pairs (a, b).

        By default only pairs of non-identity morphisms (the composition
        table's domain).  With identities included, the implicit pairs
        (id, b), (a, id) and (id, id) are generated as well.
        """
        names = self._names
        for a, b in self._table:
            yield names[a], names[b]
        if include_identities:
            for a, b, _ in self._implicit_composites():
                yield names[a], names[b]

    def _implicit_composites(self):
        """(a, b, ab) by number for the implicit pairs, in composable_pairs
        order: (id, id), then (range(m), m) and (m, source(m))."""
        r, s, isv = self._r, self._s, self._isv
        for v in self._vidx:
            yield v, v, v
        for m in self._nonid:
            if isv[r[m]]:
                yield r[m], m, m
            if isv[s[m]]:
                yield m, s[m], m

    def _composites(self):
        """(a, b, ab) by number for each composable pair, identities included,
        in composable_pairs order.  A table entry that compose would reject
        raises compose's error when it is reached."""
        r, s, n = self._r, self._s, len(self._ids)
        for (a, b), ab in self._table.items():
            if a >= n or b >= n or s[a] != r[b]:
                self.compose(self._names[a], self._names[b])
            yield a, b, ab
        yield from self._implicit_composites()

    def _factors(self) -> dict:
        """The factorisation index: (a, b) by key c * len(codes) + codes[d(a)],
        or _AMBIGUOUS where two entries share a key."""
        if self._factor_index is None:
            index: dict[int, object] = {}
            dc, nd, n = self._dc, len(self._codes), len(self._ids)
            for ab, c in self._table.items():
                if ab[0] < n:
                    key = c * nd + dc[ab[0]]
                    if index.setdefault(key, ab) is not ab:
                        index[key] = _AMBIGUOUS
            self._factor_index = index
        return self._factor_index

    def factorise(self, mid: str, p) -> tuple[str, str]:
        """Split mid as head * tail with d(head) == p.  Unique on valid models."""
        m = self._num(mid)
        try:
            p = tuple(int(x) for x in p)
        except (TypeError, ValueError):
            raise BadArgument(f"split {p!r} is not a sequence of integers") from None
        d = self._d[m]
        if len(p) != self.rank or len(d) != len(p) or any(x < 0 for x in p) or not deg_leq(p, d):
            raise BadSplit(f"split {p} is not between 0 and d({mid!r}) = {d}")
        head, tail = self._split(m, p)
        return self._names[head], self._names[tail]

    def _split(self, m: int, p: Degree) -> tuple[int, int]:
        """factorise by number, for a split p known to lie between 0 and d(m)."""
        if not any(p):
            return (self._r[m], m)
        if p == self._d[m]:
            return (m, self._s[m])
        code = self._codes.get(p)
        hit = None if code is None else self._factors().get(m * len(self._codes) + code)
        if hit is None:
            raise InvalidModel(f"no factorisation of {self._names[m]!r} at split {p} is recorded")
        if hit is _AMBIGUOUS:
            raise InvalidModel(f"factorisation of {self._names[m]!r} at split {p} is ambiguous")
        return hit

    # -- the cube view (see Cube) --------------------------------------------

    def _cube_blocks(self) -> list[tuple]:
        """(dimension, degree, code, numbers) per cube degree, in basis order."""
        blocks = {c: (sum(d), d, c, []) for d, c in self._codes.items()
                  if len(d) == self.rank and not (d and max(d) > 1)}
        for m, c in enumerate(self._dc):
            if c in blocks:
                blocks[c][3].append(m)
        return sorted(blocks.values())  # degrees are distinct: no list is compared

    def _cubes(self) -> list[Cube]:
        return [Cube(self._names[m], d) for _, d, _, ms in self._cube_blocks() for m in ms]

    def _steps(self, c: int, d: Degree) -> list:
        """(i, unit, rest, codes of unit and rest) per direction i with a 1 in d
        (code c); None where the index has no such split (d, 0 or no degree)."""
        if c not in self._unit_steps:
            self._unit_steps[c] = [
                (i + 1, unit, rest, None if unit == d else self._codes.get(unit),
                 self._codes.get(rest) if any(rest) else None)
                for i, x in enumerate(d) if x == 1
                for unit in [(0,) * i + (1,) + (0,) * (len(d) - i - 1)]
                for rest in [d[:i] + (0,) + d[i + 1:]]
            ]
        return self._unit_steps[c]

    def _unit_faces(self, key: str) -> dict:
        """Faces read from the factorisation index: in direction i, the
        tail after the unit step and the head before it.  Raises
        InvalidModel when a factorisation is missing or ambiguous."""
        m, names = self._num(key), self._names
        index, at = self._factors(), m * len(self._codes)
        out = {}
        for i, unit, rest, cu, cr in self._steps(self._dc[m], self._d[m]):
            tail = None if cu is None else index.get(at + cu)
            head = None if cr is None else index.get(at + cr)
            if type(tail) is not tuple or type(head) is not tuple:
                tail, head = self._split(m, unit), self._split(m, rest)
            out[i] = (names[tail[1]], names[head[0]], rest)
        return out

    def _chain_rows(self) -> tuple[list, list]:
        """The cube view in row form (see Cube), for a validated graph, whose
        index holds every inner split once: a None code is a trivial split."""
        r, s, nd, index = self._r, self._s, len(self._codes), self._factors()
        nums, rows = [[] for _ in range(self.rank + 1)], [[] for _ in range(self.rank + 1)]
        pos = [0] * len(self._ids)  # each cube's row in its dimension's basis
        for t, d, c, ms in self._cube_blocks():  # by dimension: faces are placed first
            for i, m in enumerate(ms, len(nums[t])):
                pos[m] = i
            nums[t] += ms
            cols = []  # hi_1, lo_1, hi_2, lo_2, ... of the block's cubes
            for _, _, _, cu, cr in self._steps(c, d):
                cols.append([pos[s[m]] for m in ms] if cu is None else
                            [pos[index[m * nd + cu][1]] for m in ms])
                cols.append([pos[r[m]] for m in ms] if cr is None else
                            [pos[index[m * nd + cr][0]] for m in ms])
            rows[t] += itertools.chain.from_iterable(zip(*cols))
        return [[self._names[m] for m in ms] for ms in nums], rows

    # -- simple indexes ------------------------------------------------------

    def by_degree(self, n) -> tuple[str, ...]:
        try:
            n = tuple(int(x) for x in n)
        except (TypeError, ValueError):
            raise BadArgument(f"degree {n!r} is not a sequence of integers") from None
        return tuple(self._names[m] for m, d in enumerate(self._d) if d == n)

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return (
            f"FiniteKGraph(rank={self.rank}, |vertices|={len(self._vertices)}, "
            f"|morphisms|={len(self._ids)})"
        )


# ---------------------------------------------------------------------------
# validation of the category axioms


def validate_kgraph(g: FiniteKGraph) -> list[Violation]:
    """Check the k-graph axioms; returns all violations found (never raises).

    Identity neutrality and "degree zero means identity" hold by
    construction and are not re-checked.  compose-total is certified per
    morphism by counting its stored followers.  On a graph with no fault
    in the earlier rule groups, factor-exists is certified by counting
    the index, and associativity by thin ends: when no two morphisms,
    identities included, share (range, source), both bracketings of a
    triple are the one morphism between its ends.  A shortfall, or a
    graph with parallel morphisms, runs the full scans, which check every
    composable pair, triple and split, so the list does not depend on the
    path taken.  The violations are found once per graph and kept on it;
    every call returns a fresh list.  Simplices, spheres and wedges keep
    the verdict () by construction, and so do glue_on_common results that
    its "lift" check certifies: they are not scanned.
    """
    if g._violations is None:
        g._violations = tuple(_find_violations(g))
    return list(g._violations)


def _find_violations(g: FiniteKGraph) -> list[Violation]:
    """One walk over the records and one over the stored table, unsorted.
    Rule groups come in a fixed order, each sorted by witness on its own
    (factor-unique by its second pair), as a walk in sorted order would
    find them.  Counts stand in for scans where they are exact (see the
    certificates below).  A clean graph keeps the factorisation index
    built here."""
    out: list[Violation] = []
    names, n, rank = g._names, len(g._ids), g.rank
    deg, r, s, isv = g._d, g._r, g._s, g._isv
    # whether no two morphisms share (range, source), for the certificates
    # below; its set is gone before the walk over the table
    thin = len(set(zip(r, s))) == n
    bad_shape: set[int] = set()
    bad_ends: set[int] = set()
    dc = g._dc
    shapeless = {c for d, c in g._codes.items() if len(d) != rank}
    for m in [m for m in g._nonid if dc[m] in shapeless or not (isv[r[m]] and isv[s[m]])]:
        d = deg[m]
        if dc[m] in shapeless:
            out.append(Violation("degree-shape", (names[m],), f"degree {d} is not in N^{rank}"))
            bad_shape.add(m)
        if not (isv[r[m]] and isv[s[m]]):
            bad = [names[v] for v in (r[m], s[m]) if not isv[v]]
            out.append(Violation("endpoints", (names[m],), f"range/source {bad} are not vertices"))
            bad_ends.add(m)

    # after[a][b] = ab over the usable entries: known ids, a and b with
    # vertex endpoints, composable.  index[c * nd + code of d(a)] = (a, b)
    # over those with a and b of good shape; clashes holds every pair of a
    # repeated key.  plus[code of d(a) * nd + code of d(b)] is the code of
    # d(a) + d(b), or -1 when no morphism has that degree.
    table, codes, nd, degrees = g._table, g._codes, len(g._codes), list(g._codes)
    domain: list[Violation] = []
    composite: list[Violation] = []
    after: dict[int, dict[int, int]] = {}
    index: dict[int, tuple[int, int]] = {}
    clashes: dict[int, list[tuple[int, int]]] = {}
    plus: dict[int, int] = {}
    for ab, c in table.items():
        a, b = ab
        if a >= n or b >= n or c >= n:
            missing = [names[x] for x in (a, b, c) if x >= n]
            witness = (names[a], names[b], names[c])
            domain.append(Violation("compose-domain", witness, f"unknown ids {missing} in table"))
            continue
        if bad_ends and (a in bad_ends or b in bad_ends):
            continue
        if s[a] != r[b]:
            detail = (f"table entry for a non-composable pair: "
                      f"source({names[a]!r}) != range({names[b]!r})")
            domain.append(Violation("compose-domain", (names[a], names[b]), detail))
            continue
        after.setdefault(a, {})[b] = c
        if (r[c] != r[a] or s[c] != s[b]) and c not in bad_ends:
            detail = "composite endpoints disagree with range(a) / source(b)"
            composite.append(Violation("compose-endpoints", (names[a], names[b], names[c]), detail))
        if bad_shape and (a in bad_shape or b in bad_shape):
            continue
        da = dc[a]
        total = plus.get(da * nd + dc[b])
        if total is None:
            total = plus[da * nd + dc[b]] = codes.get(tuple(map(add, deg[a], deg[b])), -1)
        if dc[c] != total and c not in bad_shape:
            want = deg_add(deg[a], deg[b])
            detail = f"d({names[c]!r}) = {deg[c]} differs from d(a)+d(b) = {want}"
            composite.append(Violation("compose-degree", (names[a], names[b], names[c]), detail))
        key = c * nd + da
        old = index.setdefault(key, ab)
        if old != ab:
            clashes.setdefault(key, [old]).append(ab)
    by_witness = attrgetter("witness")
    out += sorted(domain, key=by_witness)

    # a's stored followers are non-identities with range source(a), so they
    # are all there when they are as many as the morphisms with that range,
    # less its identity
    ranges = Counter(r)
    for a in g._nonid:
        if a in bad_ends or len(after.get(a, ())) == ranges[s[a]] - 1:
            continue
        for b in g._incidence()[0][s[a]]:
            if (a, b) not in table and not isv[b]:
                detail = "composable pair has no composite in the table"
                out.append(Violation("compose-total", (names[a], names[b]), detail))

    # a stable sort keeps compose-endpoints before compose-degree per pair
    out += sorted(composite, key=by_witness)

    # Certificates for a graph clean so far.  Its non-identities have
    # nonzero degree (vertices have degree zero, and the table holds no
    # identity pair), so each index key is an inner split (c, d(a)) of a
    # non-identity c, one per key, and factor-exists holds when the index
    # has as many keys as there are inner splits: the sum over the
    # non-identities m of prod(d_i(m) + 1) - 2.  Every composable pair has
    # a composite, with range r(a) and source s(b), so when no two
    # morphisms, identities included, share (range, source), (x y) z and
    # x (y z) are both the one morphism from s(z) to r(x): associativity
    # holds and no triple is walked.  Any other graph walks every triple.
    per_code = Counter(dc)
    zero = codes.get((0,) * rank)
    inner_splits = sum(k * (math.prod(x + 1 for x in degrees[c]) - 2)
                       for c, k in per_code.items() if c != zero)
    counted = (not out and not clashes and per_code[zero] == len(g._vidx)
               and len(index) == inner_splits)
    if out or not thin:
        out += sorted(_assoc(after, names), key=by_witness)

    unique = []
    for key, pairs in clashes.items():
        c, p = divmod(key, nd)
        pairs.sort()
        a0, b0 = pairs[0]
        detail = f"two factorisations of {names[c]!r} at split {degrees[p]}"
        first = (names[c], names[a0], names[b0])
        unique += [Violation("factor-unique", (*first, names[a], names[b]), detail)
                   for a, b in pairs[1:]]
    out += sorted(unique, key=lambda v: v.witness[3:])

    inner: dict[Degree, list[Degree]] = {}  # the splits p of d with 0 < p < d
    for m in () if counted else g._nonid:
        if m in bad_shape or m in bad_ends:
            continue
        d = deg[m]
        if d not in inner:
            inner[d] = [(p, g._codes.get(p)) for p in _splits(d) if any(p) and p != d]
        for p, code in inner[d]:
            if code is None or m * nd + code not in index:
                detail = f"no factorisation of {names[m]!r} at split {p}"
                out.append(Violation("factor-exists", (names[m],), detail))

    if not out:
        g._factor_index = index
    return out


def _assoc(after: dict, names) -> list[Violation]:
    """The assoc violations, unsorted, of the triples (a, b, c) of stored
    entries."""
    out = []
    for a, a_row in after.items():
        for b, ab in a_row.items():
            b_row, ab_row = after.get(b), after.get(ab)
            if b_row is None or ab_row is None:
                continue
            for c, bc in b_row.items():
                left, right = ab_row.get(c), a_row.get(bc)
                # a missing composite is reported by compose-total
                if left is not None and right is not None and left != right:
                    detail = f"(a b) c = {names[left]!r} but a (b c) = {names[right]!r}"
                    out.append(Violation("assoc", (names[a], names[b], names[c]), detail))
    return out


# ---------------------------------------------------------------------------
# skeletons of rank-2 graphs


class Edge(_Record):
    """A skeleton edge's record: range and source."""

    __slots__ = ("r", "s")
    r: str
    s: str

    def __init__(self, r: str, s: str):
        _set(self, "r", r)
        _set(self, "s", s)


Square = tuple[str, str, str, str]
# (f, g, g2, f2) encodes the commuting relation  f g  =  g2 f2 :
# f, f2 are colour-1 ("blue") edges, g, g2 colour-2 ("red") edges, and the
# two edge paths share endpoints.


def _edges(edges) -> dict[str, Edge]:
    try:
        edges = dict(edges)
    except (TypeError, ValueError):
        raise BadArgument("blue and red must be mappings") from None
    out = {}
    for e, rec in edges.items():
        e = str(e)
        if isinstance(rec, Edge):
            rec = rec.r, rec.s
        try:
            r, s = () if isinstance(rec, str) else rec  # not "vw" as ("v", "w")
        except (TypeError, ValueError):
            raise BadArgument(f"record of {e!r} is not (range, source)") from None
        if e in out:
            raise BadArgument(f"duplicate edge id {e!r}")
        out[e] = Edge(str(r), str(s))
    return out


def _square(sq) -> tuple[str, ...]:
    try:
        return tuple(map(str, sq))
    except TypeError:
        raise BadArgument(f"square {sq!r} is not a quadruple") from None


class Skeleton2Graph:
    """Presentation of a rank-2 graph: a two-coloured digraph plus squares.

    The squares must pair every composable blue-red path with a unique
    red-blue path (and vice versa); `validate_skeleton` checks this.
    Skeletons compare equal when their vertices, blue and red edges and
    squares are; a skeleton held in a set or dict must not be changed.
    """

    rank = 2

    def __init__(self, vertices, blue, red, squares):
        vs = _vertex_ids(vertices)
        self.vertices: tuple[str, ...] = tuple(sorted(vs))
        self.blue: dict[str, Edge] = _edges(blue)
        self.red: dict[str, Edge] = _edges(red)
        ids = vs + list(self.blue) + list(self.red)
        if len(ids) != len(set(ids)):
            raise BadArgument("vertex and edge ids must be pairwise distinct")
        try:
            self.squares: tuple[Square, ...] = tuple(sorted(map(_square, squares)))
        except TypeError:
            raise BadArgument("squares must be an iterable of quadruples") from None
        for sq in self.squares:
            if len(sq) != 4:
                raise BadArgument(f"square {sq} is not a quadruple")

    def __eq__(self, other):
        if isinstance(other, Skeleton2Graph):
            return (self.vertices, self.blue, self.red, self.squares) == (
                other.vertices, other.blue, other.red, other.squares)
        return NotImplemented

    def __hash__(self):
        return hash((self.vertices, self.squares))

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
        blue f2, f in direction 2; a vertex has none.  UnknownId for any
        other key."""
        if isinstance(key, tuple):
            if key not in self.squares:
                raise UnknownId(f"no square {key!r}")
            f, gg, g2, f2 = key
            return {1: (gg, g2, (0, 1)), 2: (f2, f, (1, 0))}
        if key not in self.blue and key not in self.red and key in self.vertices:
            return {}
        e = self.edge(key)
        return {self.colour(key): (e.s, e.r, ())}

    def _chain_rows(self) -> tuple[list, list]:
        """The cube view in row form (see Cube), in _unit_faces' order: an
        edge's source and range, a square's g, g2, f2 and f."""
        edges = [*sorted(self.blue.items()), *sorted(self.red.items())]
        bases = [list(self.vertices), [e for e, _ in edges], list(self.squares)]
        at = {x: i for ids in bases[:2] for i, x in enumerate(ids)}  # the ids are distinct
        rows = [[at[x] for _, rec in edges for x in (rec.s, rec.r)],
                [at[x] for f, gg, g2, f2 in self.squares for x in (gg, g2, f2, f)]]
        return bases, [[], *rows]

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
        if rec.r not in vset or rec.s not in vset:
            bad = [v for v in (rec.r, rec.s) if v not in vset]
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

    # each composable path x then y, by (x, y) id, found through y's edges by range
    blue, red = sorted(sk.blue.items()), sorted(sk.red.items())
    for xs, ys, paths, kind in ((blue, red, br_seen, "blue-red"),
                                (red, blue, rb_seen, "red-blue")):
        ys_by_range: dict[str, list[str]] = {}
        for y, rec in ys:
            ys_by_range.setdefault(rec.r, []).append(y)
        for x, rec in xs:
            for y in ys_by_range.get(rec.s, ()):
                n = paths.get((x, y), 0)
                if n != 1:
                    detail = f"{kind} path occurs in {n} squares (needs exactly 1)"
                    out.append(Violation("square-bijection", (x, y), detail))
    return out


def _violations_of(model) -> list[Violation] | None:
    """The violations its own validator finds in a model; None for anything
    that is not a model."""
    if isinstance(model, FiniteKGraph):
        return validate_kgraph(model)
    if isinstance(model, Skeleton2Graph):
        return validate_skeleton(model)
    return None


# ---------------------------------------------------------------------------
# cubes and faces


class Cube(_Record):
    """A unit cube of a model: a morphism of degree <= (1,...,1).

    For category models the key is the morphism id; for skeletons it is a
    vertex id (degree ()), an edge id or a square quadruple.

    A model's `_unit_faces(key)`, read by `face` and the exports, maps
    each direction i the cube extends in, in increasing order, to (side-1
    key, side-0 key, face degree): side 0 is the face at the range end
    (the head before the unit step in direction i), side 1 the face at the
    source end (the tail after it); both have a 0 at i (a skeleton's
    vertices have degree ()).  Its row form `_chain_rows()`, read by
    `chain_complex` on a valid model, is (bases, rows): the n-cube keys in
    basis order and their faces as rows in bases[n - 1], in that order.
    """

    __slots__ = ("key", "degree")
    key: object
    degree: Degree

    def __init__(self, key: object, degree: Degree):
        _set(self, "key", key)
        _set(self, "degree", degree)

    @property
    def dim(self) -> int:
        return sum(self.degree)


def cubes(model, n: int | None = None) -> list[Cube]:
    """The unit cubes of the model, optionally restricted to dimension n.

    Cubes come back in a fixed canonical order (the chain-complex basis
    order).  Raises DimensionTooLarge when n exceeds the rank.
    """
    if n is not None and not isinstance(n, int):
        raise BadArgument(f"dimension {n!r} is not an integer")
    if n is not None and n > model.rank:
        raise DimensionTooLarge(f"a rank-{model.rank} graph has no {n}-cubes")
    out = model._cubes()
    return out if n is None else [c for c in out if c.dim == n]


def face(model, cube: Cube, i: int, side: int) -> Cube:
    """The side-0 / side-1 face of a cube in direction i (1-based).

    Side 0 is the face at the range end (the head complement), side 1 the
    face at the source end; see `Cube`.  The faces and the degree are the
    key's own: BadArgument when the cube's degree is not, and UnknownId
    for a key the model does not have.
    """
    if side not in (0, 1):
        raise BadArgument("side must be 0 or 1")
    if not isinstance(i, int):
        raise BadArgument(f"direction {i!r} is not an integer")
    try:
        hash(cube.key)
    except TypeError:
        raise UnknownId(f"no cube with key {cube.key!r}") from None
    faces = model._unit_faces(cube.key)
    # the key's degree, read off a face: the face's degree with a 1 put
    # back in its direction (a skeleton edge's faces are vertices, of
    # degree ()); a key without faces has no 1 in its degree
    own = [rest[:j - 1] + (1,) + rest[j:] if rest else unit_degree(model.rank, j)
           for j, (_, _, rest) in faces.items()]
    if (own[0] != cube.degree) if own else (1 in cube.degree):
        raise BadArgument(f"cube {cube.key!r} does not have degree {cube.degree}")
    if i not in faces:
        raise BadDirection(f"cube {cube.key!r} has no extent in direction {i}")
    hi, lo, degree = faces[i]
    return Cube(lo if side == 0 else hi, degree)


# ---------------------------------------------------------------------------
# minimal common extensions


def mce(g: FiniteKGraph, a: str, b: str) -> list[str]:
    """Minimal common extensions of a and b: morphisms of degree
    d(a) v d(b) that factor through both.  Sorted by id."""
    i, j = g._num(a), g._num(b)
    da, db, v = g._d[i], g._d[j], g._r[i]
    if v != g._r[j]:
        return []
    if len(da) != g.rank or len(db) != g.rank:
        raise InvalidModel("mce needs well-shaped degrees")
    code, dc = g._codes.get(deg_join(da, db)), g._dc
    # the morphisms with range v come in id order
    return [g._names[lam] for lam in g._incidence()[0].get(v, ())
            if dc[lam] == code and g._split(lam, da)[0] == i and g._split(lam, db)[0] == j]


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

    if kind in ("hereditary", "cohereditary"):
        # the first morphism, in id order, from outside V into V (hereditary)
        # or from V out of it (co-hereditary)
        inner, outer = (g._r, g._s) if kind == "hereditary" else (g._s, g._r)
        nums = {g._at[v] for v in V}
        for m in range(len(g._ids)):
            if inner[m] in nums and outer[m] not in nums:
                return VertexSetReport(kind, False, (g._names[m],))
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


def cartesian_product(a: FiniteKGraph, b: FiniteKGraph) -> FiniteKGraph:
    """The product category with componentwise degree; rank adds."""
    na, nb = len(a._ids), len(b._ids)
    ids, order, new, at = _numbering([f"({x},{y})" for x in a._ids for y in b._ids])
    if len(at) != len(ids):
        raise BadArgument("duplicate morphism id: pair ids of the product collide")

    def num(x, y):  # the product's number of the pair x * nb + y
        if x < na and y < nb:
            return new[x * nb + y]
        return at[f"({a._names[x]},{b._names[y]})"]  # names an unknown id

    deg = [dx + dy for dx in a._d for dy in b._d]
    r = [num(x, y) for x in a._r for y in b._r]
    s = [num(x, y) for x in a._s for y in b._s]
    isv = [vx and vy for vx in a._isv[:na] for vy in b._isv[:nb]]
    # degrees outside N^rank (broken factors) can add up to zero
    zero = (0,) * (a.rank + b.rank)
    bad = [m for m, old in zip(ids, order) if deg[old] == zero and not isv[old]]
    if bad:
        raise BadArgument(f"{bad[0]!r} has degree zero; identities are implicit")

    table = {}
    if (a._table or a._vidx) and (b._table or b._vidx):
        # On a broken table, raise what composing pair by pair in product
        # order raises first: a's first pair, then b's pairs, then a's.
        next(a._composites())
        b_pairs = list(b._composites())
        av, bv = a._isv, b._isv
        for x, x2, xx in a._composites():
            x_id, x2_id, x, x2 = av[x], av[x2], x * nb, x2 * nb
            at_xx = xx * nb if xx < na else -1  # the composite's pair number, if known
            for y, y2, yy in b_pairs:
                if not ((x_id and bv[y]) or (x2_id and bv[y2])):
                    ab = new[at_xx + yy] if at_xx >= 0 and yy < nb else num(xx, yy)
                    table[(new[x + y], new[x2 + y2])] = ab
    rank = a.rank + b.rank
    return FiniteKGraph._from_parts(*_sorted_parts(rank, order, at, deg, r, s, isv, table))


def _glue(graphs, tags, shared=None) -> FiniteKGraph:
    """The union of graphs, graphs[i]'s morphism m named tags[i].format(m), with
    each later graph's morphism m in shared (a dict by number) merged into
    graphs[0]'s shared[m] under the least of their ids.  No tag's text before
    "{}" is a prefix of another's, so that is the id in the least tag's graph.
    One pass takes graphs[0] whole, then each later graph's morphisms outside
    shared and its entries with a factor outside shared; _numbering sorts the
    ids once.  When shared is the congruence its pairs generate (see
    glue_on_common), this is the quotient of the union by it, with its ids,
    numbers and table order.  Names a broken graph uses are tagged too.  Not
    validated: the sphere and wedge builders glue along sets the paper
    proves give k-graphs, and glue_on_common certifies its glue itself."""
    rank = graphs[0].rank
    for g in graphs:
        if g.rank != rank:
            raise RankMismatch(f"cannot union a rank-{g.rank} graph with rank {rank}")
    shared = shared or {}
    tags = [tag.split("{}") for tag in tags]  # (text before, text after)
    ids, parts = [], []  # the union's ids; per graph, its numbers and own morphisms
    for g, (pre, post) in zip(graphs, tags, strict=True):
        num = [shared.get(m, -1) if ids else -1 for m in range(len(g._ids))]
        own = [m for m, x in enumerate(num) if x < 0]
        for j, m in enumerate(own, len(ids)):
            num[m] = j
        ids += [f"{pre}{g._names[m]}{post}" for m in own]
        parts.append((num, own))
    least = min(range(len(tags)), key=tags.__getitem__)
    pre, post = tags[least]
    for m, m0 in shared.items() if least else ():
        ids[m0] = f"{pre}{graphs[least]._names[m]}{post}"
    ids, order, new, at = _numbering(ids)

    deg, r, s, isv, table = [], [], [], bytearray(), {}
    for i, (g, (pre, post), (num, own)) in enumerate(zip(graphs, tags, parts)):
        glob = [new[x] for x in num] + [at[f"{pre}{x}{post}"] for x in g._names[len(num):]]
        if not i and glob == list(range(len(glob))):  # graphs[0] keeps its numbers
            deg, r, s, isv, table = list(g._d), list(g._r), list(g._s), g._isv[:len(num)], dict(g._table)
            continue
        deg += [g._d[m] for m in own]
        r += [glob[g._r[m]] for m in own]
        s += [glob[g._s[m]] for m in own]
        isv += bytearray(g._isv[m] for m in own)
        merged = bytearray(len(glob))
        for m in shared if i else ():
            merged[m] = 1
        table.update({(glob[a], glob[b]): glob[c]
                      for (a, b), c in g._table.items() if not (merged[a] and merged[b])})
    return FiniteKGraph._from_parts(*_sorted_parts(rank, order, at, deg, r, s, isv, table))


def disjoint_union(a: FiniteKGraph, b: FiniteKGraph) -> FiniteKGraph:
    """Tagged coproduct of two graphs of the same rank ("0:" and "1:" ids)."""
    return _glue([a, b], ["0:{}", "1:{}"])


def induced_subgraph(g: FiniteKGraph, vertex_set) -> FiniteKGraph:
    """Full subcategory on a vertex set.

    The result is a k-graph when the set is hereditary or co-hereditary
    (factorisations then stay inside); for arbitrary sets it is just a
    candidate and may fail validation.
    """
    V = {g._vertex_num(str(v)) for v in vertex_set}
    # g's records and table restricted to V, which keeps its identities
    keep = [m for m in range(len(g._ids)) if g._r[m] in V and g._s[m] in V]
    new = {m: i for i, m in enumerate(keep)}
    table = {
        (new[x], new[y]): new[z]
        for (x, y), z in g._table.items()
        if x in new and y in new and z in new
    }
    names, isv = tuple(g._names[m] for m in keep), bytearray(g._isv[m] for m in keep)
    d, r, s = [g._d[m] for m in keep], [new[g._r[m]] for m in keep], [new[g._s[m]] for m in keep]
    return FiniteKGraph._from_parts(g.rank, names, len(keep), d, r, s, isv, table)
