"""Quotients of finite k-graphs by congruences on morphisms.

A morphism relation is an equivalence on the morphism ids.  It is a
congruence when four conditions hold:

  "d"      related morphisms have equal degree;
  "comp"   composing related pairs (when both composable) lands in
           related composites;
  "factor" related morphisms have related heads and tails at every split;
  "lift"   whenever source(a) is related to range(b), some related pair
           is actually composable.

Under these the quotient category inherits degree, endpoints and
composition and is again a k-graph.  check_congruence reports the first
failing condition with a witness that can be replayed against the graph;
quotient refuses (NotACongruence) unless all four hold.

Generated relations are closed by re-running the check's comp and factor
scan (_forced): merge every pair it finds unrelated, comparing members of
one degree split by split, and scan again until it finds none.  A merged
class that a model cannot factorise raises InvalidModel, as in the check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FiniteKGraph,
    Morphism,
    VertexSetReport,
    _splits,
    disjoint_union,
    unit_degree,
    validate_kgraph,
    vertex_predicate,
)
from .errors import (
    BadArgument,
    ForeignId,
    InvalidModel,
    NotACongruence,
    NotHereditary,
    NotInjective,
    OverlappingClasses,
)


@dataclass(frozen=True)
class CongruenceVerdict:
    ok: bool
    violated: str | None = None  # one of "d", "comp", "factor", "lift"
    witness: tuple[str, ...] = ()
    detail: str = ""

    def __str__(self) -> str:
        if self.ok:
            return "relation is a congruence"
        ids = ", ".join(repr(w) for w in self.witness)
        return f"condition {self.violated!r} fails: {self.detail} (witness: {ids})"


class MorphismRelation:
    """An equivalence on the morphisms of a fixed graph.

    Build one with relation_from_pairs (mode "generated": the pairs are
    closed up under the congruence conditions as far as equalities are
    forced) or relation_from_classes (mode "explicit": the partition is
    taken literally).
    """

    def __init__(self, graph: FiniteKGraph, rep: dict[str, str], mode: str, pairs):
        self.graph = graph
        self.mode = mode
        self.pairs: tuple[tuple[str, str], ...] = tuple((a, b) for a, b in pairs)
        self._rep = rep
        members: dict[str, list[str]] = {}
        for m, r in rep.items():
            members.setdefault(r, []).append(m)
        self._members = {r: tuple(sorted(ms)) for r, ms in members.items()}

    def rep(self, m: str) -> str:
        try:
            return self._rep[m]
        except KeyError:
            raise ForeignId(f"{m!r} is not a morphism of the relation's graph") from None

    def same(self, a: str, b: str) -> bool:
        return self.rep(a) == self.rep(b)

    def class_of(self, m: str) -> tuple[str, ...]:
        return self._members[self.rep(m)]

    def classes(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self._members[r] for r in sorted(self._members))

    def nontrivial_classes(self) -> tuple[tuple[str, ...], ...]:
        return tuple(c for c in self.classes() if len(c) > 1)

    def __repr__(self) -> str:
        big = sum(1 for c in self._members.values() if len(c) > 1)
        return f"MorphismRelation(mode={self.mode!r}, classes={len(self._members)}, merged={big})"


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        if x not in p:  # a broken table's composite or factor
            raise ForeignId(f"{x!r} is not a morphism of the graph")
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        # keep the lexicographically least id as the representative
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def _freeze(graph, uf, mode, pairs) -> MorphismRelation:
    # union keeps each class's least id as its root
    return MorphismRelation(graph, {m: uf.find(m) for m in graph.morphism_ids()}, mode, pairs)


def relation_from_pairs(graph: FiniteKGraph, pairs, mode: str = "generated") -> MorphismRelation:
    """The relation generated by identifying the given id pairs.

    In "generated" mode the equivalence closure is saturated under the
    composition and factorisation conditions, so that every equality they
    force is present; "explicit" mode keeps just the equivalence closure.
    """
    if mode not in ("generated", "explicit"):
        raise BadArgument(f"unknown relation mode {mode!r}")
    pairs = [(str(a), str(b)) for a, b in pairs]
    for a, b in pairs:
        for m in (a, b):
            if not graph.has(m):
                raise ForeignId(f"{m!r} is not a morphism of the graph")
    uf = _UnionFind(graph.morphism_ids())
    for a, b in pairs:
        uf.union(a, b)
    if mode == "generated":
        _saturate(graph, uf)
    return _freeze(graph, uf, mode, pairs)


def relation_from_classes(graph: FiniteKGraph, classes) -> MorphismRelation:
    """An explicit relation given by its non-trivial classes (taken literally)."""
    uf = _UnionFind(graph.morphism_ids())
    seen: set[str] = set()
    for cls in classes:
        cls = [str(m) for m in cls]
        for m in cls:
            if not graph.has(m):
                raise ForeignId(f"{m!r} is not a morphism of the graph")
            if m in seen:
                raise OverlappingClasses(f"classes overlap at {m!r}")
            seen.add(m)
        for m in cls[1:]:
            uf.union(cls[0], m)
    return _freeze(graph, uf, "explicit", ())


def _saturate(graph: FiniteKGraph, uf: _UnionFind) -> None:
    """Close under the equalities forced by the comp and factor conditions:
    merge what one scan finds unrelated, and scan again until it finds
    nothing.  Only members of one degree are compared split by split."""
    ids, mor = graph._ids, graph._mor
    while True:
        rep = {m: uf.find(m) for m in ids}
        groups: dict[tuple, list[str]] = {}
        for m in ids:
            groups.setdefault((rep[m], mor[m].d), []).append(m)
        classes = [ms for ms in groups.values() if len(ms) > 1]
        merged = False
        for x, y, *_ in _forced(graph, rep, classes):
            merged = uf.union(x, y) or merged
        if not merged:
            return


def _forced(g: FiniteKGraph, rep: dict[str, str], classes):
    """The pairs the comp and factor conditions force together that rep
    does not relate, or that name an id rep does not know, as
    (x, y, witness, part, split) with split None for a pair of composites.

    classes are the classes compared split by split, each of one degree
    with its least member first.  Composites come first, grouped by the
    class pair of their factors in table order; then each class split by
    split, heads before tails.  A table entry or a factorisation that is
    not there raises what compose or factorise raises, when it is reached.
    """
    mor = g._mor
    # An implicit identity pair shares its class pair only with identity
    # pairs, whose composites are then related, unless a class holds a
    # vertex and a non-identity: only then are those pairs walked too.
    entries = g._compose.items()
    vertex_classes = {rep[v] for v in g._vertices}
    if any(rep[m] in vertex_classes for m in g._nonid):
        entries = (((a, b), ab) for a, b, ab in g._composites())
    first: dict[tuple[str, str], tuple[str, str, str]] = {}
    for (a, b), ab in entries:
        ra, rb = mor.get(a), mor.get(b)
        if ra is None or rb is None or ra.s != rb.r:
            g.compose(a, b)  # raises what composing the entry raises
        key = (rep[a], rep[b])
        old = first.get(key)
        if old is None:
            first[key] = (a, b, ab)
        elif rep.get(old[2], 0) != rep.get(ab, 1):
            yield old[2], ab, (old[0], a, old[1], b), "composites", None

    for cls in classes:
        m0 = cls[0]
        rec0 = mor[m0]
        if len(rec0.d) != g.rank and min(rec0.d, default=0) >= 0:
            g.factorise(m0, (0,) * len(rec0.d))  # raises BadSplit, as at the first split
        # members share d, so each split lies between 0 and their degree
        rest = [(m, mor[m]) for m in cls[1:]]
        for p in _splits(rec0.d):
            h0, t0 = g._split(m0, rec0, p)
            for m, rec in rest:
                h, t = g._split(m, rec, p)
                if rep.get(h0, 0) != rep.get(h, 1):
                    yield h0, h, (m0, m), "heads", p
                if rep.get(t0, 0) != rep.get(t, 1):
                    yield t0, t, (m0, m), "tails", p


# ---------------------------------------------------------------------------
# the congruence conditions


def check_congruence(rel: MorphismRelation) -> CongruenceVerdict:
    """Test the four congruence conditions, in order, stopping at the first
    failure.  The verdict's witness names morphisms that replay it."""
    g = rel.graph
    mor, rep = g._mor, rel._rep
    classes = sorted(ms for ms in rel._members.values() if len(ms) > 1)  # by representative

    for cls in classes:
        d0 = mor[cls[0]].d
        for m in cls[1:]:
            if mor[m].d != d0:
                return CongruenceVerdict(
                    False,
                    "d",
                    (cls[0], m),
                    f"related morphisms have degrees {d0} and {mor[m].d}",
                )

    for x, y, witness, part, p in _forced(g, rep, classes):
        rel.same(x, y)  # raises ForeignId for an unknown id; False otherwise
        condition, at = ("comp", "") if p is None else ("factor", f" at split {p}")
        detail = f"{part} {x!r} and {y!r}{at} are unrelated"
        return CongruenceVerdict(False, condition, witness, detail)

    # lift: group morphism classes by the vertex classes of their sources
    # and ranges; each (A, B) meeting through a vertex class must contain
    # an actually composable pair.  A holding a source in every vertex of
    # the class meets every such B, so one-vertex classes need no bucket.
    members = rel._members
    merged = {rep[cls[0]] for cls in classes}
    left: dict[str, dict[str, str]] = {}   # vertex class -> {morphism class: exemplar}
    right: dict[str, dict[str, str]] = {}
    for m in g._ids:
        rec = mor[m]
        ws = rep.get(rec.s) or rel.rep(rec.s)
        wr = rep.get(rec.r) or rel.rep(rec.r)
        if ws in merged:
            left.setdefault(ws, {}).setdefault(rep[m], m)
        if wr in merged:
            right.setdefault(wr, {}).setdefault(rep[m], m)
    sources = {c: {mor[x].s for x in members[c]} for b in left.values() for c in b}
    ranges = {c: {mor[x].r for x in members[c]} for b in right.values() for c in b}
    for w, lbucket in left.items():
        rbucket = right.get(w)
        if not rbucket:
            continue
        vclass = members[w]
        for ca, alpha in lbucket.items():
            src = sources[ca]
            if len(src) >= len(vclass) and src.issuperset(vclass):
                continue
            for cb, beta in rbucket.items():
                if src.isdisjoint(ranges[cb]):
                    return CongruenceVerdict(
                        False,
                        "lift",
                        (alpha, beta),
                        "source class meets range class but no related pair composes",
                    )

    return CongruenceVerdict(True)


# ---------------------------------------------------------------------------
# quotient construction


def quotient(graph: FiniteKGraph, rel: MorphismRelation) -> FiniteKGraph:
    """The quotient k-graph; classes are named by their least member id.

    Raises NotACongruence (carrying the verdict) unless check_congruence
    passes.  When it does, the quotient inherits degree, endpoints and
    composition well-definedly and passes validate_kgraph.
    """
    if rel.graph is not graph:
        raise BadArgument("relation was built over a different graph")
    verdict = check_congruence(rel)
    if not verdict.ok:
        raise NotACongruence(verdict)

    # One record per class, named by its representative.  By "d" a class
    # holds only vertices or only non-identities, so the records of vertex
    # classes are identities and no other has degree zero.  check_congruence
    # has resolved every endpoint and composed every table pair, and
    # identity pairs land on the quotient's implicit identity pairs, so the
    # stored table is all that carries over.
    rep = rel._rep
    mor = {}
    for r, members in rel._members.items():
        rec = graph._mor[members[0]]
        mor[r] = Morphism(rec.d, rep[rec.r], rep[rec.s])
    table = {}
    for (a, b), c in graph._compose.items():
        table[(rep[a], rep[b])] = rep[c] if c in rep else rel.rep(c)
    vertices = {rep[v] for v in graph.vertices}
    return FiniteKGraph._from_parts(graph.rank, vertices, mor, table)


# ---------------------------------------------------------------------------
# gluing two graphs along a common subobject


def _check_embedding(side: str, phi: dict[str, str], common: FiniteKGraph, target: FiniteKGraph):
    for m in common.morphism_ids():
        if m not in phi:
            raise BadArgument(f"gluing map on side {side!r} misses morphism {m!r}")
    for m, im in phi.items():
        if not common.has(m):
            raise ForeignId(f"gluing map on side {side!r} has foreign domain id {m!r}")
        if not target.has(im):
            raise ForeignId(f"gluing map on side {side!r} hits unknown id {im!r}")
    if len(set(phi.values())) != len(phi):
        raise NotInjective(side)
    for m in common.morphism_ids():
        if common.d(m) != target.d(phi[m]):
            raise BadArgument(f"map on side {side!r} changes the degree of {m!r}")
        if phi[common.r(m)] != target.r(phi[m]) or phi[common.s(m)] != target.s(phi[m]):
            raise BadArgument(f"map on side {side!r} does not respect endpoints at {m!r}")
    for a, b in common.composable_pairs(include_identities=True):
        if target.compose(phi[a], phi[b]) != phi[common.compose(a, b)]:
            raise BadArgument(f"map on side {side!r} is not functorial at ({a!r}, {b!r})")


def glue_on_common(
    common: FiniteKGraph,
    left: FiniteKGraph,
    right: FiniteKGraph,
    phi_left: dict[str, str],
    phi_right: dict[str, str],
) -> FiniteKGraph:
    """Glue left and right along injective embeddings of a common graph.

    The images must both be hereditary vertex sets, or both co-hereditary
    ones; then identifying the two copies of the common graph inside the
    disjoint union is a congruence and the glued graph is again a
    k-graph (validated before returning).
    """
    _check_embedding("left", phi_left, common, left)
    _check_embedding("right", phi_right, common, right)

    images = {}
    for side, phi, target in (("left", phi_left, left), ("right", phi_right, right)):
        V = {phi[v] for v in common.vertices}
        hered = vertex_predicate(target, V, "hereditary")
        cohered = vertex_predicate(target, V, "cohereditary")
        images[side] = (hered, cohered)
    if not (
        (images["left"][0].holds and images["right"][0].holds)
        or (images["left"][1].holds and images["right"][1].holds)
    ):
        for side in ("left", "right"):
            hered, cohered = images[side]
            if not hered.holds and not cohered.holds:
                raise NotHereditary(side, hered.witness[0])
        # one side is hereditary-only, the other co-hereditary-only
        raise NotHereditary(
            "right",
            (images["right"][0].witness or images["right"][1].witness or ("?",))[0],
            "images must be hereditary on both sides or co-hereditary on both sides",
        )

    union = disjoint_union(left, right)
    pairs = [
        (f"0:{phi_left[m]}", f"1:{phi_right[m]}") for m in common.morphism_ids()
    ]
    rel = relation_from_pairs(union, pairs)
    glued = quotient(union, rel)
    problems = validate_kgraph(glued)
    if problems:
        raise InvalidModel(f"glued graph fails validation: {problems[0]}")
    return glued


def pullback_hypotheses(
    common: FiniteKGraph,
    left: FiniteKGraph,
    right: FiniteKGraph,
    phi_left: dict[str, str],
    phi_right: dict[str, str],
) -> list[VertexSetReport]:
    """Report the side conditions a gluing would need for pullback-style
    decompositions downstream: finite alignment, no sources, co-hereditary
    images and saturated complements.  Purely informative -- nothing raises."""
    reports: list[VertexSetReport] = []
    for side, phi, target in (("left", phi_left, left), ("right", phi_right, right)):
        # every finite k-graph is finitely aligned: all MCE sets are finite
        reports.append(VertexSetReport(f"finitely-aligned:{side}", True))

        missing = None
        for v in target.vertices:
            for i in range(1, target.rank + 1):
                e = unit_degree(target.rank, i)
                if not any(
                    target.d(m) == e for m in target.morphisms_with_range(v)
                ):
                    missing = (v,)
                    break
            if missing:
                break
        reports.append(
            VertexSetReport(f"no-sources:{side}", missing is None, missing or ())
        )

        V = {phi[v] for v in common.vertices}
        co = vertex_predicate(target, V, "cohereditary")
        reports.append(VertexSetReport(f"image-cohereditary:{side}", co.holds, co.witness))

        complement = [v for v in target.vertices if v not in V]
        sat = vertex_predicate(target, complement, "saturated")
        reports.append(
            VertexSetReport(f"complement-saturated:{side}", sat.holds, sat.witness)
        )
    return reports
