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

from collections import Counter

from .core import (
    FiniteKGraph,
    VertexSetReport,
    _Record,
    _glue,
    _set,
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


class CongruenceVerdict(_Record):
    """Whether a relation is a congruence, and if not the first condition
    that fails with its witnesses."""

    __slots__ = ("ok", "violated", "witness", "detail")
    ok: bool
    violated: str | None  # one of "d", "comp", "factor", "lift"
    witness: tuple[str, ...]
    detail: str

    def __init__(self, ok: bool, violated: str | None = None,
                 witness: tuple[str, ...] = (), detail: str = ""):
        _set(self, "ok", ok)
        _set(self, "violated", violated)
        _set(self, "witness", witness)
        _set(self, "detail", detail)

    def __str__(self) -> str:
        if self.ok:
            return "relation is a congruence"
        ids = ", ".join(repr(w) for w in self.witness)
        return f"condition {self.violated!r} fails: {self.detail} (witness: {ids})"


def _number(graph: FiniteKGraph, m: str, whose: str = "the graph") -> int:
    """The number of m in graph, or ForeignId if it is not a morphism of it."""
    i = graph._at.get(m, len(graph._ids))
    if i >= len(graph._ids):
        raise ForeignId(f"{m!r} is not a morphism of {whose}")
    return i


class MorphismRelation:
    """An equivalence on the morphisms of a fixed graph.

    Build one with relation_from_pairs (mode "generated": the pairs are
    closed up under the congruence conditions as far as equalities are
    forced) or relation_from_classes (mode "explicit": the partition is
    taken literally).
    """

    def __init__(self, graph: FiniteKGraph, rep: list[int], mode: str, pairs):
        self.graph = graph
        self.mode = mode
        self.pairs: tuple[tuple[str, str], ...] = tuple((a, b) for a, b in pairs)
        # by number: each morphism's representative, the least member of its
        # class, and the members of each class of two or more, by representative
        self._rep = rep
        merged: dict[int, list[int]] = {}
        for m, r in enumerate(rep):
            if r != m:
                merged.setdefault(r, [r]).append(m)
        self._merged = dict(sorted(merged.items()))

    def _num(self, m: str) -> int:
        return _number(self.graph, m, "the relation's graph")

    def _reps(self) -> list[int]:
        return [m for m, r in enumerate(self._rep) if r == m]

    def _class(self, r: int) -> tuple[str, ...]:
        return tuple(self.graph._names[m] for m in self._merged.get(r, (r,)))

    def rep(self, m: str) -> str:
        return self.graph._names[self._rep[self._num(m)]]

    def same(self, a: str, b: str) -> bool:
        return self.rep(a) == self.rep(b)

    def class_of(self, m: str) -> tuple[str, ...]:
        return self._class(self._rep[self._num(m)])

    def classes(self) -> tuple[tuple[str, ...], ...]:
        return tuple(map(self._class, self._reps()))

    def nontrivial_classes(self) -> tuple[tuple[str, ...], ...]:
        return tuple(map(self._class, self._merged))

    def __repr__(self) -> str:
        n, big = len(self._reps()), len(self._merged)
        return f"MorphismRelation(mode={self.mode!r}, classes={n}, merged={big})"


class _UnionFind:
    """Classes of a graph's morphisms by number, each rooted at its least."""

    def __init__(self, graph: FiniteKGraph):
        self.parent = list(range(len(graph._ids)))
        self.names = graph._names

    def find(self, x: int) -> int:
        p = self.parent
        if x >= len(p):  # a broken table's composite or factor
            raise ForeignId(f"{self.names[x]!r} is not a morphism of the graph")
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def _freeze(graph, uf, mode, pairs) -> MorphismRelation:
    return MorphismRelation(graph, [uf.find(m) for m in range(len(graph._ids))], mode, pairs)


def relation_from_pairs(graph: FiniteKGraph, pairs, mode: str = "generated") -> MorphismRelation:
    """The relation generated by identifying the given id pairs.

    In "generated" mode the equivalence closure is saturated under the
    composition and factorisation conditions, so that every equality they
    force is present; "explicit" mode keeps just the equivalence closure.
    """
    if mode not in ("generated", "explicit"):
        raise BadArgument(f"unknown relation mode {mode!r}")
    try:
        pairs = [(str(a), str(b)) for a, b in pairs]
    except (TypeError, ValueError):
        raise BadArgument("pairs must be (a, b) pairs of morphism ids") from None
    nums = [_number(graph, m) for pair in pairs for m in pair]
    uf = _UnionFind(graph)
    for a, b in zip(nums[::2], nums[1::2]):
        uf.union(a, b)
    if mode == "generated":
        _saturate(graph, uf)
    return _freeze(graph, uf, mode, pairs)


def relation_from_classes(graph: FiniteKGraph, classes) -> MorphismRelation:
    """An explicit relation given by its non-trivial classes (taken literally)."""
    uf = _UnionFind(graph)
    seen: set[int] = set()
    for cls in classes:
        nums = []
        for m in map(str, cls):
            i = _number(graph, m)
            if i in seen:
                raise OverlappingClasses(f"classes overlap at {m!r}")
            seen.add(i)
            nums.append(i)
        for i in nums[1:]:
            uf.union(nums[0], i)
    return _freeze(graph, uf, "explicit", ())


def _saturate(graph: FiniteKGraph, uf: _UnionFind) -> None:
    """Close under the equalities forced by the comp and factor conditions:
    merge what one scan finds unrelated, and scan again until it finds
    nothing.  Only members of one degree are compared split by split."""
    n, dc, nd = len(graph._ids), graph._dc, len(graph._codes)
    while True:
        rep = [uf.find(m) for m in range(n)]
        groups: dict[int, list[int]] = {}
        for m in range(n):
            groups.setdefault(rep[m] * nd + dc[m], []).append(m)
        classes = [ms for ms in groups.values() if len(ms) > 1]
        merged = False
        for x, y, *_ in _forced(graph, rep, classes):
            merged = uf.union(x, y) or merged
        if not merged:
            return


def _forced(g: FiniteKGraph, rep: list[int], classes):
    """The pairs the comp and factor conditions force together that rep
    does not relate, or that name an unknown id, as (x, y, witness, part,
    split) by number, with split None for a pair of composites.

    rep gives each morphism's representative.  classes are the classes
    compared split by split, each of one degree with its least member
    first.  Composites come first, grouped by the class pair of their
    factors in `_composites` order; then each class at every split in
    turn, heads before tails.  A table entry or a factorisation that is
    not there raises what compose or factorise raises, when it is reached.
    """
    names, n = g._names, len(g._ids)
    # an unknown name is NaN, which is related to nothing, itself included
    rep = rep + [float("nan")] * (len(names) - n)
    first: dict[int, tuple] = {}  # class pair -> its first entry
    for entry in g._composites():
        a, b, ab = entry
        old = first.setdefault(rep[a] * n + rep[b], entry)
        if old is not entry and rep[old[2]] != rep[ab]:
            a0, b0, ab0 = old
            yield ab0, ab, (a0, a, b0, b), "composites", None

    # members share d0, so each split lies between 0 and their degree.  A
    # split with a code is read from the index; _split reads 0 and d0 from
    # the records and raises what factorise raises.
    codes, nd, index = g._codes, len(g._codes), g._factors()
    plans: dict[tuple, list] = {}
    for cls in classes:
        m0 = cls[0]
        d0 = g._d[m0]
        if len(d0) != g.rank:
            g.factorise(g._names[m0], (0,) * len(d0))  # raises BadSplit, as at the first split
        plan = plans.get(d0)
        if plan is None:
            plan = plans[d0] = [(p, codes.get(p) if any(p) and p != d0 else None)
                                for p in _splits(d0)]
        for p, code in plan:
            h0 = None
            for m in cls:
                hit = None if code is None else index.get(m * nd + code)
                h, t = hit if type(hit) is tuple else g._split(m, p)
                if h0 is None:
                    h0, t0 = h, t
                    continue
                if rep[h0] != rep[h]:
                    yield h0, h, (m0, m), "heads", p
                if rep[t0] != rep[t]:
                    yield t0, t, (m0, m), "tails", p


# ---------------------------------------------------------------------------
# the congruence conditions


def check_congruence(rel: MorphismRelation) -> CongruenceVerdict:
    """Test the four congruence conditions, in order, stopping at the first
    failure.  The verdict's witness names morphisms that replay it.
    "comp" and "factor" come from one scan (`_forced`), which compares
    every class at every split.
    """
    g = rel.graph
    names, deg, rep, n = g._names, g._d, rel._rep, len(g._ids)
    classes = list(rel._merged.values())  # by representative

    for cls in classes:
        d0 = deg[cls[0]]
        for m in cls[1:]:
            if deg[m] != d0:
                return CongruenceVerdict(
                    False,
                    "d",
                    (names[cls[0]], names[m]),
                    f"related morphisms have degrees {d0} and {deg[m]}",
                )

    for x, y, witness, part, p in _forced(g, rep, classes):
        x, y = names[x], names[y]
        rel.same(x, y)  # raises ForeignId for an unknown id; False otherwise
        condition, at = ("comp", "") if p is None else ("factor", f" at split {p}")
        detail = f"{part} {x!r} and {y!r}{at} are unrelated"
        return CongruenceVerdict(False, condition, tuple(names[w] for w in witness), detail)

    # lift: group morphism classes by the vertex classes of their sources
    # and ranges; each (A, B) meeting through a vertex class must contain
    # an actually composable pair.  A holding a source in every vertex of
    # the class, or one that every B holds a range in, meets every such B,
    # so one-vertex classes need no bucket.
    members, r, s = rel._merged, g._r, g._s
    left: dict[int, dict[int, int]] = {}   # vertex class -> {morphism class: exemplar}
    right: dict[int, dict[int, int]] = {}
    for m in range(n):
        if s[m] >= n or r[m] >= n:  # raises ForeignId
            rel.rep(names[s[m]])
            rel.rep(names[r[m]])
        ws, wr = rep[s[m]], rep[r[m]]
        if ws in members:
            left.setdefault(ws, {}).setdefault(rep[m], m)
        if wr in members:
            right.setdefault(wr, {}).setdefault(rep[m], m)
    for w, lbucket in left.items():
        rbucket = right.get(w, {})  # none when only a non-vertex source is in w
        vclass = set(members[w])
        ranges = {cb: {r[x] for x in members.get(cb, (cb,))} for cb in rbucket}
        everywhere = vclass.intersection(*ranges.values())
        for ca, alpha in lbucket.items():
            src = {s[x] for x in members.get(ca, (ca,))}
            if not src.isdisjoint(everywhere) or src >= vclass:
                continue
            for cb, beta in rbucket.items():
                if src.isdisjoint(ranges[cb]):
                    return CongruenceVerdict(
                        False,
                        "lift",
                        (names[alpha], names[beta]),
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

    # One record per class, named by its least member, so the quotient's ids
    # are the representatives in graph's order.  By "d" a class holds only
    # vertices or only non-identities, so no non-identity has degree zero.
    # check_congruence has resolved every endpoint and composed every table
    # pair, and identity pairs land on implicit identity pairs, so the
    # stored table is all that carries over.
    reps, n = rel._reps(), len(graph._ids)
    new = [0] * n
    for i, r in enumerate(reps):
        new[r] = i
    q = [new[r] for r in rel._rep]
    table = {}
    for (a, b), c in graph._table.items():
        if c >= n:
            rel.rep(graph._names[c])  # raises ForeignId
        table[(q[a], q[b])] = q[c]
    names, isv = tuple(graph._names[m] for m in reps), bytearray(graph._isv[m] for m in reps)
    d, r = [graph._d[m] for m in reps], [q[graph._r[m]] for m in reps]
    s = [q[graph._s[m]] for m in reps]
    return FiniteKGraph._from_parts(graph.rank, names, len(reps), d, r, s, isv, table)


# ---------------------------------------------------------------------------
# gluing two graphs along a common subobject


def _check_embedding(side: str, phi: dict[str, str], common: FiniteKGraph, target: FiniteKGraph):
    """phi by number, once checked to be an injective functor keeping degrees.
    An item numbers cannot pass reaches the check on ids, so errors come as
    a walk over the ids and composable_pairs raises them."""
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
    names, n, r, s, isv = common._names, len(common._ids), common._r, common._s, common._isv
    tr, ts, tisv, ttable = target._r, target._s, target._isv, target._table
    f = [target._at[phi[m]] for m in common._ids]
    fx = f + [-1] * (len(names) - n)  # a name that is not an id has no image
    for m, x in enumerate(f):
        if common._d[m] == target._d[x] and fx[r[m]] == tr[x] and fx[s[m]] == ts[x]:
            continue
        m = names[m]
        if common.d(m) != target.d(phi[m]):
            raise BadArgument(f"map on side {side!r} changes the degree of {m!r}")
        if phi.get(common.r(m)) != target.r(phi[m]) or phi.get(common.s(m)) != target.s(phi[m]):
            raise BadArgument(f"map on side {side!r} does not respect endpoints at {m!r}")
    # With degrees and endpoints kept and identities sent to identities, a
    # pair with an identity in it holds and any other goes to a composable
    # pair of non-identities: only its composite is read.  A table entry
    # common cannot compose raises what common's compose raises; a name
    # that is not an id has no image, so it fails the check.
    fast = [tisv[x] for x in f] == list(isv[:n])
    for a, b, c in common._composites():
        if fast and (isv[a] or isv[b] or (c < n and ttable.get((f[a], f[b])) == f[c])):
            continue
        a, b = names[a], names[b]
        if target.compose(phi[a], phi[b]) != phi.get(common.compose(a, b)):
            raise BadArgument(f"map on side {side!r} is not functorial at ({a!r}, {b!r})")
    return f


def _lift_holds(left: FiniteKGraph, right: FiniteKGraph, shared: dict[int, int]) -> bool:
    """Whether "lift" holds for the `_glue` of valid left and right along
    shared, which takes each of right's numbers in its image of a common
    graph to its twin in left's.  "Lift" fails exactly when a morphism
    outside one image leaves an image vertex (has it as source) and a
    morphism outside the other reaches its twin (has it as range): the
    pair composes in the glue and has no composite.  Counts at the image
    vertices decide it: the ends of each graph's morphisms, less those of
    its image's, are the ends of the morphisms outside the image (a
    Counter keeps only positive counts)."""
    # per side, the sources and the ranges of the morphisms outside its image
    l_src, l_rng, r_src, r_rng = (Counter(end) - Counter(map(end.__getitem__, part))
                                  for g, part in ((left, shared.values()), (right, shared))
                                  for end in (g._s, g._r))
    # a right vertex whose twin meets the other side's outside morphisms at the other end
    return (not any(shared.get(v) in l_src for v in r_rng)
            and not any(shared.get(v) in l_rng for v in r_src))


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
    disjoint union ("0:" and "1:" ids) is a congruence and the glued graph
    is again a k-graph.

    If common, left and right validate clean, the image pairs already
    satisfy "comp" (the maps are injective functors, so related composable
    pairs are the images of one pair of common, and so are their
    composites) and "factor" (common's factorisations are carried into
    each target, where they are the only ones).  Saturation adds nothing,
    and _glue, merging each right image into its left one, is the
    quotient.  By the quotient theorem it is a k-graph exactly when "lift"
    holds, which `_lift_holds` decides from counts at the image vertices.
    When it holds the glue is returned unscanned, with the verdict ()
    kept.  A failed "lift", or an invalid input, takes the generated path:
    union, saturated relation, certified quotient and validation, with
    their errors (InvalidModel for a quotient that fails validation).
    """
    f_left = _check_embedding("left", phi_left, common, left)
    f_right = _check_embedding("right", phi_right, common, right)
    images = [[vertex_predicate(target, {phi[v] for v in common.vertices}, kind)
               for kind in ("hereditary", "cohereditary")]
              for phi, target in ((phi_left, left), (phi_right, right))]
    (left_h, left_c), (right_h, right_c) = images
    if not ((left_h.holds and right_h.holds) or (left_c.holds and right_c.holds)):
        for side, (hered, cohered) in zip(("left", "right"), images):
            if not hered.holds and not cohered.holds:
                raise NotHereditary(side, hered.witness[0])
        # one side is hereditary-only, the other co-hereditary-only
        raise NotHereditary("right", (right_h.witness or right_c.witness or ("?",))[0],
                            "images must be hereditary on both sides or co-hereditary on both sides")
    if not (validate_kgraph(common) or validate_kgraph(left) or validate_kgraph(right)):
        shared = dict(zip(f_right, f_left))
        if _lift_holds(left, right, shared):
            glued = _glue([left, right], ["0:{}", "1:{}"], shared)
            glued._violations = ()  # a k-graph: see the docstring
            return glued
    union = disjoint_union(left, right)
    pairs = [(f"0:{phi_left[m]}", f"1:{phi_right[m]}") for m in common.morphism_ids()]
    glued = quotient(union, relation_from_pairs(union, pairs))
    if problems := validate_kgraph(glued):
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
    images and saturated complements.  A condition that fails is reported,
    not raised.  Only a map that is not one from common's vertices to the
    vertices of its side raises: BadArgument if it misses a vertex of
    common, as glue_on_common does, and UnknownId if an image is not a
    vertex."""
    reports: list[VertexSetReport] = []
    for side, phi, target in (("left", phi_left, left), ("right", phi_right, right)):
        # every finite k-graph is finitely aligned: all MCE sets are finite
        reports.append(VertexSetReport(f"finitely-aligned:{side}", True))
        # the first vertex that some unit degree does not reach
        units = [unit_degree(target.rank, i) for i in range(1, target.rank + 1)]
        missing = next(((v,) for v in target.vertices for e in units
                        if not any(target.d(m) == e for m in target.morphisms_with_range(v))), ())
        reports.append(VertexSetReport(f"no-sources:{side}", not missing, missing))
        try:
            V = {phi[v] for v in common.vertices}
        except KeyError as e:
            raise BadArgument(f"gluing map on side {side!r} misses morphism {e.args[0]!r}") from None
        co = vertex_predicate(target, V, "cohereditary")
        reports.append(VertexSetReport(f"image-cohereditary:{side}", co.holds, co.witness))
        sat = vertex_predicate(target, [v for v in target.vertices if v not in V], "saturated")
        reports.append(VertexSetReport(f"complement-saturated:{side}", sat.holds, sat.witness))
    return reports
