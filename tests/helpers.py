"""Shared scaffolding for the tests: small random categories built by hand
(no reuse of the library's own product/builder code, so they can serve as
independent fixtures) and a couple of counting oracles.
"""

from __future__ import annotations

import random
import signal
import sys
from contextlib import contextmanager
from itertools import product

from kgraphs.core import (
    _AMBIGUOUS,
    Cube,
    Degree,
    FiniteKGraph,
    Morphism,
    Skeleton2Graph,
    Square,
    Violation,
    _splits,
    deg_leq,
)
from kgraphs.errors import (
    BadArgument,
    BadSplit,
    ForeignId,
    InvalidModel,
    NotComposable,
    RankMismatch,
    UnknownId,
)


# -- small pieces only the tests use --------------------------------------------


class Overrun(Exception):
    pass


@contextmanager
def time_limit(seconds):
    """Fail the block with Overrun if it runs past `seconds` (so a hang fails)."""
    def overrun(*_):
        raise Overrun(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def zero_degree(rank: int) -> Degree:
    return (0,) * rank


def deg_sub(m: Degree, n: Degree) -> Degree:
    return tuple(a - b for a, b in zip(m, n, strict=True))


def deg_total(m: Degree) -> int:
    return sum(m)


def sphere_pairs(k: int):
    """Id pairs identifying the two copies of every morphism of the simplex
    (identities included) whose range is not the zero placing: the relation
    on {0,1} x simplex whose quotient is build_sphere(k)."""
    from kgraphs.simplex import build_simplex

    simplex = build_simplex(k)
    return [(f"(0,{m})", f"(1,{m})") for m in simplex.morphism_ids() if simplex.r(m) != "0"]


def vertex_point(t) -> tuple:
    """embed(t, height(t)) for a known placing, from the simplex builder's
    vertex weights."""
    from kgraphs.simplex import _level_weights

    above = _level_weights(set(t), len(t))
    return tuple(above[v] for v in t)


def random_dag(rng: random.Random, n: int, p: float):
    """Edges (tail, head) with tail < head, so paths are automatically finite."""
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def path_category(n: int, edges) -> FiniteKGraph:
    """The free rank-1 graph on a DAG: morphisms are directed edge paths.

    Vertices v0..v{n-1}; a path is written by joining edge names with '.'
    in traversal order, so composition is literal string concatenation
    and unique factorisation holds by construction.
    """
    out = {}
    for idx, (a, b) in enumerate(edges):
        assert 0 <= a < n and 0 <= b < n and a != b
        out.setdefault(a, []).append((f"e{idx}", b))

    found = []  # (edge-name tuple, start, end)

    def walk(start, here, acc):
        for name, nxt in out.get(here, ()):
            found.append((acc + (name,), start, nxt))
            walk(start, nxt, acc + (name,))

    for v in range(n):
        walk(v, v, ())

    pid = lambda seq: ".".join(seq)
    morphisms = {
        pid(seq): ((len(seq),), f"v{b}", f"v{a}") for seq, a, b in found
    }
    compose = {}
    for q_seq, qa, qb in found:
        for p_seq, pa, pb in found:
            if pa == qb:  # s(p) = r(q): run q, then p
                compose[(pid(p_seq), pid(q_seq))] = pid(q_seq + p_seq)
    return FiniteKGraph(
        rank=1,
        vertices=[f"v{i}" for i in range(n)],
        morphisms=morphisms,
        compose=compose,
    )


def grid_category(g1: FiniteKGraph, g2: FiniteKGraph) -> FiniteKGraph:
    """Product of two rank-1 graphs, assembled from scratch (degree = the
    pair of path lengths).  Deliberately independent of the library's own
    product so tests can compare against it.
    """
    assert g1.rank == 1 and g2.rank == 1
    pid = lambda a, b: f"<{a}|{b}>"
    vertices = [pid(u, v) for u in g1.vertices for v in g2.vertices]
    morphisms = {}
    for a in g1.morphism_ids():
        for b in g2.morphism_ids():
            da, db = g1.d(a), g2.d(b)
            if da == (0,) and db == (0,):
                continue
            morphisms[pid(a, b)] = (
                (da[0], db[0]),
                pid(g1.r(a), g2.r(b)),
                pid(g1.s(a), g2.s(b)),
            )
    compose = {}
    ids1, ids2 = g1.morphism_ids(), g2.morphism_ids()
    for a1, b1 in product(ids1, ids2):
        if g1.d(a1) == (0,) and g2.d(b1) == (0,):
            continue
        for a2, b2 in product(ids1, ids2):
            if g1.d(a2) == (0,) and g2.d(b2) == (0,):
                continue
            if g1.s(a1) != g1.r(a2) or g2.s(b1) != g2.r(b2):
                continue
            c1 = a2 if g1.d(a1) == (0,) else (a1 if g1.d(a2) == (0,) else g1.compose(a1, a2))
            c2 = b2 if g2.d(b1) == (0,) else (b1 if g2.d(b2) == (0,) else g2.compose(b1, b2))
            compose[(pid(a1, b1), pid(a2, b2))] = pid(c1, c2)
    return FiniteKGraph(rank=2, vertices=vertices, morphisms=morphisms, compose=compose)


def random_path_category(rng: random.Random, max_vertices=6, max_morphisms=50):
    """Keep sampling DAGs until the path count fits the budget."""
    while True:
        n = rng.randint(2, max_vertices)
        g = path_category(n, random_dag(rng, n, rng.uniform(0.2, 0.7)))
        if 0 < len(g.morphism_ids()) - len(g.vertices) <= max_morphisms:
            return g


def random_grid_category(rng: random.Random, max_morphisms=50):
    while True:
        g1 = random_path_category(rng, max_vertices=4, max_morphisms=8)
        g2 = random_path_category(rng, max_vertices=4, max_morphisms=8)
        g = grid_category(g1, g2)
        if len(g.morphism_ids()) - len(g.vertices) <= max_morphisms:
            return g


def component_count(model) -> int:
    """Number of connected components of the 1-skeleton — union-find over
    the degree-one cells.  Oracle for H_0.
    """
    from kgraphs.core import Skeleton2Graph, cubes

    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    if isinstance(model, Skeleton2Graph):
        for v in model.vertices:
            parent[v] = v
        for table in (model.blue, model.red):
            for e in table.values():
                union(e.r, e.s)
    else:
        for v in model.vertices:
            parent[v] = v
        for c in cubes(model, 1):
            union(model.r(c.key), model.s(c.key))
    return len({find(v) for v in parent})


def ordered_bell(k: int) -> int:
    """Fubini numbers by the binomial recurrence a(n) = sum C(n,j) a(n-j)."""
    from math import comb

    a = [1]
    for n in range(1, k + 1):
        a.append(sum(comb(n, j) * a[n - j] for j in range(1, n + 1)))
    return a[k]


def quadratic_validate_skeleton(sk: Skeleton2Graph) -> list[Violation]:
    """Reference copy of `validate_skeleton` as it was before its bijection
    checks were indexed by range vertex: the blue x red and red x blue
    loops re-sort the inner edge table for every outer edge.  Oracle for
    the indexed validator, violation order included.
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

    for f, ef in sorted(sk.blue.items()):
        for gg, eg in sorted(sk.red.items()):
            if ef.s == eg.r:
                n = br_seen.get((f, gg), 0)
                if n != 1:
                    out.append(
                        Violation(
                            "square-bijection",
                            (f, gg),
                            f"blue-red path occurs in {n} squares (needs exactly 1)",
                        )
                    )
    for g2, eg2 in sorted(sk.red.items()):
        for f2, ef2 in sorted(sk.blue.items()):
            if eg2.s == ef2.r:
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


def face_based_boundaries(model):
    """Reference copy of `chain_complex`'s boundary assembly as it was when
    every face came from `face()` and category faces from `factorise`
    (`factorise_face` below).  Skeleton cubes and faces come from
    `skeleton_cubes` and `skeleton_face`, copies of the skeleton code of
    that time.  Returns (bases, boundary matrices) of an already validated
    model.  Oracle for the one cube view, matrix entry insertion order
    included.
    """
    from kgraphs.core import FiniteKGraph, cubes
    from kgraphs.homology import SparseIntMatrix

    if isinstance(model, FiniteKGraph):
        top, cubes_of, face_of = model.rank, cubes, factorise_face
    else:
        top, cubes_of, face_of = 2, skeleton_cubes, skeleton_face

    bases = []
    cube_lists = []
    for n in range(top + 1):
        cs = cubes_of(model, n)
        cube_lists.append(cs)
        bases.append([c.key for c in cs])

    boundaries = [SparseIntMatrix((0, len(bases[0])))]
    for n in range(1, top + 1):
        row_of = {key: i for i, key in enumerate(bases[n - 1])}
        mat = SparseIntMatrix((len(bases[n - 1]), len(bases[n])))
        for col, cb in enumerate(cube_lists[n]):
            dirs = [i + 1 for i, x in enumerate(cb.degree) if x == 1]
            for j, i in enumerate(dirs, start=1):
                sign = -1 if j % 2 else 1
                hi = row_of[face_of(model, cb, i, 1).key]
                lo = row_of[face_of(model, cb, i, 0).key]
                for row, val in ((hi, sign), (lo, -sign)):
                    new = mat.entries.get((row, col), 0) + val
                    if new:
                        mat.entries[(row, col)] = new
                    else:
                        mat.entries.pop((row, col), None)
        boundaries.append(mat)
    return bases, boundaries


def factorise_face(g, cube, i, side):
    """Reference copy of `face` on a category model as it was before faces
    were read from the factorisation index: one `factorise` per face."""
    from kgraphs.core import Cube, unit_degree

    d = cube.degree
    if side == 0:
        head, _ = g.factorise(cube.key, deg_sub(d, unit_degree(g.rank, i)))
        return Cube(head, g.d(head))
    _, tail = g.factorise(cube.key, unit_degree(g.rank, i))
    return Cube(tail, g.d(tail))


def skeleton_cubes(sk, n):
    """Reference copy of `cubes` on a skeleton as it was before skeletons
    and category models shared one cube view."""
    from kgraphs.core import Cube

    out = []
    if n in (None, 0):
        out.extend(Cube(v, ()) for v in sk.vertices)
    if n in (None, 1):
        out.extend(Cube(e, (1, 0)) for e in sorted(sk.blue))
        out.extend(Cube(e, (0, 1)) for e in sorted(sk.red))
    if n in (None, 2):
        out.extend(Cube(sq, (1, 1)) for sq in sk.squares)
    return out


def skeleton_face(sk, cube, i, side):
    """Reference copy of `face` on a skeleton as it was before skeletons
    and category models shared one cube view (direction checks left out:
    the assembly only asks for directions the cube extends in)."""
    from kgraphs.core import Cube

    if cube.dim == 1:
        e = sk.edge(cube.key)
        return Cube(e.r if side == 0 else e.s, ())
    f, gg, g2, f2 = cube.key
    if i == 1:
        return Cube(g2 if side == 0 else gg, (0, 1))
    return Cube(f if side == 0 else f2, (1, 0))


def reference_check_congruence(rel):
    """Reference copy of `check_congruence` as it was when every composable
    pair, identities included, went through `compose` and `rel.rep`.
    Oracle for the table-reading version: verdicts, witnesses, details and
    raised errors must match.
    """
    from kgraphs.core import _splits
    from kgraphs.quotient import CongruenceVerdict

    g = rel.graph

    for cls in rel.classes():
        d0 = g.d(cls[0])
        for m in cls[1:]:
            if g.d(m) != d0:
                return CongruenceVerdict(
                    False,
                    "d",
                    (cls[0], m),
                    f"related morphisms have degrees {d0} and {g.d(m)}",
                )

    first: dict[tuple[str, str], tuple[str, str, str]] = {}
    for a, b in g.composable_pairs(include_identities=True):
        ab = g.compose(a, b)
        key = (rel.rep(a), rel.rep(b))
        old = first.get(key)
        if old is None:
            first[key] = (a, b, ab)
        elif not rel.same(old[2], ab):
            return CongruenceVerdict(
                False,
                "comp",
                (old[0], a, old[1], b),
                f"composites {old[2]!r} and {ab!r} are unrelated",
            )

    for cls in rel.classes():
        if len(cls) < 2:
            continue
        m0 = cls[0]
        for p in _splits(g.d(m0)):
            h0, t0 = g.factorise(m0, p)
            for m in cls[1:]:
                h, t = g.factorise(m, p)
                if not rel.same(h0, h):
                    return CongruenceVerdict(
                        False,
                        "factor",
                        (m0, m),
                        f"heads {h0!r} and {h!r} at split {p} are unrelated",
                    )
                if not rel.same(t0, t):
                    return CongruenceVerdict(
                        False,
                        "factor",
                        (m0, m),
                        f"tails {t0!r} and {t!r} at split {p} are unrelated",
                    )

    sources: dict[str, set[str]] = {}
    ranges: dict[str, set[str]] = {}
    left: dict[str, dict[str, str]] = {}
    right: dict[str, dict[str, str]] = {}
    for m in g.morphism_ids():
        cm = rel.rep(m)
        sources.setdefault(cm, set()).add(g.s(m))
        ranges.setdefault(cm, set()).add(g.r(m))
        left.setdefault(rel.rep(g.s(m)), {}).setdefault(cm, m)
        right.setdefault(rel.rep(g.r(m)), {}).setdefault(cm, m)
    for w, lbucket in left.items():
        rbucket = right.get(w)
        if not rbucket:
            continue
        for ca, alpha in lbucket.items():
            src = sources[ca]
            for cb, beta in rbucket.items():
                if src.isdisjoint(ranges[cb]):
                    return CongruenceVerdict(
                        False,
                        "lift",
                        (alpha, beta),
                        "source class meets range class but no related pair composes",
                    )

    return CongruenceVerdict(True)


def reference_saturate(graph: FiniteKGraph, uf) -> None:
    """Reference copy of `quotient._saturate` as it was when it walked every
    composable pair, identities included, and factorised each merged class
    itself, skipping the splits it could not factorise: verbatim.  Oracle
    for the classes of generated relations on valid models."""
    from kgraphs.core import _splits
    from kgraphs.errors import InvalidModel

    changed = True
    while changed:
        changed = False
        products: dict[tuple[str, str], str] = {}
        for a, b, ab in graph._composites():
            key = (uf.find(a), uf.find(b))
            old = products.get(key)
            if old is None:
                products[key] = ab
            elif uf.union(old, ab):
                changed = True

        groups: dict[str, list[str]] = {}
        for m in graph.morphism_ids():
            groups.setdefault(uf.find(m), []).append(m)
        for ms in groups.values():
            if len(ms) < 2:
                continue
            by_degree: dict[tuple, list[str]] = {}
            for m in ms:
                by_degree.setdefault(graph.d(m), []).append(m)
            for d, same_deg in by_degree.items():
                if len(same_deg) < 2:
                    continue
                m0 = same_deg[0]
                rest = [(m, graph._mor[m]) for m in same_deg[1:]]
                for p in _splits(d):
                    try:
                        h0, t0 = graph.factorise(m0, p)
                    except InvalidModel:
                        continue
                    # factorise has checked p against m0, whose degree m shares
                    for m, rec in rest:
                        try:
                            h, t = graph._split(m, rec, p)
                        except InvalidModel:
                            continue
                        if uf.union(h0, h):
                            changed = True
                        if uf.union(t0, t):
                            changed = True


def reference_generated_classes(graph: FiniteKGraph, pairs):
    """The classes of relation_from_pairs(graph, pairs), closed by
    reference_saturate."""
    view = reference_view(graph)
    uf = ReferenceUnionFind(view.morphism_ids())
    for a, b in pairs:
        uf.union(a, b)
    reference_saturate(view, uf)
    members: dict[str, list[str]] = {}
    for m in view.morphism_ids():
        members.setdefault(uf.find(m), []).append(m)
    return tuple(tuple(members[r]) for r in sorted(members))


def mutated_category(g: FiniteKGraph, pick, faults: int) -> FiniteKGraph:
    """A copy of g built through the public constructor with `faults` faults,
    each chosen by pick (which returns one item of a non-empty sequence): drop a
    table entry, redirect a composite, name a ghost id, perturb a degree or
    its length, break an endpoint, duplicate a factorisation or add the
    reversed pair of an entry."""
    mor = {m: (g.d(m), g.r(m), g.s(m)) for m in g.nonidentity_ids()}
    table = g.compose_table()
    ids = list(g.morphism_ids()) + ["ghost"]
    for _ in range(faults):
        keys = sorted(table)
        kind = pick(["drop", "redirect", "ghost", "degree", "endpoint", "duplicate", "reverse"])
        if kind in ("drop", "redirect", "ghost", "duplicate", "reverse") and not keys:
            continue
        if kind == "drop":
            del table[pick(keys)]
        elif kind == "redirect":
            table[pick(keys)] = pick(ids)
        elif kind == "ghost":
            a, b = pick(keys)
            table[pick([(a, "ghost"), ("ghost", b)])] = table[(a, b)]
        elif kind == "duplicate":
            # another pair whose head has the degree of this one's
            a, b = key = pick(keys)
            degree = {m: rec[0] for m, rec in mor.items()}
            twins = [k for k in keys if k != key and degree.get(k[0], ()) == degree.get(a)]
            if twins:
                table[pick(twins)] = table[key]
        elif kind == "reverse":
            a, b = key = pick(keys)
            table[(b, a)] = table[key]
        else:
            m = pick(sorted(mor))
            d, r, s = mor[m]
            if kind == "endpoint":
                new = pick(["ghost", *g.vertices])
                mor[m] = (d, new, s) if pick([0, 1]) else (d, r, new)
            else:
                i = pick(range(len(d))) if d else 0
                changes = [(abs(d[i]) + 1,), (abs(d[i]) + 2,)] if d else []
                d = pick([d[:i] + x + d[i + 1:] for x in changes] + [d + (1,), d[:-1]])
                mor[m] = (d, r, s)
    # in shuffled order, so that the order of violations is the validator's own
    entries = random.Random(pick(range(1000))).sample(sorted(table.items()), len(table))
    return FiniteKGraph(g.rank, g.vertices, mor, dict(entries))


# The builds have no parallel morphisms, so every fault mutated_category can
# make there breaks a degree, an endpoint or a pair's composite first.  The
# two below break only what the validator certifies by counting.


def swapped_composites(g: FiniteKGraph, pick) -> FiniteKGraph:
    """A copy of g with the composites of two stored entries exchanged, both
    with one head and with parallel composites (same degree, range and
    source), so that degrees, endpoints and the factorisation keys stay and
    only associativity can break.  g needs parallel morphisms: a product
    with `twin_edges()` has them."""
    table = g.compose_table()
    groups: dict[tuple, list] = {}
    for (a, b), c in sorted(table.items()):
        groups.setdefault((a, g.d(c), g.r(c), g.s(c)), []).append((a, b))
    first = pick([keys for keys in groups.values() if len(keys) > 1])
    second = pick([key for key in first if key != first[0]])
    table[first[0]], table[second] = table[second], table[first[0]]
    entries = random.Random(pick(range(1000))).sample(sorted(table.items()), len(table))
    return FiniteKGraph(g.rank, *parts(g)[:2], dict(entries))


def with_lone_morphism(g: FiniteKGraph, pick) -> FiniteKGraph:
    """A copy of g with one more morphism, 'lone', of total degree 2, into
    a vertex no morphism leaves from one no morphism enters: nothing composes
    with it, so it has no factorisation and only factor-exists fails."""
    non = g.nonidentity_ids()
    r = pick([v for v in g.vertices if all(g.s(m) != v for m in non)])
    s = pick([v for v in g.vertices if all(g.r(m) != v for m in non)])
    d = pick([tuple(int(j in (i, k)) + int(j == i == k) for j in range(g.rank))
              for i in range(g.rank) for k in range(i, g.rank)])
    vertices, mor, table = parts(g)
    return FiniteKGraph(g.rank, vertices, {**mor, "lone": (d, r, s)}, table)


def twin_edges() -> FiniteKGraph:
    """Two parallel edges, e0 and e1, from v1 to v0."""
    return path_category(2, [(0, 1), (0, 1)])


# -- validation before the unsorted walk ----------------------------------------


def reference_find_violations(g: FiniteKGraph) -> list[Violation]:
    """Reference copy of `core._find_violations` as it was when it sorted the
    table and checked associativity and factorisations in their own sorted
    passes, verbatim.  Oracle for the unsorted walk: rules, witnesses,
    details and order must match.
    """
    from kgraphs.core import deg_add

    g = reference_view(g)
    out: list[Violation] = []
    mor = g._mor
    vset = set(g.vertices)
    shape_ok: set[str] = set(g.vertices)
    endpoints_ok: set[str] = set(g.vertices)

    for m in g.nonidentity_ids():
        rec = mor[m]
        d = rec.d
        if len(d) != g.rank or any(x < 0 for x in d):
            out.append(Violation("degree-shape", (m,), f"degree {d} is not in N^{g.rank}"))
        else:
            shape_ok.add(m)
        bad = [v for v in (rec.r, rec.s) if v not in vset]
        if bad:
            out.append(
                Violation("endpoints", (m,), f"range/source {bad} are not vertices")
            )
        else:
            endpoints_ok.add(m)

    table = g._compose
    usable: dict[tuple[str, str], str] = {}
    for (a, b), c in sorted(table.items()):
        missing = [x for x in (a, b, c) if x not in mor]
        if missing:
            out.append(
                Violation("compose-domain", (a, b, c), f"unknown ids {missing} in table")
            )
            continue
        if not (a in endpoints_ok and b in endpoints_ok):
            continue
        if mor[a].s != mor[b].r:
            out.append(
                Violation(
                    "compose-domain",
                    (a, b),
                    f"table entry for a non-composable pair: source({a!r}) != range({b!r})",
                )
            )
            continue
        usable[(a, b)] = c

    for a in g.nonidentity_ids():
        if a not in endpoints_ok:
            continue
        for b in g._with_range[mor[a].s]:
            if b in vset:
                continue
            if (a, b) not in table:
                out.append(
                    Violation(
                        "compose-total",
                        (a, b),
                        "composable pair has no composite in the table",
                    )
                )

    for (a, b), c in sorted(usable.items()):
        ra, rb, rc = mor[a], mor[b], mor[c]
        if c in endpoints_ok and (rc.r != ra.r or rc.s != rb.s):
            out.append(
                Violation(
                    "compose-endpoints",
                    (a, b, c),
                    "composite endpoints disagree with range(a) / source(b)",
                )
            )
        if a in shape_ok and b in shape_ok and c in shape_ok:
            if rc.d != deg_add(ra.d, rb.d):
                out.append(
                    Violation(
                        "compose-degree",
                        (a, b, c),
                        f"d({c!r}) = {rc.d} differs from d(a)+d(b) = "
                        f"{deg_add(ra.d, rb.d)}",
                    )
                )

    out.extend(_reference_check_associativity(g, usable))
    out.extend(_reference_check_factorisations(g, usable, shape_ok, endpoints_ok))
    return out


def _reference_check_associativity(g: FiniteKGraph, usable) -> list[Violation]:
    """Every composable triple (a, b, c) with (a, b) usable, in sorted
    (a, b) order and then c in id order."""
    out: list[Violation] = []
    mor = g._mor
    by_range: dict[str, list[str]] = {}
    for m in g.nonidentity_ids():
        by_range.setdefault(mor[m].r, []).append(m)
    for (a, b), ab in sorted(usable.items()):
        for c in by_range.get(mor[b].s, ()):
            bc = usable.get((b, c))
            if bc is None:
                continue
            left = usable.get((ab, c))
            right = usable.get((a, bc))
            if left is None or right is None:
                continue  # incompleteness is reported by compose-total
            if left != right:
                out.append(
                    Violation(
                        "assoc",
                        (a, b, c),
                        f"(a b) c = {left!r} but a (b c) = {right!r}",
                    )
                )
    return out


def _reference_check_factorisations(g, usable, shape_ok, endpoints_ok) -> list[Violation]:
    from kgraphs.core import Degree, _splits

    out: list[Violation] = []
    index: dict[tuple[str, Degree], tuple[str, str]] = {}
    for (a, b), c in sorted(usable.items()):
        if a not in shape_ok or b not in shape_ok:
            continue
        key = (c, g._mor[a].d)
        old = index.get(key)
        if old is None:
            index[key] = (a, b)
        elif old != (a, b):
            out.append(
                Violation(
                    "factor-unique",
                    (c, old[0], old[1], a, b),
                    f"two factorisations of {c!r} at split {key[1]}",
                )
            )
    for m in g.nonidentity_ids():
        if m not in shape_ok or m not in endpoints_ok:
            continue
        d = g._mor[m].d
        for p in _splits(d):
            if not any(p) or p == d:
                continue
            if (m, p) not in index:
                out.append(
                    Violation(
                        "factor-exists",
                        (m,),
                        f"no factorisation of {m!r} at split {p}",
                    )
                )
    return out


def cube_view_digests(model) -> tuple[str, ...]:
    """Short sha256 digests of four views of a model's cubes: every cube
    with its degree; every face in every direction 1..rank on both sides
    (the face, or the error's type and message); the dot export; and the
    mesh export or its error.  Pins the cube view across refactors."""
    from hashlib import sha256

    from kgraphs.core import cubes, face
    from kgraphs.errors import KGraphError
    from kgraphs.export import export_dot, export_mesh

    cs = cubes(model)
    faces = []
    for c in cs:
        for i in range(1, model.rank + 1):
            for side in (0, 1):
                try:
                    f = face(model, c, i, side)
                    faces.append((c.key, i, side, f.key, f.degree))
                except KGraphError as exc:
                    faces.append((c.key, i, side, type(exc).__name__, str(exc)))
    try:
        mesh = export_mesh(model)
    except KGraphError as exc:
        mesh = f"{type(exc).__name__}: {exc}"
    texts = (repr([(c.key, c.degree) for c in cs]), repr(faces), export_dot(model), mesh)
    return tuple(sha256(t.encode("utf-8")).hexdigest()[:16] for t in texts)


def _reference_marked(skeleton, u, v, square):
    from kgraphs.errors import BadMarking
    from kgraphs.surfaces import MarkedSkeleton, validate_marking

    ms = MarkedSkeleton(skeleton, u, v, square)
    problems = validate_marking(ms)
    if problems:
        raise BadMarking("; ".join(problems))
    return ms


def reference_prime_ids(ms, taken: set[str]):
    """Rename every id of ms with appended primes until disjoint from taken."""
    from kgraphs.surfaces import MarkedSkeleton

    sk = ms.skeleton
    ids = set(sk.vertices) | set(sk.blue) | set(sk.red)
    suffix = ""
    while any((x + suffix) in taken for x in ids):
        suffix += "'"
    if not suffix:
        return ms
    ren = lambda x: x + suffix
    sk2 = Skeleton2Graph(
        [ren(v) for v in sk.vertices],
        {ren(e): (ren(rec.r), ren(rec.s)) for e, rec in sk.blue.items()},
        {ren(e): (ren(rec.r), ren(rec.s)) for e, rec in sk.red.items()},
        [tuple(ren(x) for x in sq) for sq in sk.squares],
    )
    return MarkedSkeleton(sk2, ren(ms.u), ren(ms.v), tuple(ren(x) for x in ms.square))


def reference_connected_sum(a, b):
    """Reference copy of the two-summand `connected_sum` as it was when
    `compact_surface` folded it over the summands, rebuilding, validating
    and re-marking every intermediate result.  Oracle for the one-pass
    splice: ids, squares, marking and errors must match.
    """
    from kgraphs.core import validate_skeleton
    from kgraphs.errors import BadMarking, InvalidModel
    from kgraphs.surfaces import validate_marking

    for side, ms in (("left", a), ("right", b)):
        problems = validate_marking(ms)
        if problems:
            raise BadMarking(f"{side} summand: " + "; ".join(problems))

    taken = set(a.skeleton.vertices) | set(a.skeleton.blue) | set(a.skeleton.red)
    b = reference_prime_ids(b, taken)

    merge = {b.u: a.u, b.v: a.v}
    fix = lambda x: merge.get(x, x)

    vertices = list(a.skeleton.vertices) + [
        v for v in b.skeleton.vertices if v not in (b.u, b.v)
    ]
    blue = {e: (rec.r, rec.s) for e, rec in a.skeleton.blue.items()}
    red = {e: (rec.r, rec.s) for e, rec in a.skeleton.red.items()}
    for e, rec in b.skeleton.blue.items():
        blue[e] = (fix(rec.r), fix(rec.s))
    for e, rec in b.skeleton.red.items():
        red[e] = (fix(rec.r), fix(rec.s))

    fa, ga, g2a, f2a = a.square
    fb, gb, g2b, f2b = b.square
    squares = [sq for sq in a.skeleton.squares if sq != a.square]
    squares += [sq for sq in b.skeleton.squares if sq != b.square]
    squares += [(fa, ga, g2b, f2b), (fb, gb, g2a, f2a)]

    sk = Skeleton2Graph(vertices, blue, red, squares)
    problems = validate_skeleton(sk)
    if problems:
        raise InvalidModel(f"connected sum fails validation: {problems[0]}")
    return _reference_marked(sk, a.u, a.v, (fa, ga, g2b, f2b))


def reference_compact_surface(tags):
    """Reference copy of the left fold of `reference_connected_sum` over
    catalog summands (a list of tags)."""
    from kgraphs.surfaces import basic_surface

    out = basic_surface(tags[0])
    for tag in tags[1:]:
        out = reference_connected_sum(out, basic_surface(tag))
    return out


# -- the category dict before it was the parsed output of kgraph_json ----------


def reference_kgraph_doc(g: FiniteKGraph) -> dict:
    """Reference copy of `io.kgraph_doc` as it was when it built the document
    field by field, verbatim.  Oracle for the layout that `kgraph_json`
    writes: dumps of this dict must be the writer's text, byte for byte.
    """
    from fractions import Fraction

    morphisms = [
        {"id": m, "d": list(g.d(m)), "r": g.r(m), "s": g.s(m)}
        for m in g.nonidentity_ids()
    ]
    compose = [[a, b, c] for (a, b), c in sorted(g.compose_table().items())]
    doc = {
        "kind": "category",
        "rank": g.rank,
        "vertices": list(g.vertices),
        "morphisms": morphisms,
        "compose": compose,
    }
    if g.embedding is not None:
        doc["embedding"] = {
            v: [str(Fraction(x)) for x in coords]
            for v, coords in sorted(g.embedding.items())
        }
    return doc


# -- the category loader before it built through FiniteKGraph._from_parts -----


def _reference_expect(cond: bool, message: str):
    from kgraphs.errors import ParseError

    if not cond:
        raise ParseError(message)


def _reference_is_int(x) -> bool:
    """A JSON integer: true and false load as Python bools, which are ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def _reference_str_list(doc, key) -> list[str]:
    val = doc.get(key)
    _reference_expect(isinstance(val, list), f"{key!r} must be a list")
    for x in val:
        _reference_expect(isinstance(x, str), f"{key!r} entries must be strings")
    return val


def reference_load_category(doc) -> FiniteKGraph:
    """Reference copy of `io._load_category` as it was when it checked each
    field through `_expect` and built with the public constructor, parsing
    every coordinate on its own.  Oracle for the single-pass loader: graphs,
    first error types and messages must match.
    """
    from fractions import Fraction

    from kgraphs.errors import ParseError

    _expect, _is_int, _str_list = _reference_expect, _reference_is_int, _reference_str_list

    rank = doc.get("rank")
    _expect(_is_int(rank) and rank >= 0, '"rank" must be a non-negative integer')
    vertices = _str_list(doc, "vertices")
    vset = set(vertices)
    _expect(len(vset) == len(vertices), "duplicate vertex ids")

    morphisms = {}
    raw = doc.get("morphisms")
    _expect(isinstance(raw, list), '"morphisms" must be a list')
    for rec in raw:
        _expect(isinstance(rec, dict), "morphism records must be objects")
        _expect(
            set(rec) == {"id", "d", "r", "s"},
            f"morphism record needs exactly id/d/r/s, got {sorted(rec)}",
        )
        mid, d, r, s = rec["id"], rec["d"], rec["r"], rec["s"]
        _expect(isinstance(mid, str), "morphism id must be a string")
        _expect(
            isinstance(d, list) and all(_is_int(x) and x >= 0 for x in d),
            f"degree of {mid!r} must be a list of non-negative integers",
        )
        _expect(isinstance(r, str) and isinstance(s, str), f"endpoints of {mid!r} must be strings")
        _expect(mid not in vset, f"morphism id {mid!r} collides with a vertex")
        _expect(mid not in morphisms, f"duplicate morphism id {mid!r}")
        _expect(any(d) or len(d) != rank, f"{mid!r} has degree zero; identities are implicit")
        morphisms[mid] = (tuple(d), r, s)

    table = {}
    raw = doc.get("compose")
    _expect(isinstance(raw, list), '"compose" must be a list')
    for triple in raw:
        _expect(
            isinstance(triple, list) and len(triple) == 3 and all(isinstance(x, str) for x in triple),
            "compose entries must be [a, b, ab] string triples",
        )
        a, b, c = triple
        _expect(a not in vset and b not in vset, f"identity composition [{a}, {b}] must be omitted")
        _expect((a, b) not in table, f"duplicate compose entry for ({a}, {b})")
        table[(a, b)] = c

    graph = FiniteKGraph(rank, vertices, morphisms, table)
    if "embedding" in doc:
        raw = doc["embedding"]
        _expect(isinstance(raw, dict), '"embedding" must be an object')
        emb = {}
        for v, coords in raw.items():
            _expect(v in vset, f"embedding names unknown vertex {v!r}")
            _expect(isinstance(coords, list), "embedding coordinates must be lists")
            try:
                emb[v] = tuple(Fraction(str(x)) for x in coords)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad rational coordinate for vertex {v!r}") from None
        graph.embedding = emb
    return graph


# -- the skeleton loader before its checks were inlined -----------------------


def _reference_load_edges(doc, key) -> dict:
    _expect = _reference_expect
    raw = doc.get(key)
    _expect(isinstance(raw, list), f"{key!r} must be a list")
    edges = {}
    for rec in raw:
        _expect(isinstance(rec, dict), "edge records must be objects")
        _expect(
            set(rec) == {"id", "r", "s"},
            f"edge record needs exactly id/r/s, got {sorted(rec)}",
        )
        eid, r, s = rec["id"], rec["r"], rec["s"]
        _expect(all(isinstance(x, str) for x in (eid, r, s)), "edge fields must be strings")
        _expect(eid not in edges, f"duplicate edge id {eid!r}")
        edges[eid] = (r, s)
    return edges


def reference_load_skeleton(doc):
    """Reference copy of `io._load_skeleton` (with `_load_edges` and
    `_str_list`) as it was when every check went through `_expect`,
    verbatim.  Oracle for the inlined checks: skeletons, markings, first
    error types and messages must match.
    """
    from kgraphs.errors import BadArgument, ParseError
    from kgraphs.surfaces import MarkedSkeleton

    _expect, _str_list, _load_edges = _reference_expect, _reference_str_list, _reference_load_edges

    vertices = _str_list(doc, "vertices")
    vset = set(vertices)
    _expect(len(vset) == len(vertices), "duplicate vertex ids")
    blue = _load_edges(doc, "blue")
    red = _load_edges(doc, "red")
    raw = doc.get("squares")
    _expect(isinstance(raw, list), '"squares" must be a list')
    squares = []
    for sq in raw:
        _expect(
            isinstance(sq, list) and len(sq) == 4 and all(isinstance(x, str) for x in sq),
            "squares must be [f, g, g2, f2] string quadruples",
        )
        squares.append(tuple(sq))
    try:
        sk = Skeleton2Graph(vertices, blue, red, squares)
    except BadArgument as e:
        raise ParseError(str(e)) from None

    marking = [k for k in ("u", "v", "square") if k in doc]
    if not marking:
        return sk
    _expect(len(marking) == 3, 'marking needs all three of "u", "v", "square"')
    u, v, sq = doc["u"], doc["v"], doc["square"]
    _expect(isinstance(u, str) and isinstance(v, str), "marking u/v must be strings")
    _expect(
        isinstance(sq, list) and len(sq) == 4 and all(isinstance(x, str) for x in sq),
        '"square" must be an [f, g, g2, f2] quadruple',
    )
    return MarkedSkeleton(sk, u, v, tuple(sq))


# -- the sparse Smith normal form before the column sweep ----------------------


def reference_snf_sparse(entries, m, n):
    """Reference copy of the sparse Smith normal form as it was before the
    column sweep, verbatim: rank and invariant factors of a sparse integer matrix.

    Eliminates +-1 pivots chosen by Markowitz cost (least fill) with a
    lazy heap, then hands the leftover core to the dense routine.
    """
    import heapq

    from kgraphs.homology import _snf_dense

    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (i, j), v in entries.items():
        if v:
            rows.setdefault(i, {})[j] = int(v)
            cols.setdefault(j, set()).add(i)

    def cost(i, j):
        return (len(rows[i]) - 1) * (len(cols[j]) - 1)

    heap = []
    for i, row in rows.items():
        for j, v in row.items():
            if v in (1, -1):
                heapq.heappush(heap, (cost(i, j), i, j))

    ones = 0
    while heap:
        c, i, j = heapq.heappop(heap)
        v = rows.get(i, {}).get(j)
        if v not in (1, -1):
            continue
        real = cost(i, j)
        if real > c:
            heapq.heappush(heap, (real, i, j))
            continue
        # eliminate column j using row i, then retire both
        pivot_row = rows.pop(i)
        for j2 in pivot_row:
            cols[j2].discard(i)
        for i2 in list(cols[j]):
            c2 = rows[i2].pop(j, 0)
            cols[j].discard(i2)
            if not c2:
                continue
            mult = -c2 * v  # row_i2 += mult * pivot_row  clears its j entry
            row2 = rows[i2]
            for j2, w in pivot_row.items():
                if j2 == j:
                    continue
                new = row2.get(j2, 0) + mult * w
                if new:
                    row2[j2] = new
                    cols[j2].add(i2)
                    if new in (1, -1):
                        heapq.heappush(heap, (cost(i2, j2), i2, j2))
                else:
                    row2.pop(j2, None)
                    cols[j2].discard(i2)
            if not row2:
                del rows[i2]
        cols.pop(j, None)
        ones += 1

    # dense cleanup of whatever has no unit entries left
    live_rows = sorted(i for i in rows if rows[i])
    live_cols = sorted({j for i in live_rows for j in rows[i]})
    if live_rows:
        jindex = {j: a for a, j in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in live_rows]
        for a, i in enumerate(live_rows):
            for j, v in rows[i].items():
                dense[a][jindex[j]] = v
        tail, _, _ = _snf_dense(dense, False)
    else:
        tail = []
    diag = [1] * ones + [abs(d) for d in tail if d]
    return len(diag), diag


# -- the string-keyed graph before the integer-indexed core -----------------


class ReferenceKGraph:
    """Reference copy of `core.FiniteKGraph` as it was when it kept string ids
    and string-keyed records and table, verbatim apart from its name.  The
    oracle for the integer-indexed core.

    A finite k-graph candidate: explicit morphisms plus a composition table.

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
    def _from_parts(cls, rank: int, vertices, mor: dict, table: dict) -> ReferenceKGraph:
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


class ReferenceUnionFind:
    """Reference copy of `quotient._UnionFind` as it was over string ids."""

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


# -- the adapter through which tests read a graph's parts ---------------------


def parts(g: FiniteKGraph):
    """(vertices, records, table) of g, read through its public accessors:
    the arguments that rebuild it with the public constructor."""
    mor = {m: Morphism(g.d(m), g.r(m), g.s(m)) for m in g.nonidentity_ids()}
    return g.vertices, mor, g.compose_table()


def reference_view(g: FiniteKGraph) -> ReferenceKGraph:
    """g rebuilt from parts(g) as a ReferenceKGraph, whose string-keyed
    `_mor`, `_compose` and `_split` the reference copies read."""
    return ReferenceKGraph(g.rank, *parts(g))


def table_order(g: FiniteKGraph) -> list:
    """g's stored composition table as ((a, b), ab) by morphism number, in
    the order it is stored and written."""
    return list(g._table.items())


def factor_index(g: FiniteKGraph, build: bool = True):
    """The factorisation index g keeps, built first if asked, else None
    until a clean validation or a factorisation has built it."""
    return g._factors() if build else g._factor_index


def reference_cartesian_product(a: FiniteKGraph, b: FiniteKGraph) -> ReferenceKGraph:
    """Reference copy of `core.cartesian_product` as it was on string ids,
    over the reference views of a and b: verbatim apart from the names."""
    from kgraphs.errors import BadArgument

    a, b = reference_view(a), reference_view(b)

    def _pair_id(x: str, y: str) -> str:
        return f"({x},{y})"

    mor = {
        _pair_id(m, n): Morphism(ra.d + rb.d, _pair_id(ra.r, rb.r), _pair_id(ra.s, rb.s))
        for m, ra in a._mor.items()
        for n, rb in b._mor.items()
    }
    av, bv = a._vset, b._vset
    table = {}
    a_pairs = b_pairs = []
    if (a._compose or a._vertices) and (b._compose or b._vertices):
        next(a._composites())
        b_pairs = list(b._composites())
        a_pairs = list(a._composites())
    for x, x2, xx in a_pairs:
        for y, y2, yy in b_pairs:
            if (x in av and y in bv) or (x2 in av and y2 in bv):
                continue
            table[(_pair_id(x, y), _pair_id(x2, y2))] = _pair_id(xx, yy)
    if len(mor) != len(a._mor) * len(b._mor):
        raise BadArgument("duplicate morphism id: pair ids of the product collide")
    vertices = [_pair_id(u, v) for u in a.vertices for v in b.vertices]
    ids, zero = set(vertices), (0,) * (a.rank + b.rank)
    bad = sorted(m for m, rec in mor.items() if rec.d == zero and m not in ids)
    if bad:
        raise BadArgument(f"{bad[0]!r} has degree zero; identities are implicit")
    return ReferenceKGraph._from_parts(a.rank + b.rank, vertices, mor, table)


def reference_disjoint_union(a: FiniteKGraph, b: FiniteKGraph) -> ReferenceKGraph:
    """Reference copy of `core._tagged_union` on ("0", "1"), as it was on
    string ids, over the reference views of a and b: verbatim apart from
    the names."""
    graphs, tags = [reference_view(a), reference_view(b)], ["0", "1"]
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
    return ReferenceKGraph._from_parts(rank, vertices, mor, table)


def reference_quotient(graph: FiniteKGraph, rel) -> ReferenceKGraph:
    """Reference copy of the construction in `quotient.quotient` as it was
    on string ids, for a relation that passes check_congruence; it reads
    the relation through its public rep and classes."""
    view = reference_view(graph)
    rep = {m: rel.rep(m) for m in graph.morphism_ids()}
    mor = {}
    for members in rel.classes():
        rec = view._mor[members[0]]
        mor[members[0]] = Morphism(rec.d, rep[rec.r], rep[rec.s])
    table = {}
    for (a, b), c in view._compose.items():
        table[(rep[a], rep[b])] = rep[c] if c in rep else rel.rep(c)
    vertices = {rep[v] for v in view.vertices}
    return ReferenceKGraph._from_parts(graph.rank, vertices, mor, table)


# -- gluing as it was: tagged union, pair relation, certified quotient --------


def reference_tagged_union(graphs, tags) -> FiniteKGraph:
    """Reference copy of `core._tagged_union`, verbatim, from before the
    wedge, the sphere and `glue_on_common` were glued in one pass."""
    from kgraphs.core import _numbering, _sorted_parts

    rank = graphs[0].rank
    for g in graphs:
        if g.rank != rank:
            raise RankMismatch(f"cannot union a rank-{g.rank} graph with rank {rank}")
    tagged = [f"{t}:{m}" for g, t in zip(graphs, tags, strict=True) for m in g._ids]
    ids, order, new, at = _numbering(tagged)
    deg, r, s, isv, table, start = [], [], [], bytearray(), {}, 0
    for g, t in zip(graphs, tags):
        n = len(g._ids)
        num = new[start:start + n] + [at[f"{t}:{x}"] for x in g._names[n:]]
        start += n
        deg += g._d
        r += [num[x] for x in g._r]
        s += [num[x] for x in g._s]
        isv += g._isv[:n]
        for (x, y), z in g._table.items():
            table[(num[x], num[y])] = num[z]
    return FiniteKGraph._from_parts(*_sorted_parts(rank, order, at, deg, r, s, isv, table))


def reference_build_wedge(k: int, n: int) -> FiniteKGraph:
    """Reference copy of `simplex.build_wedge` as it was: n tagged spheres
    and the certified quotient identifying their 0-side poles."""
    from kgraphs.quotient import quotient, relation_from_pairs
    from kgraphs.simplex import build_sphere, sphere_pole

    if not isinstance(n, int) or n < 1:
        raise BadArgument("a wedge needs n >= 1 spheres")
    sphere = build_sphere(k)
    tags = [str(i) for i in range(1, n + 1)]
    copies = reference_tagged_union([sphere] * n, tags)
    pole = sphere_pole(k, 0)
    pairs = [(f"{tags[0]}:{pole}", f"{t}:{pole}") for t in tags[1:]]
    rel = relation_from_pairs(copies, pairs, mode="explicit")
    return quotient(copies, rel)


def reference_check_embedding(side: str, phi: dict[str, str], common, target):
    """Reference copy of `quotient._check_embedding` as it was on string ids."""
    from kgraphs.errors import NotInjective

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


def reference_glue_on_common(common, left, right, phi_left, phi_right) -> FiniteKGraph:
    """Reference copy of `quotient.glue_on_common` as it was: the string-level
    embedding check, then always the disjoint union, the generated relation,
    the certified quotient and a full validation.  Verbatim apart from the
    names of the reference copies it calls."""
    from kgraphs.core import validate_kgraph
    from kgraphs.errors import NotHereditary
    from kgraphs.quotient import quotient, relation_from_pairs

    reference_check_embedding("left", phi_left, common, left)
    reference_check_embedding("right", phi_right, common, right)

    images = {}
    for side, phi, target in (("left", phi_left, left), ("right", phi_right, right)):
        V = {phi[v] for v in common.vertices}
        hered = reference_vertex_predicate(target, V, "hereditary")
        cohered = reference_vertex_predicate(target, V, "cohereditary")
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

    union = reference_tagged_union([left, right], ["0", "1"])
    pairs = [
        (f"0:{phi_left[m]}", f"1:{phi_right[m]}") for m in common.morphism_ids()
    ]
    rel = relation_from_pairs(union, pairs)
    glued = quotient(union, rel)
    problems = validate_kgraph(glued)
    if problems:
        raise InvalidModel(f"glued graph fails validation: {problems[0]}")
    return glued


def reference_vertex_predicate(g, vertex_set, kind: str):
    """Reference copy of the hereditary and co-hereditary branches of
    `core.vertex_predicate` as they were on string ids."""
    from kgraphs.core import VertexSetReport

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
    raise BadArgument(f"unknown predicate kind {kind!r}")
