"""Byte-stable JSON documents for graphs, skeletons and relations.

Three kinds of document, told apart by "kind":

  category   rank, vertices, morphisms (id/d/r/s; identities omitted),
             compose triples ([a, b, ab]; identity triples omitted), and
             optionally an exact rational "embedding" of the vertices;
  skeleton2  vertices, blue and red edge lists (id/r/s), squares, and
             optionally the marking fields u / v / square;
  relation   over (an informational pointer to the graph document),
             mode ("generated" or "explicit"), pairs, classes.

Writers emit keys and list entries in canonical sorted order with a
two-space indent and a trailing newline, so the same model always
serialises to the same bytes.  The category layout lives in one writer,
`kgraph_json`; the category dict `kgraph_doc` is its parsed output.
Loaders are strict: unknown kinds, shape errors, booleans where integers
belong, degree-zero morphism entries and identity composition triples
are all ParseError, and so is text that is not JSON or nests too deeply
to parse; `loads` raises nothing else.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .core import FiniteKGraph, Skeleton2Graph, _Record, _checked, _set
from .errors import BadArgument, ParseError
from .quotient import MorphismRelation, relation_from_classes, relation_from_pairs
from .surfaces import MarkedSkeleton


class RelationDoc(_Record):
    """A parsed relation document, not yet bound to its graph."""

    __slots__ = ("over", "mode", "pairs", "classes")
    over: str
    mode: str
    pairs: tuple[tuple[str, str], ...]
    classes: tuple[tuple[str, ...], ...] | None

    def __init__(self, over: str, mode: str, pairs: tuple[tuple[str, str], ...],
                 classes: tuple[tuple[str, ...], ...] | None):
        _set(self, "over", over)
        _set(self, "mode", mode)
        _set(self, "pairs", pairs)
        _set(self, "classes", classes)


def _expect(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def _str_list(doc, key) -> list[str]:
    val = doc.get(key)
    if type(val) is not list:
        raise ParseError(f"{key!r} must be a list")
    if not all(type(x) is str for x in val):
        raise ParseError(f"{key!r} entries must be strings")
    return val


def loads(text: str):
    """Parse a document; returns a FiniteKGraph, Skeleton2Graph,
    MarkedSkeleton or RelationDoc according to its kind."""
    try:
        doc = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an over-long integer literal
        raise ParseError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise ParseError("not valid JSON: nested too deeply") from None
    _expect(isinstance(doc, dict), "document must be a JSON object")
    kind = doc.get("kind")
    if kind == "category":
        return _load_category(doc)
    if kind == "skeleton2":
        return _load_skeleton(doc)
    if kind == "relation":
        return _load_relation(doc)
    raise ParseError(f"unknown document kind {kind!r}")


def _morphism_records(raw):
    """The morphism records of a category document as (id, d, r, s)."""
    _expect(type(raw) is list, '"morphisms" must be a list')
    for rec in raw:
        if type(rec) is not dict:
            raise ParseError("morphism records must be objects")
        if rec.keys() != {"id", "d", "r", "s"}:
            raise ParseError(f"morphism record needs exactly id/d/r/s, got {sorted(rec)}")
        mid, d, r, s = rec["id"], rec["d"], rec["r"], rec["s"]
        if type(mid) is not str:
            raise ParseError("morphism id must be a string")
        if type(d) is not list or not all(type(x) is int and x >= 0 for x in d):
            raise ParseError(f"degree of {mid!r} must be a list of non-negative integers")
        if type(r) is not str or type(s) is not str:
            raise ParseError(f"endpoints of {mid!r} must be strings")
        yield mid, tuple(d), r, s


def _compose_triples(raw):
    """The compose entries of a category document, [a, b, ab] each."""
    _expect(type(raw) is list, '"compose" must be a list')
    for triple in raw:
        if not (type(triple) is list and len(triple) == 3 and type(triple[0]) is str
                and type(triple[1]) is str and type(triple[2]) is str):
            raise ParseError("compose entries must be [a, b, ab] string triples")
        yield triple


def _load_category(doc) -> FiniteKGraph:
    rank = doc.get("rank")
    _expect(type(rank) is int and rank >= 0, '"rank" must be a non-negative integer')
    if rank > sys.maxsize:  # no degree tuple is that long
        raise ParseError(f'"rank" {rank} is too large')
    vertices = _str_list(doc, "vertices")
    try:
        graph = FiniteKGraph._from_parts(*_checked(
            rank, vertices, _morphism_records(doc.get("morphisms")), _compose_triples(doc.get("compose"))))
    except BadArgument as e:
        raise ParseError(str(e)) from None
    if "embedding" in doc:
        raw = doc["embedding"]
        _expect(type(raw) is dict, '"embedding" must be an object')
        emb = {}
        parsed = _Memo(Fraction)  # coordinates repeat across vertices
        for v, coords in raw.items():
            _expect(graph.is_vertex(v), f"embedding names unknown vertex {v!r}")
            _expect(type(coords) is list, "embedding coordinates must be lists")
            try:
                emb[v] = tuple([parsed[str(x)] for x in coords])
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad rational coordinate for vertex {v!r}") from None
        graph.embedding = emb
    return graph


def _load_edges(doc, key) -> dict:
    raw = doc.get(key)
    if type(raw) is not list:
        raise ParseError(f"{key!r} must be a list")
    edges = {}
    for rec in raw:
        if type(rec) is not dict:
            raise ParseError("edge records must be objects")
        if rec.keys() != {"id", "r", "s"}:
            raise ParseError(f"edge record needs exactly id/r/s, got {sorted(rec)}")
        eid, r, s = rec["id"], rec["r"], rec["s"]
        if type(eid) is not str or type(r) is not str or type(s) is not str:
            raise ParseError("edge fields must be strings")
        if eid in edges:
            raise ParseError(f"duplicate edge id {eid!r}")
        edges[eid] = (r, s)
    return edges


def _load_skeleton(doc):
    vertices = _str_list(doc, "vertices")
    vset = set(vertices)
    _expect(len(vset) == len(vertices), "duplicate vertex ids")
    blue = _load_edges(doc, "blue")
    red = _load_edges(doc, "red")
    raw = doc.get("squares")
    _expect(isinstance(raw, list), '"squares" must be a list')
    squares = []
    for sq in raw:
        if not (type(sq) is list and len(sq) == 4 and type(sq[0]) is str
                and type(sq[1]) is str and type(sq[2]) is str and type(sq[3]) is str):
            raise ParseError("squares must be [f, g, g2, f2] string quadruples")
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


def _load_relation(doc) -> RelationDoc:
    over = doc.get("over", "")
    _expect(isinstance(over, str), '"over" must be a string')
    mode = doc.get("mode")
    _expect(mode in ("generated", "explicit"), 'mode must be "generated" or "explicit"')
    raw = doc.get("pairs", [])
    _expect(isinstance(raw, list), '"pairs" must be a list')
    pairs = []
    for p in raw:
        _expect(
            isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p),
            "pairs must be [a, b] string pairs",
        )
        pairs.append((p[0], p[1]))
    classes = None
    if "classes" in doc:
        raw = doc["classes"]
        _expect(isinstance(raw, list), '"classes" must be a list')
        classes = []
        for cls in raw:
            _expect(
                isinstance(cls, list) and all(isinstance(x, str) for x in cls),
                "classes must be lists of morphism ids",
            )
            classes.append(tuple(cls))
    if mode == "explicit":
        _expect(classes is not None, 'explicit mode needs "classes"')
    else:
        # an empty pair list is fine: it generates the trivial relation
        _expect("pairs" in doc or classes is not None, 'generated mode needs "pairs"')
    return RelationDoc(over, mode, tuple(pairs), tuple(classes) if classes else None)


def bind_relation(rdoc: RelationDoc, graph: FiniteKGraph) -> MorphismRelation:
    """Attach a parsed relation document to its graph."""
    if rdoc.mode == "generated":
        pairs = list(rdoc.pairs)
        for cls in rdoc.classes or ():
            pairs.extend((cls[0], m) for m in cls[1:])
        return relation_from_pairs(graph, pairs, "generated")
    # explicit mode takes the partition literally; extra pairs just merge
    rel = relation_from_classes(graph, rdoc.classes or ())
    if not rdoc.pairs:
        return rel
    class_pairs = [(cls[0], m) for cls in rdoc.classes or () for m in cls[1:]]
    return relation_from_pairs(graph, class_pairs + list(rdoc.pairs), "explicit")


# ---------------------------------------------------------------------------
# writers


def kgraph_doc(g: FiniteKGraph) -> dict:
    """The category document of g, as `kgraph_json` writes it."""
    return json.loads(kgraph_json(g))


def skeleton_doc(sk) -> dict:
    marking = None
    if isinstance(sk, MarkedSkeleton):
        marking = (sk.u, sk.v, sk.square)
        sk = sk.skeleton
    doc = {
        "kind": "skeleton2",
        "vertices": list(sk.vertices),
        "blue": [
            {"id": e, "r": sk.blue[e].r, "s": sk.blue[e].s} for e in sorted(sk.blue)
        ],
        "red": [
            {"id": e, "r": sk.red[e].r, "s": sk.red[e].s} for e in sorted(sk.red)
        ],
        "squares": [list(sq) for sq in sk.squares],
    }
    if marking:
        doc["u"], doc["v"], doc["square"] = marking[0], marking[1], list(marking[2])
    return doc


def relation_doc(rel: MorphismRelation, over: str = "") -> dict:
    return {
        "kind": "relation",
        "over": over,
        "mode": rel.mode,
        "pairs": [list(p) for p in rel.pairs],
        "classes": [list(c) for c in rel.nontrivial_classes()],
    }


def model_doc(model) -> dict:
    if isinstance(model, FiniteKGraph):
        return kgraph_doc(model)
    if isinstance(model, (Skeleton2Graph, MarkedSkeleton)):
        return skeleton_doc(model)
    if isinstance(model, MorphismRelation):
        return relation_doc(model)
    raise TypeError(f"cannot serialise {type(model).__name__}")


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


class _Memo(dict):
    """fn(key), computed once per distinct key."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        self[key] = out = self.fn(key)
        return out


def _block(items: list[str], indent: int, brackets: str = "[]") -> str:
    """The json.dumps(indent=2) text of a list (or object) of encoded items
    that opens at the given indent."""
    if not items:
        return brackets
    inner = "\n" + " " * (indent + 2)
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{' ' * indent}{brackets[1]}"


def kgraph_json(g: FiniteKGraph) -> str:
    """The category document of g as text, written from the graph: each id
    and degree is encoded once, ids by the C string encoder."""
    q = [encode_basestring_ascii(m) for m in g._names]
    degree = _Memo(lambda d: _block([str(x) for x in d], 6))
    records = [
        f'{{\n      "id": {q[m]},\n      "d": {degree[g._d[m]]},\n'
        f'      "r": {q[g._r[m]]},\n      "s": {q[g._s[m]]}\n    }}'
        for m in g._nonid
    ]
    table, pairs = g._table, sorted(g._table)  # numbers sort as ids do
    if len(g._names) > len(g._ids):  # but the unknown names of a broken table
        pairs.sort(key=lambda ab: (g._names[ab[0]], g._names[ab[1]]))
    # in pieces joined once, as the triples are most of the text
    out = [
        f'{{\n  "kind": "category",\n  "rank": {g.rank},\n'
        f'  "vertices": {_block([q[v] for v in g._vidx], 2)},\n'
        f'  "morphisms": {_block(records, 2)},\n  "compose": ',
        _block([f"[\n      {q[a]},\n      {q[b]},\n      {q[table[a, b]]}\n    ]"
                for a, b in pairs], 2),
    ]
    if g.embedding is not None:
        q = _Memo(encode_basestring_ascii)
        points = [
            f"{q[v]}: {_block([q[str(Fraction(x))] for x in coords], 4)}"
            for v, coords in sorted(g.embedding.items())
        ]
        out.append(f',\n  "embedding": {_block(points, 2, "{}")}')
    out.append("\n}\n")
    return "".join(out)
