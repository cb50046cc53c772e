"""Loader strictness and canonical serialisation."""

import copy
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgraphs import (
    FiniteKGraph,
    build_simplex,
    build_sphere,
    dumps,
    export_json,
    kgraph_doc,
    loads,
    model_doc,
    relation_from_pairs,
)
from kgraphs.core import Skeleton2Graph
from kgraphs.errors import BadArgument, ParseError
from kgraphs.surfaces import MarkedSkeleton, basic_surface, compact_surface

from helpers import (
    path_category,
    random_grid_category,
    random_path_category,
    reference_kgraph_doc,
    reference_load_category,
    reference_load_skeleton,
)


def roundtrip(model):
    return loads(dumps(model_doc(model)))


def test_category_roundtrip_is_stable():
    g = build_simplex(2)
    g2 = roundtrip(g)
    assert isinstance(g2, FiniteKGraph)
    assert g2.vertices == g.vertices
    assert sorted(g2.morphism_ids()) == sorted(g.morphism_ids())
    assert g2.compose_table() == g.compose_table()
    # byte-stable: serialising twice gives identical text
    assert dumps(model_doc(g)) == dumps(model_doc(g2))


def test_embedding_survives_roundtrip_exactly():
    g = build_sphere(1)
    g2 = roundtrip(g)
    assert g2.embedding == g.embedding
    assert all(
        isinstance(x, Fraction) for point in g2.embedding.values() for x in point
    )


def test_skeleton_roundtrip_keeps_marking():
    ms = basic_surface("K")
    ms2 = roundtrip(ms)
    assert isinstance(ms2, MarkedSkeleton)
    assert (ms2.u, ms2.v, ms2.square) == (ms.u, ms.v, ms.square)
    assert ms2.skeleton.squares == ms.skeleton.squares
    assert ms2 == ms


def test_rejects_an_edge_id_that_is_a_vertex_id():
    doc = model_doc(basic_surface("T"))
    doc["blue"][0]["id"] = "u"
    with pytest.raises(ParseError, match="vertex and edge ids must be pairwise distinct"):
        loads(json.dumps(doc))


def test_rejects_non_object():
    with pytest.raises(ParseError):
        loads("[1, 2, 3]")
    with pytest.raises(ParseError):
        loads("not json at all")


def test_rejects_unknown_kind():
    with pytest.raises(ParseError):
        loads('{"kind": "widget"}')


def test_rejects_degree_zero_morphism_record():
    text = """{
      "kind": "category", "rank": 1, "vertices": ["v"],
      "morphisms": [{"id": "m", "d": [0], "r": "v", "s": "v"}],
      "compose": []
    }"""
    with pytest.raises(ParseError):
        loads(text)


def test_rejects_identity_compose_entries():
    text = """{
      "kind": "category", "rank": 1, "vertices": ["a", "b"],
      "morphisms": [{"id": "e", "d": [1], "r": "b", "s": "a"}],
      "compose": [["b", "e", "e"]]
    }"""
    with pytest.raises(ParseError):
        loads(text)


def test_rejects_duplicate_ids():
    text = """{
      "kind": "category", "rank": 1, "vertices": ["a", "a"],
      "morphisms": [], "compose": []
    }"""
    with pytest.raises(ParseError):
        loads(text)


def test_rejects_extra_morphism_fields():
    text = """{
      "kind": "category", "rank": 1, "vertices": ["a", "b"],
      "morphisms": [{"id": "e", "d": [1], "r": "b", "s": "a", "colour": 7}],
      "compose": []
    }"""
    with pytest.raises(ParseError):
        loads(text)


def test_partial_marking_rejected():
    doc = model_doc(basic_surface("T"))
    del doc["v"]
    import json

    with pytest.raises(ParseError):
        loads(json.dumps(doc))


def test_unmarked_skeleton_loads_as_plain_skeleton():
    doc = model_doc(basic_surface("T"))
    for key in ("u", "v", "square"):
        del doc[key]
    import json

    sk = loads(json.dumps(doc))
    assert isinstance(sk, Skeleton2Graph)


def test_dumps_ends_with_newline_and_sorted_ids():
    doc = model_doc(build_simplex(1))
    text = dumps(doc)
    assert text.endswith("\n")
    ids = [m["id"] for m in doc["morphisms"]]
    assert ids == sorted(ids)


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "category", "rank": true, "vertices": [], "morphisms": [], "compose": []}',
        """{"kind": "category", "rank": 1, "vertices": ["a", "b"],
            "morphisms": [{"id": "e", "d": [true], "r": "b", "s": "a"}], "compose": []}""",
        "[" * 100000 + "]" * 100000,
        '{"kind": "category", "rank": ' + "1" * 5000 + "}",
    ],
    ids=["bool-rank", "bool-degree", "deep-nesting", "long-integer"],
)
def test_rejects_booleans_deep_nesting_and_long_integers(text):
    with pytest.raises(ParseError):
        loads(text)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
    | st.sampled_from(["category", "skeleton2", "relation", "generated", "explicit", "v", "0"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)

VALID_DOCS = [
    model_doc(build_simplex(1)),
    model_doc(build_sphere(1)),
    model_doc(basic_surface("T")),
    model_doc(relation_from_pairs(build_simplex(1), [("{0,1}", "{1,0}")], "explicit")),
]


def containers(doc):
    """Every dict and list inside a document, the document included."""
    out = [doc]
    for child in doc.values() if isinstance(doc, dict) else doc:
        if isinstance(child, (dict, list)):
            out.extend(containers(child))
    return out


def mutate(data, doc) -> None:
    """Overwrite, drop or add one to three values anywhere in a document."""
    for _ in range(data.draw(st.integers(1, 3))):
        target = data.draw(st.sampled_from(containers(doc)))
        value = data.draw(JSON_VALUES)
        if isinstance(target, dict):
            key = data.draw(st.sampled_from(sorted(target) + ["kind", "rank", "embedding"]))
            if data.draw(st.booleans()):
                target.pop(key, None)
            else:
                target[key] = value
        elif target and data.draw(st.booleans()):
            target[data.draw(st.integers(0, len(target) - 1))] = value
        else:
            target.append(value)


@st.composite
def loadable_texts(draw):
    """Any short text or JSON value, or a valid document mutated."""
    data = draw(st.data())
    if data.draw(st.booleans()):
        return data.draw(st.one_of(st.text(max_size=20), JSON_VALUES.map(json.dumps)))
    doc = copy.deepcopy(data.draw(st.sampled_from(VALID_DOCS)))
    mutate(data, doc)
    return json.dumps(doc)


def huge_rank_category(rank):
    return json.dumps({"kind": "category", "rank": rank, "vertices": ["v"], "morphisms": [], "compose": []})


@settings(max_examples=200, deadline=None)
@given(text=loadable_texts())
# ranks no degree tuple can hold; smaller huge ranks would try to allocate one
@example(text=huge_rank_category(2**63))
@example(text=huge_rank_category(2**64))
def test_loads_raises_nothing_but_parse_error(text):
    try:
        loads(text)
    except ParseError:
        pass


# -- the category writer and loader against the dict API and the old loader --

ID_TEXT = st.text(
    alphabet=st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\u2028", "é", "€", "\U0001d11e", "a", ",", ":"]),
    min_size=1,
    max_size=4,
)
COORDINATES = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-3, 4), Fraction(5)])


@st.composite
def exotic_graphs(draw):
    """A small path or grid category whose ids are renamed to text full of
    quotes, backslashes, control characters and non-ASCII, sometimes with
    an embedding whose coordinates repeat."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    base = draw(st.sampled_from([random_path_category, random_grid_category]))(rng, max_morphisms=12)
    ids = base.morphism_ids()
    names = dict(zip(ids, draw(st.lists(ID_TEXT, min_size=len(ids), max_size=len(ids), unique=True))))
    g = FiniteKGraph(
        base.rank,
        [names[v] for v in base.vertices],
        {names[m]: (base.d(m), names[base.r(m)], names[base.s(m)]) for m in base.nonidentity_ids()},
        {(names[a], names[b]): names[c] for (a, b), c in base.compose_table().items()},
    )
    if draw(st.booleans()):
        g.embedding = {v: (draw(COORDINATES), draw(COORDINATES)) for v in g.vertices}
    return g


@settings(max_examples=60, deadline=None)
@given(g=exotic_graphs())
def test_category_writer_matches_dumps_and_loads_back_field_for_field(g):
    text = export_json(g)
    assert text == dumps(reference_kgraph_doc(g))
    assert text.isascii() and text.endswith("\n")
    assert vars(loads(text)) == vars(g)
    assert vars(reference_load_category(json.loads(text))) == vars(g)


@settings(max_examples=40, deadline=None)
@given(g=exotic_graphs(), data=st.data())
def test_bad_coordinate_names_the_first_offending_vertex(g, data):
    doc = json.loads(export_json(g))
    order = data.draw(st.permutations(g.vertices))
    bad = data.draw(st.lists(st.sampled_from(order), min_size=1, unique=True))
    junk = st.sampled_from(["1/0", "x", "", "nan", None, True, [1]])
    fine = st.sampled_from(["1/2", "-2/4", 3, 1.5])
    doc["embedding"] = {v: ["1/2", data.draw(junk if v in bad else fine)] for v in order}
    first = next(v for v in order if v in bad)
    with pytest.raises(ParseError) as err:
        loads(json.dumps(doc))
    assert str(err.value) == f"bad rational coordinate for vertex {first!r}"


CATEGORY_DOCS = [
    model_doc(build_simplex(1)),
    model_doc(build_sphere(1)),
    kgraph_doc(path_category(3, [(0, 1), (1, 2)])),
]


def outcome(load, text):
    try:
        return "graph", vars(load(text))
    except Exception as exc:  # the first error is what is compared
        return type(exc), str(exc)


def _pick(data, items):
    return data.draw(st.sampled_from(items)) if items else None


def _shared_id(data, doc):
    """Give a morphism record the id of a vertex or of another record."""
    recs = doc["morphisms"]
    if recs:
        ids = doc["vertices"] + [r["id"] for r in recs]
        _pick(data, recs)["id"] = _pick(data, ids)


def _zero_degree(data, doc):
    if doc["morphisms"]:
        _pick(data, doc["morphisms"])["d"] = [0] * doc["rank"]


def _identity_triple(data, doc):
    ids = [r["id"] for r in doc["morphisms"]]
    if ids:
        v = _pick(data, doc["vertices"])
        doc["compose"].append(_pick(data, [[v, ids[0], ids[0]], [ids[0], v, ids[0]]]))


def _repeat(key):
    def fault(data, doc):
        item = _pick(data, doc[key])
        if item is not None:
            doc[key].insert(data.draw(st.integers(0, len(doc[key]))), copy.deepcopy(item))
    return fault


def _bad_point(data, doc):
    points = doc.get("embedding", {})
    if points:
        v = _pick(data, sorted(points))
        points[v] = data.draw(st.sampled_from([["1/0"], ["x", "1"], "1/2", [None]]))
    else:
        doc["embedding"] = {"ghost": ["1"]}


SEMANTIC_FAULTS = [
    _shared_id,
    _zero_degree,
    _identity_triple,
    _repeat("vertices"),
    _repeat("morphisms"),
    _repeat("compose"),
    _bad_point,
]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_loader_faults_match_the_reference_loader(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(CATEGORY_DOCS)))
    for fault in data.draw(st.lists(st.sampled_from(SEMANTIC_FAULTS), min_size=1, max_size=4)):
        fault(data, doc)
    if data.draw(st.booleans()):
        mutate(data, doc)
    text = json.dumps(doc)
    if doc.get("kind") == "category":
        assert outcome(loads, text) == outcome(lambda t: reference_load_category(json.loads(t)), text)


def test_unknown_names_are_numbered_as_the_reference_loader_numbers_them():
    # first seen first: each compose triple's a, b, ab, then ranges, then sources
    doc = {"kind": "category", "rank": 1, "vertices": ["u", "v"], "compose": [
        ["e", "ghostB", "ghostC"], ["ghostA", "f", "e"]], "morphisms": [
        {"id": "e", "d": [1], "r": "u", "s": "ghostS"}, {"id": "f", "d": [1], "r": "ghostR", "s": "v"}]}
    text = json.dumps(doc)
    assert outcome(loads, text) == outcome(lambda t: reference_load_category(json.loads(t)), text)
    assert loads(text)._names[4:] == ("ghostB", "ghostC", "ghostA", "ghostR", "ghostS")


# -- the constructor and the loader share one checker ------------------------


def category_text(rank, vertices, morphisms, compose):
    """The document of FiniteKGraph(rank, vertices, morphisms, compose),
    written field by field, faults and all."""
    return json.dumps({
        "kind": "category", "rank": rank, "vertices": vertices,
        "morphisms": [{"id": str(m), "d": list(d), "r": r, "s": s} for m, (d, r, s) in morphisms.items()],
        "compose": [[str(a), str(b), str(c)] for (a, b), c in compose.items()]})


EDGES = {"1": ((1,), "u", "v"), "2": ((1,), "v", "v")}


@pytest.mark.parametrize(
    "vertices, morphisms, compose, message",
    [
        (["v", "v"], {}, {}, "duplicate vertex ids"),
        (["v"], {"v": ((1,), "v", "v")}, {}, "morphism id 'v' collides with a vertex"),
        # 1 and "1" are one id, as both documents' records say "1"
        (["v"], {1: ((1,), "v", "v"), "1": ((1,), "v", "v")}, {}, "duplicate morphism id '1'"),
        (["v"], {"m": ((0,), "v", "v")}, {}, "'m' has degree zero; identities are implicit"),
        (["u", "v"], EDGES, {("2", "v"): "2"}, "identity composition [2, v] must be omitted"),
        (["u", "v"], EDGES, {(1, 2): "a", ("1", "2"): "b"}, "duplicate compose entry for (1, 2)"),
    ],
)
def test_constructor_and_loader_refuse_each_shared_rule_in_the_same_words(
        vertices, morphisms, compose, message):
    with pytest.raises(BadArgument) as built:
        FiniteKGraph(1, vertices, morphisms, compose)
    with pytest.raises(ParseError) as loaded:
        loads(category_text(1, vertices, morphisms, compose))
    assert str(built.value) == str(loaded.value) == message


def test_constructor_and_loader_number_a_broken_tables_names_alike():
    morphisms = {"e": ((1,), "u", "ghostS"), "f": ((1,), "ghostR", "v")}
    compose = {("e", "ghostB"): "ghostC", ("ghostA", "f"): "e"}
    built = FiniteKGraph(1, ["u", "v"], morphisms, compose)
    loaded = loads(category_text(1, ["u", "v"], morphisms, compose))
    assert built._names[4:] == loaded._names[4:] == ("ghostB", "ghostC", "ghostA", "ghostR", "ghostS")
    assert vars(built) == vars(loaded)


SKELETON_DOCS = [
    model_doc(basic_surface("K")),
    model_doc(basic_surface("T").skeleton),
    model_doc(compact_surface(["T", "P"])),
]


def _skeleton_outcome(load, text):
    try:
        return "model", model_doc(load(text))
    except Exception as exc:  # the first error is what is compared
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_skeleton_loader_matches_the_reference_loader(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(SKELETON_DOCS)))
    if data.draw(st.booleans()):
        _repeat(data.draw(st.sampled_from(["vertices", "blue", "red", "squares"])))(data, doc)
    mutate(data, doc)
    text = json.dumps(doc)
    if doc.get("kind") == "skeleton2":
        reference = lambda t: reference_load_skeleton(json.loads(t))
        assert _skeleton_outcome(loads, text) == _skeleton_outcome(reference, text)


@settings(max_examples=40, deadline=None)
@given(g=exotic_graphs())
def test_category_dict_is_the_reference_layout_on_exotic_graphs(g):
    assert kgraph_doc(g) == reference_kgraph_doc(g)


def test_bind_relation_reads_classes_in_generated_mode_and_pairs_in_explicit_mode():
    from kgraphs import bind_relation

    g = build_simplex(1)
    heads, tails = ("(0,{0,1})", "(0,{1,0})"), ("{0,1}", "{1,0}")
    # generated: the classes are pairs to saturate, which forces the sources together
    rel = bind_relation(loads(json.dumps(
        {"kind": "relation", "mode": "generated", "classes": [list(heads)]})), g)
    assert (rel.mode, rel.pairs, rel.nontrivial_classes()) == ("generated", (heads,), (heads, tails))
    # explicit: the classes taken literally, and the extra pairs merged in
    rel = bind_relation(loads(json.dumps(
        {"kind": "relation", "mode": "explicit", "classes": [list(heads)], "pairs": [list(tails)]})), g)
    assert (rel.mode, rel.pairs, rel.nontrivial_classes()) == ("explicit", (heads, tails), (heads, tails))
