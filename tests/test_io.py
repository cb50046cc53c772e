"""Loader strictness and canonical serialisation."""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphs import (
    FiniteKGraph,
    build_simplex,
    build_sphere,
    dumps,
    loads,
    model_doc,
    relation_from_pairs,
)
from kgraphs.core import Skeleton2Graph
from kgraphs.errors import ParseError
from kgraphs.surfaces import MarkedSkeleton, basic_surface


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


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_loads_raises_nothing_but_parse_error(data):
    if data.draw(st.booleans()):
        text = data.draw(st.one_of(st.text(max_size=20), JSON_VALUES.map(json.dumps)))
    else:
        doc = copy.deepcopy(data.draw(st.sampled_from(VALID_DOCS)))
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
        text = json.dumps(doc)
    try:
        loads(text)
    except ParseError:
        pass
