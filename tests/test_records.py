"""The package's value records: construction, equality, hashing, repr,
immutability, pickling and pattern matching, one parametrised test."""

import copy
import pickle

import pytest

from kgraphs import Skeleton2Graph
from kgraphs.core import Cube, Edge, Morphism, VertexSetReport, Violation
from kgraphs.homology import HomologyGroup, SNFResult
from kgraphs.io import RelationDoc
from kgraphs.quotient import CongruenceVerdict
from kgraphs.surfaces import MarkedSkeleton, SurfaceSummand, basic_surface

SKELETON = basic_surface("T").skeleton

# (record class, field names, field values, defaults of the trailing fields, repr)
RECORDS = [
    (Violation, ("rule", "witness", "detail"), ("assoc", ("a", "b", "c"), "(a b) c != a (b c)"), (),
     "Violation(rule='assoc', witness=('a', 'b', 'c'), detail='(a b) c != a (b c)')"),
    (VertexSetReport, ("predicate", "holds", "witness"), ("hereditary", False, ("v",)), ((),),
     "VertexSetReport(predicate='hereditary', holds=False, witness=('v',))"),
    (Morphism, ("d", "r", "s"), ((1, 0), "v", "w"), (),
     "Morphism(d=(1, 0), r='v', s='w')"),
    (Edge, ("r", "s"), ("v", "w"), (),
     "Edge(r='v', s='w')"),
    (Cube, ("key", "degree"), (("c", "e", "g", "a"), (1, 1)), (),
     "Cube(key=('c', 'e', 'g', 'a'), degree=(1, 1))"),
    (HomologyGroup, ("betti", "torsion"), (1, (2,)), ((),),
     "HomologyGroup(betti=1, torsion=(2,))"),
    (SNFResult, ("diagonal", "rank", "shape", "U", "V"), ((1, 2), 2, (2, 2), ((1, 0), (0, 1)), ((0, 1), (1, 0))),
     (None, None),
     "SNFResult(diagonal=(1, 2), rank=2, shape=(2, 2), U=((1, 0), (0, 1)), V=((0, 1), (1, 0)))"),
    (CongruenceVerdict, ("ok", "violated", "witness", "detail"), (False, "lift", ("a", "b"), "no lift"),
     (None, (), ""),
     "CongruenceVerdict(ok=False, violated='lift', witness=('a', 'b'), detail='no lift')"),
    (RelationDoc, ("over", "mode", "pairs", "classes"), ("S^2", "pairs", (("a", "b"),), None), (),
     "RelationDoc(over='S^2', mode='pairs', pairs=(('a', 'b'),), classes=None)"),
    (SurfaceSummand, ("tag",), ("K",), (),
     "SurfaceSummand(tag='K')"),
    (MarkedSkeleton, ("skeleton", "u", "v", "square"), (SKELETON, "u", "v", ("c", "e", "g", "a")), (),
     f"MarkedSkeleton(skeleton={SKELETON!r}, u='u', v='v', square=('c', 'e', 'g', 'a'))"),
]


def parts(record) -> tuple:
    """The field values, a skeleton (equal only to itself) by its parts."""
    return tuple(
        (v.vertices, v.blue, v.red, v.squares) if isinstance(v, Skeleton2Graph) else v
        for v in map(record.__getattribute__, type(record).__match_args__)
    )


def matched(record) -> tuple:
    """The fields a class pattern captures by position."""
    cls, n = type(record), len(type(record).__match_args__)
    match record:
        case cls(a) if n == 1:
            return (a,)
        case cls(a, b) if n == 2:
            return a, b
        case cls(a, b, c) if n == 3:
            return a, b, c
        case cls(a, b, c, d) if n == 4:
            return a, b, c, d
        case cls(a, b, c, d, e) if n == 5:
            return a, b, c, d, e
    raise AssertionError(f"{record!r} did not match by position")


@pytest.mark.parametrize("cls, fields, values, defaults, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_frozen_value_records(cls, fields, values, defaults, text):
    r = cls(*values)
    assert cls.__match_args__ == fields
    assert tuple(getattr(r, f) for f in fields) == values
    assert cls(**dict(zip(fields, values))) == r
    required = values[:len(values) - len(defaults)]
    assert tuple(getattr(cls(*required), f) for f in fields) == required + defaults
    assert not hasattr(r, "__dict__")

    # equal only to a record of the same class with equal fields
    assert r == cls(*values) and not r != cls(*values)
    assert r != values and values != r
    sub = type("Sub", (cls,), {"__slots__": ()})(*values)
    assert r != sub and sub != r
    assert repr(sub) == text.replace(cls.__name__, "Sub", 1)
    assert hash(r) == hash(values)
    assert repr(r) == text

    for f in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{f}'"):
            setattr(r, f, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{f}'"):
            delattr(r, f)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert tuple(getattr(r, f) for f in fields) == values

    copies = [pickle.loads(pickle.dumps(r, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies + [copy.copy(r), copy.deepcopy(r)]:
        assert type(c) is cls and parts(c) == parts(r)
    assert copy.copy(r) == r

    assert matched(r) == values
