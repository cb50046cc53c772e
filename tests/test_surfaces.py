"""Surface catalog, square regeneration, markings, connected sums."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphs import (
    MarkedSkeleton,
    Skeleton2Graph,
    SurfaceSummand,
    basic_surface,
    chain_complex,
    compact_surface,
    connected_sum,
    euler_characteristic,
    homology,
    regenerate_squares,
    validate_marking,
    validate_skeleton,
)
from kgraphs import surfaces
from kgraphs.errors import BadMarking, BadSurfaceSpec, KGraphError, UnknownId
from kgraphs.export import export_json
from kgraphs.io import loads
from kgraphs.surfaces import _EXPECTED_HOMOLOGY, _FROZEN_SQUARES

from helpers import (
    quadratic_validate_skeleton,
    reference_compact_surface,
    reference_connected_sum,
    time_limit,
)

TAGS = "STKP"


def hom(ms):
    return tuple((h.betti, h.torsion) for h in homology(chain_complex(ms.skeleton)))


def test_catalog_squares_regenerate_from_scratch():
    # the frozen square lists are exactly what the search reconstructs
    # from each two-coloured digraph (lexicographically least solution)
    for tag in TAGS:
        assert regenerate_squares(tag) == _FROZEN_SQUARES[tag]


def test_catalog_validates_and_has_expected_homology():
    for tag in TAGS:
        ms = basic_surface(tag)
        assert validate_skeleton(ms.skeleton) == []
        assert validate_marking(ms) == []
        assert hom(ms) == _EXPECTED_HOMOLOGY[tag]


def test_expected_homology_table_spells_out():
    # sphere, torus, Klein bottle, projective plane
    assert _EXPECTED_HOMOLOGY["S"] == ((1, ()), (0, ()), (1, ()))
    assert _EXPECTED_HOMOLOGY["T"] == ((1, ()), (2, ()), (1, ()))
    assert _EXPECTED_HOMOLOGY["K"] == ((1, ()), (1, (2,)), (0, ()))
    assert _EXPECTED_HOMOLOGY["P"] == ((1, ()), (0, (2,)), (0, ()))


def test_euler_characteristics():
    want = {"S": 2, "T": 0, "K": 0, "P": 1}
    for tag in TAGS:
        assert euler_characteristic(chain_complex(basic_surface(tag).skeleton)) == want[tag]


def test_summand_tag_checked():
    with pytest.raises(ValueError):
        SurfaceSummand("Q")
    with pytest.raises(BadSurfaceSpec, match="unknown surface tag 'Q'"):
        SurfaceSummand("Q")
    with pytest.raises(BadSurfaceSpec):
        SurfaceSummand(tag="Q")
    with pytest.raises((ValueError, UnknownId)):
        basic_surface("Q")


def test_skeleton_rebuilt_from_its_own_fields_is_equal():
    # blue and red hold Edge records, which the constructor takes back
    for tag in TAGS:
        sk = basic_surface(tag).skeleton
        again = Skeleton2Graph(sk.vertices, sk.blue, sk.red, sk.squares)
        assert (again.vertices, again.blue, again.red, again.squares) == \
            (sk.vertices, sk.blue, sk.red, sk.squares)
        assert export_json(again) == export_json(sk)


def test_double_torus():
    ms = compact_surface("T,T")
    sk = ms.skeleton
    assert len(sk.vertices) == 6
    assert len(sk.blue) + len(sk.red) == 16
    assert len(sk.squares) == 8
    assert euler_characteristic(chain_complex(sk)) == -2
    assert hom(ms) == ((1, ()), (4, ()), (1, ()))


def test_connected_sum_euler_additivity():
    for ta in TAGS:
        for tb in TAGS:
            sa, sb = basic_surface(ta), basic_surface(tb)
            chi = euler_characteristic(chain_complex(connected_sum(sa, sb).skeleton))
            ca = euler_characteristic(chain_complex(sa.skeleton))
            cb = euler_characteristic(chain_complex(sb.skeleton))
            assert chi == ca + cb - 2


def test_sphere_is_the_identity_summand():
    # S # X has the homology of X
    for tag in TAGS:
        assert hom(connected_sum(basic_surface("S"), basic_surface(tag))) == \
            _EXPECTED_HOMOLOGY[tag]


def test_connected_sum_is_marked_and_iterable():
    ms = compact_surface(["T", SurfaceSummand("P")])
    assert validate_marking(ms) == []
    assert hom(ms) == hom(compact_surface("T,P"))


def test_nonorientable_classification_examples():
    # T # P  ~  P # P # P: rank 2 plus a single 2-torsion class, no top class
    assert hom(compact_surface("T,P")) == ((1, ()), (2, (2,)), (0, ()))
    # K # T  ~  K # K # ... stays non-orientable
    b0, b1, b2 = hom(compact_surface("T,K"))
    assert b2 == (0, ())
    assert b1 == (3, (2,))


def test_bad_marking_rejected():
    ms = basic_surface("T")
    broken = MarkedSkeleton(ms.skeleton, ms.v, ms.u, ms.square)  # swapped roles
    assert validate_marking(broken) != []
    with pytest.raises(BadMarking) as exc:
        connected_sum(broken, basic_surface("T"))
    assert "left summand" in str(exc.value)
    with pytest.raises(BadMarking) as exc2:
        connected_sum(basic_surface("T"), broken)
    assert "right summand" in str(exc2.value)


def test_empty_spec_rejected():
    with pytest.raises(ValueError):
        compact_surface("")
    with pytest.raises(KGraphError):
        compact_surface(",,")


def test_priming_keeps_ids_apart():
    ms = compact_surface("T,T,T")
    sk = ms.skeleton
    # 8 blue + 8 red + 8 more per extra summand, all distinct by priming
    assert len(sk.blue) == 12 and len(sk.red) == 12
    assert any(e.endswith("'") for e in sk.blue)



def test_basic_surface_returns_a_fresh_skeleton():
    first = basic_surface("T")
    first.skeleton.squares = ()
    first.skeleton.blue.clear()
    again = basic_surface("T")
    assert again.skeleton is not first.skeleton
    assert again.skeleton.squares == _FROZEN_SQUARES["T"]
    assert validate_skeleton(again.skeleton) == []


def test_indexed_validator_matches_quadratic_oracle_on_valid_skeletons():
    rng = random.Random(10)
    models = [basic_surface(tag).skeleton for tag in TAGS]
    models.append(compact_surface([rng.choice(TAGS) for _ in range(10)]).skeleton)
    for sk in models:
        assert validate_skeleton(sk) == quadratic_validate_skeleton(sk) == []


@st.composite
def broken_skeletons(draw):
    """A small connected sum with squares dropped, duplicated or rewired,
    or with an edge added that no square uses (possibly off the vertices)."""
    sk = compact_surface(draw(st.lists(st.sampled_from(TAGS), min_size=1, max_size=4))).skeleton
    vertices = list(sk.vertices)
    blue = {e: (rec.r, rec.s) for e, rec in sk.blue.items()}
    red = {e: (rec.r, rec.s) for e, rec in sk.red.items()}
    squares = list(sk.squares)
    edges = sorted(blue) + sorted(red)
    ops = ("drop", "duplicate", "rewire", "dangle")
    for op in draw(st.lists(st.sampled_from(ops), min_size=1, max_size=3)):
        if op == "dangle" or not squares:
            ends = st.sampled_from(vertices + ["nowhere"])
            table = draw(st.sampled_from((blue, red)))
            table[f"z{len(blue) + len(red)}"] = (draw(ends), draw(ends))
            continue
        i = draw(st.integers(0, len(squares) - 1))
        if op == "drop":
            squares.pop(i)
        elif op == "duplicate":
            squares.append(squares[i])
        else:
            sq = list(squares[i])
            sq[draw(st.integers(0, 3))] = draw(st.sampled_from(edges))
            squares[i] = tuple(sq)
    return Skeleton2Graph(vertices, blue, red, squares)


@settings(max_examples=150, deadline=None)
@given(broken_skeletons())
def test_indexed_validator_matches_quadratic_oracle_on_broken_skeletons(sk):
    # same violations in the same order, so CLI and error messages are unchanged
    assert validate_skeleton(sk) == quadratic_validate_skeleton(sk)


def test_large_genus_sums_validate_and_classify():
    g = 200
    torus = compact_surface(["T"] * g).skeleton
    assert validate_skeleton(torus) == []
    cx = chain_complex(torus)
    assert euler_characteristic(cx) == 2 - 2 * g
    assert [(h.betti, h.torsion) for h in homology(cx)] == [(1, ()), (2 * g, ()), (1, ())]

    rng = random.Random(2013)
    tags = [rng.choice(TAGS) for _ in range(200)]
    mixed = compact_surface(tags).skeleton
    assert validate_skeleton(mixed) == []
    chi = {t: euler_characteristic(chain_complex(basic_surface(t).skeleton)) for t in TAGS}
    assert euler_characteristic(chain_complex(mixed)) == (
        sum(chi[t] for t in tags) - 2 * (len(tags) - 1)
    )


def perfbench_tags(seed, n, stream):
    """The catalog tags `perfbench/workloads.py` draws (`draw_tags`)."""
    rng = random.Random(f"{stream}:{n}:{seed}")
    return [rng.choice("STKP") for _ in range(n)]


def outcome(fn, *args):
    """The exported JSON of fn(*args), or the type and message it raises."""
    try:
        return export_json(fn(*args))
    except KGraphError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(TAGS), min_size=1, max_size=30))
def test_splice_matches_the_reference_fold(tags):
    assert export_json(compact_surface(tags)) == export_json(reference_compact_surface(tags))


@pytest.mark.parametrize("seed", [1, 9001])
def test_splice_matches_the_reference_fold_on_benchmark_specs(seed):
    for n in (10, 40, 120):
        tags = perfbench_tags(seed, n, "surface")
        assert export_json(compact_surface(tags)) == export_json(reference_compact_surface(tags))
    # the cli workload sums its 40-summand document with itself
    tags = perfbench_tags(seed, 40, "cli")
    doc = export_json(compact_surface(tags))
    assert doc == export_json(reference_compact_surface(tags))
    left, right = loads(doc), loads(doc)
    assert outcome(connected_sum, left, right) == outcome(reference_connected_sum, left, right)


def test_two_summand_sums_of_sums_match_the_reference():
    # the right summand's primed ids clash with ids the left one primed
    docs = [export_json(compact_surface(spec)) for spec in ("T", "T,T", "T,T,T", "K,P,S", "S,P")]
    for a in docs:
        for b in docs:
            left, right = loads(a), loads(b)
            want = outcome(reference_connected_sum, left, right)
            assert outcome(connected_sum, left, right) == want
            assert not want.startswith(("BadMarking", "InvalidModel"))


def rebuilt(ms, blue=(), squares=()):
    """ms with some blue edges given new (range, source) and some squares
    replaced, its marking kept."""
    sk = ms.skeleton
    return MarkedSkeleton(
        Skeleton2Graph(
            sk.vertices,
            {**{e: (rec.r, rec.s) for e, rec in sk.blue.items()}, **dict(blue)},
            {e: (rec.r, rec.s) for e, rec in sk.red.items()},
            [dict(squares).get(sq, sq) for sq in sk.squares],
        ),
        ms.u,
        ms.v,
        ms.square,
    )


def test_broken_two_summand_sums_fail_as_the_reference_does():
    torus = basic_surface("T")
    swapped = MarkedSkeleton(torus.skeleton, torus.v, torus.u, torus.square)
    doc = loads(export_json(compact_surface("T,P")))
    missing = MarkedSkeleton(
        Skeleton2Graph(
            doc.skeleton.vertices,
            {e: (rec.r, rec.s) for e, rec in doc.skeleton.blue.items()},
            {e: (rec.r, rec.s) for e, rec in doc.skeleton.red.items()},
            [sq for sq in doc.skeleton.squares if sq != doc.square][1:] + [doc.square],
        ),
        doc.u,
        doc.v,
        doc.square,
    )
    off_vertex = rebuilt(torus, blue={"b": ("nowhere", "v")})
    unknown_edge = rebuilt(torus, squares={("d", "f", "h", "b"): ("zz", "f", "h", "b")})
    # the marked vertex u merges into the left summand's, but not in a square
    names_u = rebuilt(torus, squares={("d", "f", "h", "b"): ("u", "f", "h", "b")})
    cases = [(swapped, torus), (torus, swapped), (swapped, swapped), (missing, torus),
             (torus, missing), (off_vertex, torus), (torus, off_vertex),
             (unknown_edge, torus), (torus, unknown_edge), (torus, names_u)]
    for a, b in cases:
        want = outcome(reference_connected_sum, a, b)
        assert want.startswith(("BadMarking: left summand", "BadMarking: right summand",
                                "InvalidModel: connected sum fails validation"))
        assert outcome(connected_sum, a, b) == want


def test_compact_surface_validates_once(monkeypatch):
    for tag in TAGS:
        basic_surface(tag)  # certify the catalog first
    calls = {"skeleton": 0, "marking": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(surfaces, "validate_skeleton", counted("skeleton", validate_skeleton))
    monkeypatch.setattr(surfaces, "validate_marking", counted("marking", validate_marking))
    for tags in (["K"], ["T", "P", "S", "K", "T"]):
        calls.update(skeleton=0, marking=0)
        compact_surface(tags)
        assert calls == {"skeleton": 1, "marking": len(tags)}
    calls.update(skeleton=0, marking=0)
    connected_sum(basic_surface("T"), basic_surface("P"))
    assert calls == {"skeleton": 1, "marking": 2}


def renamed_document(ms, new):
    """The document of ms with every id x renamed new[x], loaded back."""
    sk = ms.skeleton
    edges = lambda table: {new[e]: (new[rec.r], new[rec.s]) for e, rec in table.items()}
    out = MarkedSkeleton(
        Skeleton2Graph(
            [new[v] for v in sk.vertices],
            edges(sk.blue),
            edges(sk.red),
            [tuple(map(new.get, sq)) for sq in sk.squares],
        ),
        new[ms.u],
        new[ms.v],
        tuple(map(new.get, ms.square)),
    )
    return loads(export_json(out))


def primed_document(tag, rng):
    """The catalog surface `tag` with each id given 0, 2, 3 or 5 primes."""
    ms = basic_surface(tag)
    ids = (*ms.skeleton.vertices, *ms.skeleton.blue, *ms.skeleton.red)
    return renamed_document(ms, {x: x + "'" * rng.choice((0, 2, 3, 5)) for x in ids})


@pytest.mark.parametrize("seed", range(12))
def test_splice_of_loaded_documents_with_prime_gaps_is_the_left_fold(seed):
    # ids such as a and a'' without a' make the search skip over runs of
    # taken names and stop in the gaps
    rng = random.Random(seed)
    docs = [primed_document(rng.choice(TAGS), rng) for _ in range(rng.randint(3, 6))]
    docs += [loads(export_json(basic_surface("T"))) for _ in range(2)]
    rng.shuffle(docs)
    want = outcome(functools.reduce, reference_connected_sum, docs)
    assert not want.startswith(("BadMarking", "InvalidModel"))
    assert outcome(surfaces._splice, docs) == want


def test_splice_fills_a_gap_in_the_primes():
    torus = basic_surface("T")
    sk = torus.skeleton
    doubled = renamed_document(torus, {x: x + "''" for x in (*sk.vertices, *sk.blue, *sk.red)})
    plain = export_json(torus)
    docs = [loads(plain), doubled, loads(plain), loads(plain)]
    out = surfaces._splice(docs)
    # a; then a'' as it is; then a' in the gap; then a''' past the run a, a', a''
    assert {"a", "a'", "a''", "a'''"} <= set(out.skeleton.blue)
    assert export_json(out) == export_json(functools.reduce(reference_connected_sum, docs))


def test_compact_surface_builds_one_catalog_piece_per_tag(monkeypatch):
    tags = ["T", "P", "T", SurfaceSummand("K"), "P", "T", "K"]
    want = export_json(reference_compact_surface(tags))
    built = []

    def counted(tag):
        built.append(tag)
        return basic_surface(tag)

    monkeypatch.setattr(surfaces, "basic_surface", counted)
    assert export_json(compact_surface(tags)) == want
    assert built == ["T", "P", "K"]
    built.clear()
    compact_surface("S,S,S,S")
    assert built == ["S"]
    # the first bad tag in the spec still fails first
    built.clear()
    with pytest.raises(BadSurfaceSpec, match="'Q'"):
        compact_surface(["T", "Q", "T", "R"])
    assert built == ["T", "Q"]


def test_thousand_tori_sum_and_homology_in_time():
    with time_limit(2):
        ms = compact_surface(["T"] * 1000)
        groups = homology(chain_complex(ms.skeleton))
    assert [(h.betti, h.torsion) for h in groups] == [(1, ()), (2000, ()), (1, ())]
    assert validate_marking(ms) == []


def test_validate_marking_reports_missing_vertices_and_square_and_repeated_corners():
    ms = basic_surface("T")
    assert validate_marking(MarkedSkeleton(ms.skeleton, "p", "q", ("a", "b", "c", "d"))) == [
        "marked vertex u = 'p' is not a vertex",
        "marked vertex v = 'q' is not a vertex",
        "marked square ('a', 'b', 'c', 'd') is not a square of the skeleton",
    ]
    # f g = g2 f2 with both middle corners at x
    sk = Skeleton2Graph(["u", "v", "x"], {"f": ("u", "x"), "f2": ("x", "v")},
                        {"g": ("x", "v"), "g2": ("u", "x")}, [("f", "g", "g2", "f2")])
    assert validate_marking(MarkedSkeleton(sk, "u", "v", ("f", "g", "g2", "f2"))) == [
        "the marked square's corners ('u', 'x', 'x', 'v') are not distinct",
    ]
