"""Category model, validators, cubes/faces, factorisation, vertex predicates."""

import ast
import json
import random
import re
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgraphs.core import (
    Cube,
    FiniteKGraph,
    _find_violations,
    _numbering,
    _splits,
    Skeleton2Graph,
    cartesian_product,
    cubes,
    disjoint_union,
    face,
    induced_subgraph,
    is_exhaustive,
    mce,
    mce_set,
    validate_kgraph,
    validate_skeleton,
    vertex_predicate,
)
import kgraphs
from kgraphs.errors import (
    BadArgument,
    BadDirection,
    BadSplit,
    DimensionTooLarge,
    KGraphError,
    NotComposable,
    UnknownId,
)
from kgraphs.io import loads
from kgraphs.export import export_json
from kgraphs.homology import ChainComplex, SparseIntMatrix, chain_complex, homology, smith_normal_form
from kgraphs.quotient import check_congruence, glue_on_common, quotient, relation_from_pairs
from kgraphs.simplex import (
    basis_point,
    build_simplex,
    build_sphere,
    build_wedge,
    count_placings,
    embed,
    enumerate_placings,
    height,
    is_placing,
    leq,
    placing_id,
    sphere_pole,
    tail_factor,
)
from kgraphs.surfaces import basic_surface, compact_surface

from helpers import (
    ReferenceKGraph,
    cube_view_digests,
    deg_total,
    factor_index,
    grid_category,
    mutated_category,
    path_category,
    random_dag,
    random_grid_category,
    parts,
    random_path_category,
    reference_cartesian_product,
    reference_check_congruence,
    reference_disjoint_union,
    reference_find_violations,
    reference_generated_classes,
    reference_quotient,
    reference_view,
    swapped_composites,
    twin_edges,
    with_lone_morphism,
)


def tiny():
    # v0 --e0--> v1 --e1--> v2, plus the composite path
    return path_category(3, [(0, 1), (1, 2)])


def test_path_category_is_valid():
    assert validate_kgraph(tiny()) == []


def test_compose_and_errors():
    g = tiny()
    assert g.compose("e1", "e0") == "e0.e1"
    with pytest.raises(NotComposable):
        g.compose("e0", "e1")  # wrong way round: s(e0)=v0 != r(e1)=v2
    with pytest.raises(UnknownId):
        g.d("nope")


def test_factorise_head_tail():
    g = tiny()
    head, tail = g.factorise("e0.e1", (1,))
    # the split length counts the head (range end) portion
    assert (head, tail) == ("e1", "e0")
    assert g.factorise("e0.e1", (0,)) == ("v2", "e0.e1")
    assert g.factorise("e0.e1", (2,)) == ("e0.e1", "v0")
    with pytest.raises(BadSplit):
        g.factorise("e0.e1", (3,))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_path_categories_validate_and_refactor(seed):
    rng = random.Random(seed)
    g = random_path_category(rng)
    assert validate_kgraph(g) == []
    # every factorisation recomposes to the original morphism
    for m in g.morphism_ids():
        d = g.d(m)
        for p in range(d[0] + 1):
            head, tail = g.factorise(m, (p,))
            if head in g.vertices:
                assert tail == m
            elif tail in g.vertices:
                assert head == m
            else:
                assert g.compose(head, tail) == m


def test_validator_catches_rewired_composite():
    g = tiny()
    bad = dict(g.compose_table())
    bad[("e1", "e0")] = "e1"  # wrong degree and endpoints
    broken = FiniteKGraph(
        rank=1,
        vertices=g.vertices,
        morphisms={m: (g.d(m), g.r(m), g.s(m)) for m in g.morphism_ids()
                   if m not in g.vertices},
        compose=bad,
    )
    rules = {v.rule for v in validate_kgraph(broken)}
    assert "compose-degree" in rules


def test_validator_catches_missing_entry():
    g = tiny()
    table = dict(g.compose_table())
    del table[("e1", "e0")]
    broken = FiniteKGraph(
        rank=1,
        vertices=g.vertices,
        morphisms={m: (g.d(m), g.r(m), g.s(m)) for m in g.morphism_ids()
                   if m not in g.vertices},
        compose=table,
    )
    rules = {v.rule for v in validate_kgraph(broken)}
    assert "compose-total" in rules


def test_validation_is_found_once_and_returned_fresh():
    g = tiny()
    table = dict(g.compose_table())
    del table[("e1", "e0")]

    def broken():
        return FiniteKGraph(
            rank=1,
            vertices=g.vertices,
            morphisms={m: (g.d(m), g.r(m), g.s(m)) for m in g.nonidentity_ids()},
            compose=table,
        )

    b = broken()
    first = validate_kgraph(b)
    assert first == validate_kgraph(broken()) != []
    first.clear()
    first.append("not a violation")
    assert validate_kgraph(b) == validate_kgraph(broken())
    assert validate_kgraph(b) is not validate_kgraph(b)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10_000), faults=st.integers(0, 4))
@example(seed=38, faults=4)  # two factor-unique clashes whose witnesses sort otherwise
def test_validation_matches_the_reference_on_mutated_categories(seed, faults):
    rng = random.Random(seed)
    base = rng.choice([random_path_category, random_grid_category])(rng, max_morphisms=30)
    g = mutated_category(base, rng.choice, faults)
    assert validate_kgraph(g) == reference_find_violations(g)


def assert_incidence_agrees(g: FiniteKGraph) -> None:
    ref = reference_view(g)
    for v in g.vertices:
        assert g.morphisms_with_range(v) == ref.morphisms_with_range(v)
        assert g.morphisms_with_source(v) == ref.morphisms_with_source(v)


def test_counted_validation_matches_the_reference_on_mutated_builds():
    # mutated_category's faults reach the full scans through an earlier rule
    # group; the swapped composites (on each build times two parallel edges,
    # which is not thin) and the lone morphism break only associativity or
    # factor-exists, so the triple walk and the factor count decide their lists
    kept: dict[str, list] = {"assoc": [], "factor-exists": []}
    for base in (build_simplex(2), build_sphere(2), build_simplex(3), build_wedge(2, 3)):
        twinned = cartesian_product(base, twin_edges())
        for seed in range(6):
            rng = random.Random(seed)
            swapped = swapped_composites(twinned, rng.choice)
            for g in (mutated_category(base, rng.choice, rng.randint(1, 3)), swapped,
                      with_lone_morphism(base, rng.choice),
                      with_lone_morphism(swapped, rng.choice)):
                assert_incidence_agrees(g)
                want = reference_find_violations(g)
                assert validate_kgraph(g) == want
                assert_incidence_agrees(g)
                rules = {v.rule for v in want}
                if len(rules) == 1 and rules <= set(kept):
                    kept[rules.pop()].append((g, want))
    assert all(len(graphs) >= 6 for graphs in kept.values())
    # the walk covers every triple: some first witness has a middle of degree 2
    assert any(deg_total(g.d(want[0].witness[1])) >= 2 for g, want in kept["assoc"])


def test_clean_validation_leaves_the_factorisation_index_faces_read():
    for g in (tiny(), build_sphere(2), build_wedge(2, 2), grid_category(tiny(), tiny())):
        fresh = FiniteKGraph(g.rank, *parts(g))
        assert validate_kgraph(fresh) == []
        index = factor_index(fresh, build=False)
        assert index is not None and index == factor_index(g)
        cx, reference = chain_complex(fresh), chain_complex(g)
        assert cx.bases == reference.bases
        assert [m.entries for m in cx.boundaries] == [m.entries for m in reference.boundaries]
        assert factor_index(fresh, build=False) is index


def test_a_certified_graph_builds_its_index_on_first_use_for_the_same_complex():
    simplex = build_simplex(2)
    rim = induced_subgraph(simplex, [v for v in simplex.vertices if v != "0"])
    phi = {m: m for m in rim.morphism_ids()}
    glued = glue_on_common(rim, simplex, simplex, phi, dict(phi))
    for g in (build_simplex(2), build_simplex(3), build_sphere(2), build_sphere(3), build_wedge(2, 3), glued):
        assert g._violations == () and factor_index(g, build=False) is None
        fresh = FiniteKGraph(g.rank, *parts(g))
        assert validate_kgraph(fresh) == []
        cx, reference = chain_complex(g), chain_complex(fresh)
        assert cx.bases == reference.bases
        assert [m.entries for m in cx.boundaries] == [m.entries for m in reference.boundaries]
        assert factor_index(g, build=False) == factor_index(fresh, build=False)


def parallel_path_category(steps: int) -> FiniteKGraph:
    """The free category on a path of `steps` steps with two parallel edges
    per step.  A path from vi of length L is "p{i}:" plus L bits naming the
    edge taken at each step; composing concatenates the bits."""
    morphisms = {}
    leaving: dict[str, list[str]] = {}
    for i in range(steps):
        for length in range(1, steps - i + 1):
            for bits in product("01", repeat=length):
                m = f"p{i}:{''.join(bits)}"
                morphisms[m] = ((length,), f"v{i + length}", f"v{i}")
                leaving.setdefault(f"v{i}", []).append(m)
    compose = {}
    for q, (_, end, start) in morphisms.items():  # q runs first
        for p in leaving.get(end, ()):
            compose[(p, q)] = f"p{start[1:]}:{q.split(':')[1]}{p.split(':')[1]}"
    return FiniteKGraph(1, [f"v{i}" for i in range(steps + 1)], morphisms, compose)


def brute_force_assoc(g: FiniteKGraph) -> list[tuple]:
    """(witness, detail) of every associativity failure, by composing each
    composable triple both ways straight from the table."""
    table = g.compose_table()
    after: dict[str, list[str]] = {}  # vertex -> morphisms with that range
    for m in g.nonidentity_ids():
        after.setdefault(g.r(m), []).append(m)
    out = []
    for a, b in sorted(table):
        for c in after.get(g.s(b), ()):
            if (b, c) not in table:
                continue
            left = table.get((table[(a, b)], c))
            right = table.get((a, table[(b, c)]))
            if left is not None and right is not None and left != right:
                out.append(((a, b, c), f"(a b) c = {left!r} but a (b c) = {right!r}"))
    return out


def test_associativity_is_checked_on_every_triple():
    g = parallel_path_category(11)
    assert len(g.nonidentity_ids()) == 8166
    table = g.compose_table()
    triples = sum(len([c for c in g.morphisms_with_range(g.s(b)) if not g.is_identity(c)])
                  for (_, b) in table)
    assert triples == 245_640  # above the 200k budget that used to be sampled
    # swap one composite for its parallel twin: same endpoints and degree
    pair = ("p5:010", "p1:0110")
    assert table[pair] == "p1:0110010"
    table[pair] = "p1:1110010"
    broken = FiniteKGraph(
        1, g.vertices, {m: (g.d(m), g.r(m), g.s(m)) for m in g.nonidentity_ids()}, table
    )
    found = [(v.witness, v.detail) for v in validate_kgraph(broken) if v.rule == "assoc"]
    assert found == brute_force_assoc(broken)
    assert len(found) > 0


def _assoc_walks(monkeypatch) -> list:
    """Patch the triple walk to record each call it gets; returns the record."""
    walks = []
    walk = kgraphs.core._assoc

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(kgraphs.core, "_assoc", counted)
    return walks


def test_thin_graphs_validate_without_walking_a_triple(monkeypatch):
    # no two morphisms of a builder output share (range, source), so both
    # bracketings of a triple are the one morphism between its ends
    def refuse(*args):
        raise AssertionError("a thin graph walked its triples")

    two_points = FiniteKGraph(0, ["0", "1"], {}, {})
    graphs = (build_simplex(4), build_sphere(4), build_wedge(3, 8),
              cartesian_product(two_points, build_simplex(3)))
    monkeypatch.setattr(kgraphs.core, "_assoc", refuse)
    for g in graphs:
        assert validate_kgraph(FiniteKGraph(g.rank, *parts(g))) == []
        assert validate_kgraph(loads(export_json(g))) == []


def test_graphs_with_parallel_morphisms_walk_every_triple_once(monkeypatch):
    walks = _assoc_walks(monkeypatch)
    for g in (parallel_path_category(3), cartesian_product(build_simplex(2), twin_edges()),
              cartesian_product(parallel_path_category(3), build_simplex(2))):
        fresh = FiniteKGraph(g.rank, *parts(g))
        walks.clear()
        assert validate_kgraph(fresh) == []
        assert len(walks) == 1


def test_a_thin_graph_with_a_composite_of_wrong_ends_is_walked(monkeypatch):
    # the composite keeps its degree, so its ends are its only fault
    g = build_simplex(2)
    vertices, mor, table = parts(g)
    walks = _assoc_walks(monkeypatch)
    for pair, c in sorted(table.items()):
        twins = [m for m in g.nonidentity_ids()
                 if g.d(m) == g.d(c) and (g.r(m), g.s(m)) != (g.r(c), g.s(c))]
        broken = FiniteKGraph(g.rank, vertices, mor, {**table, pair: twins[0]})
        walks.clear()
        want = reference_find_violations(broken)
        assert validate_kgraph(broken) == want
        assert len(walks) == 1 and "compose-endpoints" in {v.rule for v in want}


def test_degree_zero_morphisms_rejected():
    with pytest.raises(ValueError):
        FiniteKGraph(rank=1, vertices=["v"], morphisms={"m": ((0,), "v", "v")},
                     compose={})


def test_identity_composition_is_implicit():
    with pytest.raises(ValueError):
        FiniteKGraph(rank=1, vertices=["v"],
                     morphisms={"m": ((1,), "v", "v")},
                     compose={("v", "m"): "m"})


def _quotient_over_another_graph():
    rel = relation_from_pairs(build_simplex(1), [], "explicit")
    quotient(build_simplex(1), rel)


def _glue_into_chain(common, phi):
    chain = path_category(3, [(0, 1), (1, 2)])
    glue_on_common(common, chain, chain, phi, dict(phi))


def _glue_across_a_square():
    # e0.e1 and e2.e3 are parallel paths v0 -> v3, so degrees and endpoints hold
    square = path_category(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    phi = {"v0": "v0", "v1": "v1", "v2": "v3", "e0": "e0", "e1": "e1", "e0.e1": "e2.e3"}
    glue_on_common(tiny(), square, square, phi, dict(phi))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FiniteKGraph(-1, [], {}, {}), "rank must be >= 0"),
        (lambda: FiniteKGraph(1, ["v", "v"], {}, {}), "duplicate vertex ids"),
        (lambda: FiniteKGraph(1, ["v"], {"v": ((1,), "v", "v")}, {}),
         "morphism id 'v' collides with a vertex"),
        (lambda: FiniteKGraph(1, ["v"], {"m": ((0,), "v", "v")}, {}),
         "'m' has degree zero; identities are implicit"),
        (lambda: FiniteKGraph(1, ["v"], {"m": ((1,), "v", "v")}, {("v", "m"): "m"}),
         "identity composition [v, m] must be omitted"),
        (lambda: Skeleton2Graph(["v"], {"v": ("v", "v")}, {}, []),
         "vertex and edge ids must be pairwise distinct"),
        (lambda: Skeleton2Graph(["v"], {}, {}, [("a", "b", "c")]),
         "square ('a', 'b', 'c') is not a quadruple"),
        (lambda: build_wedge(1, 0), "a wedge needs n >= 1 spheres"),
        (lambda: sphere_pole(1, 2), "copy must be 0 or 1"),
        (_quotient_over_another_graph, "relation was built over a different graph"),
        # the mode is refused before the (foreign) pairs are looked at
        (lambda: relation_from_pairs(build_simplex(1), [("ghost", "0")], "closed"),
         "unknown relation mode 'closed'"),
        (lambda: _glue_into_chain(path_category(2, []), {"v0": "v0"}),
         "gluing map on side 'left' misses morphism 'v1'"),
        (lambda: _glue_into_chain(path_category(2, [(0, 1)]), {"v0": "v0", "v1": "v1", "e0": "v2"}),
         "map on side 'left' changes the degree of 'e0'"),
        (lambda: _glue_into_chain(path_category(2, [(0, 1)]), {"v0": "v0", "v1": "v2", "e0": "e0"}),
         "map on side 'left' does not respect endpoints at 'e0'"),
        (_glue_across_a_square, "map on side 'left' is not functorial at ('e1', 'e0')"),
        (lambda: face(tiny(), cubes(tiny(), 1)[0], 1, 2), "side must be 0 or 1"),
        (lambda: mce_set(tiny(), []), "mce_set needs a non-empty set of morphisms"),
        (lambda: vertex_predicate(tiny(), [], "closed"), "unknown predicate kind 'closed'"),
        (lambda: tail_factor((0, 0), (2,)), "z must be a 0-1 vector of length 1"),
        (lambda: SparseIntMatrix.from_dense([[1, 2], [3]]), "ragged matrix"),
        (lambda: ChainComplex([["p"]], []), "need one boundary matrix per dimension (the 0th empty)"),
        (lambda: ChainComplex([["p"], ["e"]], [SparseIntMatrix((0, 1)), SparseIntMatrix((2, 1))]),
         "boundary 1 has shape (2, 1), expected (1, 1)"),
        # each map alone is fine, but the boundary of the boundary of s is p
        (lambda: ChainComplex([["p"], ["e"], ["s"]], [SparseIntMatrix((0, 1))]
                              + [SparseIntMatrix.from_dense([[1]])] * 2),
         "boundary 1 composed with boundary 2 is not zero"),
        (lambda: SparseIntMatrix((2, 2), {(5, 5): 1}), "entry (5, 5) lies outside shape (2, 2)"),
        (lambda: SparseIntMatrix((-1, 2)), "shape (-1, 2) has a negative side"),
        (lambda: smith_normal_form([[1.5, 2]]), "matrix shapes and entries must be integers, not 1.5"),
        (lambda: SparseIntMatrix((2, 2), {(0, 0): "x"}),
         "matrix shapes and entries must be integers, not 'x'"),
        # refused before any degree is built: only ranks past sys.maxsize
        (lambda: FiniteKGraph(2**63, ["v"], {}, {}), "rank = 9223372036854775808 is too large"),
        (lambda: FiniteKGraph(2**64, ["v"], {}, {}), "rank = 18446744073709551616 is too large"),
        (lambda: SparseIntMatrix((2,)), "shape (2,) is not a pair of integers"),
        (lambda: SparseIntMatrix((2, 2), {(0,): 1}), "entry (0,) is not a pair of integers"),
        (lambda: SparseIntMatrix((2, 2), {(0, 0, 0): 1}),
         "entry (0, 0, 0) is not a pair of integers"),
        (lambda: smith_normal_form(5), "a dense matrix must be a sequence of rows"),
        (lambda: smith_normal_form([1, 2]), "a dense matrix must be a sequence of rows"),
        (lambda: FiniteKGraph(1, ["v"], {"e": ((1,), "v")}, {}),
         "record of 'e' is not (degree, range, source)"),
        (lambda: FiniteKGraph(1, ["v"], {"e": (1, "v", "v")}, {}),
         "record of 'e' is not (degree, range, source)"),
        (lambda: FiniteKGraph(1, ["v"], {}, {"x": "y"}), "compose key 'x' is not a pair of ids"),
        (lambda: FiniteKGraph(1, ["v"], 5, {}), "morphisms and compose must be mappings"),
        (lambda: FiniteKGraph("a", ["v"], {}, {}), "rank 'a' is not an integer"),
        (lambda: build_simplex(1).factorise("(0,{1,0})", "x"),
         "split 'x' is not a sequence of integers"),
        (lambda: relation_from_pairs(build_simplex(1), [("0",)]),
         "pairs must be (a, b) pairs of morphism ids"),
        (lambda: SparseIntMatrix((2, 2), [(0, 0, 1)]), "entries must map (row, col) pairs to integers"),
        (lambda: SparseIntMatrix((2, 2), 5), "entries must map (row, col) pairs to integers"),
        (lambda: homology(5), "homology needs a ChainComplex, not int"),
        (lambda: build_simplex(1).by_degree("x"), "degree 'x' is not a sequence of integers"),
        (lambda: cubes(build_simplex(1), "1"), "dimension '1' is not an integer"),
        (lambda: face(build_simplex(1), cubes(build_simplex(1), 1)[0], "x", 0),
         "direction 'x' is not an integer"),
        # a value that int() would change is refused, not truncated
        (lambda: FiniteKGraph(1.9, ["v"], {}, {}), "rank 1.9 is not an integer"),
        (lambda: FiniteKGraph(float("inf"), ["v"], {}, {}), "rank inf is not an integer"),
        (lambda: FiniteKGraph(1, ["v"], {"m": ((1.5,), "v", "v")}, {}),
         "record of 'm' is not (degree, range, source)"),
        (lambda: FiniteKGraph(1, ["v"], {"m": ((float("inf"),), "v", "v")}, {}),
         "record of 'm' is not (degree, range, source)"),
        (lambda: FiniteKGraph(1, None, {}, {}), "vertices must be an iterable of ids"),
        (lambda: Skeleton2Graph(None, {}, {}, []), "vertices must be an iterable of ids"),
        (lambda: Skeleton2Graph(["v"], 5, {}, []), "blue and red must be mappings"),
        (lambda: Skeleton2Graph(["v"], {}, 5, []), "blue and red must be mappings"),
        (lambda: Skeleton2Graph(["v"], {"e": "v"}, {}, []), "record of 'e' is not (range, source)"),
        (lambda: Skeleton2Graph(["v"], {}, {"e": None}, []), "record of 'e' is not (range, source)"),
        (lambda: Skeleton2Graph(["v"], {}, {}, [5]), "square 5 is not a quadruple"),
        (lambda: Skeleton2Graph(["v"], {}, {}, None), "squares must be an iterable of quadruples"),
        # a degree outside N^k is refused in the loader's words
        (lambda: FiniteKGraph(1, ["v"], {"m": ((-1,), "v", "v")}, {}),
         "degree of 'm' must be a list of non-negative integers"),
        # edge ids equal after str() are one id; a string is not a (range, source) pair
        (lambda: Skeleton2Graph(["v"], {1: ("v", "v"), "1": ("v", "v")}, {}, []),
         "duplicate edge id '1'"),
        (lambda: Skeleton2Graph(["v"], {"e": "vw"}, {}, []), "record of 'e' is not (range, source)"),
        # degrees outside N^k can add up to zero in a product, refused in the checker's words
        (lambda: cartesian_product(FiniteKGraph(1, ["v"], {"m": ((), "v", "v")}, {}),
                                   FiniteKGraph(1, ["w"], {"n": ((0, 0), "w", "w")}, {})),
         "'(m,n)' has degree zero; identities are implicit"),
    ],
)
def test_bad_arguments_raise_a_kgraph_error_that_is_a_value_error(call, message):
    with pytest.raises(BadArgument, match=f"^{re.escape(message)}$"):
        call()
    assert issubclass(BadArgument, KGraphError) and issubclass(BadArgument, ValueError)
    assert kgraphs.BadArgument is BadArgument


def test_compose_keys_equal_after_str_are_one_duplicate_entry():
    # (1, 2) and ("1", "2") name one pair, which the loader also refuses twice
    records = {"1": ((1,), "u", "v"), "2": ((1,), "v", "v")}
    with pytest.raises(BadArgument, match=r"^duplicate compose entry for \(1, 2\)$"):
        FiniteKGraph(1, ["u", "v"], records, {(1, 2): "a", ("1", "2"): "b"})
    doc = {"kind": "category", "rank": 1, "vertices": ["u", "v"],
           "morphisms": [{"id": m, "d": list(d), "r": r, "s": s}
                         for m, (d, r, s) in records.items()],
           "compose": [["1", "2", "a"], ["1", "2", "b"]]}
    with pytest.raises(KGraphError, match=r"^duplicate compose entry for \(1, 2\)$"):
        loads(json.dumps(doc))


# k only negative, past 2**64 or not an integer: moderate values would
# allocate 2**(k+1) lists
BAD_K = st.one_of(
    st.integers(max_value=-1), st.integers(min_value=2**64), st.sampled_from(["a", 2.5, None])
)
NUMBERS = st.one_of(st.integers(-2, 3), st.integers(min_value=2**64), st.floats())
JUNK = st.one_of(NUMBERS, st.none(), st.text(max_size=2))
# near-placings mostly, so that calls get past their first check
TABLES = st.one_of(st.lists(st.integers(0, 1), max_size=3), st.lists(JUNK, max_size=3), JUNK)
BAD_CALLS = st.one_of(
    st.tuples(st.sampled_from([enumerate_placings, count_placings, build_simplex, build_sphere]),
              st.tuples(BAD_K)),
    st.tuples(st.just(build_wedge), st.tuples(BAD_K, st.integers(1, 2))),
    st.tuples(st.just(build_wedge), st.tuples(st.integers(0, 1), st.integers(max_value=0))),
    st.tuples(st.just(sphere_pole), st.tuples(BAD_K, st.sampled_from([0, 1]))),
    st.tuples(st.just(sphere_pole), st.tuples(st.integers(0, 3), JUNK)),
    st.tuples(st.sampled_from([placing_id, height, is_placing]), st.tuples(TABLES)),
    st.tuples(st.sampled_from([leq, tail_factor, embed]), st.tuples(TABLES, TABLES)),
    st.tuples(st.just(basis_point), st.tuples(TABLES, NUMBERS)),
    st.tuples(st.sampled_from([basic_surface, compact_surface]), st.tuples(st.text(max_size=4))),
    st.tuples(st.just(compact_surface), st.tuples(st.lists(st.text(max_size=2), max_size=3))),
)


@settings(max_examples=400, deadline=None)
@given(call=BAD_CALLS)
@example(call=(enumerate_placings, (2**64,)))
@example(call=(enumerate_placings, (2.5,)))
@example(call=(count_placings, ("a",)))
@example(call=(build_simplex, ("a",)))
@example(call=(count_placings, (2**64,)))
@example(call=(sphere_pole, (2**64, 0)))
@example(call=(build_wedge, (2**64, 2)))
@example(call=(leq, ([0, 0], [0, 0, 1])))
@example(call=(tail_factor, ([0, 1], None)))
@example(call=(tail_factor, ([0], "l")))
@example(call=(placing_id, ([float("inf")],)))
@example(call=(embed, ([0, 0], [float("inf")])))
def test_builders_and_helpers_raise_only_kgraph_errors_on_bad_arguments(call):
    fn, args = call
    try:
        fn(*args)
    except KGraphError:
        pass


def builder_outputs():
    for k in range(5):
        yield build_simplex(k)
        yield build_sphere(k)
    for n in (1, 2, 3):
        yield build_wedge(3, n)
    s1 = build_sphere(1)
    yield cartesian_product(s1, s1)
    yield cartesian_product(build_wedge(1, 2), s1)
    yield disjoint_union(tiny(), s1)
    yield induced_subgraph(build_simplex(2), ["0", "{0,21}", "{1,20}"])
    yield loads(export_json(build_sphere(2)))


def test_trusted_constructor_matches_the_public_one():
    for g in builder_outputs():
        public = FiniteKGraph(g.rank, *parts(g))
        public.embedding = g.embedding
        # a sphere or wedge keeps the verdict it is certified with, and
        # builds its factorisation index on first use: validate both and
        # build g's index, so that the kept violations and indexes are
        # compared too
        assert validate_kgraph(public) == validate_kgraph(g)
        factor_index(g)
        assert vars(public) == vars(g)


def _outcome(fn):
    """What fn() returns, or the type and text of the error it raises."""
    try:
        return fn()
    except Exception as exc:  # the error is the outcome compared
        return (type(exc), str(exc))


def assert_agrees_with_reference(g: FiniteKGraph, ref: ReferenceKGraph) -> None:
    """g answers every accessor, split, composite and face as the
    string-keyed reference does."""
    assert (g.morphism_ids(), g.vertices, len(g)) == (ref.morphism_ids(), ref.vertices, len(ref))
    for m in g.morphism_ids():
        assert (g.d(m), g.r(m), g.s(m), g.is_identity(m)) == (
            ref.d(m), ref.r(m), ref.s(m), ref.is_identity(m))
        for p in _splits(g.d(m)):
            assert _outcome(lambda: g.factorise(m, p)) == _outcome(lambda: ref.factorise(m, p))
    pairs = list(g.composable_pairs(include_identities=True))
    assert pairs == list(ref.composable_pairs(include_identities=True))
    for a, b in pairs:
        assert _outcome(lambda: g.compose(a, b)) == _outcome(lambda: ref.compose(a, b))
    assert list(g.compose_table().items()) == list(ref.compose_table().items())
    for v in g.vertices:
        assert g.morphisms_with_range(v) == ref.morphisms_with_range(v)
        assert g.morphisms_with_source(v) == ref.morphisms_with_source(v)
    for d in {g.d(m) for m in g.morphism_ids()}:
        assert g.by_degree(d) == ref.by_degree(d)
    assert cubes(g) == cubes(ref)
    for c in cubes(g):
        for i in range(1, len(c.degree) + 1):
            for side in (0, 1):
                assert _outcome(lambda: face(g, c, i, side)) == _outcome(lambda: face(ref, c, i, side))
    assert validate_kgraph(g) == reference_find_violations(g)


def _agree(build, reference_build) -> None:
    """Both builders raise the same error, or build graphs that agree."""
    got, want = _outcome(build), _outcome(reference_build)
    if isinstance(want, ReferenceKGraph):
        assert_agrees_with_reference(got, want)
    else:
        assert got == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), faults=st.integers(0, 3))
def test_integer_core_agrees_with_the_string_keyed_reference(seed, faults):
    rng = random.Random(seed)
    a = rng.choice([random_path_category, random_grid_category])(rng, max_morphisms=10)
    b = random_path_category(rng, max_vertices=3, max_morphisms=3)
    broken = mutated_category(a, rng.choice, faults)
    for g in (a, b, broken):
        assert_agrees_with_reference(g, reference_view(g))
    # a loaded graph holds a's parts, its table in the document's order
    doc = json.loads(export_json(a))
    loaded = ReferenceKGraph(
        doc["rank"],
        doc["vertices"],
        {rec["id"]: (tuple(rec["d"]), rec["r"], rec["s"]) for rec in doc["morphisms"]},
        {(x, y): z for x, y, z in doc["compose"]},
    )
    assert loaded.compose_table() == a.compose_table()
    assert_agrees_with_reference(loads(export_json(a)), loaded)
    for x, y in ((a, b), (b, a), (broken, b)):
        _agree(lambda: cartesian_product(x, y), lambda: reference_cartesian_product(x, y))
    for x, y in ((a, broken), (a, b)):
        _agree(lambda: disjoint_union(x, y), lambda: reference_disjoint_union(x, y))

    for g, mode in ((a, "generated"), (cartesian_product(a, b), "generated"), (broken, "explicit")):
        ids = g.morphism_ids()
        firsts = [rng.choice(ids) for _ in range(rng.randint(1, 3))]
        # mostly pairs of one degree, so that some relations are congruences
        pairs = [(m, rng.choice(g.by_degree(g.d(m)) if rng.random() < 0.8 else ids)) for m in firsts]
        rel = _outcome(lambda: relation_from_pairs(g, pairs, mode))
        if isinstance(rel, tuple):  # a broken graph's table raised while saturating
            continue
        if mode == "generated":
            assert rel.classes() == reference_generated_classes(g, pairs)
        verdict = _outcome(lambda: check_congruence(rel))
        assert verdict == _outcome(lambda: reference_check_congruence(rel))
        if getattr(verdict, "ok", False):  # a broken table's unknown composite still raises
            _agree(lambda: quotient(g, rel), lambda: reference_quotient(g, rel))
            q = _outcome(lambda: quotient(g, rel))
            # classes are named by their least members, in g's order
            if isinstance(q, FiniteKGraph):
                assert q.morphism_ids() == tuple(m for m in ids if rel.rep(m) == m)


def test_product_refuses_what_the_public_constructor_would():
    a = FiniteKGraph(0, ["p", "p,q"], {}, {})
    b = FiniteKGraph(0, ["q,r", "r"], {}, {})
    with pytest.raises(BadArgument, match="pair ids of the product collide"):
        cartesian_product(a, b)
    # degrees outside N^1 that add up to zero in N^2
    a = FiniteKGraph(1, ["u"], {"m": ((0, 0), "u", "u")}, {})
    b = FiniteKGraph(1, ["v"], {"n": ((), "v", "v")}, {})
    with pytest.raises(BadArgument, match=r"^'\(m,n\)' has degree zero"):
        cartesian_product(a, b)


def test_product_with_an_endpoint_that_is_not_a_vertex_matches_the_reference():
    # the pair of "ghost" with a vertex names no id of the product
    ghost = FiniteKGraph(1, ["v"], {"e": ((1,), "v", "ghost")}, {})
    loop = FiniteKGraph(1, ["w"], {"l": ((1,), "w", "w")}, {})
    for x, y in ((ghost, loop), (loop, ghost)):
        _agree(lambda: cartesian_product(x, y), lambda: reference_cartesian_product(x, y))
    assert cartesian_product(ghost, loop).s("(e,w)") == "(ghost,w)"


def test_cubes_and_faces_on_a_grid():
    g1 = path_category(2, [(0, 1)])
    g = grid_category(g1, g1)
    assert validate_kgraph(g) == []
    assert [len(cubes(g, n)) for n in range(3)] == [4, 4, 1]
    (sq,) = cubes(g, 2)
    # the four faces of the square commute: top*left = bottom*right, read
    # through the face maps (side 0 at the range end, side 1 at the source)
    f10 = face(g, sq, 1, 0)
    f11 = face(g, sq, 1, 1)
    f20 = face(g, sq, 2, 0)
    f21 = face(g, sq, 2, 1)
    assert g.compose(f20.key, f11.key) == sq.key == g.compose(f10.key, f21.key)
    with pytest.raises(DimensionTooLarge):
        cubes(g, 3)


def test_face_degrees_drop_by_one_direction():
    g = build_simplex(2)
    for sq in cubes(g, 2):
        for i in (1, 2):
            for side in (0, 1):
                c = face(g, sq, i, side)
                assert deg_total(c.degree) == 1
                assert c.degree[i - 1] == 0


def test_cartesian_product_matches_handmade_grid():
    g1 = path_category(3, [(0, 1), (1, 2)])
    g2 = path_category(2, [(0, 1)])
    lib = cartesian_product(g1, g2)
    hand = grid_category(g1, g2)
    assert validate_kgraph(lib) == []
    assert len(lib.morphism_ids()) == len(hand.morphism_ids())
    assert sorted(lib.by_degree((1, 1))) == sorted(
        m for m in lib.morphism_ids() if lib.d(m) == (1, 1)
    )
    # same cell counts in every dimension
    for n in range(3):
        assert len(cubes(lib, n)) == len(cubes(hand, n))


def test_numbering_sorts_only_ids_out_of_strict_order():
    for ids in (["a", "b", "c"], ["b", "a", "c"], ["a", "a", "b"], ["a"], []):
        got, order, new, at = _numbering(list(ids))
        want = sorted(range(len(ids)), key=ids.__getitem__)
        assert (got, order) == (sorted(ids), want)
        assert [new[old] for old in order] == list(range(len(ids)))
        assert dict(at) == {x: i for i, x in enumerate(got)}


def test_disjoint_union_validates():
    g = disjoint_union(tiny(), tiny())
    assert _find_violations(g) == []
    assert len(g.vertices) == 6


def test_induced_subgraph():
    g = tiny()
    sub = induced_subgraph(g, ["v0", "v1"])
    assert sorted(sub.vertices) == ["v0", "v1"]
    assert "e0" in sub.morphism_ids()
    assert "e0.e1" not in sub.morphism_ids()
    assert validate_kgraph(sub) == []


# -- minimal common extensions ------------------------------------------------


def brute_mce(g, mors):
    """Direct enumeration: candidates of the joined degree whose head
    factorisations reproduce every member of `mors`."""
    join = tuple(map(max, zip(*(g.d(m) for m in mors))))
    out = []
    for lam in g.morphism_ids():
        if g.d(lam) != join:
            continue
        ok = True
        for m in mors:
            head, _ = g.factorise(lam, g.d(m))
            if head != m or g.r(lam) != g.r(m):
                ok = False
                break
        if ok:
            out.append(lam)
    return sorted(out)


def test_mce_pairwise_matches_brute_force():
    g = build_simplex(2)
    ids = [m for m in g.morphism_ids() if g.r(m) == "0"]
    for a in ids:
        for b in ids:
            assert sorted(mce(g, a, b)) == brute_mce(g, [a, b])


def test_mce_set_matches_brute_force_on_triples():
    rng = random.Random(7)
    g = build_simplex(2)
    ids = [m for m in g.morphism_ids() if g.r(m) == "0"]
    for _ in range(60):
        trio = rng.sample(ids, 3)
        assert sorted(mce_set(g, trio)) == brute_mce(g, trio)
    with pytest.raises(ValueError):
        mce_set(g, [])


def test_exhaustive_sets():
    g = tiny()
    # every morphism into v2 factors through {e1}: e1 itself and the long
    # path share a common extension with it
    assert is_exhaustive(g, "v2", ["e1"])
    assert not is_exhaustive(g, "v2", [])


# -- vertex-set predicates ----------------------------------------------------


def test_hereditary_iff_complement_cohereditary():
    g = build_simplex(2)
    rng = random.Random(3)
    verts = list(g.vertices)
    for _ in range(25):
        H = set(rng.sample(verts, rng.randint(0, len(verts))))
        comp = [v for v in verts if v not in H]
        a = vertex_predicate(g, H, "hereditary").holds
        b = vertex_predicate(g, comp, "cohereditary").holds
        assert a == b


def test_hereditary_witness_is_an_escaping_morphism():
    g = tiny()
    rep = vertex_predicate(g, ["v2"], "hereditary")
    assert not rep.holds
    (m,) = rep.witness
    assert g.r(m) == "v2" and g.s(m) != "v2"


def test_saturated_examples():
    chain = tiny()
    # v1 escapes into {v0} through the exhaustive set {e0}
    assert not vertex_predicate(chain, ["v0"], "saturated").holds
    assert vertex_predicate(chain, ["v2"], "saturated").holds
    # in the cospan v0 -> v2 <- v1, the set {v0} is saturated: {e0} is not
    # exhaustive at v2 because e1 has no common extension with it
    cospan = path_category(3, [(0, 2), (1, 2)])
    assert vertex_predicate(cospan, ["v0"], "saturated").holds
    assert not vertex_predicate(cospan, ["v0", "v1"], "saturated").holds


# -- skeletons ----------------------------------------------------------------


def square_skeleton():
    # one commuting square: p <-f- q <-g- s equals p <-g2- r <-f2- s
    return Skeleton2Graph(
        vertices=["p", "q", "r", "s"],
        blue={"f": ("p", "q"), "f2": ("r", "s")},
        red={"g": ("q", "s"), "g2": ("p", "r")},
        squares=[("f", "g", "g2", "f2")],
    )


def test_skeleton_validates():
    assert validate_skeleton(square_skeleton()) == []


def test_skeleton_commuting_square_check():
    sk = Skeleton2Graph(
        vertices=["p", "q", "r", "s"],
        blue={"f": ("p", "q"), "f2": ("r", "s")},
        red={"g": ("q", "s"), "g2": ("q", "q")},  # g2 no longer closes the square
        squares=[("f", "g", "g2", "f2")],
    )
    rules = {v.rule for v in validate_skeleton(sk)}
    assert "square-commute" in rules or "square-edges" in rules


def test_skeleton_bijection_check():
    # two squares claiming the same blue-red path
    sk = Skeleton2Graph(
        vertices=["p", "q", "r", "s"],
        blue={"f": ("p", "q"), "f2": ("r", "s"), "f3": ("r", "s")},
        red={"g": ("q", "s"), "g2": ("p", "r")},
        squares=[("f", "g", "g2", "f2"), ("f", "g", "g2", "f3")],
    )
    rules = {v.rule for v in validate_skeleton(sk)}
    assert "square-bijection" in rules


def test_skeleton_cubes():
    sk = square_skeleton()
    assert [len(cubes(sk, n)) for n in range(3)] == [4, 4, 1]
    sq = cubes(sk, 2)[0]
    assert face(sk, sq, 1, 0).key == "g2"
    assert face(sk, sq, 1, 1).key == "g"
    assert face(sk, sq, 2, 0).key == "f"
    assert face(sk, sq, 2, 1).key == "f2"


def test_skeleton_face_refuses_a_square_it_does_not_have():
    sk = square_skeleton()
    for key in (("x", "y", "z", "w"), ("f", "g", "g2", "f"), ("f", "g")):
        with pytest.raises(UnknownId, match="no square"):
            face(sk, Cube(key, (1, 1)), 1, 0)
    with pytest.raises(UnknownId, match="no edge"):
        face(sk, Cube("x", (1, 0)), 1, 0)


def test_face_reads_the_degree_of_the_key_itself():
    # a cube given a degree its key does not have is refused on both models,
    # and so is a key that cannot be an id
    torus, simplex = basic_surface("T").skeleton, build_simplex(2)
    assert simplex.d("(0,{0,1,2})") == (1, 1)
    for model, cube in ((torus, Cube(("c", "e", "g", "a"), (1, 0))),
                        (torus, Cube("a", (0, 1))),
                        (torus, Cube("e", (1, 0))),
                        (torus, Cube("a", ())),
                        (torus, Cube("u", (1, 0))),
                        (simplex, Cube("(0,{0,1,2})", (1, 0))),
                        (simplex, Cube("(0,{0,21})", (1, 1))),
                        (simplex, Cube("(0,{0,21})", (0, 0))),
                        (simplex, Cube("0", (1, 0)))):
        with pytest.raises(BadArgument, match="does not have degree"):
            face(model, cube, 1, 0)
    for model in (torus, simplex):
        with pytest.raises(UnknownId):
            face(model, Cube(["a"], (1, 0)), 1, 0)
    # with their own degrees the answers are the cube view's
    assert face(torus, Cube("a", (1, 0)), 1, 0) == Cube(torus.blue["a"].r, ())
    assert face(simplex, Cube("(0,{0,1,2})", (1, 1)), 1, 0) == Cube("(0,{10,2})", (0, 1))
    for model, cube in ((torus, Cube("u", ())), (simplex, Cube("0", (0, 0)))):
        with pytest.raises(BadDirection):
            face(model, cube, 1, 0)


# sha256 prefixes of (cubes, faces, dot, mesh), from `cube_view_digests`,
# recorded before category models and skeletons shared one cube view
CUBE_VIEW_DIGESTS = {
    "simplex 0": ("1649829eceb0c6d3", "4f53cda18c2baa0c", "11682532cd8fcf84", "836388311a989ec5"),
    "sphere 0": ("c4db57b6d89653ed", "4f53cda18c2baa0c", "40ae84c2686765ff", "bdf6cb44a71b132a"),
    "simplex 1": ("37abcfa822e8978b", "f12f69fcd4dd3554", "7157fd11937162fa", "34c1f01d8d91dd21"),
    "sphere 1": ("fe62aa0359e53cd3", "f571c9178278ad3f", "b7cad05fe8d50e68", "667ddde476b88985"),
    "simplex 2": ("49ffc52acebb5cfb", "5f5b711f19f4302a", "b934fbd038226902", "c2eb009bc0ccefe3"),
    "sphere 2": ("5f1253f7afd32acb", "58dcd1d29ce808ce", "d3e750c87917ac3a", "9f387cf79b3ae8e8"),
    "simplex 3": ("b45a6bf36a195de5", "3872471133f8b069", "ce98db1fc8bde72d", "ea9f0a2fc38dc2be"),
    "sphere 3": ("fd665874bc62ae2f", "27816679c4b896f2", "7513ee71ad2ce909", "cbc65e8d2d709cd1"),
    "simplex 4": ("c314e0779a05f4c4", "f59776efc25482c6", "45ba2b164de9e8c0", "bec340a345c081b8"),
    "sphere 4": ("06737ac8cfaca0d1", "58417347b8acc785", "56409c6d78f6c918", "54665fefd35fc985"),
    "wedge 2 3": ("86b242e85911b2ad", "e0cc9a102eaa9ce8", "ff565062c6afa8eb", "b4371d4734bb235d"),
    "surface S": ("ae7c35919643683a", "1224dd5d137f803f", "9542c70df901e8e2", "b4371d4734bb235d"),
    "surface T": ("87ad8dcacf34163d", "8968f9c82381abeb", "f1dfeb19758a8faf", "b4371d4734bb235d"),
    "surface K": ("9091b566a4735e36", "0f0204c2b2badff0", "f1dfeb19758a8faf", "b4371d4734bb235d"),
    "surface P": ("db996fef478cd6d7", "91f682272b64cdb8", "ddaa14b12b1a2444", "b4371d4734bb235d"),
    "surface T,T": ("b182c900ea57c850", "8099821ec1d17322", "e51de044cdbc38b9", "b4371d4734bb235d"),
    "surface T,K": ("dc677295c5d636c8", "1ad4a199b3840d5e", "e51de044cdbc38b9", "b4371d4734bb235d"),
    "surface T,P": ("7d3bd1e7fd264966", "868ce6c9e7a22ec0", "f0f609a052fe15d1", "b4371d4734bb235d"),
    "surface T,T,P": ("dbfd599e33985acf", "49dbbc021be526a3", "52a6a545400fb923", "b4371d4734bb235d"),
}


def pinned_models():
    for k in range(5):
        yield f"simplex {k}", build_simplex(k)
        yield f"sphere {k}", build_sphere(k)
    yield "wedge 2 3", build_wedge(2, 3)
    for spec in ("S", "T", "K", "P", "T,T", "T,K", "T,P", "T,T,P"):
        yield f"surface {spec}", compact_surface(spec).skeleton


def test_cube_view_is_pinned():
    seen = {name: cube_view_digests(model) for name, model in pinned_models()}
    assert seen == CUBE_VIEW_DIGESTS


def test_category_dict_is_the_reference_layout_on_every_builder_output():
    from kgraphs.io import kgraph_doc

    from helpers import reference_kgraph_doc

    for g in builder_outputs():
        assert kgraph_doc(g) == reference_kgraph_doc(g)


def test_the_package_imports_only_the_standard_library():
    # README promises no runtime dependency beyond the standard library
    allowed = set(sys.stdlib_module_names) | {"kgraphs"}
    for path in sorted(Path(kgraphs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in allowed, f"{path.name} imports {name}"
