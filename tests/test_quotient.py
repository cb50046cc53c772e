"""Congruences: the four closure conditions, quotients, and gluing."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgraphs import (
    FiniteKGraph,
    build_simplex,
    build_sphere,
    build_wedge,
    cartesian_product,
    check_congruence,
    chain_complex,
    cubes,
    euler_characteristic,
    export_json,
    glue_on_common,
    homology,
    induced_subgraph,
    pullback_hypotheses,
    quotient,
    relation_from_classes,
    relation_from_pairs,
    sphere_pole,
    validate_kgraph,
    vertex_predicate,
)
from kgraphs.core import _find_violations, _glue
from kgraphs.errors import (
    BadArgument,
    BadSplit,
    ForeignId,
    InvalidModel,
    KGraphError,
    NotACongruence,
    NotComposable,
    NotHereditary,
    NotInjective,
    OverlappingClasses,
    UnknownId,
)
from kgraphs.quotient import _lift_holds
from kgraphs.simplex import enumerate_placings, placing_id

from helpers import (
    mutated_category,
    path_category,
    random_grid_category,
    random_path_category,
    reference_check_congruence,
    reference_build_wedge,
    reference_generated_classes,
    reference_glue_on_common,
    reference_vertex_predicate,
    sphere_pairs,
    table_order,
)


def two_points():
    return FiniteKGraph(rank=0, vertices=("0", "1"), morphisms={}, compose={})


def chain_with_parallel_edges():
    m = {
        "e0": ((1,), "v1", "v0"),
        "e1": ((1,), "v1", "v0"),
        "f": ((1,), "v2", "v1"),
        "e0.f": ((2,), "v2", "v0"),
        "e1.f": ((2,), "v2", "v0"),
    }
    table = {("f", "e0"): "e0.f", ("f", "e1"): "e1.f"}
    g = FiniteKGraph(rank=1, vertices=["v0", "v1", "v2"], morphisms=m, compose=table)
    assert validate_kgraph(g) == []
    return g


def test_relation_basics():
    g = chain_with_parallel_edges()
    rel = relation_from_pairs(g, [("e0", "e1")], mode="explicit")
    assert rel.same("e0", "e1")
    assert not rel.same("e0", "f")
    assert rel.rep("e1") == "e0"
    with pytest.raises(ForeignId):
        relation_from_pairs(g, [("e0", "zzz")])


def test_relation_from_classes_rejects_overlap():
    g = chain_with_parallel_edges()
    with pytest.raises(ValueError):
        relation_from_classes(g, [["e0", "e1"], ["e1", "f"]])
    with pytest.raises(OverlappingClasses, match="classes overlap at 'e1'"):
        relation_from_classes(g, [["e0", "e1"], ["e1", "f"]])


def test_condition_d_catches_degree_mismatch():
    g = chain_with_parallel_edges()
    rel = relation_from_pairs(g, [("e0", "e0.f")], mode="explicit")
    v = check_congruence(rel)
    assert not v.ok and v.violated == "d"
    assert set(v.witness) == {"e0", "e0.f"}


def test_condition_comp_catches_unrelated_composites():
    g = chain_with_parallel_edges()
    # e0 ~ e1 but the composites with f stay separate
    rel = relation_from_pairs(g, [("e0", "e1")], mode="explicit")
    v = check_congruence(rel)
    assert not v.ok and v.violated == "comp"


def test_condition_factor_catches_unrelated_tails():
    g = chain_with_parallel_edges()
    # merge the long paths but not their tails
    rel = relation_from_pairs(g, [("e0.f", "e1.f")], mode="explicit")
    v = check_congruence(rel)
    assert not v.ok and v.violated == "factor"
    assert set(v.witness) == {"e0.f", "e1.f"}


def test_condition_lift_catches_uncomposable_classes():
    g = path_category(3, [(0, 2), (1, 2)])  # cospan v0 -> v2 <- v1
    rel = relation_from_pairs(g, [("v0", "v2")], mode="explicit")
    v = check_congruence(rel)
    assert not v.ok and v.violated == "lift"


def test_generated_mode_saturates():
    g = chain_with_parallel_edges()
    # merging the long paths forces their tails together too
    rel = relation_from_pairs(g, [("e0.f", "e1.f")], mode="generated")
    assert rel.same("e0", "e1")
    assert check_congruence(rel).ok
    q = quotient(g, rel)
    assert validate_kgraph(q) == []
    assert len(q.morphism_ids()) == len(g.morphism_ids()) - 2


def test_saturation_can_merge_vertices():
    prod = cartesian_product(two_points(), build_simplex(1))
    # one boundary pair; closure under heads/tails drags the poles together
    rel = relation_from_pairs(prod, [("(0,(0,{0,1}))", "(1,(0,{0,1}))")])
    assert rel.same("(0,0)", "(1,0)")


def test_sphere_relation_is_a_congruence_and_keeps_poles_apart():
    for k in range(3):
        prod = cartesian_product(two_points(), build_simplex(k))
        rel = relation_from_pairs(prod, sphere_pairs(k))
        assert check_congruence(rel).ok
        assert not rel.same("(0,0)", "(1,0)")


def test_explicit_sphere_relation_is_the_generated_one():
    # build_sphere glues the copies that sphere_pairs names; the saturation of
    # generated mode must find nothing more to merge
    for k in range(4):
        prod = cartesian_product(two_points(), build_simplex(k))
        pairs = sphere_pairs(k)
        explicit = relation_from_pairs(prod, pairs, mode="explicit")
        generated = relation_from_pairs(prod, pairs, mode="generated")
        assert explicit.classes() == generated.classes()
        assert check_congruence(explicit).ok


def test_quotient_needs_matching_graph():
    g = chain_with_parallel_edges()
    h = chain_with_parallel_edges()
    rel = relation_from_pairs(g, [("e0", "e1")], mode="generated")
    with pytest.raises(ValueError):
        quotient(h, rel)


def test_quotient_raises_with_verdict():
    g = chain_with_parallel_edges()
    rel = relation_from_pairs(g, [("e0", "e1")], mode="explicit")
    with pytest.raises(NotACongruence) as exc:
        quotient(g, rel)
    assert exc.value.verdict.violated == "comp"


def test_trivial_relation_quotient_is_identity_on_cells():
    g = chain_with_parallel_edges()
    rel = relation_from_pairs(g, [])
    q = quotient(g, rel)
    assert sorted(q.morphism_ids()) == sorted(g.morphism_ids())
    assert q.compose_table() == g.compose_table()


# -- gluing -------------------------------------------------------------------


def boundary_glue(k):
    simplex = build_simplex(k)
    rim = [placing_id(f) for f in enumerate_placings(k) if any(f)]
    common = induced_subgraph(simplex, rim)
    phi = {m: m for m in common.morphism_ids()}
    return glue_on_common(common, simplex, build_simplex(k), phi, dict(phi))


def test_gluing_two_simplexes_along_the_rim_gives_the_sphere():
    for k in range(3):
        glued = boundary_glue(k)
        assert _find_violations(glued) == []  # the full scan, not the kept verdict
        sphere = build_sphere(k)
        for n in range(k + 1):
            assert len(cubes(glued, n)) == len(cubes(sphere, n))
        got = [(h.betti, h.torsion) for h in homology(chain_complex(glued))]
        want = [(h.betti, h.torsion) for h in homology(chain_complex(sphere))]
        assert got == want


def test_glue_rejects_non_injective_map():
    pt2 = path_category(2, [])
    common = path_category(2, [])
    phi_bad = {"v0": "v0", "v1": "v0"}
    with pytest.raises(NotInjective):
        glue_on_common(common, pt2, pt2, phi_bad, {"v0": "v0", "v1": "v1"})


def test_glue_rejects_non_hereditary_image():
    chain = path_category(3, [(0, 1), (1, 2)])
    common = path_category(1, [])
    phi = {"v0": "v1"}
    with pytest.raises(NotHereditary) as exc:
        glue_on_common(common, chain, chain, phi, dict(phi))
    assert exc.value.side in ("left", "right")


def test_glue_rejects_broken_endpoints():
    chain = path_category(3, [(0, 1), (1, 2)])
    common = path_category(2, [(0, 1)])
    phi_l = {"v0": "v0", "v1": "v1", "e0": "e0"}
    phi_r = {"v0": "v0", "v1": "v2", "e0": "e0"}  # e0 does not end at v2
    with pytest.raises(ValueError):
        glue_on_common(common, chain, chain, phi_l, phi_r)


def test_glue_refuses_a_map_with_a_foreign_domain_or_image_id():
    chain = path_category(3, [(0, 1), (1, 2)])
    common = path_category(1, [])
    phi = {"v0": "v0"}
    with pytest.raises(ForeignId, match="side 'left' has foreign domain id 'x'"):
        glue_on_common(common, chain, chain, {**phi, "x": "v1"}, phi)
    with pytest.raises(ForeignId, match="side 'right' hits unknown id 'ghost'"):
        glue_on_common(common, chain, chain, phi, {"v0": "ghost"})


def test_glue_rejects_a_broken_summand_validated_beforehand():
    chain = path_category(3, [(0, 1), (1, 2)])
    bad = FiniteKGraph(
        rank=1, vertices=chain.vertices,
        morphisms={m: (chain.d(m), chain.r(m), chain.s(m)) for m in chain.nonidentity_ids()},
        compose={("e1", "e0"): "e1"},  # the composite of a 2-path is an edge
    )
    assert validate_kgraph(bad)
    common = path_category(1, [])
    phi = {"v0": "v0"}
    with pytest.raises(InvalidModel, match="glued graph fails validation: "
                       r"\[compose-endpoints\]"):
        glue_on_common(common, bad, chain, phi, dict(phi))


def test_pullback_hypotheses_reports():
    k = 2
    simplex = build_simplex(k)
    rim = [placing_id(f) for f in enumerate_placings(k) if any(f)]
    common = induced_subgraph(simplex, rim)
    phi = {m: m for m in common.morphism_ids()}
    reports = {r.predicate: r.holds
               for r in pullback_hypotheses(common, simplex, build_simplex(k),
                                            phi, dict(phi))}
    assert reports == {
        "finitely-aligned:left": True,
        "finitely-aligned:right": True,
        # the top placing receives no edges, so the simplex has sources
        "no-sources:left": False,
        "no-sources:right": False,
        # escape to the zero placing breaks co-hereditarity of the rim
        "image-cohereditary:left": False,
        "image-cohereditary:right": False,
        "complement-saturated:left": True,
        "complement-saturated:right": True,
    }


def test_pullback_hypotheses_raise_only_on_a_map_off_the_vertices():
    point, edge = build_simplex(0), build_simplex(1)
    # a map that misses a vertex of common fails as it fails to glue
    for call in (pullback_hypotheses, glue_on_common):
        with pytest.raises(BadArgument, match=r"^gluing map on side 'left' misses morphism '0'$"):
            call(point, edge, edge, {}, {})
    with pytest.raises(BadArgument, match=r"^gluing map on side 'right' misses morphism '0'$"):
        pullback_hypotheses(point, edge, edge, {"0": "0"}, {})
    with pytest.raises(UnknownId, match=r"^no vertex with id 'ghost'$"):
        pullback_hypotheses(point, edge, edge, {"0": "ghost"}, {"0": "0"})


# -- one gluing routine, checked against the tagged union and quotient ----------


def same_graph(got, want):
    assert export_json(got) == export_json(want)
    assert got.morphism_ids() == want.morphism_ids()
    assert table_order(got) == table_order(want)


@pytest.mark.parametrize("n", [1, 2, 9, 10, 12])
@pytest.mark.parametrize("k", range(4))
def test_wedge_is_the_reference_quotient(k, n):
    # from n = 10 on the pole is "10:(0,0)": "0" sorts before ":"
    wedge = build_wedge(k, n)
    same_graph(wedge, reference_build_wedge(k, n))
    assert wedge.embedding is None and _find_violations(wedge) == []
    assert ("10:(0,0)" if n >= 10 else "1:(0,0)") in wedge.vertices


def closure(g, seed, kind):
    """The least hereditary (sources) or co-hereditary (ranges) vertex set
    holding seed."""
    inner, outer = (g.r, g.s) if kind == "hereditary" else (g.s, g.r)
    V = set(seed)
    grown = True
    while grown:
        grown = False
        for m in g.morphism_ids():
            if inner(m) in V and outer(m) not in V:
                V.add(outer(m))
                grown = True
    return V


def renamed(g, rng):
    """g through the public constructor with its ids renamed in a shuffled
    order, and the renaming; names that are not ids keep theirs."""
    ids = list(g.morphism_ids())
    new = dict(zip(ids, (f"x{i}" for i in rng.sample(range(len(ids)), len(ids)))))
    to = lambda x: new.get(x, x)
    mor = {to(m): (g.d(m), to(g.r(m)), to(g.s(m))) for m in g.nonidentity_ids()}
    table = {(to(a), to(b)): to(c) for (a, b), c in g.compose_table().items()}
    return FiniteKGraph(g.rank, [to(v) for v in g.vertices], mor, table), new


def settled(fn, *args):
    """What a call returns, or the type and message of any error it raises."""
    try:
        return fn(*args)
    except Exception as e:  # the reference lets KeyError out of broken commons
        return (type(e), str(e))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10_000),
       kind=st.sampled_from(["hereditary", "cohereditary", "any"]),
       common_kind=st.sampled_from(["induced", "vertices"]),
       broken=st.sampled_from([None, None, "common", "left", "right", "phi"]),
       data=st.data())
def test_glue_is_the_reference_quotient_on_random_gluings(seed, kind, common_kind, broken, data):
    # a random graph glued to a renamed copy of itself along a (co-)hereditary
    # vertex set, the full subgraph on it or just its vertices; a broken
    # summand or common piece takes the generated path, and a broken map
    # fails the embedding check, with the reference's errors.  A common
    # piece that names a non-id fails the check with a KGraphError, where
    # the reference lets a bare KeyError out
    rng = random.Random(seed)
    g = rng.choice([random_path_category, random_grid_category])(rng, max_morphisms=20)
    seed_set = rng.sample(g.vertices, rng.randint(1, len(g.vertices)))
    V = set(seed_set) if kind == "any" else closure(g, seed_set, kind)
    if common_kind == "induced":
        common = induced_subgraph(g, V)
    else:
        common = FiniteKGraph(g.rank, sorted(V), {}, {})
    right, new = renamed(g, rng)
    left = g
    pick = lambda items: data.draw(st.sampled_from(items))
    # mutations need a morphism that is not an identity
    mutated = lambda h: mutated_category(h, pick, data.draw(st.integers(1, 3))) if (
        h.nonidentity_ids()) else h
    if broken == "common":
        common = mutated(common)
    elif broken == "left":
        left = mutated(left)
    elif broken == "right":
        right = mutated(right)
    phi_left = {m: m for m in common.morphism_ids()}
    phi_right = {m: new.get(m, m) for m in common.morphism_ids()}
    if broken == "phi":  # send one morphism anywhere in left
        phi_left[pick(common.morphism_ids())] = pick(g.morphism_ids())
    args = (common, left, right, phi_left, phi_right)
    got, want = settled(glue_on_common, *args), settled(reference_glue_on_common, *args)
    if isinstance(want, FiniteKGraph):
        same_graph(got, want)
    elif want[0] is KeyError:
        assert isinstance(got, tuple) and issubclass(got[0], KGraphError)
    else:
        assert got == want


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10_000),
       kind=st.sampled_from(["hereditary", "cohereditary", "any"]),
       common_kind=st.sampled_from(["induced", "vertices"]))
def test_lift_check_agrees_with_validating_the_direct_glue(seed, kind, common_kind):
    # clean random gluings, built as in the test above, with a renamed copy
    # glued to the graph: the glue is a k-graph exactly when "lift" holds.
    # The full subgraph on an arbitrary set need not be clean.
    rng = random.Random(seed)
    g = rng.choice([random_path_category, random_grid_category])(rng, max_morphisms=20)
    seed_set = rng.sample(g.vertices, rng.randint(1, len(g.vertices)))
    V = set(seed_set) if kind == "any" else closure(g, seed_set, kind)
    common = (induced_subgraph(g, V) if common_kind == "induced"
              else FiniteKGraph(g.rank, sorted(V), {}, {}))
    assume(not validate_kgraph(common))
    right, new = renamed(g, rng)
    shared = {right._at[new.get(m, m)]: g._at[m] for m in common.morphism_ids()}
    glued = _glue([g, right], ["0:{}", "1:{}"], shared)
    assert _lift_holds(g, right, shared) == (not _find_violations(glued))


@pytest.mark.parametrize("change", ["entry", "range", "composite"])
def test_a_common_graph_that_names_a_non_id_fails_the_embedding_check(change):
    # an extra entry whose factor is "ghost", a range "ghost", or a composite
    # "ghost": common's compose, or a missing image, refuses it
    mor = {"e": ((1,), "b", "a"), "f": ((1,), "c", "b"), "g": ((2,), "c", "a")}
    target = FiniteKGraph(1, ["a", "b", "c"], mor, {("f", "e"): "g"})
    phi = {m: m for m in target.morphism_ids()}
    table = {("f", "e"): "g"}
    if change == "entry":
        table[("ghost", "e")] = "g"
    elif change == "range":
        mor = {**mor, "e": ((1,), "ghost", "a")}
    else:
        table[("f", "e")] = "ghost"
    common = FiniteKGraph(1, ["a", "b", "c"], mor, table)
    with pytest.raises(KGraphError):
        glue_on_common(common, target, target, phi, dict(phi))


def test_a_glue_that_fails_lift_takes_the_generated_path():
    # both images hold every vertex, so both are hereditary, but the left
    # edge leaves the vertex whose twin the right edge reaches
    edge = FiniteKGraph(1, ["v0", "v1"], {"e": ((1,), "v1", "v0")}, {})
    common = FiniteKGraph(1, ["a", "b"], {}, {})
    args = (common, edge, edge, {"a": "v0", "b": "v1"}, {"a": "v1", "b": "v0"})
    assert not _lift_holds(edge, edge, {edge._at["v1"]: edge._at["v0"],
                                        edge._at["v0"]: edge._at["v1"]})
    got = settled(glue_on_common, *args)
    assert got == settled(reference_glue_on_common, *args)
    assert got[0] is NotACongruence and "condition 'lift' fails" in got[1]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_vertex_predicates_match_the_reference(seed, data):
    rng = random.Random(seed)
    base = rng.choice([random_path_category, random_grid_category])(rng, max_morphisms=20)
    pick = lambda items: data.draw(st.sampled_from(items))
    g = mutated_category(base, pick, data.draw(st.integers(0, 3)))
    V = rng.sample(g.vertices, rng.randint(0, len(g.vertices)))
    for kind in ("hereditary", "cohereditary"):
        assert vertex_predicate(g, V, kind) == reference_vertex_predicate(g, V, kind)


def cell_counts(model):
    return [len(cubes(model, n)) for n in range(model.rank + 1)]


@pytest.mark.parametrize("k", range(4))
def test_rim_glue_cells_and_euler_characteristic_add_up(k):
    # c_n(G) = c_n(L) + c_n(R) - c_n(C), and so chi(G) = chi(L) + chi(R) - chi(C)
    simplex = build_simplex(k)
    rim = [placing_id(f) for f in enumerate_placings(k) if any(f)]
    common = induced_subgraph(simplex, rim)
    glued = boundary_glue(k)
    want = [2 * a - c for a, c in zip(cell_counts(simplex), cell_counts(common))]
    assert cell_counts(glued) == want
    assert euler_characteristic(glued) == (
        2 * euler_characteristic(simplex) - euler_characteristic(common))
    assert cell_counts(glued) == cell_counts(build_sphere(k))


@pytest.mark.parametrize("n", [1, 2, 3, 10])
@pytest.mark.parametrize("k", range(4))
def test_wedge_cells_and_euler_characteristic_add_up(k, n):
    # n spheres glued at one vertex: n copies of each cell, less n - 1 poles
    sphere, wedge = build_sphere(k), build_wedge(k, n)
    want = [n * c for c in cell_counts(sphere)]
    want[0] -= n - 1
    assert cell_counts(wedge) == want
    assert euler_characteristic(wedge) == n * euler_characteristic(sphere) - (n - 1)


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except KGraphError as e:
        return (type(e), str(e))


def test_congruence_verdicts_match_the_reference_on_mutations():
    # the mutations of acceptance criterion 08
    two = two_points()
    prod = cartesian_product(two, build_simplex(2))
    base = [list(c) for c in relation_from_pairs(prod, sphere_pairs(2)).classes()]
    rng = random.Random(0xACCE55)
    verdicts = set()
    for _ in range(200):
        i, j = rng.sample(range(len(base)), 2)
        mutated = [c for idx, c in enumerate(base) if idx not in (i, j)]
        mutated.append(base[i] + base[j])
        rel = relation_from_classes(prod, mutated)
        got = check_congruence(rel)
        assert got == reference_check_congruence(rel)
        verdicts.add(got.violated)
    assert verdicts == {None, "d", "factor", "lift"}


GRAPHS = {"simplex": build_simplex(2), "sphere": build_sphere(2)}


@settings(max_examples=150, deadline=None)
@given(
    which=st.sampled_from(sorted(GRAPHS)),
    picks=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.booleans()), max_size=4
    ),
    mode=st.sampled_from(["explicit", "generated"]),
)
def test_congruence_verdicts_match_the_reference_on_random_relations(which, picks, mode):
    # pairs of equal degree, when asked, so that "comp" and "factor" are reached
    g = GRAPHS[which]
    ids = g.morphism_ids()
    pairs = []
    for a, b, same_degree in picks:
        m = ids[a % len(ids)]
        pool = g.by_degree(g.d(m)) if same_degree else ids
        pairs.append((m, pool[b % len(pool)]))
    rel = relation_from_pairs(g, pairs, mode)
    assert check_congruence(rel) == reference_check_congruence(rel)


def test_factor_verdicts_past_the_unit_splits_match_the_reference():
    # Each relation here relates two morphisms of one degree and range and
    # their heads and tails at every unit split, so "factor" can fail
    # first only at a larger split.
    details = set()
    for g in (build_simplex(2), build_sphere(2), build_wedge(2, 3)):
        assert validate_kgraph(g) == []
        for i, m in enumerate(ids := g.nonidentity_ids()):
            for m2 in ids[i + 1:]:
                if (g.d(m), g.r(m)) != (g.d(m2), g.r(m2)) or sum(g.d(m)) < 2:
                    continue
                pairs = [(m, m2)]
                for j, x in enumerate(g.d(m)):
                    unit = tuple(int(k == j) for k in range(g.rank))
                    if x:
                        pairs += zip(g.factorise(m, unit), g.factorise(m2, unit))
                rel = relation_from_pairs(g, pairs, "explicit")
                verdict = check_congruence(rel)
                assert verdict == reference_check_congruence(rel)
                details.add(verdict.detail.rsplit(" at ", 1)[-1])
    assert "split (1, 1) are unrelated" in details
    # split 0 is checked too: here sources are related and ranges are not
    two_edges = path_category(4, [(0, 1), (2, 3)])
    assert validate_kgraph(two_edges) == []
    rel = relation_from_classes(two_edges, [["e0", "e1"], ["v0", "v2"]])
    verdict = check_congruence(rel)
    assert verdict == reference_check_congruence(rel)
    assert verdict.detail == "heads 'v1' and 'v3' at split (0,) are unrelated"


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_congruence_verdicts_and_errors_match_the_reference_on_broken_tables(seed, data):
    rng = random.Random(seed)
    base = rng.choice([random_path_category, random_grid_category])(rng, max_morphisms=20)
    pick = lambda items: data.draw(st.sampled_from(items))
    g = mutated_category(base, pick, data.draw(st.integers(0, 3)))
    ids = g.morphism_ids()
    pairs = []
    for _ in range(data.draw(st.integers(0, 4))):
        m = pick(ids)
        pairs.append((m, pick(g.by_degree(g.d(m)) if data.draw(st.booleans()) else ids)))
    rel = relation_from_pairs(g, pairs, "explicit")
    assert outcome(check_congruence, rel) == outcome(reference_check_congruence, rel)


def with_table(table):
    """Two parallel edges e0, e1 followed by f, with the given table."""
    m = {
        "e0": ((1,), "v1", "v0"),
        "e1": ((1,), "v1", "v0"),
        "f": ((1,), "v2", "v1"),
        "e0.f": ((2,), "v2", "v0"),
        "e1.f": ((2,), "v2", "v0"),
    }
    return FiniteKGraph(rank=1, vertices=["v0", "v1", "v2"], morphisms=m, compose=table)


NOT_COMPOSABLE = (NotComposable, "source('e0') = 'v0' differs from range('f') = 'v2'")
UNKNOWN = (UnknownId, "no morphism with id 'ghost'")


def test_congruence_errors_on_broken_tables_match_the_reference():
    # a table entry for a pair that does not compose: source(e0) != range(f)
    g = with_table({("f", "e0"): "e0.f", ("f", "e1"): "e1.f", ("e0", "f"): "e0.f"})
    rel = relation_from_classes(g, [])
    got = outcome(check_congruence, rel)
    assert got == outcome(reference_check_congruence, rel) == NOT_COMPOSABLE
    assert outcome(quotient, g, rel) == got
    assert outcome(relation_from_pairs, g, [("e0", "e1")]) == got
    assert outcome(cartesian_product, two_points(), g) == got
    assert outcome(cartesian_product, g, two_points()) == got

    # a composite naming an unknown id, met when (f, e1) shares its
    # class pair with (f, e0)
    g = with_table({("f", "e0"): "e0.f", ("f", "e1"): "ghost"})
    rel = relation_from_classes(g, [["e0", "e1"]])
    got = outcome(check_congruence, rel)
    assert got == outcome(reference_check_congruence, rel)
    assert got == (ForeignId, "'ghost' is not a morphism of the relation's graph")
    # unmerged, the unknown composite passes the check and the quotient
    # names it when it looks up its class
    trivial = relation_from_classes(g, [])
    assert check_congruence(trivial) == reference_check_congruence(trivial)
    assert outcome(quotient, g, trivial) == got

    # a table entry naming an unknown id: every loop over the table,
    # saturation included, reports it as compose does
    g = with_table({("f", "e0"): "e0.f", ("f", "ghost"): "e1.f"})
    trivial = relation_from_classes(g, [])
    got = outcome(check_congruence, trivial)
    assert got == outcome(reference_check_congruence, trivial) == UNKNOWN
    assert outcome(relation_from_pairs, g, [("e0", "e1")]) == got
    assert outcome(cartesian_product, g, two_points()) == got


def parallel_pairs(a: tuple) -> FiniteKGraph:
    """Records a0, a1 (both a) and b0 (v1 <- v0), b1 (v2 <- v0); no table."""
    m = {"a0": a, "a1": a, "b0": ((1,), "v1", "v0"), "b1": ((1,), "v2", "v0")}
    return FiniteKGraph(rank=1, vertices=["v0", "v1", "v2"], morphisms=m, compose={})


GHOST = (ForeignId, "'ghost' is not a morphism of the relation's graph")


@pytest.mark.parametrize(
    "g, expected",
    [
        # the class {a0, a1} has unknown heads (at split 0) or tails (at
        # split d): that is raised before the heads of b0 and b1 differ
        (parallel_pairs(((1,), "ghost", "v0")), GHOST),
        (parallel_pairs(((1,), "v1", "ghost")), GHOST),
        # a degree of the wrong length fails at its first split
        (parallel_pairs(((1, 0), "v1", "v0")),
         (BadSplit, "split (0, 0) is not between 0 and d('a0') = (1, 0)")),
        # two composites with the same unknown name are not related
        (with_table({("f", "e0"): "ghost", ("f", "e1"): "ghost"}), GHOST),
    ],
)
def test_congruence_errors_on_bad_records_match_the_reference(g, expected):
    classes = [["a0", "a1"], ["b0", "b1"]] if g.has("a0") else [["e0", "e1"]]
    rel = relation_from_classes(g, classes)
    assert outcome(check_congruence, rel) == outcome(reference_check_congruence, rel) == expected


def test_saturation_names_an_unknown_composite():
    # merging e0 with e1 forces e0.f ~ (f after e1), which the table names
    # "ghost": saturation reports it as check_congruence and quotient do
    g = with_table({("f", "e0"): "e0.f", ("f", "e1"): "ghost"})
    with pytest.raises(ForeignId, match="'ghost'"):
        relation_from_pairs(g, [("e0", "e1")])


def test_product_of_two_broken_tables_reports_the_first_pair_met():
    # composing pair by pair in product order meets a's first pair, then
    # every pair of b, then a's later pairs
    broken_first = with_table({("e0", "f"): "e0.f", ("f", "e0"): "e0.f"})
    broken_later = with_table({("f", "e0"): "e0.f", ("e0", "f"): "e0.f"})
    unknown = with_table({("f", "e0"): "e0.f", ("f", "ghost"): "e1.f"})
    assert outcome(cartesian_product, broken_first, unknown) == NOT_COMPOSABLE
    assert outcome(cartesian_product, broken_later, unknown) == UNKNOWN
    assert outcome(cartesian_product, unknown, broken_later) == NOT_COMPOSABLE
    empty = FiniteKGraph(rank=0, vertices=(), morphisms={}, compose={})
    assert len(cartesian_product(broken_first, empty)) == 0


# -- saturation against the reference ----------------------------------------


SATURATED = {
    "sphere1": build_sphere(1),
    "sphere2": build_sphere(2),
    **{f"prod{k}": cartesian_product(two_points(), build_simplex(k)) for k in range(4)},
}


@settings(max_examples=200, deadline=None)
@given(
    which=st.sampled_from(sorted(SATURATED) + ["path", "grid"]),
    seed=st.integers(0, 10_000),
    picks=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.integers(0, 10**6),
            st.sampled_from(["any", "same degree", "vertex and edge"]),
        ),
        max_size=4,
    ),
)
def test_generated_classes_match_the_reference_saturation(which, seed, picks):
    if which in ("path", "grid"):
        make = random_path_category if which == "path" else random_grid_category
        g = make(random.Random(seed), max_morphisms=30)
    else:
        g = SATURATED[which]
    ids = g.morphism_ids()
    edges = [m for m in ids if sum(g.d(m)) == 1]
    pairs = []
    for a, b, kind in picks:
        if kind == "vertex and edge" and edges:
            m, pool = g.vertices[a % len(g.vertices)], edges
        else:
            m = ids[a % len(ids)]
            pool = g.by_degree(g.d(m)) if kind == "same degree" else ids
        pairs.append((m, pool[b % len(pool)]))
    assert relation_from_pairs(g, pairs).classes() == reference_generated_classes(g, pairs)


@pytest.mark.parametrize(
    "cell, k",
    # the boundary of the 1-simplex has no edge
    [("boundary edge", 2), ("boundary edge", 3), ("top cell", 1), ("top cell", 2), ("top cell", 3)],
)
def test_cascades_match_the_reference_saturation(cell, k):
    # one pair of copies of a cell drags its faces, and what they bound, along
    prod = SATURATED[f"prod{k}"]
    simplex = build_simplex(k)
    if cell == "top cell":
        m = max(simplex.nonidentity_ids(), key=lambda m: (sum(simplex.d(m)), m))
        pairs = [(f"(0,{m})", f"(1,{m})")]
    else:
        pairs = [next(p for p in sphere_pairs(k) if sum(prod.d(p[0])) == 1)]
    rel = relation_from_pairs(prod, pairs)
    assert rel.classes() == reference_generated_classes(prod, pairs)
    assert len(rel.nontrivial_classes()) > 1


def test_generated_mode_raises_where_a_merged_class_cannot_be_factorised():
    # a0 and a1 have degree 2 and no recorded factorisation at split 1:
    # saturation raises what check_congruence raises there instead of skipping it
    g = parallel_pairs(((2,), "v1", "v0"))
    expected = outcome(check_congruence, relation_from_classes(g, [["a0", "a1"]]))
    assert expected == (InvalidModel, "no factorisation of 'a0' at split (1,) is recorded")
    assert outcome(relation_from_pairs, g, [("a0", "a1")]) == expected


def test_glue_refuses_images_hereditary_on_one_side_and_co_hereditary_on_the_other():
    # v0 is only hereditary in the chain v0 <- v1 (e0 enters it), v1 only co-hereditary
    chain = path_category(2, [(0, 1)])
    point = FiniteKGraph(1, ["c"], {}, {})
    with pytest.raises(NotHereditary) as exc:
        glue_on_common(point, chain, chain, {"c": "v0"}, {"c": "v1"})
    assert (exc.value.side, exc.value.escapee) == ("right", "e0")
    assert str(exc.value) == "images must be hereditary on both sides or co-hereditary on both sides"


def test_lift_is_vacuous_for_a_class_that_only_sources_reach():
    # c's source a is no vertex: a's class meets sources only, so no pair need compose
    g = FiniteKGraph(1, ["v"], {"a": ((1,), "v", "v"), "b": ((1,), "v", "v"),
                                "c": ((1,), "v", "a")}, {})
    assert check_congruence(relation_from_classes(g, [("a", "b")])).ok
