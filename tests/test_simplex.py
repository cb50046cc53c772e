"""Placings, their partial order, tail factors, and the simplex builders."""

import hashlib
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from kgraphs import (
    FiniteKGraph,
    basis_point,
    build_simplex,
    build_sphere,
    build_wedge,
    cartesian_product,
    chain_complex,
    embed,
    enumerate_placings,
    height,
    homology,
    leq,
    placing_id,
    quotient,
    relation_from_pairs,
    sphere_pole,
    tail_factor,
)
from kgraphs.core import _find_violations
from kgraphs.errors import BadArgument, HeightExceeded, OutOfBox, OutOfRange
from kgraphs.export import export_json
from kgraphs.simplex import _indices, _up_sets, is_placing

from helpers import ordered_bell, sphere_pairs, table_order, vertex_point


def test_placing_counts_match_fubini_recurrence():
    # A000670 values 1, 3, 13, 75, 541 — but recompute them rather than
    # hard-coding, via the binomial recurrence.  Placings of {0..k} are
    # ordered set partitions of k+1 elements.
    for k in range(5):
        assert len(enumerate_placings(k)) == ordered_bell(k + 1)


def test_enumerate_rejects_non_placings():
    # (0,2): level 1 skipped, so 2 != #{i : f(i) < 2} = 1
    assert not is_placing((0, 2))
    assert is_placing((0, 1)) and is_placing((1, 0)) and is_placing((0, 0))
    for k in range(4):
        for f in enumerate_placings(k):
            assert is_placing(f)


def test_k1_placings_explicitly():
    assert enumerate_placings(1) == [(0, 0), (0, 1), (1, 0)]


def test_placing_id_blocks():
    assert placing_id((0, 0)) == "0"
    assert placing_id((0, 1)) == "{0,1}"
    assert placing_id((1, 0)) == "{1,0}"
    # ties at a level are written largest element first
    assert placing_id((0, 2, 0)) == "{20,1}"
    assert placing_id((0, 1, 2)) == "{0,1,2}"
    assert placing_id((0, 1, 1)) == "{0,21}"


def test_placing_ids_unique():
    for k in range(5):
        ids = [placing_id(f) for f in enumerate_placings(k)]
        assert len(ids) == len(set(ids))


def test_height():
    assert height((0, 0)) == (0,)
    assert height((0, 1)) == (1,)
    # (0,2,0) occupies levels 0 and 2 only, so its height vector is (0,1)
    assert height((0, 2, 0)) == (0, 1)
    assert height((0, 1, 1)) == (1, 0)


def test_tail_factor_worked_example():
    assert tail_factor((0, 1, 2), (1, 0)) == (0, 1, 1)


def test_tail_factor_errors():
    with pytest.raises(HeightExceeded):
        tail_factor((0, 1, 0), (1, 1))  # h = (1,0), z = (1,1) not below it
    with pytest.raises(ValueError):
        tail_factor((0, 1), (2,))


def test_placing_helpers_refuse_values_that_are_not_integral():
    assert not is_placing((0, 1.5))
    for f in ((0, 1.9), "01"):
        with pytest.raises(OutOfRange, match="not a function table"):
            placing_id(f)
    with pytest.raises(OutOfRange, match="not a function table"):
        height((0, 1.7))
    with pytest.raises(BadArgument, match="z must be a 0-1 vector"):
        tail_factor((0, 1), (1.5,))
    # integral values of other types stay accepted, as core._integral has it
    assert is_placing((0.0, 1.0)) and placing_id((0, 1.0)) == "{0,1}"
    assert height((0, Fraction(1))) == (1,) and tail_factor((0, 1), (1.0,)) == (0, 1)


def test_tail_factor_is_the_unique_lower_placing_with_that_height():
    # brute force over all g <= f; the heart of the unique-factorisation
    # argument is that exactly one such g exists per height vector
    for k in range(4):
        placings = enumerate_placings(k)
        for f in placings:
            hf = height(f)
            for z in product(*(range(b + 1) for b in hf)):
                below = [g for g in placings if leq(g, f) and height(g) == z]
                assert len(below) == 1
                assert tail_factor(f, z) == below[0]


def test_leq_is_a_partial_order():
    placings = enumerate_placings(2)
    for f in placings:
        assert leq(f, f)
    for f in placings:
        for g in placings:
            if leq(f, g) and leq(g, f):
                assert f == g


def test_basis_points_lie_on_the_simplex():
    for k in range(5):
        for f in enumerate_placings(k):
            for n in sorted(set(f) - {0}):
                p = basis_point(f, n)
                assert sum(p) == 1
                assert all(x >= 0 for x in p)
    with pytest.raises(OutOfRange):
        basis_point((0, 1), 0)
    with pytest.raises(OutOfRange):
        basis_point((0, 1), 2)


def test_embed_worked_value():
    # the vertex {20,1} of the rank-2 simplex sits at (1/2, 0, 1/2)
    f = (0, 2, 0)
    assert placing_id(f) == "{20,1}"
    assert embed(f, height(f)) == (Fraction(1, 2), 0, Fraction(1, 2))


def test_embed_centre_and_box():
    assert embed((0, 1), (0,)) == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(OutOfBox):
        embed((0, 1), (2,))  # coordinate above 1
    with pytest.raises(OutOfBox):
        embed((0, 0), (1,))  # positive coordinate where the height is 0
    with pytest.raises(OutOfBox):
        embed((0, 1), (1, 1))  # wrong arity


def test_embed_injective_on_quarter_grid():
    grid = [Fraction(n, 4) for n in range(5)]
    for k in range(3):
        for f in enumerate_placings(k):
            h = height(f)
            pts = {}
            for t in product(*(grid if b else [Fraction(0)] for b in h)):
                p = embed(f, t)
                assert p not in pts or pts[p] == t
                pts[p] = t


def test_simplex_cell_counts():
    # vertices = placings; the morphism count is the number of comparable
    # pairs, which we recount here by brute force
    for k in range(4):
        g = build_simplex(k)
        placings = enumerate_placings(k)
        assert len(g.vertices) == len(placings)
        pairs = sum(leq(f, h) for f in placings for h in placings)
        assert len(g.morphism_ids()) == pairs


def test_simplex_validates():
    for k in range(4):
        assert _find_violations(build_simplex(k)) == []  # the full scan, not the kept verdict


def test_simplex_embedding_present():
    g = build_simplex(2)
    assert g.embedding is not None
    assert set(g.embedding) == set(g.vertices)
    assert g.embedding["{20,1}"] == (Fraction(1, 2), 0, Fraction(1, 2))


def test_sphere_cell_counts_k2():
    g = build_sphere(2)
    from kgraphs import cubes

    assert len(cubes(g, 0)) == 14
    assert len(cubes(g, 1)) == 24
    assert len(cubes(g, 2)) == 12


def test_sphere_poles_distinct():
    g = build_sphere(2)
    p0, p1 = sphere_pole(2, 0), sphere_pole(2, 1)
    assert p0 != p1
    assert p0 in g.vertices and p1 in g.vertices


def test_sphere_embedding_lifts_poles_apart():
    g = build_sphere(2)
    e = g.embedding
    assert e[sphere_pole(2, 0)][-1] != e[sphere_pole(2, 1)][-1]
    # boundary vertices sit at height zero in the extra coordinate
    others = [v for v in g.vertices if v not in (sphere_pole(2, 0), sphere_pole(2, 1))]
    assert all(e[v][-1] == 0 for v in others)


def test_wedge_validates_and_counts():
    g = build_wedge(2, 3)
    assert _find_violations(g) == []  # the full scan, not the kept verdict
    # three spheres sharing one pole: 3*(14-1) + 1 vertices
    assert len(g.vertices) == 3 * 13 + 1
    with pytest.raises(ValueError):
        build_wedge(2, 0)


@pytest.mark.parametrize("build, args", [
    *((build_simplex, (k,)) for k in range(5)),
    *((build_sphere, (k,)) for k in range(5)),
    *((build_wedge, (k, n)) for k in range(4) for n in (1, 2, 10)),
])
def test_a_certified_verdict_is_what_the_full_scan_finds(build, args):
    # simplices keep the verdict () by construction, spheres and wedges by
    # the quotient lemma, unscanned
    g = build(*args)
    assert g._violations == ()
    assert _find_violations(g) == []


def test_enumerate_matches_filtered_tables():
    # the definition: every table in {0..k}^(k+1) whose every value equals
    # the count of strictly smaller values, in lexicographic order; and
    # is_placing agrees with that definition on every table
    for k in range(6):
        tables = list(product(range(k + 1), repeat=k + 1))
        literal = [all(v == sum(w < v for w in f) for v in f) for f in tables]
        assert [is_placing(f) for f in tables] == literal
        assert enumerate_placings(k) == [f for f, ok in zip(tables, literal) if ok]


def test_up_sets_match_pointwise_order():
    for k in range(4):
        placings = enumerate_placings(k)
        ups = _up_sets(placings)
        for i, f in enumerate(placings):
            assert _indices(ups[i]) == [j for j, g in enumerate(placings) if leq(f, g)]


# sha256 of export_json(build_simplex(k)) and export_json(build_sphere(k)),
# recorded from the builders that compared every pair of placings with leq
# and closed the sphere relation by saturation
BUILD_DIGESTS = {
    ("simplex", 0): "c8c7b4dd80b36ff41178a2229296b3c1bbc654b30364a0624aa66d1b3a471a7c",
    ("simplex", 1): "9d414e9092f2ed44018524e768fa1a84900048b53cd7d6e6bcb11ae370692235",
    ("simplex", 2): "1bec8e7a2b99e6438c8cfab6d12816dead1d1254c65a2c01ff76e6304dbee3af",
    ("simplex", 3): "7538181615768c043171f373a47edd3254860ba8521be9d82523b905ea53bb02",
    ("simplex", 4): "9232f854719b0732ca6b7ded26df143398ee58dc3e5cec8feb600d4973cd31e1",
    ("sphere", 0): "3ce54e2802e156825a3b61119de01fc24c11512ce690521c8d5b735b2f35db0e",
    ("sphere", 1): "2bc73fe78dff5720fe1f55bdb05ddf28a0d7b7768ddf8740775b5d08b476062f",
    ("sphere", 2): "e0d8c941b786f87f3aaa480c3180ce695576bf228492d72f9f17ff5ac9784948",
    ("sphere", 3): "fbb0df3d6a8a45991e9a9f7514d3e13a922f85a51ef1b2b8070de13c30a3917d",
    ("sphere", 4): "21e64c626a91712f57f46a90da735d36619c536703fd0f87d7bbdd89a317056a",
}


@pytest.mark.parametrize("what, k", sorted(BUILD_DIGESTS))
def test_builder_output_bytes_are_pinned(what, k):
    build = {"simplex": build_simplex, "sphere": build_sphere}[what]
    text = export_json(build(k))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BUILD_DIGESTS[what, k]


@pytest.mark.parametrize("k", range(5))
def test_glued_sphere_is_the_quotient_of_the_product(k):
    # the glued sphere has the ids, numbers and table order of the
    # quotient of {0,1} x Sigma_k by the sphere relation
    product = cartesian_product(FiniteKGraph(0, ["0", "1"], {}, {}), build_simplex(k))
    q = quotient(product, relation_from_pairs(product, sphere_pairs(k), mode="explicit"))
    g = build_sphere(k)
    q.embedding = g.embedding
    assert export_json(g) == export_json(q)
    assert g.morphism_ids() == q.morphism_ids()
    assert table_order(g) == table_order(q)
    assert _find_violations(g) == []


def test_vertex_points_match_embed():
    for k in range(5):
        for f in enumerate_placings(k):
            assert vertex_point(f) == embed(f, height(f))


def test_sigma_5_sizes_and_validation():
    # the size that the integer-indexed core is for: counts of Sigma_5, its
    # composable triples counted from the table, and a clean full scan
    g = build_simplex(5)
    table = g.compose_table()
    ending_in = Counter(b for _, b in table)  # entries (a, b) by their b
    assert len(g.vertices) == 4683 and len(g) == 66_605
    assert sum(ending_in[b] for b, _ in table) == 398_160
    assert _find_violations(g) == []
    # a finite k-graph has no loops, so no face repeats in a column
    cx = chain_complex(g)
    assert [len(b) for b in cx.bases] == [4683, 16622, 23220, 15960, 5400, 720]
    for n in range(1, 6):
        per_column = Counter(j for _, j in cx.boundary(n).entries)
        assert per_column == Counter({j: 2 * n for j in range(cx.dim(n))})
    assert [cx.boundary(n).nnz for n in range(1, 6)] == [33_244, 92_880, 95_760, 43_200, 7200]
    assert [str(h) for h in homology(cx)] == ["Z", "0", "0", "0", "0", "0"]
