"""Acceptance suite: twelve criteria, one test (and one printed line) each.

Each criterion is deterministic and finishes well inside a minute on a
laptop.  Oracles are independent of the code paths they certify: counts
come from a recurrence, homology is cross-checked through sympy's exact
rank and Smith normal form, extension sets are recounted with bitmask
brute force.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from kgraphs import (
    build_simplex,
    build_sphere,
    build_wedge,
    cartesian_product,
    chain_complex,
    check_congruence,
    compact_surface,
    cubes,
    euler_characteristic,
    homology,
    mce_set,
    quotient,
    relation_from_classes,
    relation_from_pairs,
    validate_kgraph,
)
from kgraphs.cli import main
from kgraphs.core import FiniteKGraph
from kgraphs.simplex import (
    basis_point,
    embed,
    enumerate_placings,
    height,
    leq,
    placing_id,
    tail_factor,
)

from helpers import parts, random_grid_category, random_path_category, sphere_pairs

FULL = lambda k: tuple([1] * k)


def done(n, slug):
    print(f"criterion {n:02d} [{slug}]: PASS")


def groups(model):
    return [(h.betti, h.torsion) for h in homology(chain_complex(model))]


def test_criterion_01_placing_counts(capsys):
    got = []
    for k in range(5):
        assert main(["placings", "--k", str(k), "--count"]) == 0
        got.append(int(capsys.readouterr().out))
    assert got == [1, 3, 13, 75, 541]
    done(1, "placing counts 1,3,13,75,541")


def test_criterion_02_simplex_axioms():
    for k in range(5):
        g = build_simplex(k)
        # g keeps its verdict unscanned: validate a fresh copy of it made
        # through the public constructor
        assert validate_kgraph(FiniteKGraph(g.rank, *parts(g))) == []
        degrees = {g.d(m) for m in g.morphism_ids()}
        expect = {n for n in product((0, 1), repeat=k)}
        assert degrees == expect  # d is onto {n <= (1,...,1)}
    done(2, "simplex k-graph axioms, k <= 4")


def test_criterion_03_simplex_homology():
    for k in range(5):
        g = build_simplex(k)
        hs = groups(g)
        assert hs[0] == (1, ())
        assert all(h == (0, ()) for h in hs[1:])
        assert euler_characteristic(chain_complex(g)) == 1
    done(3, "simplex homology is a point, k <= 4")


def test_criterion_04_sphere_homology():
    for k in range(5):
        g = build_sphere(k)
        hs = groups(g)
        if k == 0:
            assert hs == [(2, ())]  # two points
        else:
            assert hs[0] == (1, ()) and hs[k] == (1, ())
            assert all(h == (0, ()) for h in hs[1:k])
        assert euler_characteristic(chain_complex(g)) == 1 + (-1) ** k
    g2 = build_sphere(2)
    assert len(cubes(g2, 0)) == 14
    assert len(cubes(g2, 1)) == 24
    assert len(cubes(g2, 2)) == 12
    done(4, "sphere homology Z...Z and k=2 cells 14/24/12")


def test_criterion_05_wedge_homology():
    for k in range(1, 4):
        for n in range(1, 6):
            hs = groups(build_wedge(k, n))
            assert hs[0] == (1, ())
            assert hs[k] == (n, ())
            assert all(h == (0, ()) for h in hs[1:k])
    # rank 0: the basepoint copy of Z and the Z^n of the wedge both live
    # in H_0, which is all there is
    for n in range(1, 6):
        assert groups(build_wedge(0, n)) == [(n + 1, ())]
    done(5, "wedge of spheres H_k = Z^n")


def sympy_homology(model):
    """Independent homology: Betti by exact rank-nullity over QQ, torsion
    from sympy's Smith normal form over ZZ."""
    cx = chain_complex(model)
    ranks = {}
    for n in range(1, cx.top + 1):
        m = sympy.Matrix(cx.boundary(n).dense())
        ranks[n] = m.rank() if m.rows and m.cols else 0
    out = []
    for n in range(cx.top + 1):
        betti = cx.dim(n) - ranks.get(n, 0) - ranks.get(n + 1, 0)
        torsion = ()
        if n + 1 <= cx.top:
            m = sympy.Matrix(cx.boundary(n + 1).dense())
            if m.rows and m.cols:
                d = sympy_snf(m, domain=sympy.ZZ)
                diag = [abs(d[i, i]) for i in range(min(d.rows, d.cols))]
                torsion = tuple(int(x) for x in diag if x > 1)
        out.append((betti, torsion))
    return out


def test_criterion_06_surface_homology_two_paths():
    expected = {
        "S": [(1, ()), (0, ()), (1, ())],
        "T": [(1, ()), (2, ()), (1, ())],
        "K": [(1, ()), (1, (2,)), (0, ())],
        "P": [(1, ()), (0, (2,)), (0, ())],
    }
    for tag, want in expected.items():
        ms = compact_surface(tag)
        mine = groups(ms.skeleton)
        oracle = sympy_homology(ms.skeleton)
        assert mine == want == oracle
        # chi cross-check: b0 - b1 + b2 equals the alternating cell count
        cx = chain_complex(ms.skeleton)
        chi = sum((-1) ** n * cx.dim(n) for n in range(3))
        assert mine[0][0] - mine[1][0] + mine[2][0] == chi
    done(6, "surface catalog homology, two independent paths")


def test_criterion_07_connected_sum_classification():
    # orientable: genus-g torus sums
    for g in range(1, 4):
        hs = groups(compact_surface(",".join(["T"] * g)).skeleton)
        assert hs == [(1, ()), (2 * g, ()), (1, ())]
    # non-orientable sums: H_2 dies, a single 2-torsion class appears
    assert groups(compact_surface("T,K").skeleton) == [(1, ()), (3, (2,)), (0, ())]
    assert groups(compact_surface("T,P").skeleton) == [(1, ()), (2, (2,)), (0, ())]
    assert groups(compact_surface("T,T,P").skeleton) == [(1, ()), (4, (2,)), (0, ())]
    # chi additivity over every ordered catalog pair
    chi = lambda sk: euler_characteristic(chain_complex(sk))
    single = {t: compact_surface(t) for t in "STKP"}
    for ta, tb in product("STKP", repeat=2):
        s = compact_surface(f"{ta},{tb}")
        assert chi(s.skeleton) == chi(single[ta].skeleton) + chi(single[tb].skeleton) - 2
    done(7, "classification at desk scale + chi additivity")


def sphere_product_and_relation(k):
    two = FiniteKGraph(rank=0, vertices=("0", "1"), morphisms={}, compose={})
    prod = cartesian_product(two, build_simplex(k))
    return prod, relation_from_pairs(prod, sphere_pairs(k))


def test_criterion_08_congruence_and_mutation_testing():
    for k in range(4):
        prod, rel = sphere_product_and_relation(k)
        assert check_congruence(rel).ok
    # mutation testing at k = 2: merge two extra classes and expect the
    # checker (or the quotient validator) to refuse almost every time
    prod, rel = sphere_product_and_relation(2)
    base = [list(c) for c in rel.classes()]
    rng = random.Random(0xACCE55)
    rejected = accepted = 0
    for _ in range(200):
        i, j = rng.sample(range(len(base)), 2)
        mutated = [c for idx, c in enumerate(base) if idx not in (i, j)]
        mutated.append(base[i] + base[j])
        mrel = relation_from_classes(prod, mutated)
        verdict = check_congruence(mrel)
        if not verdict.ok:
            rejected += 1
            continue
        q = quotient(prod, mrel)
        if validate_kgraph(q):
            rejected += 1
        else:
            # survivor: re-verify it is a genuine congruence, exhaustively
            accepted += 1
            assert check_congruence(mrel).ok
    assert rejected + accepted == 200
    assert rejected >= 190, f"only {rejected}/200 mutants rejected"
    done(8, f"congruence conditions + mutations ({rejected}/200 rejected)")


def test_criterion_09_mce_at_most_one():
    for k in range(1, 4):
        placings = enumerate_placings(k)
        idx = {f: i for i, f in enumerate(placings)}
        hbits = [sum(b << i for i, b in enumerate(height(f))) for f in placings]

        # ext[f] = bitmask over g of "the morphism (0,g) extends (0,f)":
        # f <= g and f is the only placing below g with its height
        ext = [0] * len(placings)
        by_height_mask = {}
        for gi, g in enumerate(placings):
            by_height_mask.setdefault(hbits[gi], 0)
            by_height_mask[hbits[gi]] |= 1 << gi
            bucket = {}
            for m in placings:
                if leq(m, g):
                    bucket.setdefault(height(m), []).append(m)
            for ms in bucket.values():
                if len(ms) == 1:
                    ext[idx[ms[0]]] |= 1 << gi

        universe = range(len(placings))
        checked = 0
        for size in range(1, 5):
            for F in combinations(universe, size):
                join = 0
                cand = -1
                for fi in F:
                    join |= hbits[fi]
                    cand &= ext[fi]
                cand &= by_height_mask.get(join, 0)
                assert bin(cand).count("1") <= 1
                checked += 1
        assert checked == sum(
            _ncr(len(placings), s) for s in range(1, 5)
        )

        # spot-check the library against the oracle on random families.
        # the pair 0 <= 0 is the identity of vertex "0", named by the vertex
        mid = lambda p: "0" if not any(p) else f"(0,{placing_id(p)})"
        g = build_simplex(k)
        rng = random.Random(k)
        for _ in range(100):
            size = rng.randint(1, min(4, len(placings)))
            F = rng.sample(universe, size)
            ids = [mid(placings[i]) for i in F]
            join = 0
            cand = -1
            for fi in F:
                join |= hbits[fi]
                cand &= ext[fi]
            cand &= by_height_mask.get(join, 0)
            oracle = sorted(
                mid(placings[gi]) for gi in universe if cand >> gi & 1
            )
            assert sorted(mce_set(g, ids)) == oracle
    done(9, "MCE families have at most one member, k <= 3")


def _ncr(n, r):
    from math import comb

    return comb(n, r)


def test_criterion_10_tail_factor_unique():
    for k in range(1, 4):
        placings = enumerate_placings(k)
        for f in placings:
            hf = height(f)
            for z in product(*(range(b + 1) for b in hf)):
                below = [g for g in placings if leq(g, f) and height(g) == z]
                assert len(below) == 1
                assert tail_factor(f, z) == below[0]
    done(10, "tail factors are the unique lower placings")


def _sparse_product_is_zero(a, b):
    """Entries of a @ b, computed straight from the sparse dicts."""
    rows_of_b = {}
    for (j, kk), v in b.entries.items():
        rows_of_b.setdefault(j, []).append((kk, v))
    acc = {}
    for (i, j), v in a.entries.items():
        for kk, w in rows_of_b.get(j, ()):
            acc[(i, kk)] = acc.get((i, kk), 0) + v * w
    return all(v == 0 for v in acc.values())


def boundary_square_vanishes(model):
    cx = chain_complex(model)
    for n in range(2, cx.top + 1):
        assert _sparse_product_is_zero(cx.boundary(n - 1), cx.boundary(n))


def test_criterion_11_boundary_soundness():
    for k in range(5):
        boundary_square_vanishes(build_simplex(k))
        boundary_square_vanishes(build_sphere(k))
    for k in range(1, 4):
        boundary_square_vanishes(build_wedge(k, 3))
    for spec in ("S", "T", "K", "P", "T,T", "T,K", "T,P", "T,T,P"):
        boundary_square_vanishes(compact_surface(spec).skeleton)
    rng = random.Random(0xB0B)
    for i in range(100):
        g = random_path_category(rng) if i % 2 else random_grid_category(rng)
        assert validate_kgraph(g) == []
        boundary_square_vanishes(g)
    # permutation invariance: shuffle every chain basis and recompute
    from kgraphs import ChainComplex, SparseIntMatrix

    for model in (build_sphere(2), compact_surface("K").skeleton):
        cx = chain_complex(model)
        perms = []
        bases = []
        prng = random.Random(17)
        for basis in cx.bases:
            p = list(range(len(basis)))
            prng.shuffle(p)
            perms.append(p)
            bases.append([basis[x] for x in p])
        mats = [cx.boundaries[0]]
        for n in range(1, cx.top + 1):
            old = cx.boundary(n).dense()
            pr, pc = perms[n - 1], perms[n]
            mats.append(
                SparseIntMatrix.from_dense(
                    [[old[pr[i]][pc[j]] for j in range(len(pc))] for i in range(len(pr))]
                )
            )
        assert homology(ChainComplex(bases=bases, boundaries=mats)) == homology(cx)
    done(11, "boundary of boundary vanishes everywhere tested")


def test_criterion_12_embedding_spot_checks():
    f = (0, 2, 0)
    assert placing_id(f) == "{20,1}"
    assert embed(f, height(f)) == (Fraction(1, 2), Fraction(0), Fraction(1, 2))
    for k in range(5):
        for g in enumerate_placings(k):
            for n in sorted(set(g) - {0}):
                assert sum(basis_point(g, n)) == 1
    quarter = [Fraction(n, 4) for n in range(5)]
    for k in range(4):
        for g in enumerate_placings(k):
            h = height(g)
            seen = {}
            for t in product(*(quarter if b else [Fraction(0)] for b in h)):
                p = embed(g, t)
                assert seen.setdefault(p, t) == t
    done(12, "embedding worked values and injectivity")
