"""Smith normal form against sympy, boundary soundness, homology checks."""

import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from kgraphs import (
    ChainComplex,
    SparseIntMatrix,
    build_simplex,
    build_sphere,
    build_wedge,
    cartesian_product,
    chain_complex,
    compact_surface,
    cubes,
    euler_characteristic,
    face,
    homology,
    smith_normal_form,
    validate_kgraph,
)
from kgraphs.surfaces import basic_surface
from kgraphs.errors import InvalidModel
from kgraphs.core import FiniteKGraph, Skeleton2Graph

from helpers import (
    component_count,
    face_based_boundaries,
    random_grid_category,
    random_path_category,
    reference_snf_sparse,
    time_limit,
)


def sympy_diagonal(rows):
    """Invariant factors of an integer matrix, via sympy.  Oracle."""
    m = sympy.Matrix(rows)
    if m.rows == 0 or m.cols == 0:
        return []
    d = sympy_snf(m, domain=sympy.ZZ)
    out = [abs(d[i, i]) for i in range(min(d.rows, d.cols))]
    return [int(x) for x in out if x != 0]


def check_matrix(rows):
    res = smith_normal_form(SparseIntMatrix.from_dense(rows))
    assert [x for x in res.diagonal if x != 0] == sympy_diagonal(rows)
    # divisibility chain
    for a, b in zip(res.diagonal, res.diagonal[1:]):
        if a and b:
            assert b % a == 0


def test_snf_small_known():
    check_matrix([[2, 0], [0, 3]])  # -> 1, 6
    res = smith_normal_form(SparseIntMatrix.from_dense([[2, 0], [0, 3]]))
    assert res.diagonal == (1, 6)


def test_snf_zero_and_empty():
    # the diagonal carries only the nonzero invariant factors
    assert smith_normal_form(SparseIntMatrix((0, 5), {})).diagonal == ()
    zero = smith_normal_form(SparseIntMatrix((3, 3), {}))
    assert zero.diagonal == () and zero.rank == 0


@pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (0, 0)])
def test_snf_transforms_of_an_empty_matrix_are_identities(m, n):
    res = smith_normal_form(SparseIntMatrix((m, n)), compute_transforms=True)
    identity = lambda size: tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
    assert res.diagonal == () and res.U == identity(m) and res.V == identity(n)


def test_snf_classic_torsion():
    # boundary of the projective-plane style relation: diag ends in a 2
    check_matrix([[1, 1], [1, -1]])
    res = smith_normal_form(SparseIntMatrix.from_dense([[1, 1], [1, -1]]))
    assert res.diagonal == (1, 2)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 6),
    st.integers(1, 6),
)
def test_snf_random_matches_sympy(seed, m, n):
    rng = random.Random(seed)
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    check_matrix(rows)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_snf_transforms_are_unimodular(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
    res = smith_normal_form(SparseIntMatrix.from_dense(rows), compute_transforms=True)
    U = sympy.Matrix(res.U)
    V = sympy.Matrix(res.V)
    M = sympy.Matrix(m, n, lambda i, j: rows[i][j])
    D = U * M * V
    for i in range(m):
        for j in range(n):
            expect = res.diagonal[i] if i == j and i < len(res.diagonal) else 0
            assert D[i, j] == expect
    assert abs(U.det()) == 1 and abs(V.det()) == 1


@pytest.mark.parametrize("seed", range(60))
def test_dense_random_matrices_reduce_fast_and_exactly(seed):
    # Up to 25x25 with every entry drawn: the sweep finds few units, so the
    # dense core gets up to 23 columns of 9-17-bit entries.  A reduction whose
    # entries blow up runs for minutes on a third of these.
    rng = random.Random(seed)
    m, n = rng.randint(1, 25), rng.randint(1, 25)
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    with time_limit(3):
        swept = smith_normal_form(SparseIntMatrix.from_dense(rows))
    with time_limit(3):
        res = smith_normal_form(SparseIntMatrix.from_dense(rows), compute_transforms=True)
    want = sympy_diagonal(rows)
    assert list(swept.diagonal) == want and list(res.diagonal) == want
    U, V = sympy.Matrix(res.U), sympy.Matrix(res.V)
    D = sympy.zeros(m, n)
    for i, d in enumerate(res.diagonal):
        D[i, i] = d
    assert U * sympy.Matrix(rows) * V == D
    assert abs(U.det()) == 1 and abs(V.det()) == 1


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 14),
    st.integers(1, 14),
    st.sampled_from([0.1, 0.25, 0.5]),
)
def test_column_sweep_matches_the_reference_sparse_snf(seed, m, n, density):
    rng = random.Random(seed)
    entries = {
        (i, j): rng.choice((-3, -2, -1, 1, 2, 3))
        for i in range(m) for j in range(n) if rng.random() < density
    }
    res = smith_normal_form(SparseIntMatrix((m, n), entries))
    assert (res.rank, list(res.diagonal)) == reference_snf_sparse(entries, m, n)


def test_sparse_matrix_roundtrip():
    rows = [[0, 2, 0], [1, 0, -3]]
    sm = SparseIntMatrix.from_dense(rows)
    assert sm.dense() == rows
    assert sm.nnz == 3


# -- chain complexes ---------------------------------------------------------


def boundary_squares_to_zero(cx: ChainComplex):
    for n in range(2, cx.top + 1):
        a = sympy.Matrix(cx.boundary(n - 1).dense())
        b = sympy.Matrix(cx.boundary(n).dense())
        if a.rows and b.cols:
            assert (a * b).is_zero_matrix


def test_boundary_composition_vanishes_on_simplexes():
    for k in range(4):
        boundary_squares_to_zero(chain_complex(build_simplex(k)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_boundary_composition_vanishes_on_random_grids(seed):
    rng = random.Random(seed)
    cx = chain_complex(random_grid_category(rng))
    boundary_squares_to_zero(cx)


def test_homology_of_an_interval_and_point():
    g = FiniteKGraph(rank=1, vertices=["a", "b"],
                     morphisms={"e": ((1,), "b", "a")}, compose={})
    h = homology(chain_complex(g))
    assert [str(x) for x in h] == ["Z", "0"]
    pt = FiniteKGraph(rank=0, vertices=["p"], morphisms={}, compose={})
    assert [str(x) for x in homology(chain_complex(pt))] == ["Z"]


def test_h0_counts_components():
    rng = random.Random(11)
    for _ in range(20):
        g = random_path_category(rng)
        cx = chain_complex(g)
        assert homology(cx)[0].betti == component_count(g)


def test_homology_invariant_under_basis_permutation():
    g = build_simplex(2)
    cx = chain_complex(g)
    rng = random.Random(5)
    for _ in range(5):
        bases = []
        perms = []
        for basis in cx.bases:
            p = list(range(len(basis)))
            rng.shuffle(p)
            perms.append(p)
            bases.append([basis[i] for i in p])
        mats = [cx.boundaries[0]]
        for n in range(1, cx.top + 1):
            old = cx.boundary(n).dense()
            pr, pc = perms[n - 1], perms[n]
            shuffled = [[old[pr[i]][pc[j]] for j in range(len(pc))]
                        for i in range(len(pr))]
            mats.append(SparseIntMatrix.from_dense(shuffled))
        cx2 = ChainComplex(bases=bases, boundaries=mats)
        assert [(h.betti, h.torsion) for h in homology(cx2)] == \
               [(h.betti, h.torsion) for h in homology(cx)]


def test_invalid_model_is_rejected_before_homology():
    def broken():
        return FiniteKGraph(
            rank=1, vertices=["a", "b"],
            morphisms={"e": ((1,), "b", "a"), "f": ((1,), "b", "a"),
                       "ef?": ((2,), "b", "a")},
            compose={},
        )

    # the same message whether or not the graph was validated first
    messages = []
    for validate_first in (False, True):
        g = broken()
        if validate_first:
            assert validate_kgraph(g)
        with pytest.raises(InvalidModel) as exc:
            chain_complex(g)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("model fails validation (")


def test_euler_characteristic_matches_alternating_cell_sum():
    for k in range(4):
        g = build_simplex(k)
        cx = chain_complex(g)
        total = sum((-1) ** n * len(cx.bases[n]) for n in range(cx.top + 1))
        assert euler_characteristic(cx) == total == 1


def oracle_models():
    """Sigma_k and S^k for k <= 4, a wedge of eight 3-spheres, {0,1} x Sigma_3
    and every other model of acceptance criterion 11."""
    two = FiniteKGraph(rank=0, vertices=("0", "1"), morphisms={}, compose={})
    for k in range(5):
        yield build_simplex(k)
        yield build_sphere(k)
    yield build_wedge(3, 8)
    yield cartesian_product(two, build_simplex(3))
    for k in range(1, 4):
        yield build_wedge(k, 3)
    for spec in ("S", "T", "K", "P", "T,T", "T,K", "T,P", "T,T,P"):
        yield compact_surface(spec).skeleton
    yield from loop_skeletons()
    rng = random.Random(0xB0B)
    for i in range(100):
        yield random_path_category(rng) if i % 2 else random_grid_category(rng)


def loop_skeletons():
    """A one-vertex torus and an annulus.  Their loops make a column meet
    the same face twice, so the assembly's entries cancel."""
    torus = Skeleton2Graph(["v"], {"f": ("v", "v")}, {"g": ("v", "v")}, [("f", "g", "g", "f")])
    annulus = Skeleton2Graph(["a", "b"], {"f": ("a", "a"), "h": ("b", "b")},
                             {"g": ("a", "b")}, [("f", "g", "g", "h")])
    return torus, annulus


def test_repeated_faces_cancel_on_loop_skeletons():
    torus, annulus = loop_skeletons()
    cx = chain_complex(torus)
    assert [str(h) for h in homology(cx)] == ["Z", "Z^2", "Z"]
    assert [m.nnz for m in cx.boundaries] == [0, 0, 0]
    assert [str(h) for h in homology(chain_complex(annulus))] == ["Z", "Z", "0"]


def test_faces_name_the_rows_that_chain_complex_reads():
    for model in oracle_models():
        bases, rows = model._chain_rows()
        for n in range(1, model.rank + 1):
            cs = cubes(model, n)
            assert [c.key for c in cs] == list(bases[n])
            named = [face(model, c, i, side).key for c in cs
                     for i, x in enumerate(c.degree, start=1) if x == 1 for side in (1, 0)]
            assert named == [bases[n - 1][row] for row in rows[n]]


def test_boundaries_match_the_face_based_assembly():
    for model in oracle_models():
        cx = chain_complex(model)
        bases, boundaries = face_based_boundaries(model)
        assert list(cx.bases) == [tuple(b) for b in bases]
        for mat, ref in zip(cx.boundaries, boundaries, strict=True):
            assert mat.shape == ref.shape
            assert list(mat.entries.items()) == list(ref.entries.items())


def column_view(mat: SparseIntMatrix):
    """(col, [(row, value), ...]) per column with an entry, in order."""
    return [(j, list(col.items())) for j, col in mat._columns() if col]


def test_the_column_form_reads_as_its_entries_and_the_sweep_leaves_it_unchanged():
    for model in oracle_models():
        cx = chain_complex(model)
        mats = cx.boundaries
        assert all(m._entries is None for m in mats[1:])  # assembled as columns
        before = [(m.nnz, repr(m), m.dense(), column_view(m)) for m in mats]
        groups = homology(cx)
        ChainComplex(cx.bases, mats)  # the composition check reads columns too
        assert [column_view(m) for m in mats] == [b[3] for b in before]
        entries = [list(m.entries.items()) for m in mats]
        assert entries == [[((i, j), v) for j, col in b[3] for i, v in col] for b in before]
        assert [(m.nnz, repr(m), m.dense(), column_view(m)) for m in mats] == before
        assert homology(cx) == groups


def test_a_change_to_entries_reaches_the_next_smith_normal_form():
    # one live form, never a stale copy: the entries read from an assembled
    # boundary, or those of a hand-built matrix swept before, are the matrix
    assembled = chain_complex(build_sphere(1)).boundary(1)
    assert smith_normal_form(assembled).diagonal == (1, 1, 1)
    assembled.entries.clear()
    assembled.entries[(0, 0)] = 5
    assert smith_normal_form(assembled).diagonal == (5,)
    assert assembled.nnz == 1 and assembled.dense()[0] == [5, 0, 0, 0]
    hand_built = SparseIntMatrix.from_dense([[1, 0], [0, 1]])
    assert smith_normal_form(hand_built).diagonal == (1, 1)
    hand_built.entries[(1, 1)] = 4
    assert smith_normal_form(hand_built).diagonal == (1, 4)
    hand_built.entries = {(0, 0): 3}
    assert smith_normal_form(hand_built).diagonal == (3,) and hand_built.nnz == 1



def reference_homology(cx: ChainComplex):
    """(betti, torsion) per dimension from the pre-sweep SNF of every
    boundary, with no column cleared."""
    snf = [reference_snf_sparse(b.entries, *b.shape) for b in map(cx.boundary, range(cx.top + 2))]
    return [
        (cx.dim(n) - snf[n][0] - snf[n + 1][0], tuple(d for d in snf[n + 1][1] if d > 1))
        for n in range(cx.top + 1)
    ]


def test_homology_with_clearing_matches_the_reference_per_boundary():
    s1 = build_sphere(1)
    extra = [compact_surface("P,P,K").skeleton,
             cartesian_product(build_sphere(2), s1),
             cartesian_product(build_wedge(1, 2), s1)]
    for model in [*oracle_models(), *extra]:
        cx = chain_complex(model)
        assert [(h.betti, h.torsion) for h in homology(cx)] == reference_homology(cx)


def test_homology_with_clearing_on_a_sphere_with_every_basis_shuffled():
    cx = chain_complex(build_sphere(4))
    rng = random.Random(4)
    perms = [rng.sample(range(len(b)), len(b)) for b in cx.bases]  # new index -> old
    where = [{old: new for new, old in enumerate(p)} for p in perms]
    mats = [cx.boundaries[0]]
    for n in range(1, cx.top + 1):
        mat = cx.boundary(n)
        mats.append(SparseIntMatrix(mat.shape, {
            (where[n - 1][i], where[n][j]): v for (i, j), v in mat.entries.items()
        }))
    shuffled = ChainComplex([[b[i] for i in p] for b, p in zip(cx.bases, perms)], mats)
    groups = [(h.betti, h.torsion) for h in homology(shuffled)]
    assert groups == reference_homology(shuffled) == [(1, ()), (0, ()), (0, ()), (0, ()), (1, ())]


# -- products against the Kunneth formula --------------------------------------


def kunneth(hx, hy):
    """Betti numbers of X x Y from torsion-free factors:
    b_n = sum over i + j = n of b_i(X) b_j(Y)."""
    assert all(not h.torsion for h in hx + hy)
    out = [0] * (len(hx) + len(hy) - 1)
    for i, a in enumerate(hx):
        for j, b in enumerate(hy):
            out[i + j] += a.betti * b.betti
    return out


@pytest.mark.parametrize(
    "x, y, expected",
    [
        ((build_sphere, 1), (build_sphere, 1), ["Z", "Z^2", "Z"]),
        ((build_sphere, 2), (build_sphere, 1), ["Z", "Z", "Z", "Z"]),
        ((build_sphere, 2), (build_sphere, 2), ["Z", "0", "Z^2", "0", "Z"]),
        ((build_sphere, 3), (build_sphere, 1), ["Z", "Z", "0", "Z", "Z"]),
        ((build_wedge, 1, 2), (build_sphere, 1), ["Z", "Z^3", "Z^2"]),
    ],
    ids=["S1xS1", "S2xS1", "S2xS2", "S3xS1", "(S1vS1)xS1"],
)
def test_products_obey_kunneth_and_euler_multiplicativity(x, y, expected):
    a, b = x[0](*x[1:]), y[0](*y[1:])
    p = cartesian_product(a, b)
    assert validate_kgraph(p) == []
    cx, ca, cb = chain_complex(p), chain_complex(a), chain_complex(b)
    groups = homology(cx)
    assert [str(h) for h in groups] == expected
    assert [h.betti for h in groups] == kunneth(homology(ca), homology(cb))
    assert all(not h.torsion for h in groups)
    assert euler_characteristic(cx) == euler_characteristic(ca) * euler_characteristic(cb)


def test_torus_category_and_skeleton_agree():
    s1 = build_sphere(1)
    torus = homology(chain_complex(cartesian_product(s1, s1)))
    assert torus == homology(chain_complex(basic_surface("T").skeleton))


def test_chain_complex_refuses_what_is_not_a_model():
    with pytest.raises(InvalidModel, match=r"^cannot build a chain complex from int$"):
        chain_complex(5)


def test_snf_transforms_of_a_rank_deficient_matrix():
    # the pivot search finds no entry left after the first pivot
    rows = [[2, 4], [1, 2]]
    res = smith_normal_form(rows, compute_transforms=True)
    assert res.diagonal == (1,) and list(res.diagonal) == sympy_diagonal(rows)
    U, V = sympy.Matrix(res.U), sympy.Matrix(res.V)
    assert U * sympy.Matrix(rows) * V == sympy.Matrix([[1, 0], [0, 0]])
    assert abs(U.det()) == 1 and abs(V.det()) == 1
