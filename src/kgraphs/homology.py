"""Exact integral cubical homology.

The chain complex of a model has one generator per unit cube; the
boundary of an n-cube is the alternating sum, over the n directions it
extends in (in increasing order), of its side-1 minus its side-0 face.
All arithmetic is exact (Python integers), so torsion comes out exactly.

Smith normal forms are computed in two gears: a sparse eliminator that
chews through the +-1 entries boundary matrices are full of (choosing
pivots by Markowitz cost, so fill-in stays small), then a dense textbook
reduction on whatever small core is left.  The dense path can also
return the unimodular transforms when asked.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .core import (
    FiniteKGraph,
    Skeleton2Graph,
    cubes,
    validate_kgraph,
    validate_skeleton,
)
from .errors import InvalidModel


class SparseIntMatrix:
    """A sparse integer matrix: shape plus a {(row, col): value} map."""

    def __init__(self, shape, entries=None):
        self.shape = (int(shape[0]), int(shape[1]))
        self.entries: dict[tuple[int, int], int] = {}
        if entries:
            for (i, j), v in dict(entries).items():
                v = int(v)
                if v:
                    self.entries[(int(i), int(j))] = v

    @classmethod
    def from_dense(cls, rows):
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        out = cls((len(rows), n))
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("ragged matrix")
            for j, v in enumerate(row):
                if v:
                    out.entries[(i, j)] = int(v)
        return out

    def dense(self) -> list[list[int]]:
        m, n = self.shape
        rows = [[0] * n for _ in range(m)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def __repr__(self):
        return f"SparseIntMatrix(shape={self.shape}, nnz={self.nnz})"


@dataclass(frozen=True)
class HomologyGroup:
    """A finitely generated abelian group Z^betti + sum of Z/d, with the
    torsion orders in divisibility order (invariant factors)."""

    betti: int
    torsion: tuple[int, ...] = ()

    def __str__(self) -> str:
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class SNFResult:
    """diagonal d_1 | d_2 | ... (positive), rank, and optionally the
    unimodular U, V with U * M * V equal to the diagonal matrix."""

    diagonal: tuple[int, ...]
    rank: int
    shape: tuple[int, int]
    U: tuple[tuple[int, ...], ...] | None = None
    V: tuple[tuple[int, ...], ...] | None = None


class ChainComplex:
    """Bases (cube keys) per dimension and the boundary matrices.

    boundary(n) maps C_n to C_{n-1}; boundary(0) is the empty map.
    """

    def __init__(self, bases, boundaries):
        self.bases: tuple[tuple, ...] = tuple(tuple(b) for b in bases)
        self.boundaries: tuple[SparseIntMatrix, ...] = tuple(boundaries)
        if len(self.boundaries) != len(self.bases):
            raise ValueError("need one boundary matrix per dimension (the 0th empty)")
        for n in range(1, len(self.bases)):
            want = (len(self.bases[n - 1]), len(self.bases[n]))
            if self.boundaries[n].shape != want:
                raise ValueError(f"boundary {n} has shape {self.boundaries[n].shape}, expected {want}")

    @property
    def top(self) -> int:
        return len(self.bases) - 1

    def dim(self, n: int) -> int:
        if 0 <= n <= self.top:
            return len(self.bases[n])
        return 0

    def boundary(self, n: int) -> SparseIntMatrix:
        if 1 <= n <= self.top:
            return self.boundaries[n]
        return SparseIntMatrix((0, self.dim(n)))

    def __repr__(self):
        return f"ChainComplex(dims={[len(b) for b in self.bases]})"


def chain_complex(model) -> ChainComplex:
    """The cubical chain complex of a validated model.

    Raises InvalidModel when the model fails validation -- boundary
    matrices of a broken category would be meaningless.  Cubes and faces
    come from the model's cube view (see `core.Cube`).
    """
    if isinstance(model, Skeleton2Graph):
        problems = validate_skeleton(model)
    elif isinstance(model, FiniteKGraph):
        problems = validate_kgraph(model)
    else:
        raise InvalidModel(f"cannot build a chain complex from {type(model).__name__}")
    if problems:
        shown = "; ".join(str(p) for p in problems[:3])
        raise InvalidModel(f"model fails validation ({len(problems)} violations): {shown}")

    top = model.rank
    bases = [[] for _ in range(top + 1)]
    for c in cubes(model):
        bases[c.dim].append(c.key)

    boundaries = [SparseIntMatrix((0, len(bases[0])))]
    for n in range(1, top + 1):
        row_of = {key: i for i, key in enumerate(bases[n - 1])}
        mat = SparseIntMatrix((len(bases[n - 1]), len(bases[n])))
        for col, key in enumerate(bases[n]):
            faces = model._unit_faces(key).values()
            for j, (hi_key, lo_key, _) in enumerate(faces, start=1):
                sign = -1 if j % 2 else 1
                hi, lo = row_of[hi_key], row_of[lo_key]
                for row, val in ((hi, sign), (lo, -sign)):
                    new = mat.entries.get((row, col), 0) + val
                    if new:
                        mat.entries[(row, col)] = new
                    else:
                        mat.entries.pop((row, col), None)
        boundaries.append(mat)
    return ChainComplex(bases, boundaries)


# ---------------------------------------------------------------------------
# Smith normal form


def _snf_dense(rows, want_transforms):
    """Textbook SNF on a dense list-of-lists.  Returns (diag, U, V)."""
    A = [list(map(int, r)) for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)] if want_transforms else None
    V = [[int(i == j) for j in range(n)] for i in range(n)] if want_transforms else None

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        if V is not None:
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, mult):  # row_dst += mult * row_src
        Ad, As = A[dst], A[src]
        for j in range(n):
            Ad[j] += mult * As[j]
        if U is not None:
            Ud, Us = U[dst], U[src]
            for j in range(m):
                Ud[j] += mult * Us[j]

    def add_col(dst, src, mult):
        for row in A:
            row[dst] += mult * row[src]
        if V is not None:
            for row in V:
                row[dst] += mult * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        if U is not None:
            U[i] = [-x for x in U[i]]

    diag = []
    t = 0
    while t < m and t < n:
        # find the smallest-magnitude nonzero entry in the working block
        pivot = None
        best = None
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        while True:
            # clear column t with row operations, improving the pivot as we go
            dirty = True
            while dirty:
                dirty = False
                if A[t][t] < 0:
                    negate_row(t)
                for i in range(t + 1, m):
                    if A[i][t]:
                        q = A[i][t] // A[t][t]
                        add_row(i, t, -q)
                        if A[i][t]:  # remainder beats the pivot; promote it
                            swap_rows(t, i)
                            dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(j, t, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        break
            else:
                # row and column are clear; enforce divisibility downstream
                piv = A[t][t]
                culprit = None
                for i in range(t + 1, m):
                    row = A[i]
                    for j in range(t + 1, n):
                        if row[j] % piv:
                            culprit = i
                            break
                    if culprit is not None:
                        break
                if culprit is None:
                    break
                add_row(t, culprit, 1)
            # else: go round again with the dirty column

        diag.append(A[t][t])
        t += 1

    return diag, U, V


def _snf_sparse(entries, m, n):
    """Rank and invariant factors of a sparse integer matrix.

    Eliminates +-1 pivots chosen by Markowitz cost (least fill) with a
    lazy heap, then hands the leftover core to the dense routine.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (i, j), v in entries.items():
        if v:
            rows.setdefault(i, {})[j] = int(v)
            cols.setdefault(j, set()).add(i)

    def cost(i, j):
        return (len(rows[i]) - 1) * (len(cols[j]) - 1)

    heap = []
    for i, row in rows.items():
        for j, v in row.items():
            if v in (1, -1):
                heapq.heappush(heap, (cost(i, j), i, j))

    ones = 0
    while heap:
        c, i, j = heapq.heappop(heap)
        v = rows.get(i, {}).get(j)
        if v not in (1, -1):
            continue
        real = cost(i, j)
        if real > c:
            heapq.heappush(heap, (real, i, j))
            continue
        # eliminate column j using row i, then retire both
        pivot_row = rows.pop(i)
        for j2 in pivot_row:
            cols[j2].discard(i)
        for i2 in list(cols[j]):
            c2 = rows[i2].pop(j, 0)
            cols[j].discard(i2)
            if not c2:
                continue
            mult = -c2 * v  # row_i2 += mult * pivot_row  clears its j entry
            row2 = rows[i2]
            for j2, w in pivot_row.items():
                if j2 == j:
                    continue
                new = row2.get(j2, 0) + mult * w
                if new:
                    row2[j2] = new
                    cols[j2].add(i2)
                    if new in (1, -1):
                        heapq.heappush(heap, (cost(i2, j2), i2, j2))
                else:
                    row2.pop(j2, None)
                    cols[j2].discard(i2)
            if not row2:
                del rows[i2]
        cols.pop(j, None)
        ones += 1

    # dense cleanup of whatever has no unit entries left
    live_rows = sorted(i for i in rows if rows[i])
    live_cols = sorted({j for i in live_rows for j in rows[i]})
    if live_rows:
        jindex = {j: a for a, j in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in live_rows]
        for a, i in enumerate(live_rows):
            for j, v in rows[i].items():
                dense[a][jindex[j]] = v
        tail, _, _ = _snf_dense(dense, False)
    else:
        tail = []
    diag = [1] * ones + [abs(d) for d in tail if d]
    return len(diag), diag


def smith_normal_form(matrix, compute_transforms: bool = False) -> SNFResult:
    """Smith normal form of an integer matrix.

    Accepts a SparseIntMatrix or a dense sequence of rows.  With
    ``compute_transforms`` the dense algorithm runs and the result carries
    unimodular U (rows) and V (columns) with U * M * V diagonal.
    """
    if isinstance(matrix, SparseIntMatrix):
        sparse = matrix
    else:
        sparse = SparseIntMatrix.from_dense(matrix)
    m, n = sparse.shape

    if compute_transforms:
        diag, U, V = _snf_dense(sparse.dense(), True)
        diag = [abs(d) for d in diag if d]
        return SNFResult(
            tuple(diag),
            len(diag),
            (m, n),
            tuple(tuple(r) for r in U),
            tuple(tuple(r) for r in V),
        )

    rank, diag = _snf_sparse(sparse.entries, m, n)
    return SNFResult(tuple(diag), rank, (m, n))


def homology(cx: ChainComplex) -> list[HomologyGroup]:
    """H_0 .. H_top of the complex, as Betti number plus invariant factors."""
    snfs = [smith_normal_form(cx.boundary(n)) for n in range(cx.top + 2)]
    out = []
    for n in range(cx.top + 1):
        rank_in = snfs[n + 1].rank if n + 1 <= cx.top else 0
        rank_out = snfs[n].rank if n >= 1 else 0
        betti = cx.dim(n) - rank_out - rank_in
        torsion = tuple(d for d in (snfs[n + 1].diagonal if n + 1 <= cx.top else ()) if d > 1)
        out.append(HomologyGroup(betti, torsion))
    return out


def euler_characteristic(cx_or_model) -> int:
    """Alternating sum of cube counts (equals the alternating Betti sum)."""
    cx = cx_or_model if isinstance(cx_or_model, ChainComplex) else chain_complex(cx_or_model)
    return sum((-1) ** n * cx.dim(n) for n in range(cx.top + 1))
