"""Exact integral cubical homology.

The chain complex of a model has one generator per unit cube; the
boundary of an n-cube is the alternating sum, over the n directions it
extends in (in increasing order), of its side-1 minus its side-0 face.
All arithmetic is exact (Python integers), so torsion comes out exactly.

Smith normal forms come from one sweep over the columns of a sparse
matrix, pivoting on +-1 entries; only the columns that never meet one go
on to a dense textbook reduction, which can also return the unimodular
transforms.  homology() sweeps the boundaries from the top down with
clearing (Chen & Kerber 2011): a column of boundary(n) whose cell was a
pivot row of boundary(n + 1) is skipped.  That pivot column c has a +-1
in the cell's row and boundary(n) c = 0, so the cell's column lies in the
integer span of the kept ones (from the last pivot back, as c is zero in
earlier pivot rows) and skipping it changes neither the rank nor the
invariant factors -- which is why ChainComplex refuses boundaries that
do not compose to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FiniteKGraph,
    Skeleton2Graph,
    cubes,
    validate_kgraph,
    validate_skeleton,
)
from .errors import BadArgument, InvalidModel


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
                raise BadArgument("ragged matrix")
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
            raise BadArgument("need one boundary matrix per dimension (the 0th empty)")
        for n in range(1, len(self.bases)):
            want = (len(self.bases[n - 1]), len(self.bases[n]))
            if self.boundaries[n].shape != want:
                raise BadArgument(f"boundary {n} has shape {self.boundaries[n].shape}, expected {want}")
        for n in range(2, len(self.bases)):
            lower: dict[int, list[tuple[int, int]]] = {}  # column -> entries
            for (i, k), v in self.boundaries[n - 1].entries.items():
                lower.setdefault(k, []).append((i, v))
            product: dict[tuple[int, int], int] = {}
            for (k, j), w in self.boundaries[n].entries.items():
                for i, v in lower.get(k, ()):
                    product[i, j] = product.get((i, j), 0) + v * w
            if any(product.values()):
                raise BadArgument(f"boundary {n - 1} composed with boundary {n} is not zero")

    @classmethod
    def _from_parts(cls, bases, boundaries) -> ChainComplex:
        """A complex on parts already known to fit: tuples of cube keys, one
        matrix of the right shape per basis, consecutive ones composing to 0."""
        cx = cls.__new__(cls)
        cx.bases, cx.boundaries = bases, boundaries
        return cx

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
    # a validated model's boundaries compose to zero (acceptance criterion 11)
    return ChainComplex._from_parts(tuple(map(tuple, bases)), tuple(boundaries))


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


def _snf_sparse(entries, m, n, cleared=()):
    """Rank, invariant factors and pivot rows of a sparse integer matrix.

    Sweeps the columns in increasing index, skipping those in ``cleared``:
    each is reduced by the +-1 pivots found so far, then pivots on its
    first remaining +-1 entry in the order the entries were written.  A
    pivot column is zero in every earlier pivot row, so reducing by it
    brings in only later ones and ends.  Columns left without a unit are
    reduced again by all the pivots after the sweep (later pivots can still
    meet them) and what is left of them goes to the dense routine.
    """
    cols: dict[int, dict[int, int]] = {}
    for (i, j), v in entries.items():
        if j not in cleared:
            cols.setdefault(j, {})[i] = v
    pivots: dict[int, tuple[int, dict[int, int]]] = {}  # row -> (unit, rest of column)

    def reduce(col):
        hits = [i for i in col if i in pivots]
        while hits:
            for hit in hits:
                if c := col.pop(hit, 0):  # an earlier step may have cancelled it
                    unit, rest = pivots[hit]
                    mult = -c * unit  # col += mult * pivot column clears hit
                    for i, w in rest.items():
                        new = col.get(i, 0) + mult * w
                        if new:
                            col[i] = new
                        else:
                            del col[i]
            hits = [i for i in col if i in pivots]
        return col

    aside = []
    for j in sorted(cols):
        col = reduce(cols[j])
        for row, v in col.items():
            if v == 1 or v == -1:
                pivots[row] = (col.pop(row), col)
                break
        else:
            aside.append(col)
    core = [col for col in map(reduce, aside) if col]
    live_rows = sorted({i for col in core for i in col})
    tail, _, _ = _snf_dense([[col.get(i, 0) for col in core] for i in live_rows], False)
    diag = [1] * len(pivots) + [abs(d) for d in tail if d]
    return len(diag), diag, pivots.keys()


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

    rank, diag, _ = _snf_sparse(sparse.entries, m, n)
    return SNFResult(tuple(diag), rank, (m, n))


def homology(cx: ChainComplex) -> list[HomologyGroup]:
    """H_0 .. H_top of the complex, as Betti number plus invariant factors,
    from one sweep per boundary with clearing (see the module notes)."""
    ranks, torsion, cleared = [0] * (cx.top + 2), [()] * (cx.top + 2), ()
    for n in range(cx.top, 0, -1):
        mat = cx.boundaries[n]
        ranks[n], diag, cleared = _snf_sparse(mat.entries, *mat.shape, cleared)
        torsion[n] = tuple(d for d in diag if d > 1)
    return [
        HomologyGroup(cx.dim(n) - ranks[n] - ranks[n + 1], torsion[n + 1])
        for n in range(cx.top + 1)
    ]


def euler_characteristic(cx_or_model) -> int:
    """Alternating sum of cube counts (equals the alternating Betti sum)."""
    cx = cx_or_model if isinstance(cx_or_model, ChainComplex) else chain_complex(cx_or_model)
    return sum((-1) ** n * cx.dim(n) for n in range(cx.top + 1))
