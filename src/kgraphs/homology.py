"""Exact integral cubical homology.

The chain complex of a model has one generator per unit cube; the
boundary of an n-cube is the alternating sum, over the n directions it
extends in (in increasing order), of its side-1 minus its side-0 face.
All arithmetic is exact (Python integers), so torsion comes out exactly.

Smith normal forms come from one sweep over the columns of a sparse
matrix, pivoting on +-1 entries; only the columns that never meet one go
on to a dense reduction that pivots on the least entry left, which can
also return the unimodular transforms.  homology() sweeps the boundaries
from the top down with clearing (Chen & Kerber 2011): a column of
boundary(n) whose cell was a pivot row of boundary(n + 1) is skipped.
That pivot column c has a +-1 in the cell's row and boundary(n) c = 0,
so the cell's column lies in the integer span of the kept ones (from the
last pivot back, as c is zero in earlier pivot rows) and skipping it
changes neither the rank nor the invariant factors -- which is why
ChainComplex refuses boundaries that do not compose to zero.

Boundaries stay columns from assembly to sweep: chain_complex writes
each as one {row: value} dict per column, the sweep copies each column
it reduces, and the {(row, col): value} entries are built only if read.
A matrix has one live form at a time (see SparseIntMatrix).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .core import _integral, _violations_of
from .errors import BadArgument, InvalidModel


def _integer(x) -> int:
    """x as an int; BadArgument unless x is an integral number."""
    try:
        return _integral(x)
    except (TypeError, ValueError, OverflowError):
        raise BadArgument(f"matrix shapes and entries must be integers, not {x!r}") from None


def _integer_pair(x, what: str) -> tuple[int, int]:
    try:
        i, j = x
    except (TypeError, ValueError):
        raise BadArgument(f"{what} {x!r} is not a pair of integers") from None
    return _integer(i), _integer(j)


class SparseIntMatrix:
    """A sparse integer matrix: shape plus a {(row, col): value} map.

    The matrix has one live form at a time.  One that chain_complex
    assembles starts as its columns, a {row: value} dict per column, and
    builds `entries` on first read, by column and in each column's order;
    from then on `entries` is the matrix.  `_columns()` gives the column
    view of either form, derived afresh from `entries` on every call, so a
    caller that changes `entries` sees the change in the next sweep.
    """

    def __init__(self, shape, entries=None):
        self.shape = _integer_pair(shape, "shape")
        if min(self.shape) < 0:
            raise BadArgument(f"shape {self.shape} has a negative side")
        self._cols: list[dict[int, int]] | None = None
        self._entries: dict[tuple[int, int], int] = {}
        try:
            entries = dict(entries or {})
        except (TypeError, ValueError):
            raise BadArgument("entries must map (row, col) pairs to integers") from None
        for key, v in entries.items():
            (i, j), v = _integer_pair(key, "entry"), _integer(v)
            if not (0 <= i < self.shape[0] and 0 <= j < self.shape[1]):
                raise BadArgument(f"entry ({i}, {j}) lies outside shape {self.shape}")
            if v:
                self._entries[(i, j)] = v

    @classmethod
    def _from_columns(cls, shape, cols) -> SparseIntMatrix:
        """A matrix in column form on columns already known to fit: one
        {row: nonzero value} dict per column of shape, taken as they are."""
        mat = cls.__new__(cls)
        mat.shape, mat._cols, mat._entries = shape, cols, None
        return mat

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        if self._entries is None:
            self._entries = {(i, j): v for j, col in enumerate(self._cols) for i, v in col.items()}
            self._cols = None
        return self._entries

    @entries.setter
    def entries(self, entries) -> None:
        self._cols, self._entries = None, entries

    def _columns(self):
        """(col, {row: value}) by increasing col for each column with an
        entry (live columns list the empty ones too).  Live columns are the
        matrix's own: callers copy what they change."""
        if self._entries is None:
            return enumerate(self._cols)
        cols: dict[int, dict[int, int]] = {}
        for (i, j), v in self._entries.items():
            cols.setdefault(j, {})[i] = v
        return sorted(cols.items())

    @classmethod
    def from_dense(cls, rows):
        try:
            rows = [list(r) for r in rows]
        except TypeError:
            raise BadArgument("a dense matrix must be a sequence of rows") from None
        n = len(rows[0]) if rows else 0
        if any(len(row) != n for row in rows):
            raise BadArgument("ragged matrix")
        entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
        return cls((len(rows), n), entries)

    def dense(self) -> list[list[int]]:
        m, n = self.shape
        rows = [[0] * n for _ in range(m)]
        for j, col in self._columns():
            for i, v in col.items():
                rows[i][j] = v
        return rows

    @property
    def nnz(self) -> int:
        return sum(map(len, self._cols)) if self._entries is None else len(self._entries)

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
            lower = dict(self.boundaries[n - 1]._columns())
            product: dict[tuple[int, int], int] = {}
            for j, col in self.boundaries[n]._columns():
                for k, w in col.items():
                    for i, v in lower.get(k, {}).items():
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
    come from the row form of the model's cube view (`_chain_rows`, see
    `core.Cube`), one list of face rows per dimension.  Each boundary is
    assembled in column form, one dict of a cube's faces and signs per
    column; only a column that meets a face twice (a loop's) sums them.
    """
    problems = _violations_of(model)
    if problems is None:
        raise InvalidModel(f"cannot build a chain complex from {type(model).__name__}")
    if problems:
        shown = "; ".join(str(p) for p in problems[:3])
        raise InvalidModel(f"model fails validation ({len(problems)} violations): {shown}")

    bases, rows = model._chain_rows()
    boundaries = [SparseIntMatrix((0, len(bases[0])))]
    for n in range(1, model.rank + 1):
        # per column and direction j = 1..n: hi with sign (-1)^j, then lo
        signs = [x for j in range(1, n + 1) for x in ((-1, 1) if j % 2 else (1, -1))]
        w, faces = len(signs), rows[n]
        cols = list(map(dict, map(zip, zip(*[iter(faces)] * w), repeat(signs))))
        if sum(map(len, cols)) < len(faces):  # a loop's column meets a face twice
            for j, col in enumerate(cols):
                if len(col) < w:
                    cols[j] = col = {}
                    for i, val in zip(faces[j * w:(j + 1) * w], signs):
                        if new := col.get(i, 0) + val:
                            col[i] = new
                        else:
                            del col[i]
        boundaries.append(SparseIntMatrix._from_columns((len(bases[n - 1]), len(bases[n])), cols))
    # a validated model's boundaries compose to zero (acceptance criterion 11)
    return ChainComplex._from_parts(tuple(map(tuple, bases)), tuple(boundaries))


# ---------------------------------------------------------------------------
# Smith normal form


def _snf_dense(rows, want_transforms, n=0):
    """Smith normal form of a dense list-of-lists, n columns wide if it has
    no rows: (positive diag, U, V).

    Each round moves the least nonzero entry of the block left to (t, t) and
    clears column t by row and row t by column operations, with floor
    quotients.  A remainder, or one made in row t by adding into it a row the
    pivot does not divide, is less than the pivot and starts a new round, so
    pivots shrink until one divides its block.  U and V (None unless wanted)
    take the same row and column operations as A.
    """
    A = [list(map(int, r)) for r in rows]
    m, n = len(A), len(A[0]) if A else n
    U = [[int(i == j) for j in range(m)] for i in range(m)] if want_transforms else None
    V = [[int(i == j) for j in range(n)] for i in range(n)] if want_transforms else None
    by_rows, by_cols = ((A, U), (A, V)) if want_transforms else ((A,), (A,))

    def add_row(dst, src, mult):  # row dst += mult * row src; add_row(t, t, -2) negates
        for M in by_rows:
            M[dst] = [x + mult * y for x, y in zip(M[dst], M[src])]

    def add_col(dst, src, mult):
        for M in by_cols:
            for row in M:
                row[dst] += mult * row[src]

    diag = []
    for t in range(min(m, n)):
        while True:
            least, p, q = 0, t, t
            for i in range(t, m):
                for j, v in enumerate(A[i][t:], t):
                    if v and (not least or abs(v) < least):
                        least, p, q = abs(v), i, j
                if least == 1:
                    break
            if not least:
                return diag, U, V
            if p != t:  # swap rows t and p, negating row p, by three additions
                for dst, src, mult in ((t, p, 1), (p, t, -1), (t, p, 1)):
                    add_row(dst, src, mult)
            if q != t:
                for dst, src, mult in ((t, q, 1), (q, t, -1), (t, q, 1)):
                    add_col(dst, src, mult)
            piv = A[t][t]
            for i in range(t + 1, m):
                if c := A[i][t]:
                    add_row(i, t, -(c // piv))
            for j in range(t + 1, n):
                if c := A[t][j]:
                    add_col(j, t, -(c // piv))
            if any(A[i][t] for i in range(t + 1, m)) or any(A[t][t + 1:]):
                continue
            bad = next((i for i in range(t + 1, m) for x in A[i][t + 1:] if x % piv), None)
            if bad is None:
                break
            add_row(t, bad, 1)
        if A[t][t] < 0:
            add_row(t, t, -2)
        diag.append(A[t][t])
    return diag, U, V


def _snf_sparse(columns, cleared=()):
    """Rank, invariant factors and pivot rows of a sparse integer matrix,
    given as (col, {row: value}) by increasing col (`_columns()`).

    Sweeps the columns, skipping those in ``cleared``: each is copied,
    reduced by the +-1 pivots found so far, then pivots on its first
    remaining +-1 entry in the order the entries were written.  A
    pivot column is zero in every earlier pivot row, so reducing by it
    brings in only later ones and ends.  Columns left without a unit are
    reduced again by all the pivots after the sweep (later pivots can still
    meet them) and what is left of them goes to the dense routine.
    """
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
    for j, col in columns:
        if not col or j in cleared:
            continue
        col = reduce(dict(col))
        for row, v in col.items():
            if v == 1 or v == -1:
                pivots[row] = (col.pop(row), col)
                break
        else:
            aside.append(col)
    core = [col for col in map(reduce, aside) if col]
    live_rows = sorted({i for col in core for i in col})
    tail, _, _ = _snf_dense([[col.get(i, 0) for col in core] for i in live_rows], False)
    diag = [1] * len(pivots) + tail
    return len(diag), diag, pivots.keys()


def smith_normal_form(matrix, compute_transforms: bool = False) -> SNFResult:
    """Smith normal form of an integer matrix.

    Accepts a SparseIntMatrix or a dense sequence of rows.  With
    ``compute_transforms`` the dense algorithm runs and the result carries
    unimodular U (rows) and V (columns) with U * M * V diagonal.
    """
    sparse = matrix if isinstance(matrix, SparseIntMatrix) else SparseIntMatrix.from_dense(matrix)
    m, n = sparse.shape
    if compute_transforms:
        diag, U, V = _snf_dense(sparse.dense(), True, n)
        U, V = (tuple(map(tuple, X)) for X in (U, V))
        return SNFResult(tuple(diag), len(diag), (m, n), U, V)
    rank, diag, _ = _snf_sparse(sparse._columns())
    return SNFResult(tuple(diag), rank, (m, n))


def homology(cx: ChainComplex) -> list[HomologyGroup]:
    """H_0 .. H_top of the complex, as Betti number plus invariant factors,
    from one sweep per boundary with clearing (see the module notes)."""
    if not isinstance(cx, ChainComplex):
        raise BadArgument(f"homology needs a ChainComplex, not {type(cx).__name__}")
    ranks, torsion, cleared = [0] * (cx.top + 2), [()] * (cx.top + 2), ()
    for n in range(cx.top, 0, -1):
        ranks[n], diag, cleared = _snf_sparse(cx.boundaries[n]._columns(), cleared)
        torsion[n] = tuple(d for d in diag if d > 1)
    return [
        HomologyGroup(cx.dim(n) - ranks[n] - ranks[n + 1], torsion[n + 1])
        for n in range(cx.top + 1)
    ]


def euler_characteristic(cx_or_model) -> int:
    """Alternating sum of cube counts (equals the alternating Betti sum)."""
    cx = cx_or_model if isinstance(cx_or_model, ChainComplex) else chain_complex(cx_or_model)
    return sum((-1) ** n * cx.dim(n) for n in range(cx.top + 1))
