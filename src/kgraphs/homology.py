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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle

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
    """A sparse integer matrix: shape plus a {(row, col): value} map."""

    def __init__(self, shape, entries=None):
        self.shape = _integer_pair(shape, "shape")
        if min(self.shape) < 0:
            raise BadArgument(f"shape {self.shape} has a negative side")
        self.entries: dict[tuple[int, int], int] = {}
        try:
            entries = dict(entries or {})
        except (TypeError, ValueError):
            raise BadArgument("entries must map (row, col) pairs to integers") from None
        for key, v in entries.items():
            (i, j), v = _integer_pair(key, "entry"), _integer(v)
            if not (0 <= i < self.shape[0] and 0 <= j < self.shape[1]):
                raise BadArgument(f"entry ({i}, {j}) lies outside shape {self.shape}")
            if v:
                self.entries[(i, j)] = v

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
    come from the row form of the model's cube view (`_chain_rows`, see
    `core.Cube`), one list of face rows per dimension.
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
        mat = SparseIntMatrix((len(bases[n - 1]), len(bases[n])))
        entries = mat.entries
        # per column and direction j = 1..n: hi with sign (-1)^j, then lo
        signs = cycle([x for j in range(1, n + 1) for x in ((-1, 1) if j % 2 else (1, -1))])
        cols = [col for col in range(len(bases[n])) for _ in range(2 * n)]
        for key, val in zip(zip(rows[n], cols), signs):
            if new := entries.get(key, 0) + val:
                entries[key] = new
            else:  # a loop's face met twice
                del entries[key]
        boundaries.append(mat)
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


def _snf_sparse(entries, cleared=()):
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
    rank, diag, _ = _snf_sparse(sparse.entries)
    return SNFResult(tuple(diag), rank, (m, n))


def homology(cx: ChainComplex) -> list[HomologyGroup]:
    """H_0 .. H_top of the complex, as Betti number plus invariant factors,
    from one sweep per boundary with clearing (see the module notes)."""
    if not isinstance(cx, ChainComplex):
        raise BadArgument(f"homology needs a ChainComplex, not {type(cx).__name__}")
    ranks, torsion, cleared = [0] * (cx.top + 2), [()] * (cx.top + 2), ()
    for n in range(cx.top, 0, -1):
        mat = cx.boundaries[n]
        ranks[n], diag, cleared = _snf_sparse(mat.entries, cleared)
        torsion[n] = tuple(d for d in diag if d > 1)
    return [
        HomologyGroup(cx.dim(n) - ranks[n] - ranks[n + 1], torsion[n + 1])
        for n in range(cx.top + 1)
    ]


def euler_characteristic(cx_or_model) -> int:
    """Alternating sum of cube counts (equals the alternating Betti sum)."""
    cx = cx_or_model if isinstance(cx_or_model, ChainComplex) else chain_complex(cx_or_model)
    return sum((-1) ** n * cx.dim(n) for n in range(cx.top + 1))
