"""Dense matrices over the exact scalar ring.

Everything the identity checks need: ring operations, Kronecker products,
anticommutators, exact inversion and exact linear solving by Gaussian
elimination over the radical-extended fraction field, plus numeric
evaluation for the sampling backend.  A numeric matrix is a list of rows of
Python ``complex``; the few helpers the float cross-checks need (products,
sums, scaling, the max-|z| norm and an elimination solver) work on those.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .scalars import (
    GaussRational,
    NotInvertible,
    PointSet,
    RadicalScalar,
    ZERO,
    _coerce,
)


class ShapeMismatch(Exception):
    pass


class Matrix:
    """Immutable dense matrix with RadicalScalar entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        if rows <= 0 or cols <= 0:
            raise ShapeMismatch("matrix dimensions must be positive")
        data = tuple(data)
        if len(data) != rows * cols:
            raise ShapeMismatch("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.data = data

    @staticmethod
    def from_rows(rows) -> "Matrix":
        r = len(rows)
        c = len(rows[0])
        flat = []
        for row in rows:
            if len(row) != c:
                raise ShapeMismatch("ragged rows")
            flat.extend(_coerce(x) for x in row)
        return Matrix(r, c, flat)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        z = RadicalScalar.zero()
        return Matrix(rows, cols, [z] * (rows * cols))

    @staticmethod
    def identity(n: int) -> "Matrix":
        z = RadicalScalar.zero()
        one = RadicalScalar.one()
        return Matrix(n, n, [one if i == j else z for i in range(n) for j in range(n)])

    def __getitem__(self, ij) -> RadicalScalar:
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i: int):
        return self.data[i * self.cols : (i + 1) * self.cols]

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition shape mismatch")
        return Matrix(
            self.rows, self.cols, [a + b for a, b in zip(self.data, other.data)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("subtraction shape mismatch")
        return Matrix(
            self.rows, self.cols, [a - b for a, b in zip(self.data, other.data)]
        )

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self.data])

    def scale(self, c) -> "Matrix":
        c = _coerce(c)
        return Matrix(self.rows, self.cols, [c * a for a in self.data])

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            [self[i, j] for j in range(self.cols) for i in range(self.rows)],
        )

    def trace(self) -> RadicalScalar:
        if self.rows != self.cols:
            raise ShapeMismatch("trace of non-square matrix")
        t = RadicalScalar.zero()
        for i in range(self.rows):
            t = t + self[i, i]
        return t

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def map(self, fn) -> "Matrix":
        return Matrix(self.rows, self.cols, [fn(a) for a in self.data])

    def evaluate(self, points: PointSet) -> list[CMatrix]:
        """The numeric matrix at each point, each entry evaluated over the
        point set once."""
        entries = [s.values_with_flag(points)[0] for s in self.data]
        return [[list(at[i : i + self.cols]) for i in range(0, len(at), self.cols)] for at in zip(*entries)]

    def rank(self) -> int:
        """Rank over the scalar field, by exact row reduction."""
        return len(_row_reduce([list(self.row(i)) for i in range(self.rows)], self.cols))

    def inverse(self) -> "Matrix":
        """Exact inverse by Gauss-Jordan elimination over the scalar field."""
        if self.rows != self.cols:
            raise ShapeMismatch("inverse of non-square matrix")
        n = self.rows
        aug = [list(self.row(i)) + list(Matrix.identity(n).row(i)) for i in range(n)]
        if len(_row_reduce(aug, n)) < n:
            raise NotInvertible("matrix is singular")
        return Matrix(n, n, [aug[i][n + j] for i in range(n) for j in range(n)])

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"

    def __str__(self) -> str:
        rows = []
        for i in range(self.rows):
            rows.append("[" + ", ".join(str(x) for x in self.row(i)) + "]")
        return "[" + "; ".join(rows) + "]"


def max_abs_at_points(values, points: PointSet) -> tuple[list[float], bool]:
    """Largest |v| over the scalars ``values`` at each of ``points``, and
    whether any radicand evaluated onto the branch cut.

    Each distinct scalar (scalars are interned, so keyed by identity) is
    evaluated once over the point set.  Scalars are taken in the order
    ``values`` first meets them, so each point's ``max`` is the one a scan
    of ``values`` gives, NaN included.  With no values the list of maxima
    is empty.
    """
    columns = []
    flagged = False
    for s in {id(s): s for s in values}.values():
        vals, flag = s.values_with_flag(points)
        columns.append([abs(v) for v in vals])
        flagged = flagged or flag
    return [max(at_x) for at_x in zip(*columns)], flagged


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    # zero is one interned object, so an identity test finds it
    bcols = [b.data[j :: b.cols] for j in range(b.cols)]
    out = []
    for i in range(a.rows):
        arow = a.row(i)
        for bcol in bcols:
            s = ZERO
            for aik, bkj in zip(arow, bcol):
                if aik is not ZERO and bkj is not ZERO:
                    s = s + aik * bkj
            out.append(s)
    return Matrix(a.rows, b.cols, out)


def anticommutator(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ShapeMismatch("bracket needs two square matrices of equal size")
    return matmul(a, b) + matmul(b, a)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: block (i, j) equals a[i, j] * b."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    z = RadicalScalar.zero()
    data = [z] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a[i, j]
            if aij.is_zero():
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    bkl = b[k, l]
                    if bkl.is_zero():
                        continue
                    data[(i * b.rows + k) * cols + (j * b.cols + l)] = aij * bkl
    return Matrix(rows, cols, data)


def _row_reduce(aug: list[list[RadicalScalar]], ncols: int) -> list[int]:
    """Gauss-Jordan reduce the first ``ncols`` columns of ``aug`` in place.

    Each pivot row is scaled to a leading 1 and the pivot column is cleared
    in every other row; returns the pivot columns, whose rows come first.
    """
    m = len(aug)
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        pivot_row = next((rr for rr in range(r, m) if not aug[rr][col].is_zero()), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        inv = aug[r][col].inverse()
        aug[r] = [inv * x for x in aug[r]]
        for rr in range(m):
            if rr != r and not aug[rr][col].is_zero():
                factor = aug[rr][col]
                aug[rr] = [x - factor * y for x, y in zip(aug[rr], aug[r])]
        pivots.append(col)
        if len(pivots) == m:
            break
    return pivots


def solve_exact(a: Matrix, rhs: list[list]) -> list[tuple[bool, list[RadicalScalar] | None]]:
    """Solve a x = b exactly for each b in ``rhs``.

    [a | b_1 ... b_k] is row-reduced once over the scalar field.  Returns
    one (solvable, solution or None) per b; in a solution, free variables
    are set to zero.
    """
    m, n = a.rows, a.cols
    if any(len(b) != m for b in rhs):
        raise ShapeMismatch("rhs length does not match row count")
    aug = [list(a.row(i)) + [_coerce(b[i]) for b in rhs] for i in range(m)]
    pivots = _row_reduce(aug, n)
    out = []
    for j in range(n, n + len(rhs)):
        if any(not aug[rr][j].is_zero() for rr in range(len(pivots), m)):
            out.append((False, None))
            continue
        solution = [RadicalScalar.zero()] * n
        for row_idx, col in enumerate(pivots):
            solution[col] = aug[row_idx][j]
        out.append((True, solution))
    return out


# ---------------------------------------------------------------------------
# Numeric matrices: lists of rows of Python complex
# ---------------------------------------------------------------------------

CMatrix = list[list[complex]]

# a pivot below this fraction of the largest entry counts as zero in
# numeric_solve_residuals (rounding leaves ~1e-16 where exact elimination
# leaves 0)
PIVOT_CUTOFF = 1e-10


def max_abs(m: CMatrix) -> float:
    """Largest |z| over the entries of a numeric matrix."""
    return max((abs(z) for row in m for z in row), default=0.0)


def cmatmul(a: CMatrix, b: CMatrix) -> CMatrix:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def cadd(a: CMatrix, b: CMatrix) -> CMatrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def csub(a: CMatrix, b: CMatrix) -> CMatrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def cscale(c: complex, a: CMatrix) -> CMatrix:
    return [[c * x for x in row] for row in a]


def cidentity(n: int) -> CMatrix:
    return [[1 + 0j if i == j else 0j for j in range(n)] for i in range(n)]


def numeric_solve_residuals(a: CMatrix, rhs: CMatrix) -> list[float]:
    """||a x - b||_2 for each b in ``rhs``, x solving a x = b by elimination.

    ``a`` is reduced once for all right-hand sides, by Gaussian elimination
    with partial pivoting.  A column whose largest remaining entry is below
    ``PIVOT_CUTOFF`` times the largest entry of ``a`` has no pivot, so a
    rank-deficient ``a`` is handled: its free variables are set to zero.  A
    consistent system gets a residual at rounding level; an inconsistent one
    keeps a residual of the size of its inconsistency.
    """
    m, n, k = len(a), len(a[0]), len(rhs)
    cut = PIVOT_CUTOFF * max_abs(a)
    aug = [list(a[i]) + [b[i] for b in rhs] for i in range(m)]
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        if r == m:
            break
        best = max(range(r, m), key=lambda i: abs(aug[i][col]))
        if abs(aug[best][col]) <= cut:
            continue
        aug[r], aug[best] = aug[best], aug[r]
        prow = aug[r]
        for i in range(r + 1, m):
            factor = aug[i][col] / prow[col]
            if factor:
                aug[i] = [x - factor * y for x, y in zip(aug[i], prow)]
        pivots.append(col)
    residuals = []
    for j in range(k):
        x = [0j] * n
        for r in reversed(range(len(pivots))):
            col = pivots[r]
            row = aug[r]
            acc = row[n + j] - sum(row[c] * x[c] for c in pivots[r + 1 :])
            x[col] = acc / row[col]
        res = [sum(aij * xj for aij, xj in zip(row, x)) - b for row, b in zip(a, rhs[j])]
        residuals.append(math.hypot(*(p for z in res for p in (z.real, z.imag))))
    return residuals


@cache
def pauli_matrices() -> tuple[Matrix, Matrix, Matrix]:
    """sigma_1, sigma_2, sigma_3 in the convention sigma_1 sigma_2 = i sigma_3,
    built once (a Matrix is immutable)."""
    i = GaussRational(0, 1)
    one = Fraction(1)
    return (
        Matrix.from_rows([[0, 1], [1, 0]]),
        Matrix.from_rows(
            [
                [RadicalScalar.zero(), RadicalScalar.constant(-i)],
                [RadicalScalar.constant(i), RadicalScalar.zero()],
            ]
        ),
        Matrix.from_rows([[one, 0], [0, -one]]),
    )
