"""Dense matrices over the exact scalar ring.

Everything the identity checks need: ring operations, Kronecker products,
commutators, exact inversion and exact linear solving by Gaussian
elimination over the radical-extended fraction field, plus numeric
evaluation into numpy arrays for the sampling backend.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .scalars import (
    GaussRational,
    NotInvertible,
    RadicalScalar,
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

    @staticmethod
    def unit(n: int, i: int, j: int) -> "Matrix":
        """Matrix unit e^i_j: single 1 in row i, column j."""
        z = RadicalScalar.zero()
        data = [z] * (n * n)
        data[i * n + j] = RadicalScalar.one()
        return Matrix(n, n, data)

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

    def __rmul__(self, c) -> "Matrix":
        return self.scale(c)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return matmul(self, other)

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

    def evaluate(self, q_value: complex) -> np.ndarray:
        out = np.empty((self.rows, self.cols), dtype=complex)
        for i in range(self.rows):
            for j in range(self.cols):
                out[i, j] = self[i, j].eval_at(q_value)
        return out

    def evaluate_with_flags(self, q_value: complex) -> tuple[np.ndarray, bool]:
        """Numeric matrix plus a flag for any branch-cut radicand hit."""
        out = np.empty((self.rows, self.cols), dtype=complex)
        flagged = False
        for i in range(self.rows):
            for j in range(self.cols):
                val, flag = self[i, j].eval_with_flags(q_value)
                out[i, j] = val
                flagged = flagged or flag
        return out, flagged

    def max_abs_at(self, q_value: complex) -> float:
        arr = self.evaluate(q_value)
        return float(np.max(np.abs(arr))) if arr.size else 0.0

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


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = []
    for i in range(a.rows):
        arow = a.row(i)
        for j in range(b.cols):
            s = RadicalScalar.zero()
            for k in range(a.cols):
                aik = arow[k]
                if aik.is_zero():
                    continue
                bkj = b[k, j]
                if bkj.is_zero():
                    continue
                s = s + aik * bkj
            out.append(s)
    return Matrix(a.rows, b.cols, out)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    _require_square_pair(a, b)
    return matmul(a, b) - matmul(b, a)


def anticommutator(a: Matrix, b: Matrix) -> Matrix:
    _require_square_pair(a, b)
    return matmul(a, b) + matmul(b, a)


def _require_square_pair(a: Matrix, b: Matrix) -> None:
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ShapeMismatch("bracket needs two square matrices of equal size")


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


def solve_exact(a: Matrix, rhs: list[RadicalScalar]):
    """Solve a x = rhs exactly; returns (solvable, solution or None).

    Row-reduces the augmented system over the scalar field; when the
    system is consistent, free variables are set to zero.
    """
    if len(rhs) != a.rows:
        raise ShapeMismatch("rhs length does not match row count")
    m, n = a.rows, a.cols
    aug = [list(a.row(i)) + [_coerce(rhs[i])] for i in range(m)]
    pivots = _row_reduce(aug, n)
    for rr in range(len(pivots), m):
        if not aug[rr][n].is_zero():
            return False, None
    solution = [RadicalScalar.zero()] * n
    for row_idx, col in enumerate(pivots):
        solution[col] = aug[row_idx][n]
    return True, solution


def pauli_matrices() -> list[Matrix]:
    """sigma_1, sigma_2, sigma_3 in the convention sigma_1 sigma_2 = i sigma_3."""
    i = GaussRational(0, 1)
    one = Fraction(1)
    return [
        Matrix.from_rows([[0, 1], [1, 0]]),
        Matrix.from_rows(
            [
                [RadicalScalar.zero(), RadicalScalar.constant(-i)],
                [RadicalScalar.constant(i), RadicalScalar.zero()],
            ]
        ),
        Matrix.from_rows([[one, 0], [0, -one]]),
    ]
