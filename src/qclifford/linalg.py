"""Dense matrices over the exact scalar ring.

Everything the identity checks need: ring operations, Kronecker products,
anticommutators, exact inversion and exact linear solving by Gaussian
elimination over the radical-extended fraction field, plus numeric
evaluation for the sampling backend.  A numeric matrix is a list of rows of
Python ``complex``; the few helpers the float cross-checks need (products,
sums and scaling) work on those, and equally on ``Sized`` values, which
carry with each float the size of the evaluation that gave it.  Floats only
cross-check: no float is solved for.
"""

from __future__ import annotations

import cmath
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
        # ZERO is one interned object: a zero entry is passed through
        return Matrix(
            self.rows,
            self.cols,
            [b if a is ZERO else a if b is ZERO else a + b for a, b in zip(self.data, other.data)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("subtraction shape mismatch")
        return Matrix(
            self.rows,
            self.cols,
            [-b if a is ZERO else a if b is ZERO else a - b for a, b in zip(self.data, other.data)],
        )

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self.data])

    def scale(self, c) -> "Matrix":
        c = _coerce(c)
        return Matrix(self.rows, self.cols, [a if a is ZERO else c * a for a in self.data])

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
        """``fn`` of each entry, called once per distinct entry: entries are
        interned, so ``fn`` of a value is found by the entry's identity."""
        images = {}
        out = []
        for a in self.data:
            image = images.get(id(a))
            if image is None:
                image = images[id(a)] = fn(a)
            out.append(image)
        return Matrix(self.rows, self.cols, out)

    def evaluate(self, points: PointSet, sized: bool = False) -> list[CMatrix]:
        """The numeric matrix at each point, each entry evaluated over the
        point set once; with ``sized``, each entry a ``Sized`` value."""
        entries = [s.values_with_flag(points)[0] for s in self.data]
        if sized:
            sizes = _sizes(self.data, points)
            entries = [[Sized(v, z) if z else v for v, z in zip(vals, ss)] for vals, ss in zip(entries, sizes)]
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
    # zero is one interned object, so an identity test finds it.  Each
    # nonzero a[i, k] meets only the nonzero entries of b's row k, and k
    # ascends, so every entry sums its products in ascending k
    m, n = a.cols, b.cols
    brows = [[] for _ in range(b.rows)]
    for idx, x in enumerate(b.data):
        if x is not ZERO:
            brows[idx // n].append((idx % n, x))
    out = []
    for start in range(0, a.rows * m, m):
        acc = [ZERO] * n
        for aik, brow in zip(a.data[start : start + m], brows):
            if aik is not ZERO:
                for j, bkj in brow:
                    s = acc[j]
                    acc[j] = aik * bkj if s is ZERO else s + aik * bkj
        out += acc
    return Matrix(a.rows, n, out)


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


class Sized:
    """A float v and the size s of the evaluation that gave it, so that the
    rounding error of v is a small multiple of the unit roundoff times s
    however much its terms cancel (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., ch. 3).  A plain number is its own
    size; sums and products carry the sum of the absolute values of the
    expanded terms; a quotient n/d has size (s_n + |n/d| s_d)/|d| and a
    power b**k, a root too, |v| (s_b/|b|)**max(1, |k|), first-order bounds
    on the propagated error.  v is the value the same expression gives over
    plain numbers."""

    __slots__ = ("v", "s")

    def __init__(self, v, s=None):
        self.v = v
        self.s = abs(v) if s is None else s

    def __abs__(self) -> float:
        return abs(self.v)

    def __add__(self, other) -> "Sized":
        if isinstance(other, Sized):
            return Sized(self.v + other.v, self.s + other.s)
        return Sized(self.v + other, self.s + abs(other)) if other else self

    __radd__ = __add__

    def __neg__(self) -> "Sized":
        return Sized(-self.v, self.s)

    def __sub__(self, other) -> "Sized":
        return self + -sized(other)

    def __rsub__(self, other) -> "Sized":
        return -self + other

    def __mul__(self, other) -> "Sized":
        if isinstance(other, Sized):
            return Sized(self.v * other.v, self.s * other.s)
        # a plain zero factor gives a plain zero, its own size
        return Sized(self.v * other, self.s * abs(other)) if other else self.v * other

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Sized":
        other = sized(other)
        v = self.v / other.v
        return Sized(v, (self.s + abs(v) * other.s) / abs(other.v))

    def __rtruediv__(self, other) -> "Sized":
        return sized(other) / self

    def __pow__(self, k) -> "Sized":
        return self._power(self.v**k, k)

    def _power(self, v, k) -> "Sized":
        return Sized(v, abs(v) * (self.s / abs(self.v)) ** max(1, abs(k)))

    def sqrt(self) -> "Sized":
        return self._power(cmath.sqrt(self.v), 0.5)


def sized(x) -> Sized:
    """x as a ``Sized`` value."""
    return x if isinstance(x, Sized) else Sized(x)


def _sizes(scalars, points: PointSet) -> list[list[float]]:
    """The size of each scalar's evaluation by ``values_with_flag`` at every
    point, by the rules of ``Sized``, read from the values it holds over the
    whole point set.  Each distinct scalar and fraction is sized once."""
    whole, n = points.whole, len(points)
    memo = {}  # sizes by the id of a scalar or fraction, each alive throughout

    def poly(p) -> list[float]:
        out = [0.0] * n
        for k, x, y, d in p.key():
            c = abs(complex(x, y)) / d
            out = [s + c * abs(w) for s, w in zip(out, whole.powers(k))]
        return out

    def frac(f) -> list[float]:
        if id(f) not in memo:
            sizes = poly(f.num)
            if not f.den.is_one():
                parts = zip(sizes, f.values(whole), poly(f.den), f.den.values(whole))
                sizes = [(s + abs(v) * sd) / abs(d) for s, v, sd, d in parts]
            memo[id(f)] = sizes
        return memo[id(f)]

    def scalar(s) -> list[float]:
        if id(s) not in memo:
            total = [0.0] * n
            for key, coeff in s.terms.items():
                term = frac(coeff)
                for rad in key:
                    term = [a * sr / abs(r) ** 0.5 for a, sr, r in zip(term, frac(rad), rad.values(whole))]
                total = [a + b for a, b in zip(total, term)]
            memo[id(s)] = total
        return memo[id(s)]

    return [scalar(s) for s in scalars]


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
