"""Exact integer matrices and Smith normal form.

All arithmetic uses Python integers, so no overflow is possible.  The
Smith reduction picks minimal-absolute-value pivots and eliminates with
extended-gcd row/column transforms, which keeps coefficients small on
the matrix sizes this package deals with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b) >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class IntMatrix:
    """Immutable integer matrix (row-major tuples)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries: Iterable[Sequence[int]], cols: int | None = None):
        data = tuple(tuple(int(x) for x in row) for row in entries)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
        else:
            width = cols if cols is not None else 0
        if cols is not None and data and cols != width:
            raise ValueError("cols inconsistent with row length")
        self.data = data
        self.rows = len(data)
        self.cols = width

    @classmethod
    def zeros(cls, rows: int, cols: int) -> IntMatrix:
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.cols == other.cols and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.cols, self.data))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.data]!r}, cols={self.cols})"

    def mul(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = [
            [
                sum(self.data[i][k] * other.data[k][j] for k in range(self.cols))
                for j in range(other.cols)
            ]
            for i in range(self.rows)
        ]
        return IntMatrix(out, cols=other.cols)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> IntMatrix:
        out = [[self.data[i][j] for j in col_idx] for i in row_idx]
        return IntMatrix(out, cols=len(col_idx))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)


@dataclass(frozen=True)
class SmithDecomposition:
    """U A V == D with U, V unimodular and D a Smith form of A."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def invariant_factors(self) -> tuple[int, ...]:
        out = []
        for i in range(min(self.d.rows, self.d.cols)):
            x = self.d[i, i]
            if x == 0:
                break
            out.append(x)
        return tuple(out)

    def rank(self) -> int:
        return len(self.invariant_factors())


def _min_abs_pivot(d: list[list[int]], start: int) -> tuple[int, int] | None:
    best = None
    best_abs = 0
    for i in range(start, len(d)):
        row = d[i]
        for j in range(start, len(row)):
            x = row[j]
            if x and (best is None or abs(x) < best_abs):
                best = (i, j)
                best_abs = abs(x)
                if best_abs == 1:
                    return best
    return best


def _row_transform(d, u, t, k) -> None:
    # Zero d[k][t] against the pivot d[t][t], updating u the same way.
    a, b = d[t][t], d[k][t]
    if b % a == 0:
        q = b // a
        for mat in (d, u):
            rt, rk = mat[t], mat[k]
            for j in range(len(rk)):
                rk[j] -= q * rt[j]
    else:
        x, y, g = xgcd(a, b)
        p, q = -(b // g), a // g
        for mat in (d, u):
            rt, rk = mat[t], mat[k]
            for j in range(len(rt)):
                rt[j], rk[j] = x * rt[j] + y * rk[j], p * rt[j] + q * rk[j]


def _col_transform(d, v, t, k) -> None:
    # Zero d[t][k] against the pivot d[t][t], updating v the same way.
    a, b = d[t][t], d[t][k]
    if b % a == 0:
        q = b // a
        for mat in (d, v):
            for row in mat:
                row[k] -= q * row[t]
    else:
        x, y, g = xgcd(a, b)
        p, q = -(b // g), a // g
        for mat in (d, v):
            for row in mat:
                row[t], row[k] = x * row[t] + y * row[k], p * row[t] + q * row[k]


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Diagonalize over Z: returns U, D, V with U A V = D, d_1 | d_2 | ...

    Total on all shapes, including empty matrices.  Diagonal entries are
    nonnegative with zeros trailing.
    """
    m, n = a.rows, a.cols
    d = [list(row) for row in a.data]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    t = 0
    while t < min(m, n):
        pivot = _min_abs_pivot(d, t)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in d:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        # Alternate row/column clearing; each re-dirtying pass strictly
        # shrinks |pivot|, so this terminates.
        while True:
            for k in range(t + 1, m):
                if d[k][t]:
                    _row_transform(d, u, t, k)
            if all(d[t][j] == 0 for j in range(t + 1, n)):
                break
            for k in range(t + 1, n):
                if d[t][k]:
                    _col_transform(d, v, t, k)
            if all(d[k][t] == 0 for k in range(t + 1, m)):
                break
        t += 1

    rank = t
    for i in range(rank):
        if d[i][i] < 0:
            for j in range(n):
                d[i][j] = -d[i][j]
            for j in range(m):
                u[i][j] = -u[i][j]

    # Repair the divisibility chain pairwise until stable.
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            if d[i + 1][i + 1] % d[i][i]:
                changed = True
                for row in d:
                    row[i] += row[i + 1]
                for row in v:
                    row[i] += row[i + 1]
                _row_transform(d, u, i, i + 1)
                _col_transform(d, v, i, i + 1)
                if d[i][i] < 0:
                    for j in range(n):
                        d[i][j] = -d[i][j]
                    for j in range(m):
                        u[i][j] = -u[i][j]
                if d[i + 1][i + 1] < 0:
                    for j in range(n):
                        d[i + 1][j] = -d[i + 1][j]
                    for j in range(m):
                        u[i + 1][j] = -u[i + 1][j]

    return SmithDecomposition(
        u=IntMatrix(u, cols=m), d=IntMatrix(d, cols=n), v=IntMatrix(v, cols=n)
    )
