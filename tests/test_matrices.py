"""Smith normal form checks, backed by oracles that avoid the library's
own reduction code: cofactor determinants and gcds of r x r minors."""

import math
import random
from itertools import combinations

import pytest

from hflkit import IntMatrix, smith_normal_form, xgcd


def cofactor_det(rows):
    if not rows:
        return 1
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * head * cofactor_det(minor)
    return total


def minor_gcd(mat: IntMatrix, r: int) -> int:
    g = 0
    for row_idx in combinations(range(mat.rows), r):
        for col_idx in combinations(range(mat.cols), r):
            sub = [[mat[i, j] for j in col_idx] for i in row_idx]
            g = math.gcd(g, cofactor_det(sub))
    return g


def assert_smith_invariants(a: IntMatrix):
    snf = smith_normal_form(a)
    u, d, v = snf.u, snf.d, snf.v
    assert u.mul(a).mul(v) == d
    assert abs(cofactor_det([list(r) for r in u.data])) == 1
    assert abs(cofactor_det([list(r) for r in v.data])) == 1
    # Diagonal, nonnegative, divisibility chain, trailing zeros.
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d[i, j] == 0
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert diag[: len(nonzero)] == nonzero, "zeros must trail"
    for a_i, b_i in zip(nonzero, nonzero[1:]):
        assert b_i % a_i == 0
    return snf


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-9, -6)]:
        x, y, g = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert x * a + y * b == g


def test_identity():
    snf = assert_smith_invariants(IntMatrix.identity(2))
    assert snf.d == IntMatrix.identity(2)
    assert snf.invariant_factors() == (1, 1)


def test_two_by_two_full_rank():
    # |det| = 2 and entry gcd 1 force diag(1, 2).
    snf = assert_smith_invariants(IntMatrix([[1, 2], [3, 4]]))
    assert snf.invariant_factors() == (1, 2)
    assert snf.d == IntMatrix([[1, 0], [0, 2]])


def test_two_by_two_rank_one():
    # Rank 1 with entry gcd 2 forces diag(2, 0).
    snf = assert_smith_invariants(IntMatrix([[2, 4], [4, 8]]))
    assert snf.invariant_factors() == (2,)
    assert snf.d == IntMatrix([[2, 0], [0, 0]])


def test_divisibility_repair():
    snf = assert_smith_invariants(IntMatrix([[2, 0], [0, 3]]))
    assert snf.invariant_factors() == (1, 6)


@pytest.mark.parametrize(
    "entries,cols",
    [([], 0), ([], 3), ([[], [], []], 0), ([[0, 0], [0, 0]], 2)],
)
def test_degenerate_shapes(entries, cols):
    a = IntMatrix(entries, cols=cols)
    snf = assert_smith_invariants(a)
    assert snf.rank() == 0


def test_rectangular():
    snf = assert_smith_invariants(IntMatrix([[2, 4, 6]]))
    assert snf.invariant_factors() == (2,)
    snf = assert_smith_invariants(IntMatrix([[3], [6], [9]]))
    assert snf.invariant_factors() == (3,)


def test_random_matrices_against_minor_gcd_oracle():
    rng = random.Random(20260811)
    for _ in range(300):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        snf = assert_smith_invariants(a)
        factors = snf.invariant_factors()
        r = len(factors)
        if r:
            product = math.prod(factors)
            assert product == minor_gcd(a, r) or product == -minor_gcd(a, r)
        if r < min(rows, cols):
            # All (r+1)-minors vanish exactly when the rank is r.
            assert minor_gcd(a, r + 1) == 0


def test_matrix_utilities():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a.mul(IntMatrix.identity(2)) == a
    assert a.submatrix([1], [0, 1]) == IntMatrix([[3, 4]])
    assert IntMatrix.zeros(2, 2).is_zero()
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
