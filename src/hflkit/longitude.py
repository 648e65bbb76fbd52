"""Longitude Floer chain complexes of (2,2n+1) torus knots.

Generators in a fixed Spin^c class s (a strict half-integer) are pairs
x(i,j) and y(i,j) with j - i = s + n + 1/2, 1 <= j <= 2n+1 and i >= 1,
graded by

    maslov(x(i,j)) = j - n - 3/2 = -maslov(y(i,j)),
    spinc(x(i,j))  = spinc(y(i,j)) = j - i - n - 1/2.

The differential cancels x(i,j) against x(i-1,j-1) for odd j, and
y(i,j) against y(i+1,j+1) for odd j, whenever the partner exists; all
other columns are zero.  Each arrow is oriented so the Maslov grading
drops by 1 (for the y family that is the j -> j+1 direction) and carries
coefficient +1: every generator hits at most one other generator, so the
isomorphism type of the homology depends on neither choice.  The same
two rules are applied uniformly in every class, which reproduces the
closed-form answer below in all of them.

Closed form: for |s| <= n - 1/2 the homology is one Z in Maslov grading
-n + 1/2 and one Z in grading eps(s)*s with eps(s) = (-1)^(n - 1/2 - s);
classes with |s| > n - 1/2 are trivial (the complex itself is empty).
"""

from __future__ import annotations

from .complexes import (
    Generator,
    GradedComplex,
    GroupSummand,
    HomologyTable,
    homology,
)
from .halfint import HalfInt
from .matrices import IntMatrix


def spinc_classes(n: int) -> list[HalfInt]:
    """All half-integer classes with |s| <= n - 1/2, ascending."""
    return [HalfInt.from_twice(t) for t in range(-(2 * n - 1), 2 * n, 2)]


def build_hfl_complex(n: int, s: HalfInt) -> GradedComplex:
    """Longitude Floer complex of T(2,2n+1) in the Spin^c class s.

    s must be a strict half-integer; classes with |s| > n - 1/2 give the
    empty complex.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if s.is_integer:
        raise ValueError(f"Spin^c classes are strict half-integers, got {s}")
    if abs(s).twice > 2 * n - 1:
        return GradedComplex((), IntMatrix.zeros(0, 0))

    delta = (s.twice + 2 * n + 1) // 2  # j - i, an integer in [1, 2n]
    gens = [(kind, j) for kind in ("x", "y") for j in range(delta + 1, 2 * n + 2)]
    index = {g: pos for pos, g in enumerate(gens)}
    size = len(gens)
    entries = [[0] * size for _ in range(size)]
    for pos, (kind, j) in enumerate(gens):
        if j % 2 == 0:
            continue
        if kind == "x" and j - delta >= 2:
            entries[index[("x", j - 1)]][pos] = 1
        elif kind == "y" and j + 1 <= 2 * n + 1:
            entries[index[("y", j + 1)]][pos] = 1

    generators = []
    for kind, j in gens:
        base = 2 * (j - n) - 3
        maslov = HalfInt.from_twice(base if kind == "x" else -base)
        generators.append(Generator(f"{kind}({j - delta},{j})", s, maslov))
    return GradedComplex(generators, IntMatrix(entries, cols=size))


def hfl_compute(n: int) -> HomologyTable:
    """Homology of the longitude complexes, over all nontrivial classes."""
    table = HomologyTable()
    for s in spinc_classes(n):
        table = table.merged(homology(build_hfl_complex(n, s)))
    return table


def epsilon(n: int, s: HalfInt) -> int:
    """The sign (-1)^(n - 1/2 - s); the exponent is an integer."""
    return -1 if (HalfInt(n) - HalfInt(1, 2) - s).floor() % 2 else 1


def hfl_closed_form(n: int) -> HomologyTable:
    """The closed-form answer: Z at maslov -n+1/2 and Z at eps(s)*s, per class."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    entries: dict[tuple[HalfInt, HalfInt], GroupSummand] = {}
    bottom = HalfInt.from_twice(-2 * n + 1)
    for s in spinc_classes(n):
        other = s * epsilon(n, s)
        if other == bottom:
            entries[(s, bottom)] = GroupSummand(2, ())
        else:
            entries[(s, bottom)] = GroupSummand(1, ())
            entries[(s, other)] = GroupSummand(1, ())
    return HomologyTable(entries)


def _relative_profile(table: HomologyTable, s: HalfInt) -> tuple:
    """Maslov offsets from the class minimum, with ranks and torsion."""
    rows = [
        (m.twice, e.free_rank, e.torsion)
        for (spinc, m), e in table.items()
        if spinc == s
    ]
    if not rows:
        return ()
    base = min(t for t, _, _ in rows)
    return tuple(sorted((t - base, rank, tors) for t, rank, tors in rows))


def verify_symmetry(n: int, table: HomologyTable) -> bool:
    """Check that classes s and -s of hfl_compute(n) agree, relatively graded."""
    return all(
        _relative_profile(table, s) == _relative_profile(table, -s)
        for s in spinc_classes(n)
    )


def verify_genus_and_fibered(n: int, table: HomologyTable) -> bool:
    """Genus detection for T(2,2n+1), which is fibered of genus n.

    In the table hfl_compute(n), the classes +-(n - 1/2) must carry
    Z + Z (total rank 2, no torsion); the complexes in the classes
    +-(n + 1/2) and +-(n + 3/2), the nearest ones above the genus bound,
    must be empty.
    """
    for sign in (1, -1):
        edge = HalfInt.from_twice(sign * (2 * n - 1))
        at_edge = table.restrict(edge)
        if at_edge.total_free_rank() != 2 or at_edge.has_torsion():
            return False
        for above_twice in (2 * n + 1, 2 * n + 3):
            cx = build_hfl_complex(n, HalfInt.from_twice(sign * above_twice))
            if len(cx) != 0:
                return False
    return True
