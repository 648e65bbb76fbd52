"""Acceptance suite.

One test per criterion, each at its full stated scale, printing a
PASS/FAIL line (run pytest with -s to see them inline).  The random
checks are seeded so every run exercises the same instances.
"""

import random
import time
from fractions import Fraction

from hflkit import (
    Generator,
    GradedComplex,
    HalfInt,
    IntMatrix,
    LaurentPoly,
    SatelliteSpec,
    alexander_from_states,
    build_hfl_complex,
    build_torus_diagram,
    enumerate_states,
    euler_characteristic,
    hfl_closed_form,
    hfl_compute,
    homology,
    satellite_alexander,
    smith_normal_form,
    spinc_classes,
    torus_alexander,
    verify_symmetry,
    whitehead_closed_form,
    whitehead_hfk_one,
)

H = HalfInt
N_RANGE = range(1, 11)


def report(criterion: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: {criterion}")
    return ok


def test_criterion_1_closed_form_reproduction():
    started = time.perf_counter()
    ok = True
    for n in N_RANGE:
        closed = hfl_closed_form(n)
        for s in spinc_classes(n):
            table = homology(build_hfl_complex(n, s))
            if table != closed.restrict(s) or table.has_torsion():
                ok = False
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    assert report(
        "1. homology of the constructed complex equals the closed form "
        "for n in 1..10, every class, exact gradings, no torsion "
        f"({elapsed:.2f}s < 1s)",
        ok,
    )


def test_criterion_2_triviality_above_genus():
    ok = all(
        not homology(build_hfl_complex(n, H.from_twice(sign * twice)))
        for n in N_RANGE
        for sign in (1, -1)
        for twice in (2 * n + 1, 2 * n + 3)
    )
    assert report(
        "2. empty homology in the classes +-(n+1/2) and +-(n+3/2) for n in 1..10",
        ok,
    )


def test_criterion_3_symmetry():
    ok = all(verify_symmetry(n, hfl_compute(n)) for n in N_RANGE)
    assert report("3. class s and class -s agree relatively for n in 1..10", ok)


def test_criterion_4_fibered_edge_classes():
    ok = True
    for n in N_RANGE:
        table = hfl_compute(n)
        for sign in (1, -1):
            edge = table.restrict(H.from_twice(sign * (2 * n - 1)))
            if edge.total_free_rank() != 2 or edge.has_torsion():
                ok = False
    assert report(
        "4. classes +-(n-1/2) carry Z + Z (total rank 2) for n in 1..10", ok
    )


def test_criterion_5_whitehead_table():
    ok = True
    for n in N_RANGE:
        table = whitehead_hfk_one(n)
        if table != whitehead_closed_form(n):
            ok = False
        if table.total_free_rank() != 4 * n:
            ok = False
    assert report(
        "5. Whitehead double table: rank 2 at n, n-2, ..., -n+2 and "
        "rank 2n at -n+1; total 4n, for n in 1..10",
        ok,
    )


def _random_symmetric_unimodular(rng: random.Random, degree: int) -> LaurentPoly:
    coeffs = {}
    total = 0
    for k in range(1, degree + 1):
        c = rng.randint(-4, 4)
        if c:
            coeffs[H(k)] = c
            coeffs[H(-k)] = c
            total += 2 * c
    coeffs[H(0)] = 1 - total
    return LaurentPoly(coeffs)


def test_criterion_6_alexander_checks():
    ok = all(alexander_from_states(n) == torus_alexander(n) for n in N_RANGE)

    rng = random.Random(61803)
    one = LaurentPoly.one()
    for _ in range(10):
        companion = _random_symmetric_unimodular(rng, rng.randint(1, 5))
        out = satellite_alexander(SatelliteSpec(companion, one, winding=0))
        if not out.equal_up_to_unit(one):
            ok = False
    for _ in range(10):
        companion = _random_symmetric_unimodular(rng, rng.randint(1, 5))
        out = satellite_alexander(SatelliteSpec(companion, one, winding=1))
        if out != companion.symmetrized():
            ok = False
    assert report(
        "6. state-sum polynomial equals the closed form for n in 1..10; "
        "winding 0 with unit pattern is trivial and winding 1 with unit "
        "pattern is the identity on 10 random symmetric inputs each",
        ok,
    )


def test_criterion_7_euler_characteristic_zero():
    ok = all(
        euler_characteristic(build_hfl_complex(n, s)).is_zero()
        for n in N_RANGE
        for s in spinc_classes(n)
    )
    assert report("7. per-class Euler characteristic is 0 for n in 1..10", ok)


def _cofactor_det(rows):
    if not rows:
        return 1
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * head * _cofactor_det(minor)
    return total


def _rational_rank(mat: IntMatrix) -> int:
    rows = [[Fraction(x) for x in row] for row in mat.data]
    rank = 0
    for col in range(mat.cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [x / inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_criterion_8_algebra_engine():
    rng = random.Random(8)
    ok = True
    for _ in range(1000):
        rows = rng.randint(0, 6)
        cols = rng.randint(0, 6)
        a = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
            cols=cols,
        )
        snf = smith_normal_form(a)
        if snf.u.mul(a).mul(snf.v) != snf.d:
            ok = False
        if abs(_cofactor_det([list(r) for r in snf.u.data])) != 1:
            ok = False
        if abs(_cofactor_det([list(r) for r in snf.v.data])) != 1:
            ok = False
        diag = [snf.d[i, i] for i in range(min(rows, cols))]
        if any(
            snf.d[i, j]
            for i in range(rows)
            for j in range(cols)
            if i != j
        ):
            ok = False
        nonzero = [x for x in diag if x]
        if any(x < 0 for x in diag) or diag[: len(nonzero)] != nonzero:
            ok = False
        if any(b % a_ for a_, b in zip(nonzero, nonzero[1:])):
            ok = False

    for _ in range(200):
        cx = _random_cone(rng)
        cx.validate()
        table = homology(cx)
        groups = cx.grading_index()
        for (s, m), here in groups.items():
            below = groups.get((s, m - 1), [])
            above = groups.get((s, m + 1), [])
            free = (
                len(here)
                - _rational_rank(cx.differential.submatrix(below, here))
                - _rational_rank(cx.differential.submatrix(here, above))
            )
            if table.get(s, m).free_rank != free:
                ok = False
    assert report(
        "8. 1000 random matrices satisfy the Smith decomposition contract; "
        "200 random mapping cones have d^2 = 0 and ranks matching a "
        "rational-rank oracle",
        ok,
    )


def _random_cone(rng: random.Random) -> GradedComplex:
    gens = []
    entries = []
    for cls in range(rng.randint(1, 3)):
        s = H.from_twice(2 * cls + 1)
        for layer in range(rng.randint(1, 2)):
            base = 4 * layer
            srcs = [
                Generator(f"s{cls}.{layer}.{k}", s, H(base + 1))
                for k in range(rng.randint(0, 3))
            ]
            dsts = [
                Generator(f"d{cls}.{layer}.{k}", s, H(base))
                for k in range(rng.randint(0, 3))
            ]
            start = len(gens)
            gens.extend(srcs)
            gens.extend(dsts)
            for i in range(len(srcs)):
                for j in range(len(dsts)):
                    if rng.random() < 0.6:
                        entries.append(
                            (start + len(srcs) + j, start + i, rng.randint(-3, 3))
                        )
    data = [[0] * len(gens) for _ in range(len(gens))]
    for r, c, x in entries:
        data[r][c] = x
    return GradedComplex(gens, IntMatrix(data, cols=len(gens)))


def test_criterion_9_kauffman_enumeration():
    ok = True
    for n in range(1, 7):
        if len(enumerate_states(build_torus_diagram(n))) != 2 * n + 1:
            ok = False
        if abs(alexander_from_states(n).evaluate(-1)) != 2 * n + 1:
            ok = False
    assert report(
        "9. state counts are 2n+1 for n in 1..6 and |Delta(-1)| matches "
        "the determinant 2n+1",
        ok,
    )
