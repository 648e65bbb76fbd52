import json
import random
from fractions import Fraction

import pytest

from hflkit import (
    Generator,
    GradedComplex,
    GroupSummand,
    HalfInt,
    HomologyTable,
    IntMatrix,
    LaurentPoly,
    MalformedComplexError,
    euler_characteristic,
    homology,
)

H = HalfInt


def make(gens, columns):
    """Build a complex from (label, spinc, maslov) rows and a column map."""
    generators = [Generator(lbl, s, m) for lbl, s, m in gens]
    idx = {g.label: i for i, g in enumerate(generators)}
    n = len(generators)
    entries = [[0] * n for _ in range(n)]
    for src, targets in columns.items():
        for dst, coeff in targets:
            entries[idx[dst]][idx[src]] = coeff
    return GradedComplex(generators, IntMatrix(entries, cols=n))


def rational_rank(mat: IntMatrix) -> int:
    """Row reduction over Q; independent of the Smith machinery."""
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
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_zero_differential():
    cx = make(
        [("a", H(1, 2), H(0)), ("b", H(1, 2), H(1))],
        {},
    )
    table = homology(cx)
    assert table.get(H(1, 2), H(0)) == GroupSummand(1, ())
    assert table.get(H(1, 2), H(1)) == GroupSummand(1, ())
    assert len(table) == 2


def test_acyclic_pair():
    cx = make(
        [("x", H(0), H(1)), ("y", H(0), H(0))],
        {"x": [("y", 1)]},
    )
    assert homology(cx) == HomologyTable()
    assert not homology(cx)


def test_coefficient_two_gives_torsion():
    cx = make(
        [("x", H(0), H(1)), ("y", H(0), H(0))],
        {"x": [("y", 2)]},
    )
    table = homology(cx)
    assert table.get(H(0), H(0)) == GroupSummand(0, (2,))
    assert len(table) == 1


def test_rejects_spinc_breaking_arrow():
    cx = make(
        [("x", H(1, 2), H(1)), ("y", H(-1, 2), H(0))],
        {"x": [("y", 1)]},
    )
    with pytest.raises(MalformedComplexError):
        homology(cx)


def test_rejects_wrong_maslov_drop():
    cx = make(
        [("x", H(0), H(2)), ("y", H(0), H(0))],
        {"x": [("y", 1)]},
    )
    with pytest.raises(MalformedComplexError):
        homology(cx)


def test_rejects_nonsquaring_differential():
    cx = make(
        [("a", H(0), H(2)), ("b", H(0), H(1)), ("c", H(0), H(0))],
        {"a": [("b", 1)], "b": [("c", 1)]},
    )
    with pytest.raises(MalformedComplexError):
        homology(cx)


def test_rejects_mismatched_matrix():
    with pytest.raises(MalformedComplexError):
        GradedComplex(
            [Generator("a", H(0), H(0))], IntMatrix.zeros(2, 2)
        )


def test_euler_acyclic_pair_is_zero():
    cx = make(
        [("x", H(0), H(1)), ("y", H(0), H(0))],
        {"x": [("y", 1)]},
    )
    assert euler_characteristic(cx).is_zero()


def test_euler_of_torus_state_complex():
    from hflkit import torus_state_complex

    # Signs (-1)^(i-1) at exponents i-2 for i = 1, 2, 3.
    assert euler_characteristic(torus_state_complex(1)) == LaurentPoly.parse(
        "t^-1 - 1 + t"
    )


def test_euler_mixed_parity_rejected():
    cx = make(
        [("x", H(0), H(0)), ("y", H(0), H(1, 2))],
        {},
    )
    with pytest.raises(ValueError):
        euler_characteristic(cx)


def test_euler_sign_convention_on_halves():
    # floor(-1/2) = -1 gives sign -1; floor(1/2) = 0 gives +1.
    cx = make([("x", H(0), H(-1, 2))], {})
    assert euler_characteristic(cx) == LaurentPoly.parse("-1")
    cx = make([("x", H(0), H(1, 2))], {})
    assert euler_characteristic(cx) == LaurentPoly.one()


def random_cone(rng: random.Random) -> GradedComplex:
    """Arrows only from maslov m+1 to m inside well-separated layer pairs,
    so the differential squares to zero by construction."""
    gens = []
    entries_spec = {}
    for cls in range(rng.randint(1, 3)):
        s = H.from_twice(rng.choice([-3, -1, 1, 3]) + 2 * cls)
        for layer in range(rng.randint(1, 2)):
            base = 4 * layer  # gap >= 2 between pairs, no compositions
            n_src = rng.randint(0, 3)
            n_dst = rng.randint(0, 3)
            srcs = [f"s{cls}.{layer}.{k}" for k in range(n_src)]
            dsts = [f"d{cls}.{layer}.{k}" for k in range(n_dst)]
            gens += [(lbl, s, H(base + 1)) for lbl in srcs]
            gens += [(lbl, s, H(base)) for lbl in dsts]
            for lbl in srcs:
                entries_spec[lbl] = [
                    (d, rng.randint(-3, 3)) for d in dsts if rng.random() < 0.7
                ]
    return make(gens, entries_spec)


def test_mapping_cone_ranks_match_rational_oracle():
    rng = random.Random(7)
    for _ in range(60):
        cx = random_cone(rng)
        cx.validate()
        table = homology(cx)
        groups = cx.grading_index()
        for (s, m), here in groups.items():
            below = groups.get((s, m - 1), [])
            above = groups.get((s, m + 1), [])
            expected_free = (
                len(here)
                - rational_rank(cx.differential.submatrix(below, here))
                - rational_rank(cx.differential.submatrix(here, above))
            )
            assert table.get(s, m).free_rank == expected_free


def test_euler_invariant_under_acyclic_pair():
    rng = random.Random(11)
    for _ in range(40):
        cx = random_cone(rng)
        chi = euler_characteristic(cx)
        # Attach a cancelling pair in a fresh class (parity unconstrained)
        # or, half the time, parity-matched inside an existing class.
        if cx.generators and rng.random() < 0.5:
            host = rng.choice(cx.generators)
            s, base = host.spinc, host.maslov + 2
        else:
            s, base = H(99), H(0)
        gens = [(g.label, g.spinc, g.maslov) for g in cx.generators]
        gens += [("pair_top", s, base + 1), ("pair_bot", s, base)]
        columns = {}
        d = cx.differential
        for c in range(d.cols):
            col = [
                (cx.generators[r].label, d[r, c]) for r in range(d.rows) if d[r, c]
            ]
            if col:
                columns[cx.generators[c].label] = col
        columns["pair_top"] = [("pair_bot", rng.choice([1, -1]))]
        bigger = make(gens, columns)
        assert euler_characteristic(bigger) == chi


def test_json_roundtrip():
    cx = make(
        [("x", H(1, 2), H(1)), ("y", H(1, 2), H(0))],
        {"x": [("y", 2)]},
    )
    doc = json.loads(cx.to_json())
    again = GradedComplex.from_json_dict(doc)
    assert again.generators == cx.generators
    assert again.differential == cx.differential
    assert json.loads(again.to_json()) == doc


def test_table_merge_and_views():
    t1 = HomologyTable({(H(1, 2), H(0)): (1, ())})
    t2 = HomologyTable({(H(1, 2), H(0)): (2, (3,)), (H(-1, 2), H(1)): (1, ())})
    merged = t1.merged(t2)
    assert merged.get(H(1, 2), H(0)) == GroupSummand(3, (3,))
    assert merged.total_free_rank() == 4
    assert merged.has_torsion()
    assert merged.spinc_classes() == [H(-1, 2), H(1, 2)]
    assert merged.restrict(H(-1, 2)).total_free_rank() == 1
    assert HomologyTable({(H(0), H(0)): (0, ())}) == HomologyTable()


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"generators": []},
        {"generators": [{"label": "x"}], "differential": []},
        {"generators": [], "differential": [[0, 0, 1]]},
        {"generators": [{"label": "x", "spinc": {"twice": 1}, "maslov": {"twice": 0}}],
         "differential": [[-1, 0, 1]]},
        {"generators": [{"label": "x", "spinc": {"twice": 1}, "maslov": {"twice": 0}}],
         "differential": [[0, 0, 1], [0, 0, 2]]},
        {"generators": [{"label": "x", "spinc": {"twice": 1}, "maslov": {"twice": 0}}],
         "differential": [[0, 0, 1.5]]},
        {"generators": [{"label": "x", "spinc": {"twice": 1}, "maslov": {"twice": 0}}],
         "differential": [[0, 0]]},
    ],
    ids=["empty", "no-differential", "no-gradings", "out-of-range",
         "negative-index", "duplicate", "float-coefficient", "short-triplet"],
)
def test_from_json_rejects_malformed(doc):
    with pytest.raises(MalformedComplexError) as info:
        GradedComplex.from_json_dict(doc)
    assert "\n" not in str(info.value)


def invariant_factors(orders):
    """Invariant factors > 1, ascending, of the sum of Z/k for k in orders,
    found by factoring each k into prime powers (no Smith form involved)."""
    powers: dict[int, list[int]] = {}
    for k in orders:
        p = 2
        while k > 1:
            q = 1
            while k % p == 0:
                k, q = k // p, q * p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    columns = [sorted(qs, reverse=True) for qs in powers.values()]
    width = max(map(len, columns), default=0)
    factors = [1] * width
    for qs in columns:
        for i, q in enumerate(qs):
            factors[i] *= q
    return tuple(reversed(factors))


def random_chain(rng: random.Random) -> tuple[GradedComplex, HomologyTable]:
    """A direct sum of pieces x -> k*y and free generators in several Spin^c
    classes, each over three to five consecutive Maslov levels, seen in a
    basis mixed by unimodular changes within each grading; returns it with
    the homology known from the pieces."""
    gens, arrows, free, orders = [], [], {}, {}
    for cls in range(rng.randint(2, 3)):
        s = H.from_twice(2 * cls - 1)
        low = rng.randint(-2, 1)
        levels = [H(low + k) for k in range(rng.randint(3, 5))]
        for m in levels:
            for _ in range(rng.randint(0, 2)):
                gens.append((f"f{len(gens)}", s, m))
                free[(s, m)] = free.get((s, m), 0) + 1
        for m in levels[:-1]:
            for _ in range(rng.randint(1, 3)):
                k = rng.choice([1, -1, 2, -2, 3, 4, 6, -9])
                arrows.append((len(gens), len(gens) + 1, k))
                gens += [(f"x{len(gens)}", s, m + 1), (f"y{len(gens)}", s, m)]
                orders.setdefault((s, m), []).append(abs(k))
    n = len(gens)
    d = [[0] * n for _ in range(n)]
    for src, dst, k in arrows:
        d[dst][src] = k
    # d -> E d E^-1 for E = I + c*e_i*e_j^T with i, j in one grading: the same
    # complex, up to isomorphism, in a mixed basis.
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j or gens[i][1:] != gens[j][1:]:
            continue
        c = rng.choice([1, -1, 2])
        for col in range(n):
            d[i][col] += c * d[j][col]
        for row in range(n):
            d[row][j] -= c * d[row][i]
    order = list(range(n))
    rng.shuffle(order)
    cx = make(
        [gens[i] for i in order],
        {
            gens[c][0]: [(gens[r][0], d[r][c]) for r in range(n) if d[r][c]]
            for c in range(n)
        },
    )
    keys = set(free) | set(orders)
    expected = HomologyTable(
        {key: (free.get(key, 0), invariant_factors(orders.get(key, ()))) for key in keys}
    )
    return cx, expected


def test_chains_over_three_levels_have_the_homology_of_their_pieces():
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for _ in range(40):
            cx, expected = random_chain(rng)
            assert homology(cx) == expected


def test_validate_rejects_exactly_when_whole_matrix_d_squared_is_nonzero():
    rng = random.Random(5)
    outcomes = []
    for _ in range(100):
        cx, _ = random_chain(rng)
        gens = cx.generators
        arrows = [
            (r, c)
            for r in range(len(gens))
            for c in range(len(gens))
            if gens[r].spinc == gens[c].spinc
            and gens[c].maslov - gens[r].maslov == H(1)
        ]
        r, c = rng.choice(arrows)
        rows = [list(row) for row in cx.differential.data]
        rows[r][c] += rng.choice([1, -1, 2])
        d = IntMatrix(rows, cols=len(gens))
        bad = GradedComplex(gens, d)
        squares_to_zero = d.mul(d).is_zero()
        try:
            bad.validate()
            raised = False
        except MalformedComplexError as exc:
            assert str(exc) == "differential does not square to zero"
            raised = True
        assert raised == (not squares_to_zero)
        outcomes.append(raised)
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("which", ["longitude", "torsion"])
def test_homology_takes_one_smith_form_per_grading(monkeypatch, which):
    import hflkit.complexes as complexes
    from hflkit import build_hfl_complex

    if which == "longitude":
        cx = build_hfl_complex(3, H(1, 2))
    else:
        cx, _ = random_chain(random.Random(2))
    assert homology(cx).has_torsion() == (which == "torsion")
    real = complexes.smith_normal_form
    calls = []

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(complexes, "smith_normal_form", counting)
    homology(cx)
    assert len(calls) == len(cx.grading_index())
