import pytest

from hflkit import (
    GroupSummand,
    HalfInt,
    build_hfl_complex,
    epsilon,
    euler_characteristic,
    hfl_closed_form,
    hfl_compute,
    homology,
    spinc_classes,
    verify_genus_and_fibered,
    verify_symmetry,
)

H = HalfInt


def arrows_of(cx):
    d = cx.differential
    return sorted(
        (cx.generators[c].label, cx.generators[r].label)
        for r in range(d.rows)
        for c in range(d.cols)
        if d[r, c]
    )


def test_generator_gradings():
    gens = {g.label: g for g in build_hfl_complex(2, H(-1, 2)).generators}
    x, y = gens["x(2,4)"], gens["y(2,4)"]
    assert x.spinc == y.spinc == H(-1, 2)
    assert x.maslov == H(1, 2)
    assert y.maslov == H(-1, 2)


def test_top_class_two_generators_no_arrows():
    cx = build_hfl_complex(1, H(1, 2))
    assert sorted(g.label for g in cx.generators) == ["x(1,3)", "y(1,3)"]
    assert cx.differential.is_zero()


def test_middle_class_six_generators_two_arrows():
    cx = build_hfl_complex(2, H(-1, 2))
    assert len(cx) == 6
    # Two cancelling pairs: {x(3,5), x(2,4)} and {y(1,3), y(2,4)},
    # each arrow dropping the Maslov grading by 1.
    assert arrows_of(cx) == [("x(3,5)", "x(2,4)"), ("y(1,3)", "y(2,4)")]
    cx.validate()


def test_classes_above_genus_are_empty():
    assert len(build_hfl_complex(1, H(3, 2))) == 0
    assert len(build_hfl_complex(3, H(-7, 2))) == 0


def test_integer_class_rejected():
    with pytest.raises(ValueError):
        build_hfl_complex(2, H(1))
    with pytest.raises(ValueError):
        build_hfl_complex(0, H(1, 2))


def test_spinc_classes():
    assert spinc_classes(1) == [H(-1, 2), H(1, 2)]
    assert spinc_classes(2) == [H(-3, 2), H(-1, 2), H(1, 2), H(3, 2)]


def test_epsilon_sign():
    assert epsilon(2, H(3, 2)) == 1
    assert epsilon(2, H(1, 2)) == -1
    assert epsilon(3, H(5, 2)) == 1
    assert epsilon(3, H(3, 2)) == -1


def test_hfl_compute_small():
    table = hfl_compute(1)
    for s in (H(1, 2), H(-1, 2)):
        for m in (H(1, 2), H(-1, 2)):
            assert table.get(s, m) == GroupSummand(1, ())
    assert len(table) == 4

    table = hfl_compute(2)
    assert table.get(H(3, 2), H(-3, 2)).free_rank == 1
    assert table.get(H(3, 2), H(3, 2)).free_rank == 1
    # Derived by cancelling x(3,5)/x(2,4) and y(1,3)/y(2,4): the survivors
    # are x(1,3) at -1/2 and y(3,5) at -3/2.
    assert table.get(H(-1, 2), H(-3, 2)).free_rank == 1
    assert table.get(H(-1, 2), H(-1, 2)).free_rank == 1


def test_closed_form_small():
    table = hfl_closed_form(1)
    assert {(s, m) for (s, m), _ in table.items()} == {
        (H(1, 2), H(-1, 2)),
        (H(1, 2), H(1, 2)),
        (H(-1, 2), H(-1, 2)),
        (H(-1, 2), H(1, 2)),
    }
    table = hfl_closed_form(3)
    assert [m for (s, m), _ in table.items() if s == H(5, 2)] == [H(-5, 2), H(5, 2)]
    assert [m for (s, m), _ in table.items() if s == H(3, 2)] == [H(-5, 2), H(-3, 2)]


def test_chain_homology_matches_closed_form():
    for n in range(1, 7):
        closed = hfl_closed_form(n)
        for s in spinc_classes(n):
            assert homology(build_hfl_complex(n, s)) == closed.restrict(s), (n, s)


def test_total_rank_is_4n():
    for n in range(1, 7):
        assert hfl_compute(n).total_free_rank() == 4 * n
        assert not hfl_compute(n).has_torsion()


@pytest.mark.parametrize("n", [1, 2, 5])
def test_symmetry(n):
    assert verify_symmetry(n, hfl_compute(n))


def test_symmetry_of_edge_classes_is_on_the_nose():
    table = hfl_compute(2)
    plus = {m for (s, m), _ in table.items() if s == H(3, 2)}
    minus = {m for (s, m), _ in table.items() if s == H(-3, 2)}
    assert plus == minus == {H(-3, 2), H(3, 2)}


@pytest.mark.parametrize("n", [1, 2, 7])
def test_genus_and_fibered(n):
    assert verify_genus_and_fibered(n, hfl_compute(n))


def test_per_class_euler_characteristic_vanishes():
    for n in range(1, 7):
        for s in spinc_classes(n):
            assert euler_characteristic(build_hfl_complex(n, s)).is_zero()


def test_differential_structure():
    # Disjoint union of arrows and points: at most one nonzero entry per
    # row and per column, so the homology is torsion-free by construction.
    for n in range(1, 6):
        for s in spinc_classes(n):
            cx = build_hfl_complex(n, s)
            cx.validate()
            d = cx.differential
            for r in range(d.rows):
                assert sum(1 for c in range(d.cols) if d[r, c]) <= 1
            for c in range(d.cols):
                assert sum(1 for r in range(d.rows) if d[r, c]) <= 1
                for r in range(d.rows):
                    assert d[r, c] in (0, 1)
