from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints.formulas import (
    COLLISION_EXCLUDED,
    SequenceTable,
    _window,
    a_seq,
    collision_limit_degree,
    degree_identity,
    hs_sequences,
    is_perfect,
    k,
    plane_genus,
    plane_row,
    r,
    verify_sequence_properties,
)


def test_k_values_and_perfection():
    assert k(5, 4) == 21
    assert k(3, 3) == 5
    assert k(2, 5) == 7
    assert k(2, 4) == 5
    assert k(4, 3) == 7
    assert k(1, 7) == 4
    assert is_perfect(2, 2)
    assert not is_perfect(2, 3)  # 10/3
    assert k(2, 3) == Fraction(10, 3)
    for m in range(1, 30):
        assert k(1, 2 * m - 1) == m
    with pytest.raises(ValueError):
        k(0, 4)
    with pytest.raises(ValueError):
        k(3, 0)


def test_r_values():
    assert r(3, 4) == 5
    assert r(3, 5) == 9
    assert r(3, 6) == 16
    assert r(4, 4) == 9
    assert r(4, 5) == 21
    assert r(5, 4) == 15
    with pytest.raises(ValueError):
        r(2, 5)
    with pytest.raises(ValueError):
        r(4, 3)


def test_a_seq_values():
    assert a_seq(5, 4) == 50
    assert a_seq(4, 4) == 21
    assert a_seq(3, 4) == 6
    with pytest.raises(ValueError):
        a_seq(2, 4)
    with pytest.raises(ValueError):
        a_seq(3, 3)


def test_hs_sequences_5_4():
    t = hs_sequences(5, 4)
    assert t.k == 21
    assert [t.s[i] for i in range(2, 6)] == [0, 1, 5, 15]
    assert [t.h[i] for i in range(2, 6)] == [2, 5, 9, 14]
    assert t.s[5] == comb(6, 2)
    for i in range(3, 6):
        assert i * t.h[i - 1] + t.s[i - 1] == t.a[i]
    d = t.as_dict()
    assert d["i"] == [2, 3, 4, 5]
    assert d["h"] == [2, 5, 9, 14]
    assert d["s"] == [0, 1, 5, 15]
    assert d["a"][0] is None
    assert (t.a[5], t.h[5], t.s[5]) == (50, 14, 15)


def test_hs_sequences_guards():
    with pytest.raises(ValueError):
        hs_sequences(3, 4)  # needs n >= d
    with pytest.raises(ValueError):
        hs_sequences(5, 3)
    with pytest.raises(ValueError):
        hs_sequences(7, 4)  # 330/8 is not an integer


def perfect_grid():
    return [
        (n, d)
        for n in range(4, 13)
        for d in range(4, n + 1)
        if is_perfect(n, d)
    ]


def test_all_clauses_on_the_perfect_grid():
    grid = perfect_grid()
    assert len(grid) == 35
    for n, d in grid:
        t = hs_sequences(n, d)
        props = verify_sequence_properties(t)
        assert set(props) == {"i", "ii", "iii", "iv", "v", "vi", "row_identity", "plane_row"}
        bad = [name for name, ok in props.items() if not ok]
        assert not bad, f"({n},{d}) violates {bad}"


def test_clause_check_rejects_mutated_table():
    t = hs_sequences(6, 4)
    h = dict(t.h)
    h[2] += 3
    broken = SequenceTable(n=t.n, d=t.d, k=t.k, h=h, s=dict(t.s), a=dict(t.a))
    assert not verify_sequence_properties(broken)["row_identity"]
    assert not verify_sequence_properties(broken)["plane_row"]


def test_plane_row_values():
    assert plane_row(6) == (6, 1)
    assert plane_row(8) == (12, 0)
    assert plane_row(4) == (2, 0)
    expect_h2 = {6: 6, 7: 9, 8: 12, 9: 15, 10: 19, 11: 23, 12: 27}
    for d, h2 in expect_h2.items():
        assert plane_row(d)[0] == h2


def test_plane_row_is_n_independent():
    for n, d in perfect_grid():
        t = hs_sequences(n, d)
        assert (t.h[2], t.s[2]) == plane_row(d)


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 30), st.integers(0, 10**9))
def test_window_pins_a_unique_residue(i, a):
    lo, hi = _window(i)
    assert hi - lo == i - 1
    cand = [t for t in range(lo, hi + 1) if (a - t) % i == 0]
    assert len(cand) == 1


def test_collision_limit_degree_values():
    assert collision_limit_degree(2, 3) == 3
    assert collision_limit_degree(2, 7) == 6
    assert collision_limit_degree(3, 5) == 4
    for n in range(2, 13):
        assert collision_limit_degree(n, n + 1) == 3
    with pytest.raises(ValueError):
        collision_limit_degree(3, 3)  # too few points to collapse
    for n, h in COLLISION_EXCLUDED:
        with pytest.raises(ValueError):
            collision_limit_degree(n, h)


def test_collision_limit_degree_is_minimal():
    for n, h in [(2, 7), (3, 5), (2, 12), (5, 6), (4, 30)]:
        j = collision_limit_degree(n, h)
        assert comb(n + j, n) > h * (n + 1)
        assert comb(n + j - 1, n) <= h * (n + 1)


def test_plane_genus():
    assert plane_genus(2, [1, 1, 1]) == 0
    assert plane_genus(3, [2, 1, 1, 1, 1]) == 0
    assert plane_genus(6) == 10
    assert plane_genus(6, [3] + [2] * 6) == 1
    with pytest.raises(ValueError):
        plane_genus(0)
    with pytest.raises(ValueError):
        plane_genus(4, [2, 0])


def test_degree_identity():
    assert all(degree_identity(n) for n in range(1, 50))
