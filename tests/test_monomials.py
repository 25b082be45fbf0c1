import tracemalloc
from math import comb, factorial, perm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints.census import quadric_rank
from fatpoints.ffield import FieldMatrix, rank
from fatpoints.grammar import parse_spec
from fatpoints.monomials import _derivative_table, evaluate_basis, monomial_basis, point_rows
from fatpoints.schemes import dimension

P = 32003


def one_point(b, pt, m, directions, p):
    """The condition rows of one m-fold point: point_rows on a batch of one."""
    return point_rows(b, [pt], m, [directions], p)


def form_value(coeffs, b, pt) -> int:
    """The form with coefficient vector coeffs over basis b, at the point pt."""
    vals = evaluate_basis(b, np.reshape(pt, (1, -1)), P)[0]
    return int(vals @ coeffs % P)


def test_basis_sizes():
    assert len(monomial_basis(1, 3)) == 4
    assert len(monomial_basis(2, 5)) == 21
    assert len(monomial_basis(6, 3)) == 84
    for n in range(1, 7):
        for d in range(0, 9):
            b = monomial_basis(n, d)
            assert len(b) == comb(n + d, n)


def test_basis_order_is_graded_lex():
    b = monomial_basis(3, 4)
    assert b.exponents[0] == (4, 0, 0, 0)
    assert b.exponents[-1] == (0, 0, 0, 4)
    for e, f in zip(b.exponents, b.exponents[1:]):
        assert e > f  # strictly descending lex within the degree
    for i, e in enumerate(b.exponents):
        assert b.exponents.index(e) == i


def test_basis_rejects_bad_args():
    with pytest.raises(ValueError):
        monomial_basis(0, 3)
    with pytest.raises(ValueError):
        monomial_basis(2, -1)


def test_order_zero_row_is_evaluation():
    b = monomial_basis(3, 4)
    pt = np.array([3, 1, 4, 1], dtype=np.int64)
    rows = one_point(b, pt, 1, (), P)
    assert np.array_equal(rows, evaluate_basis(b, pt.reshape(1, -1), P))


def test_top_order_rows_are_constant():
    # m = d+1: the order-d derivative rows are alpha! times the unit vectors
    b = monomial_basis(2, 3)
    r1 = one_point(b, (1, 2, 3), 4, (), P)
    r2 = one_point(b, (9, 8, 7), 4, (), P)
    assert np.array_equal(r1, r2)
    expect = np.zeros((len(b), len(b)), dtype=np.int64)
    for i, alpha in enumerate(b.exponents):
        expect[i, b.exponents.index(alpha)] = prod(map(factorial, alpha)) % P
    assert np.array_equal(r1, expect)


def test_first_derivative_hand_example():
    # d/dx0 on the degree-2 plane monomials at pt = (a, b, c)
    b = monomial_basis(2, 2)
    a, bb, c = 5, 11, 2
    rows = one_point(b, (a, bb, c), 2, (), 101)
    assert monomial_basis(2, 1).exponents[0] == (1, 0, 0)
    lut = {e: v for e, v in zip(b.exponents, rows[0])}
    assert lut[(2, 0, 0)] == 2 * a % 101
    assert lut[(1, 1, 0)] == bb
    assert lut[(1, 0, 1)] == c
    assert lut[(0, 2, 0)] == 0
    assert lut[(0, 1, 1)] == 0
    assert lut[(0, 0, 2)] == 0


def test_derivative_row_rejects_bad_orders():
    b = monomial_basis(2, 3)
    with pytest.raises(ValueError):
        one_point(b, (1, 2), 2, (), P)  # point with n coordinates
    with pytest.raises(ValueError):
        one_point(b, (1, 2, 3), 0, (), P)  # derivative order m-1 = -1
    with pytest.raises(ValueError):
        one_point(b, (1, 2, 3), 7, (), 7)  # multiplicity not below p
    with pytest.raises(ValueError):
        one_point(b, (1, 2, 3), 2, (), 4294967311)  # int64 products overflow


def test_order_one_leading_form_is_the_differential():
    b = monomial_basis(3, 3)
    rng = np.random.default_rng(7)
    pt = rng.integers(1, P, 4)
    v = rng.integers(1, P, 4)
    lead = one_point(b, pt, 1, (v,), P)[-1]
    firsts = one_point(b, pt, 2, (), P)  # d/dx_0, ..., d/dx_3 in basis order
    diff = np.zeros(len(b), dtype=np.int64)
    for i in range(4):
        diff = (diff + int(v[i]) * firsts[i]) % P
    assert np.array_equal(lead, diff)


def test_leading_form_matches_scaled_derivatives():
    # coeff of t^m in m_j(pt + t v) equals sum over |alpha| = m of
    # D^alpha m_j(pt) v^alpha / alpha!, with the order-m rows of an (m+1)-fold point
    n, d, m = 2, 4, 2
    b = monomial_basis(n, d)
    rng = np.random.default_rng(19)
    pt = rng.integers(1, P, n + 1)
    v = rng.integers(1, P, n + 1)
    lead = one_point(b, pt, m, (v,), P)[-1]
    derivs = one_point(b, pt, m + 1, (), P)
    acc = np.zeros(len(b), dtype=np.int64)
    for alpha, row in zip(monomial_basis(n, m).exponents, derivs):
        fact = 1
        va = 1
        for ai, vi in zip(alpha, v):
            fact = fact * factorial(ai) % P
            va = va * pow(int(vi), ai, P) % P
        w = va * pow(fact, -1, P) % P
        acc = (acc + w * row) % P
    assert np.array_equal(lead, acc)


def test_taylor_expansion_identity():
    # f(pt + t v) as a polynomial in t has the leading-form rows as coefficients
    n, d = 3, 4
    b = monomial_basis(n, d)
    rng = np.random.default_rng(23)
    pt = rng.integers(1, P, n + 1)
    v = rng.integers(1, P, n + 1)
    coeffs = rng.integers(0, P, len(b))
    taylor = [form_value(coeffs, b, pt)]
    taylor += [
        int(one_point(b, pt, m, (v,), P)[-1] @ coeffs % P) for m in range(1, d + 1)
    ]
    for t in (1, 2, 17, 4321):
        direct = form_value(coeffs, b, (pt + t * v) % P)
        horner = 0
        for c in reversed(taylor):
            horner = (horner * t + c) % P
        assert direct == horner


def test_top_leading_form_at_vertex_evaluates_the_direction():
    b = monomial_basis(2, 3)
    v = np.array([4, 9, 25], dtype=np.int64)
    row = one_point(b, (1, 0, 0), 3, (v,), P)[-1]
    assert np.array_equal(row, evaluate_basis(b, v.reshape(1, -1), P)[0])


def test_direction_row_extends_double_point_rank_by_one():
    for p in (32003, 65521):
        b = monomial_basis(3, 4)
        rng = np.random.default_rng(5)
        pt = rng.integers(1, p, 4)
        v = rng.integers(1, p, 4)
        rows = one_point(b, pt, 2, (v,), p)
        assert rows.shape == (5, len(b))
        assert rank(FieldMatrix(rows[:4], p)) == 4
        assert rank(FieldMatrix(rows, p)) == 5


def test_direction_row_rejections():
    b = monomial_basis(2, 3)
    with pytest.raises(ValueError):
        one_point(b, (1, 2, 3), 2, [(2, 4, 6)], P)
    with pytest.raises(ValueError):
        one_point(b, (1, 2, 3), 2, [(1, 1, 1), (0, 0, 0)], P)
    with pytest.raises(ValueError):
        one_point(b, (1, 2, 3), 7, [(1, 1, 1)], 7)
    with pytest.raises(ValueError):
        one_point(b, (1, 2, 3), 0, [(1, 1, 1)], P)


def test_point_rows_take_one_direction_sequence_per_point():
    b = monomial_basis(2, 3)
    with pytest.raises(ValueError):
        point_rows(b, [(1, 2, 3), (3, 2, 1)], 2, [[(1, 1, 1)]], P)
    with pytest.raises(ValueError):  # the proportional direction belongs to the second point
        point_rows(b, [(1, 2, 3), (3, 2, 1)], 2, [[(1, 1, 1)], [(6, 4, 2)]], P)
    assert point_rows(b, np.zeros((0, 3), dtype=np.int64), 2, [], P).shape == (0, len(b))


@pytest.mark.parametrize("kind", ["multiple", "zero"])
@pytest.mark.parametrize("where", [0, 2, 4])  # first, middle and last of five directions
def test_point_rows_refuse_a_proportional_direction_among_several(where, kind):
    b = monomial_basis(2, 3)
    pts = [(1, 2, 3), (3, 2, 1), (1, 1, 4)]
    dirs = [[(1, 0, 0), (0, 1, 0)], [(0, 0, 1)], [(1, 1, 0), (0, 1, 1)]]
    assert point_rows(b, pts, 2, dirs, P).shape == (3 * 3 + 5, len(b))
    owner, t = [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)][where]
    bad = tuple(5 * x % P for x in pts[owner]) if kind == "multiple" else (0, 0, 0)
    dirs[owner][t] = bad
    with pytest.raises(ValueError, match="proportional"):
        point_rows(b, pts, 2, dirs, P)


@pytest.mark.parametrize("p", [3, 7, 32003, 65521, 65537, 2**31 - 1])
def test_evaluate_basis_against_direct_powers(p):
    # below 2^16 by discrete logarithms (65521 the largest such prime), from
    # 65537 on by power tables, whose products hold _fold(p) = 3 and 2 residues
    # between reductions. A quintic in five variables has up to five factors,
    # and the point of all p - 1 gives the largest products; zero coordinates
    # make 0^e = 0 for e > 0 but 0^0 = 1, and a degree of at least p (a power
    # x^e with e >= p, x^p = x) passes the order p - 1 of F_p^*
    n = 4
    rng = np.random.default_rng(11)
    pts = rng.integers(1, p, (8, n + 1))
    pts[[0, 1], [0, 3]] = 0  # one zero coordinate
    pts[2:4] *= np.eye(n + 1, dtype=np.int64)[[2, 4]]  # all coordinates but one zero
    pts = np.vstack([pts, np.full((1, n + 1), p - 1)])
    for d in [0, 5] + ([p, p + 3] if p < 10 else []):
        b = monomial_basis(n, d)
        got = evaluate_basis(b, pts, p)
        for i, pt in enumerate(pts):
            for j, beta in enumerate(b.exponents):
                want = 1
                for x, e in zip(pt, beta):
                    want = want * pow(int(x), e, p) % p
                assert got[i, j] == want, (d, pt.tolist(), beta)


def test_evaluation_refuses_moduli_beyond_int64_range():
    # residue products mod 4294967311 overflow int64 and came out wrong
    b = monomial_basis(2, 3)
    with pytest.raises(ValueError):
        evaluate_basis(b, np.ones((1, 3), dtype=np.int64), 4294967311)


@pytest.mark.parametrize("p", [9, 15, 2])
def test_row_layer_refuses_moduli_that_are_not_odd_primes(p):
    # a composite modulus or 2 used to give residues as if it were a prime field
    with pytest.raises(ValueError):
        evaluate_basis(monomial_basis(2, 3), np.ones((1, 3), dtype=np.int64), p)
    with pytest.raises(ValueError):
        point_rows(monomial_basis(2, 3), [[1, 2, 3]], 1, [[]], p)
    with pytest.raises(ValueError):
        quadric_rank(np.ones(6, dtype=np.int64), monomial_basis(2, 2), p)


@pytest.mark.parametrize("p", [3, 5, 7, 32003])
def test_derivative_table_against_falling_factorials(p):
    # scale from exact falling factorials, reduced once: a product of them is at
    # most d! = 5040. gather is checked by the exponents it points at.
    for n in range(1, 6):
        for d in range(8):
            betas = monomial_basis(n, d).exponent_array
            for k in range(d + 2):
                alphas = monomial_basis(n, k).exponent_array
                gammas, gather, scale = _derivative_table.__wrapped__(n, d, k, p)
                assert gammas is monomial_basis(n, max(d - k, 0))
                falling = np.array([[perm(b, a) for a in range(k + 1)] for b in range(d + 1)])
                exact = np.ones(scale.shape, dtype=np.int64)
                for i in range(n + 1):
                    exact *= falling[betas[None, :, i], alphas[:, i, None]]
                assert np.array_equal(scale, exact % p), (n, d, k)
                kept = scale != 0
                assert not gather[~kept].any(), (n, d, k)
                for i in range(n + 1):
                    diff = betas[None, :, i] - alphas[:, i, None]
                    assert (gammas.exponent_array[gather, i] == diff)[kept].all(), (n, d, k)


def test_large_systems_index_their_derivative_tables():
    # exponent keys in base d - k + 1 = 3 overflowed int64 here (3^40 > 2^63), an IndexError
    assert dimension(parse_spec("L(40,2;1)"), seeds=(0,)).computed == comb(42, 2) - 2


def test_derivative_table_memory_is_about_twice_its_output():
    for d in (8, 2, 6):
        monomial_basis(8, d)  # the bases are cached apart from the table
    tracemalloc.start()
    try:
        _, gather, scale = _derivative_table.__wrapped__(8, 8, 2, 32003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * (gather.nbytes + scale.nbytes)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 10**6), st.integers(2, 1000))
def test_eval_form_homogeneity(n, d, seed, lam):
    b = monomial_basis(n, d)
    rng = np.random.default_rng(seed)
    pt = rng.integers(1, P, n + 1)
    coeffs = rng.integers(0, P, len(b))
    base = form_value(coeffs, b, pt)
    scaled = form_value(coeffs, b, pt * lam % P)
    assert scaled == pow(lam, d, P) * base % P
