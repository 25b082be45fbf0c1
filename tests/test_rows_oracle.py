"""Condition rows against a scalar oracle in Python integers.

The oracle evaluates each entry from its definition: a derivative row entry
is D^alpha x^beta at the point, the product over the variables of
(beta_i)_(alpha_i) x_i^(beta_i - alpha_i); a tangent row entry is the
coefficient of t^m in x^beta(pt + t*v), expanded by polynomial
multiplication. Each point's powers are listed once, reduced mod p, and every
product is reduced factor by factor. The basis order is enumerated here too
(graded lex, x_0 first).
"""

from functools import lru_cache
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints.grammar import parse_spec
from fatpoints.monomials import monomial_basis, point_rows
from fatpoints.schemes import (
    FatPoint,
    Placement,
    SchemeSpec,
    condition_matrix,
    double_points,
    sample,
)
from fatpoints.suites import flagged_system

# 65521 is the last prime whose rows are uint32, 65537 the first whose rows stay int64
PRIMES = (32003, 65521, 65537, 2147483647)


@lru_cache(maxsize=None)
def graded_lex(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    exps = (e for e in product(range(d + 1), repeat=n + 1) if sum(e) == d)
    return tuple(sorted(exps, reverse=True))


def falling(b: int, a: int) -> int:
    v = 1
    for t in range(a):
        v *= b - t  # hits the factor 0 when a > b
    return v


def powers(x, d, p) -> list[int]:
    """[x^0, x^1, ..., x^d] mod p."""
    out = [1]
    for _ in range(d):
        out.append(out[-1] * int(x) % p)
    return out


def derivative_rows(n, d, k, pt, p):
    """One row per alpha of order k: D^alpha x^beta at pt, for every beta."""
    # factor[i][a][b] = (b)_a x_i^(b - a) mod p, and 0 for a > b
    factor = [
        [[falling(b, a) * pw[b - a] % p if a <= b else 0 for b in range(d + 1)]
         for a in range(k + 1)]
        for pw in (powers(x, d, p) for x in pt)
    ]
    betas = graded_lex(n, d)
    rows = []
    for alpha in graded_lex(n, k):
        cols = [f[a] for f, a in zip(factor, alpha)]
        row = []
        for beta in betas:
            v = 1
            for col, b in zip(cols, beta):
                v = v * col[b] % p
                if not v:
                    break
            row.append(v)
        rows.append(row)
    return rows


def tangent_row(n, d, pt, v, m, p):
    xs, ys = [powers(x, d, p) for x in pt], [powers(y, d, p) for y in v]
    row = []
    for beta in graded_lex(n, d):
        poly = [1]  # coefficients in t of prod_i (pt_i + t v_i)^beta_i, up to t^m
        for b, x, y in zip(beta, xs, ys):
            factor = [comb(b, k) * x[b - k] * y[k] % p for k in range(b + 1)]
            out = [0] * min(len(poly) + b, m + 1)
            for i, c in enumerate(poly):
                for j, f in enumerate(factor[: len(out) - i]):
                    out[i + j] = (out[i + j] + c * f) % p
            poly = out
        row.append(poly[m] if m < len(poly) else 0)
    return row


def oracle_rows(n, d, pt, m, directions, p):
    rows = derivative_rows(n, d, m - 1, pt, p)
    rows += [tangent_row(n, d, pt, v, m, p) for v in directions]
    return np.array(rows, dtype=np.int64).reshape(-1, comb(n + d, n))


def proportional(a, b, p) -> bool:
    a = [int(x) % p for x in a]
    b = [int(x) % p for x in b]
    if not any(a) or not any(b):
        return True
    return all((a[i] * b[j] - a[j] * b[i]) % p == 0 for i in range(len(a)) for j in range(i))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_point_rows_match_scalar_oracle(data):
    n = data.draw(st.integers(1, 5), label="n")
    d = data.draw(st.integers(0, 8), label="d")
    m = data.draw(st.integers(1, d + 1), label="m")
    p = data.draw(st.sampled_from(PRIMES), label="p")
    vec = st.lists(st.integers(0, p - 1), min_size=n + 1, max_size=n + 1)
    pt = data.draw(vec.filter(any), label="pt")
    dirs = data.draw(st.lists(vec, max_size=2), label="directions")
    basis = monomial_basis(n, d)
    if any(proportional(pt, v, p) for v in dirs):
        with pytest.raises(ValueError):
            point_rows(basis, [pt], m, [dirs], p)
        return
    got = point_rows(basis, [pt], m, [dirs], p)
    assert got.dtype == (np.uint32 if p < 2**16 else np.int64)
    assert np.array_equal(got, oracle_rows(n, d, pt, m, dirs, p))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_point_rows_of_a_batch_match_the_oracle_point_by_point(data):
    n = data.draw(st.integers(1, 4), label="n")
    d = data.draw(st.integers(0, 6), label="d")
    m = data.draw(st.integers(1, d + 1), label="m")
    p = data.draw(st.sampled_from(PRIMES), label="p")
    vec = st.lists(st.integers(0, p - 1), min_size=n + 1, max_size=n + 1)
    pts = data.draw(st.lists(vec.filter(any), min_size=2, max_size=5), label="pts")
    dirs = [
        data.draw(st.lists(vec.filter(lambda v, x=x: not proportional(x, v, p)), max_size=2))
        for x in pts
    ]
    got = point_rows(monomial_basis(n, d), pts, m, dirs, p)
    want = [oracle_rows(n, d, pt, m, vs, p) for pt, vs in zip(pts, dirs)]
    assert np.array_equal(got, np.vstack(want))


def _explicit_limit() -> SchemeSpec:
    # a triple point with explicit chord directions, as collision1_check builds it
    pts = [(1, 5, 9, 2), (1, 7, 3, 8), (1, 4, 4, 6), (1, 2, 8, 1)]
    dirs = tuple(
        Placement.explicit([0] + [(a - b) % 32003 for a, b in zip(pts[i][1:], pts[j][1:])])
        for i in range(4)
        for j in range(i + 1, 4)
    )
    return SchemeSpec(3, 4, (FatPoint(Placement.explicit(pts[0]), 3, dirs),))


ROW_KINDS = {
    "double": double_points(3, 4, 9),
    "triple": parse_spec("L(3,3;3,2^3)"),
    "generic-directions": parse_spec("L(5,4;3[15],2^14)"),
    "subspace": flagged_system(5, 4),
    "explicit": _explicit_limit(),
    "cluster": parse_spec("L(3,4;2,2@pt0,2[1@pt0],2[2@pt1])"),
    # multiplicities 1, 2, 3 and d+1 interleaved, tangent directions in the middle:
    # rows grouped by multiplicity instead of by point order fail here
    "interleaved": parse_spec("L(3,4;2,1,3[2],5[1],1,2,3)"),
}


@pytest.mark.parametrize("kind", ROW_KINDS)
def test_condition_matrix_matches_oracle_stacking(kind):
    spec, p, seed = ROW_KINDS[kind], 32003, 0
    sm = sample(spec, p, seed)
    blocks = [
        oracle_rows(spec.n, spec.d, coords, pt.multiplicity, vecs, p)
        for pt, coords, vecs in zip(spec.points, sm.points, sm.directions)
    ]
    assert np.array_equal(condition_matrix(spec, p, seed).a, np.vstack(blocks))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_point_rows_match_the_oracle_at_primes_not_above_the_degree(data):
    # for d >= p some falling factorial (beta)_alpha with alpha <= beta is 0 mod p
    p = data.draw(st.sampled_from((5, 7)), label="p")
    n = data.draw(st.integers(1, 4), label="n")
    d = data.draw(st.integers(p, 9), label="d")
    m = data.draw(st.integers(1, p - 1), label="m")
    vec = st.lists(st.integers(0, p - 1), min_size=n + 1, max_size=n + 1)
    pts = data.draw(st.lists(vec.filter(any), min_size=1, max_size=3), label="pts")
    dirs = [
        data.draw(st.lists(vec.filter(lambda v, x=x: not proportional(x, v, p)), max_size=2))
        for x in pts
    ]
    got = point_rows(monomial_basis(n, d), pts, m, dirs, p)
    want = [oracle_rows(n, d, pt, m, vs, p) for pt, vs in zip(pts, dirs)]
    assert np.array_equal(got, np.vstack(want))
