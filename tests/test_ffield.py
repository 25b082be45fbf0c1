from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints.census import next_odd_prime
from fatpoints.ffield import (
    DEFAULT_PRIMES,
    MAX_MODULUS,
    FieldMatrix,
    _floor_mod,
    _fold,
    _log_tables,
    _proportional,
    _reduce,
    check_modulus,
    is_prime,
    kernel_basis,
    normalize,
    rank,
)
from test_ffield_oracle import PRIMES, rref

P = DEFAULT_PRIMES[0]


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 127, 251, 499, 65521, 32003]
    composites = [1, 0, 4, 9, 91, 65520, 32001, 561, 341550071728321 * 3]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        check_modulus(91)
    with pytest.raises(ValueError):
        check_modulus(2)
    assert check_modulus(13) == 13
    with pytest.raises(ValueError):
        FieldMatrix([[1]], 91)


def test_check_modulus_memo_refuses_every_time_and_keeps_the_type():
    for _ in range(3):
        with pytest.raises(ValueError):
            check_modulus(91)
        with pytest.raises(ValueError):
            check_modulus(4294967311)
    hits = check_modulus.cache_info().hits
    assert type(check_modulus(np.int64(13))) is np.int64
    assert type(check_modulus(13)) is int
    assert check_modulus(13) == 13
    assert check_modulus.cache_info().hits > hits


def test_prime_field_rejects_moduli_beyond_int64_range():
    # (p-1)^2 must fit int64 with room for a subtraction
    assert (MAX_MODULUS - 1) ** 2 < 2**62
    assert check_modulus(2147483647) == MAX_MODULUS - 1
    with pytest.raises(ValueError):
        check_modulus(4294967311)
    with pytest.raises(ValueError):
        rank(FieldMatrix([[1, 2], [2, 4]], 4294967311))


def test_field_matrix_reduces_entries():
    m = FieldMatrix([[7, -1], [14, 6]], 7)
    assert m.p == 7
    assert (m.rows, m.cols) == (2, 2)
    assert m.a.min() >= 0 and m.a.max() < 7
    assert m.a[0, 1] == 6
    # one entry just out of range, at either end, is enough to reduce the matrix
    for bad, want in ((7, 0), (-1, 6)):
        m = FieldMatrix(np.array([[1, 2], [bad, 3]], dtype=np.int64), 7)
        assert m.a.tolist() == [[1, 2], [want, 3]]
    # an int64 array already reduced is kept, not copied, and made read-only
    a = np.array([[0, 6], [3, 5]], dtype=np.int64)
    m = FieldMatrix(a, 7)
    assert m.a.tolist() == [[0, 6], [3, 5]]
    assert np.shares_memory(m.a, a)
    assert not m.a.flags.writeable


def test_field_matrix_keeps_reduced_uint32_rows():
    # condition rows below p = 2^16 are uint32, kept as they are
    a = np.array([[0, 6], [3, 5]], dtype=np.uint32)
    m = FieldMatrix(a, 7)
    assert m.a.dtype == np.uint32 and np.shares_memory(m.a, a)
    assert not m.a.flags.writeable
    # one entry out of range, the largest uint32 included, reduces the matrix
    # into a new uint32 array
    for bad in (7, 2**32 - 1):
        b = np.array([[1, 2], [bad, 3]], dtype=np.uint32)
        m = FieldMatrix(b, 7)
        assert m.a.tolist() == [[1, 2], [bad % 7, 3]]
        assert m.a.dtype == np.uint32 and not np.shares_memory(m.a, b)
    # any other type is taken as int64
    assert FieldMatrix(np.array([[1, 9]], dtype=np.int32), 7).a.tolist() == [[1, 2]]
    assert FieldMatrix(np.array([[1, 9]], dtype=np.uint16), 7).a.dtype == np.int64


@pytest.mark.parametrize("p", [3, 5, 31, 32003, 65521])
def test_log_tables_invert_the_powers_of_a_primitive_root(p):
    exp, log = _log_tables(p)
    g = int(exp[1])
    assert len(exp) == p - 1 and exp[0] == 1
    # g has order p - 1: no g^((p-1)/q) is 1 for a prime q | p - 1
    assert pow(g, p - 1, p) == 1
    assert all(pow(g, (p - 1) // q, p) != 1 for q in range(2, p) if (p - 1) % q == 0 and is_prime(q))
    x = np.arange(1, p)
    assert np.array_equal(exp[log[x].astype(np.int64)], x)
    assert np.array_equal(log[exp], np.arange(p - 1))


def test_log_tables_stop_at_two_to_the_sixteen():
    assert _log_tables(65537) is None and _log_tables(2**31 - 1) is None


FOLD_PRIMES = (3, 7, 32003, 65521, 2**31 - 1)


def test_fold_keeps_products_in_int64():
    assert [_fold(p) for p in FOLD_PRIMES] == [31, 21, 4, 3, 2]
    assert all((p - 1) ** _fold(p) < 2**63 for p in FOLD_PRIMES)


@pytest.mark.parametrize("p", FOLD_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_floor_mod_matches_remainder(p, data):
    # as the row builder uses it: int64 products of _fold(p) residues, the
    # largest one included
    r = _fold(p)
    residues = st.lists(st.integers(0, p - 1), min_size=r, max_size=r)
    factors = data.draw(st.lists(residues, max_size=6)) + [[p - 1] * r]
    products = np.prod(np.array(factors, dtype=np.int64), axis=1)
    assert _floor_mod(products, p).tolist() == [prod(f) % p for f in factors]
    # and on its whole domain, x >= -2^63 + p, negatives included
    ints = st.integers(-(2**63) + p, 2**63 - 1)
    wide = data.draw(st.lists(ints, max_size=20)) + [-(2**63) + p, -1, 0, 2**63 - 1]
    assert _floor_mod(np.array(wide, dtype=np.int64), p).tolist() == [v % p for v in wide]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, (65521 - 1) ** 2), max_size=40),
    st.lists(st.integers(1, 65521 - 2), max_size=10),
    st.integers(1, 3),
)
def test_floor_mod_reduces_uint32_products(xs, multiples, width):
    # as the row builder uses it below 2^16: uint32 products of two residues,
    # up to (p-1)^2 at p = 65521, in a 2-D block; k*p - 1 is where an inexact
    # quotient rounds up
    p = 65521
    xs += [k * p + e for k in multiples for e in (-1, 0)]
    xs += [0, p - 1, p, (p - 1) ** 2] * width
    x = np.array(xs[: len(xs) // width * width], dtype=np.uint32).reshape(-1, width)
    want = [v % p for v in x.ravel().tolist()]
    got = _floor_mod(x, p)
    assert got is x and got.dtype == np.uint32
    assert got.ravel().tolist() == want


def test_field_matrix_is_write_protected():
    m = FieldMatrix(np.eye(3, dtype=np.int64), P)
    with pytest.raises(ValueError):
        m.a[0, 0] = 5


def test_rank_examples():
    assert rank(FieldMatrix(np.eye(3, dtype=np.int64), P)) == 3
    assert rank(FieldMatrix(np.zeros((4, 7), dtype=np.int64), P)) == 0
    assert rank(FieldMatrix([[1, 2, 3], [2, 4, 6]], 7)) == 1


def test_kernel_examples():
    assert kernel_basis(FieldMatrix(np.eye(3, dtype=np.int64), P)) == []
    assert len(kernel_basis(FieldMatrix(np.zeros((2, 3), dtype=np.int64), P))) == 3
    vs = kernel_basis(FieldMatrix([[1, 1, 0]], 5))
    assert len(vs) == 2
    for v in vs:
        assert (v[0] + v[1]) % 5 == 0
        nz = np.nonzero(v)[0]
        assert v[nz[0]] == 1  # normalized leading entry


def test_rref_examples():
    red, pivots = rref(FieldMatrix([[2, 4], [1, 2]], 7).a, 7)
    assert red.tolist() == [[1, 2], [0, 0]]
    assert pivots == [0]
    rng = np.random.default_rng(3)
    big = FieldMatrix(rng.integers(0, P, (10, 10)), P)
    _, piv = rref(big.a, P)
    assert len(piv) == 10  # full rank with overwhelming probability


matrices = st.integers(2, 6).flatmap(
    lambda r: st.integers(2, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(0, 100), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(matrices, st.sampled_from(DEFAULT_PRIMES))
def test_rank_plus_nullity_is_cols(rows, p):
    m = FieldMatrix(rows, p)
    assert rank(m) + len(kernel_basis(m)) == m.cols
    assert rank(m) <= min(m.rows, m.cols)


@settings(max_examples=60, deadline=None)
@given(matrices, st.sampled_from(DEFAULT_PRIMES))
def test_kernel_vectors_annihilate(rows, p):
    m = FieldMatrix(rows, p)
    for v in kernel_basis(m):
        assert not (m.a @ v % p).any()


@settings(max_examples=40, deadline=None)
@given(matrices, st.randoms(use_true_random=False))
def test_rank_row_permutation_and_scaling_invariance(rows, rnd):
    m = FieldMatrix(rows, P)
    perm = list(range(m.rows))
    rnd.shuffle(perm)
    scales = np.array([rnd.randrange(1, P) for _ in range(m.rows)], dtype=np.int64)
    scrambled = FieldMatrix(m.a[perm] * scales[:, None] % P, P)
    assert rank(scrambled) == rank(m)


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_rref_idempotent(rows):
    m = FieldMatrix(rows, P)
    once, piv1 = rref(m.a, P)
    twice, piv2 = rref(once, P)
    assert piv1 == piv2
    assert np.array_equal(once, twice)
    for j in piv1:
        col = once[:, j]
        assert col.sum() == 1 and col.max() == 1  # pivot columns are unit vectors


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.sampled_from(PRIMES), st.integers(2, MAX_MODULUS - 2).map(next_odd_prime)),
    st.lists(st.integers(0, 2**52), min_size=1, max_size=50),
)
def test_reduce_is_python_remainder(p, xs):
    got = _reduce(np.array(xs, dtype=np.float64), p)
    assert got.astype(np.int64).tolist() == [x % p for x in xs]


# every float32 integer below 2^24, in slices of 2^20: p = 131 reduces the
# census's once-reduced products at space-cubic@131 (up to 4 * 130^3), 2039 is
# the largest prime with float32 census residues at d = 1
@pytest.mark.parametrize("p", [131, 2039])
def test_reduce_is_exact_on_every_float32_integer_below_2_24(p):
    for lo in range(0, 2**24, 2**20):
        x = np.arange(lo, lo + 2**20, dtype=np.int64)
        got = _reduce(x.astype(np.float32), p)
        assert got.dtype == np.float32
        assert np.array_equal(got.astype(np.int64), x % p), lo


def minors_vanish(a, b, p) -> bool:
    """The former definition of proportionality: a zero vector, or all 2x2 minors 0."""
    a, b = [int(x) for x in a], [int(x) for x in b]
    if not any(x % p for x in a) or not any(x % p for x in b):
        return True
    return all(
        (a[i] * b[j] - a[j] * b[i]) % p == 0
        for i in range(len(a))
        for j in range(i + 1, len(a))
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_normalize_and_proportional_match_minors(data):
    p = data.draw(st.sampled_from([3, 5, 7, 32003, MAX_MODULUS - 1]), label="p")
    size = data.draw(st.integers(1, 5), label="size")
    vec = st.lists(st.integers(-3 * p, 3 * p), min_size=size, max_size=size)
    a = np.array(data.draw(vec, label="a"), dtype=np.int64)
    # b is often a multiple of a, sometimes of a zero vector
    if data.draw(st.booleans(), label="multiple"):
        b = a % p * data.draw(st.integers(0, p - 1), label="scale") % p
    else:
        b = np.array(data.draw(vec, label="b"), dtype=np.int64)
    assert _proportional(a, b, p) == minors_vanish(a, b, p)
    if not (a % p).any():
        with pytest.raises(ValueError, match="zero vector"):
            normalize(a, p)
        return
    rep = normalize(a, p)
    assert rep[np.flatnonzero(rep)[0]] == 1
    assert ((0 <= rep) & (rep < p)).all()
    assert minors_vanish(rep, a, p)
    assert np.array_equal(normalize(rep * 2, p), rep)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_proportional_of_a_batch_matches_minors_pair_by_pair(data):
    p = data.draw(st.sampled_from([3, 5, 32003, 2**31 - 1]), label="p")
    size = data.draw(st.integers(1, 5), label="size")
    count = data.draw(st.integers(0, 6), label="count")
    vec = st.lists(st.integers(-3 * p, 3 * p), min_size=size, max_size=size)
    pairs = []
    for _ in range(count):
        a = data.draw(vec, label="a")
        kind = data.draw(st.sampled_from(["free", "multiple", "zero"]), label="kind")
        if kind == "multiple":  # a scale of 0 gives the zero vector too
            scale = data.draw(st.integers(0, p - 1), label="scale")
            b = [x % p * scale % p for x in a]
        else:
            b = [0] * size if kind == "zero" else data.draw(vec, label="b")
        # either side may hold the zero vector
        pairs.append((b, a) if data.draw(st.booleans(), label="swap") else (a, b))
    a = np.array([u for u, _ in pairs], dtype=np.int64).reshape(count, size)
    b = np.array([v for _, v in pairs], dtype=np.int64).reshape(count, size)
    got = _proportional(a, b, p)
    assert got.shape == (count,)
    assert got.tolist() == [minors_vanish(u, v, p) for u, v in pairs]
