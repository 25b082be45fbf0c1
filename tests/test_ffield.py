import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints.ffield import (
    DEFAULT_PRIMES,
    MAX_MODULUS,
    FieldMatrix,
    PrimeField,
    is_prime,
    kernel_basis,
    rank,
    rref,
)

P = DEFAULT_PRIMES[0]


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 127, 251, 499, 65521, 32003]
    composites = [1, 0, 4, 9, 91, 65520, 32001, 561, 341550071728321 * 3]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(91)
    with pytest.raises(ValueError):
        PrimeField(2)
    f = PrimeField(13)
    assert f.inv(5) * 5 % 13 == 1


def test_prime_field_rejects_moduli_beyond_int64_range():
    # (p-1)^2 must fit int64 with room for a subtraction
    assert (MAX_MODULUS - 1) ** 2 < 2**62
    assert PrimeField(2147483647).p == MAX_MODULUS - 1
    with pytest.raises(ValueError):
        PrimeField(4294967311)
    with pytest.raises(ValueError):
        rank(FieldMatrix([[1, 2], [2, 4]], 4294967311))


def test_field_matrix_reduces_entries():
    m = FieldMatrix([[7, -1], [14, 6]], 7)
    assert m.p == 7
    assert m.shape == (2, 2)
    assert m.a.min() >= 0 and m.a.max() < 7
    assert m.a[0, 1] == 6


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
    m, pivots = rref(FieldMatrix([[2, 4], [1, 2]], 7))
    assert m.a.tolist() == [[1, 2], [0, 0]]
    assert pivots == (0,)
    rng = np.random.default_rng(3)
    big = FieldMatrix(rng.integers(0, P, (10, 10)), P)
    _, piv = rref(big)
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
    once, piv1 = rref(m)
    twice, piv2 = rref(once)
    assert piv1 == piv2
    assert np.array_equal(once.a, twice.a)
    for j in piv1:
        col = once.a[:, j]
        assert col.sum() == 1 and col.max() == 1  # pivot columns are unit vectors
