"""Row-batch elimination against a Python-integer Gauss-Jordan oracle.

Shapes reach 80 rows so that the 32-row batches of `ffield._eliminate` are
crossed, tall and wide. The moduli run from 3 to 2^31 - 1, where the float64
products of `ffield._addmul` need several limbs; at 1073741789 the int64 row
steps of `ffield._gauss_jordan` reduce every 7 steps, mid-batch, where the
other moduli reduce after every step or only at the end.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints.census import next_odd_prime
from fatpoints.ffield import MAX_MODULUS, FieldMatrix, _addmul, _reduce, is_prime, kernel_basis, rank, rref

PRIMES = (3, 5, 32003, 65521, 1073741789, 2147483647)


def oracle_rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan on Python integers: (nonzero reduced rows, pivot columns)."""
    a = [[v % p for v in row] for row in rows]
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [v * inv % p for v in a[r]]
        for j in range(len(a)):
            if j != r and a[j][c]:
                f = a[j][c]
                a[j] = [(u - f * v) % p for u, v in zip(a[j], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def oracle_kernel(red: list[list[int]], pivots: list[int], ncols: int, p: int) -> list[list[int]]:
    """The kernel vector of each free column, scaled to a leading 1."""
    out = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(red, pivots):
            v[c] = -row[f] % p
        lead = pow(next(x for x in v if x), -1, p)
        out.append([x * lead % p for x in v])
    return out


def build(kind: str, m: int, n: int, p: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)

    def draw(shape):
        return rng.integers(0, p, shape, dtype=np.int64)

    if kind == "uniform":
        return draw((m, n))
    if kind == "product":  # rank at most k: an (m x k) times (k x n) product
        k = int(rng.integers(0, min(m, n) + 1))
        left, right = draw((m, k)).astype(object), draw((k, n)).astype(object)
        return np.array(left @ right % p if k else np.zeros((m, n), dtype=object), dtype=np.int64)
    if kind == "zero-columns":
        a = draw((m, n))
        a[:, rng.random(n) < 0.3] = 0
        return a
    a = draw((m, n))  # "repeated-rows": later rows are multiples of earlier ones
    for i in range(1, m):
        if rng.random() < 0.5:
            a[i] = a[int(rng.integers(0, i))] * int(rng.integers(0, p)) % p
    return a


KINDS = ("uniform", "product", "zero-columns", "repeated-rows")


def check_against_oracle(a: np.ndarray, p: int) -> None:
    m = FieldMatrix(a, p)
    red, pivots = oracle_rref(a.tolist(), p)
    assert rank(m) == len(pivots)
    got, got_pivots = rref(m)
    assert got_pivots == tuple(pivots)
    want = np.zeros(a.shape, dtype=np.int64)
    if red:
        want[: len(red)] = np.array(red, dtype=np.int64)
    assert np.array_equal(got.a, want)
    kernel = kernel_basis(m)
    assert [v.tolist() for v in kernel] == oracle_kernel(red, pivots, a.shape[1], p)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 80),
    st.integers(1, 80),
    st.sampled_from(PRIMES),
    st.sampled_from(KINDS),
    st.integers(0, 2**32 - 1),
)
def test_elimination_matches_oracle(m, n, p, kind, seed):
    check_against_oracle(build(kind, m, n, p, seed), p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", [(80, 20), (20, 80), (64, 64), (33, 70), (79, 79)])
@pytest.mark.parametrize("kind", KINDS)
def test_elimination_crosses_batches(shape, p, kind):
    check_against_oracle(build(kind, *shape, p, seed=sum(shape) * p % 1009), p)


@pytest.mark.parametrize("shape", [(0, 5), (4, 0), (0, 0)])
def test_elimination_of_empty_shapes(shape):
    check_against_oracle(np.zeros(shape, dtype=np.int64), 5)


def test_elimination_worst_case_entries():
    # every entry p-1: rank 1, and the largest residues in every product
    for p in PRIMES:
        a = np.full((70, 75), p - 1, dtype=np.int64)
        a[40:, 60:] = 0
        check_against_oracle(a, p)


def prev_prime(n: int) -> int:
    q = n - 1
    while not is_prime(q):
        q -= 1
    return q


def largest_one_limb_prime(k: int) -> int:
    """The largest prime p with k * 2^bits(p) * (p-1) <= 2^52: one limb in `_addmul`."""
    for bits in range(31, 1, -1):
        top = min(2**bits - 1, 2**52 // (k * 2**bits) + 1)
        if top >= 2 ** (bits - 1):
            return prev_prime(top + 1)
    raise AssertionError(k)


@pytest.mark.parametrize("k", [1, 32, 495])
def test_addmul_is_exact_on_extreme_entries(k):
    one = largest_one_limb_prime(k)
    two = next_odd_prime(one)
    assert k * 2 ** one.bit_length() * (one - 1) <= 2**52 < k * 2 ** two.bit_length() * (two - 1)
    for p in (one, two, MAX_MODULUS - 1):
        check_addmul(p, k)


def check_addmul(p: int, k: int) -> None:
    rng = np.random.default_rng(k)
    near_p = p - rng.integers(0, 3, (3, k))
    for a, b, c in [
        (np.full((3, k), p), np.full((k, 4), p - 1), np.full((3, 4), p - 1)),
        (np.full((3, k), p - 1), np.full((k, 4), p - 1), np.zeros((3, 4), dtype=np.int64)),
        (near_p, p - 1 - rng.integers(0, 3, (k, 4)), rng.integers(p - 3, p, (3, 4))),
        (rng.integers(0, p + 1, (3, k)), rng.integers(0, p, (k, 4)), rng.integers(0, p, (3, 4))),
    ]:
        want = (c.astype(object) + a.astype(object) @ b.astype(object)) % p
        got = _addmul(c.astype(np.float64), a.astype(np.int64), b.astype(np.float64), p)
        assert got.dtype == np.float64
        assert np.array_equal(got.astype(np.int64), want.astype(np.int64))


@pytest.mark.parametrize("p", [3, 32003, 2169169, 67108859, MAX_MODULUS - 1])
def test_reduce_near_the_float64_limit(p):
    q = 2**52 // p
    xs = [0, 1, p - 1, p, p + 1, q * p - 1, q * p, 2**52 - 1, 2**52, (q - 1) * p + p - 1]
    got = _reduce(np.array(xs, dtype=np.float64), p)
    assert got.astype(np.int64).tolist() == [x % p for x in xs]
