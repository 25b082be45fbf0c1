"""Row-batch elimination against a Python-integer Gauss-Jordan oracle.

Shapes reach 80 rows so that the 32-row batches of `ffield._reduced_rows` are
crossed, tall and wide. `rank` eliminates the transpose of a wide matrix, so
every shape is also ranked transposed. The moduli run from 3 to 2^31 - 1, where the float64
products of `ffield._addmul` need several limbs; at 1073741789 the int64 row
steps of `ffield._gauss_jordan` reduce every 7 steps, mid-batch, where the
other moduli reduce after every step or only at the end.

`rank` keeps the rank of every row prefix of a wide or square matrix it
eliminates; the memo tests below check those ranks against the oracle, ranked
in either order, and check that the memo's key and bound hold.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints import ffield
from fatpoints.census import next_odd_prime
from fatpoints.ffield import (
    MAX_MODULUS,
    FieldMatrix,
    _addmul,
    _reduce,
    _reduced_rows,
    is_prime,
    kernel_basis,
    rank,
)

PRIMES = (3, 5, 32003, 65521, 1073741789, 2147483647)


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """The reduced rows of `ffield._reduced_rows` sorted by pivot, zero-padded to
    the shape of a: the reduced row echelon form, and its pivot columns."""
    rows, pivots = _reduced_rows(a, p)
    out = np.zeros(a.shape, dtype=np.int64)
    out[: len(pivots)] = rows[np.argsort(pivots)]
    return out, sorted(pivots)


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
    assert rank(FieldMatrix(a.T, p)) == len(pivots)
    got, got_pivots = rref(m.a, p)
    assert got_pivots == pivots
    want = np.zeros(a.shape, dtype=np.int64)
    if red:
        want[: len(red)] = np.array(red, dtype=np.int64)
    assert np.array_equal(got, want)
    kernel = kernel_basis(m)
    assert [v.tolist() for v in kernel] == oracle_kernel(red, pivots, a.shape[1], p)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 80),
    st.integers(1, 80),
    st.sampled_from(PRIMES),
    st.sampled_from(KINDS),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_elimination_matches_oracle(m, n, p, kind, seed, as_uint32):
    a = build(kind, m, n, p, seed)
    # below 2^16 condition rows are uint32; elimination takes each batch as int64
    check_against_oracle(a.astype(np.uint32) if as_uint32 and p < 2**16 else a, p)


def test_tall_uint32_rank_is_not_copied_whole_to_int64():
    # a tall matrix is eliminated as it is; only its batches become int64
    a = build("uniform", 40_000, 12, 32003, seed=3).astype(np.uint32)
    m = FieldMatrix(a, 32003)
    tracemalloc.start()
    try:
        assert rank(m) == 12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", [(80, 20), (20, 80), (64, 64), (33, 70), (79, 79)])
@pytest.mark.parametrize("kind", KINDS)
def test_elimination_crosses_batches(shape, p, kind):
    check_against_oracle(build(kind, *shape, p, seed=sum(shape) * p % 1009), p)


@pytest.mark.parametrize("shape", [(0, 5), (4, 0), (0, 0)])
def test_elimination_of_empty_shapes(shape):
    check_against_oracle(np.zeros(shape, dtype=np.int64), 5)


def test_rank_of_a_wide_matrix_leaves_it_unchanged():
    a = build("uniform", 20, 90, 32003, seed=7)
    m = FieldMatrix(a, 32003)
    assert not m.a.flags.writeable
    assert rank(m) == 20
    assert np.array_equal(m.a, a)
    assert not m.a.flags.writeable


@pytest.mark.parametrize("p", PRIMES)
def test_wide_rank_deficient_matrix_runs_every_batch_of_its_transpose(p, monkeypatch):
    # rank 30 < 40 rows: the short side never fills, so all of A^T's batches run
    rng = np.random.default_rng(p % 1009)
    left, right = rng.integers(0, p, (40, 30)), rng.integers(0, p, (30, 150))
    a = np.array(left.astype(object) @ right.astype(object) % p, dtype=np.int64)
    batches = []

    def gauss_jordan(x, q):
        batches.append(x.shape)
        return real(x, q)

    real = ffield._gauss_jordan
    monkeypatch.setattr(ffield, "_gauss_jordan", gauss_jordan)
    assert rank(FieldMatrix(a, p)) == len(oracle_rref(a.tolist(), p)[1])
    assert len(batches) == math.ceil(150 / ffield._BATCH)
    assert all(shape[1] == 40 for shape in batches)
    monkeypatch.undo()
    check_against_oracle(a, p)


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


# ------------------------------------------------------------ prefix memo


def prefix_ranks(a: np.ndarray, p: int) -> list[int]:
    """The oracle's rank of rows 0..i-1 of a, for i = 1..rows."""
    return [len(oracle_rref(a[:i].tolist(), p)[1]) for i in range(1, len(a) + 1)]


def fresh_memo(monkeypatch) -> list:
    """Empty the prefix memo; the shapes `_reduced_rows` eliminates are appended to the list."""
    shapes = []
    real = ffield._reduced_rows

    def reduced_rows(a, p):
        shapes.append(a.shape)
        return real(a, p)

    monkeypatch.setattr(ffield, "_PREFIX_RANKS", {})
    monkeypatch.setattr(ffield, "_reduced_rows", reduced_rows)
    return shapes


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 24),
    st.integers(0, 48),
    st.sampled_from(PRIMES),
    st.sampled_from(KINDS),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_memo_gives_the_rank_of_every_prefix(m, extra, p, kind, seed, top_first):
    # wide or square, up to 72 columns: A^T crosses the 32-row batches
    a = build(kind, m, m + extra, p, seed)
    order = range(m, 0, -1) if top_first else range(1, m + 1)
    with pytest.MonkeyPatch.context() as mp:
        eliminated = fresh_memo(mp)
        got = {i: rank(FieldMatrix(a[:i], p)) for i in order}
    assert [got[i] for i in range(1, m + 1)] == prefix_ranks(a, p)
    # top first, every smaller prefix is a hit; smallest first, none is
    assert len(eliminated) == (1 if top_first else m)


def test_memo_key_holds_the_modulus_and_the_width(monkeypatch):
    eliminated = fresh_memo(monkeypatch)
    a = build("repeated-rows", 6, 12, 3, seed=11)  # residues mod 3, so the same bytes mod 5
    # each is the same int64 buffer as a, or as a prefix of it, read at another p or width
    views = [(a, 3), (a, 5), (a[:2].reshape(1, 24), 3), (a.reshape(3, 24), 3),
             (a.reshape(2, 36), 3), (a.reshape(4, 18), 5)]
    for b, p in views:
        assert FieldMatrix(b, p).a.tobytes() == b.tobytes()
        assert rank(FieldMatrix(b, p)) == len(oracle_rref(b.tolist(), p)[1])
    assert len(eliminated) == len(views)
    for b, p in views:
        assert rank(FieldMatrix(b, p)) == len(oracle_rref(b.tolist(), p)[1])
    assert len(eliminated) == len(views)


@pytest.mark.parametrize("first", [np.int64, np.uint32])
def test_memo_key_is_the_residues_not_their_type(first, monkeypatch):
    # the rows of one system are uint32 or int64 by p alone, but the key must
    # not depend on the type: equal residues are one memo entry
    eliminated = fresh_memo(monkeypatch)
    p = 32003
    a = build("repeated-rows", 8, 20, p, seed=5)
    second = np.uint32 if first is np.int64 else np.int64
    want = prefix_ranks(a, p)
    assert rank(FieldMatrix(a.astype(first), p)) == want[-1]
    assert rank(FieldMatrix(a.astype(second), p)) == want[-1]
    assert rank(FieldMatrix(a[:5].astype(second), p)) == want[4]
    assert len(eliminated) == 1


def test_memo_is_cleared_when_full_and_stays_right(monkeypatch):
    eliminated = fresh_memo(monkeypatch)
    monkeypatch.setattr(ffield, "_PREFIX_CAP", 8)
    p = 32003
    mats = [build(kind, 5, 9, p, seed) for seed, kind in enumerate(KINDS * 2)]
    mats.append(build("repeated-rows", 12, 20, p, seed=3))  # more rows than the cap
    for a in mats + mats[::-1]:
        assert rank(FieldMatrix(a, p)) == len(oracle_rref(a.tolist(), p)[1])
        assert len(ffield._PREFIX_RANKS) <= 8
        # the whole matrix is recorded last, so it survives the clearing
        done = len(eliminated)
        assert rank(FieldMatrix(a, p)) == len(oracle_rref(a.tolist(), p)[1])
        assert len(eliminated) == done
    # a matrix cleared from the memo is eliminated again
    assert len(eliminated) > len(mats)
