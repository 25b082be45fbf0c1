import json
import time
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import product
from math import comb, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints import census
from fatpoints.census import (
    CENSUS_PRIMES,
    FiberCensus,
    IdentifiabilityVerdict,
    RationalMap,
    census_for_doubles,
    classify,
    fiber_census,
    identifiability_verdict,
    map_from_system,
    next_odd_prime,
    projective_count,
    quadric_rank,
)
from fatpoints.census import _chart_images
from fatpoints.cli import main
from fatpoints.ffield import check_modulus, is_prime
from fatpoints.grammar import parse_spec
from fatpoints.monomials import monomial_basis
from fatpoints.schemes import double_points


def test_projective_count():
    assert projective_count(1, 499) == 500
    assert projective_count(2, 5) == 31
    assert projective_count(3, 2) == 15


def canonical_points(n, p):
    """P^n(F_p) chart by chart (first nonzero coordinate 1), last coordinate fastest."""
    for lead in range(n + 1):
        for free in product(range(p), repeat=n - lead):
            yield (0,) * lead + (1,) + free


def test_positions_follow_the_canonical_enumeration():
    # any nonzero multiple of the i-th canonical point lands on i, zero on |P^n(F_p)|;
    # at either residue width, the last p holds products x_j inv(x_0) near its bound:
    # (p-1)^2 <= 2^23 at 2039, and past it at 32003
    rng = np.random.default_rng(0)
    for dtype, large in ((np.float32, 2039), (np.float64, 32003)):
        for n, p in ((1, 7), (2, 5), (3, 3), (4, 3), (1, large)):
            pts = np.array(list(canonical_points(n, p)) + [(0,) * (n + 1)])
            vals = (pts * rng.integers(1, p, (len(pts), 1)) % p).T.astype(dtype)
            inv_table = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=dtype)
            got = census._positions(vals, p, inv_table)
            assert np.array_equal(got, np.arange(projective_count(n, p) + 1)), (dtype, n, p)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_positions_leave_their_input_and_ignore_its_memory_order(dtype):
    # a held batch of x_0 = 0 images is column-major; _positions works on a row-major copy
    n, p = 3, 7
    rng = np.random.default_rng(5)
    pts = np.array(list(canonical_points(n, p)) + [(0,) * (n + 1)])
    pts = pts[rng.permutation(len(pts))]
    cols = np.asfortranarray((pts * rng.integers(1, p, (len(pts), 1)) % p).T.astype(dtype))
    rows = np.ascontiguousarray(cols)
    assert cols.flags.f_contiguous and not cols.flags.c_contiguous
    inv_table = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=dtype)
    before = cols.copy()
    got = census._positions(cols, p, inv_table)
    assert np.array_equal(got, census._positions(rows, p, inv_table))
    assert np.array_equal(cols, before) and np.array_equal(rows, before)
    assert np.array_equal(np.sort(got), np.arange(projective_count(n, p) + 1))


def _canonical_point(index, n, p):
    """The index-th point of canonical_points(n, p), or 0 at |P^n(F_p)|."""
    for lead in range(n + 1):
        size = p ** (n - lead)
        if index < size:
            digits = [(index // p**j) % p for j in range(n - lead - 1, -1, -1)]
            return (0,) * lead + (1,) + tuple(digits)
        index -= size
    return (0,) * (n + 1)


# (n, p) on both sides of each switch of the Horner product's dtype: p^n at most
# 2^24 (float32) or past it, at most 2^53 (float64) or past it (int64), at each
# residue width that holds the products x_j inv(x_0) exactly
@pytest.mark.parametrize("n, p, key", [
    (3, 251, np.float32), (3, 257, np.float64), (2, 4093, np.float32), (2, 4099, np.float64),
    (6, 449, np.float64), (6, 457, np.int64),
])
def test_positions_on_both_sides_of_each_product_width(n, p, key):
    assert census._key_dtype(p**n) is key
    size = projective_count(n, p)
    rng = np.random.default_rng(p)
    # the top of chart 0, where the Horner sum is near p^n, and a random sample
    index = np.concatenate([np.arange(p**n - 64, p**n + 2), [size - 1, size],
                            rng.integers(0, size + 1, 2000)])
    pts = np.array([_canonical_point(int(i), n, p) for i in index], dtype=np.int64)
    for dtype in (np.float32, np.float64):
        if dtype is np.float32 and (p - 1) ** 2 > 2**23:
            continue
        vals = (pts * rng.integers(1, p, (len(pts), 1)) % p).T.astype(dtype)
        inv_table = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=dtype)
        got = census._positions(vals, p, inv_table)
        assert np.array_equal(got, index), (dtype, n, p)


# 65537 = _CHUNK + 1 ends on a one-entry slice
@pytest.mark.parametrize("p", [2, 3, 5, 31, 251, 65521, 65537])
def test_inverse_table_matches_python_inverses(p):
    want = [0] + [pow(x, -1, p) for x in range(1, p)]
    for dtype in (np.float32, np.float64):
        table = census._inverse_table(p, dtype)
        assert table.dtype == dtype and table.tolist() == want
    if p < 1000:  # slices of 7 residues, the last one partial
        assert census._inverse_table(p, np.float64, chunk=7).tolist() == want


# int32 holds every inverse, as p < 2^31; at 1000003 a sample and both ends
@pytest.mark.parametrize("p", [2, 5, 251, 65537, 1000003])
def test_int32_inverse_table_matches_python_inverses(p):
    table = census._inverse_table(p, np.int32)
    assert table.dtype == np.int32 and len(table) == p
    xs = np.unique(np.concatenate([np.arange(min(p, 70000)), [p - 2, p - 1],
                                   np.random.default_rng(p).integers(1, p, 2000)]))
    assert table[xs].tolist() == [pow(int(x), -1, p) if x else 0 for x in xs]


@pytest.mark.parametrize("d, p, width", [(1, 2039, np.float32), (1, 2053, np.int32)])
def test_inverse_table_width_follows_the_residues(monkeypatch, d, p, width):
    # float32 inverses beside float32 residues; int32, 4 bytes an entry, beside float64 ones
    widths = []
    build = census._inverse_table

    def recorded(p, dtype):
        widths.append(dtype)
        return build(p, dtype)

    monkeypatch.setattr(census, "_inverse_table", recorded)
    fiber_census(RationalMap(1, d, p, np.array([[1, 2], [3, 5]])))
    assert widths == [width]


def python_images(m, pt):
    """The n+1 forms at one point, in Python integers, reduced at the end."""
    monos = [1] * len(m.basis)
    for j, beta in enumerate(m.basis.exponents):
        for x, b in zip(pt, beta):
            monos[j] *= x**b
    return tuple(sum(int(c) * v for c, v in zip(row, monos)) % m.prime for row in m.coeffs)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_chart_images_match_python_evaluation(data):
    n = data.draw(st.integers(1, 4), label="n")
    d = data.draw(st.integers(1, 5), label="d")
    # keep the Python oracle to about 1e5 monomial values
    fits = [q for q in (5, 7, 11, 13) if projective_count(n, q) * comb(n + d, n) <= 100_000]
    p = data.draw(st.sampled_from(fits), label="p")
    chunk = data.draw(st.sampled_from([1, p * p, 1 << 18]), label="chunk")
    size = comb(n + d, n)
    entries = st.lists(st.integers(0, p - 1), min_size=size, max_size=size)
    coeffs = np.array(data.draw(st.lists(entries, min_size=n + 1, max_size=n + 1)), dtype=np.int64)
    m = RationalMap(n, d, p, coeffs)
    got = np.vstack(list(_chart_images(m, chunk)))
    assert len(got) == projective_count(n, p)
    assert_chart_images(m, got, canonical_points(n, p))


def assert_chart_images(m, rows, points):
    """rows, from _chart_images, against the Python evaluation at points: x_0
    is its residue, x_1..x_n are congruent to theirs, and every entry is an
    integer in [0, (d+1)(p-1)^2]."""
    p = m.prime
    got = np.asarray(rows)
    assert np.array_equal(got, np.floor(got))
    assert got.min(initial=0) >= 0 and got.max(initial=0) <= (m.d + 1) * (p - 1) ** 2
    residues = [tuple(int(v) % p for v in row) for row in got]
    assert residues == [python_images(m, pt) for pt in points]
    assert [int(row[0]) for row in got] == [img[0] for img in residues]


# chart 0 has a trailing grid and a group of its last leading variable that
# does not divide p, so the last group is shorter; at p = 7, chunk = 3
# no variable is trailing and p > chunk, so the power table comes in slices
@pytest.mark.parametrize("n, d, p, chunk", [
    (3, 2, 7, 100), (4, 2, 5, 60), (2, 3, 7, 3), (1, 3, 13, 5), (3, 1, 11, 250),
])
def test_grouped_contraction_with_a_remainder_group_matches_python(n, d, p, chunk):
    trail = 0
    while p ** (trail + 1) <= chunk:
        trail += 1
    group = chunk // p**trail
    assert p % group and n > trail
    coeffs = np.random.default_rng(n * p + d).integers(0, p, size=(n + 1, comb(n + d, n)))
    m = RationalMap(n, d, p, coeffs)
    blocks = list(_chart_images(m, chunk))
    assert group * p**trail in {len(b) for b in blocks}
    assert_chart_images(m, np.vstack(blocks), canonical_points(n, p))


@pytest.mark.parametrize("n, d, p, chunk", [
    (1, 3, 101, 16), (1, 2, 65537, census._CHUNK), (2, 2, 11, 1), (2, 2, 11, 30),
    (3, 2, 7, 48), (4, 1, 5, 200), (4, 1, 5, census._CHUNK),
])
def test_chart_image_blocks_hold_at_most_a_chunk(n, d, p, chunk):
    coeffs = np.random.default_rng(p + chunk).integers(0, p, size=(n + 1, comb(n + d, n)))
    m = RationalMap(n, d, p, coeffs)
    sizes = []
    rows = []
    for block in _chart_images(m, chunk):
        sizes.append(len(block))
        rows.append(block[:: max(1, len(block) // 50)])
    assert max(sizes) <= chunk
    assert sum(sizes) == projective_count(n, p)
    # a strided sample of each block against the Python evaluation
    start = 0
    for size, sample in zip(sizes, rows):
        stride = max(1, size // 50)
        points = [_canonical_point(start + i * stride, n, p) for i in range(len(sample))]
        assert_chart_images(m, sample, points)
        start += size


def test_pencil_evaluation_memory_is_bounded_by_the_chunk():
    # a line of p > _CHUNK points: its power table and images would take
    # (d+1) p + 2 p float64 entries, 48 MiB at d = 3; sliced, a few chunks' worth
    p, d = next_odd_prime(1 << 20), 3
    coeffs = np.random.default_rng(5).integers(0, p, size=(2, d + 1))
    m = RationalMap(1, d, p, coeffs)
    tracemalloc.start()
    try:
        points = sum(len(block) for block in _chart_images(m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert points == p + 1
    assert peak < 4 * (d + 1) * census._CHUNK * 8


def python_census(m):
    """Fiber census by a dictionary of normalised images."""
    p, base, fibers = m.prime, 0, Counter()
    for pt in canonical_points(m.n, p):
        img = python_images(m, pt)
        lead = next((v for v in img if v), 0)
        if not lead:
            base += 1
            continue
        inv = pow(lead, -1, p)
        fibers[tuple(v * inv % p for v in img)] += 1
    hist = Counter(fibers.values())
    total = sum(fibers.values())
    return base, len(fibers), dict(hist), hist[1] / total if total else 0.0


@pytest.mark.parametrize("n, d, h, p", [(2, 5, 6, 13), (3, 3, 4, 11), (4, 2, None, 5)])
def test_fiber_census_matches_python_census(n, d, h, p):
    if h is None:  # random forms
        coeffs = np.random.default_rng(4).integers(0, p, size=(n + 1, comb(n + d, n)))
        m = RationalMap(n, d, p, coeffs)
    else:
        m = map_from_system(double_points(n, d, h), p, 0)
    c = fiber_census(m)
    assert (c.base_points, c.image_size, c.histogram, c.fraction_unique) == python_census(m)
    assert c.verdict == classify(c)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fiber_census_matches_python_census_on_random_maps(data):
    n = data.draw(st.integers(1, 4), label="n")
    d = data.draw(st.integers(1, 4), label="d")
    fits = [q for q in (5, 7, 11, 13) if projective_count(n, q) * comb(n + d, n) <= 100_000]
    p = data.draw(st.sampled_from(fits), label="p")
    size = comb(n + d, n)
    entries = st.lists(st.integers(0, p - 1), min_size=size, max_size=size)
    coeffs = np.array(data.draw(st.lists(entries, min_size=n + 1, max_size=n + 1)), dtype=np.int64)
    zero = data.draw(st.none() | st.integers(0, n), label="zero form")
    if zero is not None:
        coeffs[zero] = 0
    m = RationalMap(n, d, p, coeffs)
    c = fiber_census(m)
    assert (c.base_points, c.image_size, c.histogram, c.fraction_unique) == python_census(m)


# The last prime whose stage sums (d+1)(p-1)^2 stay at most 2^23 runs on
# float32 residues, the next prime on float64. At d = 127, p = 257 the sum is
# exactly 2^23; at 32003 float32 sums would be inexact.
@pytest.mark.parametrize("d, p, width", [
    (1, 2039, np.float32), (1, 2053, np.float64), (3, 1447, np.float32), (3, 1451, np.float64),
    (127, 257, np.float32), (128, 257, np.float64), (1, 32003, np.float64),
])
def test_pencil_census_matches_python_census_at_each_residue_width(d, p, width):
    coeffs = np.random.default_rng(p + d).integers(0, p, size=(2, d + 1))
    m = RationalMap(1, d, p, coeffs)
    assert next(_chart_images(m)).dtype == width
    c = fiber_census(m)
    assert (c.base_points, c.image_size, c.histogram, c.fraction_unique) == python_census(m)


# x_1..x_n leave the last stage unreduced while (d+1)(p-1)^3 is below 2^24 on
# float32 residues (199 and 157, not 211 and 163) or at most 2^52 on float64
# ones (131071, not 131101). Blocks of 50 points, so that every line and the
# plane's leading variables are contracted in _leading_values.
@pytest.mark.parametrize("n, d, p, once", [
    (1, 1, 199, True), (1, 1, 211, False), (1, 3, 157, True), (1, 3, 163, False),
    (2, 1, 199, True), (1, 1, 131071, True), (1, 1, 131101, False),
])
def test_census_matches_python_census_on_both_sides_of_the_once_reduced_bound(
        monkeypatch, n, d, p, once):
    chart_images = census._chart_images
    monkeypatch.setattr(census, "_chart_images", lambda m: chart_images(m, 50))
    coeffs = np.random.default_rng(p + d).integers(0, p, size=(n + 1, comb(n + d, n)))
    m = RationalMap(n, d, p, coeffs)
    first = next(census._chart_images(m))
    assert first[:, 0].max() < p and (first[:, 1:].max() >= p) == once
    c = fiber_census(m)
    assert (c.base_points, c.image_size, c.histogram, c.fraction_unique) == python_census(m)


def test_images_with_x0_zero_are_positioned_in_batches(monkeypatch):
    # F_0 = 0, so every image has x_0 = 0: blocks of 30 points, batches of
    # at least 100 held columns, each below two batches, and a last partial one
    chart_images, count_held, batches = census._chart_images, census._count_held, []
    monkeypatch.setattr(census, "_chart_images", lambda m: chart_images(m, 30))
    monkeypatch.setattr(census, "_CHUNK", 100)

    def recorded(counts, held, p, inv_table):
        batches.append(sum(tail.shape[1] for tail in held))
        count_held(counts, held, p, inv_table)

    monkeypatch.setattr(census, "_count_held", recorded)
    n, d, p = 3, 2, 7
    coeffs = np.random.default_rng(3).integers(0, p, size=(n + 1, comb(n + d, n)))
    coeffs[0] = 0
    m = RationalMap(n, d, p, coeffs)
    c = fiber_census(m)
    assert (c.base_points, c.image_size, c.histogram, c.fraction_unique) == python_census(m)
    assert sum(batches) == projective_count(n, p) and len(batches) > 2
    assert all(100 <= b < 200 for b in batches[:-1]) and batches[-1] < 200


def test_held_images_with_x0_zero_stay_within_two_chunks():
    # F_0 = 0 on P^2(F_1021): all 1,043,463 images have x_0 = 0. Fewer than
    # 2 _CHUNK held columns and the buffers of their batch take about 4 MiB
    # more than a census with no such image; held whole they took 37 MiB more.
    p = 1021
    coeffs = np.random.default_rng(1).integers(0, p, size=(3, 3))
    peaks = []
    for zero in (False, True):
        if zero:
            coeffs[0] = 0
        m = RationalMap(2, 1, p, coeffs)
        tracemalloc.start()
        try:
            c = fiber_census(m)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert c.base_points + sum(s * k for s, k in c.histogram.items()) == c.domain_size
    assert c.image_size == p + 1  # the line x_0 = 0
    assert peaks[1] - peaks[0] < 8 * 2**20


def test_count_width_follows_the_domain():
    # int32 holds every count of a domain below 2^31 points
    assert census._count_dtype(2**31 - 1) is np.int32
    assert census._count_dtype(2**31) is np.int64


def _census_numpy_with(monkeypatch, **names) -> None:
    """Give census a numpy whose attributes names are replaced."""

    class Numpy:
        def __getattr__(self, name):
            return names[name] if name in names else getattr(np, name)

    monkeypatch.setattr(census, "np", Numpy())


def test_fiber_census_counts_with_a_typed_one(monkeypatch):
    # np.add.at takes a slow path for a Python int 1; the census passes a scalar of its dtype
    scalars = []

    class Add:
        def at(self, counts, idx, one):
            scalars.append((counts.dtype, type(one)))
            np.add.at(counts, idx, one)

    _census_numpy_with(monkeypatch, add=Add())
    fiber_census(RationalMap(2, 1, 7, np.eye(3, dtype=np.int64)))
    assert scalars and set(scalars) == {(np.dtype(np.int32), np.int32)}


# the census chunk, and 2^18 past it
@pytest.mark.parametrize("chunk", [64, census._CHUNK, 1 << 18])
def test_sliced_histogram_equals_one_bincount(chunk):
    # fibers larger than a slice, so the histogram outgrows every slice's bincount
    counts = np.random.default_rng(chunk).integers(0, 5, 3 * chunk + 7, dtype=np.int32)
    counts[[3, 2 * chunk + 1]] = [chunk + 3, 2 * chunk]
    assert census._histogram(counts, chunk) == _dense_histogram(counts)
    assert census._histogram(np.zeros(9, np.int32), chunk) == {}


def _dense_histogram(counts) -> dict:
    """The nonzero fiber sizes of one whole np.bincount."""
    freq = np.bincount(counts)
    return {s: int(freq[s]) for s in range(1, len(freq)) if freq[s]}


def test_histogram_counts_fibers_past_the_cut_sparsely():
    # sizes on both sides of the cut, repeated across slices, and a slice below it
    cut = census._LARGE_FIBER
    counts = np.zeros(640, np.int32)
    counts[:320] = np.random.default_rng(1).integers(0, 4, 320)
    counts[[5, 70, 200, 300, 301]] = [cut - 1, cut, cut, cut + 1, 3 * cut]
    hist = census._histogram(counts, 64)
    assert hist == _dense_histogram(counts)
    assert list(hist) == sorted(hist)


def test_histogram_memory_is_bounded_by_the_cut():
    # one fiber of 10^7 points: a dense histogram and its bincount would take 160 MB
    counts = np.array([10**7], dtype=np.int32)
    tracemalloc.start()
    try:
        assert census._histogram(counts) == {10**7: 1}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _bincount_lengths(monkeypatch) -> list[int]:
    """The length of every array census._histogram bincounts from now on."""
    lengths = []

    def bincount(x, *args, **kwargs):
        lengths.append(len(x))
        return np.bincount(x, *args, **kwargs)

    _census_numpy_with(monkeypatch, bincount=bincount)
    return lengths


# a short slice and the census chunk
SLICES = [64, census._CHUNK]


@pytest.mark.parametrize("fill", [0, 1])
@pytest.mark.parametrize("chunk", SLICES)
def test_histogram_of_one_repeated_count_bincounts_nothing(monkeypatch, chunk, fill):
    # every slice, the short last one too, counts its zeros and ones by comparison
    counts = np.full(3 * chunk + 7, fill, np.int32)
    lengths = _bincount_lengths(monkeypatch)
    assert census._histogram(counts, chunk) == ({1: 3 * chunk + 7} if fill else {})
    assert lengths == [0] * 4


@pytest.mark.parametrize("chunk", SLICES)
def test_histogram_bincounts_a_slice_whole_past_one_eighth_above_one(monkeypatch, chunk):
    # zeros and ones, with chunk / 8 - 1, chunk / 8 and chunk / 8 + 1 counts above 1
    rng = np.random.default_rng(chunk)
    counts = rng.integers(0, 2, 3 * chunk, dtype=np.int32)
    above = [chunk // 8 - 1, chunk // 8, chunk // 8 + 1]
    for i, many in enumerate(above):
        counts[i * chunk + rng.choice(chunk, many, replace=False)] = rng.integers(2, 6, many)
    lengths = _bincount_lengths(monkeypatch)
    assert census._histogram(counts, chunk) == _dense_histogram(counts)
    assert lengths == above[:2] + [chunk]


@pytest.mark.parametrize("chunk", SLICES)
def test_only_the_first_slice_and_one_after_a_sparse_slice_are_tested(monkeypatch, chunk):
    # dense, sparse, sparse, dense, dense: the slice after a dense one is bincounted
    # whole untested, and its own bins 0 and 1 say that the next one is tested
    rng = np.random.default_rng(chunk)
    counts = rng.integers(0, 2, 5 * chunk, dtype=np.int32)
    for i in (0, 3, 4):
        counts[i * chunk : (i + 1) * chunk : 2] = 2
    few = chunk // 16
    counts[2 * chunk + rng.choice(chunk, few, replace=False)] = 3
    lengths, tested = [], []

    def bincount(x, *args, **kwargs):
        lengths.append(len(x))
        return np.bincount(x, *args, **kwargs)

    def count_nonzero(x):
        tested.append(len(x))
        return np.count_nonzero(x)

    _census_numpy_with(monkeypatch, bincount=bincount, count_nonzero=count_nonzero)
    assert census._histogram(counts, chunk) == _dense_histogram(counts)
    assert lengths == [chunk, chunk, few, chunk, chunk]
    # the test of slices 0, 2 and 3, and the ones of the sparse slice 2
    assert len(tested) == 4


@pytest.mark.parametrize("chunk", SLICES)
def test_sparse_slices_count_fibers_past_the_cut(monkeypatch, chunk):
    # mostly zeros, a few ones and small fibers, and sizes on both sides of the cut
    cut = census._LARGE_FIBER
    counts = np.random.default_rng(chunk).choice(
        np.arange(4, dtype=np.int32), 2 * chunk + 5, p=[0.9, 0.05, 0.03, 0.02])
    counts[[1, 2, chunk + 2, 2 * chunk + 1]] = [cut, cut - 1, 3 * cut, cut]
    lengths = _bincount_lengths(monkeypatch)
    hist = census._histogram(counts, chunk)
    assert hist == _dense_histogram(counts)
    assert list(hist) == sorted(hist)
    assert len(lengths) == 3 and max(lengths) <= chunk // 8


@pytest.mark.parametrize("chunk", SLICES)
def test_histogram_of_int64_counts(chunk):
    # the counts of a domain of 2^31 points or more, with a fiber past int32
    counts = np.random.default_rng(chunk).choice(
        np.arange(4, dtype=np.int64), 2 * chunk + 5, p=[0.9, 0.05, 0.03, 0.02])
    counts[[3, chunk + 4]] = [2**31 + 5, census._LARGE_FIBER]
    assert census._histogram(counts, chunk) == dict(Counter(counts[counts > 0].tolist()))


# one slice of counts each: mostly 0 (fiber type), mostly 1 (birational),
# 0 or 2 (a double cover) and Poisson-like (a generic finite map)
SLICE_KINDS = {
    "mostly 0": lambda rng, size: rng.choice(4, size, p=[0.93, 0.04, 0.02, 0.01]),
    "mostly 1": lambda rng, size: rng.choice(4, size, p=[0.03, 0.94, 0.02, 0.01]),
    "double cover": lambda rng, size: 2 * rng.integers(0, 2, size),
    "Poisson": lambda rng, size: rng.poisson(1.0, size),
}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_histogram_of_mixed_slices_equals_one_bincount(data):
    chunk = data.draw(st.sampled_from(SLICES), label="chunk")
    kinds = data.draw(st.lists(st.sampled_from(sorted(SLICE_KINDS)), min_size=1, max_size=5),
                      label="kinds")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    counts = np.concatenate([SLICE_KINDS[kind](rng, chunk) for kind in kinds]).astype(np.int32)
    # a short last slice
    counts = counts[: len(counts) - data.draw(st.integers(0, chunk - 1), label="cut short")]
    assert census._histogram(counts, chunk) == _dense_histogram(counts)


def test_sparse_histogram_memory_is_bounded_by_two_slices():
    # all ones but one fiber of 10^7 points: no slice is copied to intp for np.bincount
    counts = np.ones(1 << 22, dtype=np.int32)
    counts[12345] = 10**7
    tracemalloc.start()
    try:
        assert census._histogram(counts) == {1: (1 << 22) - 1, 10**7: 1}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * census._CHUNK * counts.itemsize


def test_all_zero_map_is_all_base_points():
    m = RationalMap(2, 2, 7, np.zeros((3, 6), dtype=np.int64))
    c = fiber_census(m)
    assert c.base_points == c.domain_size == 57
    assert (c.histogram, c.image_size, c.fraction_unique) == ({}, 0, 0.0)


def test_fiber_census_refuses_the_first_prime_past_exact_float64_sums():
    # d = 1: each stage sums 2 residue products, exact while 2 (p-1)^2 <= 2^52
    p = next_odd_prime(isqrt(2**51) + 1)
    below = p - 2
    while not is_prime(below):
        below -= 2
    assert 2 * (below - 1) ** 2 <= 2**52 < 2 * (p - 1) ** 2
    with pytest.raises(ValueError, match="overflow"):
        fiber_census(RationalMap(1, 1, p, np.eye(2, dtype=np.int64)))


def test_fiber_census_refuses_overflowing_keys():
    # image keys run up to p^3 > 2^63; refused before the inverse table is built
    p = next_odd_prime((1 << 21) + 1)
    coeffs = np.eye(3, dtype=np.int64)
    with pytest.raises(ValueError, match="keys overflow"):
        fiber_census(RationalMap(2, 1, p, coeffs), budget=1e20)


def test_map_from_system():
    m = map_from_system(parse_spec("L(5,2;2^3)"), 32003, 0)
    assert m.coeffs.shape == (6, 21)
    assert len(m.basis) == 21
    with pytest.raises(ValueError):
        map_from_system(parse_spec("L(2,4;2^5)"), 32003, 0)


def test_identity_map_census_is_birational():
    m = RationalMap(1, 1, 13, np.eye(2, dtype=np.int64))
    c = fiber_census(m)
    assert c.domain_size == 14
    assert c.base_points == 0
    assert c.image_size == 14
    assert c.histogram == {1: 14}
    assert c.fraction_unique == 1.0
    assert c.verdict == "birational"


def test_constant_deficient_map_is_fiber_type():
    coeffs = np.array([[1, 0], [1, 0]], dtype=np.int64)  # both forms equal x0
    c = fiber_census(RationalMap(1, 1, 13, coeffs))
    assert c.base_points == 1  # the single zero of x0
    assert c.image_size == 1
    assert c.verdict == "fiber-type"


def test_squaring_cover_census():
    basis = monomial_basis(1, 2)
    coeffs = np.zeros((2, len(basis)), dtype=np.int64)
    coeffs[0, basis.exponents.index((2, 0))] = 1
    coeffs[1, basis.exponents.index((0, 2))] = 1
    c = fiber_census(RationalMap(1, 2, 13, coeffs))
    assert c.base_points == 0
    assert c.histogram == {1: 2, 2: 6}
    assert c.verdict == "finite(2)"


def test_fiber_conservation():
    # every domain point is either a base point or lands in some fiber bucket
    for text, p in [("L(1,3;2)", 13), ("L(2,2;2)", 7)]:
        c = fiber_census(map_from_system(parse_spec(text), p, 0))
        assert sum(s * cnt for s, cnt in c.histogram.items()) + c.base_points == c.domain_size


def test_rescaling_rows_leaves_census_unchanged():
    basis = monomial_basis(1, 2)
    coeffs = np.zeros((2, len(basis)), dtype=np.int64)
    coeffs[0, basis.exponents.index((2, 0))] = 1
    coeffs[1, basis.exponents.index((0, 2))] = 1
    a = fiber_census(RationalMap(1, 2, 13, coeffs))
    scaled = coeffs.copy()
    scaled[0] = scaled[0] * 5 % 13
    scaled[1] = scaled[1] * 7 % 13
    b = fiber_census(RationalMap(1, 2, 13, scaled))
    assert a.histogram == b.histogram
    assert a.image_size == b.image_size
    assert a.base_points == b.base_points


def test_budget_guard():
    m = RationalMap(1, 1, 499, np.eye(2, dtype=np.int64))
    with pytest.raises(ValueError) as ei:
        fiber_census(m, budget=100)
    assert "affordable prime" in str(ei.value)
    # (p + 1) * 2 <= 100 holds up to p = 49, and 47 is the largest prime below
    assert str(ei.value).endswith("largest affordable prime is 47")
    with pytest.raises(ValueError, match="no prime above d = 1 fits it"):
        fiber_census(m, budget=5)


def test_suggest_prime_matches_the_upward_walk():
    def upward(n, d, budget):
        best, p = None, next_odd_prime(d)
        while census._census_cost(n, d, p) <= budget:
            best, p = p, next_odd_prime(p)
        return best

    for n, d, budget in product((1, 2, 3, 4), (1, 2, 3, 5), (1, 5, 100, 1e3, 1e4, 1e5)):
        assert census._suggest_prime(n, d, budget) == upward(n, d, budget), (n, d, budget)


def test_suggest_prime_is_fast_and_accepted_at_a_large_budget():
    start = time.perf_counter()
    q = census._suggest_prime(1, 3, 1e9)
    assert time.perf_counter() - start < 0.5
    # the budget admits primes near 2.5e8, the float64 sum check only up to 2^25 + 1
    assert q <= 2**25 + 1
    assert check_modulus(q) == q
    assert census._refusal(1, 3, q, 1e9) is None
    assert "overflow 2^52" in census._refusal(1, 3, next_odd_prime(q), 1e9)
    m = RationalMap(1, 3, 2147483647, np.eye(2, 4, dtype=np.int64))
    with pytest.raises(ValueError, match=f"largest affordable prime is {q}$"):
        fiber_census(m, budget=1e9)


@pytest.mark.parametrize("n, bound", [(1, "overflow 2^52"), (2, "int64 image keys"),
                                      (5, "int64 image keys")])
def test_suggest_prime_at_an_unbounded_budget(n, bound):
    # no cost refusal: the float64 sum bound sets the answer at n = 1, the key bound above
    q = census._suggest_prime(n, 3, float("inf"))
    assert is_prime(q)
    assert census._refusal(n, 3, q, float("inf")) is None
    assert bound in census._refusal(n, 3, next_odd_prime(q), float("inf"))


@pytest.mark.parametrize("n, d", [(1, 3), (3, 3), (5, 2), (40, 1)])
def test_suggest_prime_below_every_census(n, d):
    # at n = 40 the cost at p near 2^30 is beyond the float range of the refusal message,
    # so a search that probed there would raise instead of returning None
    budget = census._census_cost(n, d, next_odd_prime(d)) - 1
    assert census._refusal(n, d, next_odd_prime(d), budget) is not None
    assert census._suggest_prime(n, d, budget) is None
    assert census._suggest_prime(n, d, 1.0) is None


def test_next_odd_prime():
    assert next_odd_prime(3) == 5
    assert next_odd_prime(13) == 17
    assert next_odd_prime(31) == 37
    assert next_odd_prime(2) == 3
    assert next_odd_prime(1 << 21) == 2097169


def test_classify_thresholds():
    def mk(frac, image, hist, domain=1000, base=0):
        return FiberCensus(13, domain, base, image, hist, frac)

    assert classify(mk(0.95, 900, {1: 900})) == "birational"
    assert classify(mk(0.0, 10, {100: 10})) == "fiber-type"
    assert classify(mk(0.1, 400, {1: 100, 3: 300})) == "finite(3)"
    assert classify(mk(0.4, 600, {1: 400, 2: 100, 4: 100})) == "inconclusive"


def test_census_for_doubles_cached_and_sane():
    a = census_for_doubles(2, 5, 6, 499)
    b = census_for_doubles(2, 5, 6, 499)
    assert a is b  # cached
    assert census.census_of(double_points(2, 5, 6), 499, 0, 10**10) is a  # one cache
    assert a.base_points >= 6
    assert a.verdict == "birational"
    assert a.fraction_unique > 0.95


def test_failed_sanity_check_is_a_domain_error(monkeypatch, capsys):
    def no_base_points(m, budget):
        n = projective_count(m.n, m.prime)
        return FiberCensus(m.prime, n, 0, n, {1: n}, 1.0, "birational")

    monkeypatch.setattr(census, "fiber_census", no_base_points)
    # a fresh cache, so that no earlier census answers for the stub
    fresh = lru_cache(maxsize=None)(census._census_cached.__wrapped__)
    monkeypatch.setattr(census, "_census_cached", fresh)
    with pytest.raises(ValueError, match="census found 0"):
        census_for_doubles(1, 5, 2, 499)
    assert main(["identif", "--n", "1", "--d", "5", "--json"]) == 1
    assert "census found 0" in json.loads(capsys.readouterr().out)["error"]


def test_fiber_census_refuses_overflowing_sums():
    # 4 products of residues near 2^31 overflow an int64 sum
    p = 2147483647
    coeffs = np.eye(2, 4, dtype=np.int64)
    with pytest.raises(ValueError, match="overflow"):
        fiber_census(RationalMap(1, 3, p, coeffs))


def test_identifiability_statuses():
    assert identifiability_verdict(2, 3, corroborate=False).status == "non-perfect"
    v = identifiability_verdict(1, 5, corroborate=False)
    assert (v.status, v.s) == ("identifiable", 3)
    v = identifiability_verdict(3, 3, corroborate=False)
    assert (v.status, v.s) == ("identifiable", 5)
    v = identifiability_verdict(2, 4, corroborate=False)
    assert (v.status, v.s) == ("not-identifiable", 5)
    v = identifiability_verdict(5, 4, corroborate=False)
    assert (v.status, v.s) == ("not-identifiable", 21)
    assert v.censuses == ()
    with pytest.raises(ValueError):
        identifiability_verdict(0, 3)


def test_identifiability_respects_budget():
    v = identifiability_verdict(2, 5, budget=10)
    assert v.status == "identifiable"
    assert v.censuses == ()  # all runs over budget are skipped
    assert v.corroborated is None  # no census ran, so nothing is corroborated


@pytest.mark.parametrize(
    "status,verdicts,corroborated",
    [
        ("identifiable", ["birational", "birational"], True),
        ("identifiable", ["birational", "fiber-type"], False),
        ("not-identifiable", ["fiber-type", "finite(2)"], True),
        ("not-identifiable", ["inconclusive"], False),
        ("not-identifiable", [], None),
    ],
)
def test_corroborated_reads_the_census_verdicts(status, verdicts, corroborated):
    censuses = tuple(FiberCensus(499, 0, 0, 0, {}, 0.0, verdict) for verdict in verdicts)
    assert IdentifiabilityVerdict(2, 4, status, 5, censuses).corroborated is corroborated


def test_census_primes_table():
    assert set(CENSUS_PRIMES) == {1, 2, 3, 4, 5}
    for pair in CENSUS_PRIMES.values():
        assert len(pair) == 2 and pair[0] != pair[1]


def test_quadric_rank():
    b3 = monomial_basis(3, 2)
    coeffs = np.zeros(len(b3), dtype=np.int64)
    for i in range(4):
        e = tuple(2 if j == i else 0 for j in range(4))
        coeffs[b3.exponents.index(e)] = 1
    assert quadric_rank(coeffs, b3, 32003) == 4

    b1 = monomial_basis(1, 2)
    c = np.zeros(len(b1), dtype=np.int64)
    c[b1.exponents.index((1, 1))] = 1
    assert quadric_rank(c, b1, 13) == 2

    b2 = monomial_basis(2, 2)
    c = np.zeros(len(b2), dtype=np.int64)
    c[b2.exponents.index((2, 0, 0))] = 1
    assert quadric_rank(c, b2, 13) == 1

    with pytest.raises(ValueError):
        quadric_rank(np.zeros(4, dtype=np.int64), monomial_basis(1, 3), 13)
    with pytest.raises(ValueError):
        quadric_rank(c, b2, 2)
