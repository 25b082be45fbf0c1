import json
from collections import Counter
from functools import lru_cache
from itertools import product
from math import comb, isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints import census
from fatpoints.census import (
    CENSUS_PRIMES,
    FiberCensus,
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
from fatpoints.ffield import is_prime
from fatpoints.grammar import parse_spec
from fatpoints.monomials import monomial_basis
from fatpoints.schemes import double_points
from fatpoints.suites import load_manifest


def test_projective_count():
    assert projective_count(1, 499) == 500
    assert projective_count(2, 5) == 31
    assert projective_count(3, 2) == 15


def canonical_points(n, p):
    """P^n(F_p) chart by chart (first nonzero coordinate 1), last coordinate fastest."""
    for lead in range(n + 1):
        for free in product(range(p), repeat=n - lead):
            yield (0,) * lead + (1,) + free


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
    want = [python_images(m, pt) for pt in canonical_points(n, p)]
    assert [tuple(map(int, row)) for row in got] == want


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
    assert a.base_points >= 6
    assert a.verdict == "birational"
    assert a.fraction_unique > 0.95


def test_theorem2_censuses_match_the_recorded_ones():
    # the 18 theorem2 censuses as recorded once: any change to a census result shows here
    golden = json.loads((Path(__file__).parent / "data" / "theorem2_censuses.json").read_text())
    conf = load_manifest()["suites"]["theorem2"]
    assert list(golden) == [case["id"] for case in conf["cases"]]
    for case in conf["cases"]:
        got = {
            str(p): census_for_doubles(
                case["n"], case["d"], case["h"], p, seed=conf["seeds"][0], budget=conf["budget"]
            ).as_dict()
            for p in case["primes"]
        }
        assert got == golden[case["id"]], case["id"]


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
    d = v.as_dict()
    assert set(d) == {"n", "d", "status", "s", "censuses"}


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
