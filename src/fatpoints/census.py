"""Rational maps from n-dimensional linear systems and their exhaustive
fiber census over P^n(F_p).

The census evaluates all n+1 forms on every point of P^n(F_p), chart by chart
as grids of canonical representatives (first nonzero coordinate 1), and counts
the points over each target point. Generic fiber size 1 across two primes is
the working notion of birationality; a small image signals fiber type.

Every census runs through census_of, cached per (spec, prime, seed, budget),
which also checks that each distinct assigned point is a rational base point.

Evaluation contracts the forms against a power table in floating-point BLAS,
one variable at a time. A stage sums d+1 residue products, at most
(d+1)(p-1)^2. The residues are float32 when that sum is at most 2^23, which
covers every packaged census, and float64 otherwise, exact while at most 2^52;
larger p are refused. Either bound keeps every partial sum an integer the
format holds exactly, so BLAS may sum in any order. A chart is evaluated in
blocks of at most _CHUNK = 2^16 points (a sweep of 2^14 to 2^18 was fastest
near 2^16): the trailing variables whose grid of p^t points fits in a block
are contracted once per chart, each leading variable but the last one value
at a time, and the last leading variable _CHUNK // p^t values per batched
product, the forms axis leading, so each block is one contiguous
(n+1, points) array. A line of p > _CHUNK points has no trailing variable:
it is cut into blocks of _CHUNK points, with the power table's columns.

An image x is keyed by its position in the canonical enumeration (charts in
order, x_n fastest). If x_0 != 0 it is the Horner sum in base p of
y_j = x_j inv(x_0) mod p over j = 1..n; if x_0 = 0 it is p^n, the size of
chart 0, plus the position of (x_1..x_n) in P^{n-1}, so a base point (every
coordinate 0) lands on |P^n(F_p)| = p^n + ... + p + 1.

Each image coordinate is reduced once where it can be. While (d+1)(p-1)^3 is
below 2^24 on float32 residues (4 * 130^3 at `space-cubic`@131) or at most
2^52 on float64 ones, the last contraction of a leading variable reduces x_0
alone: x_1..x_n, each at most (d+1)(p-1)^2, are multiplied by inv(x_0) in
place, products the format holds exactly, and reduced once by
`ffield._reduce`, exact below those bounds. Past them, and in a chart with no
leading variable, every row is reduced first and the products are at most
(p-1)^2. The Horner sum is one product of the weights p^(n-1), ..., p, 1
with the y_j, exact because every partial sum is an integer at most
p^n - 1: it runs in float32 while p^n <= 2^24, in float64 while
p^n <= 2^53 and in int64 past that, and is converted to int64 positions once
(p^(n+1) > 2^63 is refused). The images with x_0 = 0 are counted at
|P^n(F_p)| for now and their x_1..x_n held; each time _CHUNK columns are
held, and once at the end, they are reduced, positioned in P^{n-1} by one
recursive `_positions` call, and moved from that placeholder to their
positions. The inverses inv(x) = x^(p-2) are one table of p entries, taken by
square and multiply on int64 slices of _CHUNK entries: float32 beside float32
residues, so their products stay float32, and int32 (p < 2^31) beside float64
ones, 4 bytes an entry, whose products are float64 with no cast pass.

The counts are one array of |P^n(F_p)| + 1 entries, int32 (4 bytes each)
while |P^n(F_p)| < 2^31 and int64 otherwise, refused when it cannot be
allocated. Besides it a census holds the inverse table; the power table,
whole while p <= _CHUNK and otherwise in slices of at most _CHUNK columns;
one chart's tensor contracted over its trailing grid, (n+1)(d+1)^l p^t
entries for l leading variables; the buffers of one block of at most _CHUNK
points; the held x_1..x_n of fewer than 2 _CHUNK images with x_0 = 0; and at
the end a histogram of at most 2^12 dense entries plus one per fiber of 2^12
points or more. The histogram scans the counts a slice of _CHUNK at a time.
np.bincount increments one bin per count, and on a run of equal counts each
increment waits for the last, so a slice with at most 1/8 of its counts
above 1 (nearly every slice of a birational or fiber-type census) counts its
ones by comparison and bincounts only its counts above 1, holding two boolean
masks of the slice and those counts. A denser slice is bincounted whole,
through an intp copy of the slice, and so is the slice after it: the whole
bincount's bins 0 and 1 give the share above 1 that chooses the next
branch, so only the first slice and a slice after a sparse one are tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from functools import lru_cache
from math import comb

import numpy as np

from .ffield import (_EXACT, MAX_MODULUS, FieldMatrix, _floor_mod, _reduce, check_modulus,
                     is_prime, kernel_basis, rank)
from .formulas import is_perfect, k, projective_count
from .monomials import MonomialBasis, _power_table, monomial_basis
from .schemes import SchemeSpec, condition_matrix, double_points, sample

DEFAULT_BUDGET = 1e10
TAU_BIRATIONAL = 0.7
TAU_FIBER = 3.0
TAU_FINITE = 0.6

# per-dimension census primes; n <= 4 fixed, the pairs give cross-prime checks
CENSUS_PRIMES = {1: (499, 251), 2: (499, 251), 3: (127, 131), 4: (31, 61), 5: (31, 17)}

_CHUNK = 1 << 16
_LARGE_FIBER = 1 << 12  # fiber sizes the histogram counts sparsely


@dataclass(frozen=True)
class RationalMap:
    """n+1 forms of degree d: a basis of a dimension-n linear system."""

    n: int
    d: int
    prime: int
    coeffs: np.ndarray = field(repr=False)  # (n+1, |basis|) reduced mod p

    @property
    def basis(self) -> MonomialBasis:
        return monomial_basis(self.n, self.d)


def _census_cost(n: int, d: int, p: int) -> int:
    """Operations of one census of a degree-d map of P^n over F_p."""
    return projective_count(n, p) * comb(n + d, n)


def map_from_system(spec: SchemeSpec, prime: int, seed: int) -> RationalMap:
    """Kernel basis of the condition matrix, when its size is exactly n+1."""
    mat = condition_matrix(spec, prime, seed)
    forms = kernel_basis(mat)
    if len(forms) != spec.n + 1:
        raise ValueError(
            f"system has dimension {len(forms) - 1} at p={prime}, not n={spec.n}; "
            "no candidate self-map"
        )
    coeffs = np.vstack(forms)
    coeffs.setflags(write=False)
    return RationalMap(spec.n, spec.d, prime, coeffs)


@dataclass(frozen=True)
class FiberCensus:
    prime: int
    domain_size: int
    base_points: int
    image_size: int
    histogram: dict[int, int]  # fiber size -> number of image points
    fraction_unique: float
    verdict: str = ""  # classify's, unless given

    def __post_init__(self) -> None:
        if not self.verdict:
            object.__setattr__(self, "verdict", classify(self))

    def as_dict(self) -> dict:
        return {
            "prime": self.prime,
            "domain_size": self.domain_size,
            "base_points": self.base_points,
            "image_size": self.image_size,
            "histogram": {str(s): c for s, c in sorted(self.histogram.items())},
            "fraction_unique": round(self.fraction_unique, 6),
            "verdict": self.verdict,
        }


def _chart_images(m: RationalMap, chunk: int = _CHUNK):
    """The n+1 forms on P^n(F_p), chart by chart, in blocks of at most chunk points.

    Chart lead = k is x_0..x_{k-1} = 0, x_k = 1 over F_p^{n-k} (x_n fastest). Its
    forms, a tensor over the exponents of x_{k+1}..x_n, are contracted one variable
    at a time against V[e, x] = x^e mod p in BLAS, reduced after each stage
    of d+1 residue products: once per chart for the trailing variables whose grid
    fits in a chunk, then in _leading_values. Yields integers of
    _residue_dtype(d, p), exact while every stage sum stays within its bound
    (2^23 for float32, 2^52 for float64), one row per point: the transpose of
    a contiguous (n+1, points) block. x_0 is a residue. x_1..x_n are residues
    too, unless their products with inv(x_0), at most (d+1)(p-1)^3, are exact
    and within _reduce's bound (below 2^24 on float32, at most 2^52 on
    float64): then the last stage of _leading_values leaves them unreduced,
    congruent mod p to the forms' values and at most (d+1)(p-1)^2.
    """
    n, d, p = m.n, m.d, m.prime
    size = d + 1
    dtype = _residue_dtype(d, p)
    top = (d + 1) * (p - 1) ** 3
    rows = 1 if (top < 2**24 if dtype is np.float32 else top <= _EXACT) else n + 1
    # the whole power table when p fits in a chunk; past it, slices of chunk columns
    whole = _power_table(np.arange(p, dtype=np.int64), d, p).astype(dtype) if p <= chunk else None

    def powers(lo: int, hi: int) -> np.ndarray:
        """V[e, x - lo] = x^e mod p for lo <= x < hi."""
        if whole is not None:
            return whole[:, lo:hi]
        return _power_table(np.arange(lo, hi, dtype=np.int64), d, p).astype(dtype)

    exps = m.basis.exponent_array
    for lead in range(n + 1):
        free = n - lead
        trail = 0
        while trail < free and p ** (trail + 1) <= chunk:
            trail += 1
        keep = ~exps[:, :lead].any(axis=1)
        flat = exps[keep, lead + 1 :] @ size ** np.arange(free - 1, -1, -1)
        tensor = np.zeros((n + 1, size**free), dtype=dtype)
        tensor[:, flat] = m.coeffs[:, keep] % p
        # axes: leading exponents but the last, forms, last leading exponent, trailing exponents
        lead_axes = free - trail
        tensor = np.moveaxis(tensor.reshape((n + 1,) + (size,) * free), 0, max(lead_axes - 1, 0))
        for _ in range(trail):
            tensor = _reduce(np.tensordot(tensor, powers(0, p), axes=([lead_axes + 1], [0])), p)
        yield from _leading_values(tensor.reshape(tensor.shape[: lead_axes + 1] + (-1,)),
                                   powers, p, chunk, rows)


def _leading_values(tensor: np.ndarray, powers, p: int, chunk: int, rows: int):
    """Blocks of a chart over every value of its leading variables, in order.

    tensor's axes are the exponents of the leading variables but the last, the
    forms, the exponent of the last leading variable and the trailing points
    (the forms and the trailing points alone when no variable leads). The
    last leading variable takes chunk // (trailing points) values per batched
    product; powers(lo, hi) gives the power table's columns lo..hi-1. Every
    stage is reduced but the last, which reduces its first rows forms.
    """
    if tensor.ndim == 2:
        yield tensor.T
    elif tensor.ndim == 3:
        # (forms, last leading exponent, trailing points): a group of values per product
        group = max(1, chunk // tensor.shape[2])
        for lo in range(0, p, group):
            block = np.matmul(powers(lo, min(lo + group, p)).T, tensor)
            _reduce(block[:rows], p)
            yield block.reshape(len(block), -1).T
    else:
        for lo in range(0, p, chunk):
            for column in powers(lo, min(lo + chunk, p)).T:
                yield from _leading_values(_reduce(np.tensordot(column, tensor, axes=1), p),
                                           powers, p, chunk, rows)


def _positions(vals: np.ndarray, p: int, inv_table: np.ndarray) -> np.ndarray:
    """Position in the canonical enumeration of P^n(F_p) of each column of the
    residues vals (see the module docstring); a zero column lands on
    |P^n(F_p)|. vals is float32 while (p-1)^2 <= 2^23, with a float32
    inv_table, and float64 while (p-1)^2 <= 2^52, with an int32 or float64
    one, so each product x_j inv(x_0) is reduced exactly."""
    n = len(vals) - 1
    # a row-major copy: _chart0_positions overwrites x_1..x_n in place, and a
    # held batch (column-major, as its fancy-indexed tails) gets contiguous rows
    idx, rest, tail = _chart0_positions(vals.copy(), p, inv_table)
    if rest.size:
        # x_0 = 0: the positions of x_1..x_n in P^{n-1}, after the p^n of chart 0
        idx[rest] = p**n + (_positions(tail, p, inv_table) if n else 0)
    return idx


def _chart0_positions(vals: np.ndarray, p: int,
                      inv_table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions in chart 0 of the columns of vals with x_0 != 0, the indices
    of the others, and their x_1..x_n as given.

    vals is x_0 as residues and x_1..x_n as integers whose products with
    inv(x_0) are exact in vals' dtype and within _reduce's bound; x_1..x_n
    are overwritten by their digits x_j inv(x_0) mod p (0 where x_0 = 0).
    The Horner sum is one product in _key_dtype(p^n), exact as every
    partial sum is at most p^n - 1."""
    inv = inv_table[vals[0].astype(np.intp)]  # 0 where x_0 = 0
    rest = np.flatnonzero(inv == 0)
    tail = vals[1:, rest]
    digits = vals[1:]
    digits *= inv
    _reduce(digits, p)
    n = len(digits)
    key = _key_dtype(p**n)
    idx = (p ** np.arange(n - 1, -1, -1, dtype=np.int64)).astype(key) @ digits.astype(key, copy=False)
    return idx.astype(np.int64, copy=False), rest, tail


def _count_held(counts: np.ndarray, held: list[np.ndarray], p: int, inv_table: np.ndarray) -> None:
    """Move the images with x_0 = 0 whose x_1..x_n are held from the last
    count, where they were put, to their positions p^n + (position in P^{n-1}),
    and empty held. The placeholders are taken back first, so no count
    exceeds the domain."""
    tail = _reduce(np.concatenate(held, axis=1), p)
    held.clear()
    counts[-1] -= tail.shape[1]
    np.add.at(counts, p ** len(tail) + _positions(tail, p, inv_table), counts.dtype.type(1))


def fiber_census(m: RationalMap, budget: float = DEFAULT_BUDGET) -> FiberCensus:
    """Image bucket counts for the whole rational point set of the source."""
    n, p = m.n, m.prime
    domain = projective_count(n, p)
    refusal = _refusal(n, m.d, p, budget)
    if refusal is not None:
        if _census_cost(n, m.d, p) > budget:
            smaller = _suggest_prime(n, m.d, budget)
            refusal += "; " + (f"largest affordable prime is {smaller}" if smaller
                               else f"no prime above d = {m.d} fits it")
        raise ValueError(refusal)
    dtype = _count_dtype(domain)
    nbytes = dtype().itemsize * (domain + 1)
    try:
        counts = np.zeros(domain + 1, dtype=dtype)
    except MemoryError:
        raise ValueError(
            f"census needs {nbytes} bytes ({nbytes / 2**30:.2f} GiB) "
            f"for its fiber counts at p={p}; use a smaller prime"
        ) from None
    # int32 inverses beside float64 residues: their product is float64
    inv_table = _inverse_table(p, np.float32 if _residue_dtype(m.d, p) is np.float32 else np.int32)
    one = dtype(1)  # a typed 1: np.add.at takes a slow path for a Python int
    held, size = [], 0  # x_1..x_n of the images with x_0 = 0, counted at counts[domain] for now
    for imgs in _chart_images(m):
        idx, rest, tail = _chart0_positions(imgs.T, p, inv_table)
        idx[rest] = domain
        np.add.at(counts, idx, one)
        if rest.size:
            held.append(tail)
            size += rest.size
        if size >= _CHUNK:
            _count_held(counts, held, p, inv_table)
            size = 0
    if held:
        _count_held(counts, held, p, inv_table)
    base = int(counts[domain])
    histogram = _histogram(counts[:domain])
    total = domain - base
    fraction_unique = histogram.get(1, 0) / float(total) if total else 0.0
    return FiberCensus(
        prime=p,
        domain_size=domain,
        base_points=base,
        image_size=sum(histogram.values()),
        histogram=histogram,
        fraction_unique=fraction_unique,
    )


def _inverse_table(p: int, dtype: type, chunk: int = _CHUNK) -> np.ndarray:
    """inv[x] = x^(p-2) mod p, the inverse of x mod the prime p, and inv[0] = 0.

    Left-to-right square and multiply on int64 slices of chunk residues, each
    product reduced in place by _floor_mod: (p-1)^2 < 2^62 as p < 2^31.
    """
    table = np.empty(p, dtype=dtype)
    bits = bin(p - 2)[2:]
    for lo in range(0, p, chunk):
        x = np.arange(lo, min(lo + chunk, p), dtype=np.int64)
        acc = np.ones_like(x)
        for bit in bits:
            _floor_mod(np.multiply(acc, acc, out=acc), p)
            if bit == "1":
                _floor_mod(np.multiply(acc, x, out=acc), p)
        table[lo : lo + len(x)] = acc
    table[0] = 0  # 0^(p-2) is 1 at p = 2
    return table


def _residue_dtype(d: int, p: int) -> type:
    """float32 when a stage sum (d+1)(p-1)^2 is at most 2^23, else float64."""
    return np.float32 if (d + 1) * (p - 1) ** 2 <= 2**23 else np.float64


def _key_dtype(count: int) -> type:
    """float32 while count <= 2^24, float64 while count <= 2^53, else int64:
    the narrowest dtype in which a matmul of nonnegative integers is exact
    when its sum is below count."""
    if count <= 2**24:
        return np.float32
    return np.float64 if count <= 2**53 else np.int64


def _count_dtype(domain: int) -> type:
    """int32 for the fiber counts of a domain below 2^31 points, else int64."""
    return np.int32 if domain < 2**31 else np.int64


def _histogram(counts: np.ndarray, chunk: int = _CHUNK) -> dict[int, int]:
    """{fiber size: image points} over the nonzero counts, one slice of chunk
    counts at a time, so that no intp copy of a narrow counts array is made
    whole. Sizes below _LARGE_FIBER go through np.bincount; the few at or
    above it (contracted loci) through np.unique, so the histogram is bounded
    by the cut, not by the largest fiber.

    np.bincount stalls on a run of equal counts: each increment waits for the
    last one to the same bin, 3.4 to 4.3 ns a count against about 2 on
    Poisson-like counts. Most counts of a census are 0 (fiber type) or 1
    (birational), so a slice with at most 1/8 of its counts above 1 counts
    its ones by comparison and bincounts only the counts above 1; a denser
    slice (a double cover, Poisson-like counts) is bincounted whole. On
    randomly placed counts the two cost the same near 3/32. A slice after a
    dense one is bincounted whole untested, and its bins 0 and 1 give its
    own share above 1 for free, so only the first slice and a slice after a
    sparse one pay the comparison. The branch never changes the histogram."""
    freq = np.zeros(_LARGE_FIBER + 1, dtype=np.int64)
    large = []
    dense = False
    for start in range(0, len(counts), chunk):
        part = counts[start : start + chunk]
        size = len(part)
        whole = dense
        if not dense:
            above = part > 1
            whole = 8 * np.count_nonzero(above) > size
            if not whole:
                freq[1] += np.count_nonzero(part == 1)
                part = part[above]
        if part.max(initial=0) >= _LARGE_FIBER:
            large.append(part[part >= _LARGE_FIBER])
            part = np.minimum(part, _LARGE_FIBER)
        bins = np.bincount(part, minlength=_LARGE_FIBER + 1)
        freq += bins
        dense = whole and 8 * (size - bins[0] - bins[1]) > size
    sizes = np.flatnonzero(freq[1:_LARGE_FIBER]) + 1
    histogram = dict(zip(sizes.tolist(), freq[sizes].tolist()))
    if large:
        sizes, images = np.unique(np.concatenate(large), return_counts=True)
        histogram.update(zip(sizes.tolist(), images.tolist()))
    return histogram


def _refusal(n: int, d: int, p: int, budget: float) -> str | None:
    """Why fiber_census refuses a degree-d map of P^n over F_p, or None."""
    cost = _census_cost(n, d, p)
    if cost > budget:
        return f"census cost {_sci(cost)} exceeds budget {budget:.0e}"
    if (d + 1) * (p - 1) ** 2 > _EXACT:
        return f"float64 sums of {d + 1} residue products overflow 2^52 at p={p}"
    if p ** (n + 1) > 2**63:
        return f"int64 image keys overflow at p={p}, n={n}"
    return None


def _sci(x: int) -> str:
    """x as f"{x:.2e}" prints it; past the float range, rounded from x exactly."""
    try:
        return f"{x:.2e}"
    except OverflowError:
        return f"{Decimal(x):.2e}"


def _suggest_prime(n: int, d: int, budget: float) -> int | None:
    """The largest odd prime above d that fiber_census accepts, if any.

    Every refusal of _refusal grows with p. Doubling from d + 1 brackets the
    largest p it accepts (past d + 1 a probed cost is at most 2^(n+1) times an
    accepted one, so a refusal message can print it), bisection finds that p,
    and the walk goes down from there to a prime.
    """
    lo, hi = d, d + 1  # _refusal accepts lo (or lo = d) and refuses hi (or hi = MAX_MODULUS)
    while hi < MAX_MODULUS and _refusal(n, d, hi, budget) is None:
        lo, hi = hi, min(2 * hi, MAX_MODULUS)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _refusal(n, d, mid, budget) is None else (lo, mid)
    for q in range(lo - 1 + lo % 2, next_odd_prime(d) - 1, -2):
        if is_prime(q):
            return q
    return None


def next_odd_prime(p: int) -> int:
    """The smallest odd prime above p."""
    q = p + 1 + p % 2
    while not is_prime(q):
        q += 2
    return q


def classify(c: FiberCensus) -> str:
    """Threshold decision on the census statistics.

    Order matters: a clear generic-degree-1 signal wins; a provably small
    image (at most TAU_FIBER/p of the domain, i.e. positive-codimension) is
    fiber type; concentrated fiber size k >= 2 is a finite cover; otherwise
    the census is inconclusive.
    """
    if c.fraction_unique >= TAU_BIRATIONAL:
        return "birational"
    if c.image_size <= c.domain_size * TAU_FIBER / c.prime:
        return "fiber-type"
    total = c.domain_size - c.base_points
    if total > 0:
        by_mass = {s: s * cnt / total for s, cnt in c.histogram.items() if s >= 2}
        if by_mass:
            s, mass = max(by_mass.items(), key=lambda kv: kv[1])
            if mass >= TAU_FINITE:
                return f"finite({s})"
    return "inconclusive"


def census_of(
    spec: SchemeSpec, prime: int, seed: int = 0, budget: float = DEFAULT_BUDGET
) -> FiberCensus:
    """Census of the map of the system spec at (prime, seed); cached, so heavy runs are shared."""
    return _census_cached(spec, prime, seed, float(budget))


def census_for_doubles(
    n: int, d: int, h: int, prime: int, seed: int = 0, budget: float = DEFAULT_BUDGET
) -> FiberCensus:
    """Census of the map of L_{n,d}(2^h)."""
    return census_of(double_points(n, d, h), prime, seed, budget)


@lru_cache(maxsize=None)
def _census_cached(spec: SchemeSpec, prime: int, seed: int, budget: float) -> FiberCensus:
    census = fiber_census(map_from_system(spec, prime, seed), budget)
    # every assigned point is a rational base point; equal fixed points are one
    points = len({v.tobytes() for v in sample(spec, prime, seed).points})
    if census.base_points < points:
        raise ValueError(
            f"sanity: {points} assigned points must be rational base points, "
            f"census found {census.base_points}"
        )
    return census


@dataclass(frozen=True)
class IdentifiabilityVerdict:
    n: int
    d: int
    status: str  # "identifiable" | "not-identifiable" | "non-perfect"
    s: int | None = None
    censuses: tuple[FiberCensus, ...] = ()

    @property
    def corroborated(self) -> bool | None:
        """Whether every census verdict backs the status; None when no census ran."""
        if not self.censuses:
            return None
        backing = _CORROBORATING[self.status]
        return all(c.verdict.partition("(")[0] in backing for c in self.censuses)


# the complete list of identifiable perfect pairs: (1, 2k-1) for all k, plus
IDENTIFIABLE_SPORADIC = {(3, 3), (2, 5)}

# the census verdicts that corroborate each status of a perfect pair (a
# non-perfect one runs no census); finite(k) is read as finite
_CORROBORATING = {
    "identifiable": {"birational"},
    "not-identifiable": {"fiber-type", "finite"},
}


def identifiability_verdict(
    n: int, d: int, corroborate: bool = True, budget: float = DEFAULT_BUDGET
) -> IdentifiabilityVerdict:
    """Uniqueness of the generic rank-s decomposition in the perfect case.

    Identifiable exactly for (1, 2k-1) with s = k and the two sporadic pairs
    (3,3) s=5 and (2,5) s=7. When corroborate is set and the cost fits the
    budget, attaches the census of L_{n,d}(2^{s-1}) at the per-dimension
    primes: birational verdicts back the identifiable cases.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n, d >= 1, got ({n},{d})")
    if not is_perfect(n, d):
        return IdentifiabilityVerdict(n, d, "non-perfect")
    s = int(k(n, d))
    if n == 1 and d % 2 == 1:
        status = "identifiable"
    elif (n, d) in IDENTIFIABLE_SPORADIC:
        status = "identifiable"
    else:
        status = "not-identifiable"
    primes = CENSUS_PRIMES.get(n, ()) if corroborate else ()
    censuses = tuple(census_for_doubles(n, d, s - 1, p, budget=budget)
                     for p in primes if _refusal(n, d, p, budget) is None)
    return IdentifiabilityVerdict(n, d, status, s, censuses)


def quadric_rank(coeffs, basis: MonomialBasis, p: int) -> int:
    """Rank of the symmetric matrix of a quadratic form; p must be an odd prime."""
    if basis.d != 2:
        raise ValueError(f"quadric rank needs degree 2, got {basis.d}")
    p = check_modulus(p)
    coeffs = np.asarray(coeffs, dtype=np.int64) % p
    n, exps = basis.n, basis.exponent_array
    # monomial x_i x_j with i <= j: its first and its last variable
    i, j = exps.argmax(axis=1), n - exps[:, ::-1].argmax(axis=1)
    sym = np.zeros((n + 1, n + 1), dtype=np.int64)
    sym[i, j] = sym[j, i] = np.where(i == j, coeffs, coeffs * pow(2, -1, p) % p)
    return rank(FieldMatrix(sym, p))
