"""Rational maps from n-dimensional linear systems and their exhaustive
fiber census over P^n(F_p).

The census evaluates all n+1 forms on every point of P^n(F_p), chart by chart
as grids of canonical representatives (first nonzero coordinate 1), and counts
the points over each target point. Generic fiber size 1 across two primes is
the working notion of birationality; a small image signals fiber type.

Evaluation contracts the forms against a power table in float64 BLAS, one
variable at a time. A stage sums d+1 residue products, at most (d+1)(p-1)^2,
which is exact while at most 2^52; larger p are refused. An image x is keyed
by its position in the canonical enumeration (charts in order, x_n fastest):
Horner in base p over y = x / x_lead, with digit 1 - y_j up to and including
the lead and y_j after it, so a base point (every digit 1) lands on
|P^n(F_p)|. The digits y_j = x_j inv(x_lead) mod p are taken on the float64
residues by `ffield._reduce`, exact as x_j inv(x_lead) <= (p-1)^2 < 2^52;
only the positions are int64 (p^(n+1) > 2^63 is refused). The counts are one
int64 array of |P^n(F_p)| + 1 entries, 8 (|P^n(F_p)| + 1) bytes, refused when
it cannot be allocated; besides it a census holds one chart's evaluation
tensors, over a trailing grid of at most 2^18 points, and at the end a
histogram as long as the largest fiber.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .ffield import _EXACT, FieldMatrix, _reduce, is_prime, kernel_basis, rank
from .formulas import is_perfect, k
from .monomials import MonomialBasis, _power_table, monomial_basis
from .schemes import SchemeSpec, condition_matrix, double_points

DEFAULT_BUDGET = 1e10
TAU_BIRATIONAL = 0.7
TAU_FIBER = 3.0
TAU_FINITE = 0.6

# per-dimension census primes; n <= 4 fixed, the pairs give cross-prime checks
CENSUS_PRIMES = {1: (499, 251), 2: (499, 251), 3: (127, 131), 4: (31, 61), 5: (31, 17)}

_CHUNK = 1 << 18


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


def projective_count(n: int, p: int) -> int:
    return (p ** (n + 1) - 1) // (p - 1)


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
    verdict: str = ""

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
    """The n+1 forms on P^n(F_p), chart by chart, in chunks of points.

    Chart lead = k is x_0..x_{k-1} = 0, x_k = 1 over F_p^{n-k} (x_n fastest). Its
    forms, a tensor over the exponents of x_{k+1}..x_n, are contracted one variable
    at a time against V[e, x] = x^e mod p in float64 BLAS, reduced after each stage
    of d+1 residue products: once per chart for the trailing variables whose grid
    fits in a chunk, then per value of each leading variable, one chunk per
    leading point. Yields float64 residues, one row per point.
    """
    n, d, p = m.n, m.d, m.prime
    size = d + 1
    vand = _power_table(np.arange(p, dtype=np.int64), d, p).T.astype(np.float64)
    exps = m.basis.exponent_array
    for lead in range(n + 1):
        free = n - lead
        trail = min(free, 1)
        while trail < free and p ** (trail + 1) <= chunk:
            trail += 1
        keep = ~exps[:, :lead].any(axis=1)
        flat = exps[keep, lead + 1 :] @ size ** np.arange(free - 1, -1, -1)
        tensor = np.zeros((n + 1, size**free))
        tensor[:, flat] = m.coeffs[:, keep] % p
        # axes: leading exponents, forms, trailing exponents
        lead_axes = free - trail
        tensor = np.moveaxis(tensor.reshape((n + 1,) + (size,) * free), 0, lead_axes)
        for _ in range(trail):
            tensor = _reduce(np.tensordot(tensor, vand, axes=([lead_axes + 1], [0])), p)
        yield from _leading_values(tensor.reshape(tensor.shape[: lead_axes + 1] + (-1,)), vand, p)


def _leading_values(tensor: np.ndarray, vand: np.ndarray, p: int):
    if tensor.ndim == 2:
        yield tensor.T
    else:
        for column in vand.T:
            yield from _leading_values(_reduce(np.tensordot(column, tensor, axes=1), p), vand, p)


def _positions(vals: np.ndarray, p: int, inv_table: np.ndarray) -> np.ndarray:
    """Position in the canonical enumeration of P^n(F_p) of each column of the
    float64 residues vals, by Horner over the coordinates (see the module
    docstring); a zero column lands on |P^n(F_p)|."""
    idx = np.zeros(vals.shape[1], dtype=np.int64)
    scale = np.zeros(vals.shape[1])  # inv(lead) once the lead is passed
    for row in vals:
        before = scale == 0
        scale[before] = inv_table[row[before].astype(np.intp)]
        y = _reduce(row * scale, p)
        y -= before  # up to the lead y is 0 or 1, and |y - 1| = 1 - y
        idx *= p
        idx += np.abs(y, out=y).astype(np.int64)
    return idx


def fiber_census(m: RationalMap, budget: float = DEFAULT_BUDGET) -> FiberCensus:
    """Image bucket counts for the whole rational point set of the source."""
    n, p = m.n, m.prime
    domain = projective_count(n, p)
    cost = _census_cost(n, m.d, p)
    if cost > budget:
        smaller = _suggest_prime(n, m.d, budget)
        raise ValueError(
            f"census cost {cost:.2e} exceeds budget {budget:.0e}; "
            f"largest affordable prime is ~{smaller}"
        )
    if (m.d + 1) * (p - 1) ** 2 > _EXACT:
        raise ValueError(f"float64 sums of {m.d + 1} residue products overflow 2^52 at p={p}")
    if p ** (n + 1) > 2**63:
        raise ValueError(f"int64 image keys overflow at p={p}, n={n}")
    inv_table = np.zeros(p)
    inv_table[1:] = [pow(x, -1, p) for x in range(1, p)]
    try:
        counts = np.zeros(domain + 1, dtype=np.int64)
    except MemoryError:
        raise ValueError(
            f"census needs {8 * (domain + 1)} bytes ({8 * (domain + 1) / 2**30:.2f} GiB) "
            f"for its fiber counts at p={p}; use a smaller prime"
        ) from None
    for imgs in _chart_images(m):
        np.add.at(counts, _positions(imgs.T, p, inv_table), 1)
    base = int(counts[domain])
    freq = np.bincount(counts[:domain])
    histogram = {int(s): int(freq[s]) for s in np.flatnonzero(freq[1:]) + 1}
    image_size = int(freq[1:].sum())
    total = domain - base
    fraction_unique = int(freq[1]) / float(total) if total else 0.0
    census = FiberCensus(
        prime=p,
        domain_size=domain,
        base_points=base,
        image_size=image_size,
        histogram=histogram,
        fraction_unique=fraction_unique,
    )
    return FiberCensus(**{**census.__dict__, "verdict": classify(census)})


def _suggest_prime(n: int, d: int, budget: float) -> int:
    p = 3
    best = 3
    while _census_cost(n, d, p) <= budget:
        best = p
        p = next_odd_prime(p)
    return best


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


def census_for_doubles(
    n: int, d: int, h: int, prime: int, seed: int = 0, budget: float = DEFAULT_BUDGET
) -> FiberCensus:
    """Census of the map of L_{n,d}(2^h); cached, the heavy runs are shared."""
    return _census_cached(n, d, h, prime, seed, float(budget))


@lru_cache(maxsize=None)
def _census_cached(n: int, d: int, h: int, prime: int, seed: int, budget: float) -> FiberCensus:
    spec = double_points(n, d, h)
    m = map_from_system(spec, prime, seed)
    census = fiber_census(m, budget)
    if h and census.base_points < h:
        raise ValueError(
            f"sanity: {h} assigned double points must be rational base points, "
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

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "status": self.status,
            "s": self.s,
            "censuses": [c.as_dict() for c in self.censuses],
        }


# the complete list of identifiable perfect pairs: (1, 2k-1) for all k, plus
IDENTIFIABLE_SPORADIC = {(3, 3): 5, (2, 5): 7}


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
        assert IDENTIFIABLE_SPORADIC[(n, d)] == s
    else:
        status = "not-identifiable"
    censuses: tuple[FiberCensus, ...] = ()
    if corroborate and n in CENSUS_PRIMES:
        runs = []
        for p in CENSUS_PRIMES[n]:
            if _census_cost(n, d, p) <= budget:
                runs.append(census_for_doubles(n, d, s - 1, p, budget=budget))
        censuses = tuple(runs)
    return IdentifiabilityVerdict(n, d, status, s, censuses)


def quadric_rank(coeffs, basis: MonomialBasis, p: int) -> int:
    """Rank of the symmetric matrix of a quadratic form; needs odd p."""
    if basis.d != 2:
        raise ValueError(f"quadric rank needs degree 2, got {basis.d}")
    if p == 2:
        raise ValueError("quadric rank undefined at p = 2")
    coeffs = np.asarray(coeffs, dtype=np.int64) % p
    n = basis.n
    inv2 = pow(2, -1, p)
    sym = np.zeros((n + 1, n + 1), dtype=np.int64)
    for idx, beta in enumerate(basis.exponents):
        c = int(coeffs[idx])
        if c == 0:
            continue
        nz = [i for i, e in enumerate(beta) if e]
        if len(nz) == 1:
            sym[nz[0], nz[0]] = c
        else:
            i, j = nz
            sym[i, j] = sym[j, i] = c * inv2 % p
    return rank(FieldMatrix(sym, p))
