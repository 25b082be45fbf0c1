"""Fat-point scheme specifications and their dimension over prime fields.

A SchemeSpec is declarative: points carry a multiplicity, a placement, and
optional tangent directions (one linear condition each). Placements refer to
the canonical coordinate flag H_k = {x_{k+1} = ... = x_n = 0}, so on-subspace
sampling and hyperplane restriction are coordinate projections.

dimension() samples the configuration, stacks the condition rows, and takes
the minimum kernel size over (prime, seed) trials: specialization can only
raise the dimension, so the minimum is the sharp upper estimate of the
generic value and equals it with high probability.

Every dimension call runs sample and condition_matrix once per trial, so
their per-call work is kept to the draw and the rows. A SchemeSpec computes
the facts they read (oversized multiplicities, the row count, distinct
multiplicities, the points that carry @ptK) once, at construction.
Placement and FatPoint are named tuples, so a draw lookup hashes and
compares plain tuples. With a single multiplicity the rows of point_rows are
the matrix, with no copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .ffield import (DEFAULT_PRIMES, FieldMatrix, _proportional, _row_dtype, check_modulus,
                     normalize, rank)
from .formulas import AH_SPORADIC, projective_count
from .monomials import monomial_basis, point_rows

GENERIC = "generic"
SUBSPACE = "subspace"
EXPLICIT = "explicit"
CLUSTER = "cluster"


class Placement(NamedTuple):
    """Where a point (or tangent direction) sits.

    kind "generic": uniform over P^n; "subspace": uniform over the flag member
    H_dim; "explicit": the given coordinates; "cluster" (@ptK): sample()
    resolves it before the draw. F_p has no notion of "near", so a cluster
    point is drawn as a generic point from its own stream; a cluster direction
    is the chord toward point K, which is point K's sampled coordinates. Only a
    chord direction ties a system to the referenced point. A limit experiment
    needs explicit coordinates, as `collisions` builds them.

    A placement is a plain tuple, like FatPoint, so hashing and comparing
    one, as every draw lookup does, never runs Python code.
    """

    kind: str
    dim: int | None = None
    coords: tuple[int, ...] | None = None
    center: int | None = None

    @staticmethod
    def generic() -> "Placement":
        return Placement(GENERIC)

    @staticmethod
    def on_subspace(dim: int) -> "Placement":
        return Placement(SUBSPACE, dim=dim)

    @staticmethod
    def explicit(coords: Iterable[int]) -> "Placement":
        return Placement(EXPLICIT, coords=tuple(int(c) for c in coords))

    @staticmethod
    def near_cluster(center: int) -> "Placement":
        return Placement(CLUSTER, center=center)


class FatPoint(NamedTuple):
    placement: Placement
    multiplicity: int = 1
    directions: tuple[Placement, ...] = ()


@dataclass(frozen=True)
class SchemeSpec:
    """n, d and the points; the facts every dimension and sample call reads
    are computed once, here, and take no part in equality or hashing."""

    n: int
    d: int
    points: tuple[FatPoint, ...] = ()
    # indices of points with m >= d + 2: legal, but certainly empty
    oversized_multiplicities: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # derivative rows of every point plus one row per tangent direction
    condition_rows: int = field(init=False, repr=False, compare=False)
    _multiplicities: frozenset[int] = field(init=False, repr=False, compare=False)
    # indices of points with an @ptK placement or direction
    _cluster_points: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {self.n}")
        if self.d < 0:
            raise ValueError(f"degree must be >= 0, got {self.d}")
        points = tuple(self.points)
        for idx, pt in enumerate(points):
            self._check_point(idx, pt)
        directions = sum(len(pt.directions) for pt in points)
        facts = {
            "points": points,
            "oversized_multiplicities": tuple(
                i for i, pt in enumerate(points) if pt.multiplicity >= self.d + 2
            ),
            "condition_rows": sum(comb(pt.multiplicity - 1 + self.n, self.n) for pt in points)
            + directions,
            "_multiplicities": frozenset(pt.multiplicity for pt in points),
            "_cluster_points": frozenset(
                i for i, pt in enumerate(points)
                if any(pl.kind == CLUSTER for pl in (pt.placement, *pt.directions))
            ),
        }
        for name, value in facts.items():
            object.__setattr__(self, name, value)

    def _check_point(self, idx: int, pt: FatPoint) -> None:
        if pt.multiplicity < 1:
            raise ValueError(f"point {idx}: multiplicity must be >= 1")
        pl = pt.placement
        self._check_placement(pl, idx, f"point {idx}")
        if pl.kind == EXPLICIT and not any(pl.coords):
            raise ValueError(f"point {idx}: explicit coords must be nonzero")
        for t, dr in enumerate(pt.directions):
            where = f"point {idx} direction {t}"
            self._check_placement(dr, idx, where)
            if dr.kind == SUBSPACE:
                if dr.dim < 1:
                    # H_0 is a single point, so it carries no direction
                    # projectively distinct from the base point
                    raise ValueError(
                        f"{where}: tangent to the 0-dimensional flag member is degenerate"
                    )
                if not _in_flag(pl, dr.dim):
                    raise ValueError(
                        f"{where}: tangent to H_{dr.dim} requires the point to lie on it"
                    )

    def _check_placement(self, pl: Placement, idx: int, where: str) -> None:
        """Flag range, coordinate count and point reference of one placement."""
        if pl.kind == SUBSPACE and not 0 <= pl.dim < self.n:
            raise ValueError(f"{where}: flag member dim must be in [0, {self.n - 1}]")
        if pl.kind == EXPLICIT and len(pl.coords) != self.n + 1:
            raise ValueError(f"{where}: explicit coords need {self.n + 1} entries")
        if pl.kind == CLUSTER and not 0 <= pl.center < idx:
            # sampling is sequential; a cluster or chord may only use earlier points
            raise ValueError(f"{where}: must reference an earlier point, got point {pl.center}")


def _in_flag(pl: Placement, k: int) -> bool:
    """Whether every sample of the placement lies in the flag member H_k."""
    if pl.kind == SUBSPACE:
        return pl.dim <= k
    if pl.kind == EXPLICIT:
        return not any(pl.coords[k + 1 :])
    return False


def virtual_dim(spec: SchemeSpec) -> int:
    return comb(spec.d + spec.n, spec.n) - 1 - spec.condition_rows


def expected_dim(spec: SchemeSpec) -> int:
    return max(virtual_dim(spec), -1)


@dataclass(frozen=True)
class SampledScheme:
    points: tuple[np.ndarray, ...]
    directions: tuple[tuple[np.ndarray, ...], ...]


class PrimeBoundError(ValueError):
    """The prime is at most the degree or a multiplicity of the system."""


def _point_rng(prime: int, seed: int, index: int, attempt: int = 0) -> np.random.Generator:
    # per-point substream: appending points never moves earlier samples; the
    # redraw number `attempt` of a repeated point takes that child of the stream
    spawn_key = (attempt,) if attempt else ()
    return np.random.default_rng(np.random.SeedSequence([prime, seed, index], spawn_key=spawn_key))


def sample(spec: SchemeSpec, prime: int, seed: int) -> SampledScheme:
    """Deterministic coordinates for every point and direction.

    Replays exactly for equal (spec placement list, prime, seed); extending the
    point list leaves earlier samples unchanged, which keeps a system and its
    extensions on the same configuration. Each @ptK reference is resolved
    before point i is drawn: an @ptK point is drawn as a generic point from its
    own stream, and a chord direction toward point K is point K's sampled
    coordinates, an explicit direction. A randomly placed point (generic, on H_k
    with k >= 1, or @ptK) that repeats an earlier point is drawn again, so it
    imposes its own conditions; a point whose locus the earlier points already
    fill is refused. Fixed points (explicit, on H_0) may repeat. A direction
    is not judged here: an explicit one proportional to its point, as a chord
    from a fixed point toward itself, is refused by point_rows when
    condition_matrix builds the rows, and a point whose first draw repeats
    point K is redrawn even when it carries a chord toward K. Each point is
    drawn once per process by _sample_one, so the arrays returned are read-only
    and may be shared between calls.
    """
    p = check_modulus(prime)
    bound = max((spec.d, *spec._multiplicities))
    if p <= bound:
        raise PrimeBoundError(f"prime {p} must exceed max(degree, multiplicities) = {bound}")
    pts: list[np.ndarray] = []
    dirs: list[tuple[np.ndarray, ...]] = []
    taken: set[bytes] = set()  # the representatives drawn so far
    for idx, pt in enumerate(spec.points):
        if idx in spec._cluster_points:
            pt = FatPoint(
                Placement.generic() if pt.placement.kind == CLUSTER else pt.placement,
                pt.multiplicity,
                tuple(Placement.explicit(pts[dr.center]) if dr.kind == CLUSTER else dr
                      for dr in pt.directions),
            )
        coords, vecs = _sample_one(p, seed, idx, spec.n, pt, 0)
        key = coords.tobytes()
        attempt = 0
        while key in taken:
            # the point is drawn from the flag member H_k (H_n = P^n); k = 0 is a fixed point
            kind = pt.placement.kind
            k = pt.placement.dim if kind == SUBSPACE else 0 if kind == EXPLICIT else spec.n
            if not k:
                break
            size = projective_count(k, p)
            if len({v.tobytes() for v in pts if not v[k + 1 :].any()}) >= size:
                locus = f"H_{k}" if k < spec.n else f"P^{k}"
                raise ValueError(f"point {idx}: the earlier points take all {size} points "
                                 f"of {locus}(F_{p}), so it cannot be placed apart from them")
            attempt += 1
            coords, vecs = _sample_one(p, seed, idx, spec.n, pt, attempt)
            key = coords.tobytes()
        taken.add(key)
        pts.append(coords)
        dirs.append(vecs)
    return SampledScheme(tuple(pts), tuple(dirs))


# a draw takes about 250-380 bytes, so the cache holds at most about 1.6 MB
@lru_cache(maxsize=4096)
def _sample_one(
    prime: int, seed: int, index: int, n: int, point: FatPoint, attempt: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The read-only coordinates and direction vectors of point `index`; an
    explicit direction is returned as given, reduced, even when it is
    proportional to the point (point_rows refuses it).

    The key is everything the draw reads: the substream (prime, seed, index,
    attempt), n, and the point's placement and directions, which sample() has
    already freed of @ptK references. So a hit returns exactly what a fresh
    draw would.
    """
    rng = _point_rng(prime, seed, index, attempt)
    coords = _sample_point(point.placement, n, prime, rng)
    vecs = tuple(_sample_direction(dr, coords, n, prime, rng) for dr in point.directions)
    for v in (coords, *vecs):
        v.setflags(write=False)
    return coords, vecs


def _uniform(pl: Placement, n: int, p: int, rng) -> np.ndarray:
    """A nonzero vector uniform on H_k, k the placement's flag member (n if generic)."""
    top = pl.dim if pl.kind == SUBSPACE else n
    while True:
        v = np.zeros(n + 1, dtype=np.int64)
        v[: top + 1] = rng.integers(0, p, top + 1)
        if v.any():
            return v


def _sample_point(pl: Placement, n: int, p: int, rng) -> np.ndarray:
    return normalize(pl.coords if pl.kind == EXPLICIT else _uniform(pl, n, p, rng), p)


def _sample_direction(pl: Placement, at: np.ndarray, n: int, p: int, rng) -> np.ndarray:
    """An explicit direction as given, reduced; a random one drawn apart from `at`."""
    if pl.kind == EXPLICIT:
        return np.array(pl.coords, dtype=np.int64) % p
    while True:
        v = _uniform(pl, n, p, rng)
        if not _proportional(at, v, p):
            return v


def condition_matrix(spec: SchemeSpec, prime: int, seed: int) -> FieldMatrix:
    """Point-multiplicity rows and tangent-direction rows, in the spec's point order.

    A multiplicity-m point contributes the binom(m-1+n, n) derivative rows of
    order exactly m-1 (lower orders follow from the Euler relation, p > d);
    each direction contributes one leading-form row at its point's
    multiplicity, after its point's derivative rows. The rows of all points of
    one multiplicity come from one point_rows call and are written into the
    matrix at their points' offsets; with a single multiplicity that call's
    result is the matrix. The kernel is the sampled linear system. point_rows
    refuses a direction proportional to its point.
    """
    if spec.oversized_multiplicities:
        raise ValueError(
            "multiplicity >= d+2 admits no faithful derivative rows at this "
            "degree (the system is certainly empty); dimension() handles it"
        )
    sm = sample(spec, prime, seed)
    basis = monomial_basis(spec.n, spec.d)
    if len(spec._multiplicities) == 1:
        (m,) = spec._multiplicities
        return FieldMatrix(point_rows(basis, sm.points, m, sm.directions, prime), prime)
    mults = [pt.multiplicity for pt in spec.points]
    derivatives = {m: comb(m - 1 + spec.n, spec.n) for m in spec._multiplicities}
    sizes = [derivatives[m] + len(pt.directions) for m, pt in zip(mults, spec.points)]
    # the multiplicity of each row's point: a group's rows are the rows of its m
    row_mults = np.repeat(np.array(mults, dtype=np.int64), sizes)
    a = np.empty((len(row_mults), len(basis)), dtype=_row_dtype(prime))
    for m in derivatives:
        idx = [i for i, pt_m in enumerate(mults) if pt_m == m]
        pts, dirs = [sm.points[i] for i in idx], [sm.directions[i] for i in idx]
        a[row_mults == m] = point_rows(basis, pts, m, dirs, prime)
    return FieldMatrix(a, prime)


@dataclass(frozen=True)
class Trial:
    prime: int
    seed: int
    dim: int


@dataclass(frozen=True)
class DimensionReport:
    spec: SchemeSpec = field(repr=False)
    virtual: int
    expected: int
    computed: int
    special: bool
    trials: tuple[Trial, ...]
    note: str = ""


def dimension(
    spec: SchemeSpec,
    primes: Sequence[int] = (DEFAULT_PRIMES[0],),
    seeds: Sequence[int] = (0, 1, 2),
) -> DimensionReport:
    """Projective dimension of the sampled system, minimized over trials.

    Every (prime, seed) trial is kept, so a disagreement between trials is
    reported, never resolved silently.
    """
    primes = tuple(int(p) for p in primes)
    seeds = tuple(int(s) for s in seeds)
    if not primes or not seeds:
        raise ValueError("need at least one prime and one seed")
    vd = virtual_dim(spec)
    exp = expected_dim(spec)

    def report(computed, trials, note=""):
        return DimensionReport(spec, vd, exp, computed, computed > exp, tuple(trials), note)

    if spec.oversized_multiplicities:
        return report(-1, [], note="multiplicity exceeds degree: empty by definition")
    cols = comb(spec.d + spec.n, spec.n)
    trials = [Trial(p, s, cols - rank(condition_matrix(spec, p, s)) - 1)
              for p in primes for s in seeds]
    return report(min(t.dim for t in trials), trials)


def ah_classify(n: int, d: int, h: int) -> str | None:
    """Why h general double points on degree-d forms of P^n are special, or None.

    "quadric" exactly for d = 2 with 2 <= h <= n, "sporadic" for the four
    triples (2,4,5), (3,4,9), (4,3,7), (4,4,14); the sporadic systems all have
    dimension 0 while their expected dimension is -1.
    """
    if d < 2:
        raise ValueError(f"classification needs d >= 2, got d={d}")
    if n < 1 or h < 1:
        raise ValueError(f"need n >= 1 and h >= 1, got n={n}, h={h}")
    if d == 2 and 2 <= h <= n:
        return "quadric"
    if (n, d, h) in AH_SPORADIC:
        return "sporadic"
    return None


def double_points(n: int, d: int, h: int) -> SchemeSpec:
    """L_{n,d}(2^h) with generic placements."""
    return SchemeSpec(n, d, tuple(FatPoint(Placement.generic(), 2) for _ in range(h)))


def castelnuovo_split(spec: SchemeSpec) -> tuple[SchemeSpec, SchemeSpec]:
    """Kernel and trace of restriction to the flag hyperplane H_{n-1}.

    Kernel: degree d-1 on the same P^n; on-hyperplane multiplicities drop by
    one (points reaching 0 disappear) and on-hyperplane directions are
    absorbed. Trace: same degree on H = P^{n-1}, keeping exactly the
    on-hyperplane points and directions. Vector-space dimensions always
    satisfy h0(spec) <= h0(kernel) + h0(trace).
    """
    n = spec.n
    if n < 2:
        raise ValueError("restriction needs ambient dimension >= 2")
    if spec._cluster_points:
        raise ValueError("cluster placements do not split; resolve them first")

    kernel_points: list[FatPoint] = []
    trace_points: list[FatPoint] = []
    for pt in spec.points:
        dirs_on = tuple(dr for dr in pt.directions if _in_flag(dr, n - 1))
        dirs_off = tuple(dr for dr in pt.directions if not _in_flag(dr, n - 1))
        if _in_flag(pt.placement, n - 1):
            if pt.multiplicity > 1:
                kernel_points.append(
                    FatPoint(pt.placement, pt.multiplicity - 1, dirs_off)
                )
            trace_points.append(
                FatPoint(
                    _project_placement(pt.placement, n),
                    pt.multiplicity,
                    tuple(_project_placement(dr, n) for dr in dirs_on),
                )
            )
        else:
            kernel_points.append(FatPoint(pt.placement, pt.multiplicity, pt.directions))
    kernel = SchemeSpec(n, spec.d - 1, tuple(kernel_points))
    trace = SchemeSpec(n - 1, spec.d, tuple(trace_points))
    return kernel, trace


def _project_placement(pl: Placement, n: int) -> Placement:
    if pl.kind == SUBSPACE:
        return Placement.generic() if pl.dim == n - 1 else Placement.on_subspace(pl.dim)
    # the split projects only what `_in_flag` admits: SUBSPACE or EXPLICIT placements
    return Placement.explicit(pl.coords[:n])
