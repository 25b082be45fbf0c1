"""Fat-point scheme specifications and their dimension over prime fields.

A SchemeSpec is declarative: points carry a multiplicity, a placement, and
optional tangent directions (one linear condition each). Placements refer to
the canonical coordinate flag H_k = {x_{k+1} = ... = x_n = 0}, so on-subspace
sampling and hyperplane restriction are coordinate projections.

dimension() samples the configuration, stacks the condition rows, and takes
the minimum kernel size over (prime, seed) trials: specialization can only
raise the dimension, so the minimum is the sharp upper estimate of the
generic value and equals it with high probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .ffield import DEFAULT_PRIMES, FieldMatrix, _proportional, check_modulus, normalize, rank
from .formulas import AH_SPORADIC
from .monomials import monomial_basis, point_rows

GENERIC = "generic"
SUBSPACE = "subspace"
EXPLICIT = "explicit"
CLUSTER = "cluster"

CLUSTER_SCALE = 1  # fixed nonzero offset residue for near-cluster sampling


@dataclass(frozen=True)
class Placement:
    """Where a point (or tangent direction) sits.

    kind "generic": uniform over P^n; "subspace": uniform over the flag member
    H_dim; "explicit": the given coordinates; "cluster": offset CLUSTER_SCALE
    times a random direction from the referenced point (limit experiments).
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

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == SUBSPACE:
            out["dim"] = self.dim
        elif self.kind == EXPLICIT:
            out["coords"] = list(self.coords)
        elif self.kind == CLUSTER:
            out["center"] = self.center
        return out


@dataclass(frozen=True)
class FatPoint:
    placement: Placement
    multiplicity: int = 1
    directions: tuple[Placement, ...] = ()

    def to_dict(self) -> dict:
        return {
            "multiplicity": self.multiplicity,
            "placement": self.placement.to_dict(),
            "directions": [d.to_dict() for d in self.directions],
        }


@dataclass(frozen=True)
class SchemeSpec:
    n: int
    d: int
    points: tuple[FatPoint, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {self.n}")
        if self.d < 0:
            raise ValueError(f"degree must be >= 0, got {self.d}")
        object.__setattr__(self, "points", tuple(self.points))
        for idx, pt in enumerate(self.points):
            self._check_point(idx, pt)

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

    @property
    def oversized_multiplicities(self) -> tuple[int, ...]:
        """Indices of points with m >= d + 2: legal, but certainly empty."""
        return tuple(
            i for i, pt in enumerate(self.points) if pt.multiplicity >= self.d + 2
        )

    @property
    def direction_count(self) -> int:
        return sum(len(pt.directions) for pt in self.points)

    def condition_rows(self) -> int:
        n = self.n
        return (
            sum(comb(pt.multiplicity - 1 + n, n) for pt in self.points)
            + self.direction_count
        )

    def to_dict(self) -> dict:
        return {"n": self.n, "d": self.d, "points": [pt.to_dict() for pt in self.points]}


def _in_flag(pl: Placement, k: int) -> bool:
    """Whether every sample of the placement lies in the flag member H_k."""
    if pl.kind == SUBSPACE:
        return pl.dim <= k
    if pl.kind == EXPLICIT:
        return not any(pl.coords[k + 1 :])
    return False


def virtual_dim(spec: SchemeSpec) -> int:
    return comb(spec.d + spec.n, spec.n) - 1 - spec.condition_rows()


def expected_dim(spec: SchemeSpec) -> int:
    return max(virtual_dim(spec), -1)


@dataclass(frozen=True)
class SampledScheme:
    points: tuple[np.ndarray, ...]
    directions: tuple[tuple[np.ndarray, ...], ...]


class PrimeBoundError(ValueError):
    """The prime is at most the degree or a multiplicity of the system."""


def _point_rng(prime: int, seed: int, index: int) -> np.random.Generator:
    # per-point substream: appending points never moves earlier samples
    return np.random.default_rng(np.random.SeedSequence([prime, seed, index]))


def sample(spec: SchemeSpec, prime: int, seed: int) -> SampledScheme:
    """Deterministic coordinates for every point and direction.

    Replays exactly for equal (spec placement list, prime, seed); extending the
    point list leaves earlier samples unchanged, which keeps a system and its
    extensions on the same configuration.
    """
    p = check_modulus(prime)
    bound = max([spec.d] + [pt.multiplicity for pt in spec.points])
    if p <= bound:
        raise PrimeBoundError(f"prime {p} must exceed max(degree, multiplicities) = {bound}")
    pts: list[np.ndarray] = []
    dirs: list[tuple[np.ndarray, ...]] = []
    for idx, pt in enumerate(spec.points):
        rng = _point_rng(prime, seed, idx)
        coords = _sample_point(pt.placement, spec.n, p, rng, pts)
        vecs = tuple(
            _sample_direction(dr, coords, spec.n, p, rng, pts) for dr in pt.directions
        )
        pts.append(coords)
        dirs.append(vecs)
    return SampledScheme(tuple(pts), tuple(dirs))


def _sample_point(pl: Placement, n: int, p: int, rng, earlier) -> np.ndarray:
    if pl.kind == EXPLICIT:
        return normalize(pl.coords, p)
    if pl.kind == CLUSTER:
        center = earlier[pl.center]
        while True:
            w = rng.integers(0, p, n + 1)
            v = (center + CLUSTER_SCALE * w) % p
            if v.any():
                return normalize(v, p)
    top = pl.dim if pl.kind == SUBSPACE else n
    while True:
        v = np.zeros(n + 1, dtype=np.int64)
        v[: top + 1] = rng.integers(0, p, top + 1)
        if v.any():
            return normalize(v, p)


def _sample_direction(pl: Placement, at: np.ndarray, n: int, p: int, rng, earlier) -> np.ndarray:
    if pl.kind == EXPLICIT:
        v = np.array(pl.coords, dtype=np.int64) % p
        if _proportional(at, v, p):
            raise ValueError("explicit direction is proportional to its base point")
        return v
    if pl.kind == CLUSTER:
        v = earlier[pl.center] % p
        if _proportional(at, v, p):
            raise ValueError("chord direction coincides with the base point")
        return v
    top = pl.dim if pl.kind == SUBSPACE else n
    while True:
        v = np.zeros(n + 1, dtype=np.int64)
        v[: top + 1] = rng.integers(0, p, top + 1)
        if v.any() and not _proportional(at, v, p):
            return v


def condition_matrix(spec: SchemeSpec, prime: int, seed: int) -> FieldMatrix:
    """Stack point-multiplicity rows and tangent-direction rows.

    A multiplicity-m point contributes the binom(m-1+n, n) derivative rows of
    order exactly m-1 (lower orders follow from the Euler relation, p > d);
    each direction contributes one leading-form row at its point's
    multiplicity. The kernel is the sampled linear system.
    """
    if spec.oversized_multiplicities:
        raise ValueError(
            "multiplicity >= d+2 admits no faithful derivative rows at this "
            "degree (the system is certainly empty); dimension() handles it"
        )
    sm = sample(spec, prime, seed)
    basis = monomial_basis(spec.n, spec.d)
    rows = [
        point_rows(basis, coords, pt.multiplicity, vecs, prime)
        for pt, coords, vecs in zip(spec.points, sm.points, sm.directions)
    ]
    if not rows:
        return FieldMatrix(np.zeros((0, len(basis)), dtype=np.int64), prime)
    return FieldMatrix(np.vstack(rows), prime)


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
    primes: tuple[int, ...]
    seeds: tuple[int, ...]
    trials: tuple[Trial, ...]
    stable: bool
    unstable: bool
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "virtual": self.virtual,
            "expected": self.expected,
            "computed": self.computed,
            "special": self.special,
            "primes": list(self.primes),
            "seeds": list(self.seeds),
            "trials": [
                {"prime": t.prime, "seed": t.seed, "dim": t.dim} for t in self.trials
            ],
            "stable": self.stable,
            "unstable": self.unstable,
            "note": self.note,
        }


OVERDETERMINED_FACTOR = 1.5  # rows/cols ratio beyond which one empty trial settles it


def dimension(
    spec: SchemeSpec,
    primes: Sequence[int] = (DEFAULT_PRIMES[0],),
    seeds: Sequence[int] = (0, 1, 2),
) -> DimensionReport:
    """Projective dimension of the sampled system, minimized over trials.

    Disagreement between trials is reported, never resolved silently: the
    "unstable" flag fires when >= 3 trials spanning two primes disagree.
    """
    primes = tuple(int(p) for p in primes)
    seeds = tuple(int(s) for s in seeds)
    if not primes or not seeds:
        raise ValueError("need at least one prime and one seed")
    vd = virtual_dim(spec)
    exp = expected_dim(spec)

    def report(computed, trials, note=""):
        n_primes = len({t.prime for t in trials})
        stable = len({t.dim for t in trials}) <= 1
        return DimensionReport(
            spec=spec,
            virtual=vd,
            expected=exp,
            computed=computed,
            special=computed > exp,
            primes=primes,
            seeds=seeds,
            trials=tuple(trials),
            stable=stable,
            unstable=(not stable) and len(trials) >= 3 and n_primes >= 2,
            note=note,
        )

    if spec.oversized_multiplicities:
        return report(-1, [], note="multiplicity exceeds degree: empty by definition")

    cols = comb(spec.d + spec.n, spec.n)
    overdetermined = spec.condition_rows() > OVERDETERMINED_FACTOR * cols
    trials: list[Trial] = []
    for p in primes:
        for s in seeds:
            trials.append(Trial(p, s, cols - rank(condition_matrix(spec, p, s)) - 1))
            if overdetermined and len(trials) == 1 and trials[0].dim == -1:
                return report(-1, trials, note="overdetermined: single confirming rank")
    return report(min(t.dim for t in trials), trials)


@dataclass(frozen=True)
class AHVerdict:
    special: bool
    exception: str | None  # "quadric" | "sporadic" | None

    def __bool__(self) -> bool:
        return self.special


def ah_classify(n: int, d: int, h: int) -> AHVerdict:
    """Speciality of h general double points on degree-d forms of P^n.

    Special exactly for d = 2 with 2 <= h <= n, and for the four sporadic
    triples (2,4,5), (3,4,9), (4,3,7), (4,4,14); the sporadic systems all have
    dimension 0 while their expected dimension is -1.
    """
    if d < 2:
        raise ValueError(f"classification needs d >= 2, got d={d}")
    if n < 1 or h < 1:
        raise ValueError(f"need n >= 1 and h >= 1, got n={n}, h={h}")
    if d == 2 and 2 <= h <= n:
        return AHVerdict(True, "quadric")
    if (n, d, h) in AH_SPORADIC:
        return AHVerdict(True, "sporadic")
    return AHVerdict(False, None)


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
    if any(
        pl.kind == CLUSTER
        for pt in spec.points
        for pl in (pt.placement, *pt.directions)
    ):
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
    if pl.kind == EXPLICIT:
        return Placement.explicit(pl.coords[:n])
    return Placement.generic()
