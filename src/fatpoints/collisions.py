"""Checkable consequences of point collisions.

Three experiments: the n+1-double-points collision whose flat limit is a
triple point with binom(n+1,2) tangent directions; the independence of the
pairwise chord traces on a hyperplane (together with their failure of linear
general position); and the length bookkeeping identifying when the limit of
h collapsing double points is exactly a fat point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .ffield import DEFAULT_PRIMES, FieldMatrix, check_modulus, normalize, rank
from .formulas import collision_limit_degree, degree_identity
from .schemes import (
    DimensionReport,
    FatPoint,
    Placement,
    SchemeSpec,
    condition_matrix,
    dimension,
    double_points,
)


@dataclass(frozen=True)
class CollisionExperiment:
    n: int
    d: int
    h: int
    limit_multiplicity: int
    generic_dim: int
    limit_dim: int
    direction_count: int
    dims_equal: bool
    degree_identity_ok: bool


def _affine_points(n: int, p: int, rng) -> list[np.ndarray]:
    """n+1 points in the chart x_0 = 1, pairwise distinct affine parts."""
    pts: list[np.ndarray] = []
    while len(pts) < n + 1:
        cand = np.concatenate(([1], rng.integers(0, p, n))).astype(np.int64)
        if all((cand[1:] != q[1:]).any() for q in pts):
            pts.append(cand)
    return pts


def collision1_check(n: int, d: int, prime: int, seed: int) -> CollisionExperiment:
    """Compare n+1 generic double points with their collision limit.

    The limit scheme sits at the collapse center a_0: one triple point whose
    binom(n+1,2) tangent directions are the chords <a_i, a_j>, realized as the
    pairwise differences (0, y_i - y_j) in the affine chart. Both sides are
    nonspecial in the tested range, so their dimensions agree exactly.
    """
    if n < 2 or d < 3:
        raise ValueError(f"need n >= 2 and d >= 3, got ({n},{d})")
    p = check_modulus(prime)
    rng = np.random.default_rng(np.random.SeedSequence([p, seed, 0xC0111]))
    pts = _affine_points(n, p, rng)
    generic = SchemeSpec(
        n, d, tuple(FatPoint(Placement.explicit(q), 2) for q in pts)
    )
    directions = tuple(
        Placement.explicit(np.concatenate(([0], (pts[i][1:] - pts[j][1:]) % p)))
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
    )
    limit = SchemeSpec(
        n, d, (FatPoint(Placement.explicit(pts[0]), 3, directions),)
    )
    g = dimension(generic, (p,), (seed,))
    l = dimension(limit, (p,), (seed,))
    return CollisionExperiment(
        n=n,
        d=d,
        h=n + 1,
        limit_multiplicity=3,
        generic_dim=g.computed,
        limit_dim=l.computed,
        direction_count=len(directions),
        dims_equal=g.computed == l.computed,
        degree_identity_ok=degree_identity(n),
    )


@dataclass(frozen=True)
class ChordTraceReport:
    n: int
    prime: int
    seed: int
    points: int
    quadric_rank: int
    independent: bool
    all_triples_collinear: bool
    resampled: int


def indip_check(n: int, prime: int, seed: int) -> ChordTraceReport:
    """Traces of the pairwise chords of n+1 general points on a hyperplane.

    The binom(n+1,2) trace points impose independent conditions on the
    quadrics of R = P^{n-1}, yet they are far from general position: the three
    chords of any 3 of the original points are coplanar, so their traces are
    collinear. Degenerate samples (coincident traces) bump the seed and
    report how often.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    p = check_modulus(prime)
    attempt = 0
    while True:
        rng = np.random.default_rng(np.random.SeedSequence([p, seed + attempt, 0x1d1b]))
        # points off the hyperplane R = {x_n = 0}: last coordinate 1
        pts = [
            np.concatenate((rng.integers(0, p, n), [1])).astype(np.int64)
            for _ in range(n + 1)
        ]
        traces: dict[tuple[int, int], np.ndarray] = {}
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                # <a_i, a_j> meets R where the last coordinate cancels
                b = (pts[i][n] * pts[j] - pts[j][n] * pts[i]) % p
                traces[(i, j)] = b
        keys = {tuple(normalize(v, p)) for v in traces.values() if v.any()}
        if len(keys) == comb(n + 1, 2):
            break
        attempt += 1
    # simple points at the traces: their rows evaluate the quadrics of R there
    on_r = SchemeSpec(n - 1, 2, [FatPoint(Placement.explicit(v[:n])) for v in traces.values()])
    rk = rank(condition_matrix(on_r, p, seed))
    collinear = all(
        _collinear(traces[(i, j)][:n], traces[(i, k)][:n], traces[(j, k)][:n], p)
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
        for k in range(j + 1, n + 1)
    )
    return ChordTraceReport(
        n=n,
        prime=p,
        seed=seed + attempt,
        points=comb(n + 1, 2),
        quadric_rank=rk,
        independent=rk == comb(n + 1, 2),
        all_triples_collinear=collinear,
        resampled=attempt,
    )


def _collinear(a: np.ndarray, b: np.ndarray, c: np.ndarray, p: int) -> bool:
    m = FieldMatrix(np.vstack([a, b, c]), p)
    return rank(m) <= 2


@dataclass(frozen=True)
class LimitMultiplicityReport:
    n: int
    d: int
    h: int
    mu: int
    double_length: int  # h(n+1)
    point_length: int  # length of the mu-fold point
    exact: bool
    doubles_dim: int
    fat_point_dim: int
    deeper_point_dim: int  # (mu+1)-fold point
    within_bounds: bool  # deeper_point_dim <= doubles_dim, fat_point_dim == doubles_dim if exact


def limit_multiplicity_check(
    n: int,
    d: int,
    h: int,
    prime: int = DEFAULT_PRIMES[0],
    seed: int = 0,
) -> LimitMultiplicityReport:
    """Length bookkeeping for h collapsing double points in degree d.

    mu is the predicted limit multiplicity. The limit is exactly a mu-fold
    point when the lengths match: h(n+1) = binom(n+mu-1, n); otherwise it
    strictly contains one. Flat limits can only grow linear systems, so the
    (mu+1)-fold system never exceeds the generic double-point system, and an
    exact limit's system is the double-point one: `within_bounds` says both hold.
    """
    mu = collision_limit_degree(n, h)
    double_len = h * (n + 1)
    point_len = comb(n + mu - 1, n)
    exact = double_len == point_len

    def one_point(m: int) -> DimensionReport:
        return dimension(
            SchemeSpec(n, d, (FatPoint(Placement.generic(), m),)), (prime,), (seed,)
        )

    doubles = dimension(double_points(n, d, h), (prime,), (seed,)).computed
    fat, deeper = one_point(mu).computed, one_point(mu + 1).computed
    return LimitMultiplicityReport(
        n=n,
        d=d,
        h=h,
        mu=mu,
        double_length=double_len,
        point_length=point_len,
        exact=exact,
        doubles_dim=doubles,
        fat_point_dim=fat,
        deeper_point_dim=deeper,
        within_bounds=deeper <= doubles and (fat == doubles or not exact),
    )
