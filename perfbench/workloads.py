"""The benchmark's workloads: operations, their inputs and their checks.

An op is one call a user would make. `call` runs it through the program's
public functions, looked up on the module at call time so that the traced run
sees them; `check` raises CheckFailed when the result is wrong. Cases, primes,
sampling seeds and expected values come from the packaged manifest, and the
reference values from `oracle`, which does not use the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Any, Callable

import oracle

# An out-of-range modulus: int64 residue products overflow above about 3.0e9.
OVERFLOW_PRIME = 4294967311
OVERFLOW_FAULT = "int64-overflow-modulus"

AH_BOUNDARY = ((5, 5, 42), (6, 5, 66), (5, 6, 77), (4, 8, 99), (3, 10, 71), (7, 4, 41))
COLLISIONS = ((3, 4), (4, 4), (3, 5), (5, 4))
CENSUS_DEEP = (("p4-quartic", 31), ("p4-cubic", 31), ("space-cubic", 131), ("plane-quintic", 251))
CENSUS_WIDE = (("p5-quadric", 31),)


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    fault: str | None = None  # a known program fault this op fails under


# ----------------------------------------------------------------- checks


def _spec_virtual(spec) -> int:
    return oracle.virtual_dimension(
        spec.n,
        spec.d,
        [pt.multiplicity for pt in spec.points],
        sum(len(pt.directions) for pt in spec.points),
    )


def _check_report(rep, want: int, primes=None) -> None:
    virtual = _spec_virtual(rep.spec)
    expect(rep.virtual == virtual, f"virtual {rep.virtual}, reference {virtual}")
    expect(rep.computed >= max(virtual, -1), f"computed {rep.computed} below expected")
    expect(rep.computed == want, f"computed {rep.computed}, reference {want}")
    if primes is not None:
        expect({t.prime for t in rep.trials} == set(primes), "a prime was not tried")
        expect(len({t.dim for t in rep.trials}) == 1, f"primes disagree: {rep.trials}")


_COMPARE = {
    "eq": lambda v, b: v == b,
    "ne": lambda v, b: v != b,
    "ge": lambda v, b: v >= b,
    "gt": lambda v, b: v > b,
    "le": lambda v, b: v <= b,
    "lt": lambda v, b: v < b,
}


def _matches(value, want) -> bool:
    if isinstance(want, dict):
        return all(_COMPARE[op](value, bound) for op, bound in want.items())
    return value == want


def _census_check(fp, case: dict, prime: int, seed: int, spec):
    n, d, h = case["n"], case["d"], case["h"]
    expected = case["expected"]

    def check(out) -> None:
        m, c = out
        domain = oracle.projective_size(n, prime)
        expect(c.domain_size == domain, f"domain {c.domain_size}, reference {domain}")
        mass = sum(s * f for s, f in c.histogram.items())
        expect(mass + c.base_points == domain, "fibers and base points do not cover the domain")
        expect(c.image_size == sum(c.histogram.values()), "image size is not the fiber count")
        expect(c.base_points >= h, f"{c.base_points} base points, fewer than {h}")
        for key, attr in (("verdict", "verdict"), ("verdicts", "verdict"),
                          ("fraction_main", "fraction_unique"), ("fractions", "fraction_unique")):
            if key in expected:
                got = getattr(c, attr)
                expect(_matches(got, expected[key]), f"{attr} {got!r}, paper {expected[key]!r}")
        points = fp.schemes.sample(spec, prime, seed).points
        faults = oracle.double_vanishing_faults(m.coeffs, n, d, points, prime)
        expect(not faults, "; ".join(faults))
        ref = oracle.PLANE_QUINTIC
        if (n, d, h, prime, seed) == (ref["n"], ref["d"], ref["h"], ref["prime"], ref["seed"]):
            ref = oracle.load_plane_quintic()
            expect([[int(x) for x in pt] for pt in points] == ref["points"],
                   "sampled points differ from the stored reference's")
            got = {str(s): f for s, f in sorted(c.histogram.items())}
            expect(got == ref["histogram"], f"histogram {got}, reference {ref['histogram']}")
            expect(c.base_points == ref["base_points"], "base points differ from the reference")

    return check


# -------------------------------------------------------------- workloads


def _dimension_op(fp, name, spec, primes, seeds, want) -> Op:
    return Op(name, lambda: fp.schemes.dimension(spec, primes, seeds),
              lambda rep: _check_report(rep, want))


def ah_grid(fp, manifest) -> list[Op]:
    """The manifest's AH grid as direct dimension calls, plus the overflow op."""
    conf = manifest["suites"]["ah"]
    grid = conf["grid"]
    primes, seeds = tuple(conf["primes"]), tuple(conf["seeds"])
    triples = [
        (n, d, h)
        for n in range(1, grid["n_max"] + 1)
        for d in range(grid["d_min"], grid["d_max"] + 1)
        for h in range(1, comb(n + d, n) // (n + 1) + 1)  # h <= k(n, d)
    ]
    triples += sorted(
        t for t in map(tuple, conf["sporadics"])
        if t not in triples and t[0] <= grid["n_max"] and t[1] <= grid["d_max"]
    )
    if len(triples) != 179:
        raise ValueError(f"the AH grid has {len(triples)} cases, not 179")
    ops = [
        _dimension_op(fp, f"ah-n{n}-d{d}-h{h}", fp.schemes.double_points(n, d, h),
                      primes, seeds, oracle.ah_dimension(n, d, h))
        for n, d, h in triples
    ]
    spec = fp.schemes.double_points(2, 4, 5)

    def overflow_call():
        try:
            return fp.schemes.dimension(spec, (OVERFLOW_PRIME,), seeds)
        except ValueError as refused:
            return refused

    def overflow_check(out):
        if not isinstance(out, ValueError):
            _check_report(out, oracle.ah_dimension(2, 4, 5))

    ops.append(Op(f"ah-n2-d4-h5-p{OVERFLOW_PRIME}", overflow_call, overflow_check, OVERFLOW_FAULT))
    return ops


def _cubic_flag_op(fp, case, p: int, seeds) -> Op:
    import numpy as np

    n = case["n"]
    Fat, Pl = fp.schemes.FatPoint, fp.schemes.Placement
    spec = fp.schemes.SchemeSpec(
        n, 3,
        tuple(Fat(Pl.on_subspace(n - 1), 2) for _ in range(case["on_hyperplane"]))
        + tuple(Fat(Pl.generic(), 2) for _ in range(case["generic"])),
    )

    def call():
        rep = fp.schemes.dimension(spec, (p,), seeds)
        kernel, _ = fp.schemes.castelnuovo_split(spec)
        krep = fp.schemes.dimension(kernel, (p,), seeds)
        forms = fp.ffield.kernel_basis(fp.schemes.condition_matrix(kernel, p, seeds[0]))
        members = list(forms)
        rng = np.random.default_rng(np.random.SeedSequence([p, 0x9A4D]))
        stacked = np.vstack(forms)
        for _ in range(8):
            members.append(rng.integers(1, p, len(forms)) @ stacked % p)
        basis2 = fp.monomials.monomial_basis(n, 2)
        return rep, krep, len(forms), max(fp.census.quadric_rank(f, basis2, p) for f in members)

    def check(out):
        rep, krep, nforms, top = out
        want = case["expected"]
        _check_report(rep, want["dim"])
        _check_report(krep, want["kernel_dim"])
        expect(nforms == want["kernel_dim"] + 1, f"{nforms} kernel forms")
        expect(top == want["rank"], f"quadric rank {top}, paper {want['rank']}")

    return Op(case["id"], call, check)


def _section_ops(fp, conf) -> list[Op]:
    primes, seeds = tuple(conf["primes"]), tuple(conf["seeds"])

    def dimension(spec):
        return fp.schemes.dimension(spec, primes, seeds)

    ops = []
    for case in conf["cases"]:
        if case["id"].startswith("aux-empty"):
            continue  # plane systems of at most 28 columns: the ah-grid regime
        kind = case["op"]
        if kind == "cubic-flag":
            ops.append(_cubic_flag_op(fp, case, primes[0], seeds))
            continue
        if kind == "dim":
            call = lambda text=case["spec"]: dimension(fp.grammar.parse_spec(text))
        elif kind == "triple-plus-doubles":
            n, d = case["n"], case["d"]
            spec = fp.grammar.parse_spec(f"L({n},{d};3,2^{fp.formulas.r(n, d)})")
            call = lambda spec=spec: dimension(spec)
        elif kind == "flag-dim":
            call = lambda spec=fp.suites.flagged_system(case["n"], case["d"]): dimension(spec)
        elif kind == "flag-kernel-empty":
            def call(spec=fp.suites.flagged_system(case["n"], case["d"])):
                once, _ = fp.schemes.castelnuovo_split(spec)
                twice, _ = fp.schemes.castelnuovo_split(once)
                return dimension(twice)
        else:
            continue  # genus cases compute no dimension
        want = case["expected"]["computed"]
        ops.append(Op(case["id"], call, lambda rep, want=want: _check_report(rep, want, primes)))
    return ops


def wide_systems(fp, manifest) -> list[Op]:
    """Large double-point systems at the AH boundary, the prop23 and section45
    dimension systems, and collision merges.

    The section45 genus cases compute no dimension and its six tiny
    `aux-empty` plane systems belong to the small-matrix regime of ah-grid,
    so neither is here.
    """
    suites = manifest["suites"]
    ah = suites["ah"]
    ops = [
        _dimension_op(fp, f"ah-n{n}-d{d}-h{h}", fp.schemes.double_points(n, d, h),
                      tuple(ah["primes"]), tuple(ah["seeds"]), oracle.ah_dimension(n, d, h))
        for n, d, h in AH_BOUNDARY
    ]
    ops += _section_ops(fp, suites["prop23"])
    ops += _section_ops(fp, suites["section45"])
    p, seed = ah["primes"][0], ah["seeds"][0]
    for n, d in COLLISIONS:
        def check(e, n=n, d=d):
            want = oracle.ah_dimension(n, d, n + 1)
            expect(e.generic_dim == want, f"generic dim {e.generic_dim}, reference {want}")
            expect(e.limit_dim == want, f"limit dim {e.limit_dim}, reference {want}")
            expect(e.direction_count == comb(n + 1, 2), "wrong number of chord directions")
            expect(e.degree_identity_ok, "degree identity fails")

        ops.append(Op(f"collision1-n{n}-d{d}",
                      lambda n=n, d=d: fp.collisions.collision1_check(n, d, p, seed), check))
    return ops


def _census_ops(fp, manifest, runs) -> list[Op]:
    conf = manifest["suites"]["theorem2"]
    cases = {c["id"]: c for c in conf["cases"]}
    seed, budget = conf["seeds"][0], conf["budget"]
    ops = []
    for cid, prime in runs:
        case = cases[cid]
        spec = fp.schemes.double_points(case["n"], case["d"], case["h"])

        def call(spec=spec, prime=prime):
            m = fp.census.map_from_system(spec, prime, seed)
            return m, fp.census.fiber_census(m, budget)

        ops.append(Op(f"{cid}@{prime}", call, _census_check(fp, case, prime, seed, spec)))
    return ops


def census_deep(fp, manifest) -> list[Op]:
    return _census_ops(fp, manifest, CENSUS_DEEP)


def census_wide(fp, manifest) -> list[Op]:
    return _census_ops(fp, manifest, CENSUS_WIDE)


WORKLOADS = {
    "ah-grid": ah_grid,
    "wide-systems": wide_systems,
    "census-deep": census_deep,
}
# Runs by name only: its one op takes about 30 s, too long for the benchmark's
# run budget, and census-deep measures the same layers.
EXTRA_WORKLOADS = {"census-wide": census_wide}
# The reference kernel (run.Reference) whose time is each workload's unit.
REFERENCE_KIND = {
    "ah-grid": "rows",
    "wide-systems": "rows",
    "census-deep": "census",
    "census-wide": "census",
}
