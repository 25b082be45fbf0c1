"""Reproduction suites driven by a JSON manifest.

Each suite is a list of data cases (operation name + parameters + expected
values); new cases are added by editing the manifest, not the code. Results
are replay-deterministic for fixed (primes, seeds): serializing twice gives
identical JSON once timing fields are dropped.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, replace
from importlib import resources

import numpy as np

from ._version import __version__
from .census import DEFAULT_BUDGET, census_of, identifiability_verdict, quadric_rank
from .collisions import collision1_check, indip_check, limit_multiplicity_check
from .ffield import kernel_basis
from .formulas import hs_sequences, k, plane_genus, r, verify_sequence_properties
from .grammar import parse_spec, print_spec
from .monomials import monomial_basis
from .schemes import (
    FatPoint,
    Placement,
    SchemeSpec,
    ah_classify,
    castelnuovo_split,
    condition_matrix,
    dimension,
    double_points,
)


@dataclass(frozen=True)
class CaseResult:
    id: str
    op: str
    params: dict
    expected: dict
    observed: dict
    passed: bool
    origin: str
    elapsed: float

    def as_dict(self) -> dict:
        return {**asdict(self), "elapsed": round(self.elapsed, 3)}


@dataclass(frozen=True)
class SuiteResult:
    name: str
    primes: tuple[int, ...]
    seeds: tuple[int, ...]
    cases: tuple[CaseResult, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.cases if not c.passed)

    def as_dict(self) -> dict:
        return {
            "suite": self.name,
            "primes": list(self.primes),
            "seeds": list(self.seeds),
            "passed": self.passed,
            "cases": [c.as_dict() for c in self.cases],
            "elapsed": round(self.elapsed, 3),
        }


_CHECKS = {
    "eq": lambda v, b: v == b,
    "ne": lambda v, b: v != b,
    "ge": lambda v, b: v >= b,
    "gt": lambda v, b: v > b,
    "le": lambda v, b: v <= b,
    "lt": lambda v, b: v < b,
    "in": lambda v, b: v in b,
}


def check_expected(expected: dict, observed: dict) -> bool:
    """Match expected against observed.

    Plain values compare by equality. A value of the form {"ge": 0.95} applies
    the named comparison (eq, ne, ge, gt, le, lt, or in: membership in the
    given list); when the observed value is a list, or a dict, every element
    or every value must satisfy it, so an empty one satisfies every comparison.
    """
    for key, want in expected.items():
        got = observed.get(key)
        if isinstance(want, dict) and want and all(op in _CHECKS for op in want):
            vals = (got.values() if isinstance(got, dict)
                    else got if isinstance(got, (list, tuple)) else [got])
            for op, bound in want.items():
                if not all(_CHECKS[op](v, bound) for v in vals):
                    return False
        elif got != want:
            return False
    return True


# The JSON type of each scalar parameter a case may carry.
_PARAM_TYPES = {"n": int, "d": int, "h": int, "spec": str}
_KIND_NAMES = {list: "a list", dict: "an object", int: "an integer", str: "a string"}


class _Entry(dict):
    """A manifest entry, which must be a JSON object; reading a key it lacks,
    or a value of the wrong JSON type, is a manifest fault that names it.

    Only lookups on the entry itself are caught, so a KeyError raised inside
    a computation stays a KeyError.
    """

    def __init__(self, where: str, entry: dict):
        if not isinstance(entry, dict):
            raise ValueError(f"{where} is not an object: {entry!r}")
        super().__init__(entry)
        self.where = where

    def __missing__(self, key):
        raise ValueError(f"{self.where} has no {key!r}")

    def listed(self, key: str) -> list:
        """The value of key, which must be a list."""
        return self.typed(repr(key), self[key])

    def typed(self, name: str, value, kind: type = list):
        """value, which this entry holds as name; refused unless of kind
        (list, dict, int or str; a JSON true or false is not an int)."""
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise ValueError(f"{self.where} has {name} {value!r}, not {_KIND_NAMES[kind]}")
        return value


def load_manifest(path=None) -> dict:
    if path is None:
        text = resources.files("fatpoints.data").joinpath("manifest.json").read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


# ---------------------------------------------------------------- operations


def _dim_observed(spec: SchemeSpec, primes, seeds) -> dict:
    rep = dimension(spec, primes, seeds)
    # the minimum at each prime; a system empty by definition runs no trial
    computeds = [min((t.dim for t in rep.trials if t.prime == p), default=rep.computed)
                 for p in primes]
    return {
        "computeds": computeds,
        "agree": len(set(computeds)) == 1,
        "computed": rep.computed,
        "virtual": rep.virtual,
        "expected": rep.expected,
        "special": rep.special,
    }


def _op_dim(case, primes, seeds, budget) -> dict:
    return _dim_observed(parse_spec(case["spec"]), primes, seeds)


def _op_ah(case, primes, seeds, budget) -> dict:
    n, d, h = case["n"], case["d"], case["h"]
    rep = dimension(double_points(n, d, h), primes, seeds)
    exception = ah_classify(n, d, h)
    predicted = exception is not None
    return {
        "computed": rep.computed,
        "expected": rep.expected,
        "special": rep.special,
        "predicted": predicted,
        "match": rep.special == predicted,
        "exception": exception,
    }


def _op_triple_plus_doubles(case, primes, seeds, budget) -> dict:
    n, d = case["n"], case["d"]
    rr = r(n, d)
    spec = SchemeSpec(
        n,
        d,
        (FatPoint(Placement.generic(), 3),)
        + tuple(FatPoint(Placement.generic(), 2) for _ in range(rr)),
    )
    return {"r": rr, **_dim_observed(spec, primes, seeds)}


def flagged_system(n: int, d: int) -> SchemeSpec:
    """The triple-plus-doubles system specialized onto the canonical flag.

    The triple point sits on H_2; its tangent directions and the double
    points are distributed along the flag by the (h, s) tables, with the
    top-level surplus left generic.
    """
    t = hs_sequences(n, d)
    dirs: list[Placement] = [Placement.on_subspace(2)] * t.s[2]
    for i in range(3, n):
        dirs += [Placement.on_subspace(i)] * (t.s[i] - t.s[i - 1])
    dirs += [Placement.generic()] * (t.s[n] - t.s[n - 1])
    pts = [FatPoint(Placement.on_subspace(2), 3, tuple(dirs))]
    pts += [FatPoint(Placement.on_subspace(2), 2)] * t.h[2]
    for i in range(3, n):
        pts += [FatPoint(Placement.on_subspace(i), 2)] * (t.h[i] - t.h[i - 1])
    pts += [FatPoint(Placement.generic(), 2)] * (t.h[n] - t.h[n - 1])
    return SchemeSpec(n, d, tuple(pts))


def _op_flag_dim(case, primes, seeds, budget) -> dict:
    return _dim_observed(flagged_system(case["n"], case["d"]), primes, seeds)


def _op_flag_kernel_empty(case, primes, seeds, budget) -> dict:
    spec = flagged_system(case["n"], case["d"])
    once, _ = castelnuovo_split(spec)
    twice, _ = castelnuovo_split(once)
    return {"kernel": print_spec(twice), **_dim_observed(twice, primes, seeds)}


def _op_cubic_flag(case, primes, seeds, budget) -> dict:
    """Cubics double along a hyperplane-heavy configuration.

    Checks the system dimension, the dimension of the degree-2 kernel of the
    hyperplane restriction, and the maximal symmetric rank over sampled
    kernel members.
    """
    n = case["n"]
    on_h = case["on_hyperplane"]
    spec = SchemeSpec(
        n,
        3,
        tuple(FatPoint(Placement.on_subspace(n - 1), 2) for _ in range(on_h))
        + tuple(FatPoint(Placement.generic(), 2) for _ in range(case["generic"])),
    )
    obs = _dim_observed(spec, primes, seeds)
    kernel, _ = castelnuovo_split(spec)
    kobs = _dim_observed(kernel, primes, seeds)
    p = primes[0]
    forms = kernel_basis(condition_matrix(kernel, p, seeds[0]))
    basis2 = monomial_basis(n, 2)
    members = list(forms)
    rng = np.random.default_rng(np.random.SeedSequence([p, 0x9A4D]))
    stacked = np.vstack(forms)
    for _ in range(8):
        w = rng.integers(1, p, len(forms))
        # reduce per term: an int64 sum of products of residues can overflow
        members.append((w[:, None] * stacked % p).sum(axis=0) % p)
    ranks = [quadric_rank(f, basis2, p) for f in members]
    return {
        "dim": obs["computed"],
        "kernel_dim": kobs["computed"],
        "kernel_agree": obs["agree"] and kobs["agree"],
        "rank": max(ranks),
    }


def _op_genus(case, primes, seeds, budget) -> dict:
    return {"genus": plane_genus(case["d"], case["mults"])}


def _op_census(case, primes, seeds, budget) -> dict:
    """Censuses at the case's own primes of the system named by `spec`, or by
    `n`, `d` and `h` for L(n,d;2^h)."""
    spec = (parse_spec(case["spec"]) if "spec" in case
            else double_points(case["n"], case["d"], case["h"]))
    runs = [census_of(spec, p, seeds[0], budget) for p in case["primes"]]
    verdicts = [c.verdict for c in runs]
    fractions = [round(c.fraction_unique, 6) for c in runs]
    conserved = all(
        sum(s * f for s, f in c.histogram.items()) == c.domain_size - c.base_points
        for c in runs
    )
    return {
        "verdicts": verdicts,
        "agree": len(set(verdicts)) == 1,
        "verdict": verdicts[0] if len(set(verdicts)) == 1 else "disagree",
        "fractions": fractions,
        "fraction_main": fractions[0],
        "image_sizes": [c.image_size for c in runs],
        "base_points": [c.base_points for c in runs],
        "conserved": conserved,
        "censuses": [c.as_dict() for c in runs],
    }


def _op_identif(case, primes, seeds, budget) -> dict:
    v = identifiability_verdict(case["n"], case["d"], budget=budget)
    return {"status": v.status, "s": v.s, "verdicts": [c.verdict for c in v.censuses],
            "corroborated": v.corroborated, "censuses": [c.as_dict() for c in v.censuses]}


def _op_seq(case, primes, seeds, budget) -> dict:
    t = hs_sequences(case["n"], case["d"])
    return {"table": t.as_dict(), "properties": verify_sequence_properties(t)}


def _op_merge(case, primes, seeds, budget) -> dict:
    return asdict(collision1_check(case["n"], case["d"], primes[0], seeds[0]))


def _op_chords(case, primes, seeds, budget) -> dict:
    return asdict(indip_check(case["n"], primes[0], seeds[0]))


def _op_limit(case, primes, seeds, budget) -> dict:
    return asdict(limit_multiplicity_check(case["n"], case["d"], case["h"], primes[0], seeds[0]))


def _op_castelnuovo(case, primes, seeds, budget) -> dict:
    spec = parse_spec(case["spec"])
    kernel, trace = castelnuovo_split(spec)
    h0 = {}
    for name, s in (("system", spec), ("kernel", kernel), ("trace", trace)):
        h0[name] = dimension(s, primes, seeds).computed + 1
    return {"kernel": print_spec(kernel), "trace": print_spec(trace), "h0": h0,
            "subadditive": h0["system"] <= h0["kernel"] + h0["trace"]}


_HANDLERS = {
    "dim": _op_dim,
    "ah": _op_ah,
    "triple-plus-doubles": _op_triple_plus_doubles,
    "flag-dim": _op_flag_dim,
    "flag-kernel-empty": _op_flag_kernel_empty,
    "cubic-flag": _op_cubic_flag,
    "genus": _op_genus,
    "census": _op_census,
    "identif": _op_identif,
    "seq": _op_seq,
    "merge": _op_merge,
    "chords": _op_chords,
    "limit": _op_limit,
    "castelnuovo": _op_castelnuovo,
}

_META_KEYS = {"id", "op", "expected", "origin"}


def run_case(case, primes, seeds, budget=None) -> CaseResult:
    """Run one case's op at the given primes and seeds, and judge it by its `expected`."""
    t0 = time.perf_counter()
    observed = _HANDLERS[case["op"]](case, primes, seeds, budget)
    elapsed = time.perf_counter() - t0
    expected = case.get("expected", {})
    return CaseResult(
        id=case["id"],
        op=case["op"],
        params={k2: v for k2, v in case.items() if k2 not in _META_KEYS},
        expected=expected,
        observed=observed,
        passed=check_expected(expected, observed),
        origin=case.get("origin", "derived"),
        elapsed=elapsed,
    )


def run_cases(name, cases, primes, seeds, budget=None) -> SuiteResult:
    """Run the cases as the suite `name`, each at the given primes, seeds and budget."""
    if not cases:
        raise ValueError(f"suite {name!r} has no case")
    primes = tuple(int(p) for p in primes)
    seeds = tuple(int(s) for s in seeds)
    t_suite = time.perf_counter()
    out = tuple(run_case(case, primes, seeds, budget) for case in cases)
    return SuiteResult(
        name=name,
        primes=primes,
        seeds=seeds,
        cases=out,
        elapsed=time.perf_counter() - t_suite,
    )


# -------------------------------------------------------------------- suites


def run_ah_suite(
    n_max: int | None = None, d_max: int | None = None, manifest: dict | None = None
) -> SuiteResult:
    """Speciality of all double-point systems on the (n, d, h) grid.

    Covers every h up to k(n,d) for n <= n_max, d <= d_max (by default the
    manifest's grid), then appends any of the four exceptional triples missed
    by the grid (one has h above k). Each exceptional system must also compute
    dimension 0.
    """
    manifest = load_manifest() if manifest is None else manifest
    conf = _Entry("suite 'ah'", manifest["suites"]["ah"])
    grid = _Entry("suite 'ah' grid", conf["grid"])
    n_max = grid.typed("'n_max'", grid["n_max"], int) if n_max is None else n_max
    d_max = grid.typed("'d_max'", grid["d_max"], int) if d_max is None else d_max
    d_min = grid.typed("'d_min'", grid.get("d_min", 2), int)
    sporadic = {
        tuple(conf.typed("'sporadics' value", x, int) for x in conf.typed("'sporadics' entry", t))
        for t in conf.listed("sporadics")
    }

    def case(n, d, h, origin):
        expected = {"match": True}
        if (n, d, h) in sporadic:
            expected.update(special=True, computed=0)
        return {"id": f"n{n}-d{d}-h{h}", "op": "ah", "n": n, "d": d, "h": h,
                "expected": expected, "origin": origin}

    on_grid = [
        (n, d, h)
        for n in range(1, n_max + 1)
        for d in range(d_min, d_max + 1)
        for h in range(1, int(k(n, d)) + 1)
    ]
    cases = [case(*t, "derived") for t in on_grid]
    cases += [
        case(n, d, h, "tabulated")
        for n, d, h in sorted(sporadic - set(on_grid))
        if n <= n_max and d <= d_max
    ]
    # Each (n, d) chain runs from its largest h down: at one (p, seed) the system
    # of h double points is the first h(n+1) rows of the chain's top system, so
    # `rank` answers the rest of the chain from the one elimination of its top.
    ran = run_cases("ah", sorted(cases, key=lambda c: (c["n"], c["d"], -c["h"])),
                    conf.listed("primes"), conf.listed("seeds"))
    grid_order = {c["id"]: i for i, c in enumerate(cases)}
    return replace(ran, cases=tuple(sorted(ran.cases, key=lambda c: grid_order[c.id])))


def run_prop23_suite(manifest: dict | None = None) -> SuiteResult:
    """Nonspeciality of one triple point plus the tabulated number of doubles."""
    return run_suite("prop23", manifest)


def run_theorem2_suite() -> SuiteResult:
    """Fiber censuses of the candidate self-maps, with cross-prime agreement."""
    return run_suite("theorem2")


def run_suite(name: str, manifest: dict | None = None, budget: float | None = None) -> SuiteResult:
    """Run one suite of the manifest (by default the packaged one).

    `ah` runs the cases `run_ah_suite` builds from its grid. Any other suite
    runs its `cases` at its `primes`, or, when it names none, at the sorted
    union of its cases' `primes`. Every suite runs at its `seeds`; every
    census runs at `budget`, else at the suite's `budget`, else DEFAULT_BUDGET.
    A suite with no case is refused, so it cannot pass vacuously. Every case
    is checked before any runs: its op, the types of its parameters, and that a
    census case names its system once, by `spec` or by `n`, `d` and `h`.
    """
    manifest = load_manifest() if manifest is None else manifest
    if name not in suite_names(manifest):
        raise ValueError(f"unknown suite {name!r}; have {list(suite_names(manifest))}")
    if name == "ah":
        return run_ah_suite(manifest=manifest)
    conf = _Entry(f"suite {name!r}", manifest["suites"][name])
    cases = [_Entry(f"{conf.where} case at index {index}", case)
             for index, case in enumerate(conf.listed("cases"))]
    for case in cases:
        case.where = f"{conf.where} case {case.get('id')!r}"
        if case.get("op") not in _HANDLERS:
            raise ValueError(f"{case.where} has unknown op {case.get('op')!r}")
        case.typed("'expected'", case.get("expected", {}), dict)
        for key, kind in _PARAM_TYPES.items():
            if key in case:
                case.typed(repr(key), case[key], kind)
        if case["op"] == "census" and "spec" in case and {"n", "d", "h"} & set(case):
            raise ValueError(f"census case {case.get('id')!r} names its system by both spec "
                             "and n, d, h")
        if "primes" in case:  # a census case's own primes
            case.listed("primes")
    primes = (conf.listed("primes") if "primes" in conf
              else sorted({p for c in cases for p in c["primes"]}))
    budget = conf.get("budget", DEFAULT_BUDGET) if budget is None else budget
    return run_cases(name, cases, primes, conf.listed("seeds"), budget)


def suite_names(manifest: dict | None = None) -> tuple[str, ...]:
    manifest = load_manifest() if manifest is None else manifest
    suites = _Entry("the manifest", manifest)["suites"]
    names = tuple(sorted(_Entry("the manifest's 'suites'", suites)))
    if not names:
        raise ValueError("the manifest names no suite")
    return names


# ------------------------------------------------------------------- reports


def json_report(results: list[SuiteResult]) -> dict:
    return {
        "tool_version": __version__,
        "passed": all(r.passed for r in results),
        "suites": [r.as_dict() for r in results],
    }


def csv_summary(results: list[SuiteResult]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["suite", "case", "op", "passed", "expected", "observed", "origin"])
    for res in results:
        for c in res.cases:
            w.writerow(
                [
                    res.name,
                    c.id,
                    c.op,
                    c.passed,
                    json.dumps(c.expected, sort_keys=True),
                    json.dumps(c.observed, sort_keys=True),
                    c.origin,
                ]
            )
    return buf.getvalue()
