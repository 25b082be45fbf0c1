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
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ._version import __version__
from .census import DEFAULT_BUDGET, census_for_doubles, quadric_rank
from .ffield import kernel_basis
from .formulas import hs_sequences, k, plane_genus, r
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

    def as_dict(self, timings: bool = True) -> dict:
        d = {
            "id": self.id,
            "op": self.op,
            "params": self.params,
            "expected": self.expected,
            "observed": self.observed,
            "passed": self.passed,
            "origin": self.origin,
        }
        if timings:
            d["elapsed"] = round(self.elapsed, 3)
        return d


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

    def as_dict(self, timings: bool = True) -> dict:
        d = {
            "suite": self.name,
            "primes": list(self.primes),
            "seeds": list(self.seeds),
            "passed": self.passed,
            "cases": [c.as_dict(timings) for c in self.cases],
        }
        if timings:
            d["elapsed"] = round(self.elapsed, 3)
        return d


_CHECKS = {
    "eq": lambda v, b: v == b,
    "ne": lambda v, b: v != b,
    "ge": lambda v, b: v >= b,
    "gt": lambda v, b: v > b,
    "le": lambda v, b: v <= b,
    "lt": lambda v, b: v < b,
}


def check_expected(expected: dict, observed: dict) -> bool:
    """Match expected against observed.

    Plain values compare by equality. A value of the form {"ge": 0.95} applies
    the named comparison; when the observed value is a list, every element
    must satisfy it.
    """
    for key, want in expected.items():
        got = observed.get(key)
        if isinstance(want, dict) and want and all(op in _CHECKS for op in want):
            vals = got if isinstance(got, (list, tuple)) else [got]
            for op, bound in want.items():
                if not all(_CHECKS[op](v, bound) for v in vals):
                    return False
        elif got != want:
            return False
    return True


def load_manifest(path=None) -> dict:
    if path is None:
        text = resources.files("fatpoints.data").joinpath("manifest.json").read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


# ---------------------------------------------------------------- operations


def _dim_observed(spec: SchemeSpec, primes, seeds) -> dict:
    reports = [dimension(spec, (p,), seeds) for p in primes]
    computeds = [rep.computed for rep in reports]
    low = min(computeds)
    return {
        "computeds": computeds,
        "agree": len(set(computeds)) == 1,
        "computed": low,
        "virtual": reports[0].virtual,
        "expected": reports[0].expected,
        "special": low > reports[0].expected,
    }


def _op_dim(case, primes, seeds, budget) -> dict:
    return _dim_observed(parse_spec(case["spec"]), primes, seeds)


def _op_ah(case, primes, seeds, budget) -> dict:
    n, d, h = case["n"], case["d"], case["h"]
    rep = dimension(double_points(n, d, h), primes, seeds)
    verdict = ah_classify(n, d, h)
    return {
        "computed": rep.computed,
        "expected": rep.expected,
        "special": rep.special,
        "predicted": verdict.special,
        "match": rep.special == verdict.special,
        "exception": verdict.exception,
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
    runs = [
        census_for_doubles(
            case["n"], case["d"], case["h"], p, seed=seeds[0],
            budget=budget if budget is not None else DEFAULT_BUDGET,
        )
        for p in case["primes"]
    ]
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
    }


_HANDLERS = {
    "dim": _op_dim,
    "ah": _op_ah,
    "triple-plus-doubles": _op_triple_plus_doubles,
    "flag-dim": _op_flag_dim,
    "flag-kernel-empty": _op_flag_kernel_empty,
    "cubic-flag": _op_cubic_flag,
    "genus": _op_genus,
    "census": _op_census,
}

_META_KEYS = {"id", "op", "expected", "origin"}


def _run_cases(name, cases, primes, seeds, budget=None) -> SuiteResult:
    primes = tuple(int(p) for p in primes)
    seeds = tuple(int(s) for s in seeds)
    out: list[CaseResult] = []
    t_suite = time.perf_counter()
    for case in cases:
        handler = _HANDLERS[case["op"]]
        t0 = time.perf_counter()
        observed = handler(case, primes, seeds, budget)
        elapsed = time.perf_counter() - t0
        expected = case.get("expected", {})
        out.append(
            CaseResult(
                id=case["id"],
                op=case["op"],
                params={k2: v for k2, v in case.items() if k2 not in _META_KEYS},
                expected=expected,
                observed=observed,
                passed=check_expected(expected, observed),
                origin=case.get("origin", "derived"),
                elapsed=elapsed,
            )
        )
    return SuiteResult(
        name=name,
        primes=primes,
        seeds=seeds,
        cases=tuple(out),
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
    conf = (manifest or load_manifest())["suites"]["ah"]
    grid = conf["grid"]
    n_max = grid["n_max"] if n_max is None else n_max
    d_max = grid["d_max"] if d_max is None else d_max
    sporadic = {tuple(t) for t in conf["sporadics"]}
    d_min = grid.get("d_min", 2)

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
    return _run_cases("ah", cases, conf["primes"], conf["seeds"])


def run_prop23_suite(manifest: dict | None = None) -> SuiteResult:
    """Nonspeciality of one triple point plus the tabulated number of doubles."""
    conf = (manifest or load_manifest())["suites"]["prop23"]
    return _run_cases("prop23", conf["cases"], conf["primes"], conf["seeds"])


def run_section45_suite(manifest: dict | None = None) -> SuiteResult:
    """Flag specializations, kernel emptiness, cubic kernels, genus bookkeeping."""
    conf = (manifest or load_manifest())["suites"]["section45"]
    return _run_cases("section45", conf["cases"], conf["primes"], conf["seeds"])


def run_theorem2_suite(manifest: dict | None = None, budget: float | None = None) -> SuiteResult:
    """Fiber censuses of the candidate self-maps, with cross-prime agreement."""
    conf = (manifest or load_manifest())["suites"]["theorem2"]
    if budget is None:
        budget = conf.get("budget", DEFAULT_BUDGET)
    primes = sorted({p for case in conf["cases"] for p in case["primes"]})
    return _run_cases("theorem2", conf["cases"], primes, conf["seeds"], budget=budget)


_SUITES = {
    "ah": run_ah_suite,
    "prop23": run_prop23_suite,
    "section45": run_section45_suite,
    "theorem2": run_theorem2_suite,
}


def run_suite(name: str, manifest: dict | None = None, **kwargs) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(_SUITES)}")
    return _SUITES[name](manifest=manifest, **kwargs)


def suite_names() -> tuple[str, ...]:
    return tuple(sorted(_SUITES))


# ------------------------------------------------------------------- reports


def json_report(results, timings: bool = True) -> dict:
    results = [results] if isinstance(results, SuiteResult) else list(results)
    return {
        "tool_version": __version__,
        "passed": all(r.passed for r in results),
        "suites": [r.as_dict(timings) for r in results],
    }


def csv_summary(results) -> str:
    results = [results] if isinstance(results, SuiteResult) else list(results)
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
