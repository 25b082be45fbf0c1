import json
from pathlib import Path

import pytest

from fatpoints.formulas import k
from fatpoints.schemes import virtual_dim
from fatpoints.suites import (
    _HANDLERS,
    check_expected,
    csv_summary,
    flagged_system,
    json_report,
    load_manifest,
    run_ah_suite,
    run_case,
    run_prop23_suite,
    run_suite,
    suite_names,
)
from test_ffield_oracle import fresh_memo

PINNED_REPORT = Path(__file__).resolve().parent / "data" / "suite_report.json"


def _without_elapsed(value):
    """The report with every `elapsed` key dropped, so two runs compare equal."""
    if isinstance(value, dict):
        return {k: _without_elapsed(v) for k, v in value.items() if k != "elapsed"}
    if isinstance(value, list):
        return [_without_elapsed(v) for v in value]
    return value


def test_manifest_loads_and_is_well_formed():
    man = load_manifest()
    assert set(man["suites"]) == {"ah", "collisions", "identifiability", "known", "prop23",
                                  "section45", "sequences", "theorem2"}
    for name in ("collisions", "identifiability", "known", "prop23", "section45", "sequences",
                 "theorem2"):
        conf = man["suites"][name]
        # only a suite whose ops read no seed (`seq`, `identif`) may name none
        assert conf["seeds"] or all(case["op"] in ("seq", "identif") for case in conf["cases"])
        for case in conf["cases"]:
            assert case["op"] in _HANDLERS
            assert "id" in case and "expected" in case
            assert case.get("origin") in ("tabulated", "derived")
    ids = [c["id"] for conf in man["suites"].values() for c in conf.get("cases", [])]
    assert len(ids) == len(set(ids))


def test_load_manifest_from_path(tmp_path):
    man = load_manifest()
    p = tmp_path / "m.json"
    p.write_text(json.dumps(man))
    assert load_manifest(p) == man


def test_check_expected_semantics():
    assert check_expected({}, {"x": 1})
    assert check_expected({"x": 1}, {"x": 1, "y": 2})
    assert not check_expected({"x": 1}, {"x": 2})
    assert not check_expected({"x": 1}, {})
    assert check_expected({"x": {"ge": 0.9}}, {"x": 0.95})
    assert not check_expected({"x": {"ge": 0.9}}, {"x": 0.85})
    assert check_expected({"x": {"gt": 0, "lt": 10}}, {"x": 5})
    assert check_expected({"v": {"ne": "birational"}}, {"v": ["fiber-type", "fiber-type"]})
    assert not check_expected({"v": {"ne": "birational"}}, {"v": ["fiber-type", "birational"]})
    # in: membership, of a scalar or of every element of a list
    assert check_expected({"v": {"in": ["fiber-type", "finite"]}}, {"v": "finite"})
    assert not check_expected({"v": {"in": ["birational"]}}, {"v": "inconclusive"})
    assert check_expected({"v": {"in": ["fiber-type", "finite"]}}, {"v": ["finite", "fiber-type"]})
    assert not check_expected({"v": {"in": ["birational"]}}, {"v": ["birational", "finite"]})
    assert check_expected({"v": {"in": ["birational"]}}, {"v": []})
    # a plain dict value that is not an operator spec compares by equality
    assert check_expected({"x": {"kind": "generic"}}, {"x": {"kind": "generic"}})
    # an operator spec on an observed dict applies to each of its values
    assert check_expected({"x": {"eq": True}}, {"x": {"i": True, "ii": True}})
    assert not check_expected({"x": {"eq": True}}, {"x": {"i": True, "ii": False}})
    assert check_expected({"x": {"eq": True}}, {"x": {}})


def test_flagged_system_shape():
    spec = flagged_system(5, 4)
    assert (spec.n, spec.d) == (5, 4)
    triple = spec.points[0]
    assert triple.multiplicity == 3
    assert triple.placement.kind == "subspace" and triple.placement.dim == 2
    assert len(triple.directions) == 15
    doubles = spec.points[1:]
    assert len(doubles) == 14
    by_dim = {}
    for pt in doubles:
        key = pt.placement.dim if pt.placement.kind == "subspace" else None
        by_dim[key] = by_dim.get(key, 0) + 1
    assert by_dim == {2: 2, 3: 3, 4: 4, None: 5}
    assert virtual_dim(spec) == 5


def test_prop23_suite_passes_and_replays():
    a = run_prop23_suite()
    assert a.passed
    assert len(a.cases) == 8
    assert not a.failures
    b = run_prop23_suite()
    assert _without_elapsed(a.as_dict()) == _without_elapsed(b.as_dict())
    d = a.as_dict()
    assert "elapsed" in d and "elapsed" in d["cases"][0]


def test_prop23_case_subset_and_failure_reporting():
    man = load_manifest()
    conf = man["suites"]["prop23"]
    case = dict(conf["cases"][0])

    def with_cases(*cases):
        return {**man, "suites": {**man["suites"], "prop23": {**conf, "cases": list(cases)}}}

    res = run_prop23_suite(manifest=with_cases(case))
    assert res.passed and len(res.cases) == 1
    broken = dict(case)
    broken["expected"] = dict(case["expected"], computed=99)
    res = run_prop23_suite(manifest=with_cases(broken))
    assert not res.passed
    assert res.failures == (case["id"],)


def test_section45_suite_passes():
    res = run_suite("section45")
    assert res.passed, res.failures
    assert len(res.cases) == 20
    by_id = {c.id: c for c in res.cases}
    assert by_id["flag-5-4"].observed["computed"] == 5
    assert by_id["flag-5-4-minus-2H"].observed["computed"] == -1
    assert by_id["cubics-6"].observed == {
        "dim": 6,
        "kernel_dim": 1,
        "kernel_agree": True,
        "rank": 4,
    }
    assert by_id["cubics-7"].observed["rank"] == 5


def test_small_ah_grid():
    res = run_ah_suite(n_max=2, d_max=3)
    assert res.passed
    assert len(res.cases) == 8
    quadric = next(c for c in res.cases if c.id == "n2-d2-h2")
    assert quadric.observed["special"] and quadric.observed["predicted"]


def test_ah_suite_eliminates_each_chain_once_and_reports_in_grid_order(monkeypatch):
    # Each (n, d) chain runs from its top down, so with an empty memo the top's
    # elimination answers every smaller h of the chain at that (prime, seed).
    eliminated = fresh_memo(monkeypatch)
    res = run_ah_suite(n_max=2, d_max=4)
    assert res.passed
    assert [c.id for c in res.cases] == [
        f"n{n}-d{d}-h{h}" for n in (1, 2) for d in (2, 3, 4) for h in range(1, int(k(n, d)) + 1)
    ]
    chains = 2 * 3 * len(res.primes) * len(res.seeds)
    assert len(eliminated) == chains


def test_ah_suite_runs_through_run_suite(tmp_path):
    man = load_manifest()
    ah = {**man["suites"]["ah"], "grid": {"n_max": 1, "d_max": 2}}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"suites": {"ah": ah}}))
    res = run_suite("ah", load_manifest(path))
    assert res.passed and res.name == "ah"
    assert [c.id for c in res.cases] == ["n1-d2-h1"]
    assert res.primes == tuple(ah["primes"]) and res.seeds == tuple(ah["seeds"])


def test_run_case_runs_one_case_of_an_op():
    case = {"id": "limit-2-7-7", "op": "limit", "n": 2, "d": 7, "h": 7,
            "expected": {"mu": 6, "exact": True}}
    res = run_case(case, [32003], [0])
    assert res.passed and res.id == "limit-2-7-7" and res.op == "limit"
    assert res.params == {"n": 2, "d": 7, "h": 7}
    assert res.origin == "derived"
    assert res.observed["doubles_dim"] == res.observed["fat_point_dim"] == 14
    assert res.observed["within_bounds"] is True
    assert not run_case({**case, "expected": {"mu": 5}}, [32003], [0]).passed


def test_pinned_report_names_the_manifest_suites_and_cases():
    # tests/test_cli_reports.py compares `fatpoints suite --json` with the pinned
    # file; this names a manifest edit that leaves the file stale at a glance
    report = json.loads(PINNED_REPORT.read_text())["result"]
    man = load_manifest()
    assert [s["suite"] for s in report["suites"]] == sorted(man["suites"])
    for suite in report["suites"]:
        conf = man["suites"][suite["suite"]]
        if "cases" in conf:
            assert [c["id"] for c in suite["cases"]] == [c["id"] for c in conf["cases"]]


def test_run_suite_dispatch():
    assert suite_names() == ("ah", "collisions", "identifiability", "known", "prop23",
                             "section45", "sequences", "theorem2")
    res = run_suite("prop23")
    assert res.name == "prop23"
    with pytest.raises(ValueError):
        run_suite("nope")


def test_a_suite_named_only_in_the_manifest_runs():
    man = load_manifest()
    genus = next(c for c in man["suites"]["section45"]["cases"] if c["op"] == "genus")
    extra = {"primes": [32003], "seeds": [0], "cases": [genus]}
    manifest = {"suites": {"prop23": man["suites"]["prop23"], "extra": extra}}
    assert suite_names(manifest) == ("extra", "prop23")
    res = run_suite("extra", manifest)
    assert res.passed and res.name == "extra"
    assert [c.id for c in res.cases] == [genus["id"]]


def test_unknown_op_is_refused_before_any_case_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(_HANDLERS, "genus", lambda case, *args: ran.append(case["id"]) or {})
    good = {"id": "good", "op": "genus", "d": 2, "mults": [1]}
    manifest = {"suites": {"extra": {"primes": [7], "seeds": [0], "cases": [
        good, {"id": "bad", "op": "nope"}]}}}
    with pytest.raises(ValueError, match="suite 'extra' case 'bad' has unknown op 'nope'"):
        run_suite("extra", manifest)
    assert ran == []


def test_a_case_that_is_not_an_object_is_refused_before_any_case_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(_HANDLERS, "genus", lambda case, *args: ran.append(case["id"]) or {})
    good = {"id": "good", "op": "genus", "d": 2, "mults": [1]}
    manifest = {"suites": {"extra": {"primes": [7], "seeds": [0], "cases": [good, "oops"]}}}
    with pytest.raises(ValueError, match="suite 'extra' case at index 1 is not an object: 'oops'"):
        run_suite("extra", manifest)
    assert ran == []


def test_a_key_error_inside_a_computation_stays_a_key_error(monkeypatch):
    def broken(case, *args):
        return {}["inner"]

    monkeypatch.setitem(_HANDLERS, "genus", broken)
    manifest = {"suites": {"extra": {"primes": [7], "seeds": [0], "cases": [
        {"id": "good", "op": "genus", "d": 2, "mults": [1]}]}}}
    with pytest.raises(KeyError, match="inner"):
        run_suite("extra", manifest)


def test_reports():
    res = run_prop23_suite()
    rep = json_report([res])
    assert set(rep) == {"tool_version", "passed", "suites"}
    assert rep["passed"] is True
    assert rep["suites"][0]["suite"] == "prop23"

    assert "elapsed" in json.dumps(rep)
    once = json.dumps(_without_elapsed(json_report([res])), sort_keys=True)
    again = json.dumps(_without_elapsed(json_report([run_prop23_suite()])), sort_keys=True)
    assert once == again

    text = csv_summary([res])
    lines = text.strip().splitlines()
    assert lines[0] == "suite,case,op,passed,expected,observed,origin"
    assert len(lines) == 1 + len(res.cases)
