import json

import pytest

from fatpoints.schemes import virtual_dim
from fatpoints.suites import (
    _HANDLERS,
    check_expected,
    csv_summary,
    flagged_system,
    json_report,
    load_manifest,
    run_ah_suite,
    run_prop23_suite,
    run_section45_suite,
    run_suite,
    suite_names,
)


def test_manifest_loads_and_is_well_formed():
    man = load_manifest()
    assert set(man["suites"]) == {"ah", "prop23", "section45", "theorem2"}
    for name in ("prop23", "section45", "theorem2"):
        conf = man["suites"][name]
        assert conf["seeds"]
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
    # a plain dict value that is not an operator spec compares by equality
    assert check_expected({"x": {"kind": "generic"}}, {"x": {"kind": "generic"}})


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
    assert a.as_dict(timings=False) == b.as_dict(timings=False)
    d = a.as_dict()
    assert "elapsed" in d and "elapsed" in d["cases"][0]
    assert "elapsed" not in a.as_dict(timings=False)["cases"][0]


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
    res = run_section45_suite()
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


def test_run_suite_dispatch():
    assert suite_names() == ("ah", "prop23", "section45", "theorem2")
    res = run_suite("prop23")
    assert res.name == "prop23"
    with pytest.raises(ValueError):
        run_suite("nope")


def test_reports():
    res = run_prop23_suite()
    rep = json_report(res)
    assert set(rep) == {"tool_version", "passed", "suites"}
    assert rep["passed"] is True
    assert rep["suites"][0]["suite"] == "prop23"

    once = json.dumps(json_report(res, timings=False), sort_keys=True)
    again = json.dumps(json_report(run_prop23_suite(), timings=False), sort_keys=True)
    assert once == again
    assert "elapsed" not in once

    text = csv_summary(res)
    lines = text.strip().splitlines()
    assert lines[0] == "suite,case,op,passed,expected,observed,origin"
    assert len(lines) == 1 + len(res.cases)
