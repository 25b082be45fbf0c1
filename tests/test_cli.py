import json
import os
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

import fatpoints
from fatpoints import census, suites
from fatpoints.cli import main
from fatpoints.grammar import parse_spec
from fatpoints.schemes import castelnuovo_split
from fatpoints.suites import load_manifest, run_suite

PAYLOAD_KEYS = {"tool_version", "subcommand", "primes", "seeds", "result", "timings"}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, json.loads(out), err


def cases_of(payload):
    """The cases of the one suite a subcommand ran."""
    (suite,) = payload["result"]["suites"]
    return suite["cases"]


def observed(payload):
    """The observed values of the one case a subcommand ran."""
    (case,) = cases_of(payload)
    return case["observed"]


def test_dim_text_output(capsys):
    code, out, _ = run(capsys, ["dim", "L(3,3;2^4)"])
    assert code == 0
    assert "virtual=3 expected=3 computed=3" in out


def test_dim_redraws_a_repeated_point(capsys):
    # seed 0 at p = 7 first draws one point twice, which read computed=5 special
    code, out, _ = run(capsys, ["dim", "L(2,5;2^6)", "--prime", "7", "--seed", "0"])
    assert (code, out) == (0, "L(2,5;2^6): virtual=2 expected=2 computed=2\n")


def test_dim_redraws_a_point_that_repeats_the_target_of_its_chord(capsys):
    # seed 56 at p = 7 first draws point 1 onto point 0, which exited 1 with
    # "direction is proportional to its base point"
    code, out, _ = run(capsys, ["dim", "L(2,4;2,1[1@pt0])", "--prime", "7", "--seed", "56"])
    assert (code, out) == (0, "L(2,4;2,1[1@pt0]): virtual=9 expected=9 computed=9\n")


def test_dim_refuses_a_locus_with_no_free_point(capsys):
    code, out, err = run(capsys, ["dim", "L(2,5;1^9@H1)", "--prime", "7", "--seed", "0"])
    assert (code, out) == (1, "")
    assert err == ("error: point 8: the earlier points take all 8 points of H_1(F_7), "
                   "so it cannot be placed apart from them\n")


def test_dim_json_payload(capsys):
    code, payload, _ = run_json(capsys, ["dim", "L(3,3;2^4)"])
    assert code == 0
    assert set(payload) == PAYLOAD_KEYS
    assert payload["subcommand"] == "dim"
    assert payload["primes"] == [32003]
    assert payload["seeds"] == [0, 1, 2]
    (case,) = cases_of(payload)
    assert case["params"] == {"spec": "L(3,3;2^4)"}
    assert case["expected"] == {"agree": True}
    assert case["observed"]["computed"] == 3
    assert payload["result"]["passed"] is True
    assert payload["timings"]["total"] >= 0


@pytest.mark.parametrize(
    "skewed,code,tag",
    [
        (lambda t: t.prime == 65521, 1, " UNSTABLE"),  # the minima of the two primes differ
        (lambda t: t.seed == 1, 0, ""),  # only the seeds disagree; the minima agree
    ],
    ids=["primes-disagree", "seeds-disagree"],
)
def test_dim_passes_when_the_minima_of_its_primes_agree(capsys, monkeypatch, skewed, code, tag):
    real = fatpoints.suites.dimension

    def dimension(spec, primes, seeds):
        rep = real(spec, primes, seeds)
        return replace(rep, trials=tuple(replace(t, dim=t.dim + 1) if skewed(t) else t
                                         for t in rep.trials))

    monkeypatch.setattr(fatpoints.suites, "dimension", dimension)
    argv = ["dim", "L(3,3;2^4)", "--prime", "32003", "--prime", "65521", "--seed", "0", "--seed", "1"]
    assert run(capsys, argv) == (code, f"L(3,3;2^4): virtual=3 expected=3 computed=3{tag}\n", "")


def test_dim_multiple_specs_and_special_tag(capsys):
    code, out, _ = run(capsys, ["dim", "L(2,4;2^5)", "L(3,3;2^4)"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "special" in lines[0]
    assert "special" not in lines[1]


def test_dim_flag_overrides(capsys):
    code, payload, _ = run_json(
        capsys,
        ["dim", "L(3,3;2^4)", "--prime", "32003", "--prime", "65521",
         "--seed", "0", "--seed", "1"],
    )
    assert code == 0
    assert payload["primes"] == [32003, 65521]
    assert payload["seeds"] == [0, 1]
    assert observed(payload)["computeds"] == [3, 3]
    # one use replaces the default list, it does not extend it
    code, payload, _ = run_json(capsys, ["dim", "L(3,3;2^4)", "--seed", "5"])
    assert payload["primes"] == [32003]
    assert payload["seeds"] == [5]


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "--n", "2", "--d", "4", "--prime", "7"],
        ["suite", "prop23", "--prime", "7"],
        ["identif", "--n", "2", "--d", "5", "--seed", "3"],
        ["suite", "ah", "--seed", "1"],
        ["dim", "L(3,3;2^4)", "--trials", "2"],
        ["dim", "L(3,3;2^4)", "--primes", "32003,65521"],
        ["castelnuovo", "L(3,4;3@H2,2^3)", "--seeds", "0,1"],
        ["collide", "--op", "chords", "--n", "3", "--csv"],
        ["cremona", "L(2,2;2)", "--prime", "7", "--csv"],
        ["collide", "--op", "chords", "--n", "3", "--d", "9", "--h", "2"],
        ["collide", "--op", "merge", "--n", "2", "--d", "4", "--h", "99"],
        ["collide", "--op", "limit", "--n", "2", "--h", "7"],
        ["dim", "L(2,4;2^5)", "--seed", "-1"],
        ["cremona", "L(2,2;2)", "--seed", "-1"],
        ["collide", "--op", "chords", "--n", "3", "--seed", "-1"],
        ["castelnuovo", "L(3,4;3@H2,2^3)", "--seed", "-1"],
        ["cremona", "L(2,5;2^6)", "--prime", "31", "--budget", "nan"],
        ["identif", "--n", "2", "--d", "5", "--budget", "nan"],
        ["suite", "theorem2", "--budget", "nan"],
        ["cremona", "L(2,2;2)", "--budget", "0"],
        ["identif", "--n", "2", "--d", "5", "--budget", "-1"],
        ["suite", "ah", "--n-max", "0"],
        ["suite", "ah", "--d-max", "1"],
        ["dim", "L(2,4;2^5)", "--prime", "abc"],
        ["dim", "L(2,4;2^5)", "--seed", "x"],
        ["cremona", "L(2,2;2)", "--budget", "lots"],
    ],
)
def test_unread_option_is_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "error:" in err
    # the message names the option at fault, the last one given
    assert [a for a in argv if a.startswith("--")][-1] in err


def test_dim_syntax_error_exit_2(capsys):
    code, out, err = run(capsys, ["dim", "L(2,4"])
    assert code == 2
    assert "error:" in err and "offset" in err


def test_dim_semantic_error_exit_2(capsys):
    code, _, err = run(capsys, ["dim", "L(2,3;2@H5)"])
    assert code == 2
    assert "item 0" in err


def test_collide_prime_bound_usage_error(capsys):
    code, out, err = run(
        capsys, ["collide", "--op", "chords", "--n", "3", "--prime", "4294967311"]
    )
    assert code == 2 and out == ""
    assert "prime 4294967311 must be below 2147483648" in err


def test_prime_bound_usage_error(capsys):
    code, _, err = run(capsys, ["dim", "L(2,4;2^5)", "--prime", "3"])
    assert code == 2
    assert "prime 3 must exceed max(degree, multiplicities) = 4" in err
    code, out, err = run(capsys, ["dim", "L(2,4;2^5)", "--prime", "4294967311"])
    assert code == 2 and out == ""
    assert "prime 4294967311 must be below 2147483648" in err


@pytest.mark.parametrize("prime", ["9", "2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "L(2,4;2^5)"],
        ["cremona", "L(2,5;2^6)"],
        ["collide", "--op", "chords", "--n", "3"],
        ["castelnuovo", "L(3,4;2^3@H2)"],
    ],
)
def test_prime_that_is_no_odd_prime_is_usage_error(capsys, argv, prime):
    code, out, err = run(capsys, [*argv, "--prime", prime])
    assert code == 2 and out == ""
    assert f"argument --prime: modulus must be an odd prime, got {prime}" in err


def test_collide_merge_prime_bound_usage_error(capsys):
    # collide has no spec to check; the bound is raised where the points are sampled
    code, out, err = run(capsys, ["collide", "--op", "merge", "--n", "2", "--d", "4", "--prime", "3"])
    assert code == 2 and out == ""
    assert "prime 3 must exceed max(degree, multiplicities) = 4" in err


def test_seq_output(capsys):
    code, out, _ = run(capsys, ["seq", "--n", "5", "--d", "4"])
    assert code == 0
    assert "k(5,4) = 21" in out
    assert "properties:" in out and "False" not in out


def test_seq_json_table(capsys):
    code, payload, _ = run_json(capsys, ["seq", "--n", "5", "--d", "4"])
    assert code == 0
    table = observed(payload)["table"]
    assert table["s"] == [0, 1, 5, 15]
    assert table["h"] == [2, 5, 9, 14]
    assert all(observed(payload)["properties"].values())


def test_seq_domain_error_exit_1(capsys):
    code, _, err = run(capsys, ["seq", "--n", "7", "--d", "4"])
    assert code == 1
    assert "error:" in err
    code, payload, _ = run_json(capsys, ["seq", "--n", "7", "--d", "4"])
    assert code == 1
    assert set(payload) == {"tool_version", "subcommand", "error"}


def test_allocation_failure_exit_1(capsys, monkeypatch):
    def dimension(*args, **kwargs):
        raise MemoryError("Unable to allocate 5.31 GiB for an array with shape (27, 27, 27)")

    monkeypatch.setattr(fatpoints.suites, "dimension", dimension)
    code, out, err = run(capsys, ["dim", "L(12,12;2)"])
    assert code == 1
    assert out == ""
    assert err == "error: Unable to allocate 5.31 GiB for an array with shape (27, 27, 27)\n"
    code, out, err = run(capsys, ["dim", "L(12,12;2)", "--json"])
    assert code == 1
    assert "Traceback" not in out + err
    payload = json.loads(out)
    assert set(payload) == {"tool_version", "subcommand", "error"}
    assert payload["error"].startswith("Unable to allocate 5.31 GiB")


def _small_ah_manifest(tmp_path):
    """A manifest whose one suite is the ah grid up to n 2 and d 3."""
    ah = load_manifest()["suites"]["ah"]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"suites": {"ah": {**ah, "grid": {"n_max": 2, "d_max": 3}}}}))
    return str(path)


def test_ah_small_grid(capsys, tmp_path):
    code, out, _ = run(capsys, ["suite", "ah", "--manifest", _small_ah_manifest(tmp_path)])
    assert code == 0
    assert out.startswith("ah: 8/8 passed")


def test_ah_csv_output(capsys, tmp_path):
    code, out, _ = run(capsys, ["suite", "ah", "--manifest", _small_ah_manifest(tmp_path), "--csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite,case,op,passed,expected,observed,origin"
    assert len(lines) == 1 + 8 and all(line.startswith("ah,n") for line in lines[1:])


def test_cremona_fiber_type(capsys):
    code, out, _ = run(capsys, ["cremona", "L(2,2;2)", "--prime", "7"])
    assert code == 0
    assert "verdict=fiber-type" in out


def test_cremona_reports_its_seed(capsys):
    code, payload, _ = run_json(capsys, ["cremona", "L(2,2;2)", "--prime", "7"])
    assert code == 0
    assert payload["primes"] == [7]
    assert payload["seeds"] == [0]


def fresh_census_cache(monkeypatch):
    """A fresh census cache, so that no census cached earlier answers for a stub."""
    fresh = lru_cache(maxsize=None)(census._census_cached.__wrapped__)
    monkeypatch.setattr(census, "_census_cached", fresh)


def test_cremona_prime_disagreement_exit_1(capsys, monkeypatch):
    real = census.fiber_census

    def fiber_census(m, budget):
        c = real(m, budget)
        return replace(c, verdict="birational") if m.prime == 11 else c

    monkeypatch.setattr(census, "fiber_census", fiber_census)
    fresh_census_cache(monkeypatch)
    code, out, _ = run(capsys, ["cremona", "L(2,2;2)", "--prime", "7", "--prime", "11"])
    assert code == 1
    lines = out.splitlines()
    assert "verdict=fiber-type" in lines[0] and "verdict=birational" in lines[1]
    assert lines[2] == "PRIME DISAGREEMENT: birational, fiber-type"


def test_cremona_runs_one_cached_census_per_prime(capsys, monkeypatch):
    calls = []
    real = census.fiber_census

    def fiber_census(m, budget):
        calls.append(m.prime)
        return real(m, budget)

    monkeypatch.setattr(census, "fiber_census", fiber_census)
    fresh_census_cache(monkeypatch)
    first = run(capsys, ["cremona", "L(2,2;2)", "--prime", "7"])
    assert run(capsys, ["cremona", "L(2,2;2)", "--prime", "7"]) == first
    assert first[0] == 0 and calls == [7]


def test_census_of_a_spec_checks_its_base_points(capsys, monkeypatch, tmp_path):
    def no_base_points(m, budget):
        n = census.projective_count(m.n, m.prime)
        return census.FiberCensus(m.prime, n, 0, n, {1: n}, 1.0, "birational")

    monkeypatch.setattr(census, "fiber_census", no_base_points)
    fresh_census_cache(monkeypatch)
    manifest = {"suites": {"known": {"seeds": [0], "cases": [
        {"id": "standard", "op": "census", "spec": "L(2,2;1^3)", "primes": [499]}]}}}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, out, err = run(capsys, ["suite", "--manifest", str(path)])
    assert (code, out) == (1, "")
    assert err == "error: sanity: 3 assigned points must be rational base points, census found 0\n"


def test_census_op_runs_a_spec_or_a_double_point_system_at_its_own_primes(capsys, tmp_path):
    manifest = {"suites": {"known": {"seeds": [0], "cases": [
        {"id": "standard", "op": "census", "spec": "L(2,2;1^3)", "primes": [499, 251],
         "expected": {"verdict": "birational", "agree": True, "conserved": True}},
        {"id": "pencil", "op": "census", "n": 1, "d": 3, "h": 1, "primes": [31],
         "expected": {"verdict": "birational"}},
    ]}}}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, payload, _ = run_json(capsys, ["suite", "--manifest", str(path)])
    assert code == 0
    assert payload["primes"] == [31, 251, 499]
    standard, pencil = cases_of(payload)
    assert [c["prime"] for c in standard["observed"]["censuses"]] == [499, 251]
    assert standard["observed"]["base_points"] == [3, 3]
    assert [c["prime"] for c in pencil["observed"]["censuses"]] == [31]
    # a case that names its system twice is refused
    manifest["suites"]["known"]["cases"][0]["n"] = 2
    path.write_text(json.dumps(manifest))
    code, out, err = run(capsys, ["suite", "--manifest", str(path)])
    assert (code, out) == (1, "")
    assert err == "error: census case 'standard' names its system by both spec and n, d, h\n"


def test_cremona_defaults_to_the_census_primes(capsys):
    code, payload, _ = run_json(capsys, ["cremona", "L(2,2;2)"])
    assert code == 0
    assert payload["primes"] == [499, 251]
    assert [c["prime"] for c in observed(payload)["censuses"]] == [499, 251]


def test_cremona_without_census_primes_needs_prime(capsys):
    code, out, err = run(capsys, ["cremona", "L(6,2;2)"])
    assert code == 2 and out == ""
    assert "give --prime" in err


def test_cremona_wrong_dimension_exit_1(capsys):
    code, _, err = run(capsys, ["cremona", "L(2,4;2^5)"])
    assert code == 1
    assert "no candidate self-map" in err


def test_census_cost_past_the_float_range_is_refused(capsys):
    # the cost, 71 |P^70(F_32003)|, is about 1.6e317: beyond every float
    code, out, err = run(capsys, ["cremona", "L(70,1;)", "--prime", "32003"])
    assert code == 1 and out == ""
    assert err == "error: census cost 1.64e+317 exceeds budget 1e+10; no prime above d = 1 fits it\n"
    code, payload, _ = run_json(capsys, ["cremona", "L(70,1;)", "--prime", "32003"])
    assert code == 1
    assert payload["error"] == err[len("error: "):].rstrip("\n")


def test_identif_no_census(capsys):
    # a budget that no census fits runs none
    code, out, _ = run(capsys, ["identif", "--n", "2", "--d", "4", "--budget", "1"])
    assert code == 0
    assert out == "(2,4): not-identifiable, s = 5\n"
    code, out, _ = run(capsys, ["identif", "--n", "2", "--d", "3", "--budget", "1"])
    assert code == 0
    assert out == "(2,3): non-perfect\n"


def test_identif_budget_skips_census(capsys):
    code, payload, _ = run_json(
        capsys, ["identif", "--n", "1", "--d", "5", "--budget", "10"]
    )
    assert code == 0
    assert observed(payload)["status"] == "identifiable"
    assert observed(payload)["censuses"] == []
    # no census ran, so nothing corroborates the status, and nothing fails it
    assert observed(payload)["corroborated"] is None
    assert payload["primes"] == [] and payload["seeds"] == []


def test_identif_reports_its_census_primes(capsys):
    code, payload, _ = run_json(capsys, ["identif", "--n", "2", "--d", "4"])
    assert code == 0
    # the op picks the census primes of dimension n; the run sets none
    assert payload["primes"] == [] and payload["seeds"] == []
    assert [c["prime"] for c in observed(payload)["censuses"]] == [499, 251]


def test_identif_inconclusive_census_is_not_corroboration(capsys):
    code, payload, _ = run_json(capsys, ["identif", "--n", "2", "--d", "7"])
    assert observed(payload)["status"] == "not-identifiable"
    assert [c["verdict"] for c in observed(payload)["censuses"]] == ["inconclusive"] * 2
    assert observed(payload)["corroborated"] is False
    assert code == 1
    code, payload, _ = run_json(capsys, ["identif", "--n", "2", "--d", "4"])
    assert [c["verdict"] for c in observed(payload)["censuses"]] == ["fiber-type"] * 2
    assert observed(payload)["corroborated"] is True
    assert code == 0


def test_collide_merge(capsys):
    code, out, _ = run(capsys, ["collide", "--op", "merge", "--n", "2", "--d", "4"])
    assert code == 0
    assert "equal=True" in out


def test_collide_chords(capsys):
    code, out, _ = run(capsys, ["collide", "--op", "chords", "--n", "3"])
    assert code == 0
    assert "rank=6/6" in out


def test_collide_limit(capsys):
    code, out, _ = run(
        capsys, ["collide", "--op", "limit", "--n", "2", "--d", "7", "--h", "7"]
    )
    assert code == 0
    assert "exactly a 6-fold point" in out


@pytest.mark.parametrize(
    "h,d,line",
    [
        ("7", "7", "limit (2,7,7): mu=6 lengths 21 vs 21 -> limit is exactly a 6-fold point"),
        ("3", "3", "limit (2,3,3): mu=3 lengths 9 vs 6 -> limit strictly contains the 3-fold point"),
    ],
)
def test_collide_limit_names_the_shape_of_the_limit(capsys, h, d, line):
    code, out, _ = run(capsys, ["collide", "--op", "limit", "--n", "2", "--d", d, "--h", h])
    assert code == 0
    assert out == line + "\n"


def test_limit_bounds_are_judged_by_the_command_and_the_suite(capsys, monkeypatch):
    real = fatpoints.collisions.dimension

    def dimension(spec, primes, seeds):
        # the 7-fold point of limit (2,7,7) reads above the 14 of its double points
        rep = real(spec, primes, seeds)
        return replace(rep, computed=99) if [p.multiplicity for p in spec.points] == [7] else rep

    monkeypatch.setattr(fatpoints.collisions, "dimension", dimension)
    code, payload, _ = run_json(capsys, ["collide", "--op", "limit", "--n", "2", "--d", "7", "--h", "7"])
    assert code == 1
    assert observed(payload)["deeper_point_dim"] == 99 > observed(payload)["doubles_dim"]
    assert observed(payload)["within_bounds"] is False
    res = run_suite("collisions")
    assert res.failures == ("limit-2-7-7",)


def test_collide_missing_args_exit_2(capsys):
    code, _, err = run(capsys, ["collide", "--op", "merge", "--n", "2"])
    assert code == 2
    assert "needs --d" in err
    code, _, err = run(capsys, ["collide", "--op", "limit", "--n", "2", "--d", "7"])
    assert code == 2


def test_castelnuovo(capsys):
    code, payload, _ = run_json(capsys, ["castelnuovo", "L(3,4;3@H2,2^3)"])
    assert code == 0
    res = observed(payload)
    assert res["subadditive"] is True
    assert res["h0"]["system"] <= res["h0"]["kernel"] + res["h0"]["trace"]
    assert parse_spec(res["kernel"]).d == 3
    assert parse_spec(res["trace"]).n == 2


# the last has tangent directions on the hyperplane, which the trace keeps
@pytest.mark.parametrize("spec", ["L(3,4;3@H2,2^3)", "L(3,4;2^3@H2)", "L(4,4;3[4@H3]@H3,2^5)"])
def test_castelnuovo_strings_carry_the_split(capsys, spec):
    code, payload, _ = run_json(capsys, ["castelnuovo", spec])
    assert code == 0
    res = observed(payload)
    assert (parse_spec(res["kernel"]), parse_spec(res["trace"])) == castelnuovo_split(parse_spec(spec))


def test_suite_subcommand(capsys):
    code, payload, _ = run_json(capsys, ["suite", "prop23"])
    assert code == 0
    assert payload["result"]["suites"][0]["suite"] == "prop23"
    assert payload["result"]["passed"] is True
    assert payload["primes"] == [32003, 65521]
    assert payload["seeds"] == [0]
    assert len(cases_of(payload)) == 8
    code, _, err = run(capsys, ["suite", "bogus"])
    assert code == 2
    assert "unknown suite" in err


def test_sequences_and_collisions_suites(capsys, tmp_path):
    code, payload, _ = run_json(capsys, ["suite", "sequences", "collisions"])
    assert code == 0
    suites = payload["result"]["suites"]
    assert [(s["suite"], len(s["cases"]), s["passed"]) for s in suites] == [
        ("sequences", 35, True), ("collisions", 18, True)]
    # one changed expected value fails that case, and the command
    man = load_manifest()
    for name, cid, key, value in [("sequences", "seq-5-4", "table", {"k": 20}),
                                  ("collisions", "limit-2-7-7", "mu", 5)]:
        conf = man["suites"][name]
        cases = [dict(c, expected={**c["expected"], key: value}) if c["id"] == cid else c
                 for c in conf["cases"]]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"suites": {name: {**conf, "cases": cases}}}))
        code, out, _ = run(capsys, ["suite", "--manifest", str(path)])
        assert code == 1
        assert out.splitlines()[1:] == [f"  FAIL {cid}"]


def _identifiability_slice(tmp_path, **change):
    """A manifest holding the identifiability cases that stay cheap: (1, d),
    (2,5) and the non-perfect pairs; `change` overrides suite keys."""
    conf = load_manifest()["suites"]["identifiability"]
    cases = [c for c in conf["cases"]
             if c["n"] == 1 or c["id"] == "identif-2-5" or c["expected"]["status"] == "non-perfect"]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"suites": {"identifiability": {**conf, "cases": cases, **change}}}))
    return str(path), cases


def test_identifiability_suite_slice(capsys, tmp_path):
    path, cases = _identifiability_slice(tmp_path)
    assert len(cases) == 9
    code, payload, _ = run_json(capsys, ["suite", "--manifest", path])
    assert code == 0
    by_id = {c["id"]: c["observed"] for c in cases_of(payload)}
    censuses = by_id["identif-2-5"].pop("censuses")
    assert [(c["prime"], c["verdict"]) for c in censuses] == [(499, "birational"), (251, "birational")]
    assert by_id["identif-2-5"] == {"status": "identifiable", "s": 7, "corroborated": True,
                                    "verdicts": ["birational", "birational"]}
    assert by_id["identif-2-6"] == {"status": "non-perfect", "s": None, "corroborated": None,
                                    "verdicts": [], "censuses": []}
    # one changed expected value fails that case, and the command
    broken = [dict(c, expected={**c["expected"], "s": 6}) if c["id"] == "identif-2-5" else c
              for c in cases]
    path, _ = _identifiability_slice(tmp_path, cases=broken)
    code, out, _ = run(capsys, ["suite", "--manifest", path])
    assert code == 1
    assert out.splitlines()[1:] == ["  FAIL identif-2-5"]


def test_identifiability_suite_fails_when_no_census_runs(capsys, tmp_path):
    # a census the budget refuses leaves no verdict: the perfect pairs fail
    path, cases = _identifiability_slice(tmp_path, budget=10)
    code, out, _ = run(capsys, ["suite", "--manifest", path])
    assert code == 1
    assert out.splitlines()[1:] == [f"  FAIL {c['id']}" for c in cases
                                    if c["expected"]["status"] != "non-perfect"]


def test_suite_reads_the_manifest_budget(capsys, tmp_path):
    manifest = {"suites": {"theorem2": {"seeds": [0], "budget": 1, "cases": [
        {"id": "pencil", "op": "census", "n": 1, "d": 3, "h": 1, "primes": [499],
         "expected": {"verdict": "birational"}},
    ]}}}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, _, err = run(capsys, ["suite", "theorem2", "--manifest", str(path)])
    assert code == 1
    assert "exceeds budget 1e+00" in err
    code, _, _ = run(capsys, ["suite", "theorem2", "--manifest", str(path), "--budget", "1e10"])
    assert code == 0


def test_a_census_in_any_suite_reads_the_budget_option(capsys, tmp_path):
    manifest = {"suites": {"censuses": {"seeds": [0], "cases": [
        {"id": "pencil", "op": "census", "n": 1, "d": 3, "h": 1, "primes": [499],
         "expected": {"verdict": "birational"}},
    ]}}}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, _, err = run(capsys, ["suite", "--manifest", str(path), "--budget", "1e3"])
    assert code == 1
    assert "exceeds budget 1e+03" in err
    code, _, _ = run(capsys, ["suite", "--manifest", str(path)])
    assert code == 0


def test_suite_runs_exactly_the_suites_of_its_manifest(capsys, tmp_path):
    suites = load_manifest()["suites"]
    genus = next(c for c in suites["section45"]["cases"] if c["op"] == "genus")
    extra = {"primes": [32003], "seeds": [0], "cases": [genus]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"suites": {"prop23": suites["prop23"], "extra": extra}}))
    code, payload, _ = run_json(capsys, ["suite", "--manifest", str(path)])
    assert code == 0
    assert [s["suite"] for s in payload["result"]["suites"]] == ["extra", "prop23"]


def _genus_suite(*cases):
    return {"suites": {"extra": {"primes": [32003], "seeds": [0], "cases": [
        {"id": "quartic", "op": "genus", "d": 2, "mults": [1, 1, 1],
         "expected": {"genus": 0}},
        *cases,
    ]}}}


def _extra_suite(**change):
    """_genus_suite() with the given keys of its suite replaced."""
    manifest = _genus_suite()
    manifest["suites"]["extra"].update(change)
    return manifest


# (suites named after `suite`, manifest written to the tmp path or None for a
#  missing file, exit code, a phrase of the error line)
MANIFEST_FAULTS = {
    "no suites": ([], {}, 1, "the manifest has no 'suites'"),
    "no ah suite": (["ah"], _genus_suite(), 2, "unknown suite(s): ah"),
    "missing file": ([], None, 2, "No such file or directory"),
    "unknown op": ([], _genus_suite({"id": "bad", "op": "nope"}), 1,
                   "suite 'extra' case 'bad' has unknown op 'nope'"),
    "missing parameter": ([], _genus_suite({"id": "bad", "op": "flag-dim", "d": 4}), 1,
                          "suite 'extra' case 'bad' has no 'n'"),
    "no suite named": ([], {"suites": {}}, 1, "the manifest names no suite"),
    "case not an object": ([], _genus_suite("oops"), 1,
                           "suite 'extra' case at index 1 is not an object: 'oops'"),
    "manifest not an object": ([], [1], 1, "the manifest is not an object: [1]"),
    "suites not an object": ([], {"suites": ["x"]}, 1,
                             "the manifest's 'suites' is not an object: ['x']"),
    "suite not an object": ([], {"suites": {"x": 5}}, 1, "suite 'x' is not an object: 5"),
    "cases not a list": ([], _extra_suite(cases=5), 1, "suite 'extra' has 'cases' 5, not a list"),
    "cases a string": ([], _extra_suite(cases="ab"), 1,
                       "suite 'extra' has 'cases' 'ab', not a list"),
    "primes not a list": ([], _extra_suite(primes=7), 1,
                          "suite 'extra' has 'primes' 7, not a list"),
    "seeds not a list": ([], _extra_suite(seeds=0), 1, "suite 'extra' has 'seeds' 0, not a list"),
    "no case": ([], _extra_suite(cases=[]), 1, "suite 'extra' has no case"),
    "empty ah grid": (["ah"], {"suites": {"ah": {"primes": [32003], "seeds": [0], "sporadics": [],
                                                 "grid": {"n_max": 0, "d_max": 3}}}}, 1,
                      "suite 'ah' has no case"),
    "sporadic not a list": (["ah"], {"suites": {"ah": {"primes": [32003], "seeds": [0],
                                                       "sporadics": [5],
                                                       "grid": {"n_max": 1, "d_max": 2}}}}, 1,
                            "suite 'ah' has 'sporadics' entry 5, not a list"),
    "census primes not a list": ([], {"suites": {"extra": {"seeds": [0], "cases": [
        {"id": "pencil", "op": "census", "n": 1, "d": 3, "h": 1, "primes": 499}]}}}, 1,
        "suite 'extra' case 'pencil' has 'primes' 499, not a list"),
    "expected not an object": ([], _genus_suite({"id": "bad", "op": "genus", "d": 2, "mults": [1],
                                                 "expected": 5}), 1,
                               "suite 'extra' case 'bad' has 'expected' 5, not an object"),
    "sporadic value not an integer": (["ah"], {"suites": {"ah": {
        "primes": [32003], "seeds": [0], "sporadics": [["a", 4, 5]],
        "grid": {"n_max": 1, "d_max": 2}}}}, 1,
        "suite 'ah' has 'sporadics' value 'a', not an integer"),
    "grid bound a string": (["ah"], {"suites": {"ah": {
        "primes": [32003], "seeds": [0], "sporadics": [], "grid": {"n_max": "2", "d_max": 2}}}},
        1, "suite 'ah' grid has 'n_max' '2', not an integer"),
    "degree a string": ([], _genus_suite({"id": "bad", "op": "genus", "d": "2", "mults": [1]}), 1,
                        "suite 'extra' case 'bad' has 'd' '2', not an integer"),
    "spec not a string": ([], _genus_suite({"id": "bad", "op": "dim", "spec": 5}), 1,
                          "suite 'extra' case 'bad' has 'spec' 5, not a string"),
    "census system named twice": ([], _genus_suite({"id": "both", "op": "census",
                                                    "spec": "L(1,3;2)", "d": 3, "primes": [31]}),
                                  1, "census case 'both' names its system by both spec and n, d, h"),
}


@pytest.mark.parametrize("fault", MANIFEST_FAULTS)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_manifest_fault_is_one_error_line(capsys, tmp_path, fault, as_json):
    names, manifest, want_code, phrase = MANIFEST_FAULTS[fault]
    path = tmp_path / "manifest.json"
    if manifest is not None:
        path.write_text(json.dumps(manifest))
    argv = ["suite", *names, "--manifest", str(path), *(["--json"] if as_json else [])]
    code, out, err = run(capsys, argv)
    assert code == want_code
    assert "Traceback" not in out + err
    if as_json and want_code == 1:
        assert err == ""
        assert phrase in json.loads(out)["error"]
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert phrase in err


def test_census_system_named_twice_is_refused_before_any_case_runs(capsys, tmp_path,
                                                                  monkeypatch):
    ran = []
    run_case = suites.run_case
    monkeypatch.setattr(suites, "run_case", lambda case, *rest: ran.append(case["id"])
                        or run_case(case, *rest))
    _, manifest, _, phrase = MANIFEST_FAULTS["census system named twice"]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, out, err = run(capsys, ["suite", "--manifest", str(path)])
    assert (code, out) == (1, "")
    assert phrase in err
    # the valid genus case before it did not run either
    assert ran == []


def test_argparse_exits():
    assert main([]) == 2
    # the grid runs as `suite ah`; there is no `ah` subcommand
    assert main(["ah"]) == 2
    assert main(["--version"]) == 0
    assert main(["dim", "L(2,3;2)", "--no-such-flag"]) == 2


def _checkout_env() -> tuple[Path, dict]:
    # Subprocesses run the checkout under test: PYTHONPATH is led by the
    # directory holding the imported package, so no installed copy is used.
    src_dir = Path(fatpoints.__file__).resolve().parent.parent
    pythonpath = filter(None, [str(src_dir), os.environ.get("PYTHONPATH")])
    return src_dir, {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}


def test_module_and_script_entry_points():
    src_dir, env = _checkout_env()
    out = subprocess.run(
        [sys.executable, "-m", "fatpoints", "dim", "L(3,3;2^4)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0
    assert "computed=3" in out.stdout
    # The console script declared in pyproject.toml: run what the installer's
    # wrapper runs, so the test needs no install and no script on PATH.
    tomllib = pytest.importorskip("tomllib")
    pyproject = src_dir.parent / "pyproject.toml"
    assert pyproject.is_file(), f"no pyproject.toml beside {src_dir}"
    project = tomllib.loads(pyproject.read_text())["project"]
    module, attr = project["scripts"]["fatpoints"].split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    out = subprocess.run(
        [sys.executable, "-c", wrapper, "--version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"fatpoints {project['version']}"
    assert out.stdout.strip().endswith("0.1.0")


def test_closed_pipe_exits_without_traceback():
    _, env = _checkout_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "fatpoints", "dim", "L(2,4;2^5)", "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in out.stderr
    assert out.returncode == 1


def test_unallocatable_census_is_refused_without_traceback():
    resource = pytest.importorskip("resource")
    _, env = _checkout_env()
    env["OPENBLAS_NUM_THREADS"] = "1"

    def limit_address_space():
        # the int32 count array of P^2(F_32003) takes 3.82 GiB
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    argv = [sys.executable, "-m", "fatpoints", "cremona", "L(2,2;2)", "--prime", "32003"]
    for extra in ([], ["--json"]):
        out = subprocess.run(
            argv + extra, capture_output=True, text=True, env=env, preexec_fn=limit_address_space
        )
        assert out.returncode == 1, out.stderr
        assert "Traceback" not in out.stderr
        message = json.loads(out.stdout)["error"] if extra else out.stderr
        assert "4096896056 bytes (3.82 GiB)" in message
        assert "smaller prime" in message
