import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fatpoints
from fatpoints.cli import main

PAYLOAD_KEYS = {
    "tool_version",
    "subcommand",
    "spec",
    "primes",
    "seeds",
    "result",
    "cases",
    "timings",
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, json.loads(out), err


def test_dim_text_output(capsys):
    code, out, _ = run(capsys, ["dim", "L(3,3;2^4)"])
    assert code == 0
    assert "virtual=3 expected=3 computed=3" in out


def test_dim_json_payload(capsys):
    code, payload, _ = run_json(capsys, ["dim", "L(3,3;2^4)"])
    assert code == 0
    assert set(payload) == PAYLOAD_KEYS
    assert payload["subcommand"] == "dim"
    assert payload["spec"] == "L(3,3;2^4)"
    assert payload["primes"] == [32003]
    assert payload["seeds"] == [0, 1, 2]
    assert payload["result"]["computed"] == 3
    assert payload["timings"]["total"] >= 0


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
    assert payload["result"]["primes"] == [32003, 65521]
    assert payload["result"]["seeds"] == [0, 1]
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
        ["ah", "--budget", "1"],
        ["dim", "L(3,3;2^4)", "--trials", "2"],
        ["dim", "L(3,3;2^4)", "--primes", "32003,65521"],
        ["castelnuovo", "L(3,4;3@H2,2^3)", "--seeds", "0,1"],
        ["collide", "--op", "chords", "--n", "3", "--csv"],
        ["cremona", "L(2,2;2)", "--prime", "7", "--csv"],
    ],
)
def test_unread_option_is_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "error:" in err


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
    table = payload["result"]["table"]
    assert table["s"] == [0, 1, 5, 15]
    assert table["h"] == [2, 5, 9, 14]
    assert all(payload["result"]["properties"].values())


def test_seq_domain_error_exit_1(capsys):
    code, _, err = run(capsys, ["seq", "--n", "7", "--d", "4"])
    assert code == 1
    assert "error:" in err
    code, payload, _ = run_json(capsys, ["seq", "--n", "7", "--d", "4"])
    assert code == 1
    assert set(payload) == {"tool_version", "subcommand", "error"}


def test_ah_small_grid(capsys):
    code, out, _ = run(capsys, ["ah", "--n-max", "2", "--d-max", "3"])
    assert code == 0
    assert "8/8 passed" in out


def test_ah_csv_output(capsys):
    code, out, _ = run(capsys, ["ah", "--n-max", "2", "--d-max", "3", "--csv"])
    assert code == 0
    assert out.splitlines()[0] == "suite,case,op,passed,expected,observed,origin"


def test_cremona_fiber_type(capsys):
    code, out, _ = run(capsys, ["cremona", "L(2,2;2)", "--prime", "7"])
    assert code == 0
    assert "verdict=fiber-type" in out


def test_cremona_reports_its_seed(capsys):
    code, payload, _ = run_json(capsys, ["cremona", "L(2,2;2)", "--prime", "7"])
    assert code == 0
    assert payload["primes"] == [7]
    assert payload["seeds"] == [0]


def test_cremona_defaults_to_the_census_primes(capsys):
    code, payload, _ = run_json(capsys, ["cremona", "L(2,2;2)"])
    assert code == 0
    assert payload["primes"] == [499, 251]
    assert [c["prime"] for c in payload["cases"]] == [499, 251]


def test_cremona_without_census_primes_needs_prime(capsys):
    code, out, err = run(capsys, ["cremona", "L(6,2;2)"])
    assert code == 2 and out == ""
    assert "give --prime" in err


def test_cremona_wrong_dimension_exit_1(capsys):
    code, _, err = run(capsys, ["cremona", "L(2,4;2^5)"])
    assert code == 1
    assert "no candidate self-map" in err


def test_identif_no_census(capsys):
    code, out, _ = run(capsys, ["identif", "--n", "2", "--d", "4", "--no-census"])
    assert code == 0
    assert "(2,4): not-identifiable, s = 5" in out
    code, out, _ = run(capsys, ["identif", "--n", "2", "--d", "3", "--no-census"])
    assert code == 0
    assert "non-perfect" in out


def test_identif_budget_skips_census(capsys):
    code, payload, _ = run_json(
        capsys, ["identif", "--n", "1", "--d", "5", "--budget", "10"]
    )
    assert code == 0
    assert payload["result"]["status"] == "identifiable"
    assert payload["result"]["censuses"] == []
    assert payload["result"]["corroborated"] is True
    assert payload["primes"] == [] and payload["seeds"] == []


def test_identif_reports_its_census_primes(capsys):
    code, payload, _ = run_json(capsys, ["identif", "--n", "2", "--d", "4"])
    assert code == 0
    assert payload["primes"] == [499, 251]
    assert payload["seeds"] == [0]
    assert [c["prime"] for c in payload["cases"]] == [499, 251]


def test_identif_inconclusive_census_is_not_corroboration(capsys):
    code, payload, _ = run_json(capsys, ["identif", "--n", "2", "--d", "7"])
    assert payload["result"]["status"] == "not-identifiable"
    assert [c["verdict"] for c in payload["result"]["censuses"]] == ["inconclusive"] * 2
    assert payload["result"]["corroborated"] is False
    assert code == 1
    code, payload, _ = run_json(capsys, ["identif", "--n", "2", "--d", "4"])
    assert [c["verdict"] for c in payload["result"]["censuses"]] == ["fiber-type"] * 2
    assert payload["result"]["corroborated"] is True
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


def test_collide_missing_args_exit_2(capsys):
    code, _, err = run(capsys, ["collide", "--op", "merge", "--n", "2"])
    assert code == 2
    assert "needs --d" in err
    code, _, err = run(capsys, ["collide", "--op", "limit", "--n", "2", "--d", "7"])
    assert code == 2


def test_castelnuovo(capsys):
    code, payload, _ = run_json(capsys, ["castelnuovo", "L(3,4;3@H2,2^3)"])
    assert code == 0
    res = payload["result"]
    assert res["subadditive"] is True
    assert res["h0"]["system"] <= res["h0"]["kernel"] + res["h0"]["trace"]
    assert res["kernel"]["d"] == 3
    assert res["trace"]["n"] == 2


def test_suite_subcommand(capsys):
    code, payload, _ = run_json(capsys, ["suite", "prop23"])
    assert code == 0
    assert payload["result"]["suites"][0]["suite"] == "prop23"
    assert payload["result"]["passed"] is True
    assert payload["primes"] == [32003, 65521]
    assert payload["seeds"] == [0]
    code, _, err = run(capsys, ["suite", "bogus"])
    assert code == 2
    assert "unknown suite" in err


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


def test_argparse_exits():
    assert main([]) == 2
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
        # the count array of P^2(F_32003) takes 7.63 GiB
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    argv = [sys.executable, "-m", "fatpoints", "cremona", "L(2,2;2)", "--prime", "32003"]
    for extra in ([], ["--json"]):
        out = subprocess.run(
            argv + extra, capture_output=True, text=True, env=env, preexec_fn=limit_address_space
        )
        assert out.returncode == 1, out.stderr
        assert "Traceback" not in out.stderr
        message = json.loads(out.stdout)["error"] if extra else out.stderr
        assert "8193792112 bytes (7.63 GiB)" in message
        assert "smaller prime" in message
