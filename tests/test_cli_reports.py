"""The exit code, stderr and stdout of a fixed matrix of `fatpoints` runs,
and the report of every manifest suite.

`tests/data/cli_reports.json` pins the matrix. Timings are left out: every
`timings` and `elapsed` key is dropped from `--json` output, and the `(N.Ns)`
of `suite`'s text lines is masked. The matrix covers every subcommand in text
and `--json` form, the `--csv` forms, usage errors (exit 2), domain errors and
failed checks (exit 1). `tests/data/suite_report.json` pins `fatpoints suite
--json`, timings left out, with each case on one line. After a deliberate
change to a report, rewrite both files with

    PYTHONPATH=src python tests/test_cli_reports.py
"""

import contextlib
import functools
import io
import json
import re
from pathlib import Path

import pytest

from fatpoints.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli_reports.json"
SUITE_REPORT = DATA.parent / "suite_report.json"

MATRIX = [
    ["dim", "L(2,4;2^5)", "L(3,3;2^4)"],
    ["dim", "L(2,4;2^5)", "L(3,3;2^4)", "--json"],
    ["dim", "L(3,3;2^4)", "--prime", "32003", "--prime", "65521", "--seed", "0", "--seed", "1",
     "--json"],
    ["seq", "--n", "5", "--d", "4"],
    ["seq", "--n", "5", "--d", "4", "--json"],
    ["seq", "--n", "7", "--d", "4"],
    ["seq", "--n", "7", "--d", "4", "--json"],
    ["cremona", "L(2,2;2)", "--prime", "7"],
    ["cremona", "L(2,2;2)", "--json"],
    ["cremona", "L(2,7;2^11)", "--prime", "31", "--prime", "37"],
    ["cremona", "L(2,7;2^11)", "--prime", "31", "--prime", "37", "--json"],
    ["cremona", "L(2,4;2^5)"],
    ["cremona", "L(6,2;2)"],
    ["identif", "--n", "2", "--d", "4"],
    ["identif", "--n", "2", "--d", "5", "--json"],
    ["identif", "--n", "2", "--d", "7"],
    ["identif", "--n", "2", "--d", "7", "--json"],
    ["identif", "--n", "2", "--d", "3", "--budget", "1", "--json"],
    ["identif", "--n", "1", "--d", "5", "--budget", "10", "--json"],
    ["collide", "--op", "merge", "--n", "2", "--d", "4"],
    ["collide", "--op", "merge", "--n", "2", "--d", "4", "--json"],
    ["collide", "--op", "chords", "--n", "3"],
    ["collide", "--op", "chords", "--n", "3", "--json"],
    ["collide", "--op", "limit", "--n", "2", "--d", "7", "--h", "7"],
    ["collide", "--op", "limit", "--n", "2", "--d", "6", "--h", "3", "--json"],
    ["collide", "--op", "limit", "--n", "3", "--d", "4", "--h", "2", "--json"],
    ["collide", "--op", "merge", "--n", "2"],
    ["castelnuovo", "L(3,4;3@H2,2^3)"],
    ["castelnuovo", "L(3,4;3@H2,2^3)", "--json"],
    ["suite", "prop23", "section45"],
    ["suite", "prop23", "--json"],
    ["suite", "prop23", "--csv"],
    ["suite", "bogus"],
    ["dim", "L(2,4"],
    ["dim", "L(2,3;2@H5)"],
    ["dim", "L(2,4;2^5)", "--prime", "3"],
    ["dim", "L(2,4;2^5)", "--prime", "9"],
    ["dim", "L(2,4;1@H0,1[1@pt0]@H0)", "--prime", "7"],
    ["dim", "L(2,4;1@H0,1[1@pt0]@H0)", "--prime", "7", "--json"],
    ["seq", "--n", "2", "--d", "4", "--prime", "7"],
    [],
]

_SECONDS = re.compile(r"\(\d+\.\d+s\)")


def _drop_timings(value):
    if isinstance(value, dict):
        return {k: _drop_timings(v) for k, v in value.items() if k not in ("timings", "elapsed")}
    if isinstance(value, list):
        return [_drop_timings(v) for v in value]
    return value


def observe(argv: list[str]) -> dict:
    """Run the command in this process; its report with timings left out."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout = out.getvalue()
    if "--json" in argv and stdout:
        stdout = json.dumps(_drop_timings(json.loads(stdout)), sort_keys=True, indent=2) + "\n"
    elif argv[:1] == ["suite"]:
        stdout = _SECONDS.sub("(N.Ns)", stdout)
    return {"argv": argv, "exit": code, "stderr": err.getvalue(), "stdout": stdout}


@functools.cache
def _pinned() -> list[dict]:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("index", range(len(MATRIX)), ids=lambda i: " ".join(MATRIX[i]) or "-")
def test_cli_report_replays(index):
    pinned = _pinned()
    assert [r["argv"] for r in pinned] == MATRIX
    assert observe(MATRIX[index]) == pinned[index]


def render(value, key="", pad="") -> str:
    """JSON with sorted keys and a two-space indent, each case on one line."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        parts = [f"{json.dumps(k)}: {render(v, k, inner)}" for k, v in sorted(value.items())]
    elif isinstance(value, list) and any(isinstance(v, dict) for v in value):
        parts = [json.dumps(v, sort_keys=True) if key == "cases" else render(v, "", inner)
                 for v in value]
    else:
        return json.dumps(value, sort_keys=True)
    ends = "{}" if isinstance(value, dict) else "[]"
    return ends[0] + "\n" + ",\n".join(inner + part for part in parts) + "\n" + pad + ends[1]


def suite_report() -> str:
    """`fatpoints suite --json` as the pinned file holds it; every suite must pass."""
    run = observe(["suite", "--json"])
    assert run["exit"] == 0, run["stderr"]
    return render(json.loads(run["stdout"])) + "\n"


def test_suite_report_replays():
    assert suite_report() == SUITE_REPORT.read_text()


if __name__ == "__main__":
    DATA.write_text(json.dumps([observe(argv) for argv in MATRIX], indent=1) + "\n")
    SUITE_REPORT.write_text(suite_report())
