"""Wall time, peak RSS and exit code of fixed `fatpoints` runs; gates nothing.

The runs are every manifest suite, two large `dim` systems, `L(4,8;2^99)`
at p = 65537, the smallest prime whose monomial values come from power
tables rather than discrete logarithms, and under `cremona` the four
`census-deep` maps, `census-wide`'s p5-quadric@31, a line of 10^7 points and
L(2,3;1^7)@4999, whose 25M counts, half of them 2, are the histogram's dense
worst case. Each runs in a fresh process, and os.wait4 returns the rusage of
that child alone, so each peak is the run's own. Prints one line per run
and exits 0:

    python3 .github/probe_runs.py
"""

import os
import subprocess
import sys
import time
from pathlib import Path

SUITES = ("theorem2", "identifiability", "known", "ah", "prop23", "section45", "collisions",
          "sequences")
CENSUSES = (("L(4,4;2^13)", "31"), ("L(4,3;2^6)", "31"), ("L(3,3;2^4)", "131"),
            ("L(2,5;2^6)", "251"), ("L(5,2;2^3)", "31"), ("L(1,3;2)", "10000019"),
            ("L(2,3;1^7)", "4999"))
RUNS = [
    *(["suite", suite] for suite in SUITES),
    *(["dim", spec, "--seed", "0"] for spec in ("L(9,9;4)", "L(40,3;2)")),
    ["dim", "L(4,8;2^99)", "--prime", "65537", "--seed", "0"],
    *(["cremona", spec, "--prime", prime] for spec, prime in CENSUSES),
]


def main() -> int:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for args in RUNS:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "fatpoints", *args],
                                 stdout=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux
        print(f"fatpoints {' '.join(args)}: {wall:.2f} s, peak RSS {usage.ru_maxrss / 1024:.0f} MiB, "
              f"exit {child.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
