"""Benchmark of fatpoints' dimension and census paths.

    python3 perfbench/run.py                       # all workloads, one process each
    python3 perfbench/run.py --workload ah-grid --seed 3 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from `src/`. A run
sets its workload up, then runs whole rounds of the workload's ops (a closed
loop, one op after another) until `--seconds` have passed, checks every
result, and prints one JSON object as its last line. Between ops it times a
fixed reference kernel that uses nothing of fatpoints, and reports op and
round times in units of that kernel's time, so that a change in the speed of
the machine cancels out. `--trace 0` reports the end-to-end metrics,
`--trace 1` the per-layer metrics of a traced run and writes its spans to
`.perfbench_out/`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7  # setups per run: this process plus fresh child processes
CHILD_TIMEOUT_S = 600
REFERENCE_EVERY_S = 0.25  # time the reference kernel after the op that ends this long since the last
REFERENCE_SLOT_S = 0.01  # each time, run it until this much of it has been timed

# no more BLAS threads than the CPUs this process may use
os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import EXTRA_WORKLOADS, REFERENCE_KIND, WORKLOADS, CheckFailed  # noqa: E402


def load_program() -> SimpleNamespace:
    """Import fatpoints from this checkout's `src/`, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fatpoints
        from fatpoints import census, collisions, ffield, formulas, grammar, monomials, schemes, suites
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fatpoints from {src}: {exc}")
    if not Path(fatpoints.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: fatpoints came from {fatpoints.__file__}, not {src}")
    return SimpleNamespace(census=census, collisions=collisions, ffield=ffield, formulas=formulas,
                           grammar=grammar, monomials=monomials, schemes=schemes, suites=suites)


def set_up(workload: str, seed: int):
    """Import, manifest load and input construction; the seed orders the ops."""
    t0 = time.perf_counter()
    fp = load_program()
    ops = {**WORKLOADS, **EXTRA_WORKLOADS}[workload](fp, fp.suites.load_manifest())
    random.Random(seed).shuffle(ops)
    return ops, time.perf_counter() - t0


def child_setup_seconds(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(out.stdout.split()[-1])


class Reference:
    """A fixed kernel that uses nothing of fatpoints; calling it times one run.

    The processor's speed drifts by tens of percent within a minute on a
    shared host, and not alike for all code: pure-Python loops slow down more
    than numpy's array passes. So each workload gets a kernel of the shape of
    its own work, and a time divided by the kernel's time nearby keeps the
    program's cost while the machine's speed cancels out.

    "rows": a pure-Python loop over 210 exponent tuples that reads a small
    int64 power table and writes an int64 row, like condition-row building,
    then an int64 matmul mod p, row keys and `np.unique` over 21845 points,
    like elimination's array passes; the two take about equal time.
    "census": an int64 gather and multiply mod p over 4096 points and 56
    columns, row keys and `np.unique`, like evaluation and bucketing.
    """

    P = 32003

    def __init__(self, kind: str):
        # imported here so that `--setup-only` children count numpy's import in set-up
        import numpy as np

        self.np = np
        self.run = {"rows": self._rows, "census": self._census}[kind]
        self.exps = tuple(e for e in itertools.product(range(7), repeat=5) if sum(e) == 6)
        self.pw = np.array([[pow(x, e, self.P) for e in range(7)] for x in (3, 17, 29, 101, 7)],
                           dtype=np.int64)
        rng = np.random.default_rng(0)
        self.pts = rng.integers(0, 31, (21845, 21))
        self.coeffs = rng.integers(0, 31, (21, 6))
        self.small = rng.integers(0, 31, (4096, 6))
        self.steps = rng.integers(0, 6, (2, 56))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0

    def _rows(self) -> None:
        np, p, pw = self.np, self.P, self.pw
        row = np.empty(len(self.exps), dtype=np.int64)
        for r in range(15):
            alpha = tuple(int(i == r % 5) for i in range(5))
            for j, beta in enumerate(self.exps):
                v = 1
                for i, (b, a) in enumerate(zip(beta, alpha)):
                    if b < a:
                        v = 0
                        break
                    v = v * (b if a else 1) % p * int(pw[i, b - a]) % p
                row[j] = v
        image = self.pts @ self.coeffs % 31
        np.unique(image @ (31 ** np.arange(6)))

    def _census(self) -> None:
        np, p = self.np, self.P
        vals = self.small[:, self.steps[0]] * self.small[:, self.steps[1]] % 31
        np.unique(vals @ (31 ** np.arange(56) % p) % p)


def run_op(op, tracer: Tracer | None):
    """Time one op, then check it: (seconds, failure label or None, known fault?)."""
    out, failure = None, None
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # a raising op is a failed op; the run goes on
        failure = f"{op.name}: raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    if failure is not None:
        return elapsed, failure, False
    try:
        op.check(out)
    except CheckFailed as exc:
        if op.fault is not None:
            return elapsed, op.fault, True
        return elapsed, f"{op.name}: {exc}", False
    return elapsed, None, False


def reference_slot(reference) -> list[float]:
    """Times of `reference` run until REFERENCE_SLOT_S of it have passed."""
    times = [reference()]
    while sum(times) < REFERENCE_SLOT_S:
        times.append(reference())
    return times


def measure(ops, seconds: float, tracer: Tracer | None, reference):
    """Whole rounds of every op until `seconds` have passed.

    `reference` (a `Reference`) is timed in a slot at the start of each round
    and after each op that ends at least REFERENCE_EVERY_S after the last slot.
    `round_unit` is the median of a round's reference times, and `op_round`
    gives each op's round. With a tracer, rounds alternate untraced and
    traced and the run ends on a traced round, so tracing overhead is
    measured in pairs in one process.
    """
    round_s, round_unit, traced, op_s, op_round = [], [], [], [], []
    failures, unknown = Counter(), 0
    start = time.perf_counter()
    while True:
        tracing = tracer is not None and len(round_s) % 2 == 1
        total, units = 0.0, reference_slot(reference)
        last = time.perf_counter()
        for op in ops:
            elapsed, failure, known = run_op(op, tracer if tracing else None)
            total += elapsed
            op_s.append(elapsed)
            op_round.append(len(round_s))
            if failure is not None:
                failures[failure] += 1
                unknown += not known
            if time.perf_counter() - last >= REFERENCE_EVERY_S:
                units += reference_slot(reference)
                last = time.perf_counter()
        round_s.append(total)
        round_unit.append(statistics.median(units))
        traced.append(tracing)
        if time.perf_counter() - start >= seconds and (tracer is None or tracing):
            break
    return SimpleNamespace(round_s=round_s, round_unit=round_unit, traced=traced, op_s=op_s,
                           op_round=op_round, failures=failures, unknown=unknown)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    ops, own_setup = set_up(args.workload, args.seed)
    if args.setup_only:
        print(own_setup)
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        res = measure(ops, args.seconds, tracer, Reference(REFERENCE_KIND[args.workload]))
    finally:
        if tracer is not None:
            tracer.uninstall()
    plain = [i for i, tr in enumerate(res.traced) if not tr]
    plain_ref = [res.round_s[i] / res.round_unit[i] for i in plain]
    plain_ops = [t for t, r in zip(res.op_s, res.op_round) if not res.traced[r]]
    seen = {
        "wall_s": (statistics.median(res.round_s[i] for i in plain), "s"),
        "op_p50_ms": (statistics.median(plain_ops) * 1e3, "ms"),
        "reference_ms": (statistics.median(res.round_unit[i] for i in plain) * 1e3, "ms"),
    }
    if tracer is None:
        setups = [own_setup] + [child_setup_seconds(args.workload, args.seed)
                                for _ in range(SETUP_REPEATS - 1)]
        op_ref = [t / res.round_unit[r] for t, r in zip(res.op_s, res.op_round)]
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_ref": metric(statistics.median(plain_ref), "ref"),
            "op_p50_ref": metric(statistics.median(op_ref), "ref"),
            "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        traced = [i for i, tr in enumerate(res.traced) if tr]
        metrics = {name: metric(v, unit) for name, (v, unit)
                   in layer_metrics(tracer.spans, tracer.counts, len(traced)).items()}
        metrics["trace.wall_s"] = metric(statistics.median(res.round_s[i] for i in traced), "s")
        traced_ref = [res.round_s[i] / res.round_unit[i] for i in traced]
        overhead = statistics.median(traced_ref) / statistics.median(plain_ref) - 1
        metrics["trace.overhead_pct"] = metric(100 * overhead, "%")
        OUT_DIR.mkdir(exist_ok=True)
        dump = {"workload": args.workload, "seed": args.seed, "rounds": len(traced),
                **tracer.dump()}
        (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(dump))
    for name, (value, unit) in seen.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}  (untraced rounds, not normalised)")
    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  rounds = {len(res.round_s)}, ops per round = {len(ops)}")
    for label, count in sorted(res.failures.items()):
        print(f"{args.workload}  FAILED x{count}: {label}")
    print(json.dumps({
        "correct": res.unknown == 0,
        "attempted": len(res.op_s),
        "failed": sum(res.failures.values()),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        print(f"{name}  attempted = {result['attempted']}, failed = {result['failed']}, "
              f"correct = {result['correct']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS, *EXTRA_WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
