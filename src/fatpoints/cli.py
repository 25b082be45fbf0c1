"""Command-line front end.

Every subcommand is a one-suite run: it builds its cases (op, parameters and
expected values) and runs them with `suites.run_cases`; `suite` runs the
manifest's suites. The report is the suite report under `--json`, else each
case's observed values (for `suite`, its pass counts). Exit status: 0 when
every suite passes, 1 when a case fails or a computation is refused, 2 on
usage or spec-language errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from ._version import __version__
from .census import CENSUS_PRIMES, DEFAULT_BUDGET
from .ffield import DEFAULT_PRIMES, check_modulus
from .grammar import SpecSemanticError, SpecSyntaxError, parse_spec
from .schemes import PrimeBoundError
from .suites import csv_summary, json_report, load_manifest, run_cases, run_suite, suite_names


class UsageError(Exception):
    """Invocation problem that is neither a syntax nor a domain error."""


def _prime(text: str) -> int:
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid prime {text!r}") from None
    try:
        return check_modulus(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _number(convert, valid, rule):
    """An argparse type: convert the text, and refuse it unless valid."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value

    return parse


_seed = _number(int, lambda s: s >= 0, "seed must be a non-negative integer")
# NaN fails the comparison too, so it cannot switch the budget off
_budget = _number(float, lambda b: b > 0, "budget must be a positive number")


# each subcommand declares the options its command reads, by these keys
_OPTIONS = {
    "primes": ("--prime", dict(
        type=_prime, action="append", default=None, metavar="PRIME",
        help="working prime; repeatable (default 32003)")),
    "census_primes": ("--prime", dict(
        type=_prime, action="append", default=None, metavar="PRIME",
        help="census prime; repeatable (default: the two census primes of dimension n)")),
    "prime": ("--prime", dict(
        type=_prime, default=DEFAULT_PRIMES[0], help="working prime (default 32003)")),
    "seeds": ("--seed", dict(
        type=_seed, action="append", default=None, metavar="SEED",
        help="sampling seed; repeatable (default 0 1 2)")),
    "seed": ("--seed", dict(type=_seed, default=0, help="sampling seed (default 0)")),
    "budget": ("--budget", dict(
        type=_budget, default=DEFAULT_BUDGET, help="op budget for censuses")),
    "suite_budget": ("--budget", dict(
        type=_budget, default=None, help="op budget for every census case (default: each suite's)")),
    "csv": ("--csv", dict(action="store_true", help="emit a CSV summary")),
    "json": ("--json", dict(action="store_true", help="emit the JSON report")),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fatpoints",
        description="dimensions, censuses and limits of fat-point linear systems",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    def command(name, help, *options):
        sp = sub.add_parser(name, help=help)
        for key in (*options, "json"):
            flag, kwargs = _OPTIONS[key]
            sp.add_argument(flag, dest=key, **kwargs)
        return sp

    sp = command("dim", "computed vs expected dimension", "primes", "seeds")
    sp.add_argument("spec", nargs="+", help='system string, e.g. "L(2,4;2^5)"')

    sp = command("seq", "multiplicity count tables and their checks")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)

    sp = command("cremona", "fiber census of the attached self-map",
                 "census_primes", "seed", "budget")
    sp.add_argument("spec")

    sp = command("identif", "uniqueness of generic power decompositions", "budget")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)

    sp = command("collide", "point-collision experiments", "prime", "seed")
    sp.add_argument("--op", choices=["merge", "chords", "limit"], required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int)
    sp.add_argument("--h", type=int)

    sp = command("castelnuovo", "hyperplane restriction split", "primes", "seeds")
    sp.add_argument("spec")

    sp = command("suite", "run manifest suites", "csv", "suite_budget")
    sp.add_argument("names", nargs="*", help="suites to run (default: all the manifest's)")
    sp.add_argument("--manifest", help="alternate manifest path")

    return p


def _cmd_dim(args):
    cases = [{"id": text, "op": "dim", "spec": text, "expected": {"agree": True}}
             for text in args.spec]
    return [run_cases("dim", cases, args.primes or DEFAULT_PRIMES[:1], args.seeds or (0, 1, 2))]


def _cmd_seq(args):
    case = {"id": f"seq-{args.n}-{args.d}", "op": "seq", "n": args.n, "d": args.d,
            "expected": {"properties": {"eq": True}}}
    return [run_cases("seq", [case], [], [])]


def _cmd_cremona(args):
    spec = parse_spec(args.spec)
    primes = args.census_primes or list(CENSUS_PRIMES.get(spec.n, ()))
    if not primes:
        raise UsageError(f"no census primes for n={spec.n}; give --prime")
    # every prime gives a verdict, and all give the same one
    case = {"id": args.spec, "op": "census", "spec": args.spec, "primes": primes,
            "expected": {"verdicts": {"ne": "inconclusive"}, "agree": True}}
    return [run_cases("cremona", [case], primes, [args.seed], args.budget)]


def _cmd_identif(args):
    # no census, nothing checked: corroborated is None and passes
    case = {"id": f"identif-{args.n}-{args.d}", "op": "identif", "n": args.n, "d": args.d,
            "expected": {"corroborated": {"ne": False}}}
    return [run_cases("identif", [case], [], [], args.budget)]


# each collide op: the options it reads besides --n (by dest), the values it
# expects and its report line
_COLLIDE = {
    "merge": (("d",), {"dims_equal": True, "degree_identity_ok": True},
              "merge ({n},{d}): generic={generic_dim} limit={limit_dim} equal={dims_equal}"),
    "chords": ((), {"independent": True, "all_triples_collinear": True},
               "chords n={n}: rank={quadric_rank}/{points} "
               "collinear_triples={all_triples_collinear}"),
    "limit": (("d", "h"), {"within_bounds": True},
              "limit ({n},{d},{h}): mu={mu} lengths {double_length} vs "
              "{point_length} -> limit {shape} {mu}-fold point"),
}


def _cmd_collide(args):
    reads, expected, _ = _COLLIDE[args.op]
    given = [key for key in ("d", "h") if getattr(args, key) is not None]
    if any(key not in given for key in reads):
        raise UsageError(f"--op {args.op} needs " + " and ".join(f"--{key}" for key in reads))
    unread = [key for key in given if key not in reads]
    if unread:
        raise UsageError(f"--op {args.op} does not read " + " or ".join(f"--{key}" for key in unread))
    values = {key: getattr(args, key) for key in reads}
    case = {"id": "-".join(map(str, [args.op, args.n, *values.values()])), "op": args.op,
            "n": args.n, **values, "expected": expected}
    return [run_cases("collide", [case], [args.prime], [args.seed])]


def _cmd_castelnuovo(args):
    case = {"id": args.spec, "op": "castelnuovo", "spec": args.spec,
            "expected": {"subadditive": True}}
    return [run_cases("castelnuovo", [case], args.primes or DEFAULT_PRIMES[:1],
                      args.seeds or (0, 1, 2))]


def _cmd_suite(args):
    # the manifest at --manifest (by default the packaged one); it must hold the named suites
    try:
        manifest = load_manifest(args.manifest)
    except OSError as exc:
        raise UsageError(f"cannot read manifest {args.manifest}: {exc.strerror}") from None
    unknown = [nm for nm in args.names if nm not in suite_names(manifest)]
    if unknown:
        raise UsageError(f"unknown suite(s): {', '.join(unknown)}")
    return [run_suite(nm, manifest, args.suite_budget) for nm in args.names or suite_names(manifest)]


_COMMANDS = {
    "dim": _cmd_dim,
    "seq": _cmd_seq,
    "cremona": _cmd_cremona,
    "identif": _cmd_identif,
    "collide": _cmd_collide,
    "castelnuovo": _cmd_castelnuovo,
    "suite": _cmd_suite,
}


# ------------------------------------------------------------- text reports


def _dim_lines(case):
    o = case.observed
    tag = (" special" if o["special"] else "") + ("" if o["agree"] else " UNSTABLE")
    return [f"{case.params['spec']}: virtual={o['virtual']} expected={o['expected']} "
            f"computed={o['computed']}{tag}"]


def _seq_lines(case):
    t = case.observed["table"]
    lines = [f"k({t['n']},{t['d']}) = {t['k']}", "  i    h    s    a"]
    for i, h, s, a in zip(t["i"], t["h"], t["s"], t["a"]):
        lines.append(f"{i:3d} {h:4d} {s:4d} {a if a is not None else '':>5}")
    props = case.observed["properties"]
    return lines + ["properties: " + ", ".join(f"{k2}={v}" for k2, v in props.items())]


def _census_lines(case):
    o = case.observed
    lines = [f"{case.params['spec']} @ p={c['prime']}: verdict={c['verdict']} "
             f"fraction_unique={c['fraction_unique']:.6f} image={c['image_size']} "
             f"base={c['base_points']}" for c in o["censuses"]]
    if not o["agree"]:
        lines.append("PRIME DISAGREEMENT: " + ", ".join(sorted(set(o["verdicts"]))))
    return lines


def _identif_lines(case):
    o = case.observed
    tail = f", s = {o['s']}" if o["s"] is not None else ""
    return [f"({case.params['n']},{case.params['d']}): {o['status']}{tail}",
            *(f"  census p={c['prime']}: {c['verdict']} "
              f"(fraction_unique={c['fraction_unique']:.6f})" for c in o["censuses"])]


def _collide_lines(case):
    shape = "is exactly a" if case.observed.get("exact") else "strictly contains the"
    return [_COLLIDE[case.op][2].format(**case.observed, shape=shape)]


def _castelnuovo_lines(case):
    o = case.observed
    line = "h0: system={system} kernel={kernel} trace={trace} ".format(**o["h0"])
    return [line + f"subadditive={o['subadditive']}"]


# each op a subcommand runs: the text lines of one case
_LINES = {
    "dim": _dim_lines,
    "seq": _seq_lines,
    "census": _census_lines,
    "identif": _identif_lines,
    "merge": _collide_lines,
    "chords": _collide_lines,
    "limit": _collide_lines,
    "castelnuovo": _castelnuovo_lines,
}


def _summary(res):
    """A suite's pass count and run time, then one line per failed case."""
    ok = len(res.cases) - len(res.failures)
    return [f"{res.name}: {ok}/{len(res.cases)} passed ({res.elapsed:.1f}s)",
            *(f"  FAIL {cid}" for cid in res.failures)]


def _text(cmd, results):
    """`suite`'s pass counts, or the lines of each case another subcommand ran."""
    if cmd == "suite":
        return [line for res in results for line in _summary(res)]
    return [line for res in results for case in res.cases for line in _LINES[case.op](case)]


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: send the flush at exit to devnull, print no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    payload = {"tool_version": __version__, "subcommand": args.cmd}
    t0 = time.perf_counter()
    try:
        results = _COMMANDS[args.cmd](args)
    except (SpecSyntaxError, SpecSemanticError, UsageError, PrimeBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as exc:
        if args.json:
            print(json.dumps({**payload, "error": str(exc)}, sort_keys=True, indent=2))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    report = json_report(results)
    if args.json:
        payload.update(
            # dict keys keep run order and drop repeats
            primes=list(dict.fromkeys(p for res in results for p in res.primes)),
            seeds=list(dict.fromkeys(s for res in results for s in res.seeds)),
            result=report,
            timings={"total": round(time.perf_counter() - t0, 3)},
        )
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif args.cmd == "suite" and args.csv:
        print(csv_summary(results), end="")
    else:
        print("\n".join(_text(args.cmd, results)))
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
