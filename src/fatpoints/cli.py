"""Command-line front end.

Subcommands compute dimensions of fat-point systems, run the reproduction
suites, classify self-maps by fiber census, and exercise the degeneration
checks. Exit status: 0 when every reported check passes, 1 when any fails,
2 on usage or spec-language errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from ._version import __version__
from .census import (
    CENSUS_PRIMES,
    DEFAULT_BUDGET,
    fiber_census,
    identifiability_verdict,
    map_from_system,
)
from .ffield import DEFAULT_PRIMES, check_modulus
from .grammar import SpecSemanticError, SpecSyntaxError, parse_spec
from .schemes import PrimeBoundError, dimension
from .suites import (
    check_expected,
    csv_summary,
    json_report,
    load_manifest,
    run_case,
    run_suite,
    suite_names,
)


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


class _Repeat(argparse.Action):
    """Repeatable option: the first use replaces the default, later uses extend."""

    def __call__(self, parser, namespace, value, option_string=None):
        given = getattr(namespace, self.dest)
        kept = [] if given is self.default else given
        setattr(namespace, self.dest, [*kept, value])


# each subcommand declares the options its command reads, by these keys
_OPTIONS = {
    "primes": ("--prime", dict(
        type=_prime, action=_Repeat, default=DEFAULT_PRIMES[:1], metavar="PRIME",
        help="working prime; repeatable (default 32003)")),
    "census_primes": ("--prime", dict(
        type=_prime, action=_Repeat, default=None, metavar="PRIME",
        help="census prime; repeatable (default: the two census primes of dimension n)")),
    "prime": ("--prime", dict(
        type=_prime, default=DEFAULT_PRIMES[0], help="working prime (default 32003)")),
    "seeds": ("--seed", dict(
        type=_seed, action=_Repeat, default=(0, 1, 2), metavar="SEED",
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
    sp.add_argument("--no-census", action="store_true",
                    help="skip the corroborating censuses")

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
    cases = []
    lines = []
    for text in args.spec:
        rep = dimension(parse_spec(text), args.primes, args.seeds)
        result = rep.as_dict()
        cases.append({"spec": text, "result": result,
                      "passed": check_expected({"unstable": False}, result)})
        tag = " special" if rep.special else ""
        tag += " UNSTABLE" if rep.unstable else ""
        lines.append(
            f"{text}: virtual={rep.virtual} expected={rep.expected} "
            f"computed={rep.computed}{tag}"
        )
    return {
        "spec": args.spec[0],
        "result": cases[0]["result"],
        "cases": cases,
        "observed": {"passed": [c["passed"] for c in cases]},
        "expected": {"passed": {"eq": True}},
        "lines": lines,
        "primes": args.primes,
        "seeds": args.seeds,
    }


def _cmd_seq(args):
    case = {"id": "seq", "op": "seq", "n": args.n, "d": args.d,
            "expected": {"properties": {"eq": True}}}
    rep = run_case(case, [], []).observed
    t = rep["table"]
    lines = [f"k({args.n},{args.d}) = {t['k']}", "  i    h    s    a"]
    for i, h, s, a in zip(t["i"], t["h"], t["s"], t["a"]):
        lines.append(f"{i:3d} {h:4d} {s:4d} {a if a is not None else '':>5}")
    props = rep["properties"]
    lines.append("properties: " + ", ".join(f"{k2}={v}" for k2, v in props.items()))
    return {"result": rep, "expected": case["expected"], "lines": lines}


def _cmd_cremona(args):
    spec = parse_spec(args.spec)
    primes = args.census_primes or list(CENSUS_PRIMES.get(spec.n, ()))
    if not primes:
        raise UsageError(f"no census primes for n={spec.n}; give --prime")
    cases = []
    lines = []
    for p in primes:
        c = fiber_census(map_from_system(spec, p, args.seed), args.budget)
        result = c.as_dict()
        cases.append({"prime": p, "result": result,
                      "passed": check_expected({"verdict": {"ne": "inconclusive"}}, result)})
        lines.append(
            f"{args.spec} @ p={p}: verdict={c.verdict} "
            f"fraction_unique={c.fraction_unique:.6f} image={c.image_size} "
            f"base={c.base_points}"
        )
    verdicts = [c["result"]["verdict"] for c in cases]
    if len(set(verdicts)) > 1:
        lines.append("PRIME DISAGREEMENT: " + ", ".join(sorted(set(verdicts))))
    return {
        "spec": args.spec,
        "result": cases[0]["result"],
        "cases": cases,
        # every prime passes, and all give one verdict
        "observed": {"passed": [c["passed"] for c in cases], "agree": len(set(verdicts)) == 1},
        "expected": {"passed": {"eq": True}, "agree": True},
        "lines": lines,
        "primes": primes,
        "seeds": [args.seed],
    }


def _cmd_identif(args):
    v = identifiability_verdict(
        args.n, args.d, corroborate=not args.no_census, budget=args.budget
    )
    tail = f", s = {v.s}" if v.s is not None else ""
    lines = [f"({args.n},{args.d}): {v.status}{tail}"]
    for c in v.censuses:
        lines.append(f"  census p={c.prime}: {c.verdict} "
                     f"(fraction_unique={c.fraction_unique:.6f})")
    return {
        "result": v.as_dict(),
        "cases": [c.as_dict() for c in v.censuses],
        # no census, nothing checked: corroborated is None and passes
        "expected": {"corroborated": {"ne": False}},
        "lines": lines,
        # identifiability_verdict runs its censuses at seed 0
        "primes": [c.prime for c in v.censuses],
        "seeds": [0] if v.censuses else [],
    }


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
    reads, expected, line = _COLLIDE[args.op]
    given = [key for key in ("d", "h") if getattr(args, key) is not None]
    if any(key not in given for key in reads):
        raise UsageError(f"--op {args.op} needs " + " and ".join(f"--{key}" for key in reads))
    unread = [key for key in given if key not in reads]
    if unread:
        raise UsageError(f"--op {args.op} does not read " + " or ".join(f"--{key}" for key in unread))
    case = {"id": args.op, "op": args.op, "n": args.n,
            **{key: getattr(args, key) for key in reads}, "expected": expected}
    rep = run_case(case, [args.prime], [args.seed]).observed
    shape = "is exactly a" if rep.get("exact") else "strictly contains the"
    return {"result": rep, "expected": expected, "lines": [line.format(**rep, shape=shape)],
            "primes": [args.prime], "seeds": [args.seed]}


def _cmd_castelnuovo(args):
    case = {"id": "castelnuovo", "op": "castelnuovo", "spec": args.spec,
            "expected": {"subadditive": True}}
    rep = run_case(case, args.primes, args.seeds).observed
    line = "h0: system={system} kernel={kernel} trace={trace} ".format(**rep["h0"])
    return {"spec": args.spec, "result": rep, "expected": case["expected"],
            "lines": [line + f"subadditive={rep['subadditive']}"],
            "primes": args.primes, "seeds": args.seeds}


def _summary(res):
    """A suite's pass count and run time, then one line per failed case."""
    ok = len(res.cases) - len(res.failures)
    return [f"{res.name}: {ok}/{len(res.cases)} passed ({res.elapsed:.1f}s)",
            *(f"  FAIL {cid}" for cid in res.failures)]


def _cmd_suite(args):
    # the manifest at --manifest (by default the packaged one); it must hold the named suites
    try:
        manifest = load_manifest(args.manifest)
    except OSError as exc:
        raise UsageError(f"cannot read manifest {args.manifest}: {exc.strerror}") from None
    unknown = [nm for nm in args.names if nm not in suite_names(manifest)]
    if unknown:
        raise UsageError(f"unknown suite(s): {', '.join(unknown)}")
    names = args.names or suite_names(manifest)
    results = [run_suite(nm, manifest, args.suite_budget) for nm in names]
    report = json_report(results)
    return {
        "result": report,
        "expected": {"passed": True},
        "lines": [line for res in results for line in _summary(res)],
        "csv": csv_summary(results),
        # dict keys keep run order and drop repeats
        "primes": list(dict.fromkeys(p for res in results for p in res.primes)),
        "seeds": list(dict.fromkeys(s for res in results for s in res.seeds)),
    }


_COMMANDS = {
    "dim": _cmd_dim,
    "seq": _cmd_seq,
    "cremona": _cmd_cremona,
    "identif": _cmd_identif,
    "collide": _cmd_collide,
    "castelnuovo": _cmd_castelnuovo,
    "suite": _cmd_suite,
}


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
        out = {"spec": None, "cases": [], "primes": [], "seeds": [], **_COMMANDS[args.cmd](args)}
    except (SpecSyntaxError, SpecSemanticError, UsageError, PrimeBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as exc:
        if args.json:
            print(json.dumps({**payload, "error": str(exc)}, sort_keys=True, indent=2))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    payload.update({key: out[key] for key in ("spec", "primes", "seeds", "result", "cases")})
    payload["timings"] = {"total": round(time.perf_counter() - t0, 3)}
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif "csv" in out and args.csv:
        print(out["csv"], end="")
    else:
        print("\n".join(out["lines"]))
    return 0 if check_expected(out["expected"], out.get("observed", out["result"])) else 1


if __name__ == "__main__":
    sys.exit(main())
