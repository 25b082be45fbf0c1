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
from dataclasses import asdict

from ._version import __version__
from .census import (
    CENSUS_PRIMES,
    DEFAULT_BUDGET,
    fiber_census,
    identifiability_verdict,
    map_from_system,
)
from .collisions import collision1_check, indip_check, limit_multiplicity_check
from .ffield import DEFAULT_PRIMES, MAX_MODULUS
from .formulas import hs_sequences, verify_sequence_properties
from .grammar import SpecSemanticError, SpecSyntaxError, parse_spec
from .schemes import PrimeBoundError, castelnuovo_split, dimension
from .suites import (
    csv_summary,
    json_report,
    load_manifest,
    run_ah_suite,
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
    if p >= MAX_MODULUS:
        raise argparse.ArgumentTypeError(f"prime {p} must be below {MAX_MODULUS}")
    return p


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
        type=int, action=_Repeat, default=(0, 1, 2), metavar="SEED",
        help="sampling seed; repeatable (default 0 1 2)")),
    "seed": ("--seed", dict(type=int, default=0, help="sampling seed (default 0)")),
    "budget": ("--budget", dict(
        type=float, default=DEFAULT_BUDGET, help="op budget for censuses")),
    "suite_budget": ("--budget", dict(
        type=float, default=None, help="op budget for censuses (default: the manifest's)")),
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

    sp = command("ah", "double-point speciality grid", "csv")
    sp.add_argument("--n-max", type=int, help="largest n (default: the manifest's)")
    sp.add_argument("--d-max", type=int, help="largest d (default: the manifest's)")
    sp.add_argument("--manifest", help="alternate manifest path")

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
    sp.add_argument("names", nargs="*", help=f"subset of {', '.join(suite_names())}")
    sp.add_argument("--manifest", help="alternate manifest path")

    return p


def _cmd_dim(args):
    specs = [parse_spec(s) for s in args.spec]
    cases = []
    lines = []
    for text, spec in zip(args.spec, specs):
        rep = dimension(spec, args.primes, args.seeds)
        cases.append({"spec": text, "result": rep.as_dict(), "passed": not rep.unstable})
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
        "passed": all(c["passed"] for c in cases),
        "lines": lines,
        "primes": args.primes,
        "seeds": args.seeds,
    }


def _cmd_ah(args):
    manifest = load_manifest(args.manifest) if args.manifest else None
    res = run_ah_suite(args.n_max, args.d_max, manifest=manifest)
    lines = [f"ah grid: {len(res.cases) - len(res.failures)}/{len(res.cases)} passed"]
    lines += [f"  FAIL {cid}" for cid in res.failures]
    return {
        "spec": None,
        "result": {"passed": res.passed, "failures": list(res.failures)},
        "cases": [c.as_dict() for c in res.cases],
        "passed": res.passed,
        "lines": lines,
        "csv": csv_summary(res),
        "primes": res.primes,
        "seeds": res.seeds,
    }


def _cmd_seq(args):
    t = hs_sequences(args.n, args.d)
    props = verify_sequence_properties(t)
    lines = [f"k({args.n},{args.d}) = {t.k}", "  i    h    s    a"]
    for i in range(2, t.n + 1):
        a = t.a.get(i)
        lines.append(f"{i:3d} {t.h[i]:4d} {t.s[i]:4d} {a if a is not None else '':>5}")
    lines.append("properties: " + ", ".join(f"{k2}={v}" for k2, v in props.items()))
    return {
        "spec": None,
        "result": {"table": t.as_dict(), "properties": props},
        "cases": [],
        "passed": all(props.values()),
        "lines": lines,
        "primes": [],
        "seeds": [],
    }


def _cmd_cremona(args):
    spec = parse_spec(args.spec)
    primes = args.census_primes or list(CENSUS_PRIMES.get(spec.n, ()))
    if not primes:
        raise UsageError(f"no census primes for n={spec.n}; give --prime")
    cases = []
    lines = []
    for p in primes:
        m = map_from_system(spec, p, args.seed)
        c = fiber_census(m, args.budget)
        cases.append({"prime": p, "result": c.as_dict(), "passed": c.verdict != "inconclusive"})
        lines.append(
            f"{args.spec} @ p={p}: verdict={c.verdict} "
            f"fraction_unique={c.fraction_unique:.6f} image={c.image_size} "
            f"base={c.base_points}"
        )
    verdicts = {c["result"]["verdict"] for c in cases}
    passed = all(c["passed"] for c in cases) and len(verdicts) == 1
    if len(verdicts) > 1:
        lines.append("PRIME DISAGREEMENT: " + ", ".join(sorted(verdicts)))
    return {
        "spec": args.spec,
        "result": cases[0]["result"],
        "cases": cases,
        "passed": passed,
        "lines": lines,
        "primes": primes,
        "seeds": [args.seed],
    }


def _cmd_identif(args):
    v = identifiability_verdict(
        args.n, args.d, corroborate=not args.no_census, budget=args.budget
    )
    if v.status == "identifiable":
        corroborated = all(c.verdict == "birational" for c in v.censuses)
    elif v.status == "not-identifiable":
        # only positive evidence of a non-birational map counts
        corroborated = all(
            c.verdict == "fiber-type" or c.verdict.startswith("finite(")
            for c in v.censuses
        )
    else:
        corroborated = True
    tail = f", s = {v.s}" if v.s is not None else ""
    lines = [f"({args.n},{args.d}): {v.status}{tail}"]
    for c in v.censuses:
        lines.append(f"  census p={c.prime}: {c.verdict} "
                     f"(fraction_unique={c.fraction_unique:.6f})")
    return {
        "spec": None,
        "result": {**v.as_dict(), "corroborated": corroborated},
        "cases": [c.as_dict() for c in v.censuses],
        "passed": corroborated,
        "lines": lines,
        # identifiability_verdict runs its censuses at seed 0
        "primes": [c.prime for c in v.censuses],
        "seeds": [0] if v.censuses else [],
    }


def _cmd_collide(args):
    p, seed = args.prime, args.seed
    if args.op == "merge":
        if args.d is None:
            raise UsageError("--op merge needs --d")
        rep = collision1_check(args.n, args.d, p, seed)
        passed = rep.dims_equal and rep.degree_identity_ok
        line = (f"merge ({args.n},{args.d}): generic={rep.generic_dim} "
                f"limit={rep.limit_dim} equal={rep.dims_equal}")
    elif args.op == "chords":
        rep = indip_check(args.n, p, seed)
        passed = rep.independent and rep.all_triples_collinear
        line = (f"chords n={args.n}: rank={rep.quadric_rank}/{rep.points} "
                f"collinear_triples={rep.all_triples_collinear}")
    else:
        if args.d is None or args.h is None:
            raise UsageError("--op limit needs --d and --h")
        rep = limit_multiplicity_check(args.n, args.d, args.h, p, seed)
        passed = rep.deeper_point_dim <= rep.doubles_dim and (
            not rep.exact or rep.fat_point_dim == rep.doubles_dim
        )
        line = (f"limit ({args.n},{args.d},{args.h}): mu={rep.mu} "
                f"lengths {rep.double_length} vs {rep.point_length} -> {rep.summary}")
    return {
        "spec": None,
        "result": asdict(rep),
        "cases": [],
        "passed": passed,
        "lines": [line],
        "primes": [p],
        "seeds": [seed],
    }


def _cmd_castelnuovo(args):
    spec = parse_spec(args.spec)
    kernel, trace = castelnuovo_split(spec)
    h0 = {}
    for name, s in (("system", spec), ("kernel", kernel), ("trace", trace)):
        h0[name] = dimension(s, args.primes, args.seeds).computed + 1
    passed = h0["system"] <= h0["kernel"] + h0["trace"]
    return {
        "spec": args.spec,
        "result": {
            "kernel": kernel.to_dict(),
            "trace": trace.to_dict(),
            "h0": h0,
            "subadditive": passed,
        },
        "cases": [],
        "passed": passed,
        "lines": [
            f"h0: system={h0['system']} kernel={h0['kernel']} trace={h0['trace']} "
            f"subadditive={passed}"
        ],
        "primes": args.primes,
        "seeds": args.seeds,
    }


def _cmd_suite(args):
    manifest = load_manifest(args.manifest) if args.manifest else load_manifest()
    names = args.names or list(suite_names())
    bad = [nm for nm in names if nm not in suite_names()]
    if bad:
        raise UsageError(f"unknown suite(s): {', '.join(bad)}")
    results = []
    for nm in names:
        kwargs = {"budget": args.suite_budget} if nm == "theorem2" else {}
        results.append(run_suite(nm, manifest=manifest, **kwargs))
    report = json_report(results)
    lines = []
    for res in results:
        ok = len(res.cases) - len(res.failures)
        lines.append(f"{res.name}: {ok}/{len(res.cases)} passed ({res.elapsed:.1f}s)")
        lines += [f"  FAIL {cid}" for cid in res.failures]
    cases = [c for res in report["suites"] for c in res["cases"]]
    return {
        "spec": None,
        "result": report,
        "cases": cases,
        "passed": report["passed"],
        "lines": lines,
        "csv": csv_summary(results),
        # dict keys keep run order and drop repeats
        "primes": list(dict.fromkeys(p for res in results for p in res.primes)),
        "seeds": list(dict.fromkeys(s for res in results for s in res.seeds)),
    }


_COMMANDS = {
    "dim": _cmd_dim,
    "ah": _cmd_ah,
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
    t0 = time.perf_counter()
    try:
        out = _COMMANDS[args.cmd](args)
    except (SpecSyntaxError, SpecSemanticError, UsageError, PrimeBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        payload = {"tool_version": __version__, "subcommand": args.cmd,
                   "error": str(exc)}
        if args.json:
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = {
        "tool_version": __version__,
        "subcommand": args.cmd,
        "spec": out.get("spec"),
        "primes": list(out["primes"]),
        "seeds": list(out["seeds"]),
        "result": out["result"],
        "cases": out["cases"],
        "timings": {"total": round(time.perf_counter() - t0, 3)},
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif "csv" in out and args.csv:
        print(out["csv"], end="")
    else:
        print("\n".join(out["lines"]))
    return 0 if out["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
