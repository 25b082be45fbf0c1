"""In-memory spans and counters for the traced run.

The tracer wraps public fatpoints functions from outside the program: each
wrapper replaces the function under every name a fatpoints module looks it up
by, records a span (name, start, end, parent) while the tracer is active, and
adds the call's work counts. `layer_metrics` turns spans and counts into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span


def _rank_counts(c: Counter, m, rank: int) -> None:
    c["ffield.entries"] += m.rows * m.cols
    c["ffield.rows"] += m.rows
    c["ffield.rank_sum"] += rank


def _count_rank(c, args, out):
    _rank_counts(c, args[0], out)


def _count_kernel(c, args, out):
    _rank_counts(c, args[0], args[0].cols - len(out))


def _count_rows(c, args, out):
    c["schemes.rows"] += out.rows


def _count_trials(c, args, out):
    c["schemes.trials"] += len(out.trials)


def _count_values(c, args, out):
    c["monomials.evaluated_values"] += out.size


def _count_census(c, args, out):
    c["census.points"] += out.domain_size
    c["census.image_points"] += out.image_size
    c["census.base_points"] += out.base_points


# (module, function) -> (span name, counter hook, modules whose lookups are wrapped)
# None for the modules means every fatpoints module that imports the function.
TARGETS = {
    ("schemes", "dimension"): ("schemes.dimension", _count_trials, None),
    ("schemes", "sample"): ("schemes.sample", None, None),
    ("schemes", "condition_matrix"): ("schemes.condition_matrix", _count_rows, None),
    ("ffield", "rank"): ("ffield.rank", _count_rank, None),
    ("ffield", "kernel_basis"): ("ffield.kernel_basis", _count_kernel, None),
    ("census", "map_from_system"): ("census.map_from_system", None, None),
    ("census", "fiber_census"): ("census.fiber_census", _count_census, None),
    ("monomials", "evaluate_basis"): ("census.eval", _count_values, ("census",)),
    ("grammar", "parse_spec"): ("grammar.parse_spec", None, None),
}


class Tracer:
    """Records spans and counts only while `active` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx].end = time.perf_counter()
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    def install(self) -> None:
        modules = {
            name.removeprefix("fatpoints."): mod
            for name, mod in list(sys.modules.items())
            if name.startswith("fatpoints.") and mod is not None
        }
        for (home, fname), (span, count, scope) in TARGETS.items():
            original = getattr(modules[home], fname)
            traced = self.wrap(span, original, count)
            for short, mod in modules.items():
                if scope is not None and short not in scope:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def dump(self) -> dict:
        return {
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
            "counts": dict(self.counts),
        }


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        inside = [(max(a, s.start), min(b, s.end)) for a, b in children.get(i, [])]
        out.append(s.end - s.start - covered([iv for iv in inside if iv[1] > iv[0]]))
    return out


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], counts: Counter, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per round of the workload: name -> (value, unit).

    Inclusive times take the union of a name's spans, so a call nested in a
    call of the same name is not counted twice.
    """
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    intervals: dict[str, list[tuple[float, float]]] = {}
    for s, own in zip(spans, selfs):
        calls[s.name] += 1
        self_s[s.name] += own
        intervals.setdefault(s.name, []).append((s.start, s.end))

    def incl(name: str) -> float:
        return covered(intervals.get(name, []))

    per = 1.0 / rounds
    rows_s = self_s["schemes.condition_matrix"]
    elim_s = incl("ffield.rank") + incl("ffield.kernel_basis")
    census_s = incl("census.fiber_census")
    eval_s = incl("census.eval")
    s, n = "s", "count"
    return {
        "monomials.rows.s": (rows_s * per, s),
        "monomials.rows_per_s": (_rate(counts["schemes.rows"], rows_s), "1/s"),
        "schemes.rows": (counts["schemes.rows"] * per, n),
        "ffield.rank.calls": (calls["ffield.rank"] * per, n),
        "ffield.rank.s": (incl("ffield.rank") * per, s),
        "ffield.kernel_basis.calls": (calls["ffield.kernel_basis"] * per, n),
        "ffield.kernel_basis.s": (incl("ffield.kernel_basis") * per, s),
        "ffield.entries": (counts["ffield.entries"] * per, n),
        "ffield.entries_per_s": (_rate(counts["ffield.entries"], elim_s), "1/s"),
        "ffield.pivot_ratio": (_rate(counts["ffield.rank_sum"], counts["ffield.rows"]), "ratio"),
        "schemes.dimension.calls": (calls["schemes.dimension"] * per, n),
        "schemes.dimension.s": (incl("schemes.dimension") * per, s),
        "schemes.trials": (counts["schemes.trials"] * per, n),
        "schemes.sample.s": (incl("schemes.sample") * per, s),
        "census.map_from_system.s": (self_s["census.map_from_system"] * per, s),
        "census.fiber_census.s": (census_s * per, s),
        "census.eval.s": (eval_s * per, s),
        "census.bucket.s": (self_s["census.fiber_census"] * per, s),
        "census.points": (counts["census.points"] * per, n),
        "census.points_per_s": (_rate(counts["census.points"], census_s), "1/s"),
        "census.image_points": (counts["census.image_points"] * per, n),
        "census.base_points": (counts["census.base_points"] * per, n),
        "monomials.evaluated_values": (counts["monomials.evaluated_values"] * per, n),
        "monomials.values_per_s": (_rate(counts["monomials.evaluated_values"], eval_s), "1/s"),
        "grammar.parse_spec.calls": (calls["grammar.parse_spec"] * per, n),
        "grammar.parse_spec.s": (incl("grammar.parse_spec") * per, s),
    }
