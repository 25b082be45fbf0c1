"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

import oracle
import run
from spans import Span, Tracer, covered, layer_metrics, self_times
from workloads import CheckFailed, Op, ah_grid, census_deep, wide_systems

fp = run.load_program()
MANIFEST = fp.suites.load_manifest()


def _op(ops, name):
    return next(op for op in ops if op.name == name)


# ------------------------------------------------- checks reject bad results


def test_off_by_one_dimension_is_rejected():
    op = _op(ah_grid(fp, MANIFEST), "ah-n2-d4-h5")
    rep = op.call()
    op.check(rep)
    for delta in (-1, 1):
        with pytest.raises(CheckFailed):
            op.check(dataclasses.replace(rep, computed=rep.computed + delta))


def test_wide_system_paper_value_is_enforced():
    op = _op(wide_systems(fp, MANIFEST), "cubic-unique")
    rep = op.call()
    op.check(rep)
    with pytest.raises(CheckFailed):
        op.check(dataclasses.replace(rep, computed=rep.computed + 1))


@pytest.fixture(scope="module")
def quintic():
    op = _op(census_deep(fp, MANIFEST), "plane-quintic@251")
    out = op.call()
    op.check(out)
    return op, out


def test_broken_conservation_is_rejected(quintic):
    op, (m, c) = quintic
    hist = dict(c.histogram)
    hist[1] += 1
    with pytest.raises(CheckFailed, match="cover the domain"):
        op.check((m, dataclasses.replace(c, histogram=hist, image_size=c.image_size + 1)))


def test_conserving_but_wrong_histogram_is_rejected(quintic):
    op, (m, c) = quintic
    big = max(c.histogram)
    hist = {1: c.histogram[1] - big, big: c.histogram[big] + 1}
    assert sum(s * f for s, f in hist.items()) == sum(s * f for s, f in c.histogram.items())
    with pytest.raises(CheckFailed, match="reference"):
        op.check((m, dataclasses.replace(c, histogram=hist, image_size=sum(hist.values()))))


def test_wrong_verdict_is_rejected(quintic):
    op, (m, c) = quintic
    with pytest.raises(CheckFailed, match="verdict"):
        op.check((m, dataclasses.replace(c, verdict="fiber-type")))


def test_forms_that_are_not_double_are_rejected(quintic):
    op, (m, c) = quintic
    coeffs = m.coeffs.copy()
    coeffs[0, 0] = (coeffs[0, 0] + 1) % m.prime
    with pytest.raises(CheckFailed, match="not double"):
        op.check((dataclasses.replace(m, coeffs=coeffs), c))


# ------------------------------------------------------------ the reference


def test_ah_reference_values():
    assert oracle.ah_dimension(2, 4, 5) == 0  # sporadic
    assert oracle.ah_dimension(3, 2, 2) == 2  # quadrics singular along a line
    assert oracle.ah_dimension(3, 3, 4) == 3
    assert oracle.ah_dimension(4, 8, 99) == -1
    assert oracle.virtual_dimension(2, 4, [2] * 5) == -1


def test_reference_histogram_matches_program_on_a_pencil():
    spec = fp.schemes.double_points(1, 3, 1)
    m = fp.census.map_from_system(spec, 499, 0)
    c = fp.census.fiber_census(m)
    points = fp.schemes.sample(spec, 499, 0).points
    ref = oracle.fiber_histogram(1, 3, points, 499)
    assert ref["histogram"] == {str(s): f for s, f in sorted(c.histogram.items())}
    assert (ref["base_points"], ref["image_size"]) == (c.base_points, c.image_size)


# ------------------------------------------------------- spans and self time


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 3.0, 0),
        Span("b", 2.0, 4.0, 0),  # overlaps its sibling: counted once
        Span("c", 9.0, 12.0, 0),  # runs past its parent: clipped
        Span("d", 1.5, 2.5, 1),
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 1, 1.0, 2.0, 3.0, 1.0])
    assert covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_layer_metrics_on_synthetic_spans():
    spans = [
        Span("schemes.dimension", 0.0, 8.0, -1),
        Span("schemes.condition_matrix", 0.0, 5.0, 0),
        Span("schemes.sample", 0.0, 1.0, 1),
        Span("ffield.rank", 5.0, 7.0, 0),
    ]
    counts = Counter({"schemes.rows": 8, "ffield.entries": 40, "ffield.rows": 8, "ffield.rank_sum": 6})
    got = {k: v for k, (v, _) in layer_metrics(spans, counts, rounds=2).items()}
    assert got["monomials.rows.s"] == pytest.approx(2.0)  # (5 - 1) / 2 rounds
    assert got["monomials.rows_per_s"] == pytest.approx(2.0)  # 8 rows / 4 s
    assert got["schemes.rows"] == 4
    assert got["ffield.rank.s"] == pytest.approx(1.0)
    assert got["ffield.entries_per_s"] == pytest.approx(20.0)
    assert got["ffield.pivot_ratio"] == pytest.approx(0.75)
    assert got["schemes.dimension.s"] == pytest.approx(4.0)
    assert got["census.points_per_s"] == 0.0


def test_tracer_wraps_lookups_and_restores_them():
    original = fp.schemes.condition_matrix
    tracer = Tracer()
    tracer.install()
    try:
        assert fp.schemes.condition_matrix is not original
        assert fp.census.condition_matrix is fp.schemes.condition_matrix
        fp.schemes.dimension(fp.schemes.double_points(2, 3, 2), (32003,), (0,))  # inactive
        assert tracer.spans == []
        tracer.active = True
        fp.schemes.dimension(fp.schemes.double_points(2, 3, 2), (32003,), (0,))
    finally:
        tracer.active = False
        tracer.uninstall()
    assert fp.schemes.condition_matrix is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "schemes.dimension"
    assert {"schemes.condition_matrix", "schemes.sample", "ffield.rank"} <= set(names)
    assert tracer.counts["schemes.rows"] == 6 and tracer.counts["schemes.trials"] == 1


# ------------------------------------------------------- failure accounting


def _fail(message):
    raise CheckFailed(message)


def _unit():
    return 1.0


def test_raising_op_counts_as_failed_and_run_goes_on():
    calls = []

    def boom():
        raise RuntimeError("boom")

    ops = [
        Op("raises", boom, lambda out: None),
        Op("wrong", lambda: 1, lambda out: _fail("wrong answer")),
        Op("known", lambda: 1, lambda out: _fail("overflow"), fault="some-fault"),
        Op("fine", lambda: calls.append(1), lambda out: None),
    ]
    res = run.measure(ops, seconds=0, tracer=None, reference=_unit)
    assert len(res.op_s) == 4 and calls == [1]
    assert sum(res.failures.values()) == 3
    assert res.unknown == 2
    assert res.failures["some-fault"] == 1
    assert any(label.startswith("raises: raised RuntimeError") for label in res.failures)


def test_overflow_op_is_a_known_fault():
    op = _op(ah_grid(fp, MANIFEST), f"ah-n2-d4-h5-p{4294967311}")
    assert op.fault == "int64-overflow-modulus"
    op.check(ValueError("modulus out of range"))  # a refusal passes
    elapsed, failure, known = run.run_op(op, None)
    assert (failure, known) in ((None, False), ("int64-overflow-modulus", True))


def test_whole_rounds_keep_failure_share_fixed():
    ops = [Op("a", lambda: 0, lambda out: None),
           Op("b", lambda: 1, lambda out: _fail("x"), fault="f")]
    res = run.measure(ops, seconds=0.01, tracer=None, reference=_unit)
    assert len(res.op_s) == 2 * len(res.round_s)
    assert sum(res.failures.values()) == len(res.round_s)


def test_traced_runs_alternate_and_end_on_a_traced_round():
    tracer = Tracer()
    res = run.measure([Op("a", lambda: 1, lambda out: None)], seconds=0, tracer=tracer,
                      reference=_unit)
    assert res.traced == [False, True]
    assert run.measure([Op("a", lambda: 1, lambda out: None)], 0, None, _unit).traced == [False]


# ------------------------------------------------------ reference units


def test_each_op_is_tied_to_the_reference_time_of_its_round():
    times = iter([2.0, 4.0, 6.0])
    ops = [Op("a", lambda: 0, lambda out: None), Op("b", lambda: 1, lambda out: None)]
    res = run.measure(ops, seconds=0, tracer=Tracer(), reference=lambda: next(times))
    assert res.round_unit == [2.0, 4.0]
    assert res.op_round == [0, 0, 1, 1]


def test_every_workload_has_a_reference_kernel():
    from workloads import EXTRA_WORKLOADS, REFERENCE_KIND, WORKLOADS

    assert set(REFERENCE_KIND) == set(WORKLOADS) | set(EXTRA_WORKLOADS)
    for kind in set(REFERENCE_KIND.values()):
        reference = run.Reference(kind)
        assert all(reference() > 0 for _ in range(2))
