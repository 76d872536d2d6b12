"""Tests of the benchmark itself: its checkers, its inputs and its tracer.

    python3 -m pytest perfbench -q

They run each workload's round on a handful of inputs, so they take a few
seconds, far less than one timed run.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

import run

run._import_zebu()

import spans  # noqa: E402
import workloads  # noqa: E402
from zebu import engine  # noqa: E402
from zebu.engine import ABSENT, Reason, ReasonCode, RawSlice, U32, Verdict  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def setup():
    return workloads.Setup((run.ROOT / workloads.SPEC).read_text())


def _round(workload, timings=None):
    timings = timings or run.Timings()
    outputs = run.run_round(workload, timings, lambda: None)
    errors, failed = workload.check_round(outputs)
    return timings.lat, outputs, errors + workload.final_check(), failed


# --- inputs ------------------------------------------------------------------

def test_inputs_are_byte_identical_for_a_seed(setup):
    def raws(seed):
        return ([c.raw for c in workloads.make_select_inputs(seed, 12)]
                + [c.raw for c in workloads.make_mixed_inputs(setup.ag, seed, 4)]
                + [c.raw for c in workloads.make_long_inputs(seed)])

    first = raws(7)
    assert raws(7) == first
    assert raws(8) != first


def test_long_messages_do_not_depend_on_the_seed():
    def long(seed):
        return sorted(c.raw for c in workloads.make_long_inputs(seed)
                      if c.count in workloads.LONG_LONG_COUNTS)

    assert long(1) == long(2)
    assert len(long(1)) == len(workloads.LONG_SITES) * len(workloads.LONG_LONG_COUNTS)


def test_every_long_batch_holds_one_message_past_the_ceiling():
    cases = workloads.make_long_inputs(5)
    batches = [cases[i:i + workloads.LONG_BATCH]
               for i in range(0, len(cases), workloads.LONG_BATCH)]
    assert [sum(c.count >= 1000 for c in b) for b in batches] == [1] * 6


def test_select_inputs_spread_width_and_shares():
    cases = workloads.make_select_inputs(3, 400)
    assert min(c.width for c in cases) == 0
    assert max(c.width for c in cases) == workloads.SELECT_MAX_WIDTH
    assert sum(c.host is None for c in cases) == 80
    assert {c.expected_exec for c in cases} == {2, 3, 4, 5}


# --- rounds and checkers -------------------------------------------------------

def test_select_round_is_correct_and_checker_catches_wrong_values(setup):
    workload = workloads.SelectWide(setup, 1, n=20)
    lat, outputs, errors, failed = _round(workload)
    assert (len(lat), errors, failed) == (20, [], 0)

    i = next(k for k, c in enumerate(workload.cases) if c.host is not None)
    case = workload.cases[i]
    kind, host, number, execs, lazy = outputs[i]
    wrong_host = RawSlice(b"x" + case.host, 0, len(case.host) + 1)
    for observed in ((kind, wrong_host, number, execs, lazy),
                     (kind, ABSENT, number, execs, lazy),
                     (kind, host, U32(case.number + 1), execs, lazy),
                     (kind, host, number, execs + 1, lazy)):
        assert workloads.check_select(case, observed) is not None


def test_mixed_round_is_correct_and_checker_catches_wrong_verdicts(setup):
    workload = workloads.ValidateMixed(setup, 1, n=8)
    assert {c.valid for c in workload.cases} == {True, False}
    lat, outputs, errors, failed = _round(workload)
    assert (len(lat), errors, failed) == (8, [], 0)
    for case, accepted in zip(workload.cases, outputs):
        assert workloads.check_verdict(case, not accepted) is not None


def test_long_checkers(setup):
    rng = workloads.random.Random(0)
    case = workloads.make_long_message(rng, "to", 50)
    verdict = engine.validate(setup.grammar, case.raw)
    assert workloads.check_long_verdict(case, verdict) == (None, False)
    assert workloads.check_long_fields(setup.grammar, case) is None

    budget = Verdict(False, [Reason(ReasonCode.BUDGET, "Via", "budget")])
    syntax = Verdict(False, [Reason(ReasonCode.SYNTAX, "Via", "syntax")])
    assert workloads.check_long_verdict(case, budget) == (None, True)
    assert workloads.check_long_verdict(case, syntax)[0] is not None

    wrong = workloads.LongCase(case.raw, case.site, case.count,
                               (("CSeq.number", U32(-1)),))
    assert workloads.check_long_fields(setup.grammar, wrong) is not None


def test_campaign_round_and_checker(setup):
    workload = workloads.Campaign(setup, 1, n=4)
    lat, report, errors, failed = _round(workload)
    assert (len(lat), errors, failed) == (4, [], 0)
    assert workload.sample

    bad = SimpleNamespace(missed=1, false_rejects=1, total=3,
                          per_rule={"charset": SimpleNamespace(emitted=3)})
    assert len(workloads.check_campaign(bad, 4)) == 3

    workload.sample[0] = b"tampered"
    assert workload.final_check()


# --- metrics and tracing ------------------------------------------------------------

def test_set_up_repeats_and_checks_the_artifact(setup):
    setup.repeat()
    assert len(setup.totals_s) >= 2
    assert all(len(times) == len(setup.totals_s) for times in setup.phases_s.values())


def test_end_to_end_metrics_match_benchmark_json(setup):
    timings = run.Timings(list(range(1, 200)), [1.0, 2.0], [1.0, 1.0])
    metrics = run.end_to_end_metrics(timings, setup)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()}
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_round_yields_every_per_layer_metric(setup):
    originals = [getattr(owner, attr) for owner, attr, _, _ in spans.TARGETS]
    tracer = spans.Tracer()
    workload = workloads.Campaign(setup, 2, n=3)
    traced = run.Timings()
    tracer.install()
    try:
        _, _, errors, _ = _round(workload, traced)
    finally:
        tracer.uninstall()
    assert errors == []
    assert [getattr(owner, attr) for owner, attr, _, _ in spans.TARGETS] == originals

    names = {span[spans.NAME] for span in tracer.spans}
    assert {"mutate.make_mutant", "engine.validate", "pattern.match_full",
            "refcheck.reference_validate"} <= names
    plain = run.Timings([1.0], [2.0], [1.0])
    traced.rates = [1.0]
    metrics = spans.layer_metrics(tracer.spans, traced, plain, 1, workload.counters(), setup)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()}
    assert metrics["refcheck.calls_per_mutant"][0] >= 1
    assert metrics["trace.overhead_pct"][0] == pytest.approx(50.0)
