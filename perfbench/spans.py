"""Spans for the traced run, recorded at zebu's layer boundaries.

The tracer replaces the module attributes through which each layer is
called with wrappers that record one span (name, start, end, parent) per
call, keeps the spans in memory, and restores the attributes afterwards.
Nothing inside zebu changes; untraced rounds run the original functions.
"""

from __future__ import annotations

import csv
import statistics
import time
from collections import defaultdict

from zebu import engine, mutate, refcheck

FAMILY_PREFIX = "mutate.mutate_"

# (owner, attribute, span name, size of the subject from the arguments)
TARGETS = (
    (engine, "index_message", "engine.index_message", None),
    (engine, "match_full", "pattern.match_full", lambda args: len(args[1])),
    (engine, "validate", "engine.validate", None),
    (engine.ParsedMessage, "select", "engine.select", None),
    (mutate, "make_mutant", "mutate.make_mutant", None),
    (mutate, "mutate_charset", FAMILY_PREFIX + "charset", None),
    (mutate, "mutate_repetition", FAMILY_PREFIX + "repetition", None),
    (mutate, "mutate_constraint", FAMILY_PREFIX + "constraint", None),
    (mutate, "mutate_torture", FAMILY_PREFIX + "torture", None),
    (refcheck, "reference_validate", "refcheck.reference_validate", None),
)

# span fields
NAME, START, END, PARENT, SIZE, ERROR = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, size=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1,
                    size(args) if size else 0, ""]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for owner, attr, name, size in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, size))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_ns", "end_ns", "parent", "size", "error"))
            for i, span in enumerate(self.spans):
                out.writerow((i, *span))


def layer_metrics(spans: list, traced, plain, rounds: int, counters: dict,
                  setup) -> dict:
    """Per-layer metrics from the spans of the traced rounds.

    `traced` and `plain` are the Timings of the traced and untraced rounds,
    `rounds` the number of traced rounds, and `counters` the workload's
    session counters. Span times are divided by the median slowdown of the
    traced batches. A layer that a workload does not exercise reads 0."""
    ops, op_ns = len(traced.lat), sum(traced.lat)
    traced_slowdown = statistics.median(traced.slowdowns)
    calls = defaultdict(int)
    busy = defaultdict(int)
    under = defaultdict(int)        # (parent name, child name) -> ns
    subject_bytes = 0
    budget = 0
    for name, start, end, parent, size, error in spans:
        ns = (end - start) / traced_slowdown
        calls[name] += 1
        busy[name] += ns
        if parent >= 0:
            under[spans[parent][NAME], name] += ns
        if name == "pattern.match_full":
            subject_bytes += size
            budget += error == "MatchBudgetExceeded"

    def per(total, base, scale=1.0):
        return total / base * scale if base else 0.0

    families = [n for n in calls if n.startswith(FAMILY_PREFIX)]
    family_ns = sum(busy[n] for n in families)
    family_in_make = sum(under["mutate.make_mutant", n] for n in families)
    validate_children = (under["engine.validate", "engine.index_message"]
                         + under["engine.validate", "pattern.match_full"])
    mutants = calls["mutate.make_mutant"]
    messages = counters.get("messages", 0)
    untraced_rate = statistics.median(plain.rates)
    traced_rate = statistics.median(traced.rates)

    metrics = {
        f"{phase}_ms": (statistics.median(times) * 1e3, "ms")
        for phase, times in setup.phases_s.items()
    }
    metrics.update({
        "engine.index_message_us": (per(busy["engine.index_message"], ops, 1e-3), "us"),
        "engine.select_us": (per(busy["engine.select"], calls["engine.select"], 1e-3), "us"),
        "engine.validate_us": (per(busy["engine.validate"], calls["engine.validate"], 1e-3), "us"),
        "engine.validate_self_us": (per(busy["engine.validate"] - validate_children,
                                        calls["engine.validate"], 1e-3), "us"),
        "engine.exec_per_msg": (per(counters.get("exec", 0), messages), "count"),
        "engine.lazy_exec_per_msg": (per(counters.get("lazy", 0), messages), "count"),
        "pattern.match_full_calls_per_msg": (per(calls["pattern.match_full"], ops), "count"),
        "pattern.match_full_us_per_msg": (per(busy["pattern.match_full"], ops, 1e-3), "us"),
        "pattern.match_full_share": (per(busy["pattern.match_full"], op_ns, 100), "%"),
        "pattern.match_full_mb_per_s": (per(subject_bytes, busy["pattern.match_full"], 1e3),
                                        "MB/s"),
        "pattern.budget_exceeded": (per(budget, rounds), "count"),
        "mutate.make_mutant_us": (per(busy["mutate.make_mutant"], mutants, 1e-3), "us"),
        "mutate.family_us": (per(family_ns, mutants, 1e-3), "us"),
        "mutate.derive_us": (per(busy["mutate.make_mutant"] - family_in_make,
                                 mutants, 1e-3), "us"),
        "refcheck.reference_validate_us": (per(busy["refcheck.reference_validate"],
                                               calls["refcheck.reference_validate"], 1e-3),
                                           "us"),
        "refcheck.calls_per_mutant": (per(calls["refcheck.reference_validate"], mutants),
                                      "count"),
        "campaign.target_us": (per(busy["engine.validate"], mutants, 1e-3), "us"),
        "campaign.target_share": (per(busy["engine.validate"], op_ns, 100) if mutants else 0.0,
                                  "%"),
        "bench.op_us": (per(op_ns, ops, 1e-3), "us"),
        "bench.slowdown": (statistics.median(plain.slowdowns + traced.slowdowns), "ratio"),
        "trace.overhead_pct": (per(untraced_rate - traced_rate, untraced_rate, 100), "%"),
    })
    return metrics
