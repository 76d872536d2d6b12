"""Run one workload of the zebu benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload select-wide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; zebu is imported from its `src`
directory. One process, one caller, a closed loop: each operation starts
when the previous one has ended. The run repeats whole rounds of the
workload's operations until `--seconds` have passed and at least 1000
operations were made. Every time is divided by the machine's slowdown,
measured between batches of operations (see machine.py). The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1`
rounds alternate between untraced and traced; the metrics are per layer,
from the spans of the traced rounds, and the spans are written to
perfbench/out/<workload>.spans.csv.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import machine

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_OPS = 1000          # so that p99 has at least ten samples beyond it
SETUP_EVERY_S = 0.5     # one more timed set-up between batches this often


def _import_zebu():
    src = ROOT / "src"
    if not (src / "zebu" / "__init__.py").is_file():
        sys.exit(f"error: no zebu sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import zebu
    if Path(zebu.__file__).resolve().parent != (src / "zebu").resolve():
        sys.exit(f"error: imported zebu from {zebu.__file__}, not from {src}")


@dataclass
class Timings:
    """Scaled times of the untraced or of the traced rounds."""
    lat: list = field(default_factory=list)        # ns per operation
    rates: list = field(default_factory=list)      # operations per second, per batch
    slowdowns: list = field(default_factory=list)  # applied to each batch


def run_round(workload, timings: Timings, between) -> list:
    """Run every batch of one round and return the outputs. Each batch's
    times are divided by the mean of the slowdowns measured just before and
    just after it; `between()` runs after each batch, outside the timing."""
    outputs = []
    lat = timings.lat
    for lo in range(0, workload.size, workload.batch):
        first = len(lat)
        before = machine.slowdown()
        t0 = time.perf_counter_ns()
        outputs += workload.run_batch(lo, min(lo + workload.batch, workload.size), lat)
        t1 = time.perf_counter_ns()
        slowdown = (before + machine.slowdown()) / 2
        lat[first:] = [ns / slowdown for ns in lat[first:]]
        timings.rates.append((len(lat) - first) / ((t1 - t0) / 1e9 / slowdown))
        timings.slowdowns.append(slowdown)
        between()
    return outputs


def _quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end_metrics(timings: Timings, setup) -> dict:
    """name -> (value, unit)."""
    return {
        "ops_per_s": (statistics.median(timings.rates), "1/s"),
        "latency_p50_us": (_quantile(timings.lat, 50) / 1e3, "us"),
        "latency_p99_us": (_quantile(timings.lat, 99) / 1e3, "us"),
        "setup_s": (statistics.median(setup.totals_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "artifact_kb": (len(setup.artifact) / 1000, "kB"),
    }


def main(argv=None) -> int:
    _import_zebu()
    import spans as tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup = workloads.Setup((ROOT / workloads.SPEC).read_text())
    workload = workloads.WORKLOADS[args.workload](setup, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = Timings(), Timings()
    errors: list[str] = []
    attempted = failed = traced_failed = rounds = traced_rounds = 0
    start = setup_due = time.perf_counter()

    def between():
        nonlocal setup_due
        if time.perf_counter() >= setup_due:
            setup.repeat()
            setup_due = time.perf_counter() + SETUP_EVERY_S

    while (rounds < 2 or attempted < MIN_OPS
           or time.perf_counter() - start < args.seconds):
        tracing_round = tracer is not None and rounds % 2 == 1
        timings = traced if tracing_round else plain
        before = len(timings.lat)
        gc.collect()
        if tracing_round:
            tracer.install()
        try:
            outputs = run_round(workload, timings, between)
        finally:
            if tracing_round:
                tracer.uninstall()
        round_errors, round_failed = workload.check_round(outputs)
        errors += round_errors
        attempted += len(timings.lat) - before
        failed += round_failed
        rounds += 1
        if tracing_round:
            traced_rounds += 1
            traced_failed += round_failed
    errors += workload.final_check()

    if tracer is None:
        metrics = end_to_end_metrics(plain, setup)
    else:
        metrics = tracing.layer_metrics(tracer.spans, traced, plain, traced_rounds,
                                        workload.counters(), setup)
        budget = metrics["pattern.budget_exceeded"][0] * traced_rounds
        if round(budget) != traced_failed:
            errors.append(f"{budget:.0f} MatchBudgetExceeded in traced rounds, "
                          f"but {traced_failed} failed operations")
        tracer.write(OUT / f"{args.workload}.spans.csv")

    for error in errors[:20]:
        print(f"error: {error}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{attempted} operations, {failed} failed, {len(errors)} wrong outputs, "
          f"{len(setup.totals_s)} set-ups")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
