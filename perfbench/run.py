#!/usr/bin/env python3
"""Benchmark of lambdadet: four seeded workloads, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from `src/`
there, never from an installed copy.  The workloads are `diamond_limit`,
`asm_expansion`, `tiling_sweep` and `reproduce` (see workloads.py and the
README next to this file).

The run repeats the workload's batch of operations for about S seconds,
one call at a time, and runs each operation's oracle untimed after the
call.  With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
it alternates untraced and traced batches and prints the per-layer
metrics and the tracing overhead.  Every metric is printed on its own line
as `name value unit`, and the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

Exit status: 0 when every operation was correct, 1 when any failed (wrong
output, an exception, or the per-operation time limit), 2 when the
package source cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import limits

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

# Set-up is timed in this many fresh interpreters per run; setup_s is
# their median.
SETUP_PROBES = 15

# metric -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}


class PackageMissing(Exception):
    """The checkout holds no loadable lambdadet source."""


def load_package():
    """Import lambdadet from this checkout's src/ and nowhere else."""
    init = SRC / "lambdadet" / "__init__.py"
    if not init.is_file():
        raise PackageMissing("no package source at %s" % init)
    sys.path.insert(0, str(SRC))
    try:
        import lambdadet
    except ImportError as exc:
        raise PackageMissing("cannot import lambdadet: %s" % exc) from exc
    if Path(lambdadet.__file__).resolve() != init.resolve():
        raise PackageMissing("lambdadet was imported from %s" % lambdadet.__file__)
    return lambdadet


@dataclass
class Outcome:
    seconds: float
    failures: list[str]
    result: object = None
    timed_out: bool = False


def _where(exc: BaseException) -> str:
    """File, line and function where the exception was raised."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return "%s:%d in %s" % (Path(frame.filename).name, frame.lineno, frame.name)


def run_op(op, context=nullcontext, limit_s: int = limits.OP_LIMIT_S) -> Outcome:
    """Time one call of op under the time limit, then run its oracle untimed.

    A wrong output, an exception or a timeout fails every unit of the op.
    """
    start = time.perf_counter()
    try:
        with limits.op_limit(limit_s), context():
            result = op.run()
    except limits.OpTimeout:
        seconds = time.perf_counter() - start
        reason = "%s: stopped at the %d s limit" % (op.name, limit_s)
        return Outcome(seconds, [reason] * op.units, timed_out=True)
    except Exception as exc:
        seconds = time.perf_counter() - start
        reason = "%s raised %s: %s (%s)" % (op.name, type(exc).__name__, exc, _where(exc))
        return Outcome(seconds, [reason] * op.units)
    seconds = time.perf_counter() - start
    try:
        with limits.op_limit(limit_s):
            failures = ["%s: %s" % (op.name, f) for f in op.check(result)]
    except limits.OpTimeout:
        return Outcome(seconds, ["%s: oracle stopped at the time limit" % op.name] * op.units,
                       result, timed_out=True)
    except Exception as exc:
        reason = "%s: oracle raised %s: %s" % (op.name, type(exc).__name__, exc)
        return Outcome(seconds, [reason] * op.units, result)
    return Outcome(seconds, failures, result)


@dataclass
class Batch:
    op_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    timed_out: bool = False
    check_seconds: dict[int, float] = field(default_factory=dict)


def run_batch(ops, tracer=None, package=None) -> Batch:
    """Run the ops in order; stop early after a timeout."""
    batch = Batch()
    for op in ops:
        context = nullcontext
        if tracer is not None:
            context = lambda: tracer.tracing_op(package, op.name, op.capture_layers)
        outcome = run_op(op, context)
        batch.op_seconds.append(outcome.seconds)
        batch.attempted += op.units
        batch.failures += outcome.failures
        if isinstance(outcome.result, list):
            for item in outcome.result:
                if isinstance(item, package.reproduce.CheckResult):
                    batch.check_seconds[item.number] = item.seconds
        if outcome.timed_out:
            batch.timed_out = True
            break
    return batch


def batch_wall(batches: list[Batch]) -> float:
    """Wall time of one batch: each op's median over the batches, summed.

    Host interference comes in bursts of a few seconds; taking the median
    op by op keeps a burst inside one long op from moving the result.
    """
    samples: dict[int, list[float]] = {}
    for batch in batches:
        for i, seconds in enumerate(batch.op_seconds):
            samples.setdefault(i, []).append(seconds)
    return sum(statistics.median(values) for values in samples.values())


def probe_setup(workload: str, seed: int, tiny: bool) -> float:
    """Seconds for `import lambdadet` plus input building, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed),
         "1" if tiny else "0"],
        capture_output=True, text=True, timeout=60, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % done.stderr.strip())
    return float(done.stdout.strip().splitlines()[-1])


class Run:
    """Counts over one run: what was attempted and what failed."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.began = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.last_cycle = 0.0

    def add(self, batch: Batch) -> Batch:
        self.attempted += batch.attempted
        self.failures += batch.failures
        return batch

    def over(self, cycle_began: float) -> bool:
        """True when one more cycle like the last would end past the budget."""
        now = time.perf_counter()
        self.last_cycle = now - cycle_began
        return now - self.began + self.last_cycle > self.seconds

    def share_after_next_cycle(self) -> float:
        """Share of the budget that will be used once the next cycle ends."""
        elapsed = time.perf_counter() - self.began
        return min(1.0, (elapsed + self.last_cycle) / self.seconds)


def measure_plain(package, workload, seed: int, seconds: float, tiny: bool):
    ops = workload.ops(workload.build(seed, tiny))
    batches, setup = [], []
    run = Run(seconds)
    while True:
        cycle = time.perf_counter()
        # Probes are spread over the run in step with the batches, so that a
        # burst of host interference cannot cover all of them.
        due = max(1, math.ceil(SETUP_PROBES * run.share_after_next_cycle()))
        while len(setup) < due:
            setup.append(probe_setup(workload.name, seed, tiny))
        batch = run.add(run_batch(ops, package=package))
        batches.append(batch)
        if batch.timed_out or run.over(cycle):
            break
    while len(setup) < SETUP_PROBES and not run.failures:
        setup.append(probe_setup(workload.name, seed, tiny))
    metrics = {
        "wall_s": batch_wall(batches),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    totals = [sum(b.op_seconds) for b in batches]
    notes = ["%d batches of %d ops, batch seconds min %.4f max %.4f"
             % (len(batches), len(ops), min(totals), max(totals)),
             "%d set-up probes, seconds min %.4f max %.4f" % (len(setup), min(setup), max(setup))]
    return metrics, END_TO_END, run, notes


def measure_traced(package, workload, seed: int, seconds: float, tiny: bool):
    import tracing

    tracer = tracing.Tracer()
    ops = workload.ops(workload.build(seed, tiny))
    plain, traced, per_batch, summary = [], [], [], {}
    run = Run(seconds)
    while True:
        cycle = time.perf_counter()
        batch = run.add(run_batch(ops, package=package))
        plain.append(batch)
        if batch.timed_out:
            break
        # The traced batch builds its own inputs, so the matrix generators
        # of the set-up show up under `matrices`.
        tracer.clear()
        with tracer.installed(package), tracer.span("setup"):
            inputs = workload.build(seed, tiny)
        batch = run.add(run_batch(workload.ops(inputs), tracer, package))
        traced.append(batch)
        summary = tracer.summary()
        per_batch.append(tracing.per_layer_metrics(
            summary, tracer.layer_profile(), batch.check_seconds))
        if batch.timed_out or run.over(cycle):
            break
    if not per_batch:
        return {}, tracing.PER_LAYER, run, []
    metrics = tracing.median_metrics(per_batch)
    metrics["trace.overhead_s"] = batch_wall(traced) - batch_wall(plain)
    notes = ["traced wall_s %.4f s, untraced wall_s %.4f s, over %d pairs of batches"
             % (batch_wall(traced), batch_wall(plain), len(traced)),
             "spans of the last traced batch (name, calls, total s, self s):"]
    for name, row in sorted(summary.items(), key=lambda item: -item[1]["total"]):
        notes.append("  %-30s %9d %10.4f %10.4f"
                     % (name, row["calls"], row["total"], row["self"]))
    return metrics, tracing.PER_LAYER, run, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the harness self-check only")
    args = parser.parse_args(argv)
    try:
        package = load_package()
    except PackageMissing as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    measure = measure_traced if args.trace else measure_plain
    metrics, catalogue, run, notes = measure(
        package, workload, args.seed, args.seconds, args.tiny)
    attempted, failures = run.attempted, run.failures

    print("# lambdadet benchmark: workload %s, seed %d, trace %d%s"
          % (workload.name, args.seed, args.trace, ", tiny sizes" if args.tiny else ""))
    for note in notes:
        print("# " + note)
    for name, value in metrics.items():
        print("%-40s %24r %s" % (name, value, catalogue[name][0]))
    failed = len(failures)
    print("%-40s %24r %s" % ("failed_frac", failed / attempted if attempted else 1.0, "ratio"))
    print("%-40s %24r %s" % ("ops", attempted, "count"))
    for reason in failures[:20]:
        print("FAILED " + reason)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": catalogue[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 and attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
