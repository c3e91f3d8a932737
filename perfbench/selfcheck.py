#!/usr/bin/env python3
"""Self-check of the benchmark harness, at tiny sizes, in about 20 s.

    python3 perfbench/selfcheck.py

It asserts that
- BENCHMARK.json lists exactly the metrics, units and workloads the
  harness produces;
- every workload, untraced and traced, prints every one of its metrics as
  `name value unit`, plus failed_frac and ops, and ends with the JSON line;
- the traced run attributes the pyramid's terms to the right layers;
- a deliberately wrong oracle value turns into failed_frac > 0 and a
  nonzero exit status;
- an operation that runs past the time limit is stopped and counted failed.

Exit status 0 when every assertion holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import run
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LINE = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)$")


def printed_metrics(stdout: str) -> dict[str, tuple[float, str]]:
    out = {}
    for line in stdout.splitlines():
        match = LINE.match(line)
        if match and not line.startswith(("#", "{")):
            out[match.group(1)] = (float(match.group(2)), match.group(3))
    return out


def check_manifest(workload_names) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workload_names), spec["workloads"]
    for key, catalogue in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == catalogue, "%s in BENCHMARK.json differs from the harness" % key


def check_printed(workload: str, trace: int) -> dict[str, tuple[float, str]]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=False,
    )
    where = "%s --trace %d" % (workload, trace)
    assert done.returncode == 0, "%s exited %d:\n%s%s" % (where, done.returncode,
                                                          done.stdout, done.stderr)
    printed = printed_metrics(done.stdout)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, where
    catalogue = tracing.PER_LAYER if trace else run.END_TO_END
    expected = {name: unit for name, (unit, _better) in catalogue.items()}
    expected.update(failed_frac="ratio", ops="count")
    for name, unit in expected.items():
        assert name in printed, "%s does not print %s" % (where, name)
        assert printed[name][1] == unit, "%s prints %s in %s" % (where, name, printed[name][1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: u for k, u in expected.items() if k in catalogue}, where
    assert printed["failed_frac"][0] == 0.0, where
    return printed


def check_layers(printed) -> None:
    # Tiny sizes put the order-3 diamond (6-by-6, 64 determinant terms)
    # where the order-6 one is timed.
    top = printed["condensation.d6.layer_6.total_terms"][0]
    assert top == 64, "top layer holds %s terms, expected 64" % top
    assert printed["condensation.d6.layer_7.total_terms"][0] == 0
    for k in range(2, 7):
        assert printed["condensation.d6.layer_%d.s" % k][0] > 0, "layer %d has no time" % k


def check_wrong_oracle() -> None:
    import workloads

    saved = workloads.SQUARE[6]
    workloads.SQUARE[6] = saved + 1
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            status = run.main(["--workload", "tiling_sweep", "--seed", "7", "--seconds", "1",
                               "--trace", "0", "--tiny"])
    finally:
        workloads.SQUARE[6] = saved
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert status != 0, "a wrong oracle value still exits 0"
    assert printed_metrics(stdout.getvalue())["failed_frac"][0] > 0
    assert not result["correct"] and result["failed"] > 0, result


def check_time_limit() -> None:
    import workloads

    def spin():
        while True:
            pass

    began = time.perf_counter()
    outcome = run.run_op(workloads.Op("spin", spin, lambda result: []), limit_s=1)
    took = time.perf_counter() - began
    assert outcome.timed_out and outcome.failures, outcome
    assert took < 5, "the time limit stopped the op only after %.1f s" % took


def main() -> int:
    run.load_package()
    import workloads

    check_manifest(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        check_printed(name, 0)
        printed = check_printed(name, 1)
        if name == "diamond_limit":
            check_layers(printed)
    check_wrong_oracle()
    check_time_limit()
    print("selfcheck: all assertions hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
