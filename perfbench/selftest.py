#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at toy size, untraced and traced.

Run from the repository root (about six minutes on one core)::

    python3 perfbench/selftest.py [workload ...]

For each run it asserts that the last line is the result object, that every
metric named in ``BENCHMARK.json`` is printed with its unit, that no
operation failed its correctness check (``error_rate == 0``), and that the
traced layers' self times sum to no more than the traced wall on each core.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.run import END_TO_END, PER_LAYER, SPAN_SELF  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise AssertionError(f"{workload} --trace {trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, trace: int, res: dict, spec: dict) -> None:
    where = f"{workload} --trace {trace}"
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], where
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, where
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    for m in listed:
        got = res["metrics"].get(m["name"])
        assert got is not None, f"{where}: {m['name']} missing"
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{where}: {m['name']}"
    if not trace:
        assert all(res["metrics"][m]["value"] > 0 for m in END_TO_END), where
        return
    values = {k: v["value"] for k, v in res["metrics"].items()}
    assert values["error_rate"] == 0, where
    self_s = sum(values[m] for m in SPAN_SELF) + sum(
        v for k, v in values.items() if k.startswith("query.")
    )
    cores = len(os.sched_getaffinity(0))
    assert self_s <= values["trace.wall_s"] * cores, (
        f"{where}: layer self time {self_s:.3f} s > traced wall "
        f"{values['trace.wall_s']:.3f} s x {cores} cores"
    )


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # the benchmark's own metric tables and BENCHMARK.json name the same set
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    for workload in argv or list(WORKLOADS):
        for trace in (0, 1):
            check(workload, trace, run(workload, trace), spec)
            print(f"ok  {workload} --trace {trace}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
