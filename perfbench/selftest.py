"""Self-test of the benchmark at self-test sizes.

    python3 perfbench/selftest.py

Runs every workload with ``--tiny`` untraced and traced, and checks the
result line against BENCHMARK.json: exact keys, metric names and units,
numbers everywhere, end-to-end metrics above zero, self times adding up to
the traced wall time, every metric named in the human-readable report.  It
also checks that the seed fixes the inputs and that a directory holding only
BENCHMARK.json and the benchmark fails without printing a result, and that
``--workload all`` summarises every end-to-end metric of every workload.  Exits 1
on the first failed check.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_spec(spec: dict) -> None:
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json keys")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
           "workload names")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "end_to_end metrics match run.END_TO_END")
    expect(any(m["name"] == "setup_s" and m["bound"] == max(x["bound"] for x in
               spec["end_to_end"]) for m in spec["end_to_end"]),
           "setup_s has the largest bound")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [metric[:3] for metric in spans.LAYER_METRICS],
           "per_layer metrics match spans.LAYER_METRICS")


def check_inputs() -> None:
    for workload in workloads.WORKLOADS.values():
        one = workloads.make_pass(workload, random.Random(5), tiny=False)
        again = workloads.make_pass(workload, random.Random(5), tiny=False)
        other = workloads.make_pass(workload, random.Random(6), tiny=False)
        expect(one == again, f"{workload.name}: same seed, same inputs")
        key = lambda op: (op.kind, op.twice, op.fmt, op.operator)  # noqa: E731
        expect(sorted(map(key, one)) == sorted(map(key, other)),
               f"{workload.name}: every seed runs the same multiset")


def check_run(spec: dict, workload: str, trace: int) -> None:
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    expect(done.returncode == 0, f"{workload} trace={trace} exit {done.returncode}: "
           f"{done.stderr[-500:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    expect(result["correct"] is True, f"{workload}: outputs correct")
    expect(type(result["attempted"]) is int and result["attempted"] >= 1, "attempted")
    expect(type(result["failed"]) is int and result["failed"] == 0,
           f"{workload}: no failures at self-test sizes")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    expect(list(result["metrics"]) == [m["name"] for m in listed],
           f"{workload} trace={trace}: metric names")
    for m in listed:
        got = result["metrics"][m["name"]]
        expect(set(got) == {"value", "unit"} and got["unit"] == m["unit"],
               f"{m['name']}: unit")
        expect(type(got["value"]) in (int, float) and math.isfinite(got["value"]),
               f"{m['name']}: a finite number")
        if not trace:
            expect(got["value"] > 0, f"{m['name']}: above zero")
    text = done.stdout
    if trace:
        metrics = {name: v["value"] for name, v in result["metrics"].items()}
        gap = spans.self_time_gap(metrics)
        expect(abs(gap) <= 1e-6 * max(1.0, metrics["trace.wall_s"]),
               f"{workload}: self times add up to trace.wall_s (gap {gap})")
        for m in listed:
            expect(f"layer {m['name']} = " in text, f"{m['name']} printed")
    else:
        for name in [m["name"] for m in listed] + ["failed_ratio"]:
            expect(f"metric {name} = " in text, f"{name} printed")


def check_all(spec: dict) -> None:
    done = bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "0",
                 "--tiny")
    expect(done.returncode == 0, f"--workload all exit {done.returncode}")
    summary = done.stdout.split("\nsummary\n", 1)[-1]
    for workload in run.WORKLOAD_NAMES:
        for name in [m["name"] for m in spec["end_to_end"]] + ["failed_ratio"]:
            expect(f"{workload}: metric {name} = " in summary,
                   f"--workload all summarises {workload} {name}")


def check_bare_directory(spec: dict) -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "gate-cap", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        expect(done.returncode != 0, "bare directory exits non-zero")
        expect('"metrics"' not in done.stdout, "bare directory prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_inputs()
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_all(spec)
    check_bare_directory(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
