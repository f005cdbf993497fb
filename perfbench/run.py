"""Benchmark for spintool, run from the root of a source checkout.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 24 --trace 0

Workloads are defined in ``workloads.py``: ``verify-ladder``, ``gate-cap``
and ``moments-cap``; ``--workload all`` runs each in its own process, one
after the other, and prints a summary of all three.  The program is
imported from ``src/`` of the checkout and called in-process, on one thread
(BLAS pinned to one thread too).

A run makes a fixed number of passes, round(seconds / pass_s) with pass_s
the workload's reference pass time, so that every commit measures the same
operations.  Output checks run after the timed passes.  Every reported time
is in reference-host seconds: the measured time divided by the host factor
from the reference slices around it (``hostspeed.py``); measured seconds and
factors are printed beside them.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh interpreters, started between the passes,
  of importing spintool and running the warm-up operations (the workload's
  operations at 2s = 2);
* ``wall_s``: median time of one pass, the sum of its operation times;
* ``op_s.p50`` and ``op_s.tail``: per-operation time by nearest rank; the
  tail is the highest percentile with at least ten operations beyond it,
  and never below the median;
* ``peak_rss_mb``: the process's peak resident memory, taken before the
  checks run.

``failed_ratio`` (failed over attempted operations) is printed by name and
equals the ``failed`` / ``attempted`` fields of the result line; it is not
a metric there because it is 0 on two workloads.  ``--trace 1`` interleaves
untraced and traced passes and reports the per-layer metrics of
``spans.LAYER_METRICS``.  The last line of stdout is the JSON result;
details, spans and machine data go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
PROBES_PER_GAP = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("verify-ladder", "gate-cap", "moments-cap")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="spintool benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes instead of the workload's own")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- machine and run description ---------------------------------------------

def _blas_threads() -> int | None:
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spintool").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def machine_info(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# -- set-up ----------------------------------------------------------------

def warm_up(workload) -> None:
    """Run the workload's operations once at 2s = 2, output discarded."""
    from workloads import run_op

    for op in workload.warm_up_ops():
        run_op(op, os.devnull)


def measure_setup(args: argparse.Namespace, reference) -> list[dict]:
    """Fresh interpreters timed from their start to the end of their warm-up.

    The probe prints the system-wide monotonic clock when its warm-up ends,
    so the figure carries neither interpreter shutdown nor the polling delay
    of waiting on a child with a timeout.  Reference slices bracket each
    probe.  Probes run before every pass and after the last, so their median
    spans the run's changes of host speed.
    """
    from hostspeed import host_factor

    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--setup-probe"]
    probes = []
    before = reference.slice()
    for _ in range(PROBES_PER_GAP):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(command, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=120)
        seconds = float(done.stdout.split()[-1]) - start
        after = reference.slice()
        probes.append({"seconds": seconds, "factor": host_factor(before, after)})
        before = after
    return probes


# -- timed passes ----------------------------------------------------------

def pass_plan(args: argparse.Namespace, pass_s: float) -> list[bool]:
    """One flag per pass, True for a traced one; traced runs interleave."""
    passes = max(1, round(args.seconds / pass_s))
    if not args.trace:
        return [False] * passes
    traced = max(1, passes // 2)
    untraced = max(1, passes - traced)
    plan: list[bool] = []
    for index in range(max(traced, untraced)):
        plan += [False] * (index < untraced) + [True] * (index < traced)
    return plan


def run_passes(workload, args, plan, out_dir: Path, tracer, reference,
               between_passes) -> list[dict]:
    """Run the planned passes and return one record per operation.

    Reference slices run before every operation and after the last one of a
    pass, outside every timed interval and every span; a traced pass runs
    each operation inside a ``bench.op`` span with the functions wrapped.
    ``between_passes`` runs before every pass and after the last.
    """
    from hostspeed import host_factor
    from workloads import make_pass, run_op

    rng = random.Random(args.seed)
    records: list[dict] = []
    for pass_index, traced in enumerate(plan):
        between_passes()
        ops = make_pass(workload, rng, args.tiny)
        tracer_block = tracer.installed() if traced else contextlib.nullcontext()
        with tracer_block:
            before = reference.slice()
            for op in ops:
                path = str(out_dir / f"op{len(records)}.out")
                if traced:
                    tracer.op_id, tracer.pass_index = len(records), pass_index
                    with tracer.span("bench.op"):
                        outcome = run_op(op, path)
                    tracer.forget_operators()
                else:
                    outcome = run_op(op, path)
                after = reference.slice()
                records.append({
                    "op": op, "outcome": outcome, "path": path, "pass": pass_index,
                    "traced": traced, "factor": host_factor(before, after),
                })
                before = after
    between_passes()
    return records


def check_outputs(records: list[dict]) -> bool:
    """Check every completed operation, recording its error and stdout bytes.

    Returns True when no output was wrong.  An operation that raised or
    exited 2 or 3 failed without a wrong output; exit 1 is a failed verdict,
    which its check rejects.
    """
    from checks import check

    correct = True
    for record in records:
        outcome = record["outcome"]
        path = Path(record["path"])
        record["bytes_out"] = path.stat().st_size if path.exists() else 0
        record["error"] = outcome.error
        if outcome.error is None and outcome.exit_code not in (0, 1):
            record["error"] = f"exit{outcome.exit_code}"
        elif outcome.error is None:
            try:
                check(record["op"], outcome, str(path))
            except Exception as exc:  # any wrong output fails the operation
                record["error"] = type(exc).__name__
                record["check_message"] = str(exc)[:300]
                correct = False
    return correct


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> int:
    """Highest percentile with at least ten samples beyond it, at least 50."""
    return max(50, (100 * (count - 10)) // count)


# -- reporting -------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def end_to_end_metrics(probes: list[dict], records: list[dict],
                       peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics of the untraced passes and their sample notes."""
    walls: dict[int, float] = {}
    for r in records:
        if not r["traced"]:
            walls[r["pass"]] = walls.get(r["pass"], 0.0) + r["seconds"]
    ops = [r["seconds"] for r in records if not r["traced"]]
    tail_q = tail_percentile(len(ops))
    metrics = {
        "setup_s": statistics.median(p["seconds"] / p["factor"] for p in probes),
        "wall_s": statistics.median(walls.values()),
        "op_s.p50": nearest_rank(ops, 50),
        "op_s.tail": nearest_rank(ops, tail_q),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(probes)} fresh-interpreter set-ups",
        "wall_s": f"median of {len(walls)} untraced passes, each the sum of its ops",
        "op_s.p50": f"nearest rank, n={len(ops)} ops",
        "op_s.tail": f"p{tail_q} by nearest rank, n={len(ops)} ops"
                     + ("" if tail_q > 50 else "; fewer than 20 ops, so clamped to p50"),
        "peak_rss_mb": "one process, before the output checks",
    }
    return metrics, notes


def run_workload(args: argparse.Namespace) -> int:
    import workloads
    from hostspeed import Reference

    workload = workloads.WORKLOADS[args.workload]
    reference = Reference()
    probes: list[dict] = []
    start = perf_counter()
    warm_up(workload)
    in_process_setup = perf_counter() - start

    plan = pass_plan(args, workload.pass_s)
    out_dir = OUT_DIR / f"out-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    try:
        records = run_passes(workload, args, plan, out_dir, tracer, reference,
                             lambda: probes.extend(measure_setup(args, reference)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        correct = check_outputs(records)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for r in records:
        r["seconds"] = r["outcome"].seconds / r["factor"]

    info = machine_info(args.seed)
    failed = [r for r in records if r["error"] is not None]
    end_to_end, notes = end_to_end_metrics(probes, records, peak_rss_mb)

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plan)} traced_passes={sum(plan)} ops={len(records)} tiny={args.tiny}")
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    for index, r in enumerate(records):
        status = "ok" if r["error"] is None else f"FAILED {r['error']}"
        print(f"op {index} pass={r['pass']} traced={int(r['traced'])} {r['op'].label()} "
              f"seconds={_fmt(r['seconds'])} measured_s={_fmt(r['outcome'].seconds)} "
              f"host_factor={_fmt(r['factor'])} bytes_out={r['bytes_out']} {status} "
              f"{r.get('check_message', '')}".rstrip())
    print(f"setup in_process_s={_fmt(in_process_setup)} fresh_measured_s="
          + ",".join(_fmt(p["seconds"]) for p in probes)
          + " host_factors=" + ",".join(_fmt(p["factor"]) for p in probes))
    units = dict(END_TO_END)
    for name, value in end_to_end.items():
        print(f"metric {name} = {_fmt(value)} {units[name]} ({notes[name]})")
    errors = Counter(r["error"] for r in failed)
    print(f"metric failed_ratio = {_fmt(len(failed) / len(records))} "
          f"({len(failed)} of {len(records)} ops failed"
          + "".join(f"; {name} x{count}" for name, count in sorted(errors.items())) + ")")
    print(f"correct={correct}")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": info,
        "setup_probes": probes,
        "setup_in_process_s": in_process_setup,
        "ops": [
            {"pass": r["pass"], "traced": r["traced"], "op": r["op"].label(),
             "seconds": r["seconds"], "measured_s": r["outcome"].seconds,
             "host_factor": r["factor"], "exit_code": r["outcome"].exit_code,
             "error": r["error"], "bytes_out": r["bytes_out"]}
            for r in records
        ],
        "end_to_end": end_to_end,
        "failed_ratio": len(failed) / len(records),
    }
    if args.trace:
        import spans

        metrics_out = layer_report(tracer, plan, end_to_end["wall_s"], records, detail)
        units = {name: unit for name, unit, _, _ in spans.LAYER_METRICS}
    else:
        metrics_out = end_to_end
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics_out.items()},
    }))
    return 0


def layer_report(tracer, plan, untraced_wall, records, detail) -> dict[str, float]:
    """Per-layer metrics of the traced passes; prints them and the counts."""
    import spans

    factors = {index: r["factor"] for index, r in enumerate(records)}
    traced_bytes = sum(r["bytes_out"] for r in records if r["traced"])
    metrics = spans.aggregate(tracer, sum(plan), untraced_wall, traced_bytes, factors)
    gap = spans.self_time_gap(metrics)
    if abs(gap) > 1e-6 * max(1.0, metrics["trace.wall_s"]):
        raise RuntimeError(f"self times miss trace.wall_s by {gap!r} s")
    print(f"trace self times add up to trace.wall_s within {abs(gap):.3g} s")
    for span in tracer.spans:
        if span["name"] == "eig.hermitian_eig" and "sweeps" in span:
            print(f"count eig op={span['op']} operator={span['operator']} n={span['n']} "
                  f"sweeps={span['sweeps']} pivots_computed="
                  f"{span['sweeps'] * span['n'] * (span['n'] - 1) // 2}")
        elif span["name"] == "spectral.moments":
            print(f"count moments op={span['op']} n={span['n']} kmax={span['kmax']} "
                  + (f"FAILED {span['error']}" if "error" in span
                     else f"matmuls={span['kmax'] - 1}"))
    for index, r in enumerate(records):
        if r["traced"] and r["op"].kind != "moments":
            print(f"count cli op={index} bytes_out={r['bytes_out']}")
    for name, unit, _, prediction in spans.LAYER_METRICS:
        print(f"layer {name} = {_fmt(metrics[name])} {unit} (per traced pass, "
              f"n={sum(plan)}; prediction: {prediction})")

    origin = tracer.spans[0]["start"] if tracer.spans else 0.0
    tag = f"{detail['workload']}-seed{detail['seed']}"
    with open(OUT_DIR / f"spans-{tag}.jsonl", "w", encoding="utf-8") as out:
        for index, span in enumerate(tracer.spans):
            row = dict(span, id=index, start=span["start"] - origin,
                       end=span["end"] - origin)
            out.write(json.dumps(row) + "\n")
    detail["per_layer"] = metrics
    return metrics


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    summary = []
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + ["--tiny"] * args.tiny
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        lines = done.stdout.strip().splitlines()
        summary += [f"{name}: {line}" for line in lines if line.startswith(("metric ", "layer "))]
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print("summary", *summary, sep="\n")
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "spintool" / "__init__.py").is_file():
        print(f"perfbench: no spintool sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import spintool

    if not Path(spintool.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: spintool imported from {spintool.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.setup_probe:
        warm_up(workloads.WORKLOADS[args.workload])
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
