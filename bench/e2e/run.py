#!/usr/bin/env python3
"""vstream end-to-end benchmark: one command for every workload and metric.

    python3 bench/e2e/run.py [--workload NAME ...] [--seed N] [--seconds S]
                             [--sets N] [--trace 0|1] [--smoke]
                             [--out FILE] [--append]

Builds (or finds, up to date) `vstream_e2e` in `.bench_build/` at the root of
the checkout — the repository's own CMake build, Release with contracts
compiled out (VSTREAM_CHECK_LEVEL=0) — and runs each workload in its own
process with min(2, nproc) workers for --seconds (BENCHMARK.json's
run_seconds by default). Every metric is printed as one
`workload metric value unit` line; the run header and all results are
written to a results JSON (default .bench_work/results.json) that
compare.py reads. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics: the run alternates untraced and traced
rounds, writes the spans as Chrome-trace JSON to
.bench_work/trace-<workload>-<seed>.json and adds the layer ledger's shares
(ledger.py). A metric of a layer the workload does not run reads 0.

Exit status: 0 when every output check passed, 1 when one failed (the
summary line is still printed), 2 when the benchmark could not run (no
summary line).
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = ROOT / ".bench_work"
BINARY = BUILD_DIR / "vstream_e2e"
BUILD_TYPE = "Release"
CHECK_LEVEL = "0"
RUN_TIMEOUT_S = 170
DEFAULT_SEED = 2011
TIME_UNITS = {"s", "ms", "us", "ns"}


class BenchError(Exception):
    """The benchmark could not run (as opposed to: it ran and a check failed)."""


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def build() -> None:
    """Configure once, then an incremental build of the one target. A lock
    keeps concurrent invocations in one checkout from building at once."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no vstream sources at {ROOT}: the benchmark builds the repository")
    BUILD_DIR.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD_DIR),
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                          f"-DVSTREAM_CHECK_LEVEL={CHECK_LEVEL}",
                          f"-DCMAKE_PROJECT_INCLUDE={HERE / 'attach.cmake'}"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "vstream_e2e", "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
            if proc.returncode != 0:
                raise BenchError(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
    if not BINARY.is_file():
        raise BenchError(f"build produced no {BINARY}")


def git_rev() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=False, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def run_one(workload: str, seed: int, seconds: float, smoke: bool,
            trace_out: Path | None) -> dict:
    """One workload in its own process; returns the program's JSON line."""
    workdir = WORK_DIR / f"{workload}-{os.getpid()}-{seed}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--workdir", str(workdir)]
    if smoke:
        cmd.append("--smoke")
    if trace_out is not None:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish within {RUN_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)  # the program removes it too
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{workload} exited {proc.returncode} without a result") from exc
    if proc.returncode not in (0, 1):
        raise BenchError(f"{workload} exited {proc.returncode}")
    return result


def with_ledger(result: dict, trace_out: Path) -> dict:
    sys.path.insert(0, str(HERE))
    import ledger  # noqa: E402  (sibling module)

    book = ledger.compute(ledger.load(trace_out))
    result["metrics"].update(ledger.metrics(book))
    return result


def complete(result: dict, wanted: list[dict]) -> dict:
    """Metrics in BENCHMARK.json order with units. A per-layer metric the
    workload has no layer for reads 0; a missing time or end-to-end metric is
    an error, since a time that reads 0 on every run means nothing ran."""
    got = result["metrics"]
    out = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name not in got and (unit in TIME_UNITS or "bound" in m):
            raise BenchError(f"{result['workload']} did not report {name}")
        out[name] = {"value": got.get(name, 0.0), "unit": unit}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload name (repeatable or comma-separated; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--sets", type=int, default=1, help="runs of every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at ~2%% size, a fraction of a second each")
    parser.add_argument("--out", type=Path, default=WORK_DIR / "results.json")
    parser.add_argument("--append", action="store_true",
                        help="add these runs to an existing --out file (paired comparisons)")
    args = parser.parse_args()

    try:
        bench = spec()
        names = [w["name"] for w in bench["workloads"]]
        workloads = [w for arg in args.workload for w in arg.split(",") if w] or names
        unknown = sorted(set(workloads) - set(names))
        if unknown:
            raise BenchError(f"unknown workload(s) {unknown}; known: {names}")
        seconds = args.seconds if args.seconds is not None else float(bench["run_seconds"])
        wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
        build()
    except (BenchError, OSError, ValueError, KeyError) as exc:
        log(f"run.py: {exc}")
        return 2

    runs = []
    try:
        for s in range(args.sets):
            for workload in workloads:
                trace_out = WORK_DIR / f"trace-{workload}-{args.seed}.json" if args.trace else None
                started = time.monotonic()
                result = run_one(workload, args.seed, seconds, args.smoke, trace_out)
                if trace_out is not None:
                    result = with_ledger(result, trace_out)
                metrics = complete(result, wanted)
                runs.append({"workload": workload, "set": s, "seed": args.seed,
                             "traced": bool(args.trace), "workers": result["workers"],
                             "seconds": result["seconds"], "check_level": result["check_level"],
                             "attempted": result["attempted"], "failed": result["failed"],
                             "errors": result["errors"], "info": result["info"],
                             "wall_s": time.monotonic() - started, "metrics": metrics})
                for name, m in metrics.items():
                    print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
                for key, value in result["info"].items():
                    print(f"{workload} info.{key} {value:.6g}")
                for error in result["errors"]:
                    log(f"run.py: {workload}: check failed: {error}")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        log(f"run.py: {exc}")
        return 2

    header = {"git_rev": git_rev(), "build_type": BUILD_TYPE,
              "check_level": runs[0]["check_level"], "seed": args.seed,
              "workers": runs[0]["workers"], "nproc": len(os.sched_getaffinity(0)),
              "seconds": runs[0]["seconds"], "smoke": args.smoke, "traced": bool(args.trace)}
    doc = {"run": header, "runs": runs}
    if args.append and args.out.is_file():
        with open(args.out, encoding="utf-8") as f:
            old = json.load(f)
        doc = {"run": old.get("run", header), "runs": old.get("runs", []) + runs}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if len(runs) == 1:
        summary_metrics = runs[0]["metrics"]
    else:  # several runs: the median of each workload's metric
        summary_metrics = {}
        for workload in workloads:
            mine = [r["metrics"] for r in runs if r["workload"] == workload]
            for name, m in mine[0].items():
                summary_metrics[f"{workload}.{name}"] = {
                    "value": statistics.median(x[name]["value"] for x in mine), "unit": m["unit"]}
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
