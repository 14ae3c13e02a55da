#!/usr/bin/env python3
"""Paired comparison of two vstream_e2e result sets (parent vs change).

    python3 bench/e2e/compare.py PARENT.json CHANGE.json
    python3 bench/e2e/compare.py --self-test

Both files are run.py results (`--out`, usually built up with `--append`
over at least ten alternating parent/change runs: run i of the parent is
paired with run i of the change, per workload). For every end-to-end metric
of BENCHMARK.json and every workload it prints each side's median and
quartiles, the change's win share over the pairs, and a verdict against the
metric's bound (the share of the parent's median it may get worse by):

  improved    the change wins at least 9 in 10 pairs (ties count for
              neither), the medians differ by more than the parent's own
              quartile spread, and there are at least 10 pairs
  regressed   the change's median is worse than the parent's by more than
              the bound
  unresolved  the parent's quartile spread is wider than the bound (so
              "unchanged" cannot be claimed), unless every change run reads
              better than every parent run
  no worse    otherwise

A change whose runs fail more operations than the parent's is reported and
counts as a regression. Every run reports every metric, and every pair is
judged, but a metric is printed on the workloads where it is its own
measurement (PRIMARY) and elsewhere, where it repeats one in another unit,
only when it regressed or is unresolved. Exit status:
0 when nothing regressed, 1 when something did, 2 on unreadable input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
# The workloads each end-to-end metric is judged on in the table; a metric
# not listed is judged on every workload. Elsewhere a round's sessions and
# MB are fixed, so the two rates are one measurement, and on the world and
# capture workloads a round is one call, so its latency is the round time.
PRIMARY = {
    "sessions_per_s": {"table1_catalog", "capacity_short", "flash_crowd", "churn_world"},
    "mb_per_s": {"capture_classify"},
    "session_p50_ms": {"table1_catalog", "capacity_short"},
    "session_p99_ms": {"table1_catalog", "capacity_short"},
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare one metric on one workload; runs are paired by index."""
    sign = 1.0 if better == "higher" else -1.0  # > 0 means the change is better
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    worse_share = -gain / abs(pm) if pm else 0.0
    spread_share = (p3 - p1) / abs(pm) if pm else 0.0
    all_better = bool(parent and change) and all(sign * (c - p) > 0 for c in change for p in parent)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > (p3 - p1):
        result = "improved"
    elif worse_share > bound:
        result = "regressed"
    elif spread_share > bound and not all_better:
        result = "unresolved"
    else:
        result = "no worse"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "pairs": len(pairs), "wins": wins,
            "delta": (cm - pm) / abs(pm) if pm else 0.0, "spread": spread_share,
            "verdict": result}


def by_workload(doc: dict) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in doc.get("runs", []):
        out.setdefault(run["workload"], []).append(run)
    return out


def compare(parent_doc: dict, change_doc: dict, bench: dict) -> tuple[list[dict], list[str]]:
    rows, notes = [], []
    parents, changes = by_workload(parent_doc), by_workload(change_doc)
    for workload in [w["name"] for w in bench["workloads"]]:
        p_runs, c_runs = parents.get(workload, []), changes.get(workload, [])
        if not p_runs or not c_runs:
            if p_runs or c_runs:
                notes.append(f"{workload}: runs on one side only; not compared")
            continue
        if min(len(p_runs), len(c_runs)) < MIN_PAIRS:
            notes.append(f"{workload}: {min(len(p_runs), len(c_runs))} pairs, fewer than "
                         f"{MIN_PAIRS}: no gain can be claimed")
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        if c_failed > p_failed:
            notes.append(f"{workload}: change failed {c_failed} operations, parent {p_failed}")
            rows.append({"workload": workload, "metric": "failed", "verdict": "regressed",
                         "parent": (p_failed,) * 3, "change": (c_failed,) * 3, "pairs": 0,
                         "wins": 0, "delta": 0.0, "spread": 0.0})
        for m in bench["end_to_end"]:
            name = m["name"]
            parent = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
            change = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if not parent or not change:
                continue
            row = verdict(parent, change, m["better"], m["bound"])
            if (workload in PRIMARY.get(name, {workload})
                    or row["verdict"] in ("regressed", "unresolved")):
                rows.append({"workload": workload, "metric": name, "unit": m["unit"],
                             "bound": m["bound"], **row})
    return rows, notes


def render(rows: list[dict], notes: list[str]) -> str:
    head = (f"{'workload':<17} {'metric':<15} {'parent median [q1, q3]':>32} "
            f"{'change median [q1, q3]':>32} {'delta':>8} {'wins':>7}  verdict")
    lines = [head, "-" * len(head)]
    for r in rows:
        p1, pm, p3 = r["parent"]
        c1, cm, c3 = r["change"]
        lines.append(f"{r['workload']:<17} {r['metric']:<15} "
                     f"{f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>32} "
                     f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>32} {r['delta']:>+8.1%} "
                     f"{str(r['wins']) + '/' + str(r['pairs']):>7}  {r['verdict']}")
    lines += [f"note: {n}" for n in notes]
    return "\n".join(lines)


def self_test() -> int:
    """Synthetic inputs, one per verdict, plus the failure rule."""
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    cases = {
        "improved": (base, [v * 1.05 for v in base], "higher", 0.1),
        "regressed": (base, [v * 1.2 for v in base], "lower", 0.1),
        "unresolved": ([50.0, 150.0] * 5, [60.0, 140.0] * 5, "higher", 0.1),
        "no worse": (base, [v * 1.01 for v in base], "lower", 0.1),
    }
    ok = True
    for want, (parent, change, better, bound) in cases.items():
        got = verdict(parent, change, better, bound)["verdict"]
        print(f"self-test {want:<10} -> {got}")
        ok &= got == want
    # Every change run beats every parent run: not unresolved despite the
    # spread, yet no gain either, since the medians differ by less than it.
    got = verdict([50.0, 150.0] * 5, [151.0, 152.0] * 5, "higher", 0.1)["verdict"]
    print(f"self-test all-better -> {got}")
    ok &= got == "no worse"
    # Nine pairs are too few to claim a gain.
    got = verdict(base[:9], [v * 1.05 for v in base[:9]], "higher", 0.1)["verdict"]
    print(f"self-test 9 pairs -> {got}")
    ok &= got == "no worse"
    bench = {"workloads": [{"name": "w"}],
             "end_to_end": [{"name": "x", "unit": "s", "better": "lower", "bound": 0.1}]}
    run = {"workload": "w", "failed": 0, "metrics": {"x": {"value": 1.0}}}
    rows, _ = compare({"runs": [run] * 10}, {"runs": [dict(run, failed=1)] * 10}, bench)
    print(f"self-test failures -> {rows[0]['verdict']}")
    ok &= rows[0]["metric"] == "failed" and rows[0]["verdict"] == "regressed"
    # sessions_per_s is not printed on capture_classify unless it regressed.
    bench = {"workloads": [{"name": "capture_classify"}],
             "end_to_end": [{"name": "sessions_per_s", "unit": "1/s", "better": "higher",
                             "bound": 0.1}]}
    runs = [{"workload": "capture_classify", "failed": 0,
             "metrics": {"sessions_per_s": {"value": v}}} for v in base]
    slower = [dict(r, metrics={"sessions_per_s": {"value": v * 0.8}}) for r, v in zip(runs, base)]
    same, _ = compare({"runs": runs}, {"runs": runs}, bench)
    worse, _ = compare({"runs": runs}, {"runs": slower}, bench)
    print(f"self-test repeated metric -> {len(same)} row(s) unchanged, "
          f"{[r['verdict'] for r in worse]} when slower")
    ok &= not same and [r["verdict"] for r in worse] == ["regressed"]
    print("self-test " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.parent is None or args.change is None:
        parser.error("need PARENT.json and CHANGE.json (or --self-test)")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        parent = json.loads(args.parent.read_text(encoding="utf-8"))
        change = json.loads(args.change.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    rows, notes = compare(parent, change, bench)
    print(render(rows, notes))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
