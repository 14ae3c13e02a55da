#!/usr/bin/env python3
"""Layer ledger of a traced vstream_e2e run.

    python3 bench/e2e/ledger.py TRACE.json [TRACE.json ...]
    python3 bench/e2e/ledger.py --self-test

Reads the Chrome-trace JSON that `run.py --trace 1` writes (one file per
workload) and prints, per workload, the self time and span count of every
layer over the traced rounds. Spans are of three kinds:

  round   the root span of a timed round (worker 0);
  fan-out a `runner` span around a ParallelSweep call; its tasks are its
          direct children, on every worker;
  call    any other span: a call into a layer's public function, or the
          benchmark's own glue (`bench`). Its self time is its duration
          minus the durations of its direct children on the same worker
          (children on another worker ran in parallel).

Only calls have self time. The runner's own time and the idle time are
measured, not taken as what is left over: inside a fan-out, an instant when
the fanning worker is in none of its tasks is idle if another worker is in a
task (it waits for a straggler) and runner time otherwise (thread start,
hand-off, merge). A worker other than 0 runs only fanned-out tasks, so its
time inside a round outside them is idle. What is left of a round on worker
0 — time inside no call and no fan-out — is accounted to no layer.

The ledger closes when call self times, runner time and idle add up to
wall x workers over the traced rounds; the script exits 1 when the time
accounted to no layer exceeds 5% of it.

It also prints the two calibration estimates the benchmark measures: the
share of the streaming calls spent in sim event dispatch, and in net link
hops. They overlap (a hop's two events are sim events), so their sum is an
upper bound on the sim+net share — the serial part for Amdahl's law when
asking whether parallelism inside one world would pay.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

TOLERANCE = 0.05

# Layer self-time shares reported as per-layer metrics (share of wall x
# workers over the traced rounds).
SHARE_METRICS = {
    "streaming": "streaming.self_share",
    "analysis": "analysis.self_share",
    "check": "check.self_share",
    "bench": "bench.self_share",
}


def load(path: Path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def length(intervals: list[tuple[float, float]]) -> float:
    return sum(end - start for start, end in intervals)


def clip(intervals: list[tuple[float, float]], lo: float, hi: float) -> list[tuple[float, float]]:
    return [(max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo)]


def overlap(a: list[tuple[float, float]], b: list[tuple[float, float]]) -> float:
    """Length of the intersection of two unions of disjoint intervals."""
    return sum(length(clip(b, s, e)) for s, e in a)


def compute(trace: dict) -> dict:
    """Ledger of one trace: per-layer call self seconds and counts, runner
    time, idle time, time accounted to no layer, capacity (wall x workers)
    and the closing residual, over the spans under root spans named
    "round"."""
    other = trace.get("otherData", {})
    workers = int(other.get("workers", 1))
    spans = {}
    for ev in trace.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        args = ev.get("args", {})
        start = ev["ts"] * 1e-6
        spans[args["span_id"]] = {
            "name": ev["name"],
            "layer": args["layer"],
            "worker": int(ev["tid"]),
            "start": start,
            "end": start + ev["dur"] * 1e-6,
            "parent": args["parent_id"],
        }
    children = defaultdict(list)
    for sid, s in spans.items():
        if s["parent"] in spans:
            children[s["parent"]].append(s)

    def root_of(span_id: int) -> int:
        seen = set()
        while spans[span_id]["parent"] in spans and span_id not in seen:
            seen.add(span_id)
            span_id = spans[span_id]["parent"]
        return span_id

    rounds = {sid for sid, s in spans.items() if s["parent"] == 0 and s["name"] == "round"}
    self_s = defaultdict(float)
    count = defaultdict(int)
    idle = runner = unaccounted = 0.0
    # Per (round, worker > 0): the spans fanned out to that worker.
    fanned = defaultdict(list)
    for sid, s in spans.items():
        root = root_of(sid)
        if root not in rounds:
            continue
        mine = [(c["start"], c["end"]) for c in children[sid] if c["worker"] == s["worker"]]
        uncovered = s["end"] - s["start"] - length(union(clip(mine, s["start"], s["end"])))
        parent = spans.get(s["parent"])
        if s["worker"] != spans[root]["worker"] and (parent is None or
                                                      parent["worker"] != s["worker"]):
            fanned[(root, s["worker"])].append((s["start"], s["end"]))
        if sid == root:
            unaccounted += uncovered
        elif s["layer"] == "runner":
            # A fan-out: its uncovered time on the fanning worker is idle
            # while another worker is in a task, and the runner's otherwise.
            gaps = [(s["start"], s["end"])]
            for a, b in union(clip(mine, s["start"], s["end"])):
                gaps = [g for lo, hi in gaps for g in ((lo, min(hi, a)), (max(lo, b), hi))
                        if g[1] > g[0]]
            busy = union(clip([(c["start"], c["end"]) for c in children[sid]
                               if c["worker"] != s["worker"]], s["start"], s["end"]))
            waited = overlap(gaps, busy)
            idle += waited
            runner += length(gaps) - waited
            count["runner"] += 1
        else:
            self_s[s["layer"]] += uncovered
            count[s["layer"]] += 1
    for r in rounds:
        lo, hi = spans[r]["start"], spans[r]["end"]
        for w in range(workers):
            if w != spans[r]["worker"]:
                idle += (hi - lo) - length(union(clip(fanned[(r, w)], lo, hi)))

    capacity = sum(spans[r]["end"] - spans[r]["start"] for r in rounds) * workers
    accounted = sum(self_s.values()) + runner + idle
    residual = 1.0 - accounted / capacity if capacity > 0 else 1.0
    return {
        "workload": other.get("workload", "?"),
        "workers": workers,
        "rounds": len(rounds),
        "capacity_s": capacity,
        "self_s": dict(self_s),
        "count": dict(count),
        "runner_s": runner,
        "idle_s": idle,
        "unaccounted_s": unaccounted,
        "residual": residual,
        "other": other,
    }


def closes(ledger: dict) -> bool:
    return abs(ledger["residual"]) <= TOLERANCE


def metrics(ledger: dict) -> dict:
    """The per-layer metrics the ledger contributes to a traced run."""
    cap = ledger["capacity_s"] or 1.0
    out = {name: ledger["self_s"].get(layer, 0.0) / cap for layer, name in SHARE_METRICS.items()}
    out["runner.self_share"] = ledger["runner_s"] / cap
    out["runner.idle_share"] = ledger["idle_s"] / cap
    out["bench.ledger_residual_share"] = abs(ledger["residual"])
    return out


def amdahl(serial: float, workers: int) -> float:
    return 1.0 / (serial + (1.0 - serial) / workers)


def render(ledger: dict) -> str:
    cap = ledger["capacity_s"]
    lines = [
        f"== {ledger['workload']}: {ledger['rounds']} traced rounds, "
        f"{ledger['workers']} worker(s), wall x workers = {cap:.3f} s",
        f"  {'layer':<13} {'self_s':>10} {'share':>8} {'spans':>8}",
    ]
    rows = sorted(ledger["self_s"].items(), key=lambda kv: -kv[1])
    for layer, secs in rows:
        lines.append(f"  {layer:<13} {secs:>10.3f} {secs / cap:>8.1%} {ledger['count'][layer]:>8}")
    for label, key in (("runner", "runner_s"), ("(idle)", "idle_s"),
                       ("(unaccounted)", "unaccounted_s")):
        spans = ledger["count"].get("runner", 0) if key == "runner_s" else ""
        lines.append(f"  {label:<13} {ledger[key]:>10.3f} {ledger[key] / cap:>8.1%} {spans:>8}")
    verdict = "closes" if closes(ledger) else "DOES NOT CLOSE"
    lines.append(f"  residual {ledger['residual']:+.2%} of wall x workers: ledger {verdict} "
                 f"(tolerance {TOLERANCE:.0%})")
    other = ledger["other"]
    sim_share = other.get("sim_dispatch_share", 0.0)
    net_share = other.get("net_link_share", 0.0)
    if other.get("sim_events", 0) > 0:
        lines.append(
            f"  streaming calls {other.get('streaming_call_s', 0.0):.3f} s run "
            f"{other['sim_events']:.0f} events: sim dispatch ~{sim_share:.1%} "
            f"({other['sim_ns_per_event']:.1f} ns/event at depth {other['sim_depth']}), "
            f"link hops ~{net_share:.1%} ({other['net_ns_per_hop']:.1f} ns/hop)")
        serial = min(sim_share + net_share, 1.0)
        lines.append(
            f"  sim+net <= {serial:.1%} of a call: the rest ({1 - serial:.1%}) is tcp, "
            f"streaming application, capture and obs work inside the call; if sim+net "
            f"stayed serial, parallelism inside a call is capped at "
            f"{amdahl(serial, 2):.2f}x on 2 workers, {amdahl(serial, 4):.2f}x on 4")
    lines.append(f"  tracing overhead {other.get('trace_overhead_share', 0.0):+.1%} "
                 f"(traced vs untraced rounds, medians of the faster halves)")
    return "\n".join(lines)


def self_test() -> int:
    """Two synthetic 2-worker traces: one whose round is covered, and one
    with a gap on worker 0 that no span covers, which must not close."""

    def trace(round_end: float, with_check: bool) -> dict:
        rows = [("round", "bench", 0, 0.0, round_end, 1, 0),
                ("map", "runner", 0, 0.0, 0.9, 2, 1),
                ("run_session", "streaming", 0, 0.0, 0.5, 3, 2),
                ("run_session", "streaming", 0, 0.5, 0.7, 4, 2),
                ("run_session", "streaming", 1, 0.05, 0.85, 5, 2)]
        if with_check:
            rows.append(("check_pass", "check", 0, 0.9, 0.995, 6, 1))
        events = [{"name": n, "ph": "X", "tid": w, "ts": a * 1e6, "dur": (b - a) * 1e6,
                   "args": {"layer": layer, "span_id": sid, "parent_id": parent}}
                  for n, layer, w, a, b, sid, parent in rows]
        return {"traceEvents": events, "otherData": {"workload": "synthetic", "workers": 2}}

    ok = True
    covered = compute(trace(1.0, True))
    # Worker 0 waits [0.7, 0.85] for worker 1 and hands off alone
    # [0.85, 0.9]; worker 1 idles 0.2 of the round.
    want = {"runner_s": 0.05, "idle_s": 0.15 + 0.2, "unaccounted_s": 0.005}
    for key, value in want.items():
        got = covered[key]
        print(f"self-test covered {key} {got:.4f} (want {value:.4f})")
        ok &= abs(got - value) < 1e-9
    print(f"self-test covered residual {covered['residual']:+.2%} closes={closes(covered)}")
    ok &= closes(covered) and abs(covered["self_s"]["streaming"] - 1.5) < 1e-9
    gap = compute(trace(1.2, False))  # [0.9, 1.2] on worker 0 is inside no span
    print(f"self-test gap residual {gap['residual']:+.2%} closes={closes(gap)}")
    ok &= not closes(gap) and abs(gap["residual"] - 0.3 / 2.4) < 1e-9
    print("self-test " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("traces", nargs="*", type=Path)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.traces:
        parser.error("need TRACE.json (or --self-test)")
    ledgers = []
    for path in args.traces:
        try:
            ledgers.append(compute(load(path)))
        except (OSError, ValueError, KeyError) as exc:
            print(f"ledger: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    print("\n\n".join(render(l) for l in ledgers))
    return 0 if all(closes(l) for l in ledgers) else 1


if __name__ == "__main__":
    sys.exit(main())
