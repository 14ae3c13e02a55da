#!/usr/bin/env python3
"""vstream domain linter: repo rules clang-tidy cannot express.

Rules (all scoped to C++ sources):

  rand         no rand()/srand()/random() — all stochastic behaviour must
               flow through sim::Rng so a run is reproducible from its seed.
               Scope: src/, examples/, tools/, bench/, tests/ (a test that
               draws from an unseeded PRNG flakes by construction).
  wall-clock   no wall-clock reads (std::chrono::*_clock, time(), clock(),
               gettimeofday) inside simulation-driven code: simulated time
               comes from sim::Simulator. Scope: src/, examples/, tools/,
               tests/ (a test that reads the host clock is timing-flaky and
               cannot assert on sim-time invariants).
               bench/ is host-side harness code and exempt, as is
               src/runner/sweep_profiler.* — the one sanctioned wall-clock
               reader, which times the harness around session worlds and
               never the worlds themselves.
  float-eq     no == / != against floating-point literals; compare with an
               explicit tolerance. Scope: src/, examples/, tools/, bench/.
  naked-new    no naked new/delete; use std::make_unique / std::make_shared
               or containers. Scope: src/, examples/, tools/, bench/.
  bare-assert  no <cassert> assert() — it vanishes under NDEBUG, so CI
               builds would not run it. Use the VSTREAM_* contract macros
               (src/check/contracts.hpp); in tests/, use the GTest
               EXPECT_*/ASSERT_* macros. static_assert is fine.
               Scope: src/, examples/, tools/, bench/, tests/.
  thread       no std::thread / std::jthread / std::async / <thread> /
               <future> outside src/runner — each simulated world is
               single-threaded by construction (that is what makes twin-run
               determinism auditable), and all fan-out goes through
               runner::ParallelSweep, which parallelises across whole
               worlds, never inside one.
               Scope: src/, examples/, tools/, bench/; src/runner/ exempt.
  sim-time     retry/backoff and impairment-schedule code must time itself
               exclusively on the simulation clock: no std::chrono types,
               no sleep_for/sleep_until/usleep/nanosleep. A wall-clock nap
               in a watchdog or a backoff would silently decouple recovery
               from sim time and break twin-run digest determinism.
               Scope: ONLY src/net/dynamics.*, src/streaming/retry.hpp and
               src/streaming/fetch.* (the first rule that applies to named
               files rather than whole directories).
  profiler-clock
               the sweep profiler may READ the wall clock (that is its job)
               but must never block on it: no sleep_for/sleep_until/usleep/
               nanosleep. A sleeping profiler would skew the very phase
               timings it reports and stall the worker it runs on.
               Scope: ONLY src/runner/sweep_profiler.hpp/.cpp.
  run-session  no direct streaming::run_session calls in examples/ — example
               scenarios go through the builder APIs (TopologyBuilder for
               multi-session worlds, SessionBuilder for one private world),
               which validate before running. Scope: examples/ only, with
               no exemptions.
  runner-layering
               no #include "streaming/..." in the sweep pool or profiler:
               worlds enter the runner through session_sweep/topology_sweep.
               Matched on the raw line, string literals included.
               Scope: ONLY src/runner/parallel_sweep.* and sweep_profiler.*.
  world-assembly
               no set_obs( / set_digest( / SimLoopMonitor outside the world
               shell: library worlds are assembled by streaming::World, one
               way. Scope: src/; src/sim/, src/obs/ and
               src/streaming/world.* exempt (tests and benches are out).
  json-codec   no "null" string literal outside the JSON codec: every JSON
               writer goes through src/obs/json.*, which owns the number,
               null and escaping rules, so a hand-written "null" is a second
               copy of them. Matched on the raw line, string literals
               included. Scope: src/, tools/, examples/; src/obs/json.*
               exempt.

Waivers: append `// vstream-lint: allow(<rule>): <reason>` to the offending
line, or put `// vstream-lint-file: allow(<rule>): <reason>` anywhere in the
file to waive the rule for the whole file. Reasons are mandatory.

Exit status (the repo-wide analyzer convention, shared with
vstream_ast_lint.py and check_bench_floor.py): 0 clean, 1 findings,
2 usage or environment error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CPP_SUFFIXES = {".cpp", ".hpp", ".cc", ".h"}

LINE_WAIVER = re.compile(r"//\s*vstream-lint:\s*allow\((?P<rules>[a-z-]+(?:\s*,\s*[a-z-]+)*)\):\s*\S")
FILE_WAIVER = re.compile(
    r"//\s*vstream-lint-file:\s*allow\((?P<rules>[a-z-]+(?:\s*,\s*[a-z-]+)*)\):\s*\S"
)

# rule -> (pattern, message, directories it applies to)
RULES = {
    "rand": (
        re.compile(r"(?<![\w:])(?:std::)?s?rand(?:om)?\s*\("),
        "rand()/srand()/random() breaks seeded reproducibility; use sim::Rng",
        ("src", "examples", "tools", "bench", "tests"),
    ),
    "wall-clock": (
        re.compile(
            r"std::chrono::(?:system|steady|high_resolution)_clock"
            r"|(?<![\w:])(?:std::)?time\s*\(\s*(?:nullptr|NULL|0)\s*\)"
            r"|(?<![\w:])(?:std::)?clock\s*\(\s*\)"
            r"|(?<![\w:])gettimeofday\s*\("
        ),
        "wall-clock read inside simulation-driven code; use sim::Simulator::now()",
        ("src", "examples", "tools", "tests"),
    ),
    "float-eq": (
        re.compile(
            r"[=!]=\s*[-+]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][-+]?\d+)?[fF]?(?![\w.])"
            r"|(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?[fF]?\s*[=!]="
        ),
        "floating-point equality comparison; compare with an explicit tolerance",
        ("src", "examples", "tools", "bench"),
    ),
    "naked-new": (
        re.compile(r"(?<![\w:])new\s+[A-Za-z_(]|(?<![\w:])delete\s+[\w(]|(?<![\w:])delete\[\]"),
        "naked new/delete; use std::make_unique / std::make_shared or a container",
        ("src", "examples", "tools", "bench"),
    ),
    "bare-assert": (
        re.compile(r"(?<![\w.])assert\s*\(|#\s*include\s*<cassert>|#\s*include\s*<assert\.h>"),
        "bare assert() vanishes under NDEBUG; use VSTREAM_INVARIANT / _PRECONDITION "
        "(tests: GTest EXPECT_*/ASSERT_*)",
        ("src", "examples", "tools", "bench", "tests"),
    ),
    "thread": (
        re.compile(
            r"std::(?:jthread|thread|async)\b"
            r"|#\s*include\s*<(?:thread|future)>"
        ),
        "threads outside src/runner; per-world code is single-threaded — fan out via runner::ParallelSweep",
        ("src", "examples", "tools", "bench"),
    ),
    "sim-time": (
        re.compile(
            r"std::chrono::"
            r"|(?<![\w:])sleep_(?:for|until)\s*\("
            r"|(?<![\w:])u?sleep\s*\("
            r"|(?<![\w:])nanosleep\s*\("
        ),
        "retry/backoff and impairment schedules must use sim::Time/sim::Duration, never wall-clock",
        ("src",),
    ),
    "profiler-clock": (
        re.compile(
            r"(?<![\w:])sleep_(?:for|until)\s*\("
            r"|(?<![\w:])u?sleep\s*\("
            r"|(?<![\w:])nanosleep\s*\("
        ),
        "the sweep profiler reads the clock but must never sleep on it",
        ("src",),
    ),
    "runner-layering": (
        re.compile(r'#\s*include\s*"streaming/'),
        "the sweep pool and profiler must not depend on streaming/; layer worlds on top via "
        "session_sweep / topology_sweep",
        ("src",),
    ),
    "world-assembly": (
        re.compile(r"\bset_(?:obs|digest)\s*\(|\bSimLoopMonitor\b"),
        "world assembly outside the shell; build the world on streaming::World",
        ("src",),
    ),
    "json-codec": (
        re.compile(r'"null"'),
        "JSON written by hand; write it through the obs/json codec, which owns null",
        ("src", "tools", "examples"),
    ),
    "run-session": (
        re.compile(r"\brun_session\s*\("),
        "direct run_session in examples/; use TopologyBuilder / SessionBuilder",
        ("examples",),
    ),
}

# rule -> path prefixes (relative to the repo root) where it does not apply.
# src/runner is the one sanctioned home for threads: it parallelises across
# whole simulated worlds and never shares state inside one.
RULE_EXEMPT_PREFIXES = {
    "thread": (("src", "runner"),),
    # The sweep profiler is the one sanctioned wall-clock reader: it times
    # the harness around session worlds (build/run/analyze/merge phases),
    # never anything inside a world. The profiler-clock rule below still
    # bans it from sleeping.
    "wall-clock": (
        ("src", "runner", "sweep_profiler.hpp"),
        ("src", "runner", "sweep_profiler.cpp"),
    ),
    # The simulator and obs layers define what the shell wires together.
    "world-assembly": (
        ("src", "sim"),
        ("src", "obs"),
        ("src", "streaming", "world.hpp"),
        ("src", "streaming", "world.cpp"),
    ),
    # The codec is the one place JSON's null is spelled.
    "json-codec": (
        ("src", "obs", "json.hpp"),
        ("src", "obs", "json.cpp"),
    ),
}

# rule -> path prefixes the rule is restricted to: it fires ONLY under one of
# them (the inverse of RULE_EXEMPT_PREFIXES). A prefix may name a directory
# or, with a final filename component, a single file. Used for rules that
# enforce a contract of one subsystem rather than a repo-wide convention.
RULE_ONLY_PREFIXES = {
    # Retry/backoff timers and impairment schedules are *simulated* time by
    # contract: a std::chrono duration or a sleep would tie recovery to the
    # host clock and break twin-run digest determinism.
    "sim-time": (
        ("src", "net", "dynamics.hpp"),
        ("src", "net", "dynamics.cpp"),
        ("src", "streaming", "retry.hpp"),
        ("src", "streaming", "fetch.hpp"),
        ("src", "streaming", "fetch.cpp"),
    ),
    # The profiler holds the wall-clock exemption above; this companion rule
    # confines what that exemption licenses — reading the clock, never
    # blocking on it.
    "profiler-clock": (
        ("src", "runner", "sweep_profiler.hpp"),
        ("src", "runner", "sweep_profiler.cpp"),
    ),
    "runner-layering": (
        ("src", "runner", "parallel_sweep.hpp"),
        ("src", "runner", "parallel_sweep.cpp"),
        ("src", "runner", "sweep_profiler.hpp"),
        ("src", "runner", "sweep_profiler.cpp"),
    ),
}

# Rules matched against the raw line instead of the string-stripped code.
RAW_LINE_RULES = {"runner-layering", "json-codec"}

COMMENT_ONLY = re.compile(r"^\s*(//|\*|/\*)")
STRING_LITERAL = re.compile(r'"(?:[^"\\]|\\.)*"')


def lint_file(path: Path, root: Path) -> list[str]:
    rel = path.relative_to(root)
    top = rel.parts[0]
    text = path.read_text(encoding="utf-8", errors="replace")
    file_waived: set[str] = set()
    for match in FILE_WAIVER.finditer(text):
        file_waived.update(r.strip() for r in match.group("rules").split(","))

    findings = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if COMMENT_ONLY.match(line):
            continue
        waived = set(file_waived)
        line_waiver = LINE_WAIVER.search(line)
        if line_waiver:
            waived.update(r.strip() for r in line_waiver.group("rules").split(","))
        # Strip string literals and the trailing comment before matching, so
        # documentation and messages never trip a rule.
        code = STRING_LITERAL.sub('""', line)
        code = code.split("//", 1)[0]
        if "static_assert" in code:
            code = code.replace("static_assert", "")
        for rule, (pattern, message, scopes) in RULES.items():
            if top not in scopes or rule in waived:
                continue
            exempt = RULE_EXEMPT_PREFIXES.get(rule, ())
            if any(rel.parts[: len(prefix)] == prefix for prefix in exempt):
                continue
            only = RULE_ONLY_PREFIXES.get(rule)
            if only is not None and not any(
                rel.parts[: len(prefix)] == prefix for prefix in only
            ):
                continue
            if pattern.search(line if rule in RAW_LINE_RULES else code):
                findings.append(f"{rel}:{lineno}: [{rule}] {message}\n    {line.strip()}")
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: the checkout containing this script)")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="restrict linting to these files (default: whole tree)")
    args = parser.parse_args()
    root = args.root.resolve()

    if args.paths:
        files = [p.resolve() for p in args.paths if p.suffix in CPP_SUFFIXES]
    else:
        files = sorted(
            p for top in ("src", "examples", "tools", "bench", "tests")
            for p in (root / top).rglob("*") if p.suffix in CPP_SUFFIXES
        )

    findings: list[str] = []
    for path in files:
        try:
            findings.extend(lint_file(path, root))
        except ValueError:
            print(f"vstream_lint: {path} is outside {root}", file=sys.stderr)
            return 2

    for finding in findings:
        print(finding)
    print(f"vstream_lint: {len(files)} files, {len(findings)} finding(s)")
    return 0 if not findings else 1


if __name__ == "__main__":
    sys.exit(main())
