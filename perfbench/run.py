"""The repository's benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload point_select --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the deterministic count run, an untraced window and a
traced window, and reports the per-layer metrics. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUP_REPEATS = 3
WARMUP_SECONDS = 1.5
#: the workloads BENCHMARK.json declares, which ``--workload all`` runs
DECLARED = ("point_select", "scatter", "tpcc_serial", "hot_mix")
WORKLOAD_NAMES = DECLARED + ("tpcc",)

# The end-to-end metrics (trace 0) and the per-layer metrics (trace 1)
# that BENCHMARK.json declares, with their units.
END_TO_END = {
    "ops_per_s": "1/s",
    "mean_ms": "ms",
    "p95_ms": "ms",
    "cpu_us_per_op": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "adaptors.jdbc.self_us_per_stmt": "us",
    "adaptors.proxy.busy_rejections": "count",
    "sql.parse_calls_per_op": "count",
    "engine.plan.hit_rate": "ratio",
    "engine.plan.bypass_rate": "ratio",
    "engine.self_us_per_stmt": "us",
    "engine.result_cache.hit_rate": "ratio",
    "engine.result_cache.invalidations_per_op": "count",
    "engine.executor.units_per_stmt": "count",
    "engine.executor.self_us_per_stmt": "us",
    "engine.executor.steals_per_op": "count",
    "engine.executor.retries_per_op": "count",
    "engine.merger.us_per_op": "us",
    "transaction.rollbacks_per_op": "count",
    "storage.pool.acquires_per_op": "count",
    "storage.pool.wait_us_per_op": "us",
    "storage.statements_per_op": "count",
    "storage.connection.us_per_stmt": "us",
    "storage.plans.cpu_us_per_stmt": "us",
    "storage.plans.hit_rate": "ratio",
    "storage.plans.bypass_rate": "ratio",
    # priced by the latency model, not measured: deterministic by design
    "storage.latency.sim_io_us_per_op": "sim_us",
    "storage.latency.overrun_us_per_op": "us",
    "python.calls_per_op": "count",
    "trace.overhead_pct": "%",
}
# Layer times that only some workloads exercise. They are printed and
# recorded with the rest but are not declared in BENCHMARK.json, where a
# time that is 0 on every run of a workload would be refused.
WORKLOAD_SPECIFIC = {
    "protocol.rtt_us_per_stmt": "us",
    "adaptors.proxy.overhead_us_per_stmt": "us",
    "sql.parse_us_per_op": "us",
    "engine.route_us_per_op": "us",
    "engine.rewrite_us_per_op": "us",
    "engine.result_cache.lookup_us": "us",
    "transaction.commit_us": "us",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or 'all' to run every declared one in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of each measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=20, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def source_digest() -> str:
    """sha256 over every file under src/, by relative path and content."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args: argparse.Namespace, name: str, workload: Any,
               tracing: bool) -> dict[str, Any]:
    from repro.baselines import BENCH_LATENCY

    sha = dirty = None
    if (ROOT / ".git").exists():
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "argv": sys.argv,
        "latency_profile": {"name": "BENCH_LATENCY", **dataclasses.asdict(BENCH_LATENCY)},
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "sessions": workload.sessions,
        "warmup_s": WARMUP_SECONDS,
        # --trace 1 builds twice: once per count run
        "builds": 2 if tracing else SETUP_REPEATS,
        "tracing": tracing,
        "features": workload.features(),
    }


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_samples(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank q-th percentile."""
    return count - int(max(1, -(-count * q // 100)))


def build_timed(workload: Any) -> tuple[Any, float]:
    t0 = time.perf_counter()
    system = workload.build()
    return system, time.perf_counter() - t0


def close_if_built(system: Any) -> None:
    if system is not None:
        system.close()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counters(system: Any) -> dict[str, float]:
    """The program's own cumulative counters that per-layer metrics diff."""
    engine = system.runtime.engine
    plans = engine.plan_cache.stats()
    cache = engine.result_cache.stats()
    out = {
        "plan_hits": plans["hits"], "plan_misses": plans["misses"],
        "plan_bypasses": plans["bypasses"],
        "cache_hits": cache["hits"], "cache_misses": cache["misses"],
        "cache_invalidations": cache["invalidations"],
        "steals": engine.executor.metrics.steals,
        "retries": engine.executor.metrics.retries,
        "storage_statements": 0, "splan_hits": 0, "splan_misses": 0, "splan_bypasses": 0,
        "busy_rejections": 0,
    }
    for source in system.runtime.data_sources.values():
        database = source.database
        out["storage_statements"] += database.statements_executed
        stats = database.plan_cache.stats()
        out["splan_hits"] += stats["hits"]
        out["splan_misses"] += stats["misses"]
        out["splan_bypasses"] += stats["bypasses"]
    server = getattr(system, "server", None)
    if server is not None:
        out["busy_rejections"] = server.stats()["backpressure_rejections"]
    return out


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def measure(args: argparse.Namespace, workload: Any) -> dict[str, Any]:
    """--trace 0: set up several times, then one untraced window."""
    from loop import run_window

    setups = []
    system = None
    try:
        for _ in range(SETUP_REPEATS):
            close_if_built(system)
            system = None
            system, seconds = build_timed(workload)
            setups.append(seconds)
        operations = [workload.operation(system, i) for i in range(workload.sessions)]
        window = run_window(system, operations, args.seed, args.seconds, WARMUP_SECONDS)
        violations = workload.verify(system)
    finally:
        close_if_built(system)
    lat = window.latencies_ms
    kept_lat = window.kept_latencies_ms
    if not kept_lat:
        raise RuntimeError("no operation completed inside the window")
    metrics = {
        "ops_per_s": window.ops_per_s,
        "mean_ms": statistics.fmean(kept_lat),
        "p95_ms": percentile(kept_lat, 95),
        "cpu_us_per_op": window.cpu_us_per_op,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra: dict[str, Any] = {
        "samples": len(lat),
        "kept_blocks": window.kept_blocks,
        "kept_samples": len(kept_lat),
        "p95_tail_samples": tail_samples(len(kept_lat), 95),
        "block_steal_ticks": window.block_steal,
        "window_mean_ms": statistics.fmean(lat),
        "window_p95_ms": percentile(lat, 95),
        "p50_ms": statistics.median(lat),
        "p99_ms": percentile(lat, 99),
        "p99_tail_samples": tail_samples(len(lat), 99),
        "setup_runs_s": setups,
        "window_s": window.seconds,
        "block_ops": window.block_ops,
        "block_cpu_s": window.block_cpu,
        "mean_ops_per_s": window.completed / window.seconds,
    }
    if window.write_latencies_ms:
        writes = window.write_latencies_ms
        extra.update({
            "write_samples": len(writes),
            "write_p50_ms": statistics.median(writes),
            "write_p99_ms": percentile(writes, 99),
            "write_p99_tail_samples": tail_samples(len(writes), 99),
        })
    return {
        "metrics": metrics, "extra": extra, "violations": violations,
        "attempted": window.attempted + window.warmup_attempted + len(violations),
        "failed": window.failed + window.warmup_failed + len(violations),
        "failures": window.failures,
    }


def trace_run(args: argparse.Namespace, workload: Any) -> dict[str, Any]:
    """--trace 1: count run, untraced window, traced window."""
    from layers import (COMMIT, CONNECTION, ENGINE, EXECUTOR, JDBC, MERGER, PARSE, PLANS,
                        POOL, PROTOCOL, RESULT_CACHE, REWRITE, ROUTE, CallCounter, Tracer)
    from loop import run_counted, run_window

    systems: list[Any] = []
    try:
        system, setup_s = build_timed(workload)
        systems.append(system)

        # Deterministic count run: one session, fixed seed and op count,
        # repeated on a second freshly built system to see if it repeats.
        counter = CallCounter()
        counts = []
        statements = []
        count_attempted = count_failed = 0
        for repeat in range(2):
            if repeat:
                system, _ = build_timed(workload)
                systems.append(system)
            marks: list[dict[str, float]] = []

            def count_on(system: Any = system) -> None:
                marks.append(counters(system))
                counter.on()

            def count_off(system: Any = system) -> None:
                counter.off()
                marks.append(counters(system))

            attempted, failed = run_counted(
                system, workload.operation(system, 0), args.seed,
                workload.count_warmup, workload.count_ops, count_on, count_off)
            count_attempted += attempted
            count_failed += failed
            counts.append(counter.calls)
            statements.append(delta(marks[1], marks[0])["storage_statements"])
        close_if_built(systems.pop(0))
        ops = workload.count_ops
        operations = [workload.operation(system, i) for i in range(workload.sessions)]

        untraced = run_window(system, operations, args.seed, args.seconds,
                              WARMUP_SECONDS, salt=1)
        tracer = Tracer()
        snap: dict[str, Any] = {}

        def start_tracing() -> None:
            snap["before"] = counters(system)
            tracer.install()
            snap["origin"] = time.perf_counter()

        try:
            traced = run_window(system, operations, args.seed, args.seconds,
                                WARMUP_SECONDS, salt=2, before_window=start_tracing)
        finally:
            tracer.remove()
        moved = delta(counters(system), snap["before"])
        violations = workload.verify(system)
    finally:
        for built in systems:
            close_if_built(built)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
    tracer.write(str(spans_path), snap["origin"])

    t = tracer.layer_totals()
    n = max(1, traced.attempted)
    us = 1e6
    plan_total = moved["plan_hits"] + moved["plan_misses"] + moved["plan_bypasses"]
    splan_total = moved["splan_hits"] + moved["splan_misses"] + moved["splan_bypasses"]
    protocol = t[PROTOCOL]
    metrics = {
        "adaptors.jdbc.self_us_per_stmt":
            ratio(t[JDBC]["self_seconds"], t[JDBC]["statements"]) * us,
        "adaptors.proxy.busy_rejections": moved["busy_rejections"],
        "sql.parse_calls_per_op": t[PARSE]["spans"] / n,
        "engine.plan.hit_rate": ratio(moved["plan_hits"], plan_total),
        "engine.plan.bypass_rate": ratio(moved["plan_bypasses"], plan_total),
        "engine.self_us_per_stmt": ratio(t[ENGINE]["self_seconds"], t[ENGINE]["statements"]) * us,
        "engine.result_cache.hit_rate": ratio(
            moved["cache_hits"], moved["cache_hits"] + moved["cache_misses"]),
        "engine.result_cache.invalidations_per_op": moved["cache_invalidations"] / n,
        "engine.executor.units_per_stmt": ratio(sum(tracer.units), t[EXECUTOR]["statements"]),
        "engine.executor.self_us_per_stmt":
            ratio(t[EXECUTOR]["self_seconds"], t[EXECUTOR]["statements"]) * us,
        "engine.executor.steals_per_op": moved["steals"] / n,
        "engine.executor.retries_per_op": moved["retries"] / n,
        "engine.merger.us_per_op": (t[MERGER]["seconds"] + sum(tracer.drain)) / n * us,
        "transaction.rollbacks_per_op": tracer.rollbacks / n,
        "storage.pool.acquires_per_op": t[POOL]["spans"] / n,
        "storage.pool.wait_us_per_op": t[POOL]["seconds"] / n * us,
        "storage.statements_per_op": statements[0] / ops,
        "storage.connection.us_per_stmt":
            ratio(t[CONNECTION]["self_seconds"], moved["storage_statements"]) * us,
        "storage.plans.cpu_us_per_stmt": ratio(sum(tracer.plan_cpu), t[PLANS]["spans"]) * us,
        "storage.plans.hit_rate": ratio(moved["splan_hits"], splan_total),
        "storage.plans.bypass_rate": ratio(moved["splan_bypasses"], splan_total),
        "storage.latency.sim_io_us_per_op": sum(tracer.priced) / n * us,
        "storage.latency.overrun_us_per_op": (sum(tracer.slept) - sum(tracer.priced)) / n * us,
        "python.calls_per_op": counts[0] / ops,
        "trace.overhead_pct": (untraced.ops_per_s - traced.ops_per_s) / untraced.ops_per_s * 100,
    }
    specific = {
        "protocol.rtt_us_per_stmt": ratio(protocol["seconds"], protocol["spans"]) * us,
        "adaptors.proxy.overhead_us_per_stmt": ratio(
            protocol["seconds"] - t[ENGINE]["seconds"], protocol["spans"]) * us
            if protocol["spans"] else 0.0,
        "sql.parse_us_per_op": t[PARSE]["seconds"] / n * us,
        "engine.route_us_per_op": t[ROUTE]["seconds"] / n * us,
        "engine.rewrite_us_per_op": t[REWRITE]["seconds"] / n * us,
        "engine.result_cache.lookup_us": ratio(
            t[RESULT_CACHE]["seconds"], t[RESULT_CACHE]["spans"]) * us,
        "transaction.commit_us": ratio(t[COMMIT]["seconds"], t[COMMIT]["spans"]) * us,
    }
    extra = {
        "workload_specific": specific,
        "count_run": {
            "ops": ops, "python_calls": counts, "storage_statements": statements,
            "exact_repeat": counts[0] == counts[1] and statements[0] == statements[1],
            "counted_threads": "the calling thread and threads started during the count",
        },
        "untraced": {"ops_per_s": untraced.ops_per_s,
                     "cpu_us_per_op": untraced.cpu_us_per_op},
        "traced": {"ops_per_s": traced.ops_per_s,
                   "cpu_us_per_op": traced.cpu_us_per_op,
                   "ops": traced.attempted, "spans": len(tracer.spans)},
        "layers": t,
        "setup_s": setup_s,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    windows = (untraced, traced)
    return {
        "metrics": metrics, "extra": extra, "violations": violations,
        "attempted": sum(w.attempted + w.warmup_attempted for w in windows)
        + count_attempted + len(violations),
        "failed": sum(w.failed + w.warmup_failed for w in windows)
        + count_failed + len(violations),
        "failures": untraced.failures + traced.failures,
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def report(args: argparse.Namespace, outcome: dict[str, Any], prov: dict[str, Any]) -> None:
    units = PER_LAYER if args.trace else END_TO_END
    extra = outcome["extra"]
    print(f"perfbench {prov['workload']} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} sessions={prov['sessions']}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:44s} {outcome['metrics'][name]:14.4f} {unit}")
    if args.trace:
        for name, unit in WORKLOAD_SPECIFIC.items():
            print(f"  {name:44s} {extra['workload_specific'][name]:14.4f} {unit}"
                  "  (not declared)")
        traced = extra["traced"]
        print(f"  per op, traced window: python cpu {traced['cpu_us_per_op']:.1f} us | "
              f"simulated I/O {outcome['metrics']['storage.latency.sim_io_us_per_op']:.1f} sim_us"
              f" | sleep overrun {outcome['metrics']['storage.latency.overrun_us_per_op']:.1f} us")
        count = extra["count_run"]
        print(f"  count run: {count['ops']} ops, python calls {count['python_calls']}, "
              f"storage statements {count['storage_statements']}, "
              f"exact repeat: {'yes' if count['exact_repeat'] else 'no'}")
        print(f"  spans written to {extra['spans_file']}")
    else:
        print(f"  latency samples={extra['kept_samples']} in the "
              f"{len(extra['kept_blocks'])} kept blocks {extra['kept_blocks']} "
              f"(p95 has {extra['p95_tail_samples']} beyond it); "
              f"block steal ticks {extra['block_steal_ticks'] or 'not reported'}")
        print(f"  whole window: {extra['samples']} samples, mean_ms "
              f"{extra['window_mean_ms']:.4f}, p95_ms {extra['window_p95_ms']:.4f}  "
              f"(not declared); setup runs {['%.3f' % s for s in extra['setup_runs_s']]}")
        print(f"  p50_ms {extra['p50_ms']:.4f}, p99_ms {extra['p99_ms']:.4f} "
              f"({extra['p99_tail_samples']} beyond it)  (not declared)")
        if "write_samples" in extra:
            print(f"  write_p50_ms {extra['write_p50_ms']:.4f}, write_p99_ms "
                  f"{extra['write_p99_ms']:.4f} ({extra['write_p99_tail_samples']} beyond it) "
                  f"over {extra['write_samples']} writes  (not declared)")
    print(f"  attempted={outcome['attempted']} failed={outcome['failed']}")
    for line in outcome["violations"]:
        print(f"  consistency violation: {line}")
    for line in outcome["failures"][:10]:
        print(f"  failed operation: {line[:200]}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    names = DECLARED if args.workload == "all" else (args.workload,)
    results = {name: run_workload(args, name) for name in names}
    if len(names) == 1:
        print(json.dumps(results[args.workload]))
        return 0
    # --workload all: one process runs every declared workload in turn; the
    # last line combines them, with metric names prefixed by workload.
    # peak_rss_mb is then the process's peak so far, not the workload's own.
    for name, result in results.items():
        print(f"result {name}: " + json.dumps(result))
    print(json.dumps({
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": {f"{name}.{metric}": value for name, result in results.items()
                    for metric, value in result["metrics"].items()},
    }))
    return 0


def run_workload(args: argparse.Namespace, name: str) -> dict[str, Any]:
    """Run one workload, print its report, write its record; return its result."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](args.seed)
    prov = provenance(args, name, workload, tracing=bool(args.trace))
    outcome = trace_run(args, workload) if args.trace else measure(args, workload)
    report(args, outcome, prov)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {metric: {"value": outcome["metrics"][metric], "unit": unit}
               for metric, unit in units.items()}
    OUT_DIR.mkdir(exist_ok=True)
    record = {"provenance": prov, "metrics": metrics, "extra": outcome["extra"],
              "attempted": outcome["attempted"], "failed": outcome["failed"],
              "violations": outcome["violations"], "failures": outcome["failures"][:50]}
    record_path = OUT_DIR / f"record-{name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


if __name__ == "__main__":
    raise SystemExit(main())
