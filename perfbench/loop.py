"""Closed-loop load: each session sends its next operation only after the
previous one returns.

Sessions run on their own threads. They warm up for a fixed time, wait at
a barrier while the caller prepares the window (installing the tracer, for
instance), and then loop until the window closes. An operation counts in
the window when it completes inside it.

The window is cut into equal blocks, and the hypervisor's steal time (the
time the host ran something else while this machine's CPUs wanted to run)
is read for each block. The figures come from the blocks with no more steal
than the run's median block; on a host that shows no steal, from every
block. Throughput and CPU per operation are medians over those blocks, and
latency is taken over the operations that completed in them, so that
interference from outside the process moves few blocks, not the run's
figure.
"""

from __future__ import annotations

import random
import statistics
from bisect import bisect_right
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from workloads import CheckFailed, Operation

SESSION_JOIN_TIMEOUT = 60.0
BLOCKS = 20
PROC_STAT = "/proc/stat"


def steal_ticks() -> int | None:
    """The host's steal time summed over all CPUs, in clock ticks.

    None where the kernel does not report it.
    """
    try:
        with open(PROC_STAT) as stat:
            fields = stat.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


@dataclass
class Window:
    """What one closed-loop window measured."""

    seconds: float = 0.0
    #: per block: operations completed in it, and process CPU seconds
    block_seconds: list[float] = field(default_factory=list)
    block_ops: list[int] = field(default_factory=list)
    block_cpu: list[float] = field(default_factory=list)
    #: per block: steal ticks (empty when the kernel does not report them),
    #: and the latencies (ms) of the operations completed in it
    block_steal: list[int] = field(default_factory=list)
    block_latencies_ms: list[list[float]] = field(default_factory=list)
    #: latencies (ms) of operations completed inside the window
    latencies_ms: list[float] = field(default_factory=list)
    write_latencies_ms: list[float] = field(default_factory=list)
    #: every operation issued from the window's start until the sessions
    #: stopped, warm-up excluded
    attempted: int = 0
    failed: int = 0
    warmup_attempted: int = 0
    warmup_failed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.latencies_ms)

    @property
    def kept_blocks(self) -> list[int]:
        """The blocks with no more steal than the median block (all without steal)."""
        if not self.block_steal:
            return list(range(len(self.block_ops)))
        limit = statistics.median(self.block_steal)
        return [i for i, steal in enumerate(self.block_steal) if steal <= limit]

    @property
    def ops_per_s(self) -> float:
        """Median over kept blocks of operations completed per second."""
        return statistics.median(
            self.block_ops[i] / self.block_seconds[i] for i in self.kept_blocks)

    @property
    def cpu_us_per_op(self) -> float:
        """Median over kept blocks of process CPU per completed operation."""
        return statistics.median(
            self.block_cpu[i] / self.block_ops[i] * 1e6
            for i in self.kept_blocks if self.block_ops[i])

    @property
    def kept_latencies_ms(self) -> list[float]:
        """Latencies of the operations completed in the kept blocks."""
        return [ms for i in self.kept_blocks for ms in self.block_latencies_ms[i]]


def _rng(seed: int, session_index: int, salt: int) -> random.Random:
    return random.Random(seed * 1_000_003 + session_index * 7919 + salt)


def run_window(
    system: Any,
    operations: list[Operation],
    seed: int,
    seconds: float,
    warmup: float,
    salt: int = 0,
    before_window: Callable[[], None] | None = None,
) -> Window:
    """Drive one session per operation for ``warmup`` + ``seconds``."""
    window = Window()
    sessions = len(operations)
    lock = threading.Lock()
    ready = threading.Barrier(sessions + 1)
    go = threading.Barrier(sessions + 1)
    stop = threading.Event()
    #: when the window closed; operations completing later do not count
    window_end = [float("inf")]
    ends: list[list[tuple[float, float]]] = []
    marks: list[float] = []
    crashed: list[BaseException] = []

    def one(op: Operation, session: Any, rng: random.Random) -> tuple[float, bool, str]:
        t0 = time.perf_counter()
        try:
            wrote = op(session, rng)
        except CheckFailed as exc:
            return t0, False, f"check: {exc}"
        except Exception as exc:
            return t0, False, f"{type(exc).__name__}: {exc}"
        return t0, wrote, ""

    def worker(index: int) -> None:
        op = operations[index]
        rng = _rng(seed, index, salt)
        session = system.session()
        latencies: list[float] = []
        writes: list[float] = []
        done: list[float] = []
        failures: list[str] = []
        attempted = failed = 0
        warm_attempted = warm_failed = 0
        try:
            warm_until = time.perf_counter() + warmup
            while time.perf_counter() < warm_until:
                _, _, error = one(op, session, rng)
                warm_attempted += 1
                if error:
                    warm_failed += 1
                    failures.append(error)
            ready.wait()
            go.wait()
            while not stop.is_set():
                t0, wrote, error = one(op, session, rng)
                t1 = time.perf_counter()
                attempted += 1
                if error:
                    failed += 1
                    failures.append(error)
                    continue
                if t1 <= window_end[0]:
                    ms = (t1 - t0) * 1000.0
                    latencies.append(ms)
                    done.append(t1)
                    if wrote:
                        writes.append(ms)
        except threading.BrokenBarrierError:
            pass
        except BaseException as exc:
            crashed.append(exc)
            ready.abort()
            go.abort()
        finally:
            session.close()
            with lock:
                ends.append(list(zip(done, latencies)))
                window.latencies_ms += latencies
                window.write_latencies_ms += writes
                window.attempted += attempted
                window.failed += failed
                window.warmup_attempted += warm_attempted
                window.warmup_failed += warm_failed
                window.failures += failures[:20]

    threads = [threading.Thread(target=worker, args=(i,), name=f"perfbench-session-{i}")
               for i in range(sessions)]
    for thread in threads:
        thread.start()
    try:
        ready.wait()
        if before_window is not None:
            before_window()
        go.wait()
        start = time.perf_counter()
        cpu_marks = [time.process_time()]
        steal_marks = [steal_ticks()]
        marks.append(start)
        for block in range(1, BLOCKS + 1):
            time.sleep(max(0.0, start + seconds * block / BLOCKS - time.perf_counter()))
            marks.append(time.perf_counter())
            cpu_marks.append(time.process_time())
            steal_marks.append(steal_ticks())
        window_end[0] = marks[-1]
        window.seconds = marks[-1] - start
        window.block_cpu = [b - a for a, b in zip(cpu_marks, cpu_marks[1:])]
        window.block_seconds = [b - a for a, b in zip(marks, marks[1:])]
        if None not in steal_marks:
            window.block_steal = [b - a for a, b in zip(steal_marks, steal_marks[1:])]
    except threading.BrokenBarrierError:
        pass
    finally:
        stop.set()
        ready.abort()
        go.abort()
        for thread in threads:
            thread.join(SESSION_JOIN_TIMEOUT)
    if crashed:
        raise crashed[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a session did not stop within its join timeout")
    if window.seconds:
        blocks: list[list[float]] = [[] for _ in range(BLOCKS)]
        for t1, ms in (pair for done in ends for pair in done):
            index = bisect_right(marks, t1) - 1
            if 0 <= index < BLOCKS:
                blocks[index].append(ms)
        window.block_latencies_ms = blocks
        window.block_ops = [len(block) for block in blocks]
    return window


def run_counted(system: Any, operation: Operation, seed: int, warmup_ops: int,
                ops: int, on: Callable[[], None], off: Callable[[], None]) -> tuple[int, int]:
    """One session: ``warmup_ops`` untimed, then ``ops`` between on()/off().

    Returns (attempted, failed) over all of its operations.
    """
    rng = _rng(seed, 0, 99)
    session = system.session()
    failed = 0

    def issue(count: int) -> int:
        errors = 0
        for _ in range(count):
            try:
                operation(session, rng)
            except Exception:
                errors += 1
        return errors

    try:
        failed += issue(warmup_ops)
        on()
        try:
            failed += issue(ops)
        finally:
            off()
    finally:
        session.close()
    return warmup_ops + ops, failed
