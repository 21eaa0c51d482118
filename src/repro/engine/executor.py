"""Automatic execution engine (Section VI-D) with a resilience layer.

Balances data-source connections, memory and concurrency:

- Units are grouped by physical data source.
- Per data source, θ = ⌈NumOfSQL / MaxCon⌉ decides the connection mode:
  θ > 1 forces CONNECTION_STRICTLY (each connection executes several SQLs
  serially, results loaded into memory — memory merger); θ = 1 allows
  MEMORY_STRICTLY (one connection per SQL, streaming cursors — stream
  merger).
- Deadlock avoidance: when a query needs several connections at once, the
  whole batch is acquired atomically under the data source's acquisition
  lock. Per the paper we skip the lock when only one connection is needed
  and in connection-strictly mode (connections are released as soon as
  results are memory-loaded, so circular waits are impossible).
- Execution units run in parallel on a shared worker pool; per-unit event
  hooks feed transactions and monitoring.

Resilience (opt-in via :class:`ResiliencePolicy`):

- Each execution unit runs under a retry loop: transient errors are
  retried with exponential backoff + full jitter, re-acquiring a fresh
  connection when the old one was dropped. Reads always qualify; writes
  only in autocommit mode with ``retry_writes``; writes inside an open
  distributed transaction are never retried.
- A per-statement deadline budget bounds the total time spent including
  backoff sleeps; exceeding it raises :class:`DeadlineExceededError`.
- Per-data-source circuit breakers (keyed by route target) gate every
  attempt; consecutive failures trip only the sick source's breaker.
- With a health check attached (Governor's detector), broadcast reads
  skip DOWN sources and return partial results flagged as such, while
  writes to a DOWN source fail fast with a clear error.
"""

from __future__ import annotations

import enum
import math
import random
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from ..exceptions import (
    CircuitBreakerOpenError,
    DataSourceUnavailableError,
    DeadlineExceededError,
    ExecutionError,
)
from ..session import activate, current_session
from ..storage import Connection, DataSource
from .merger import MaterializedResult, ShardResult
from .resilience import BreakerRegistry, ResiliencePolicy
from .rewriter import ExecutionUnit

if TYPE_CHECKING:
    from ..observability import Observability
    from ..observability.trace import Span, Trace


class ConnectionMode(enum.Enum):
    MEMORY_STRICTLY = "memory_strictly"
    CONNECTION_STRICTLY = "connection_strictly"


@dataclass
class ExecutionResult:
    """Per-shard results plus bookkeeping for the caller."""

    results: list[ShardResult] = field(default_factory=list)
    update_count: int = 0
    modes: dict[str, ConnectionMode] = field(default_factory=dict)
    #: run these once the merged result has been fully consumed
    finalizers: list[Callable[[], None]] = field(default_factory=list)
    #: True when DOWN sources were skipped (graceful degradation)
    partial_results: bool = False
    #: data sources whose units were skipped or soft-failed
    skipped_sources: list[str] = field(default_factory=list)

    def release(self) -> None:
        finalizers, self.finalizers = self.finalizers, []
        for finalizer in finalizers:
            finalizer()


@dataclass
class ExecutionMetrics:
    """Counters exposed for monitoring and tests."""

    statements: int = 0
    memory_strictly: int = 0
    connection_strictly: int = 0
    # resilience counters
    retries: int = 0
    reroutes: int = 0
    timeouts: int = 0
    giveups: int = 0
    failed_units: int = 0
    degraded_statements: int = 0
    skipped_units: int = 0
    breaker_rejections: int = 0
    # work-stealing fan-out counters
    queued_tasks: int = 0
    steals: int = 0
    stolen_tasks: int = 0
    # statement-pipeline counters
    pipeline_batches: int = 0
    pipelined_statements: int = 0
    #: per data source breakdown: {source: {"retries"|"failures"|...: n}}
    per_source: dict[str, dict[str, int]] = field(default_factory=dict)

    def bump(self, source: str, key: str) -> None:
        by_key = self.per_source.setdefault(source, {})
        by_key[key] = by_key.get(key, 0) + 1

    def snapshot(self) -> dict[str, int]:
        return {
            "statements": self.statements,
            "memory_strictly": self.memory_strictly,
            "connection_strictly": self.connection_strictly,
            "retries": self.retries,
            "reroutes": self.reroutes,
            "timeouts": self.timeouts,
            "giveups": self.giveups,
            "failed_units": self.failed_units,
            "degraded_statements": self.degraded_statements,
            "skipped_units": self.skipped_units,
            "breaker_rejections": self.breaker_rejections,
            "queued_tasks": self.queued_tasks,
            "steals": self.steals,
            "stolen_tasks": self.stolen_tasks,
            "pipeline_batches": self.pipeline_batches,
            "pipelined_statements": self.pipelined_statements,
        }

    def families(self) -> list[tuple[str, str, str, list[tuple[dict[str, str], float]]]]:
        """Metrics-registry collector: expose the counters on pull.

        Keeps these plain ints on the hot path (no registry lock per
        statement) while ``SHOW METRICS`` / the Prometheus exporter still
        see them — one source of truth, read-through.
        """
        families = [
            (
                f"executor_{key}_total",
                "counter",
                f"execution engine {key.replace('_', ' ')}",
                [({}, float(value))],
            )
            for key, value in self.snapshot().items()
        ]
        by_key: dict[str, list[tuple[dict[str, str], float]]] = {}
        for source in sorted(self.per_source):
            for key, value in sorted(self.per_source[source].items()):
                by_key.setdefault(key, []).append(({"source": source}, float(value)))
        for key in sorted(by_key):
            families.append(
                (
                    f"executor_source_{key}_total",
                    "counter",
                    f"per data source {key.replace('_', ' ')}",
                    by_key[key],
                )
            )
        return families


#: event hook signature: (event, payload) — events: "execute", "mode",
#: "retry", "giveup", "timeout", "degraded", "reroute".
EventListener = Callable[[str, dict[str, Any]], None]


class ExecutionEngine:
    """Executes rewritten units against the fleet of data sources."""

    def __init__(
        self,
        data_sources: Mapping[str, DataSource],
        max_connections_per_query: int = 1,
        worker_threads: int = 32,
        resilience: ResiliencePolicy | None = None,
        health_check: Callable[[str], bool] | None = None,
    ):
        if max_connections_per_query < 1:
            raise ExecutionError("max_connections_per_query must be >= 1")
        self.data_sources = data_sources if isinstance(data_sources, dict) else dict(data_sources)
        self.max_connections_per_query = max_connections_per_query
        self.metrics = ExecutionMetrics()
        self.listeners: list[EventListener] = []
        self._pool = ThreadPoolExecutor(max_workers=worker_threads, thread_name_prefix="ss-exec")
        self._closed = False
        self._close_lock = threading.Lock()
        #: cap on workers participating in one statement's work-stealing
        #: fan-out (worker 0 is always the calling thread)
        self.fanout_workers = 8
        self.resilience: ResiliencePolicy | None = None
        self.breakers: BreakerRegistry | None = None
        self.health_check = health_check
        #: attached by the runtime/pipeline; None = no metrics/trace cost
        self.observability: "Observability | None" = None
        self._retry_rng = random.Random(0)
        self._rng_lock = threading.Lock()
        if resilience is not None:
            self.enable_resilience(resilience)

    def enable_resilience(self, policy: ResiliencePolicy) -> None:
        """Attach (or replace) the resilience policy + per-source breakers."""
        self.resilience = policy
        self.breakers = BreakerRegistry.from_policy(policy)
        self._retry_rng = random.Random(policy.seed if policy.seed is not None else 0)

    def set_health_check(self, health_check: Callable[[str], bool] | None) -> None:
        """Wire the Governor's health view (name -> is UP) into execution."""
        self.health_check = health_check

    def close(self) -> None:
        """Idempotent shutdown, safe while work is in flight.

        Repeat calls are no-ops. Statements whose work-stealing scheduler
        is mid-flight drain their deques: tasks not yet started fail with
        a clear "engine is closed" error instead of hanging, and new
        submissions are rejected at the door.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=False)

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> "Future[Any]":
        """Run work on the engine's shared worker pool (e.g. federation
        materialization fan-out).

        The submitting side's session is captured here and re-activated
        on whichever pool thread runs ``fn``, so session state (causal
        tokens, primary pinning, guards) survives the handoff.
        """
        if self._closed:
            raise ExecutionError("execution engine is closed; rejecting new work")
        session = current_session()

        def run() -> Any:
            with activate(session):
                return fn(*args, **kwargs)

        return self._pool.submit(run)

    def add_listener(self, listener: EventListener) -> None:
        self.listeners.append(listener)

    def _emit(self, event: str, **payload: Any) -> None:
        for listener in self.listeners:
            listener(event, payload)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def execute(
        self,
        units: Sequence[ExecutionUnit],
        is_query: bool,
        held_connections: Mapping[str, Connection] | None = None,
        route_type: str = "",
        trace: "Trace | None" = None,
        parent_span: "Span | None" = None,
        sources: Mapping[str, DataSource] | None = None,
        heat: Any = None,
    ) -> ExecutionResult:
        """Run all units; group per data source and pick connection modes.

        ``held_connections`` carries the per-data-source connections pinned
        by an open distributed transaction: statements inside a transaction
        must reuse them (and are therefore serial per data source).
        ``route_type`` lets the resilience layer know when a multi-source
        read is a broadcast that may gracefully degrade. When ``trace`` is
        given, one ``storage`` span per unit (child of ``parent_span``) is
        allocated here, in routing order on the calling thread — worker
        scheduling never changes span ids. ``sources`` pins the statement
        to one metadata snapshot's immutable data-source view, so a
        concurrent UNREGISTER RESOURCE cannot yank a source out from under
        an in-flight statement; None falls back to the live map.
        ``heat`` is the workload tracker's per-statement sample carrier
        (``WorkloadIntelligence.begin_statement``): when present, each
        completed unit reports its wall time, storage result and row count to
        ``heat.unit_done`` for shard-heat accounting. None (the unsampled
        majority) costs one comparison per unit.
        """
        if self._closed:
            raise ExecutionError("execution engine is closed; rejecting new work")
        deadline = self._statement_deadline()
        result = ExecutionResult()
        units = list(units)
        sources_map = sources if sources is not None else self.data_sources

        allow_partial = (
            self.resilience is not None
            and self.resilience.allow_partial_broadcast
            and is_query
            and held_connections is None
            and route_type in ("standard", "broadcast", "cartesian")
            and len(units) > 1
        )
        units = self._apply_health_filter(
            units, is_query, allow_partial, route_type, result, sources_map
        )

        spans: dict[int, "Span"] | None = None
        if trace is not None:
            spans = {
                id(unit): trace.start_span(
                    "storage",
                    parent=parent_span,
                    data_source=unit.data_source,
                    sql=unit.sql,
                )
                for unit in units
            }

        # Fast path: one unit on one source runs on the calling thread —
        # the dominant OLTP case (point selects / PK writes), where worker
        # dispatch would double the per-statement cost.
        if len(units) == 1:
            unit = units[0]
            span = spans[id(unit)] if spans is not None else None
            pinned = (held_connections or {}).get(unit.data_source)
            if pinned is not None:
                if span is not None:
                    span.attributes["mode"] = ConnectionMode.CONNECTION_STRICTLY.value
                t0 = time.perf_counter() if heat is not None else 0.0
                cursor = self._run_attempts(
                    unit.data_source,
                    lambda: self._traced(pinned, unit, span),
                    is_query=is_query,
                    pinned=pinned,
                    deadline=deadline,
                    spans=(span,) if span is not None else (),
                )
                result.modes[unit.data_source] = ConnectionMode.CONNECTION_STRICTLY
                if is_query:
                    rows = cursor.fetchall()
                    if span is not None:
                        span.attributes["rows"] = len(rows)
                    if heat is not None:
                        heat.unit_done(
                            unit, time.perf_counter() - t0, cursor.result, len(rows))
                    result.results.append(MaterializedResult(cursor.columns, rows))
                else:
                    result.update_count += max(cursor.rowcount, 0)
                    if span is not None:
                        span.attributes["rows"] = max(cursor.rowcount, 0)
                    if heat is not None:
                        heat.unit_done(unit, time.perf_counter() - t0, cursor.result,
                                       max(cursor.rowcount, 0))
                self.metrics.statements += 1
                return result
            source = self._source(unit.data_source, sources_map)
            result.modes[unit.data_source] = ConnectionMode.MEMORY_STRICTLY
            self.metrics.memory_strictly += 1
            if span is not None:
                span.attributes["mode"] = ConnectionMode.MEMORY_STRICTLY.value
            holder: list[Connection | None] = [None]

            def attempt_single() -> Any:
                conn = holder[0]
                if conn is None or conn.closed:
                    if conn is not None:
                        source.pool.release(conn)
                    holder[0] = conn = self._pool_acquire(source, deadline)
                return self._traced(conn, unit, span)

            t0 = time.perf_counter() if heat is not None else 0.0
            try:
                cursor = self._run_attempts(
                    unit.data_source, attempt_single,
                    is_query=is_query, pinned=None, deadline=deadline,
                    spans=(span,) if span is not None else (),
                )
            except BaseException:
                if holder[0] is not None:
                    source.pool.release(holder[0])
                raise
            connection = holder[0]
            assert connection is not None
            if is_query:
                if span is not None:
                    # traced statements trade streaming for a row count on
                    # the storage span (tracing is opt-in)
                    rows = cursor.fetchall()
                    span.attributes["rows"] = len(rows)
                    if heat is not None:
                        heat.unit_done(
                            unit, time.perf_counter() - t0, cursor.result, len(rows))
                    result.results.append(MaterializedResult(cursor.columns, rows))
                    source.pool.release(connection)
                else:
                    # streaming: the row count is unknown until the caller
                    # drains the merged iterator (rows=-1 → sink fills it in)
                    if heat is not None:
                        heat.unit_done(unit, time.perf_counter() - t0, cursor.result, -1)
                    result.results.append(cursor)
                    result.finalizers.append(lambda: source.pool.release(connection))
            else:
                result.update_count += max(cursor.rowcount, 0)
                if span is not None:
                    span.attributes["rows"] = max(cursor.rowcount, 0)
                if heat is not None:
                    heat.unit_done(unit, time.perf_counter() - t0, cursor.result,
                                   max(cursor.rowcount, 0))
                source.pool.release(connection)
            self.metrics.statements += 1
            return result

        groups: dict[str, list[ExecutionUnit]] = {}
        for unit in units:
            groups.setdefault(unit.data_source, []).append(unit)

        # -- work-stealing fan-out -----------------------------------------
        # Units become fine-grained tasks seeded by data-source group
        # (group g -> worker g mod W): each worker starts out owning one
        # source's units (connection affinity), and an idle worker steals
        # the back half of the deepest deque. A skewed route — one shard
        # holding most of the units — no longer pins the whole statement
        # on one submission chain while other workers idle.
        state_lock = threading.Lock()
        slots: dict[int, Any] = {}  # id(unit) -> ShardResult | update count
        pinned_out: dict[str, tuple[list[ShardResult], int]] = {}
        source_errors: dict[str, BaseException] = {}
        mem_groups: list[tuple[str, Callable[[], None]]] = []

        def fail_source(ds_name: str, exc: BaseException) -> None:
            with state_lock:
                source_errors.setdefault(ds_name, exc)

        tasks: list[tuple[int, Callable[..., None]]] = []  # (seed worker, fn)
        for group_index, (ds_name, group) in enumerate(groups.items()):
            pinned = (held_connections or {}).get(ds_name)
            if pinned is not None:
                result.modes[ds_name] = ConnectionMode.CONNECTION_STRICTLY
                self._annotate_mode(spans, group, ConnectionMode.CONNECTION_STRICTLY)
                tasks.append((group_index, self._make_pinned_task(
                    ds_name, pinned, group, is_query, deadline, spans, heat,
                    pinned_out, fail_source, state_lock)))
                continue
            source = self._source(ds_name, sources_map)
            mode = self._decide_mode(len(group))
            result.modes[ds_name] = mode
            self._annotate_mode(spans, group, mode)
            self._emit("mode", data_source=ds_name, mode=mode.value, sqls=len(group))
            if mode is ConnectionMode.CONNECTION_STRICTLY:
                self.metrics.connection_strictly += 1
                shared: deque[ExecutionUnit] = deque(group)
                for _ in range(min(self.max_connections_per_query, len(group))):
                    tasks.append((group_index, self._make_bucket_task(
                        ds_name, source, shared, is_query, deadline, spans,
                        heat, slots, source_errors, fail_source, state_lock)))
            else:
                self.metrics.memory_strictly += 1
                # acquire the whole batch on the calling thread so the
                # deadlock-avoidance lock ordering is untouched by stealing
                try:
                    connections = self._acquire_batch(
                        source, len(group), deadline=deadline)
                except BaseException as exc:
                    fail_source(ds_name, exc)
                    continue
                released = threading.Event()

                def release_all(source: DataSource = source,
                                connections: list[Connection] = connections,
                                released: threading.Event = released) -> None:
                    if not released.is_set():
                        released.set()
                        source.pool.release_many(connections)

                mem_groups.append((ds_name, release_all))
                for index, unit in enumerate(group):
                    tasks.append((group_index, self._make_streaming_task(
                        ds_name, source, connections, index, unit, is_query,
                        deadline, spans, heat, slots, fail_source, state_lock)))

        scheduler = _StealScheduler(self, tasks)
        scheduler.run()
        if parent_span is not None and scheduler.steals:
            parent_span.attributes["steals"] = scheduler.steals
            parent_span.attributes["stolen_tasks"] = scheduler.stolen_tasks

        # resolve memory-strictly connection lifetimes now that every task
        # has finished: streams outlive the statement, errors release now
        for ds_name, release_all in mem_groups:
            if ds_name in source_errors or not is_query:
                release_all()
            else:
                result.finalizers.append(release_all)

        errors: list[BaseException] = []
        soft_failures: list[tuple[str, BaseException]] = []
        succeeded = 0
        for ds_name, group in groups.items():
            exc = source_errors.get(ds_name)
            if exc is not None:
                if allow_partial and isinstance(
                    exc, (DataSourceUnavailableError, CircuitBreakerOpenError)
                ):
                    soft_failures.append((ds_name, exc))
                else:
                    errors.append(exc)
                continue
            succeeded += 1
            if ds_name in pinned_out:
                shard_results, update_count = pinned_out[ds_name]
                result.results.extend(shard_results)
                result.update_count += update_count
            else:
                for unit in group:
                    out = slots[id(unit)]
                    if is_query:
                        result.results.append(out)
                    else:
                        result.update_count += out
        if errors or (soft_failures and not succeeded):
            result.release()
            raise (errors or [exc for _, exc in soft_failures])[0]
        if soft_failures:
            result.partial_results = True
            for ds_name, exc in soft_failures:
                if ds_name not in result.skipped_sources:
                    result.skipped_sources.append(ds_name)
                # diagnostics invariant: modes only lists sources that
                # actually contributed results — drop the skipped one
                result.modes.pop(ds_name, None)
                self.metrics.skipped_units += 1
                self.metrics.bump(ds_name, "skipped")
                self._emit("degraded", data_source=ds_name, error=exc, route_type=route_type)
            self.metrics.degraded_statements += 1
        self.metrics.statements += len(units)
        return result

    # ------------------------------------------------------------------
    # Resilience
    # ------------------------------------------------------------------

    def _statement_deadline(self) -> float | None:
        policy = self.resilience
        if policy is not None and policy.statement_timeout is not None:
            return time.monotonic() + policy.statement_timeout
        return None

    def _check_deadline(self, deadline: float | None, source_name: str) -> None:
        if deadline is not None and time.monotonic() >= deadline:
            self.metrics.timeouts += 1
            self.metrics.bump(source_name, "timeouts")
            self._emit("timeout", data_source=source_name)
            assert self.resilience is not None
            raise DeadlineExceededError(
                f"statement deadline of {self.resilience.statement_timeout * 1000:.0f}ms "
                f"exceeded while executing on {source_name!r}"
            )

    def _source_up(self, name: str) -> bool:
        if self.health_check is not None and not self.health_check(name):
            return False
        if self.breakers is not None and not self.breakers.available(name):
            return False
        return True

    def _apply_health_filter(
        self,
        units: list[ExecutionUnit],
        is_query: bool,
        allow_partial: bool,
        route_type: str,
        result: ExecutionResult,
        sources_map: Mapping[str, DataSource] | None = None,
    ) -> list[ExecutionUnit]:
        """Skip units on DOWN sources for degradable reads; fail writes fast.

        Unicast reads (broadcast-table reads, information queries — any
        source holds the full answer) are *redirected* to a healthy source
        instead: the result stays complete, so no partial flag.
        """
        if self.health_check is None:
            return units
        down = {u.data_source for u in units if not self._source_up(u.data_source)}
        if not down:
            return units
        if not is_query:
            raise DataSourceUnavailableError(
                f"data source(s) {sorted(down)} are DOWN; refusing write (fail fast)"
            )
        if route_type == "unicast" and len(units) == 1:
            candidates = sources_map if sources_map is not None else self.data_sources
            healthy = next(
                (name for name in candidates if self._source_up(name)), None
            )
            if healthy is None:
                raise DataSourceUnavailableError(
                    f"all data sources are DOWN (unicast target {sorted(down)})"
                )
            unit = units[0]
            self._emit("redirect", from_source=unit.data_source, to_source=healthy)
            self.metrics.bump(unit.data_source, "redirects")
            unit.data_source = healthy
            unit.unit.data_source = healthy
            return units
        if not allow_partial:
            return units  # let execution fail naturally (or retries absorb it)
        healthy = [u for u in units if u.data_source not in down]
        if not healthy:
            raise DataSourceUnavailableError(
                f"all routed data sources are DOWN: {sorted(down)}"
            )
        result.partial_results = True
        result.skipped_sources = sorted(down)
        self.metrics.degraded_statements += 1
        self.metrics.skipped_units += len(units) - len(healthy)
        for name in down:
            self.metrics.bump(name, "skipped")
        self._emit("degraded", skipped=sorted(down))
        return healthy

    def _breaker_admit(self, source_name: str) -> None:
        if self.breakers is not None and not self.breakers.try_acquire(source_name):
            self.metrics.breaker_rejections += 1
            self.metrics.bump(source_name, "breaker_rejections")
            raise CircuitBreakerOpenError(
                f"circuit breaker for data source {source_name!r} is open"
            )

    def _record_outcome(self, source_name: str, ok: bool) -> None:
        if self.breakers is not None:
            if ok:
                self.breakers.record_success(source_name)
            else:
                self.breakers.record_failure(source_name)
        if not ok:
            self.metrics.failed_units += 1
            self.metrics.bump(source_name, "failures")
        obs = self.observability
        if obs is not None:
            obs.on_source_attempt(source_name, ok)

    @staticmethod
    def _traced(connection: Connection, unit: ExecutionUnit, span: "Span | None") -> Any:
        """Execute one unit, lending the span to the connection meanwhile.

        The connection attributes latency-model sleeps and lock waits to
        ``trace_span`` while it is set; clearing it restores the class
        default (None), keeping untraced connections attribute-free.
        """
        if span is None:
            return connection.execute(unit.statement, unit.params)
        connection.trace_span = span
        try:
            return connection.execute(unit.statement, unit.params)
        finally:
            del connection.trace_span

    @staticmethod
    def _annotate_mode(
        spans: "dict[int, Span] | None",
        group: list[ExecutionUnit],
        mode: ConnectionMode,
    ) -> None:
        if spans is None:
            return
        for unit in group:
            span = spans.get(id(unit))
            if span is not None:
                span.attributes["mode"] = mode.value

    def _run_attempts(
        self,
        source_name: str,
        attempt: Callable[[], Any],
        *,
        is_query: bool,
        pinned: Connection | None,
        deadline: float | None,
        spans: "Sequence[Span]" = (),
    ) -> Any:
        """Run one execution unit (or one pinned batch) under the
        resilience policy.

        ``attempt`` performs a full attempt (including any connection
        (re-)acquisition) and returns its outcome. Retries apply only to
        transient errors, within the deadline budget, and never to writes
        on a pinned (in-transaction) connection. The storage spans of the
        attempted units are finished here — retries become span events
        and a final ``retries`` attribute; a terminal failure closes them
        with the error attached.
        """
        policy = self.resilience
        attempt_no = 0
        try:
            while True:
                self._check_deadline(deadline, source_name)
                self._breaker_admit(source_name)
                try:
                    value = attempt()
                except Exception as exc:
                    self._record_outcome(source_name, ok=False)
                    retryable = policy is not None and policy.is_retryable(exc)
                    allowed = (
                        retryable
                        and policy is not None
                        and attempt_no < policy.max_retries
                        and (is_query or (policy.retry_writes and pinned is None))
                        # A pinned (transactional) statement may only be retried
                        # as a read on a connection that survived the fault.
                        and (pinned is None or (is_query and not pinned.closed))
                    )
                    if not allowed:
                        if retryable:
                            self.metrics.giveups += 1
                            self.metrics.bump(source_name, "giveups")
                            self._emit("giveup", data_source=source_name, error=exc,
                                       attempts=attempt_no + 1)
                        raise
                    attempt_no += 1
                    self.metrics.retries += 1
                    self.metrics.bump(source_name, "retries")
                    self._emit("retry", data_source=source_name, attempt=attempt_no, error=exc)
                    for span in spans:
                        span.add_event(
                            "retry", attempt=attempt_no, error=type(exc).__name__
                        )
                    assert policy is not None
                    with self._rng_lock:
                        delay = policy.backoff(attempt_no, self._retry_rng)
                    if deadline is not None:
                        delay = min(delay, max(0.0, deadline - time.monotonic()))
                    if delay > 0:
                        time.sleep(delay)
                    continue
                self._record_outcome(source_name, ok=True)
                for span in spans:
                    if attempt_no:
                        span.attributes["retries"] = attempt_no
                    span.finish()
                return value
        except BaseException as terminal:
            for span in spans:
                if attempt_no:
                    span.attributes["retries"] = attempt_no
                span.finish(error=terminal)
            raise

    # ------------------------------------------------------------------
    # Modes
    # ------------------------------------------------------------------

    def _decide_mode(self, num_sqls: int) -> ConnectionMode:
        theta = math.ceil(num_sqls / self.max_connections_per_query)
        return ConnectionMode.CONNECTION_STRICTLY if theta > 1 else ConnectionMode.MEMORY_STRICTLY

    def _source(self, name: str, sources: Mapping[str, DataSource] | None = None) -> DataSource:
        lookup = sources if sources is not None else self.data_sources
        try:
            return lookup[name]
        except KeyError:
            raise ExecutionError(f"unknown data source {name!r}") from None

    def _run_pinned(
        self,
        connection: Connection,
        group: list[ExecutionUnit],
        is_query: bool,
        deadline: float | None = None,
        spans: "dict[int, Span] | None" = None,
        heat: Any = None,
    ) -> tuple[list[ShardResult], int]:
        """Transactional path: the group's units run in order on the pinned
        connection as one storage round trip.

        :meth:`Connection.execute_pipeline` pays the batch's simulated I/O
        in one sleep per distinct written table plus one for all reads; a
        fan-out's units touch distinct tables, so the priced cost equals
        the per-unit total. Resilience applies per batch: one deadline
        check, breaker admission and outcome per attempt; a read batch on
        a connection that survived a transient fault is retried whole,
        and a write batch never is (the transaction's undo covers the
        units that ran). Spans and heat are still attributed per unit,
        each from its own :class:`QueryResult`.
        """
        ds_name = group[0].data_source
        unit_spans = [] if spans is None else [spans[id(unit)] for unit in group]
        statements = [(unit.statement, unit.params) for unit in group]
        t0 = time.perf_counter() if heat is not None else 0.0
        raw = self._run_attempts(
            ds_name, lambda: connection.execute_pipeline(statements),
            is_query=is_query, pinned=connection, deadline=deadline, spans=unit_spans,
        )
        # a batch has no per-unit wall time: each unit gets an equal share
        wall = (time.perf_counter() - t0) / len(group) if heat is not None else 0.0
        self.metrics.pipeline_batches += 1
        self.metrics.pipelined_statements += len(group)
        results: list[ShardResult] = []
        update_count = 0
        for index, (unit, res) in enumerate(zip(group, raw)):
            self._emit("execute", data_source=ds_name, unit=unit)
            if is_query:
                count = len(res.rows)
                results.append(MaterializedResult(list(res.columns), res.rows))
            else:
                count = max(res.rowcount, 0)
                update_count += count
            if unit_spans:
                span = unit_spans[index]
                span.attributes["rows"] = count
                span.attributes["storage_plan"] = res.plan
                span.record_simulated(res.cost)
            if heat is not None:
                heat.unit_done(unit, wall, res, count)
        return results, update_count

    _CLOSED_IN_FLIGHT = "execution engine closed while statement was in flight"

    def _make_pinned_task(
        self,
        ds_name: str,
        connection: Connection,
        group: list[ExecutionUnit],
        is_query: bool,
        deadline: float | None,
        spans: "dict[int, Span] | None",
        heat: Any,
        pinned_out: dict[str, tuple[list[ShardResult], int]],
        fail_source: Callable[[str, BaseException], None],
        state_lock: threading.Lock,
    ) -> Callable[..., None]:
        """One task per pinned (transactional) group: the group runs as one
        batch on the held connection, whichever worker picks the task up."""

        def task(cancelled: bool = False) -> None:
            if cancelled:
                fail_source(ds_name, ExecutionError(self._CLOSED_IN_FLIGHT))
                return
            try:
                out = self._run_pinned(
                    connection, group, is_query, deadline, spans, heat)
                with state_lock:
                    pinned_out[ds_name] = out
            except BaseException as exc:
                fail_source(ds_name, exc)

        return task

    def _make_bucket_task(
        self,
        ds_name: str,
        source: DataSource,
        shared: "deque[ExecutionUnit]",
        is_query: bool,
        deadline: float | None,
        spans: "dict[int, Span] | None",
        heat: Any,
        slots: dict[int, Any],
        source_errors: dict[str, BaseException],
        fail_source: Callable[[str, BaseException], None],
        state_lock: threading.Lock,
    ) -> Callable[..., None]:
        """θ > 1 (connection-strictly): one connection, several SQLs,
        memory-loaded results.

        Each bucket task pulls units off the source's *shared* deque until
        it runs dry, so a slow unit no longer strands its statically
        assigned bucket-mates — siblings (or thieves) drain them. No
        acquisition lock: connections are released as soon as results are
        loaded, so two queries cannot deadlock on this path.
        """

        def task(cancelled: bool = False) -> None:
            if cancelled:
                fail_source(ds_name, ExecutionError(self._CLOSED_IN_FLIGHT))
                return
            holder: list[Connection] | None = None
            try:
                while True:
                    with state_lock:
                        if ds_name in source_errors:
                            return
                    try:
                        unit = shared.popleft()
                    except IndexError:
                        return
                    if holder is None:
                        # lazy acquire: a bucket whose units were all taken
                        # by faster siblings never checks out a connection
                        holder = [self._pool_acquire(source, deadline)]
                    span = spans.get(id(unit)) if spans is not None else None

                    def attempt(unit: ExecutionUnit = unit, span=span,
                                holder: list[Connection] = holder) -> Any:
                        if holder[0].closed:
                            source.pool.release(holder[0])
                            holder[0] = self._pool_acquire(source, deadline)
                        return self._traced(holder[0], unit, span)

                    t0 = time.perf_counter() if heat is not None else 0.0
                    cursor = self._run_attempts(
                        ds_name, attempt,
                        is_query=is_query, pinned=None, deadline=deadline,
                        spans=(span,) if span is not None else (),
                    )
                    self._emit("execute", data_source=ds_name, unit=unit)
                    if is_query:
                        rows = cursor.fetchall()
                        if span is not None:
                            span.attributes["rows"] = len(rows)
                        if heat is not None:
                            heat.unit_done(
                                unit, time.perf_counter() - t0, cursor.result, len(rows))
                        with state_lock:
                            slots[id(unit)] = MaterializedResult(cursor.columns, rows)
                    else:
                        count = max(cursor.rowcount, 0)
                        if span is not None:
                            span.attributes["rows"] = count
                        if heat is not None:
                            heat.unit_done(
                                unit, time.perf_counter() - t0, cursor.result, count)
                        with state_lock:
                            slots[id(unit)] = count
            except BaseException as exc:
                fail_source(ds_name, exc)
            finally:
                if holder is not None:
                    source.pool.release(holder[0])

        return task

    def _make_streaming_task(
        self,
        ds_name: str,
        source: DataSource,
        connections: list[Connection],
        index: int,
        unit: ExecutionUnit,
        is_query: bool,
        deadline: float | None,
        spans: "dict[int, Span] | None",
        heat: Any,
        slots: dict[int, Any],
        fail_source: Callable[[str, BaseException], None],
        state_lock: threading.Lock,
    ) -> Callable[..., None]:
        """θ = 1 (memory-strictly): one pre-acquired connection per SQL,
        streaming cursor (stream merger); one task per unit."""

        def task(cancelled: bool = False) -> None:
            if cancelled:
                fail_source(ds_name, ExecutionError(self._CLOSED_IN_FLIGHT))
                return
            span = spans.get(id(unit)) if spans is not None else None
            try:
                cursor = self._execute_streaming(
                    source, connections, index, unit, is_query, deadline,
                    span, heat)
                with state_lock:
                    slots[id(unit)] = (
                        cursor if is_query else max(cursor.rowcount, 0))
            except BaseException as exc:
                fail_source(ds_name, exc)

        return task

    def _execute_streaming(
        self,
        source: DataSource,
        connections: list[Connection],
        index: int,
        unit: ExecutionUnit,
        is_query: bool = True,
        deadline: float | None = None,
        span: "Span | None" = None,
        heat: Any = None,
    ):
        def attempt() -> Any:
            if connections[index].closed:
                source.pool.release(connections[index])
                connections[index] = self._pool_acquire(source, deadline)
            return self._traced(connections[index], unit, span)

        t0 = time.perf_counter() if heat is not None else 0.0
        cursor = self._run_attempts(
            unit.data_source, attempt, is_query=is_query, pinned=None,
            deadline=deadline, spans=(span,) if span is not None else (),
        )
        self._emit("execute", data_source=unit.data_source, unit=unit)
        if span is not None and is_query:
            # traced statements trade streaming for a row count on the span
            rows = cursor.fetchall()
            span.attributes["rows"] = len(rows)
            if heat is not None:
                heat.unit_done(unit, time.perf_counter() - t0, cursor.result, len(rows))
            return MaterializedResult(cursor.columns, rows)
        if heat is not None:
            heat.unit_done(
                unit, time.perf_counter() - t0, cursor.result,
                -1 if is_query else max(cursor.rowcount, 0),
            )
        return cursor

    def _pool_acquire(
        self,
        source: DataSource,
        deadline: float | None,
        timeout: float = 10.0,
    ) -> Connection:
        """Acquire one connection, waiting no longer than the statement's
        remaining deadline budget; out-of-time waits report
        :class:`DeadlineExceededError` instead of pool exhaustion."""
        if deadline is not None:
            timeout = min(timeout, max(0.0, deadline - time.monotonic()))
        try:
            return source.pool.acquire(timeout=timeout)
        except Exception:
            self._check_deadline(deadline, source.name)
            raise

    def _acquire_batch(
        self,
        source: DataSource,
        count: int,
        timeout: float = 10.0,
        deadline: float | None = None,
    ) -> list[Connection]:
        """Atomically acquire ``count`` connections (deadlock avoidance).

        A single connection skips the lock entirely (two queries cannot
        wait on each other over one connection each). When the resilience
        policy set a statement ``deadline``, the wait is capped by the
        remaining budget instead of always blocking the full default —
        a statement out of time reports :class:`DeadlineExceededError`
        promptly rather than sitting on an exhausted pool for 10 s.
        """
        if deadline is not None:
            timeout = min(timeout, max(0.0, deadline - time.monotonic()))
        if count == 1:
            try:
                return [source.pool.acquire(timeout=timeout)]
            except Exception:
                self._check_deadline(deadline, source.name)
                raise
        acquire_by = time.monotonic() + timeout
        while True:
            with source.acquisition_lock:
                batch = source.pool.try_acquire_many(count)
            if batch is not None:
                return batch
            if time.monotonic() >= acquire_by:
                self._check_deadline(deadline, source.name)
                raise ExecutionError(
                    f"could not atomically acquire {count} connections from {source.name!r}"
                )
            time.sleep(0.001)

    # ------------------------------------------------------------------
    # Statement pipelining
    # ------------------------------------------------------------------

    def execute_pipeline(
        self,
        ds_name: str,
        statements: Sequence[tuple[Any, Sequence[Any], bool]],
        held_connections: Mapping[str, Connection] | None = None,
        sources: Mapping[str, DataSource] | None = None,
        trace: "Trace | None" = None,
        parent_span: "Span | None" = None,
    ) -> list[Any]:
        """Fused transaction pipelining: run consecutive single-source
        statements through one connection checkout and one storage round
        trip (:meth:`Connection.execute_pipeline` coalesces the write-I/O
        slice per written table — the group-commit analog).

        ``statements`` holds ``(statement, params, is_query)`` triples.
        Semantics are serial-equivalent: statements run in order on one
        connection, and a mid-batch error propagates after earlier
        statements' effects (and costs) have landed — exactly what the
        serial loop would leave behind, so an enclosing transaction's undo
        log still covers them. No retry loop applies (the batch typically
        carries writes inside an open transaction, which the resilience
        policy never retries); the circuit breaker still gates admission
        and records one outcome for the whole batch.

        Returns one entry per statement: a :class:`MaterializedResult`
        for queries, an int update count for writes.
        """
        if self._closed:
            raise ExecutionError("execution engine is closed; rejecting new work")
        deadline = self._statement_deadline()
        self._check_deadline(deadline, ds_name)
        self._breaker_admit(ds_name)
        if self.health_check is not None and not self._source_up(ds_name):
            raise DataSourceUnavailableError(
                f"data source {ds_name!r} is DOWN; refusing pipelined batch (fail fast)"
            )
        source = self._source(ds_name, sources)
        pinned = (held_connections or {}).get(ds_name)
        connection = pinned if pinned is not None else self._pool_acquire(source, deadline)
        span: "Span | None" = None
        if trace is not None:
            span = trace.start_span(
                "storage_pipeline", parent=parent_span,
                data_source=ds_name, statements=len(statements),
            )
            connection.trace_span = span
        out: list[Any] = []
        try:
            raw = connection.execute_pipeline(
                [(stmt, params) for stmt, params, _ in statements])
            for (_stmt, _params, is_query), res in zip(statements, raw):
                if is_query:
                    out.append(MaterializedResult(list(res.columns), res.rows))
                else:
                    out.append(max(res.rowcount, 0))
        except BaseException as exc:
            self._record_outcome(ds_name, ok=False)
            if span is not None:
                span.finish(error=exc)
            raise
        finally:
            if span is not None:
                del connection.trace_span
            if pinned is None:
                source.pool.release(connection)
        self._record_outcome(ds_name, ok=True)
        if span is not None:
            span.finish()
        self.metrics.statements += len(statements)
        self.metrics.pipeline_batches += 1
        self.metrics.pipelined_statements += len(statements)
        self._emit("pipeline", data_source=ds_name, statements=len(statements))
        return out


class _StealScheduler:
    """Work-stealing batch scheduler for one multi-unit statement.

    Tasks are seeded by data-source group (group *g* lands on worker
    *g mod W*), so each worker starts out owning one source's units —
    connection affinity — while an idle worker steals the back half of
    the deepest deque. The calling thread always participates as worker
    0: even with the shared pool saturated by concurrent statements the
    batch makes progress on its own thread (helpers are best-effort
    accelerators), which removes the nested-submit starvation the old
    per-group future chain was exposed to.

    ``run`` returns once every task has executed — or been drained with
    ``cancelled=True`` because the engine closed mid-flight.
    """

    __slots__ = ("engine", "session", "deques", "lock", "remaining", "done",
                 "steals", "stolen_tasks")

    def __init__(self, engine: ExecutionEngine,
                 tasks: list[tuple[int, Callable[..., None]]]):
        workers = max(1, min(len(tasks), engine.fanout_workers))
        self.engine = engine
        #: the statement's session, captured on the calling thread; helper
        #: workers resume it so stolen tasks keep causal tokens, primary
        #: pinning and transaction pinning attributed to the right session
        self.session = current_session()
        self.deques: list[deque[Callable[..., None]]] = [
            deque() for _ in range(workers)
        ]
        for seed, fn in tasks:
            self.deques[seed % workers].append(fn)
        self.lock = threading.Lock()
        self.remaining = len(tasks)
        self.done = threading.Event()
        self.steals = 0
        self.stolen_tasks = 0
        engine.metrics.queued_tasks += len(tasks)

    def run(self) -> None:
        if not self.remaining:
            self.done.set()
            return
        for index in range(1, len(self.deques)):
            try:
                self.engine._pool.submit(self._helper_work, index)
            except RuntimeError:
                # pool already shut down: worker 0 drains everything alone
                break
        self._work(0)
        self.done.wait()

    def _helper_work(self, me: int) -> None:
        """Pool-thread entry: resume the statement's session, then work.

        Worker 0 is the calling thread and is already in the session's
        context; every helper crosses a thread boundary and must restore
        it explicitly before touching any unit."""
        with activate(self.session):
            self._work(me)

    def _work(self, me: int) -> None:
        my = self.deques[me]
        while True:
            if self.engine._closed:
                self._drain_closed()
                return
            task: Callable[..., None] | None = None
            with self.lock:
                if my:
                    task = my.popleft()
                else:
                    victim: deque[Callable[..., None]] | None = None
                    depth = 0
                    for dq in self.deques:
                        if dq is not my and len(dq) > depth:
                            victim, depth = dq, len(dq)
                    if victim is not None:
                        half = (depth + 1) // 2
                        stolen = [victim.pop() for _ in range(half)]
                        stolen.reverse()  # keep the stolen slice in FIFO order
                        my.extend(stolen)
                        self.steals += 1
                        self.stolen_tasks += half
                        self.engine.metrics.steals += 1
                        self.engine.metrics.stolen_tasks += half
                        task = my.popleft()
            if task is None:
                return
            self._finish(task, cancelled=False)

    def _drain_closed(self) -> None:
        """Engine closed mid-statement: fail every queued task fast so
        ``run`` can return with a clear error instead of hanging."""
        with self.lock:
            drained: list[Callable[..., None]] = []
            for dq in self.deques:
                drained.extend(dq)
                dq.clear()
        for fn in drained:
            self._finish(fn, cancelled=True)

    def _finish(self, fn: Callable[..., None], cancelled: bool) -> None:
        try:
            fn(cancelled=cancelled)
        finally:
            with self.lock:
                self.remaining -= 1
                if self.remaining == 0:
                    self.done.set()
