"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public entry point of each ``repro`` layer (a
class method or a module-level name that the calling module looks up at
call time) with a function that records a span: layer, start, end and the
span that caused it. Nothing in ``repro`` is edited; :meth:`Tracer.remove`
puts every original back.

A span's parent is the innermost open span on the same thread. A span
opened on a thread with no open span (an executor worker running one unit
of a fan-out) takes as parent the innermost open executor span of the
same session, found through ``repro.session.current_session()``, which the
executor carries across threads. A layer's self time is its span's
duration minus the part of that interval its child spans cover, children
on other threads included.

Spans are kept in memory and written out as JSON when the run ends.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from typing import Any, Callable

import repro.adaptors.jdbc as jdbc_module
import repro.adaptors.runtime as runtime_module
import repro.engine.pipeline as pipeline_module
import repro.storage.connection as connection_module
import repro.storage.engine as storage_engine_module
import repro.storage.faults as faults_module
import repro.storage.latency as latency_module
from repro.adaptors.jdbc import ShardingConnection
from repro.engine.executor import ExecutionEngine
from repro.engine.pipeline import SQLEngine
from repro.engine.result_cache import ResultCache
from repro.protocol.client import ProxyClient
from repro.session import current_session
from repro.storage.connection import Connection
from repro.storage.pool import ConnectionPool

perf_counter = time.perf_counter
thread_time = time.thread_time

# Layer names, after the repro modules they wrap.
JDBC = "adaptors.jdbc"
PROTOCOL = "protocol"
PARSE = "sql.parse"
ENGINE = "engine"
ROUTE = "engine.route"
REWRITE = "engine.rewrite"
RESULT_CACHE = "engine.result_cache"
EXECUTOR = "engine.executor"
MERGER = "engine.merger"
COMMIT = "transaction.commit"
POOL = "storage.pool"
CONNECTION = "storage.connection"
PLANS = "storage.plans"
LATENCY = "storage.latency"

LAYERS = (JDBC, PROTOCOL, PARSE, ENGINE, ROUTE, REWRITE, RESULT_CACHE,
          EXECUTOR, MERGER, COMMIT, POOL, CONNECTION, PLANS, LATENCY)

# span record slots
_LAYER, _T0, _T1, _PARENT, _CHILDREN, _THREAD, _ID, _STMTS = range(8)


class Tracer:
    """Records spans around each layer's entry points while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: id(session) -> open executor spans of that session, innermost last
        self._anchors: dict[int, list[list]] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        #: per-call sums that are not spans: (priced, slept) seconds of
        #: simulated I/O, storage-plan CPU seconds, merge drain seconds
        self.priced: list[float] = []
        self.slept: list[float] = []
        self.plan_cpu: list[float] = []
        self.drain: list[float] = []
        #: units handed to the executor, one entry per executor call
        self.units: list[int] = []
        self.rollbacks = 0
        self._rollback_lock = threading.Lock()

    # -- spans -------------------------------------------------------------

    def _open(self, layer: str, statements: int = 1) -> list:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        if stack:
            parent = stack[-1]
        elif self._anchors:
            anchors = self._anchors.get(id(current_session()))
            parent = anchors[-1] if anchors else None
        else:
            parent = None
        span = [layer, perf_counter(), 0.0, parent, None,
                threading.get_ident(), next(self._ids), statements]
        stack.append(span)
        if layer is EXECUTOR:
            self._anchors.setdefault(id(current_session()), []).append(span)
        return span

    def _close(self, span: list) -> None:
        span[_T1] = end = perf_counter()
        self._local.stack.pop()
        if span[_LAYER] is EXECUTOR:
            key = id(current_session())
            anchors = self._anchors[key]
            anchors.remove(span)
            if not anchors:
                del self._anchors[key]
        parent = span[_PARENT]
        if parent is not None:
            children = parent[_CHILDREN]
            if children is None:
                children = parent[_CHILDREN] = []
            children.append((span[_T0], end))
        self.spans.append(span)

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner: Any, name: str, wrapper: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _spanned(self, owner: Any, name: str, layer: str,
                 statements: Callable[..., int] | None = None) -> None:
        original = getattr(owner, name)
        open_span, close_span = self._open, self._close

        if statements is None:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                span = open_span(layer)
                try:
                    return original(*args, **kwargs)
                finally:
                    close_span(span)
        else:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                span = open_span(layer, statements(*args, **kwargs))
                try:
                    return original(*args, **kwargs)
                finally:
                    close_span(span)

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self._patch(owner, name, wrapper)

    def install(self) -> None:
        """Wrap every layer's entry points."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        spanned = self._spanned
        spanned(ShardingConnection, "execute", JDBC)
        spanned(ShardingConnection, "execute_pipeline", JDBC,
                lambda conn, statements: len(statements))
        spanned(ProxyClient, "execute", PROTOCOL)
        for module in (pipeline_module, jdbc_module, runtime_module, connection_module):
            spanned(module, "parse", PARSE)
        spanned(SQLEngine, "execute", ENGINE)
        spanned(SQLEngine, "execute_pipeline", ENGINE,
                lambda engine, statements, *a, **k: len(statements))
        spanned(pipeline_module, "route", ROUTE)
        spanned(pipeline_module, "rewrite", REWRITE)
        spanned(ResultCache, "lookup", RESULT_CACHE)
        units = self.units
        spanned(ExecutionEngine, "execute", EXECUTOR,
                lambda engine, batch, *a, **k: units.append(len(batch)) or 1)
        spanned(ExecutionEngine, "execute_pipeline", EXECUTOR,
                lambda engine, ds_name, statements, *a, **k:
                units.append(len(statements)) or len(statements))
        spanned(ShardingConnection, "commit", COMMIT)
        spanned(ConnectionPool, "acquire", POOL)
        spanned(ConnectionPool, "try_acquire_many", POOL)
        spanned(Connection, "_run", CONNECTION)
        spanned(Connection, "_run_many", CONNECTION)
        # a pipeline's statements are counted by the _run spans inside it
        spanned(Connection, "execute_pipeline", CONNECTION,
                lambda conn, statements: 0)
        self._wrap_merge()
        self._wrap_plans()
        self._wrap_pay()
        self._wrap_rollback()

    def remove(self) -> None:
        """Put every wrapped entry point back."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap_merge(self) -> None:
        original = pipeline_module.merge
        open_span, close_span, drain = self._open, self._close, self.drain

        def timed_rows(rows: Any):
            it = iter(rows)
            spent = 0.0
            try:
                while True:
                    t0 = perf_counter()
                    try:
                        row = next(it)
                    except StopIteration:
                        spent += perf_counter() - t0
                        return
                    spent += perf_counter() - t0
                    yield row
            finally:
                drain.append(spent)

        def merge(*args: Any, **kwargs: Any) -> Any:
            span = open_span(MERGER)
            try:
                merged = original(*args, **kwargs)
            finally:
                close_span(span)
            merged.rows = timed_rows(merged.rows)
            return merged

        self._patch(pipeline_module, "merge", merge)

    def _wrap_plans(self) -> None:
        open_span, close_span, cpu = self._open, self._close, self.plan_cpu
        for name in ("execute_planned", "execute_planned_many"):
            original = getattr(connection_module, name)

            def planned(*args: Any, _original=original, **kwargs: Any) -> Any:
                span = open_span(PLANS)
                c0 = thread_time()
                try:
                    return _original(*args, **kwargs)
                finally:
                    cpu.append(thread_time() - c0)
                    close_span(span)

            self._patch(connection_module, name, planned)

    def _wrap_pay(self) -> None:
        open_span, close_span = self._open, self._close
        priced, slept = self.priced, self.slept
        for module in (connection_module, storage_engine_module, latency_module,
                       faults_module):
            original = module.pay

            def pay(seconds: float, _original=original) -> None:
                span = open_span(LATENCY)
                t0 = perf_counter()
                try:
                    _original(seconds)
                finally:
                    if seconds > 0:
                        priced.append(seconds)
                        slept.append(perf_counter() - t0)
                    close_span(span)

            self._patch(module, "pay", pay)

    def _wrap_rollback(self) -> None:
        original = ShardingConnection.rollback

        def rollback(*args: Any, **kwargs: Any) -> Any:
            with self._rollback_lock:
                self.rollbacks += 1
            return original(*args, **kwargs)

        self._patch(ShardingConnection, "rollback", rollback)

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, statements, total and self seconds."""
        totals = {layer: {"spans": 0, "statements": 0, "seconds": 0.0, "self_seconds": 0.0}
                  for layer in LAYERS}
        for span in self.spans:
            t0, t1 = span[_T0], span[_T1]
            covered = 0.0
            children = span[_CHILDREN]
            if children:
                # union of child intervals, clipped to this span
                last = t0
                for c0, c1 in sorted(children):
                    c0 = max(c0, last)
                    c1 = min(c1, t1)
                    if c1 > c0:
                        covered += c1 - c0
                        last = c1
            entry = totals[span[_LAYER]]
            entry["spans"] += 1
            entry["statements"] += span[_STMTS]
            entry["seconds"] += t1 - t0
            entry["self_seconds"] += (t1 - t0) - covered
        return totals

    def write(self, path: str, origin: float) -> None:
        """Write every span as [id, parent id, layer, thread, start us, end us]."""
        threads: dict[int, int] = {}
        with open(path, "w") as handle:
            handle.write('{"layers": ' + json.dumps(LAYERS) + ', "spans": [\n')
            index = {layer: i for i, layer in enumerate(LAYERS)}
            first = True
            for span in sorted(self.spans, key=lambda s: s[_ID]):
                parent = span[_PARENT]
                thread = threads.setdefault(span[_THREAD], len(threads))
                line = json.dumps([
                    span[_ID], parent[_ID] if parent is not None else 0,
                    index[span[_LAYER]], thread,
                    round((span[_T0] - origin) * 1e6, 1),
                    round((span[_T1] - origin) * 1e6, 1),
                ])
                handle.write(line if first else ",\n" + line)
                first = False
            handle.write("\n]}\n")


class CallCounter:
    """Counts Python function calls through the interpreter's profile hook.

    The hook sees the calling thread and every thread started while it is
    installed; threads that already exist are not counted.
    """

    def __init__(self) -> None:
        self.calls = 0
        self._lock = threading.Lock()

    def _hook(self, frame: Any, event: str, arg: Any) -> None:
        if event == "call":
            with self._lock:
                self.calls += 1

    def on(self) -> None:
        self.calls = 0
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)

    def off(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)  # type: ignore[arg-type]
