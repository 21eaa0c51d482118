"""DB-API-flavored connections and cursors for a data source.

This is the JDBC stand-in: the sharding executor, the adaptors and the
benchmarks all talk to data sources through :class:`Connection` /
:class:`Cursor`. Cursors stream rows from the engine lazily, which is what
lets the result merger choose stream merging over memory merging.

Isolation note: like the paper's setup, transactional isolation is provided
by the underlying data source. Our engine implements statement-atomic
writes with undo-based rollback (roughly READ COMMITTED without MVCC);
that is sufficient for every behaviour the paper measures.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from ..exceptions import (
    ConnectionClosedError,
    ConnectionDropError,
    DataSourceUnavailableError,
    TransactionError,
)
from ..sql import ast, parse
from .executor import QueryResult
from .latency import pay
from .plans import execute_planned, execute_planned_many
from .transaction import Transaction, commit_prepared, rollback_prepared

_TCL_STATEMENTS = (ast.BeginStatement, ast.CommitStatement, ast.RollbackStatement)

if TYPE_CHECKING:
    from .engine import DataSource

_connection_ids = itertools.count(1)


class Connection:
    """A session against one data source.

    Starts in autocommit mode (each DML statement commits immediately),
    like a fresh JDBC/MySQL connection. ``begin()`` or executing ``BEGIN``
    opens an explicit transaction ended by ``commit()``/``rollback()``.
    """

    #: trace context handed down by the execution engine for the duration
    #: of one statement: latency-model sleeps and lock waits in ``_run``
    #: are attributed to this span (class default None = not traced)
    trace_span = None

    def __init__(self, data_source: "DataSource"):
        self.data_source = data_source
        self.database = data_source.database
        self.id = next(_connection_ids)
        self.autocommit = True
        self._transaction: Transaction | None = None
        self._closed = False
        self._lock = threading.RLock()

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            if self._transaction is not None and self._transaction.status.value == "active":
                self._transaction.rollback()
            self._transaction = None
            self._closed = True
        self.data_source.on_connection_closed(self)

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ConnectionClosedError("connection is closed")

    # -- transaction control ---------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._transaction is not None and self._transaction.status.value == "active"

    def current_transaction(self) -> Transaction | None:
        """The open transaction, if any (Seata-AT inspects its undo log)."""
        return self._transaction if self.in_transaction else None

    def begin(self) -> None:
        self._check_open()
        with self._lock:
            if self.in_transaction:
                raise TransactionError("transaction already in progress")
            self._transaction = Transaction(self.database)
            self.autocommit = False

    def commit(self) -> None:
        self._check_open()
        with self._lock:
            if self._transaction is not None:
                self._transaction.commit()
                self._transaction = None
            self.autocommit = True

    def rollback(self) -> None:
        self._check_open()
        with self._lock:
            if self._transaction is not None:
                self._transaction.rollback()
                self._transaction = None
            self.autocommit = True

    # -- XA verbs ---------------------------------------------------------------

    def xa_prepare(self, xid: str) -> None:
        """2PC phase 1: park the open transaction as prepared under xid."""
        self._check_open()
        with self._lock:
            if self._transaction is None:
                # Read-only branch: nothing to prepare, vacuously OK.
                return
            self._transaction.prepare(xid)
            self._transaction = None
            self.autocommit = True

    def xa_commit(self, xid: str) -> None:
        commit_prepared(self.database, xid)

    def xa_rollback(self, xid: str) -> None:
        rollback_prepared(self.database, xid)

    # -- statement execution ------------------------------------------------------

    def cursor(self) -> "Cursor":
        self._check_open()
        return Cursor(self)

    def execute(self, sql: str | ast.Statement, params: Sequence[Any] = ()) -> "Cursor":
        """Convenience: open a cursor and execute on it."""
        cursor = self.cursor()
        cursor.execute(sql, params)
        return cursor

    def _run(self, stmt: ast.Statement, params: Sequence[Any],
             defer_pay: bool = False) -> QueryResult:
        self._check_open()
        if isinstance(stmt, ast.BeginStatement):
            self.begin()
            return QueryResult(rowcount=0)
        if isinstance(stmt, ast.CommitStatement):
            self.commit()
            return QueryResult(rowcount=0)
        if isinstance(stmt, ast.RollbackStatement):
            self.rollback()
            return QueryResult(rowcount=0)

        self._admit(stmt)
        try:
            self.database.maybe_fail("statement")
        except ConnectionDropError:
            # The "server" dropped us: this session is dead. close() rolls
            # back any open transaction; the pool discards closed conns.
            self.close()
            raise
        span = self.trace_span
        if stmt.category in ("DML", "DDL"):
            with self._lock:
                implicit = False
                if self._transaction is None:
                    self._transaction = Transaction(self.database)
                    implicit = True
                txn = self._transaction
                try:
                    lock_t0 = time.perf_counter() if span is not None else 0.0
                    with self.database.write_lock():
                        if span is not None:
                            span.record_lock_wait(time.perf_counter() - lock_t0)
                        result, plan_status = execute_planned(self.database, stmt, params, txn)
                        # workload analytics read it off the result
                        result.plan = plan_status
                        if span is not None:
                            span.attributes["storage_plan"] = plan_status
                except Exception:
                    if implicit:
                        txn.rollback()
                        self._transaction = None
                    raise
                if implicit:
                    txn.commit()
                    self._transaction = None
                    if span is not None:
                        # autocommit fsync happens inside this statement
                        span.record_simulated(self.database.latency.commit_cost())
            if not defer_pay:
                self._pay(result, span)
            return result

        result, plan_status = execute_planned(self.database, stmt, params, self._transaction)
        result.plan = plan_status
        if span is not None:
            span.attributes["storage_plan"] = plan_status
        if not defer_pay:
            self._pay(result, span)
        return result

    def _admit(self, stmt: ast.Statement) -> None:
        """Replica-group role checks + the storage statement counter.

        On a read replica, first lazily apply every replication-log record
        whose lag has elapsed, so this statement sees exactly the
        snapshot its staleness bound allows. Writes are rejected on
        replicas and on fenced (failed-over) primaries.
        """
        source = self.data_source
        replica = source.replica
        if replica is not None:
            replica.apply_due()
        if stmt.category in ("DML", "DDL"):
            if source.fenced:
                raise DataSourceUnavailableError(
                    f"data source {source.name!r} is fenced (failed-over primary)"
                )
            if replica is not None:
                raise DataSourceUnavailableError(
                    f"data source {source.name!r} is a read replica"
                )
        self.database.statements_executed += 1

    def _pay(self, result: QueryResult, span: Any) -> None:
        """Pay one statement's simulated I/O cost (sleep)."""
        if result.cost <= 0:
            return
        pay_t0 = time.perf_counter() if span is not None else 0.0
        if result.written_table is not None:
            # Write I/O serializes per table (page/WAL contention):
            # the hot-table bottleneck the paper's sharding removes.
            # Lock order: table io_lock, then a server I/O channel.
            with result.written_table.io_lock:
                with self.data_source.io_semaphore:
                    pay(result.cost)
        else:
            with self.data_source.io_semaphore:
                pay(result.cost)
        if span is not None:
            span.record_simulated(result.cost)
            span.record_lock_wait(time.perf_counter() - pay_t0 - result.cost)

    # -- statement pipelining ---------------------------------------------------

    def execute_pipeline(
        self, statements: Sequence[tuple[str | ast.Statement, Sequence[Any]]]
    ) -> list[QueryResult]:
        """Execute a batch of statements in order, one storage round trip.

        Per-statement semantics (3VL, errors, rowcounts, transaction
        undo) are identical to running the same statements serially; what
        changes is the simulated-I/O payment: the write-I/O slice of each
        statement's cost is coalesced to **one charge per distinct written
        table** in the batch (the group-commit / write-combining analog of
        a real engine flushing one dirty page per table), paid under that
        table's ``io_lock`` so hot-table serialization is preserved.

        Each statement's rows are materialized before the next statement
        runs, so a read sees the state as of its own position in the
        batch, never a later statement's writes. Pending write I/O is
        flushed before any COMMIT/ROLLBACK in the batch so the
        write-before-fsync ordering holds. On a mid-batch error, costs
        accrued so far are paid and the original exception
        propagates — earlier statements' effects stand, exactly as in
        serial execution (an enclosing transaction's undo still covers
        them).
        """
        self._check_open()
        results: list[QueryResult] = []
        pending: list[QueryResult] = []
        try:
            for sql, params in statements:
                if isinstance(sql, str):
                    stmt = parse(sql)
                    stmt.storage_plan_key = sql
                else:
                    stmt = sql
                if isinstance(stmt, _TCL_STATEMENTS) and pending:
                    self._flush_pipeline_costs(pending)
                    pending = []
                result = self._run(stmt, params, defer_pay=True)
                result.rows = list(result.rows)
                results.append(result)
                pending.append(result)
        finally:
            self._flush_pipeline_costs(pending)
        return results

    def _flush_pipeline_costs(self, pending: list[QueryResult]) -> None:
        """Pay deferred costs: reads summed, writes coalesced per table."""
        span = self.trace_span
        read_cost = 0.0
        per_table: dict[int, list] = {}
        for result in pending:
            if result.cost <= 0:
                continue
            if result.written_table is None:
                read_cost += result.cost
                continue
            entry = per_table.get(id(result.written_table))
            if entry is None:
                per_table[id(result.written_table)] = [
                    result.written_table, result.cost - result.write_cost,
                    result.write_cost,
                ]
            else:
                entry[1] += result.cost - result.write_cost
                entry[2] = max(entry[2], result.write_cost)
        total = 0.0
        pay_t0 = time.perf_counter() if span is not None else 0.0
        for table, non_io, io in per_table.values():
            amount = non_io + io
            if amount <= 0:
                continue
            with table.io_lock:
                with self.data_source.io_semaphore:
                    pay(amount)
            total += amount
        if read_cost > 0:
            with self.data_source.io_semaphore:
                pay(read_cost)
            total += read_cost
        if span is not None and total > 0:
            span.record_simulated(total)
            span.record_lock_wait(time.perf_counter() - pay_t0 - total)

    def _run_many(self, stmt: ast.Statement,
                  seq_of_params: Sequence[Sequence[Any]]) -> QueryResult:
        """Batched executemany: one lock acquisition, one (implicit)
        transaction and one coalesced write-I/O charge for all bindings.

        In autocommit mode the batch commits once at the end, making it
        atomic — a mid-batch error rolls back every binding. Inside an
        explicit transaction semantics are unchanged (earlier bindings'
        effects stand until the transaction resolves).
        """
        self._check_open()
        seq = list(seq_of_params)
        if not seq:
            return QueryResult(rowcount=0)
        if stmt.category != "DML":
            # DDL/TCL/queries: keep per-binding execution (and its
            # per-binding payment); executemany on these is a rarity.
            total = 0
            counted = False
            result: QueryResult | None = None
            for params in seq:
                result = self._run(stmt, params)
                if result.rowcount >= 0:
                    counted = True
                    total += result.rowcount
            return QueryResult(
                columns=result.columns, rows=result.rows,
                rowcount=total if counted else -1, cost=result.cost,
                written_table=result.written_table,
            )
        self._admit(stmt)
        try:
            self.database.maybe_fail("statement")
        except ConnectionDropError:
            self.close()
            raise
        span = self.trace_span
        with self._lock:
            implicit = False
            if self._transaction is None:
                self._transaction = Transaction(self.database)
                implicit = True
            txn = self._transaction
            try:
                lock_t0 = time.perf_counter() if span is not None else 0.0
                with self.database.write_lock():
                    if span is not None:
                        span.record_lock_wait(time.perf_counter() - lock_t0)
                    result, plan_status = execute_planned_many(
                        self.database, stmt, seq, txn)
                    result.plan = plan_status
                    if span is not None:
                        span.attributes["storage_plan"] = plan_status
            except Exception:
                if implicit:
                    txn.rollback()
                    self._transaction = None
                raise
            if implicit:
                txn.commit()
                self._transaction = None
                if span is not None:
                    span.record_simulated(self.database.latency.commit_cost())
        self._pay(result, span)
        return result


class Cursor:
    """Streaming result cursor (DB-API style)."""

    arraysize = 100

    def __init__(self, connection: Connection):
        self.connection = connection
        self._result: QueryResult | None = None
        self._rows: Iterator[tuple[Any, ...]] = iter(())
        self._closed = False

    # -- metadata --------------------------------------------------------------

    @property
    def description(self) -> list[tuple] | None:
        if self._result is None or not self._result.columns:
            return None
        return [(name, None, None, None, None, None, None) for name in self._result.columns]

    @property
    def columns(self) -> list[str]:
        return list(self._result.columns) if self._result else []

    @property
    def rowcount(self) -> int:
        return self._result.rowcount if self._result else -1

    @property
    def result(self) -> QueryResult | None:
        """The storage outcome behind this cursor (cost, plan status)."""
        return self._result

    # -- execution ----------------------------------------------------------------

    def execute(self, sql: str | ast.Statement, params: Sequence[Any] = ()) -> "Cursor":
        if self._closed:
            raise ConnectionClosedError("cursor is closed")
        if isinstance(sql, str):
            stmt = parse(sql)
            # Key the database's compiled-plan cache by SQL text so every
            # cursor executing this statement shares one storage plan.
            stmt.storage_plan_key = sql
        else:
            stmt = sql
        self._result = self.connection._run(stmt, params)
        self._rows = iter(self._result.rows)
        return self

    def executemany(self, sql: str | ast.Statement, seq_of_params: Sequence[Sequence[Any]]) -> "Cursor":
        """Execute once per parameter row, parsing/planning only once.

        DML bindings run as one batched plan invocation: a single lock
        acquisition, one (implicit) transaction and one coalesced
        write-I/O charge (see :meth:`Connection._run_many`). Reports the
        cumulative rowcount across all bindings (DB-API semantics).
        """
        if self._closed:
            raise ConnectionClosedError("cursor is closed")
        if isinstance(sql, str):
            stmt = parse(sql)
            stmt.storage_plan_key = sql
        else:
            stmt = sql
        self._result = self.connection._run_many(stmt, seq_of_params)
        self._rows = iter(self._result.rows)
        return self

    # -- fetching ---------------------------------------------------------------------

    def fetchone(self) -> tuple[Any, ...] | None:
        return next(self._rows, None)

    def fetchmany(self, size: int | None = None) -> list[tuple[Any, ...]]:
        limit = size if size is not None else self.arraysize
        return list(itertools.islice(self._rows, limit))

    def fetchall(self) -> list[tuple[Any, ...]]:
        return list(self._rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return self._rows

    def close(self) -> None:
        self._rows = iter(())
        self._closed = True

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
