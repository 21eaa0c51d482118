"""Vectorized batch execution, fused pipelining and work-stealing fan-out.

Three suites attacking the execute stage from different angles:

- differential: every statement runs against *triplet* data sources —
  batched chunks (``batch_rows=256``), the row-at-a-time compiled path
  (``batch_rows=1``) and the tree-walking interpreter — and must agree.
- pipelining: ``execute_pipeline`` at the storage, engine and adaptor
  layers keeps serial-equivalent semantics (mid-batch errors, rollback)
  while coalescing write-I/O per written table.
- fan-out: the work-stealing scheduler completes skewed routes with
  steals observed, shuts down cleanly, and honours statement deadlines
  while waiting on an exhausted pool.
"""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import ExecutionEngine, SQLEngine
from repro.engine.resilience import ResiliencePolicy
from repro.exceptions import (
    DeadlineExceededError,
    ExecutionError,
    TransientError,
    UnsupportedSQLError,
)
from repro.sharding import ShardingRule, build_auto_table_rule
from repro.sql import parse
from repro.storage import DataSource, LatencyModel

from .test_storage_plans import (
    DIFF_SETTINGS,
    SCHEMA_T,
    SCHEMA_U,
    U_ROWS,
    limit_s,
    order_s,
    rows_s,
    select_items_s,
    where_s,
)

# ---------------------------------------------------------------------------
# Differential: batched chunks == row-at-a-time == interpreter
# ---------------------------------------------------------------------------


def make_triplets(rows):
    """Three identical data sources: batched plans, row-path plans
    (``batch_rows=1``), and the interpreter (no plan cache)."""
    triplets = []
    for tag, batch_rows, compiled in (
        ("batched", 256, True),
        ("rowpath", 1, True),
        ("interp", 256, False),
    ):
        ds = DataSource(f"tri_{tag}")
        ds.database.batch_rows = batch_rows
        if not compiled:
            ds.database.plan_cache.enabled = False
        ds.execute(SCHEMA_T)
        ds.execute("CREATE INDEX idx_grp ON t (grp)")
        ds.execute("CREATE INDEX idx_val ON t (val)")
        ds.execute(SCHEMA_U)
        conn = ds.connect()
        if rows:
            conn.cursor().executemany(
                "INSERT INTO t (id, grp, val, name, flag) VALUES (?, ?, ?, ?, ?)", rows
            )
        conn.cursor().executemany("INSERT INTO u (uid, grp, tag) VALUES (?, ?, ?)", U_ROWS)
        triplets.append((ds, conn))
    return triplets


def run_triplet(triplets, sql, params=()):
    outs = []
    for _ds, conn in triplets:
        cur = conn.execute(sql, params)
        outs.append((cur.fetchall(), cur.rowcount))
    return outs


def assert_triplets_agree(triplets, sql, params=()):
    """Run twice on all three (compile, then hit) and compare everything."""
    for outs in (run_triplet(triplets, sql, params), run_triplet(triplets, sql, params)):
        assert outs[0] == outs[1], sql
        assert outs[1] == outs[2], sql


class TestDifferentialBatchRows:
    @DIFF_SETTINGS
    @given(rows=rows_s, items=select_items_s, where=where_s, order=order_s, limit=limit_s)
    def test_select_matches_row_path_and_interpreter(self, rows, items, where, order, limit):
        triplets = make_triplets(rows)
        cond, params = where
        sql = f"SELECT {items} FROM t {cond} {order} {limit}".strip()
        assert_triplets_agree(triplets, sql, params)

    @DIFF_SETTINGS
    @given(rows=rows_s, where=where_s)
    def test_aggregates_and_joins_match(self, rows, where):
        triplets = make_triplets(rows)
        cond, params = where
        assert_triplets_agree(
            triplets,
            "SELECT grp, COUNT(*) AS c, SUM(val) AS s, AVG(val) AS av "
            f"FROM t {cond} GROUP BY grp ORDER BY grp",
            params,
        )
        assert_triplets_agree(
            triplets,
            "SELECT t.id, u.uid, u.tag FROM t JOIN u ON t.grp = u.grp "
            "ORDER BY t.id, u.uid",
        )

    @DIFF_SETTINGS
    @given(
        rows=rows_s,
        where=where_s,
        setter=st.sampled_from(
            [
                ("SET val = val + 1", ()),
                ("SET flag = 1 - flag", ()),
                ("SET val = ?, name = ?", (9.5, "bound")),
            ]
        ),
    )
    def test_update_delete_match(self, rows, where, setter):
        triplets = make_triplets(rows)
        assignment, set_params = setter
        cond, where_params = where
        outs = run_triplet(triplets, f"UPDATE t {assignment} {cond}".strip(),
                           tuple(set_params) + tuple(where_params))
        assert outs[0][1] == outs[1][1] == outs[2][1]
        outs = run_triplet(triplets, f"DELETE FROM t {cond}".strip(), where_params)
        assert outs[0][1] == outs[1][1] == outs[2][1]
        state = run_triplet(triplets, "SELECT * FROM t ORDER BY id")
        assert state[0] == state[1] == state[2]

    @DIFF_SETTINGS
    @given(rows=rows_s)
    def test_executemany_insert_matches(self, rows):
        """Multi-row INSERT through one batched compiled-plan invocation."""
        triplets = make_triplets([])
        for _ds, conn in triplets:
            conn.cursor().executemany(
                "INSERT INTO t (id, grp, val, name, flag) VALUES (?, ?, ?, ?, ?)", rows
            )
        state = run_triplet(triplets, "SELECT * FROM t ORDER BY id")
        assert state[0] == state[1] == state[2]
        assert state[0][0] == sorted(rows)


# ---------------------------------------------------------------------------
# Fused pipelining: storage layer
# ---------------------------------------------------------------------------


WRITE_IO = 0.02


@pytest.fixture
def slow_write_source():
    ds = DataSource("slow", latency=LatencyModel(write_io=WRITE_IO))
    ds.execute("CREATE TABLE acc (id INT PRIMARY KEY, bal INT)")
    ds.execute("INSERT INTO acc (id, bal) VALUES (1, 100), (2, 100), (3, 100), (4, 100)")
    return ds


class TestStoragePipeline:
    def test_per_statement_results(self, slow_write_source):
        conn = slow_write_source.connect()
        results = conn.execute_pipeline([
            ("UPDATE acc SET bal = bal - 10 WHERE id = 1", ()),
            ("SELECT bal FROM acc WHERE id = 1", ()),
            ("UPDATE acc SET bal = bal + 10 WHERE id = 2", ()),
        ])
        assert results[0].rowcount == 1
        assert list(results[1].rows) == [(90,)]
        assert results[2].rowcount == 1

    def test_write_io_coalesced_per_table(self, slow_write_source):
        """Four same-table writes pay the write-I/O slice once, not four
        times — the group-commit analog."""
        conn = slow_write_source.connect()
        writes = [(f"UPDATE acc SET bal = bal + 1 WHERE id = {i}", ()) for i in (1, 2, 3, 4)]
        start = time.monotonic()
        conn.execute_pipeline(writes)
        pipelined = time.monotonic() - start
        start = time.monotonic()
        for sql, params in writes:
            conn.execute(sql, params)
        serial = time.monotonic() - start
        assert serial >= 4 * WRITE_IO
        assert pipelined < 3 * WRITE_IO  # 1 coalesced slice + slack, not 4

    def test_mid_batch_error_keeps_earlier_effects(self, slow_write_source):
        """Serial equivalence: a failing statement propagates after the
        effects (and costs) of earlier statements have landed."""
        conn = slow_write_source.connect()
        with pytest.raises(Exception):
            conn.execute_pipeline([
                ("UPDATE acc SET bal = 0 WHERE id = 1", ()),
                ("UPDATE no_such_table SET x = 1", ()),
                ("UPDATE acc SET bal = 0 WHERE id = 2", ()),
            ])
        rows = conn.execute("SELECT id, bal FROM acc ORDER BY id", ()).fetchall()
        assert rows[0] == (1, 0)      # first statement applied
        assert rows[1] == (2, 100)    # statement after the error never ran

    def test_read_before_write_sees_old_value(self, slow_write_source):
        """A read's rows are materialized before the next statement runs:
        a later write in the batch never leaks into an earlier read."""
        conn = slow_write_source.connect()
        results = conn.execute_pipeline([
            ("SELECT bal FROM acc WHERE id = 1", ()),
            ("UPDATE acc SET bal = bal + 1 WHERE id = 1", ()),
        ])
        assert list(results[0].rows) == [(100,)]
        assert results[1].rowcount == 1
        assert conn.execute("SELECT bal FROM acc WHERE id = 1").fetchall() == [(101,)]

    def test_transaction_control_inside_batch(self, slow_write_source):
        conn = slow_write_source.connect()
        conn.execute_pipeline([
            ("BEGIN", ()),
            ("UPDATE acc SET bal = 55 WHERE id = 3", ()),
            ("ROLLBACK", ()),
        ])
        rows = conn.execute("SELECT bal FROM acc WHERE id = 3", ()).fetchall()
        assert rows == [(100,)]


# ---------------------------------------------------------------------------
# Fused pipelining: engine + adaptor layers
# ---------------------------------------------------------------------------


@pytest.fixture
def jdbc_connection(fleet, paper_rule):
    from repro.adaptors import ShardingDataSource, ShardingRuntime

    runtime = ShardingRuntime(fleet, paper_rule, max_connections_per_query=2)
    conn = ShardingDataSource(runtime).get_connection()
    conn.execute(
        "INSERT INTO t_user (uid, name, age) VALUES (1, 'alice', 30), (2, 'bob', 25)"
    )
    yield conn
    conn.close()
    runtime.close()


class TestEnginePipeline:
    def test_batch_results_in_order(self, jdbc_connection):
        results = jdbc_connection.execute_pipeline([
            ("UPDATE t_user SET age = 31 WHERE uid = 1", ()),
            ("SELECT name, age FROM t_user WHERE uid = 1", ()),
            ("INSERT INTO t_order (oid, uid, amount) VALUES (?, ?, ?)", (10, 1, 5.0)),
            ("SELECT amount FROM t_order WHERE uid = 1", ()),
        ])
        assert results[0].rowcount == 1
        assert results[1].fetchall() == [("alice", 31)]
        assert results[2].rowcount == 1
        assert results[3].fetchall() == [(5.0,)]

    def test_multi_unit_statement_splits_batch(self, jdbc_connection):
        """A broadcast read inside the batch flushes and fans out, then
        pipelining resumes; results stay positional."""
        results = jdbc_connection.execute_pipeline([
            ("UPDATE t_user SET age = 40 WHERE uid = 1", ()),
            ("SELECT COUNT(*) FROM t_user", ()),
            ("SELECT age FROM t_user WHERE uid = 1", ()),
        ])
        assert results[0].rowcount == 1
        assert results[1].fetchall() == [(2,)]
        assert results[2].fetchall() == [(40,)]

    def test_transaction_rollback_undoes_pipelined_writes(self, jdbc_connection):
        jdbc_connection.begin()
        results = jdbc_connection.execute_pipeline([
            ("UPDATE t_user SET age = 99 WHERE uid = 1", ()),
            ("SELECT age FROM t_user WHERE uid = 1", ()),
        ])
        assert results[1].fetchall() == [(99,)]  # reads its own write
        jdbc_connection.rollback()
        rows = jdbc_connection.execute("SELECT age FROM t_user WHERE uid = 1").fetchall()
        assert rows == [(30,)]

    def test_read_before_write_sees_old_value(self, jdbc_connection):
        results = jdbc_connection.execute_pipeline([
            ("SELECT age FROM t_user WHERE uid = 1", ()),
            ("UPDATE t_user SET age = age + 1 WHERE uid = 1", ()),
        ])
        assert results[0].fetchall() == [(30,)]
        assert results[1].rowcount == 1
        rows = jdbc_connection.execute("SELECT age FROM t_user WHERE uid = 1").fetchall()
        assert rows == [(31,)]

    def test_control_statements_rejected(self, jdbc_connection):
        for sql in ("BEGIN", "COMMIT", "SET sql_show = true", "SHOW TABLES"):
            with pytest.raises(UnsupportedSQLError):
                jdbc_connection.execute_pipeline([(sql, ())])

    def test_pipeline_metrics_counted(self, jdbc_connection):
        engine = jdbc_connection.runtime.engine
        before = engine.executor.metrics.snapshot()
        jdbc_connection.execute_pipeline([
            ("UPDATE t_user SET age = 26 WHERE uid = 2", ()),
            ("SELECT age FROM t_user WHERE uid = 2", ()),
        ])
        after = engine.executor.metrics.snapshot()
        assert after["pipeline_batches"] == before["pipeline_batches"] + 1
        assert after["pipelined_statements"] == before["pipelined_statements"] + 2


# ---------------------------------------------------------------------------
# Pinned fan-out batches: one storage round trip per held connection
# ---------------------------------------------------------------------------


GRID_SOURCES = ["ds0", "ds1"]
GRID_TABLES = 4  # per source: every range fans out to 8 units
GRID_ROWS = [(i, i % 7, f"c{i % 5}") for i in range(1, 49)]
GRID_RANGES = {
    "simple": "SELECT c FROM kv WHERE id BETWEEN ? AND ?",
    "sum": "SELECT SUM(k) FROM kv WHERE id BETWEEN ? AND ?",
    "order": "SELECT c FROM kv WHERE id BETWEEN ? AND ? ORDER BY c",
    "distinct": "SELECT DISTINCT c FROM kv WHERE id BETWEEN ? AND ? ORDER BY c",
}


def grid_oracle(kind, low, high):
    """The range's expected rows, computed in plain Python."""
    hit = [row for row in GRID_ROWS if low <= row[0] <= high]
    if kind == "sum":
        return [(sum(k for _id, k, _c in hit),)]
    values = sorted((c,) for _id, _k, c in hit)
    return sorted(set(values)) if kind == "distinct" else values


@pytest.fixture
def hash_grid():
    """2 sources x 4 tables on the hash layout, LOCAL transactions, a
    latency model so every unit has a priced cost, and retries on."""
    from repro.adaptors import ShardingDataSource, ShardingRuntime
    from repro.baselines.topology import make_grid_sharding

    sources = {
        name: DataSource(name, latency=LatencyModel(base=50e-6, commit_io=0.0))
        for name in GRID_SOURCES
    }
    rule = make_grid_sharding([("kv", "id")], GRID_SOURCES, GRID_TABLES, layout="hash")
    runtime = ShardingRuntime(
        sources, rule, max_connections_per_query=GRID_TABLES,
        resilience=ResiliencePolicy(max_retries=2, base_backoff=0.0, seed=1),
    )
    conn = ShardingDataSource(runtime).get_connection()
    conn.execute("CREATE TABLE kv (id INT PRIMARY KEY, k INT, c VARCHAR(16))")
    conn.execute(
        "INSERT INTO kv (id, k, c) VALUES " + ", ".join(["(?, ?, ?)"] * len(GRID_ROWS)),
        [value for row in GRID_ROWS for value in row],
    )
    yield runtime, conn
    conn.close()
    runtime.close()


def run_in_transaction(conn, sql, params=()):
    conn.begin()
    try:
        rows = conn.execute(sql, params).fetchall()
    finally:
        conn.commit()
    return rows


def fail_nth_statement(monkeypatch, source, n):
    """Make the ``n``-th statement on ``source`` from now raise a
    TransientError once; returns the list of statements seen."""
    database = source.database
    original = database.maybe_fail
    seen = []

    def flaky(operation):
        if operation == "statement":
            seen.append(operation)
            if len(seen) == n:
                raise TransientError("injected mid-batch fault")
        original(operation)

    monkeypatch.setattr(database, "maybe_fail", flaky)
    return seen


@pytest.fixture
def storage_calls(monkeypatch):
    """Count storage round trips per data source and record every pay()."""
    from repro.storage import connection as storage_connection
    from repro.storage.connection import Connection

    calls = {"pipeline": {}, "execute": {}, "priced": [], "paid": []}
    original_pipeline = Connection.execute_pipeline
    original_execute = Connection.execute
    original_pay = storage_connection.pay

    def count(kind, conn):
        by_source = calls[kind]
        by_source[conn.data_source.name] = by_source.get(conn.data_source.name, 0) + 1

    def execute_pipeline(self, statements):
        count("pipeline", self)
        results = original_pipeline(self, statements)
        calls["priced"].extend(result.cost for result in results)
        return results

    def execute(self, sql, params=()):
        count("execute", self)
        return original_execute(self, sql, params)

    def pay(seconds):
        calls["paid"].append(seconds)
        original_pay(seconds)

    monkeypatch.setattr(Connection, "execute_pipeline", execute_pipeline)
    monkeypatch.setattr(Connection, "execute", execute)
    monkeypatch.setattr(storage_connection, "pay", pay)
    return calls


class TestPinnedFanOutBatches:
    @pytest.mark.parametrize("kind", sorted(GRID_RANGES))
    def test_rows_match_autocommit_and_oracle(self, hash_grid, kind):
        _runtime, conn = hash_grid
        for low, high in ((1, 48), (5, 24), (30, 31)):
            expected = grid_oracle(kind, low, high)
            autocommit = conn.execute(GRID_RANGES[kind], (low, high)).fetchall()
            pinned = run_in_transaction(conn, GRID_RANGES[kind], (low, high))
            if kind == "simple":  # no ORDER BY: shard order is arbitrary
                autocommit, pinned = sorted(autocommit), sorted(pinned)
            assert autocommit == expected
            assert pinned == expected

    def test_one_round_trip_and_one_pay_per_source(self, hash_grid, storage_calls):
        _runtime, conn = hash_grid
        sql, params = GRID_RANGES["sum"], (1, 48)
        conn.execute(sql, params)  # autocommit: one sleep per unit
        per_unit_paid = list(storage_calls["paid"])
        assert len(per_unit_paid) == len(GRID_SOURCES) * GRID_TABLES

        conn.begin()
        for recorded in storage_calls.values():
            recorded.clear()
        conn.execute(sql, params).fetchall()
        assert storage_calls["pipeline"] == {name: 1 for name in GRID_SOURCES}
        assert storage_calls["execute"] == {}
        assert len(storage_calls["paid"]) == len(GRID_SOURCES)
        assert len(storage_calls["priced"]) == len(GRID_SOURCES) * GRID_TABLES
        # the batch prices exactly what the units priced one by one
        assert sum(storage_calls["paid"]) == pytest.approx(sum(storage_calls["priced"]))
        assert sum(storage_calls["paid"]) == pytest.approx(sum(per_unit_paid))
        conn.commit()

    def test_sampled_spans_and_heat_match_per_unit(self, hash_grid):
        runtime, conn = hash_grid
        obs = runtime.observability
        obs.tracer.enabled = True
        obs.stage_sample_every = 1
        heat = obs.workload.heat
        sql, params = GRID_RANGES["order"], (3, 40)

        def observe(run):
            heat.clear()
            run()
            trace = obs.tracer.recent()[0]
            spans = {
                (span.attributes["data_source"], span.attributes["sql"]): span
                for span in trace.spans if span.name == "storage"
            }
            nodes = {key: node.simulated for key, node in heat.nodes.items()}
            return spans, nodes

        per_unit_spans, per_unit_heat = observe(lambda: conn.execute(sql, params).fetchall())
        pinned_spans, pinned_heat = observe(lambda: run_in_transaction(conn, sql, params))

        assert len(pinned_spans) == len(GRID_SOURCES) * GRID_TABLES
        assert pinned_spans.keys() == per_unit_spans.keys()
        for key, span in pinned_spans.items():
            assert span.finished and span.error is None
            assert span.attributes["mode"] == "connection_strictly"
            assert span.attributes["storage_plan"] in ("hit", "miss")
            assert span.attributes["rows"] == per_unit_spans[key].attributes["rows"]
            assert span.simulated > 0
            assert span.simulated == pytest.approx(per_unit_spans[key].simulated)
        assert pinned_heat.keys() == per_unit_heat.keys()
        for key, simulated in pinned_heat.items():
            assert simulated > 0
            assert simulated == pytest.approx(per_unit_heat[key])

    def test_transient_fault_mid_batch_retried_once(self, hash_grid, monkeypatch):
        runtime, conn = hash_grid
        metrics = runtime.engine.executor.metrics
        conn.begin()
        seen = fail_nth_statement(monkeypatch, runtime.data_sources["ds0"], 3)
        retries = metrics.retries
        rows = conn.execute(GRID_RANGES["sum"], (1, 48)).fetchall()
        conn.commit()
        assert rows == grid_oracle("sum", 1, 48)
        assert metrics.retries == retries + 1
        # two units ran, the third failed, then the whole batch re-ran
        assert len(seen) == 3 + GRID_TABLES

    def test_failing_dml_batch_not_retried_and_undone(self, hash_grid, monkeypatch):
        runtime, conn = hash_grid
        metrics = runtime.engine.executor.metrics
        conn.begin()
        seen = fail_nth_statement(monkeypatch, runtime.data_sources["ds0"], 3)
        retries, giveups = metrics.retries, metrics.giveups
        with pytest.raises(TransientError):
            conn.execute("UPDATE kv SET k = k + 1000 WHERE id BETWEEN 1 AND 48")
        assert len(seen) == 3  # never retried
        assert metrics.retries == retries
        assert metrics.giveups == giveups + 1
        # the earlier units' writes stand inside the transaction ...
        inside = dict(conn.execute("SELECT id, k FROM kv").fetchall())
        updated = {row_id for row_id, k in inside.items() if k >= 1000}
        even = {row_id for row_id, _k, _c in GRID_ROWS if row_id % 2 == 0}
        assert 0 < len(updated & even) < len(even)  # ds0 stopped mid-batch
        conn.rollback()
        # ... and the transaction's undo covers them
        after = sorted(conn.execute("SELECT id, k, c FROM kv").fetchall())
        assert after == GRID_ROWS

    def test_show_execution_metrics_counts_pinned_batches(self, hash_grid):
        _runtime, conn = hash_grid

        def snapshot():
            return dict(conn.execute("SHOW EXECUTION METRICS").fetchall())

        before = snapshot()
        run_in_transaction(conn, GRID_RANGES["distinct"], (1, 48))
        after = snapshot()
        assert after["pipeline_batches"] == before["pipeline_batches"] + len(GRID_SOURCES)
        assert after["pipelined_statements"] == (
            before["pipelined_statements"] + len(GRID_SOURCES) * GRID_TABLES)


# ---------------------------------------------------------------------------
# Work-stealing fan-out
# ---------------------------------------------------------------------------


SHARDS = 24


@pytest.fixture
def skewed_fleet():
    """One source holding every shard: all fan-out tasks seed onto one
    worker deque (source affinity), so idle workers must steal."""
    ds = DataSource("ds0", pool_size=SHARDS + 4)
    for i in range(SHARDS):
        ds.execute(f"CREATE TABLE t_big_{i} (id INT PRIMARY KEY, v INT)")
        ds.execute(f"INSERT INTO t_big_{i} (id, v) VALUES ({i}, {i * 10})")
    rule = build_auto_table_rule(
        "t_big", ["ds0"], sharding_column="id", algorithm_type="MOD",
        properties={"sharding-count": SHARDS},
    )
    return {"ds0": ds}, ShardingRule([rule], default_data_source="ds0")


def broadcast_units(rule, sql):
    from repro.engine import build_context, rewrite, route

    context = build_context(parse(sql), sql, (), rule)
    return rewrite(context, route(context, rule)).execution_units


class TestWorkStealing:
    def test_skewed_route_steals_and_completes(self, skewed_fleet):
        sources, rule = skewed_fleet
        engine = ExecutionEngine(sources, max_connections_per_query=SHARDS)
        units = broadcast_units(rule, "SELECT * FROM t_big")
        assert len(units) == SHARDS
        result = engine.execute(units, is_query=True)
        rows = sorted(row for shard in result.results for row in shard)
        assert rows == [(i, i * 10) for i in range(SHARDS)]
        snap = engine.metrics.snapshot()
        assert snap["queued_tasks"] == SHARDS
        assert snap["steals"] > 0
        assert snap["stolen_tasks"] > 0
        result.release()
        engine.close()

    def test_row_results_preserve_unit_order(self, skewed_fleet):
        """Connection-strictly fan-out (θ > 1) under stealing still
        reports every shard exactly once."""
        sources, rule = skewed_fleet
        engine = ExecutionEngine(sources, max_connections_per_query=4)
        units = broadcast_units(rule, "SELECT * FROM t_big")
        result = engine.execute(units, is_query=True)
        rows = sorted(row for shard in result.results for row in shard)
        assert rows == [(i, i * 10) for i in range(SHARDS)]
        engine.close()


class TestCloseSemantics:
    def test_close_is_idempotent(self, skewed_fleet):
        sources, _rule = skewed_fleet
        engine = ExecutionEngine(sources)
        engine.close()
        engine.close()  # second close is a no-op, not an error

    def test_execute_rejected_after_close(self, skewed_fleet):
        sources, rule = skewed_fleet
        engine = ExecutionEngine(sources, max_connections_per_query=SHARDS)
        units = broadcast_units(rule, "SELECT * FROM t_big")
        engine.close()
        with pytest.raises(ExecutionError, match="closed"):
            engine.execute(units, is_query=True)
        with pytest.raises(ExecutionError, match="closed"):
            engine.execute_pipeline("ds0", [(parse("SELECT 1"), (), True)])

    def test_acquire_batch_capped_by_statement_deadline(self, skewed_fleet):
        """An exhausted pool fails a deadlined statement promptly with
        DeadlineExceededError, not after the 10 s acquire default."""
        sources, rule = skewed_fleet
        ds = DataSource("tiny", pool_size=1)
        ds.execute("CREATE TABLE t_big_0 (id INT PRIMARY KEY, v INT)")
        engine = ExecutionEngine(
            {"ds0": ds},
            resilience=ResiliencePolicy(statement_timeout=0.2, max_retries=0),
        )
        hog = ds.pool.acquire()  # exhaust the pool
        units = broadcast_units(
            ShardingRule([build_auto_table_rule(
                "t_big", ["ds0"], sharding_column="id", algorithm_type="MOD",
                properties={"sharding-count": 1},
            )], default_data_source="ds0"),
            "SELECT * FROM t_big",
        )
        start = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            engine.execute(units, is_query=True)
        assert time.monotonic() - start < 5.0
        ds.pool.release(hog)
        engine.close()
