"""The four benchmark workloads: data, systems, operations and oracles.

Every workload is built through the public ``SystemUnderTest``/``Session``
API with the ``BENCH_LATENCY`` profile. The sbtest rows are generated here
from the run's seed, and every correctness check compares what the system
returned with that generator in plain Python: no check calls into
``repro``. TPC-C is the one exception on the *driving* side: its data and
transactions come from ``repro.bench.tpcc`` at its default scale, and its
consistency conditions are checked afterwards with this module's own SQL
and arithmetic.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable

from repro.baselines import BENCH_LATENCY, ShardingJDBCSystem, ShardingProxySystem
from repro.bench.tpcc import (
    TPCC_BROADCAST_TABLES,
    TPCC_SHARDED_TABLES,
    TPCCConfig,
    TPCCWorkload,
)
from repro.transaction import TransactionType

SBTEST_ROWS = 20_000
SOURCES = 4
TABLES_PER_SOURCE = 10
LOAD_BATCH = 500
RANGE_SIZE = 20
ZIPF_EXPONENT = 1.2
HOT_MIX_WRITE_SHARE = 0.10

CREATE_SBTEST = (
    "CREATE TABLE sbtest (id INT NOT NULL, k INT NOT NULL DEFAULT 0, "
    "c CHAR(120) NOT NULL DEFAULT '', pad CHAR(60) NOT NULL DEFAULT '', "
    "PRIMARY KEY (id))"
)
POINT_SQL = "SELECT c FROM sbtest WHERE id = ?"
SIMPLE_RANGE_SQL = "SELECT c FROM sbtest WHERE id BETWEEN ? AND ?"
SUM_RANGE_SQL = "SELECT SUM(k) FROM sbtest WHERE id BETWEEN ? AND ?"
ORDER_RANGE_SQL = "SELECT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c"
DISTINCT_RANGE_SQL = "SELECT DISTINCT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c"
HOT_READ_SQL = "SELECT c, k FROM sbtest WHERE id = ?"
HOT_WRITE_SQL = "UPDATE sbtest SET k = k + 1 WHERE id = ?"

TPCC_WRITE_TRANSACTIONS = frozenset({"new_order", "payment", "delivery"})


class CheckFailed(Exception):
    """An operation returned something other than the oracle's answer."""


@dataclass
class SbtestData:
    """The seeded sbtest rows, kept as the oracle's copy."""

    k: list[int]
    c: list[str]
    pad: list[str]

    @classmethod
    def generate(cls, seed: int, rows: int = SBTEST_ROWS) -> "SbtestData":
        rng = random.Random(seed)
        # index 0 is unused so that ids index the lists directly
        k = [0] + [rng.randint(1, rows) for _ in range(rows)]
        c = [""] + [f"{rng.getrandbits(476):0119x}" for _ in range(rows)]
        pad = [""] + [f"{rng.getrandbits(236):059x}" for _ in range(rows)]
        return cls(k, c, pad)

    @property
    def rows(self) -> int:
        return len(self.k) - 1

    def load(self, session: Any) -> None:
        """Create sbtest and insert every row through ``session``."""
        session.execute(CREATE_SBTEST)
        placeholders = ", ".join(["(?, ?, ?, ?)"] * LOAD_BATCH)
        full_batch_sql = "INSERT INTO sbtest (id, k, c, pad) VALUES " + placeholders
        for start in range(1, self.rows + 1, LOAD_BATCH):
            ids = range(start, min(start + LOAD_BATCH, self.rows + 1))
            sql = full_batch_sql if len(ids) == LOAD_BATCH else (
                "INSERT INTO sbtest (id, k, c, pad) VALUES "
                + ", ".join(["(?, ?, ?, ?)"] * len(ids)))
            params = []
            for row_id in ids:
                params += (row_id, self.k[row_id], self.c[row_id], self.pad[row_id])
            session.execute(sql, params)


class ZipfIds:
    """Zipfian ids over 1..n: P(id = i) ~ 1 / i**s."""

    def __init__(self, n: int, exponent: float):
        total = 0.0
        cdf = []
        for i in range(1, n + 1):
            total += 1.0 / i ** exponent
            cdf.append(total)
        self._cdf = cdf
        self._total = total

    def draw(self, rng: random.Random) -> int:
        return bisect_left(self._cdf, rng.random() * self._total) + 1


# ---------------------------------------------------------------------------
# Oracle checks (plain Python over the generator's rows)
# ---------------------------------------------------------------------------


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_point(data: SbtestData, row_id: int, rows: list) -> None:
    _expect(len(rows) == 1 and rows[0][0] == data.c[row_id],
            f"point select id={row_id} returned {rows!r:.80}")


def check_simple_range(data: SbtestData, low: int, high: int, rows: list) -> None:
    got = sorted(row[0] for row in rows)
    _expect(got == sorted(data.c[low:high + 1]),
            f"range {low}..{high} returned {len(rows)} rows")


def check_sum_range(data: SbtestData, low: int, high: int, rows: list) -> None:
    _expect(len(rows) == 1 and rows[0][0] == sum(data.k[low:high + 1]),
            f"SUM(k) over {low}..{high} returned {rows!r}")


def check_order_range(data: SbtestData, low: int, high: int, rows: list) -> None:
    _expect([row[0] for row in rows] == sorted(data.c[low:high + 1]),
            f"ORDER BY c over {low}..{high} is wrong")


def check_distinct_range(data: SbtestData, low: int, high: int, rows: list) -> None:
    _expect([row[0] for row in rows] == sorted(set(data.c[low:high + 1])),
            f"DISTINCT c over {low}..{high} is wrong")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


#: one operation: (session, rng) -> True when the operation wrote
Operation = Callable[[Any, random.Random], bool]


class Workload:
    """Base: builds a loaded system and makes per-session operations."""

    name = ""
    #: client sessions in the closed loop
    sessions = 2
    #: operations a count run issues before counting, and then counts
    count_warmup = 200
    count_ops = 1000

    def __init__(self, seed: int):
        self.seed = seed

    def build(self) -> Any:
        """A fresh system with the workload's data loaded."""
        raise NotImplementedError

    def operation(self, system: Any, session_index: int) -> Operation:
        """The operation a session runs in its closed loop."""
        raise NotImplementedError

    def verify(self, system: Any) -> list[str]:
        """Post-run consistency violations (empty when consistent)."""
        return []

    def features(self) -> dict[str, Any]:
        raise NotImplementedError


class _SbtestWorkload(Workload):
    layout = "range"
    result_cache = False
    system_class: type = ShardingJDBCSystem

    def __init__(self, seed: int):
        super().__init__(seed)
        self.data = SbtestData.generate(seed)

    def build(self) -> Any:
        grid: dict[str, Any] = dict(
            num_sources=SOURCES, tables_per_source=TABLES_PER_SOURCE,
            layout=self.layout, latency=BENCH_LATENCY,
            result_cache=self.result_cache,
        )
        if self.layout == "range":
            grid["key_space"] = SBTEST_ROWS + 1
        system = self.system_class([("sbtest", "id")], **grid)
        try:
            session = system.session()
            try:
                self.data.load(session)
            finally:
                session.close()
        except BaseException:
            system.close()
            raise
        return system

    def features(self) -> dict[str, Any]:
        return {
            "system": self.system_class.__name__,
            "layout": self.layout,
            "rows": SBTEST_ROWS,
            "sources": SOURCES,
            "tables_per_source": TABLES_PER_SOURCE,
            "plan_cache": True,
            "result_cache": self.result_cache,
            "transaction_type": "LOCAL",
        }


class PointSelect(_SbtestWorkload):
    """sysbench oltp_point_select through SSJ, uniform ids, range layout.

    One session: with two, every operation hands the GIL across CPUs, and
    on a 2-CPU VM that handoff makes run-to-run figures swing 4x as much.
    """

    name = "point_select"
    sessions = 1

    def operation(self, system: Any, session_index: int) -> Operation:
        data = self.data
        rows = data.rows

        def op(session: Any, rng: random.Random) -> bool:
            row_id = rng.randint(1, rows)
            check_point(data, row_id, session.execute(POINT_SQL, (row_id,)))
            return False

        return op


class Scatter(_SbtestWorkload):
    """sysbench oltp_read_only through SSJ on the hash layout."""

    name = "scatter"
    layout = "hash"
    count_warmup = 3
    count_ops = 15

    def operation(self, system: Any, session_index: int) -> Operation:
        data = self.data
        rows = data.rows
        ranges = (
            (SIMPLE_RANGE_SQL, check_simple_range),
            (SUM_RANGE_SQL, check_sum_range),
            (ORDER_RANGE_SQL, check_order_range),
            (DISTINCT_RANGE_SQL, check_distinct_range),
        )

        def op(session: Any, rng: random.Random) -> bool:
            session.begin()
            try:
                for _ in range(10):
                    row_id = rng.randint(1, rows)
                    check_point(data, row_id, session.execute(POINT_SQL, (row_id,)))
                for sql, check in ranges:
                    low = rng.randint(1, rows - RANGE_SIZE)
                    high = low + RANGE_SIZE - 1
                    check(data, low, high, session.execute(sql, (low, high)))
            except BaseException:
                session.rollback()
                raise
            session.commit()
            return False

        return op


class HotMix(_SbtestWorkload):
    """Autocommit 90/10 read/update mix on zipfian ids through SSP."""

    name = "hot_mix"
    result_cache = True
    system_class = ShardingProxySystem

    def __init__(self, seed: int):
        super().__init__(seed)
        self.zipf = ZipfIds(SBTEST_ROWS, ZIPF_EXPONENT)

    def operation(self, system: Any, session_index: int) -> Operation:
        data = self.data
        draw = self.zipf.draw
        seen_k: dict[int, int] = {}

        def op(session: Any, rng: random.Random) -> bool:
            row_id = draw(rng)
            if rng.random() < HOT_MIX_WRITE_SHARE:
                count = session.execute(HOT_WRITE_SQL, (row_id,))
                _expect(count == 1, f"update id={row_id} touched {count!r} rows")
                return True
            rows = session.execute(HOT_READ_SQL, (row_id,))
            _expect(len(rows) == 1 and rows[0][0] == data.c[row_id],
                    f"hot read id={row_id} returned {rows!r:.80}")
            k = rows[0][1]
            _expect(k >= seen_k.get(row_id, data.k[row_id]),
                    f"k of id={row_id} went down to {k}")
            seen_k[row_id] = k
            return False

        return op

    def features(self) -> dict[str, Any]:
        return dict(super().features(), key_distribution="zipfian",
                    zipf_exponent=ZIPF_EXPONENT, write_share=HOT_MIX_WRITE_SHARE)


class Tpcc(Workload):
    """The TPC-C standard mix through SSJ, pipelined LOCAL transactions."""

    name = "tpcc"
    pipeline = True
    count_warmup = 20
    count_ops = 100

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = TPCCConfig(seed=seed, use_pipeline=self.pipeline)

    def build(self) -> Any:
        system = ShardingJDBCSystem(
            TPCC_SHARDED_TABLES, broadcast_tables=TPCC_BROADCAST_TABLES,
            num_sources=SOURCES, tables_per_source=TABLES_PER_SOURCE,
            latency=BENCH_LATENCY, transaction_type=TransactionType.LOCAL,
        )
        try:
            TPCCWorkload(self.config).prepare(system)
        except BaseException:
            system.close()
            raise
        return system

    def operation(self, system: Any, session_index: int) -> Operation:
        workload = TPCCWorkload(self.config)

        def op(session: Any, rng: random.Random) -> bool:
            name = workload.pick_transaction(rng)
            workload.run_transaction(name, session, rng)
            return name in TPCC_WRITE_TRANSACTIONS

        return op

    def verify(self, system: Any) -> list[str]:
        """TPC-C consistency conditions 1-3 (clause 3.3.2), per district."""
        session = system.session()
        query = session.execute
        try:
            violations = []
            w_ytd = {w: ytd for w, ytd in query(
                "SELECT w_id, w_ytd FROM bmsql_warehouse")}
            d_ytd: dict[int, float] = {}
            next_o_id = {}
            for w, d, ytd, nxt in query(
                    "SELECT d_w_id, d_id, d_ytd, d_next_o_id FROM bmsql_district"):
                d_ytd[w] = d_ytd.get(w, 0.0) + ytd
                next_o_id[(w, d)] = nxt
            for w, ytd in w_ytd.items():
                if abs(ytd - d_ytd.get(w, 0.0)) > 1e-6 * max(1.0, abs(ytd)):
                    violations.append(f"W_YTD {ytd} != sum(D_YTD) {d_ytd.get(w)} (w={w})")
            max_o_id: dict[tuple, int] = {}
            ol_cnt: dict[tuple, int] = {}
            for w, d, o_id, cnt in query(
                    "SELECT o_w_id, o_d_id, o_id, o_ol_cnt FROM bmsql_oorder"):
                key = (w, d)
                max_o_id[key] = max(max_o_id.get(key, 0), o_id)
                ol_cnt[key] = ol_cnt.get(key, 0) + cnt
            lines: dict[tuple, int] = {}
            for w, d in query("SELECT ol_w_id, ol_d_id FROM bmsql_order_line"):
                lines[(w, d)] = lines.get((w, d), 0) + 1
            for key, nxt in next_o_id.items():
                if nxt - 1 < max_o_id.get(key, 0):
                    violations.append(
                        f"D_NEXT_O_ID-1 {nxt - 1} < max(O_ID) {max_o_id[key]} (w,d={key})")
                if ol_cnt.get(key, 0) != lines.get(key, 0):
                    violations.append(
                        f"sum(O_OL_CNT) {ol_cnt.get(key, 0)} != order lines "
                        f"{lines.get(key, 0)} (w,d={key})")
            return violations
        finally:
            session.close()

    def features(self) -> dict[str, Any]:
        cfg = self.config
        return {
            "system": "ShardingJDBCSystem",
            "warehouses": cfg.warehouses,
            "districts": cfg.districts,
            "sources": SOURCES,
            "tables_per_source": TABLES_PER_SOURCE,
            "plan_cache": True,
            "result_cache": False,
            "pipeline": cfg.use_pipeline,
            "transaction_type": "LOCAL",
        }


class TpccSerial(Tpcc):
    """The same TPC-C mix with every statement sent on its own."""

    name = "tpcc_serial"
    pipeline = False


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PointSelect, Scatter, Tpcc, TpccSerial, HotMix)
}
