"""Query executor: runs statement ASTs against a database's tables.

Supports the SQL subset the sharding pipeline emits: single-table and
joined SELECT with WHERE / GROUP BY / HAVING / ORDER BY / LIMIT, aggregate
functions, multi-row INSERT, UPDATE, DELETE, DDL and TRUNCATE. Point and
range predicates use hash/sorted indexes when available; other predicates
fall back to scans. Iteration-style SELECTs stream rows lazily so client
cursors behave like real database cursors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from ..exceptions import ExecutionError, StorageError, UnsupportedSQLError
from ..sql import ast
from ..sql.formatter import format_expression
from .expression import UNKNOWN, OrderToken, evaluate, is_truthy, sort_key
from .table import Table

if TYPE_CHECKING:
    from .database import Database
    from .transaction import Transaction


@dataclass
class QueryResult:
    """Execution outcome: column metadata + streaming rows or a rowcount.

    ``cost`` is the priced simulated-I/O latency in seconds; the connection
    pays it (sleeps) after releasing the database lock.
    """

    columns: list[str] = field(default_factory=list)
    #: lazy iterator by default; pipelined batches materialize a list
    rows: Iterable[tuple[Any, ...]] = iter(())
    rowcount: int = -1
    cost: float = 0.0
    #: the table whose write I/O this statement must serialize on (DML only)
    written_table: "Table | None" = None
    #: the write-I/O slice of ``cost`` — the portion a statement pipeline may
    #: coalesce into one payment per written table (group-commit analog)
    write_cost: float = 0.0
    #: storage-plan status set by the connection ("hit", "miss", ...)
    plan: str = ""

    def fetch_all(self) -> list[tuple[Any, ...]]:
        return list(self.rows)


def execute_statement(
    database: "Database",
    stmt: ast.Statement,
    params: Sequence[Any] = (),
    transaction: "Transaction | None" = None,
) -> QueryResult:
    """Execute one statement; DML requires a transaction for undo logging."""
    if isinstance(stmt, ast.SelectStatement):
        return _execute_select(database, stmt, params)
    if isinstance(stmt, ast.InsertStatement):
        return _execute_insert(database, stmt, params, transaction)
    if isinstance(stmt, ast.UpdateStatement):
        return _execute_update(database, stmt, params, transaction)
    if isinstance(stmt, ast.DeleteStatement):
        return _execute_delete(database, stmt, params, transaction)
    if isinstance(stmt, ast.CreateTableStatement):
        database.create_table_from_ast(stmt)
        return QueryResult(rowcount=0)
    if isinstance(stmt, ast.DropTableStatement):
        database.drop_table(stmt.table.name, if_exists=stmt.if_exists)
        return QueryResult(rowcount=0)
    if isinstance(stmt, ast.CreateIndexStatement):
        table = database.table(stmt.table.name)
        table.create_index(stmt.index_name, stmt.columns, unique=stmt.unique)
        database.bump_schema_version(stmt.table.name)
        if database.replication is not None:
            database.replication.publish([
                ("create_index", table.name, stmt.index_name,
                 tuple(stmt.columns), stmt.unique),
            ])
        return QueryResult(rowcount=0)
    if isinstance(stmt, ast.TruncateStatement):
        table = database.table(stmt.table.name)
        count = table.truncate()
        database.bump_schema_version(stmt.table.name)
        if database.replication is not None:
            database.replication.publish([("truncate", table.name)])
        return QueryResult(rowcount=count)
    raise UnsupportedSQLError(f"storage engine cannot execute {type(stmt).__name__}")


# ---------------------------------------------------------------------------
# SELECT
# ---------------------------------------------------------------------------


def _execute_select(database: "Database", stmt: ast.SelectStatement, params: Sequence[Any]) -> QueryResult:
    if stmt.from_table is None:
        # SELECT of pure expressions, e.g. SELECT 1.
        row = tuple(evaluate(item.expression, {}, params) for item in stmt.select_items)
        columns = [item.output_name for item in stmt.select_items]
        return QueryResult(columns=columns, rows=iter([row]))

    source, examined, used_index, base_rows = _build_row_source(database, stmt, params)
    cost = database.latency.statement_cost(base_rows, examined, used_index)

    aggregates = stmt.aggregates()
    if stmt.group_by or aggregates:
        rows = _aggregate_rows(stmt, source, params)
    else:
        rows = source
        if stmt.having is not None:
            having = stmt.having
            rows = (r for r in rows if is_truthy(evaluate(having, r, params)))

    if stmt.order_by:
        # Single composite-key sort (one pass) instead of one stable sort
        # per key in reverse; OrderToken folds per-key DESC into the key.
        materialized = list(rows)
        specs = [(item.expression, item.desc) for item in stmt.order_by]
        if len(specs) == 1:
            expr, desc = specs[0]
            materialized.sort(
                key=lambda r: sort_key(_order_value(expr, r, stmt, params)),
                reverse=desc,
            )
        elif not any(desc for _, desc in specs):
            materialized.sort(
                key=lambda r: tuple(
                    sort_key(_order_value(e, r, stmt, params)) for e, _ in specs
                )
            )
        else:
            materialized.sort(
                key=lambda r: tuple(
                    OrderToken(_order_value(e, r, stmt, params), d) for e, d in specs
                )
            )
        rows = iter(materialized)

    if stmt.distinct:
        rows = _distinct(stmt, rows, params)

    if stmt.limit is not None:
        rows = _apply_limit(stmt.limit, rows, params)

    columns, projector = _build_projection(stmt, database, params)
    return QueryResult(columns=columns, rows=(projector(r) for r in rows), cost=cost)


def _order_value(expr: ast.Expression, row: dict[str, Any], stmt: ast.SelectStatement, params: Sequence[Any]) -> Any:
    """Resolve an ORDER BY expression, honoring select-list aliases."""
    if isinstance(expr, ast.ColumnRef) and expr.table is None:
        for item in stmt.select_items:
            if item.alias and item.alias.lower() == expr.name.lower():
                value = evaluate(item.expression, row, params)
                return None if value is UNKNOWN else value
    value = evaluate(expr, row, params)
    return None if value is UNKNOWN else value


def _distinct(stmt: ast.SelectStatement, rows: Iterator[dict[str, Any]], params: Sequence[Any]) -> Iterator[dict[str, Any]]:
    seen: set[tuple] = set()
    for row in rows:
        key = tuple(
            _freeze(evaluate(item.expression, row, params)) if not isinstance(item.expression, ast.Star)
            else _freeze(tuple(sorted(row.items())))
            for item in stmt.select_items
        )
        if key not in seen:
            seen.add(key)
            yield row


def _freeze(value: Any) -> Any:
    if isinstance(value, (list, dict, set)):
        return str(value)
    return value


def _apply_limit(limit: ast.Limit, rows: Iterator[dict[str, Any]], params: Sequence[Any]) -> Iterator[dict[str, Any]]:
    offset = int(evaluate(limit.offset, {}, params)) if limit.offset is not None else 0
    count = int(evaluate(limit.count, {}, params)) if limit.count is not None else None
    emitted = 0
    for i, row in enumerate(rows):
        if i < offset:
            continue
        if count is not None and emitted >= count:
            return
        emitted += 1
        yield row


# -- FROM / JOIN row source --------------------------------------------------


def _build_row_source(
    database: "Database", stmt: ast.SelectStatement, params: Sequence[Any]
) -> tuple[Iterator[dict[str, Any]], int, bool, int]:
    """Produce the filtered row stream plus latency accounting numbers.

    Returns (rows, rows_examined, used_index, base_table_rows).
    """
    base_ref = stmt.from_table
    base_table = database.table(base_ref.name)

    if not stmt.joins:
        row_ids, used_index = _select_row_ids(base_table, base_ref.exposed_name, stmt.where, params)
        examined = len(row_ids) if used_index else base_table.row_count
        where = stmt.where

        def generate() -> Iterator[dict[str, Any]]:
            for row_id in row_ids:
                try:
                    raw = base_table.get(row_id)
                except KeyError:
                    continue
                row = _namespaced(raw, base_ref.exposed_name)
                if where is None or is_truthy(evaluate(where, row, params)):
                    yield row

        return generate(), examined, used_index, base_table.row_count

    # Joined query: start from the base table (index-filtered when possible),
    # then fold each join in sequence using hash joins for equality conditions.
    row_ids, used_index = _select_row_ids(base_table, base_ref.exposed_name, stmt.where, params)
    rows: Iterator[dict[str, Any]] = (
        _namespaced(base_table.get(rid), base_ref.exposed_name) for rid in row_ids
    )
    examined = len(row_ids) if used_index else base_table.row_count
    for join in stmt.joins:
        rows = _apply_join(database, rows, join, params)
        examined += database.table(join.table.name).row_count
    where = stmt.where
    if where is not None:
        rows = (r for r in rows if is_truthy(evaluate(where, r, params)))
    return rows, examined, used_index, base_table.row_count


def _namespaced(raw: dict[str, Any], exposed: str) -> dict[str, Any]:
    row = dict(raw)
    for key, value in raw.items():
        row[f"{exposed}.{key}"] = value
    return row


def _merge_ns(left: dict[str, Any], raw: dict[str, Any], exposed: str) -> dict[str, Any]:
    row = dict(left)
    for key, value in raw.items():
        row.setdefault(key, value)
        row[f"{exposed}.{key}"] = value
    return row


def _apply_join(
    database: "Database", rows: Iterator[dict[str, Any]], join: ast.Join, params: Sequence[Any]
) -> Iterator[dict[str, Any]]:
    if join.kind == "RIGHT":
        raise UnsupportedSQLError(
            "RIGHT JOIN is not supported; rewrite as a LEFT JOIN with the "
            "operands swapped"
        )
    right_table = database.table(join.table.name)
    right_name = join.table.exposed_name
    right_rows = [row for _, row in right_table.scan()]

    eq = _equi_join_columns(join.condition, right_name) if join.condition else None
    if eq is not None:
        left_expr, right_col = eq
        buckets: dict[Any, list[dict[str, Any]]] = {}
        for raw in right_rows:
            buckets.setdefault(_freeze(raw.get(right_col)), []).append(raw)

        def hash_join() -> Iterator[dict[str, Any]]:
            for left in rows:
                try:
                    key = _freeze(evaluate(left_expr, left, params))
                except StorageError:
                    key = None
                matched = buckets.get(key, ()) if key is not None else ()
                emitted = False
                for raw in matched:
                    combined = _merge_ns(left, raw, right_name)
                    if join.condition is None or is_truthy(evaluate(join.condition, combined, params)):
                        emitted = True
                        yield combined
                if not emitted and join.kind == "LEFT":
                    yield _merge_ns(left, {c: None for c in right_table.schema.column_names}, right_name)

        return hash_join()

    def nested_loop() -> Iterator[dict[str, Any]]:
        for left in rows:
            emitted = False
            for raw in right_rows:
                combined = _merge_ns(left, raw, right_name)
                if join.condition is None or is_truthy(evaluate(join.condition, combined, params)):
                    emitted = True
                    yield combined
            if not emitted and join.kind == "LEFT":
                yield _merge_ns(left, {c: None for c in right_table.schema.column_names}, right_name)

    return nested_loop()


def _equi_join_columns(condition: ast.Expression, right_name: str) -> tuple[ast.Expression, str] | None:
    """If the join condition is `left_expr = right.col`, return the pair."""
    if not (isinstance(condition, ast.BinaryOp) and condition.op == "="):
        return None
    left, right = condition.left, condition.right
    for a, b in ((left, right), (right, left)):
        if isinstance(b, ast.ColumnRef) and b.table and b.table.lower() == right_name.lower():
            if isinstance(a, ast.ColumnRef) and a.table and a.table.lower() == right_name.lower():
                continue
            return a, b.name
    return None


# -- predicate-driven index selection ----------------------------------------


def _select_row_ids(
    table: Table, exposed_name: str, where: ast.Expression | None, params: Sequence[Any]
) -> tuple[list[int], bool]:
    """Choose row ids via an index when the WHERE allows it.

    Handles top-level conjunctions: `col = v`, `col IN (...)`,
    `col BETWEEN a AND b` and half-open comparisons on indexed columns,
    plus composite-key lookups when the conjunction pins every column of
    a multi-column hash index (e.g. TPC-C's (w_id, d_id, o_id) keys).
    Returns (row_ids, used_index).
    """
    if where is not None:
        predicates = list(_conjuncts(where))
        equalities: dict[str, Any] = {}
        for predicate in predicates:
            if isinstance(predicate, ast.BinaryOp) and predicate.op == "=":
                for col_expr, val_expr in (
                    (predicate.left, predicate.right),
                    (predicate.right, predicate.left),
                ):
                    column = _local_column(col_expr, table, exposed_name)
                    if column is None:
                        continue
                    ok, value = _const(val_expr, params)
                    if ok:
                        equalities[column.lower()] = value
                    break
        if len(equalities) >= 2:
            ids = table.find_by_equalities(equalities)
            if ids is not None:
                return ids, True
        for predicate in predicates:
            ids = _try_index(table, exposed_name, predicate, params)
            if ids is not None:
                return ids, True
    return [rid for rid, _ in table.scan()], False


def _conjuncts(expr: ast.Expression) -> Iterator[ast.Expression]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _local_column(expr: ast.Expression, table: Table, exposed_name: str) -> str | None:
    if not isinstance(expr, ast.ColumnRef):
        return None
    if expr.table is not None and expr.table.lower() != exposed_name.lower():
        return None
    if not table.schema.has_column(expr.name):
        return None
    return table.schema.column(expr.name).name


def _const(expr: ast.Expression, params: Sequence[Any]) -> tuple[bool, Any]:
    if isinstance(expr, ast.Literal):
        return True, expr.value
    if isinstance(expr, ast.Placeholder):
        try:
            return True, params[expr.index]
        except IndexError:
            return False, None
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        ok, value = _const(expr.operand, params)
        if ok and isinstance(value, (int, float)):
            return True, -value
    return False, None


def _try_index(table: Table, exposed_name: str, predicate: ast.Expression, params: Sequence[Any]) -> list[int] | None:
    if isinstance(predicate, ast.BinaryOp) and predicate.op in ("=", "<", ">", "<=", ">="):
        column = _local_column(predicate.left, table, exposed_name)
        value_expr = predicate.right
        op = predicate.op
        if column is None:
            column = _local_column(predicate.right, table, exposed_name)
            value_expr = predicate.left
            op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
        if column is None:
            return None
        ok, value = _const(value_expr, params)
        if not ok:
            return None
        if op == "=":
            return table.find_equal(column, value)
        bounds = {
            "<": (None, value, True, False),
            "<=": (None, value, True, True),
            ">": (value, None, False, True),
            ">=": (value, None, True, True),
        }[op]
        return table.find_range(column, *bounds)
    if isinstance(predicate, ast.InExpr) and not predicate.negated:
        column = _local_column(predicate.operand, table, exposed_name)
        if column is None or column.lower() not in table.indexed_columns():
            return None
        ids: list[int] = []
        for item in predicate.items:
            ok, value = _const(item, params)
            if not ok:
                return None
            found = table.find_equal(column, value)
            if found:
                ids.extend(found)
        return sorted(set(ids))
    if isinstance(predicate, ast.BetweenExpr) and not predicate.negated:
        column = _local_column(predicate.operand, table, exposed_name)
        if column is None:
            return None
        ok_low, low = _const(predicate.low, params)
        ok_high, high = _const(predicate.high, params)
        if not (ok_low and ok_high):
            return None
        return table.find_range(column, low, high)
    return None


# -- grouping and aggregation -------------------------------------------------


def _aggregate_rows(
    stmt: ast.SelectStatement, source: Iterator[dict[str, Any]], params: Sequence[Any]
) -> Iterator[dict[str, Any]]:
    aggregates = _collect_aggregates(stmt)
    group_exprs = stmt.group_by
    groups: dict[tuple, _GroupState] = {}
    order: list[tuple] = []
    for row in source:
        key = tuple(_freeze(evaluate(e, row, params)) for e in group_exprs) if group_exprs else ()
        state = groups.get(key)
        if state is None:
            state = _GroupState(row, [_AggState(call) for call in aggregates])
            groups[key] = state
            order.append(key)
        for agg in state.aggs:
            agg.accumulate(row, params)

    if not groups and not group_exprs:
        # Aggregates over an empty input still yield one row (COUNT -> 0).
        state = _GroupState({}, [_AggState(call) for call in aggregates])
        groups[()] = state
        order.append(())

    having = stmt.having
    for key in order:
        state = groups[key]
        out = dict(state.sample_row)
        for agg in state.aggs:
            out[format_expression(agg.call)] = agg.result()
        if having is None or is_truthy(evaluate(having, out, params)):
            yield out


def _collect_aggregates(stmt: ast.SelectStatement) -> list[ast.FunctionCall]:
    seen: dict[str, ast.FunctionCall] = {}
    scopes: list[ast.Expression] = [item.expression for item in stmt.select_items]
    if stmt.having is not None:
        scopes.append(stmt.having)
    for item in stmt.order_by:
        scopes.append(item.expression)
    for scope in scopes:
        for node in scope.walk():
            if isinstance(node, ast.FunctionCall) and node.is_aggregate:
                seen.setdefault(format_expression(node), node)
    return list(seen.values())


class _GroupState:
    __slots__ = ("sample_row", "aggs")

    def __init__(self, sample_row: dict[str, Any], aggs: list["_AggState"]):
        self.sample_row = sample_row
        self.aggs = aggs


class _AggState:
    """Incremental state for one aggregate call."""

    __slots__ = ("call", "count", "total", "minimum", "maximum", "distinct_values")

    def __init__(self, call: ast.FunctionCall):
        self.call = call
        self.count = 0
        self.total: Any = None
        self.minimum: Any = None
        self.maximum: Any = None
        self.distinct_values: set | None = set() if call.distinct else None

    def accumulate(self, row: dict[str, Any], params: Sequence[Any]) -> None:
        name = self.call.name.upper()
        if name == "COUNT" and self.call.args and isinstance(self.call.args[0], ast.Star):
            self.count += 1
            return
        value = evaluate(self.call.args[0], row, params) if self.call.args else None
        if value is None or value is UNKNOWN:
            return
        if self.distinct_values is not None:
            frozen = _freeze(value)
            if frozen in self.distinct_values:
                return
            self.distinct_values.add(frozen)
        self.count += 1
        if name in ("SUM", "AVG"):
            self.total = value if self.total is None else self.total + value
        if name == "MIN":
            self.minimum = value if self.minimum is None else min(self.minimum, value, key=sort_key)
        if name == "MAX":
            self.maximum = value if self.maximum is None else max(self.maximum, value, key=sort_key)

    def result(self) -> Any:
        name = self.call.name.upper()
        if name == "COUNT":
            return self.count
        if name == "SUM":
            return self.total
        if name == "AVG":
            return None if self.count == 0 or self.total is None else self.total / self.count
        if name == "MIN":
            return self.minimum
        if name == "MAX":
            return self.maximum
        raise ExecutionError(f"unknown aggregate {name}")


# -- projection ----------------------------------------------------------------


def _build_projection(
    stmt: ast.SelectStatement, database: "Database", params: Sequence[Any]
) -> tuple[list[str], Callable[[dict[str, Any]], tuple]]:
    """Column names + a function mapping a namespace row to output values."""
    columns: list[str] = []
    getters: list[Callable[[dict[str, Any]], Any]] = []
    for item in stmt.select_items:
        expr = item.expression
        if isinstance(expr, ast.Star):
            for ref in stmt.tables():
                if expr.table and ref.exposed_name.lower() != expr.table.lower():
                    continue
                schema = database.table(ref.name).schema
                exposed = ref.exposed_name
                for col_name in schema.column_names:
                    columns.append(col_name)
                    getters.append(_make_star_getter(exposed, col_name))
            continue
        columns.append(item.output_name)
        getters.append(_make_expr_getter(expr, params))
    return columns, lambda row: tuple(g(row) for g in getters)


def _make_star_getter(exposed: str, col_name: str) -> Callable[[dict[str, Any]], Any]:
    qualified = f"{exposed}.{col_name}"

    def getter(row: dict[str, Any]) -> Any:
        if qualified in row:
            return row[qualified]
        return row.get(col_name)

    return getter


def _make_expr_getter(expr: ast.Expression, params: Sequence[Any]) -> Callable[[dict[str, Any]], Any]:
    def getter(row: dict[str, Any]) -> Any:
        value = evaluate(expr, row, params)
        return None if value is UNKNOWN else value

    return getter


# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------


def _require_txn(transaction: "Transaction | None") -> "Transaction":
    if transaction is None:
        raise ExecutionError("DML requires an active transaction context")
    return transaction


def _execute_insert(
    database: "Database", stmt: ast.InsertStatement, params: Sequence[Any], transaction: "Transaction | None"
) -> QueryResult:
    txn = _require_txn(transaction)
    table = database.table(stmt.table.name)
    columns = stmt.columns or table.schema.column_names
    inserted = 0
    for row_exprs in stmt.values_rows:
        if len(row_exprs) != len(columns):
            raise ExecutionError(
                f"INSERT column/value count mismatch: {len(columns)} vs {len(row_exprs)}"
            )
        values = {col: evaluate(expr, {}, params) for col, expr in zip(columns, row_exprs)}
        row_id, _ = table.insert(values)
        txn.record_insert(table, row_id)
        inserted += 1
    cost = database.latency.statement_cost(table.row_count, inserted, uses_index=True)
    io = database.latency.write_cost(table.row_count)
    return QueryResult(rowcount=inserted, cost=cost + io, written_table=table, write_cost=io)


def _execute_update(
    database: "Database", stmt: ast.UpdateStatement, params: Sequence[Any], transaction: "Transaction | None"
) -> QueryResult:
    txn = _require_txn(transaction)
    table = database.table(stmt.table.name)
    exposed = stmt.table.exposed_name
    row_ids, used_index = _select_row_ids(table, exposed, stmt.where, params)
    updated = 0
    for row_id in row_ids:
        try:
            raw = table.get(row_id)
        except KeyError:
            continue
        row = _namespaced(raw, exposed)
        if stmt.where is not None and not is_truthy(evaluate(stmt.where, row, params)):
            continue
        changes = {col: evaluate(expr, row, params) for col, expr in stmt.assignments}
        old_row = table.update(row_id, changes)
        txn.record_update(table, row_id, old_row)
        updated += 1
    examined = len(row_ids) if used_index else table.row_count
    cost = database.latency.statement_cost(table.row_count, examined + updated, used_index)
    io = database.latency.write_cost(table.row_count) if updated else 0.0
    return QueryResult(rowcount=updated, cost=cost + io, written_table=table, write_cost=io)


def _execute_delete(
    database: "Database", stmt: ast.DeleteStatement, params: Sequence[Any], transaction: "Transaction | None"
) -> QueryResult:
    txn = _require_txn(transaction)
    table = database.table(stmt.table.name)
    exposed = stmt.table.exposed_name
    row_ids, used_index = _select_row_ids(table, exposed, stmt.where, params)
    deleted = 0
    for row_id in row_ids:
        try:
            raw = table.get(row_id)
        except KeyError:
            continue
        row = _namespaced(raw, exposed)
        if stmt.where is not None and not is_truthy(evaluate(stmt.where, row, params)):
            continue
        old_row = table.delete(row_id)
        txn.record_delete(table, row_id, old_row)
        deleted += 1
    examined = len(row_ids) if used_index else table.row_count
    cost = database.latency.statement_cost(table.row_count, examined + deleted, used_index)
    io = database.latency.write_cost(table.row_count) if deleted else 0.0
    return QueryResult(rowcount=deleted, cost=cost + io, written_table=table, write_cost=io)
