"""Query execution, example containment, and one-edit repair.

A finished candidate is executed against the task database and its
result is compared with the user-supplied example tuples.  When the
candidate misses, close variants are tried: every query whose rendered
form differs in exactly one lexeme, where the changed lexeme is an
aggregation function, a connective, a comparison operator, or a column
reference.  A column reference is only swapped for a column of a table
the query names (in its FROM or an IN-subquery's FROM); any other table
fails the scope check and SQLite alike.  Constants are never touched.

Repair walks the one-edit neighbourhood once, in the order
``hamming_one_queries`` yields its unparsed edits: clauses in order,
positions left to right, alternatives in declaration order.  The
bodies it edits are read from the query's rendered text by
``clause_bodies``.  Each edit is judged in one of three ways: from the
widened rows, by candidate-row probes, which send the edited WHERE body
as it stands, or as a full statement.  Only a variant that executes is
rendered.

One scan answers an eligible query and every one of its SELECT-column
swaps: a query that selects plain columns, with no DISTINCT, grouping,
ordering or limit.  With repair on, such a query runs as its widened
statement, with every column of its FROM tables appended to the SELECT
list; the query's own rows and each swap's are projections of the
widened rows.  Dropping a column from such a query leaves its multiset
of rows unchanged, and its row order is unspecified anyway.

A swap to a FROM table's column is judged from the widened rows by its
widened column index, and only a hit is parsed as a query.  The static
checks' verdict on such a swap depends only on the SELECT item it edits
and the new column's declared type: the other six clause bodies and the
other lexemes do not change, and a FROM table's schema column passes
the vocabulary and scope checks wherever a plain column stands.  So the
checks run once per item and type, on the first swap of each.

The WHERE variants of an eligible query that reads one table are judged
on the example's candidate rows.  Such a variant's rows contain an
example exactly when some table row passes its WHERE and projects to
the example.  ``<item> IS ?``, with the example's value bound, holds for
every stored value that Python's ``==`` makes equal to it (``2``
against ``2.0``, NULL against None), so the rowids one scan collects
cover every row that matters, and a variant none of whose candidate
rows passes its WHERE cannot hit.  A probe reads those rows through the
rowid B-tree; a variant whose probes all find a row still runs in full.
Binding errors, joins, tables without a usable rowid (a view, a
WITHOUT ROWID table, a column named ``rowid``, ``_rowid_`` or ``oid``)
and examples of another arity fall back to full runs.

Every edit but a swap answered from the widened rows is parsed from
its clause bodies, a swap to the column of a table only an IN-subquery
names included; one that does not parse is dropped uncounted.  The
static checks judge the rest from their clause bodies before any probe
or full run.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import sqlite3
import time
from collections import Counter
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .checker import Label, make_query_check
from .nsql.errors import ParseError
from .nsql.grammar import clause_bodies, parse_clause_bodies
from .nsql.lexemes import AGGREGATIONS, COMPARISONS, CONNECTIVES, is_column_ref
from .nsql.query import (
    BoolOp,
    ClauseKind,
    ColumnRef,
    Condition,
    NormalizedQuery,
    Predicate,
    SelectItem,
    denormalize_text,
)
from .tasks import ColumnType, DatabaseSchema, ExampleTuple

ROW_LIMIT = 100_000
STATEMENT_TIMEOUT = 1.0
_PROGRESS_EVERY = 1_000


class ExecutionStatus(enum.Enum):
    OK = "ok"
    ERROR = "error"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class ExecutionResult:
    status: ExecutionStatus
    rows: tuple[tuple, ...] = ()
    error: str = ""

    @classmethod
    def success(cls, rows: tuple[tuple, ...]) -> "ExecutionResult":
        return cls(ExecutionStatus.OK, rows=rows)

    @classmethod
    def failure(cls, message: str) -> "ExecutionResult":
        return cls(ExecutionStatus.ERROR, error=message)

    @classmethod
    def timed_out(cls) -> "ExecutionResult":
        return cls(ExecutionStatus.TIMEOUT, error="statement timed out")

    @property
    def ok(self) -> bool:
        return self.status is ExecutionStatus.OK


def execute_text(
    conn: sqlite3.Connection,
    sql: str,
    params: Sequence[object] = (),
    *,
    timeout: float = STATEMENT_TIMEOUT,
) -> ExecutionResult:
    """Run one statement, with ``params`` bound to its ``?`` marks, under
    a wall-clock budget and a cap of ``ROW_LIMIT`` rows.  A value that
    cannot be bound, such as an integer beyond 64 bits, fails the
    statement.

    The cursor is closed and the progress handler cleared on every exit,
    so a connection reused across searches carries no unfinished
    statement or stale watchdog into the next one.
    """
    deadline = time.monotonic() + timeout
    timed_out = False

    def watchdog() -> int:
        nonlocal timed_out
        if time.monotonic() > deadline:
            timed_out = True
            return 1
        return 0

    conn.set_progress_handler(watchdog, _PROGRESS_EVERY)
    try:
        with closing(conn.cursor()) as cursor:
            rows = cursor.execute(sql, params).fetchmany(ROW_LIMIT + 1)
        if len(rows) > ROW_LIMIT:
            return ExecutionResult.failure(f"result exceeds {ROW_LIMIT} rows")
        return ExecutionResult.success(tuple(rows))
    except (sqlite3.Error, OverflowError) as exc:
        if timed_out:
            return ExecutionResult.timed_out()
        return ExecutionResult.failure(str(exc))
    finally:
        conn.set_progress_handler(None, 0)


def execute_query(
    conn: sqlite3.Connection,
    query: NormalizedQuery,
    *,
    timeout: float = STATEMENT_TIMEOUT,
) -> ExecutionResult:
    return execute_text(conn, denormalize_text(query.render()), timeout=timeout)


def rows_match(
    left: Iterable[Sequence[object]],
    right: Iterable[Sequence[object]],
    *,
    ordered: bool = False,
) -> bool:
    """Compare result sets as sequences or as multisets of tuples, by
    Python's ``==``, under which 2, 2.0 and True are equal."""
    a = [tuple(row) for row in left]
    b = [tuple(row) for row in right]
    if ordered:
        return a == b
    return Counter(a) == Counter(b)


def matches_gold(
    result: ExecutionResult, gold: NormalizedQuery, gold_result: ExecutionResult
) -> bool | None:
    """Whether ``result`` reproduces the rows of ``gold``, run as
    ``gold_result``: in order when gold has ORDER BY, as multisets
    otherwise.  None when either statement failed."""
    if not result.ok or not gold_result.ok:
        return None
    return rows_match(result.rows, gold_result.rows, ordered=bool(gold.order_by))


def satisfies_examples(
    result: ExecutionResult, examples: Iterable[ExampleTuple]
) -> bool:
    """True when every example tuple occurs among the result rows, by
    Python's ``==``."""
    if not result.ok:
        return False
    produced = set(result.rows)
    return all(ex.values in produced for ex in examples)


# -- One-edit variants ------------------------------------------------------


def _named_tables(query: NormalizedQuery) -> set[str]:
    """Lower-cased tables in FROM and, recursively, in IN-subqueries."""
    named = {table.lower() for table in query.from_clause.tables}
    pending: list[Condition | None] = [query.where, query.having]
    while pending:
        condition = pending.pop()
        if isinstance(condition, BoolOp):
            pending.extend(condition.operands)
        elif isinstance(condition, Predicate) and isinstance(
            condition.rhs, NormalizedQuery
        ):
            named |= _named_tables(condition.rhs)
    return named


def _alternatives(lexeme: str, column_refs: tuple[str, ...]) -> tuple[str, ...]:
    if lexeme in AGGREGATIONS:
        pool: tuple[str, ...] = AGGREGATIONS
    elif lexeme in CONNECTIVES:
        pool = CONNECTIVES
    elif lexeme in COMPARISONS:
        pool = COMPARISONS
    elif is_column_ref(lexeme):
        pool = column_refs
    else:
        return ()
    return tuple(member for member in pool if member != lexeme)


def hamming_one_queries(
    query: NormalizedQuery, schema: DatabaseSchema
) -> Iterator[tuple[ClauseKind, int, dict[ClauseKind, tuple[str, ...]]]]:
    """Yield every substitution of one lexeme, unparsed, as ``(kind,
    position, bodies)``: ``kind`` is the edited clause, ``position`` the
    index of the substituted lexeme in its body, and ``bodies`` maps
    each clause to its body lexemes after the edit.

    Positions are visited left to right through the clause bodies, in
    clause order; alternatives keep their declaration order.  Column
    references are swapped only for columns of the tables the query
    names, in schema order, so the neighbourhood grows with the query
    rather than the schema.  An edit need not parse: turning a join
    condition's ``=`` into ``!=`` does not.
    """
    named = _named_tables(query)
    column_refs = tuple(
        f"{table.name}.{column.name}"
        for table in schema.tables
        if table.name.lower() in named
        for column in table.columns
    )
    clauses = clause_bodies(query.render())
    for kind, body in clauses.items():
        for position, lexeme in enumerate(body):
            for replacement in _alternatives(lexeme, column_refs):
                patched = (*body[:position], replacement, *body[position + 1 :])
                yield kind, position, {**clauses, kind: patched}


# -- Test and repair --------------------------------------------------------


# Bound on the FROM-table column lists kept across searches, keyed by the
# schema object, which hashes by identity, and the FROM table names.
_FROM_COLUMNS_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_FROM_COLUMNS_CACHE_SIZE)
def _from_columns(
    schema: DatabaseSchema, tables: tuple[str, ...]
) -> tuple[tuple[SelectItem, ...], Mapping[ColumnRef, int]] | None:
    """Every column of the FROM ``tables``, each once, as SELECT items in
    widened order, and each column's offset among those items; or None
    when the schema lacks a table.  Every caller shares the offsets, so
    none may change them."""
    offsets: dict[ColumnRef, int] = {}
    for name in tables:
        table = schema.table(name)
        if table is None:
            return None
        for column in table.columns:
            offsets.setdefault(ColumnRef(table.name, column.name), len(offsets))
    return tuple(SelectItem(ref) for ref in offsets), offsets


def _widened(
    query: NormalizedQuery, schema: DatabaseSchema
) -> tuple[NormalizedQuery, Mapping[ColumnRef, int]] | None:
    """The widened statement of an eligible ``query``, or None.

    The statement appends every column of the FROM tables to the SELECT
    list; the map gives each such column's offset past the query's own
    SELECT items, so its index in a widened row is that offset plus
    ``len(query.select)``.
    """
    if (
        query.distinct
        or query.group_by
        or query.having is not None
        or query.order_by
        or query.limit is not None
        or not all(isinstance(item.expr, ColumnRef) for item in query.select)
    ):
        return None
    columns = _from_columns(schema, query.from_clause.tables)
    if columns is None:
        return None
    appended, offsets = columns
    return dataclasses.replace(query, select=query.select + appended), offsets


def _swap_hits(
    rows: Sequence[tuple], width: int, examples: Sequence[ExampleTuple]
) -> Callable[[int, int], bool]:
    """Whether the widened ``rows``, cut to the query's ``width`` columns
    with widened column ``index`` standing at SELECT ``item``, contain
    every example, by Python's ``==`` as ``satisfies_examples`` compares.

    A row can only match an example at ``item`` when its other columns
    already do; those rows are collected once per example and item.
    """
    targets = [example.values for example in examples]
    if any(len(target) != width for target in targets):
        return lambda item, index: False
    near: dict[tuple[int, int], list[tuple]] = {}

    def hits(item: int, index: int) -> bool:
        for number, target in enumerate(targets):
            matching = near.get((number, item))
            if matching is None:
                rest = target[:item] + target[item + 1 :]
                matching = near[number, item] = [
                    row for row in rows if row[:item] + row[item + 1 : width] == rest
                ]
            if target[item] not in [row[index] for row in matching]:
                return False
        return True

    return hits


_ROWID_NAMES = frozenset({"rowid", "_rowid_", "oid"})


def _probe_table(
    query: NormalizedQuery, schema: DatabaseSchema, examples: Sequence[ExampleTuple]
) -> str | None:
    """The FROM table on whose candidate rows the WHERE variants of
    ``query``, an eligible query, can be judged, or None: a join, a
    column that hides the table's rowid, and examples of another arity
    than the SELECT list leave every variant to run in full."""
    table = schema.table(query.from_clause.first)
    if (
        query.from_clause.joins
        or table is None
        or any(column.name.lower() in _ROWID_NAMES for column in table.columns)
        or any(example.arity != len(query.select) for example in examples)
    ):
        return None
    return query.from_clause.first


@dataclass(frozen=True)
class RepairOutcome:
    query: NormalizedQuery
    result: ExecutionResult
    satisfied: bool
    repaired: bool
    variants_tried: int
    statements: int = 0
    probes: int = 0


def test_and_repair(
    query: NormalizedQuery,
    conn: sqlite3.Connection,
    schema: DatabaseSchema,
    examples: Iterable[ExampleTuple],
    *,
    attempt_repair: bool = True,
    prefilter: bool = False,
    deadline: float | None = None,
) -> RepairOutcome:
    """Execute the candidate; on a miss, walk its one-edit neighbours
    in one pass over ``hamming_one_queries``.

    Each edit is judged in one of three ways: a SELECT swap to a FROM
    table's column from the widened rows, a WHERE edit after the first
    of a one-table query by candidate-row probes, and any other edit as
    a full statement.  An edit that does not parse is dropped uncounted.
    With ``prefilter``, a variant that ``make_query_check`` rejects,
    against the schema and the first example, is skipped uncounted
    without touching the database.  ``deadline`` is an absolute
    ``time.monotonic`` value.  Every statement sent, whether the widened
    one, the original, a variant, a candidate scan or a probe, runs for
    at most ``STATEMENT_TIMEOUT`` seconds and never past ``deadline``;
    one with no time left is not sent and reads as timed out.

    With repair on, an eligible query (see the module docstring) runs as
    its widened statement: the original's rows are the widened rows cut
    to the query's own columns, and every SELECT-column swap to a FROM
    table's column is answered from them, its result being the widened
    rows cut the same way with the swapped column in place.  Those swaps
    are neither parsed nor checked one by one: the prefilter's verdict is
    taken once per SELECT item and column type, and only the hit is
    parsed.  When the widened statement fails or times out, the
    original runs on its own with a budget of its own, as with repair
    off, and every variant runs as a statement of its own.

    When the widened statement ran and the query reads one table, the
    WHERE variants after the first are judged on candidate rows.  At the
    second WHERE variant one candidate scan per example collects the
    rowids of the rows that project to it; each variant then sends one
    probe per example, and runs in full only when every probe finds a
    candidate row that passes its WHERE.  A failed candidate scan, or a
    candidate rowid that reads NULL as a view's does, leaves every
    variant to run in full; a failed probe leaves its own variant to.

    The outcome counts the statements sent to SQLite, and among them the
    candidate scans and probes.
    """
    example_list = tuple(examples)
    statements = 0
    probes = 0

    def budget() -> float:
        if deadline is None:
            return STATEMENT_TIMEOUT
        return min(STATEMENT_TIMEOUT, deadline - time.monotonic())

    def send(
        statement: NormalizedQuery | str, params: Sequence[object] = ()
    ) -> ExecutionResult:
        """Run a parsed query, or a candidate scan or probe given as text,
        with the budget left at send time."""
        nonlocal statements, probes
        timeout = budget()
        if timeout <= 0:
            return ExecutionResult.timed_out()
        statements += 1
        if isinstance(statement, NormalizedQuery):
            return execute_query(conn, statement, timeout=timeout)
        probes += 1
        return execute_text(conn, statement, params, timeout=timeout)

    def candidate_rowids(table: str) -> list[tuple] | None:
        """Each example's candidate rowids, up to the first example that
        has none, or None when the scan cannot serve the probes."""
        tests = " AND ".join(f"{item.render()} IS ?" for item in query.select)
        scan = f"SELECT {table}.rowid FROM {table} WHERE {tests}"
        found: list[tuple] = []
        for example in example_list:
            result = send(scan, example.values)
            ids = tuple(row[0] for row in result.rows)
            if not result.ok or None in ids:
                return None
            found.append(ids)
            if not ids:
                break
        return found

    def may_hit(table: str, where: Sequence[str], rowids: list[tuple]) -> bool:
        """False when some example has no candidate row that passes the
        WHERE clause whose body lexemes are ``where``."""
        condition = " ".join(where)
        for ids in rowids:
            if not ids:
                return False
            marks = ", ".join("?" * len(ids))
            result = send(
                f"SELECT 1 FROM {table} WHERE {table}.rowid IN ({marks}) "
                f"AND ({condition}) LIMIT 1",
                ids,
            )
            if result.ok and not result.rows:
                return False
        return True

    widened = _widened(query, schema) if attempt_repair else None
    width = len(query.select)
    wide = send(widened[0]) if widened is not None else None
    wide_rows = wide.rows if wide is not None and wide.ok else None
    if wide_rows is None:
        original = send(query)
    else:
        original = ExecutionResult.success(tuple(row[:width] for row in wide_rows))
    if satisfies_examples(original, example_list):
        return RepairOutcome(query, original, True, False, 0, statements, probes)
    if not attempt_repair:
        return RepairOutcome(query, original, False, False, 0, statements, probes)

    check = None
    if prefilter:
        check = make_query_check(schema, example_list[0] if example_list else None)
    offsets: Mapping[ColumnRef, int] = {}
    table = None
    if wide_rows is not None:
        offsets = widened[1]
        hits = _swap_hits(wide_rows, width, example_list)
        table = _probe_table(query, schema, example_list)
    # The check's verdicts on swaps to a FROM table's column, by SELECT
    # item and the column's type (see the module docstring).
    verdicts: dict[tuple[int, ColumnType | None], bool] = {}
    tried = where_tried = 0
    rowids: list[tuple] | None = None
    for kind, position, bodies in hamming_one_queries(query, schema):
        offset = None
        if kind is ClauseKind.SELECT and offsets:
            ref = ColumnRef(*bodies[kind][position].split(".", 1))
            offset = offsets.get(ref)
        if offset is None:
            try:
                variant = parse_clause_bodies(bodies)
            except ParseError:
                continue
        if budget() <= 0:
            break
        if offset is not None:
            item, index = position // 2, width + offset
            if check is not None:
                key = item, schema.column_type(ref.table, ref.column)
                if key not in verdicts:
                    verdicts[key] = check(bodies)
                if not verdicts[key]:
                    continue
            tried += 1
            if not hits(item, index):
                continue
            variant = parse_clause_bodies(bodies)
            result = ExecutionResult.success(
                tuple(
                    row[:item] + (row[index],) + row[item + 1 : width]
                    for row in wide_rows
                )
            )
        else:
            if check is not None and not check(bodies):
                continue
            tried += 1
            if table is not None and kind is ClauseKind.WHERE:
                where_tried += 1
                if where_tried == 2:
                    rowids = candidate_rowids(table)
                if rowids is not None and not may_hit(table, bodies[kind], rowids):
                    continue
            result = send(variant)
        if satisfies_examples(result, example_list):
            return RepairOutcome(variant, result, True, True, tried, statements, probes)
    return RepairOutcome(query, original, False, False, tried, statements, probes)


# -- Execution-based labeling ----------------------------------------------


# SQLite reports a parse-stage fault with one of these; an unclosed
# parenthesis or a dangling operator reads "incomplete input" and an
# unterminated string "unrecognized token", without the word "syntax".
_SYNTAX_MARKERS = ("syntax", "incomplete input", "unrecognized token")


def label_by_execution(
    text: str,
    conn: sqlite3.Connection,
    *,
    gold: tuple[NormalizedQuery, ExecutionResult] | None = None,
    examples: Iterable[ExampleTuple] = (),
) -> Label:
    """Classify a finished query by running it for at most
    ``STATEMENT_TIMEOUT`` seconds.

    With ``gold``, a gold query and its result, ``matches_gold`` decides
    whether the query counts as correct; when it cannot (the gold
    statement failed), or without ``gold``, example containment decides.
    """
    result = execute_text(conn, denormalize_text(text), timeout=STATEMENT_TIMEOUT)
    if result.status is ExecutionStatus.TIMEOUT:
        return Label.RUNTIME_ERROR
    if result.status is ExecutionStatus.ERROR:
        error = result.error.lower()
        if any(marker in error for marker in _SYNTAX_MARKERS):
            return Label.SYNTAX_ERROR
        return Label.RUNTIME_ERROR
    match = None if gold is None else matches_gold(result, *gold)
    if match is None:
        match = satisfies_examples(result, examples)
    return Label.CORRECT if match else Label.EXAMPLE_ERROR
