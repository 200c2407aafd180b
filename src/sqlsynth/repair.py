"""Query execution, example containment, and one-edit repair.

A finished candidate is executed against the task database and its
result is compared with the user-supplied example tuples.  When the
candidate misses, close variants are tried: every query whose rendered
form differs in exactly one lexeme, where the changed lexeme is an
aggregation function, a connective, a comparison operator, or a column
reference.  A column reference is only swapped for a column of a table
the query names (in its FROM or an IN-subquery's FROM); any other table
fails the scope check and SQLite alike.  Constants are never touched.

One scan answers every SELECT-column swap of an eligible query: a query
that selects plain columns, with no DISTINCT, grouping, ordering or
limit.  When its walk reaches the first such swap, the query runs once
more with every column of its FROM tables appended to the SELECT list,
and that swap and each later one is answered by projecting the widened
rows.  Dropping a column from such a query leaves its multiset of rows
unchanged, and its row order is unspecified anyway.
"""

from __future__ import annotations

import dataclasses
import enum
import sqlite3
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .checker import Label
from .nsql.errors import ParseError
from .nsql.grammar import ClauseMemo, parse_clause_bodies
from .nsql.lexemes import AGGREGATIONS, COMPARISONS, CONNECTIVES, is_column_ref
from .nsql.partial import parse_line, parse_partial
from .nsql.query import (
    BoolOp,
    ColumnRef,
    Condition,
    NormalizedQuery,
    Predicate,
    SelectItem,
    denormalize_text,
)
from .tasks import DatabaseSchema, ExampleTuple

ROW_LIMIT = 100_000
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
    *,
    timeout: float = 1.0,
    row_limit: int = ROW_LIMIT,
) -> ExecutionResult:
    """Run one statement with a wall-clock budget and a row cap."""
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
        cursor = conn.execute(sql)
        rows: list[tuple] = []
        while True:
            chunk = cursor.fetchmany(1024)
            if not chunk:
                break
            rows.extend(tuple(row) for row in chunk)
            if len(rows) > row_limit:
                return ExecutionResult.failure(
                    f"result exceeds {row_limit} rows"
                )
        return ExecutionResult.success(tuple(rows))
    except sqlite3.Error as exc:
        if timed_out:
            return ExecutionResult.timed_out()
        return ExecutionResult.failure(str(exc))
    finally:
        conn.set_progress_handler(None, 0)


def execute_query(
    conn: sqlite3.Connection,
    query: NormalizedQuery,
    *,
    timeout: float = 1.0,
    row_limit: int = ROW_LIMIT,
) -> ExecutionResult:
    sql = denormalize_text(query.render())
    return execute_text(conn, sql, timeout=timeout, row_limit=row_limit)


def canonical_value(value: object) -> object:
    """Collapse numeric representations so 2, 2.0 and True compare equal."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def canonical_row(row: Sequence[object]) -> tuple:
    return tuple(canonical_value(value) for value in row)


def rows_match(
    left: Iterable[Sequence[object]],
    right: Iterable[Sequence[object]],
    *,
    ordered: bool = False,
) -> bool:
    """Compare result sets as sequences or as multisets."""
    a = [canonical_row(row) for row in left]
    b = [canonical_row(row) for row in right]
    if ordered:
        return a == b
    return sorted(a, key=repr) == sorted(b, key=repr)


def satisfies_examples(
    result: ExecutionResult, examples: Iterable[ExampleTuple]
) -> bool:
    """True when every example tuple occurs among the result rows."""
    if not result.ok:
        return False
    produced = {canonical_row(row) for row in result.rows}
    return all(canonical_row(ex.values) in produced for ex in examples)


# -- One-edit variants ------------------------------------------------------

_AGG_MEMBERS = tuple(AGGREGATIONS)
_CONNECTIVE_MEMBERS = tuple(CONNECTIVES)
_COMPARISON_MEMBERS = tuple(COMPARISONS)


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
        pool: tuple[str, ...] = _AGG_MEMBERS
    elif lexeme in CONNECTIVES:
        pool = _CONNECTIVE_MEMBERS
    elif lexeme in COMPARISONS:
        pool = _COMPARISON_MEMBERS
    elif is_column_ref(lexeme):
        pool = column_refs
    else:
        return ()
    return tuple(member for member in pool if member != lexeme)


def hamming_one_queries(
    query: NormalizedQuery,
    schema: DatabaseSchema,
    memo: ClauseMemo | None = None,
) -> Iterator[NormalizedQuery]:
    """Yield every parseable query one lexeme-substitution away.

    Positions are visited left to right through the rendered text;
    alternatives keep their declaration order.  Column references are
    swapped only for columns of the tables the query names, so the
    neighbourhood grows with the query rather than the schema.
    Substitutions that do not parse (for instance turning a join
    condition's ``=`` into ``!=``) are dropped silently.  A variant
    re-splits only its edited line; its clauses are parsed through
    ``memo``, so the six it shares with the query cost a lookup.
    """
    named = _named_tables(query)
    column_refs = tuple(
        f"{table.name}.{column.name}"
        for table in schema.tables
        if table.name.lower() in named
        for column in table.columns
    )
    memo = memo if memo is not None else ClauseMemo()
    clauses = parse_partial(query.render(), eos_seen=True).completed
    for kind, body in clauses.items():
        for position, lexeme in enumerate(body):
            for replacement in _alternatives(lexeme, column_refs):
                patched = (*body[:position], replacement, *body[position + 1 :])
                line = " ".join((*kind.keyword_lexemes, *patched))
                try:
                    _, relexed, _, error = parse_line(kind, line, terminated=True)
                    if error is not None:
                        continue
                    variant = parse_clause_bodies({**clauses, kind: relexed}, memo)
                except ParseError:
                    continue
                yield variant


# -- Test and repair --------------------------------------------------------


def _widened(
    query: NormalizedQuery, schema: DatabaseSchema
) -> tuple[NormalizedQuery, dict[ColumnRef, int]] | None:
    """The widened statement of an eligible ``query``, or None.

    The statement appends every column of the FROM tables to the SELECT
    list; the map gives each such column's index in a widened row.
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
    columns: dict[ColumnRef, int] = {}
    for name in query.from_clause.tables:
        table = schema.table(name)
        if table is None:
            return None
        for column in table.columns:
            columns.setdefault(
                ColumnRef(table.name, column.name), len(query.select) + len(columns)
            )
    statement = dataclasses.replace(
        query, select=query.select + tuple(SelectItem(ref) for ref in columns)
    )
    return statement, columns


def _select_swap(
    original: NormalizedQuery,
    variant: NormalizedQuery,
    columns: Mapping[ColumnRef, int],
) -> tuple[int, int] | None:
    """The SELECT position ``variant`` edits and the widened-row index of
    the column it puts there, when that is its only difference from
    ``original`` and ``columns`` holds that column."""
    if len(variant.select) != len(original.select):
        return None
    if dataclasses.replace(variant, select=original.select) != original:
        return None
    pairs = zip(original.select, variant.select)
    edited = [position for position, (old, new) in enumerate(pairs) if old != new]
    if len(edited) != 1:
        return None
    index = columns.get(variant.select[edited[0]].expr)
    return None if index is None else (edited[0], index)


@dataclass(frozen=True)
class RepairOutcome:
    query: NormalizedQuery
    result: ExecutionResult
    satisfied: bool
    repaired: bool
    variants_tried: int


def test_and_repair(
    query: NormalizedQuery,
    conn: sqlite3.Connection,
    schema: DatabaseSchema,
    examples: Iterable[ExampleTuple],
    *,
    attempt_repair: bool = True,
    prefilter: Callable[[str, bool], object] | None = None,
    per_variant_timeout: float = 1.0,
    deadline: float | None = None,
    memo: ClauseMemo | None = None,
) -> RepairOutcome:
    """Execute the candidate; on a miss, walk its one-edit neighbours.

    ``prefilter`` takes rendered text plus an end-of-sequence flag and
    returns a verdict with an ``ok`` attribute; variants it rejects are
    skipped without touching the database.  ``deadline`` is an absolute
    ``time.monotonic`` value past which no further variant runs.
    ``memo`` is the search's clause memo, which the variants are parsed
    through.

    For an eligible query (see the module docstring) whose original
    ran, the first admitted SELECT-column swap runs the widened
    statement within its own budget, and that swap and every later one
    are answered from the widened rows.  When the widened statement
    fails, the swap runs on its own with what is left of its budget, and
    so does every later variant.
    """
    example_list = tuple(examples)

    def budget() -> float:
        if deadline is None:
            return per_variant_timeout
        return min(per_variant_timeout, deadline - time.monotonic())

    def run(statement: NormalizedQuery, remaining: float) -> ExecutionResult:
        if remaining <= 0:
            return ExecutionResult.timed_out()
        return execute_query(conn, statement, timeout=remaining)

    original = run(query, budget())
    if satisfies_examples(original, example_list):
        return RepairOutcome(query, original, True, False, 0)
    if not attempt_repair:
        return RepairOutcome(query, original, False, False, 0)

    widened = _widened(query, schema) if original.ok else None
    wide_rows: tuple[tuple, ...] | None = None
    width = len(query.select)
    tried = 0
    for variant in hamming_one_queries(query, schema, memo):
        if deadline is not None and time.monotonic() >= deadline:
            break
        if prefilter is not None:
            verdict = prefilter(variant.render(), True)
            if not getattr(verdict, "ok", True):
                continue
        remaining = budget()
        if remaining <= 0:
            break
        tried += 1
        swap = _select_swap(query, variant, widened[1]) if widened else None
        if swap is not None and wide_rows is None:
            started = time.monotonic()
            wide = run(widened[0], remaining)
            if wide.ok:
                wide_rows = wide.rows
            else:
                widened = swap = None
                remaining -= time.monotonic() - started
        if swap is None:
            result = run(variant, remaining)
        else:
            position, index = swap
            result = ExecutionResult.success(
                tuple(
                    row[:position] + (row[index],) + row[position + 1 : width]
                    for row in wide_rows
                )
            )
        if satisfies_examples(result, example_list):
            return RepairOutcome(variant, result, True, True, tried)
    return RepairOutcome(query, original, False, False, tried)


# -- Execution-based labeling ----------------------------------------------


def label_by_execution(
    text: str,
    conn: sqlite3.Connection,
    *,
    gold_rows: Sequence[Sequence[object]] | None = None,
    examples: Iterable[ExampleTuple] = (),
    timeout: float = 1.0,
) -> Label:
    """Classify a finished query by actually running it.

    With ``gold_rows`` the query must reproduce them as a multiset to
    count as correct; otherwise example containment decides.
    """
    result = execute_text(conn, denormalize_text(text), timeout=timeout)
    if result.status is ExecutionStatus.TIMEOUT:
        return Label.RUNTIME_ERROR
    if result.status is ExecutionStatus.ERROR:
        if "syntax" in result.error.lower():
            return Label.SYNTAX_ERROR
        return Label.RUNTIME_ERROR
    if gold_rows is not None:
        if rows_match(result.rows, gold_rows):
            return Label.CORRECT
        return Label.EXAMPLE_ERROR
    if satisfies_examples(result, examples):
        return Label.CORRECT
    return Label.EXAMPLE_ERROR
