"""Reference repair walk for the differential repair tests, and the
parse that turns the repair enumerator's edits into variants.

``hamming_one_queries`` and ``test_and_repair`` here are those of
``sqlsynth.repair`` as they stood before the SELECT-column swaps of a
widened query were judged from the clause bodies: every variant,
SELECT swaps included, is parsed from its patched clause bodies and
checked on its own, and a SELECT swap whose column the widened rows
hold is answered from them by ``select_swap``.  Statements go through
``repair.execute_query`` and ``repair.execute_text``, looked up at call
time, so a test that wraps those sees what the reference sends.  The
walk reads each clause body from ``clause_body`` here, a frozen copy of
the per-clause renderer that ``NormalizedQuery`` once carried, so it
stays independent of ``render`` and ``grammar.clause_bodies``.
"""

from __future__ import annotations

import sqlite3
import time
from typing import Iterable, Iterator, Mapping, Sequence

from sqlsynth import repair
from sqlsynth.checker import make_query_check
from sqlsynth.nsql.errors import ParseError
from sqlsynth.nsql.grammar import parse_clause_bodies
from sqlsynth.nsql.lexemes import split_line
from sqlsynth.nsql.query import CLAUSE_ORDER, ClauseKind, ColumnRef, NormalizedQuery
from sqlsynth.repair import ExecutionResult, RepairOutcome, satisfies_examples
from sqlsynth.tasks import DatabaseSchema, ExampleTuple


def clause_body(query: NormalizedQuery, kind: ClauseKind) -> str:
    """The text of one clause body of ``query``, without its keyword."""
    if kind is ClauseKind.SELECT:
        items = " , ".join(i.render() for i in query.select)
        return f"DISTINCT {items}" if query.distinct else items
    if kind is ClauseKind.FROM:
        return query.from_clause.render()
    if kind is ClauseKind.WHERE:
        return query.where.render() if query.where else ""
    if kind is ClauseKind.GROUP_BY:
        return " , ".join(c.render() for c in query.group_by)
    if kind is ClauseKind.HAVING:
        return query.having.render() if query.having else ""
    if kind is ClauseKind.ORDER_BY:
        return " , ".join(i.render() for i in query.order_by)
    return query.limit.render() if query.limit else ""


def parsed_edits(
    edits: Iterable[tuple[ClauseKind, int, dict[ClauseKind, tuple[str, ...]]]],
) -> Iterator[tuple[NormalizedQuery, ClauseKind, dict[ClauseKind, tuple[str, ...]]]]:
    """The ``(kind, position, bodies)`` edits that parse, such as
    ``repair.hamming_one_queries`` yields, as ``(variant, kind, bodies)``
    in their order."""
    for kind, _, bodies in edits:
        try:
            variant = parse_clause_bodies(bodies)
        except ParseError:
            continue
        yield variant, kind, bodies


def hamming_one_queries(
    query: NormalizedQuery, schema: DatabaseSchema
) -> Iterator[tuple[NormalizedQuery, ClauseKind, dict[ClauseKind, tuple[str, ...]]]]:
    named = repair._named_tables(query)
    column_refs = tuple(
        f"{table.name}.{column.name}"
        for table in schema.tables
        if table.name.lower() in named
        for column in table.columns
    )
    clauses = {
        kind: tuple(split_line(clause_body(query, kind), terminated=True)[0])
        for kind in CLAUSE_ORDER
    }
    for kind, body in clauses.items():
        for position, lexeme in enumerate(body):
            for replacement in repair._alternatives(lexeme, column_refs):
                patched = (*body[:position], replacement, *body[position + 1 :])
                bodies = {**clauses, kind: patched}
                try:
                    variant = parse_clause_bodies(bodies)
                except ParseError:
                    continue
                yield variant, kind, bodies


def select_swap(
    original: NormalizedQuery,
    variant: NormalizedQuery,
    columns: Mapping[ColumnRef, int],
) -> tuple[int, int] | None:
    for position, (old, new) in enumerate(zip(original.select, variant.select)):
        if old != new:
            index = columns.get(new.expr)
            return None if index is None else (position, index)
    return None


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
    example_list = tuple(examples)
    statements = 0
    probes = 0

    def budget() -> float:
        if deadline is None:
            return repair.STATEMENT_TIMEOUT
        return min(repair.STATEMENT_TIMEOUT, deadline - time.monotonic())

    def send(
        statement: NormalizedQuery | str, params: Sequence[object] = ()
    ) -> ExecutionResult:
        nonlocal statements, probes
        timeout = budget()
        if timeout <= 0:
            return ExecutionResult.timed_out()
        statements += 1
        if isinstance(statement, NormalizedQuery):
            return repair.execute_query(conn, statement, timeout=timeout)
        probes += 1
        return repair.execute_text(conn, statement, params, timeout=timeout)

    def candidate_rowids(table: str) -> list[tuple] | None:
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

    def may_hit(table: str, variant: NormalizedQuery, rowids: list[tuple]) -> bool:
        where = clause_body(variant, ClauseKind.WHERE)
        for ids in rowids:
            if not ids:
                return False
            marks = ", ".join("?" * len(ids))
            result = send(
                f"SELECT 1 FROM {table} WHERE {table}.rowid IN ({marks}) "
                f"AND ({where}) LIMIT 1",
                ids,
            )
            if result.ok and not result.rows:
                return False
        return True

    widened = repair._widened(query, schema) if attempt_repair else None
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
    table = None
    if wide_rows is not None:
        table = repair._probe_table(query, schema, example_list)
        # ``repair._widened`` gives each column's offset past the query's
        # own SELECT items; ``select_swap`` takes its index in a row.
        indices = {ref: width + offset for ref, offset in widened[1].items()}
    where_tried = 0
    rowids: list[tuple] | None = None
    tried = 0
    for variant, kind, bodies in hamming_one_queries(query, schema):
        if budget() <= 0:
            break
        if check is not None and not check(bodies):
            continue
        tried += 1
        swap = None
        if wide_rows is not None and kind is ClauseKind.SELECT:
            swap = select_swap(query, variant, indices)
        if swap is not None:
            position, index = swap
            result = ExecutionResult.success(
                tuple(
                    row[:position] + (row[index],) + row[position + 1 : width]
                    for row in wide_rows
                )
            )
        else:
            if table is not None and kind is ClauseKind.WHERE:
                where_tried += 1
                if where_tried == 2:
                    rowids = candidate_rowids(table)
                if rowids is not None and not may_hit(table, variant, rowids):
                    continue
            result = send(variant)
        if satisfies_examples(result, example_list):
            return RepairOutcome(
                variant, result, True, True, tried, statements, probes
            )
    return RepairOutcome(query, original, False, False, tried, statements, probes)
