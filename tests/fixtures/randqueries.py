"""Seeded generator of well-formed canonical queries over a schema.

Feeds the scripted models for the search-ordering checks and the
parse/render round-trip tests.  Generated queries are structurally
canonical; they are never executed, so constants need not be sensible.
"""

from __future__ import annotations

import random

from sqlsynth.nsql.lexemes import quote_string
from sqlsynth.nsql.query import (
    AggExpr,
    BoolOp,
    ColumnRef,
    Constant,
    FromClause,
    JoinEdge,
    NormalizedQuery,
    OrderItem,
    Predicate,
    SelectItem,
    Star,
)
from sqlsynth.tasks import ColumnType, DatabaseSchema

NUMERIC_TYPES = frozenset({ColumnType.INTEGER, ColumnType.REAL})
_TEXT_POOL = ("France", "Japan", "dog", "Grand Hall", "paid", "BAL", "x")
_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


def _ref(table: str, column: str) -> ColumnRef:
    return ColumnRef(table, column)


def _from_clause(schema: DatabaseSchema, rng: random.Random) -> FromClause:
    if schema.foreign_keys and rng.random() < 0.35:
        source, target = rng.choice(schema.foreign_keys)
        src_table, src_col = source.split(".")
        dst_table, dst_col = target.split(".")
        edge = JoinEdge(
            src_table, ((_ref(dst_table, dst_col), _ref(src_table, src_col)),)
        )
        return FromClause(dst_table, (edge,))
    table = rng.choice(schema.tables)
    return FromClause(table.name)


def _columns_of(schema: DatabaseSchema, tables: tuple[str, ...]) -> list[ColumnRef]:
    refs = []
    for name in tables:
        table = schema.table(name)
        assert table is not None
        refs.extend(_ref(table.name, column.name) for column in table.columns)
    return refs


def _predicate(
    schema: DatabaseSchema, columns: list[ColumnRef], rng: random.Random
) -> Predicate:
    column = rng.choice(columns)
    table = schema.table(column.table)
    assert table is not None
    kind = schema.column_type(column.table, column.column)
    if kind in NUMERIC_TYPES or kind is ColumnType.BOOLEAN:
        return Predicate(column, rng.choice(_COMPARISONS), Constant(str(rng.randrange(100))))
    if rng.random() < 0.2:
        return Predicate(
            column, "LIKE", Constant(quote_string(rng.choice(_TEXT_POOL)[:1] + "%"))
        )
    op = rng.choice(("=", "!="))
    return Predicate(column, op, Constant(quote_string(rng.choice(_TEXT_POOL))))


def random_query(schema: DatabaseSchema, rng: random.Random) -> NormalizedQuery:
    from_clause = _from_clause(schema, rng)
    columns = _columns_of(schema, from_clause.tables)

    roll = rng.random()
    group_by: tuple[ColumnRef, ...] = ()
    having = None
    if roll < 0.15:
        select = (SelectItem(AggExpr("COUNT", Star())),)
    elif roll < 0.3:
        key = rng.choice(columns)
        select = (SelectItem(key), SelectItem(AggExpr("COUNT", Star())))
        group_by = (key,)
        if rng.random() < 0.5:
            having = Predicate(
                AggExpr("COUNT", Star()), ">", Constant(str(rng.randrange(1, 4)))
            )
    else:
        count = rng.choice((1, 1, 2))
        select = tuple(SelectItem(column) for column in rng.sample(columns, count))

    where = None
    predicates = rng.choice((0, 1, 1, 2))
    if predicates == 1:
        where = _predicate(schema, columns, rng)
    elif predicates == 2:
        where = BoolOp(
            rng.choice(("AND", "OR")),
            (
                _predicate(schema, columns, rng),
                _predicate(schema, columns, rng),
            ),
        )

    order_by: tuple[OrderItem, ...] = ()
    limit = None
    if rng.random() < 0.35:
        order_by = (OrderItem(rng.choice(columns), descending=rng.random() < 0.5),)
        if rng.random() < 0.6:
            limit = Constant(str(rng.randrange(1, 6)))

    return NormalizedQuery(
        select=select,
        from_clause=from_clause,
        where=where,
        group_by=group_by,
        having=having,
        order_by=order_by,
        limit=limit,
        distinct=not group_by and rng.random() < 0.1,
    )


def distinct_queries(
    schema: DatabaseSchema, rng: random.Random, count: int
) -> list[NormalizedQuery]:
    """Generate ``count`` queries with pairwise-distinct rendered texts."""
    seen: set[str] = set()
    out: list[NormalizedQuery] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > count * 50:
            raise AssertionError("random query space too small for request")
        query = random_query(schema, rng)
        text = query.render()
        if text in seen:
            continue
        seen.add(text)
        out.append(query)
    return out
