"""Reference clause grammar for the differential tests.

This is the clause grammar as it stood before one cursor came to carry
the dialect: a ``lenient`` flag passed through the private functions,
two FROM parsers and two subquery branches.  Only the imports differ,
and ``_agg_expr`` refuses ``COUNT ( DISTINCT * )``, which SQLite does not
parse, as the grammar came to.
``tests/test_nsql.py`` compares ``sqlsynth.nsql.grammar`` with it.

Clause-body grammars for the canonical dialect.

Each clause body arrives as a list of lexeme strings.  Strict mode
accepts exactly what the renderer emits: qualified column references,
explicit ASC/DESC, spaces around parentheses already resolved by the
lexer.  Lenient mode additionally accepts bare column names, table
aliases and omitted sort directions, producing placeholders that the
normalizer resolves against a schema.

The checker, the parse of a finished text and repair strict-parse
terminated clause bodies through ``parse_clause_cached``, one bounded,
process-wide cache: they meet the same bodies again and again, within a
search and across searches.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from sqlsynth.nsql.errors import ParseError, StructureError
from sqlsynth.nsql.lexemes import (
    AGGREGATIONS,
    COMPARISONS,
    is_column_ref,
    is_constant,
    is_identifier,
    is_number,
    is_string_const,
)
from sqlsynth.nsql.grammar import parse_partial
from sqlsynth.nsql.query import (
    AggExpr,
    BoolOp,
    CLAUSE_ORDER,
    ClauseKind,
    ColumnRef,
    Condition,
    Constant,
    FromClause,
    JoinEdge,
    NormalizedQuery,
    OrderItem,
    Predicate,
    SelectItem,
    Star,
)

# Placeholder table for a not-yet-resolved bare column name.
UNQUALIFIED = ""


class _Cursor:
    def __init__(self, lexemes: Sequence[str], clause: str) -> None:
        self._lexemes = list(lexemes)
        self._clause = clause
        self._pos = 0

    def peek(self, offset: int = 0) -> str | None:
        index = self._pos + offset
        return self._lexemes[index] if index < len(self._lexemes) else None

    def take(self) -> str:
        lexeme = self.peek()
        if lexeme is None:
            self.fail("unexpected end of clause")
        self._pos += 1
        return lexeme

    def expect(self, lexeme: str) -> None:
        got = self.take()
        if got != lexeme:
            self.fail(f"expected {lexeme!r}, found {got!r}")

    def done(self) -> bool:
        return self._pos >= len(self._lexemes)

    def fail(self, message: str) -> None:
        raise ParseError(f"{self._clause}: {message}")


def _column_ref(cur: _Cursor, lenient: bool) -> ColumnRef:
    lexeme = cur.take()
    if is_column_ref(lexeme):
        table, column = lexeme.split(".", 1)
        return ColumnRef(table, column)
    if lenient and is_identifier(lexeme):
        return ColumnRef(UNQUALIFIED, lexeme)
    cur.fail(f"expected a column reference, found {lexeme!r}")
    raise AssertionError("unreachable")


def _agg_expr(cur: _Cursor, lenient: bool) -> AggExpr:
    func = cur.take()
    cur.expect("(")
    distinct = False
    if cur.peek() == "DISTINCT":
        cur.take()
        distinct = True
    arg: ColumnRef | Star
    if cur.peek() == "*":
        if func != "COUNT":
            cur.fail("a star argument is only valid for COUNT")
        if distinct:
            cur.fail("DISTINCT takes a column, not a star")
        cur.take()
        arg = Star()
    else:
        arg = _column_ref(cur, lenient)
    cur.expect(")")
    return AggExpr(func, arg, distinct)


def _value_expr(cur: _Cursor, lenient: bool) -> ColumnRef | AggExpr:
    if cur.peek() in AGGREGATIONS:
        return _agg_expr(cur, lenient)
    return _column_ref(cur, lenient)


def _constant(cur: _Cursor) -> Constant:
    lexeme = cur.take()
    if not is_constant(lexeme):
        cur.fail(f"expected a constant, found {lexeme!r}")
    return Constant(lexeme)


# -- SELECT -----------------------------------------------------------------


def parse_select_body(
    lexemes: Sequence[str], lenient: bool = False
) -> tuple[bool, tuple[SelectItem, ...]]:
    cur = _Cursor(lexemes, "SELECT")
    if cur.done():
        cur.fail("at least one output expression is required")
    distinct = False
    if cur.peek() == "DISTINCT":
        cur.take()
        distinct = True
    items = _select_items(cur, lenient, stop=frozenset())
    if not cur.done():
        cur.fail(f"unexpected {cur.peek()!r}")
    return distinct, items


def _select_items(
    cur: _Cursor, lenient: bool, stop: frozenset[str]
) -> tuple[SelectItem, ...]:
    items: list[SelectItem] = []
    while True:
        if cur.peek() == "*":
            cur.take()
            items.append(SelectItem(Star()))
        else:
            items.append(SelectItem(_value_expr(cur, lenient)))
        if cur.peek() == ",":
            cur.take()
            continue
        if cur.done() or cur.peek() in stop:
            return tuple(items)
        cur.fail(f"unexpected {cur.peek()!r} after output expression")


# -- FROM -------------------------------------------------------------------


def parse_from_body(lexemes: Sequence[str]) -> FromClause:
    cur = _Cursor(lexemes, "FROM")
    clause = _from_strict(cur, stop=frozenset())
    if not cur.done():
        cur.fail(f"unexpected {cur.peek()!r}")
    return clause


def _table_name(cur: _Cursor) -> str:
    lexeme = cur.take()
    if not is_identifier(lexeme):
        cur.fail(f"expected a table name, found {lexeme!r}")
    return lexeme


def _from_strict(cur: _Cursor, stop: frozenset[str]) -> FromClause:
    first = _table_name(cur)
    joins: list[JoinEdge] = []
    while cur.peek() == "JOIN":
        cur.take()
        table = _table_name(cur)
        cur.expect("ON")
        conditions = [_join_condition(cur, lenient=False)]
        while cur.peek() == "AND":
            cur.take()
            conditions.append(_join_condition(cur, lenient=False))
        joins.append(JoinEdge(table, tuple(conditions)))
    if not cur.done() and cur.peek() not in stop:
        cur.fail(f"unexpected {cur.peek()!r}")
    return FromClause(first, tuple(joins))


def _join_condition(cur: _Cursor, lenient: bool) -> tuple[ColumnRef, ColumnRef]:
    left = _column_ref(cur, lenient)
    cur.expect("=")
    right = _column_ref(cur, lenient)
    return left, right


@dataclass
class LooseTable:
    name: str
    alias: str | None = None


@dataclass
class LooseFrom:
    """FROM contents before alias expansion.

    ``unjoined`` tables arrived through commas or ON-less joins; their
    join conditions, if any, still live in the WHERE clause.
    """

    base: LooseTable
    joined: list[tuple[LooseTable, list[tuple[ColumnRef, ColumnRef]]]] = field(
        default_factory=list
    )
    unjoined: list[LooseTable] = field(default_factory=list)


def parse_from_body_lenient(lexemes: Sequence[str]) -> LooseFrom:
    cur = _Cursor(lexemes, "FROM")
    loose = _from_lenient(cur, stop=frozenset())
    if not cur.done():
        cur.fail(f"unexpected {cur.peek()!r}")
    return loose


def _from_lenient(cur: _Cursor, stop: frozenset[str]) -> LooseFrom:
    loose = LooseFrom(base=_loose_table(cur))
    while not cur.done() and cur.peek() not in stop:
        lexeme = cur.take()
        if lexeme == ",":
            loose.unjoined.append(_loose_table(cur))
        elif lexeme == "JOIN":
            table = _loose_table(cur)
            if cur.peek() == "ON":
                cur.take()
                conditions = [_join_condition(cur, lenient=True)]
                while cur.peek() == "AND":
                    cur.take()
                    conditions.append(_join_condition(cur, lenient=True))
                loose.joined.append((table, conditions))
            else:
                loose.unjoined.append(table)
        else:
            cur.fail(f"unexpected {lexeme!r}")
    return loose


def _loose_table(cur: _Cursor) -> LooseTable:
    name = _table_name(cur)
    if cur.peek() == "AS":
        cur.take()
        alias = cur.take()
        if not is_identifier(alias):
            cur.fail(f"expected an alias, found {alias!r}")
        return LooseTable(name, alias)
    following = cur.peek()
    if following is not None and is_identifier(following):
        return LooseTable(name, cur.take())  # bare alias, no AS
    return LooseTable(name)


# -- WHERE / HAVING ---------------------------------------------------------


def parse_condition_body(
    lexemes: Sequence[str],
    lenient: bool = False,
    clause: str = "WHERE",
) -> Condition | None:
    if not lexemes:
        return None
    cur = _Cursor(lexemes, clause)
    condition = _or_expr(cur, lenient, allow_subquery=True)
    if not cur.done():
        cur.fail(f"unexpected {cur.peek()!r}")
    return condition


def _or_expr(cur: _Cursor, lenient: bool, allow_subquery: bool) -> Condition:
    terms: list[Condition] = [_and_expr(cur, lenient, allow_subquery)]
    while cur.peek() == "OR":
        cur.take()
        terms.append(_and_expr(cur, lenient, allow_subquery))
    if len(terms) == 1:
        return terms[0]
    return BoolOp("OR", tuple(terms))


def _and_expr(cur: _Cursor, lenient: bool, allow_subquery: bool) -> Condition:
    terms: list[Condition] = [_condition_atom(cur, lenient, allow_subquery)]
    while cur.peek() == "AND":
        cur.take()
        terms.append(_condition_atom(cur, lenient, allow_subquery))
    if len(terms) == 1:
        return terms[0]
    return BoolOp("AND", tuple(terms))


def _condition_atom(cur: _Cursor, lenient: bool, allow_subquery: bool) -> Condition:
    if cur.peek() == "(":
        cur.take()
        inner = _or_expr(cur, lenient, allow_subquery)
        cur.expect(")")
        return inner
    lhs = _value_expr(cur, lenient)
    negated = False
    if cur.peek() == "NOT":
        cur.take()
        negated = True
        if cur.peek() not in {"IN", "BETWEEN", "LIKE"}:
            cur.fail(f"unexpected {cur.peek()!r} after NOT")
    op = cur.take()
    if op == "IN":
        return _in_predicate(cur, lhs, negated, lenient, allow_subquery)
    if op == "BETWEEN":
        low = _constant(cur)
        cur.expect("AND")
        high = _constant(cur)
        return Predicate(lhs, "BETWEEN", (low, high), negated)
    if op == "LIKE":
        pattern = cur.take()
        if not is_string_const(pattern):
            cur.fail(f"LIKE pattern must be a string, found {pattern!r}")
        return Predicate(lhs, "LIKE", Constant(pattern), negated)
    if op in COMPARISONS:
        if negated:
            cur.fail("NOT is only valid before IN, BETWEEN or LIKE")
        lexeme = cur.peek()
        if lexeme is not None and is_constant(lexeme):
            return Predicate(lhs, op, _constant(cur))
        return Predicate(lhs, op, _column_ref(cur, lenient))
    cur.fail(f"expected a comparison operator, found {op!r}")
    raise AssertionError("unreachable")


def _in_predicate(
    cur: _Cursor,
    lhs: ColumnRef | AggExpr,
    negated: bool,
    lenient: bool,
    allow_subquery: bool,
) -> Predicate:
    cur.expect("(")
    if cur.peek() == "SELECT":
        if not allow_subquery:
            cur.fail("nested subqueries are not supported")
        subquery = _subquery(cur, lenient)
        cur.expect(")")
        return Predicate(lhs, "IN", subquery, negated)
    constants = [_constant(cur)]
    while cur.peek() == ",":
        cur.take()
        constants.append(_constant(cur))
    cur.expect(")")
    return Predicate(lhs, "IN", tuple(constants), negated)


@dataclass
class LooseSubquery:
    """An IN-subquery parsed leniently, before alias resolution."""

    distinct: bool
    items: tuple[SelectItem, ...]
    from_clause: LooseFrom
    where: Condition | None


def _subquery(cur: _Cursor, lenient: bool) -> NormalizedQuery | LooseSubquery:
    cur.expect("SELECT")
    distinct = False
    if cur.peek() == "DISTINCT":
        cur.take()
        distinct = True
    items = _select_items(cur, lenient, stop=frozenset({"FROM"}))
    cur.expect("FROM")
    if lenient:
        loose_from = _from_lenient(cur, stop=frozenset({"WHERE", ")"}))
        where = None
        if cur.peek() == "WHERE":
            cur.take()
            where = _or_expr(cur, lenient, allow_subquery=False)
        return LooseSubquery(distinct, items, loose_from, where)
    from_clause = _from_strict(cur, stop=frozenset({"WHERE", ")"}))
    where = None
    if cur.peek() == "WHERE":
        cur.take()
        where = _or_expr(cur, lenient, allow_subquery=False)
    return NormalizedQuery(
        select=items,
        from_clause=from_clause,
        where=where,
        distinct=distinct,
    )


# -- GROUP BY / ORDER BY / LIMIT -------------------------------------------


def parse_group_body(
    lexemes: Sequence[str], lenient: bool = False
) -> tuple[ColumnRef, ...]:
    if not lexemes:
        return ()
    cur = _Cursor(lexemes, "GROUP BY")
    columns = [_column_ref(cur, lenient)]
    while cur.peek() == ",":
        cur.take()
        columns.append(_column_ref(cur, lenient))
    if not cur.done():
        cur.fail(f"unexpected {cur.peek()!r}")
    return tuple(columns)


def parse_order_body(
    lexemes: Sequence[str], lenient: bool = False
) -> tuple[OrderItem, ...]:
    if not lexemes:
        return ()
    cur = _Cursor(lexemes, "ORDER BY")
    items = [_order_item(cur, lenient)]
    while cur.peek() == ",":
        cur.take()
        items.append(_order_item(cur, lenient))
    if not cur.done():
        cur.fail(f"unexpected {cur.peek()!r}")
    return tuple(items)


def _order_item(cur: _Cursor, lenient: bool) -> OrderItem:
    expr = _value_expr(cur, lenient)
    direction = cur.peek()
    if direction in {"ASC", "DESC"}:
        cur.take()
        return OrderItem(expr, descending=direction == "DESC")
    if not lenient:
        cur.fail("sort direction (ASC or DESC) is required")
    return OrderItem(expr)


def parse_limit_body(lexemes: Sequence[str]) -> Constant | None:
    if not lexemes:
        return None
    cur = _Cursor(lexemes, "LIMIT")
    lexeme = cur.take()
    if not is_number(lexeme) or not lexeme.isdigit():
        cur.fail(f"expected a non-negative integer, found {lexeme!r}")
    if not cur.done():
        cur.fail(f"unexpected {cur.peek()!r}")
    return Constant(lexeme)


# -- Whole-query parsing ----------------------------------------------------

_CLAUSE_GRAMMARS: dict[ClauseKind, Callable[[Sequence[str]], object]] = {
    ClauseKind.SELECT: parse_select_body,
    ClauseKind.FROM: parse_from_body,
    ClauseKind.WHERE: functools.partial(parse_condition_body, clause="WHERE"),
    ClauseKind.GROUP_BY: parse_group_body,
    ClauseKind.HAVING: functools.partial(parse_condition_body, clause="HAVING"),
    ClauseKind.ORDER_BY: parse_order_body,
    ClauseKind.LIMIT: parse_limit_body,
}


def parse_clause_body(kind: ClauseKind, body: Sequence[str]) -> object:
    """Strict-parse one terminated clause body (keyword stripped).

    ``_CLAUSE_GRAMMARS`` is the single place that knows which grammar
    parses which clause.  The result is ``(distinct, items)`` for SELECT
    and the matching ``parse_*_body`` result for every other clause.
    """
    return _CLAUSE_GRAMMARS[kind](body)


# A clause parse depends only on its kind and body, so every search in
# the process, on any thread, shares one cache; two threads at worst
# both parse a body once.  68-90% of the bodies a search meets were
# parsed by an earlier search.  Each seed-11 benchmark workload meets
# 1,362-1,388 distinct bodies in all, whose ASTs take 0.5-0.9 MB, so
# the bound holds the whole set of each.
_PARSE_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _parsed_clause(kind: ClauseKind, body: tuple[str, ...]) -> object:
    try:
        return parse_clause_body(kind, body)
    except ParseError as exc:
        return exc.with_traceback(None)


def parse_clause_cached(kind: ClauseKind, body: tuple[str, ...]) -> object:
    """``parse_clause_body`` through the process-wide clause cache.

    The AST is shared, which is safe because it is immutable; a body
    that does not parse raises a fresh ``ParseError`` with the same
    message each time.
    """
    parsed = _parsed_clause(kind, body)
    if isinstance(parsed, ParseError):
        raise ParseError(str(parsed))
    return parsed


def parse_clause_bodies(
    bodies: Mapping[ClauseKind, tuple[str, ...]],
) -> NormalizedQuery:
    """Parse the seven clause bodies of a finished query into a query
    structure, through the clause cache."""
    clauses = {kind: parse_clause_cached(kind, body) for kind, body in bodies.items()}
    distinct, items = clauses[ClauseKind.SELECT]
    return NormalizedQuery(
        select=items,
        from_clause=clauses[ClauseKind.FROM],
        where=clauses[ClauseKind.WHERE],
        group_by=clauses[ClauseKind.GROUP_BY],
        having=clauses[ClauseKind.HAVING],
        order_by=clauses[ClauseKind.ORDER_BY],
        limit=clauses[ClauseKind.LIMIT],
        distinct=distinct,
    )


# The clause each line of a text belongs to, by position; None after LIMIT.
_LINE_CLAUSES = (*CLAUSE_ORDER, None)


def parse_complete(text: str) -> NormalizedQuery:
    """Parse fully rendered canonical text back into a query structure.

    Splits the lines in clause order with ``parse_partial``.  Raises
    :class:`StructureError` (:class:`ClauseOrderViolation` among them)
    when the text is not seven terminated clause lines, and
    :class:`ParseError` when a clause body does not parse.
    """
    *lines, current = text.split("\n")
    bodies: dict[ClauseKind, tuple[str, ...]] = {}
    for kind, line in zip(_LINE_CLAUSES, lines):
        _, body, _, error = parse_partial(kind, line, terminated=True)
        if error is not None:
            raise StructureError(error)
        bodies[kind] = body
    kind = _LINE_CLAUSES[len(bodies)]
    error = parse_partial(kind, current)[3]
    if error is not None:
        raise StructureError(error)
    if kind is not None:
        raise StructureError("query text is incomplete")
    return parse_clause_bodies(bodies)
