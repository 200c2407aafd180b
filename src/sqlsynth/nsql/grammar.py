"""One clause grammar for the canonical and the free-form dialect.

A cursor reads a list of lexeme strings in one dialect.  The strict
dialect accepts exactly what the renderer emits: qualified column
references, explicit ASC/DESC, joins with ON and no aliases; it reads
one clause body at a time, through ``parse_clause_body``.  The lenient
dialect, for free-form SQL, also accepts bare column names, table
aliases, comma and ON-less joins and omitted sort directions, producing
placeholders that the normalizer resolves against a schema;
``parse_statement`` reads a whole free-form statement with it in one
pass, clause by clause in the canonical order.  The same productions
read both: they ask the cursor which dialect it carries, so one FROM
parser, one subquery body and one separated-list loop serve both, and
one table, ``_OPTIONAL_CLAUSES``, names the production of each clause
after FROM for a clause body and a statement alike.

``parse_partial`` splits one line of possibly unfinished canonical text,
the line at position ``i`` belonging to ``CLAUSE_ORDER[i]``, into the
keyword lexemes still owed and the body lexemes, without judging the
body.  The checker, ``parse_complete`` and repair strict-parse
terminated clause bodies through ``parse_clause_cached``, one bounded,
process-wide cache: they meet the same bodies again and again, within a
search and across searches.  Both return a fault, never raise it.
``clause_bodies``, the one reader of finished text, splits each of its
lines with ``parse_partial``, for ``parse_complete`` and repair; only
the whole-query readers, ``clause_bodies``, ``parse_complete`` and
``parse_clause_bodies``, raise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, TypeVar

from .errors import ClauseOrderViolation, ParseError, StructureError
from .lexemes import (
    AGGREGATIONS,
    COMPARISONS,
    is_column_ref,
    is_constant,
    is_identifier,
    is_number,
    is_string_const,
    split_line,
)
from .query import (
    AggExpr,
    BoolOp,
    CLAUSE_ORDER,
    CLAUSE_STARTS,
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

_Item = TypeVar("_Item")


class _Cursor:
    """Lexemes being read, and the dialect they are read in.

    ``clause`` labels each error: the clause being read.  ``lenient``
    selects the free-form dialect.  ``in_subquery`` is set while the
    WHERE of an IN-subquery is read, where a second level of nesting is
    refused.
    """

    def __init__(
        self, lexemes: Sequence[str], clause: str, lenient: bool = False
    ) -> None:
        # A None after the last lexeme stands for the end, so no read
        # checks the length; no read moves past it.
        self._lexemes = [*lexemes, None]
        self.clause = clause
        self._pos = 0
        self.lenient = lenient
        self.in_subquery = False

    def peek(self) -> str | None:
        return self._lexemes[self._pos]

    def take(self) -> str:
        lexeme = self._lexemes[self._pos]
        if lexeme is None:
            self.fail("unexpected end of clause")
        self._pos += 1
        return lexeme

    def accept(self, lexeme: str) -> bool:
        """Take ``lexeme`` if it comes next."""
        if self._lexemes[self._pos] != lexeme:
            return False
        self._pos += 1
        return True

    def expect(self, lexeme: str) -> None:
        got = self.take()
        if got != lexeme:
            self.fail(f"expected {lexeme!r}, found {got!r}")

    def done(self) -> bool:
        return self._lexemes[self._pos] is None

    def fail(self, message: str) -> None:
        raise ParseError(f"{self.clause}: {message}")


def _separated(
    cur: _Cursor, separator: str, item: Callable[[_Cursor], _Item]
) -> tuple[_Item, ...]:
    """One ``item``, then one more after each ``separator``."""
    items = [item(cur)]
    while cur.accept(separator):
        items.append(item(cur))
    return tuple(items)


def _column_ref(cur: _Cursor) -> ColumnRef:
    lexeme = cur.take()
    if is_column_ref(lexeme):
        table, column = lexeme.split(".", 1)
        return ColumnRef(table, column)
    if cur.lenient and is_identifier(lexeme):
        return ColumnRef(UNQUALIFIED, lexeme)
    cur.fail(f"expected a column reference, found {lexeme!r}")
    raise AssertionError("unreachable")


def _agg_expr(cur: _Cursor) -> AggExpr:
    func = cur.take()
    cur.expect("(")
    distinct = cur.accept("DISTINCT")
    arg: ColumnRef | Star
    if cur.accept("*"):
        if func != "COUNT":
            cur.fail("a star argument is only valid for COUNT")
        if distinct:
            cur.fail("DISTINCT takes a column, not a star")
        arg = Star()
    else:
        arg = _column_ref(cur)
    cur.expect(")")
    return AggExpr(func, arg, distinct)


def _value_expr(cur: _Cursor) -> ColumnRef | AggExpr:
    if cur.peek() in AGGREGATIONS:
        return _agg_expr(cur)
    return _column_ref(cur)


def _constant(cur: _Cursor) -> Constant:
    lexeme = cur.take()
    if not is_constant(lexeme):
        cur.fail(f"expected a constant, found {lexeme!r}")
    return Constant(lexeme)


# -- SELECT -----------------------------------------------------------------


def _select(cur: _Cursor, stop: frozenset[str]) -> tuple[bool, tuple[SelectItem, ...]]:
    """``DISTINCT`` and the output expressions, up to a lexeme in ``stop``."""
    if cur.done():
        cur.fail("at least one output expression is required")
    distinct = cur.accept("DISTINCT")
    items = _separated(cur, ",", _select_item)
    if not cur.done() and cur.peek() not in stop:
        cur.fail(f"unexpected {cur.peek()!r} after output expression")
    return distinct, items


def _select_item(cur: _Cursor) -> SelectItem:
    if cur.accept("*"):
        return SelectItem(Star())
    return SelectItem(_value_expr(cur))


# -- FROM -------------------------------------------------------------------


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
    joined: list[tuple[LooseTable, tuple[tuple[ColumnRef, ColumnRef], ...]]] = field(
        default_factory=list
    )
    unjoined: list[LooseTable] = field(default_factory=list)


def _from(cur: _Cursor, stop: frozenset[str]) -> LooseFrom:
    """The tables and joins up to a lexeme in ``stop``.  The strict
    dialect reads no alias and no comma, and requires ``ON``."""
    loose = LooseFrom(base=_loose_table(cur))
    while not cur.done() and cur.peek() not in stop:
        lexeme = cur.take()
        if lexeme == "," and cur.lenient:
            loose.unjoined.append(_loose_table(cur))
        elif lexeme == "JOIN":
            table = _loose_table(cur)
            if cur.peek() == "ON" or not cur.lenient:
                cur.expect("ON")
                loose.joined.append((table, _separated(cur, "AND", _join_condition)))
            else:
                loose.unjoined.append(table)
        else:
            cur.fail(f"unexpected {lexeme!r}")
    return loose


def _from_clause(loose: LooseFrom) -> FromClause:
    """A FROM read in the strict dialect, which has no aliases."""
    joins = (JoinEdge(table.name, on) for table, on in loose.joined)
    return FromClause(loose.base.name, tuple(joins))


def _table_name(cur: _Cursor) -> str:
    lexeme = cur.take()
    if not is_identifier(lexeme):
        cur.fail(f"expected a table name, found {lexeme!r}")
    return lexeme


def _loose_table(cur: _Cursor) -> LooseTable:
    name = _table_name(cur)
    if not cur.lenient:
        return LooseTable(name)
    if cur.accept("AS"):
        alias = cur.take()
        if not is_identifier(alias):
            cur.fail(f"expected an alias, found {alias!r}")
        return LooseTable(name, alias)
    following = cur.peek()
    if following is not None and is_identifier(following):
        return LooseTable(name, cur.take())  # bare alias, no AS
    return LooseTable(name)


def _join_condition(cur: _Cursor) -> tuple[ColumnRef, ColumnRef]:
    left = _column_ref(cur)
    cur.expect("=")
    right = _column_ref(cur)
    return left, right


# -- WHERE / HAVING ---------------------------------------------------------


def _or_expr(cur: _Cursor) -> Condition:
    terms = _separated(cur, "OR", _and_expr)
    return terms[0] if len(terms) == 1 else BoolOp("OR", terms)


def _and_expr(cur: _Cursor) -> Condition:
    terms = _separated(cur, "AND", _condition_atom)
    return terms[0] if len(terms) == 1 else BoolOp("AND", terms)


def _condition_atom(cur: _Cursor) -> Condition:
    if cur.accept("("):
        inner = _or_expr(cur)
        cur.expect(")")
        return inner
    lhs = _value_expr(cur)
    negated = cur.accept("NOT")
    if negated and cur.peek() not in {"IN", "BETWEEN", "LIKE"}:
        cur.fail(f"unexpected {cur.peek()!r} after NOT")
    op = cur.take()
    if op == "IN":
        return _in_predicate(cur, lhs, negated)
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
        lexeme = cur.peek()
        if lexeme is not None and is_constant(lexeme):
            cur.take()
            return Predicate(lhs, op, Constant(lexeme))
        return Predicate(lhs, op, _column_ref(cur))
    cur.fail(f"expected a comparison operator, found {op!r}")
    raise AssertionError("unreachable")


def _in_predicate(cur: _Cursor, lhs: ColumnRef | AggExpr, negated: bool) -> Predicate:
    cur.expect("(")
    rhs: NormalizedQuery | LooseQuery | tuple[Constant, ...]
    if cur.peek() == "SELECT":
        if cur.in_subquery:
            cur.fail("nested subqueries are not supported")
        rhs = _subquery(cur)
    else:
        rhs = _separated(cur, ",", _constant)
    cur.expect(")")
    return Predicate(lhs, "IN", rhs, negated)


@dataclass
class LooseQuery:
    """A statement or an IN-subquery parsed leniently, before alias
    resolution.  A subquery has no clause after WHERE."""

    distinct: bool
    items: tuple[SelectItem, ...]
    from_clause: LooseFrom
    where: Condition | None = None
    group_by: tuple[ColumnRef, ...] = ()
    having: Condition | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Constant | None = None


def _subquery(cur: _Cursor) -> NormalizedQuery | LooseQuery:
    cur.expect("SELECT")
    distinct, items = _select(cur, stop=frozenset({"FROM"}))
    cur.expect("FROM")
    loose_from = _from(cur, stop=frozenset({"WHERE", ")"}))
    where = None
    if cur.accept("WHERE"):
        cur.in_subquery = True
        where = _or_expr(cur)
        cur.in_subquery = False
    if cur.lenient:
        return LooseQuery(distinct, items, loose_from, where)
    return NormalizedQuery(
        select=items,
        from_clause=_from_clause(loose_from),
        where=where,
        distinct=distinct,
    )


# -- GROUP BY / ORDER BY / LIMIT -------------------------------------------


def _order_item(cur: _Cursor) -> OrderItem:
    expr = _value_expr(cur)
    direction = cur.peek()
    if direction in {"ASC", "DESC"}:
        cur.take()
        return OrderItem(expr, descending=direction == "DESC")
    if not cur.lenient:
        cur.fail("sort direction (ASC or DESC) is required")
    return OrderItem(expr)


def _limit(cur: _Cursor) -> Constant:
    lexeme = cur.take()
    if not is_number(lexeme) or not lexeme.isdigit():
        cur.fail(f"expected a non-negative integer, found {lexeme!r}")
    return Constant(lexeme)


# -- Clause bodies and whole statements ------------------------------------

# The clauses after FROM, in clause order: the production that reads a
# clause's body and the value of an empty one.  Each production's result
# is the query field named after its clause, in ``_FIELDS``.
_OPTIONAL_CLAUSES: dict[ClauseKind, tuple[Callable[[_Cursor], object], object]] = {
    ClauseKind.WHERE: (_or_expr, None),
    ClauseKind.GROUP_BY: (lambda cur: _separated(cur, ",", _column_ref), ()),
    ClauseKind.HAVING: (_or_expr, None),
    ClauseKind.ORDER_BY: (lambda cur: _separated(cur, ",", _order_item), ()),
    ClauseKind.LIMIT: (_limit, None),
}

# The query field each clause after FROM fills, ``kind.name.lower()``.
_FIELDS = {kind: kind.name.lower() for kind in _OPTIONAL_CLAUSES}

# The lexemes that end a clause of a statement.
_CLAUSE_KEYWORDS = frozenset(CLAUSE_STARTS)

# Each clause after FROM as a statement reads it: the clause's name, its
# keyword's first lexeme and the rest, its field and its production,
# looked up once here rather than at every statement.
_STATEMENT_CLAUSES = tuple(
    (kind.value, kind.keyword_lexemes[0], kind.keyword_lexemes[1:], _FIELDS[kind],
     production)
    for kind, (production, _) in _OPTIONAL_CLAUSES.items()
)


def parse_clause_body(kind: ClauseKind, body: Sequence[str]) -> object:
    """Strict-parse one terminated clause body (keyword stripped).

    The result is ``(distinct, items)`` for SELECT, a ``FromClause`` for
    FROM, and for a clause after FROM the value of the query field named
    after it: its production in ``_OPTIONAL_CLAUSES`` reads a body, and
    an empty body is that table's empty value.
    """
    cur = _Cursor(body, kind.value)
    if kind is ClauseKind.SELECT:
        return _select(cur, frozenset())
    if kind is ClauseKind.FROM:
        return _from_clause(_from(cur, frozenset()))
    production, empty = _OPTIONAL_CLAUSES[kind]
    if cur.done():
        return empty
    value = production(cur)
    if not cur.done():
        cur.fail(f"unexpected {cur.peek()!r}")
    return value


def parse_statement(lexemes: Sequence[str]) -> LooseQuery:
    """Read a whole free-form statement in the lenient dialect.

    SELECT and a FROM come first, then the clauses of
    ``_OPTIONAL_CLAUSES``, each optional, in that order.  Any of these
    may be its keyword alone, as canonical text writes an empty clause.
    Each error names the clause being read when it was found.
    """
    cur = _Cursor(lexemes, "SELECT", lenient=True)
    cur.expect("SELECT")
    distinct, items = _select(cur, _CLAUSE_KEYWORDS)
    cur.expect("FROM")
    cur.clause = "FROM"
    query = LooseQuery(distinct, items, _from(cur, _CLAUSE_KEYWORDS))
    for clause, first, rest, name, production in _STATEMENT_CLAUSES:
        if not cur.accept(first):
            continue
        cur.clause = clause
        for lexeme in rest:
            cur.expect(lexeme)
        if not cur.done() and cur.peek() not in _CLAUSE_KEYWORDS:  # a body follows
            setattr(query, name, production(cur))
    if not cur.done():
        cur.fail(f"unexpected {cur.peek()!r}")
    return query


# -- Whole canonical queries -----------------------------------------------

# A clause parse depends only on its kind and body, so every search in
# the process, on any thread, shares one cache; two threads at worst
# both parse a body once.  68-90% of the bodies a search meets were
# parsed by an earlier search.  Each seed-11 benchmark workload meets
# 1,362-1,388 distinct bodies in all, whose ASTs take 0.5-0.9 MB, so
# the bound holds the whole set of each.
_PARSE_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def parse_clause_cached(kind: ClauseKind, body: tuple[str, ...]) -> object:
    """``parse_clause_body`` through the process-wide clause cache: the
    shared, immutable AST, or the ``ParseError`` the body raised, with
    its traceback cleared, returned and never raised."""
    try:
        return parse_clause_body(kind, body)
    except ParseError as exc:
        return exc.with_traceback(None)


def parse_clause_bodies(
    bodies: Mapping[ClauseKind, tuple[str, ...]],
) -> NormalizedQuery:
    """Parse the seven clause bodies of a finished query into a query
    structure, through the clause cache.  Raises a fresh ``ParseError``
    with the message of the first clause's cached fault."""
    clauses: dict[ClauseKind, object] = {}
    for kind, body in bodies.items():
        parsed = clauses[kind] = parse_clause_cached(kind, body)
        if isinstance(parsed, ParseError):
            raise ParseError(str(parsed))
    distinct, items = clauses[ClauseKind.SELECT]
    return NormalizedQuery(
        select=items,
        from_clause=clauses[ClauseKind.FROM],
        distinct=distinct,
        **{name: clauses[kind] for kind, name in _FIELDS.items()},
    )


_KEYWORDS = {kind: kind.keyword_lexemes for kind in CLAUSE_ORDER}

# One clause line: (keyword lexemes still owed, body lexemes after the
# keyword, final open fragment, fault).  A plain tuple: a named tuple
# took about 0.65 us more to build (Python 3.11), and every line of
# every parse and every check builds one.
LineParse = tuple[tuple[str, ...], tuple[str, ...], str | None, StructureError | None]


def parse_partial(
    kind: ClauseKind | None, line: str, *, terminated: bool = False
) -> LineParse:
    """Split one line that must belong to clause ``kind``.

    ``kind`` is None once the LIMIT line has terminated, when any
    further text is a fault.  A ``terminated`` line (given without its
    newline) must be canonically spaced and carry its whole keyword.
    The fault is returned, never raised: a :class:`ClauseOrderViolation`
    when the line starts with the keyword of another clause, else a
    :class:`StructureError`.
    """
    if kind is None:
        if line or terminated:
            return (), (), None, StructureError("text continues after the LIMIT line")
        return (), (), None, None
    if terminated and (line == "" or line.endswith(" ")):
        fault = StructureError(f"non-canonical spacing in {kind.value} line")
        return (), (), None, fault
    lexemes, fragment = split_line(line, terminated=terminated)
    keyword = _KEYWORDS[kind]
    matched = 0
    for lexeme in lexemes[: len(keyword)]:
        if lexeme != keyword[matched]:
            break
        matched += 1
    else:  # a keyword prefix: whole, or still being typed
        if matched == len(keyword) or not terminated:
            return keyword[matched:], tuple(lexemes[matched:]), fragment, None
    other = CLAUSE_STARTS.get(lexemes[0]) if matched == 0 else None
    if other is not None:
        message = f"{other.value} line where {kind.value} was expected"
        return keyword, (), fragment, ClauseOrderViolation(message)
    fault = StructureError(f"{kind.value} line does not start with its keyword")
    return keyword[matched:], (), fragment, fault


# The clause each line of a text belongs to, by position; None after LIMIT.
_LINE_CLAUSES = (*CLAUSE_ORDER, None)


def clause_bodies(text: str) -> dict[ClauseKind, tuple[str, ...]]:
    """The body lexemes of each clause of fully rendered canonical text,
    in clause order: its lines split with ``parse_partial``.

    Raises the first line's fault, a :class:`StructureError` (or its
    subclass :class:`ClauseOrderViolation`).
    """
    *lines, current = text.split("\n")
    bodies: dict[ClauseKind, tuple[str, ...]] = {}
    for kind, line in zip(_LINE_CLAUSES, lines):
        _, body, _, fault = parse_partial(kind, line, terminated=True)
        if fault is not None:
            raise fault
        bodies[kind] = body
    kind = _LINE_CLAUSES[len(bodies)]
    fault = parse_partial(kind, current)[3]
    if fault is not None:
        raise fault
    if kind is not None:
        raise StructureError("query text is incomplete")
    return bodies


def parse_complete(text: str) -> NormalizedQuery:
    """Parse fully rendered canonical text back into a query structure.

    Raises the first line's fault, as ``clause_bodies`` does, or
    :class:`ParseError` when a clause body does not parse.
    """
    return parse_clause_bodies(clause_bodies(text))
