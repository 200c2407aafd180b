"""Rewrite standard SQL into the canonical dialect.

Scans the text (uppercasing keywords), reads the whole statement with
the grammar's one lenient production, ``parse_statement``, and resolves
its names in one function, ``_resolve``, which serves an IN-subquery as
well: it expands and erases aliases, qualifies every column with its
owning table and lifts comma-join conditions out of WHERE into ON.  The
rendered query completes the clause set.  Queries the alias-free dialect
cannot express (self-joins, set operations) are rejected with dedicated
errors so dataset rewriting can report them.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..tasks import DatabaseSchema, Table, TaskInstance
from .errors import (
    AmbiguousColumn,
    NormalizationError,
    ParseError,
    SelfJoinUnsupported,
    SetOperationUnsupported,
    UnknownName,
)
from .grammar import LooseFrom, LooseQuery, LooseTable, parse_statement
from .lexemes import SET_OPERATIONS, scan_sql
from .query import (
    AggExpr,
    BoolOp,
    ColumnRef,
    Condition,
    FromClause,
    JoinEdge,
    NormalizedQuery,
    OrderItem,
    Predicate,
    SelectItem,
)


class _Scope:
    """Resolved FROM environment: the FROM tables, and the table each
    alias names, by lowercased name."""

    def __init__(
        self,
        schema: DatabaseSchema,
        loose: LooseFrom,
        outer: "_Scope | None" = None,
    ) -> None:
        self.schema = schema
        self.outer = outer
        self.aliases: dict[str, Table] = {}
        self.tables: dict[str, Table] = {}
        for loose_table in self._all_tables(loose):
            table = schema.table(loose_table.name)
            if table is None:
                raise UnknownName(f"unknown table {loose_table.name!r}")
            key = table.name.lower()
            if key in self.tables:
                raise SelfJoinUnsupported(table.name)
            self.tables[key] = table
            if loose_table.alias is not None:
                alias = loose_table.alias.lower()
                if alias in self.aliases:
                    raise NormalizationError(f"duplicate alias {loose_table.alias!r}")
                self.aliases[alias] = table

    @staticmethod
    def _all_tables(loose: LooseFrom) -> Iterable[LooseTable]:
        yield loose.base
        for table, _ in loose.joined:
            yield table
        yield from loose.unjoined

    def resolve_table(self, name: str) -> Table | None:
        key = name.lower()
        return self.aliases.get(key) or self.tables.get(key)

    def resolve_column(self, ref: ColumnRef) -> ColumnRef:
        """``ref`` with its owning table's and its column's schema names;
        ``ref`` itself when it already spells both."""
        if ref.table:
            table = self.resolve_table(ref.table)
            if table is None and self.outer is not None:
                table = self.outer.resolve_table(ref.table)
            if table is None:
                # A schema table referenced without appearing in FROM is
                # left intact; execution surfaces the scope error.
                table = self.schema.table(ref.table)
                if table is None:
                    raise UnknownName(f"unknown table {ref.table!r}")
            column = table.column(ref.column)
            if column is None:
                raise UnknownName(f"unknown column {table.name}.{ref.column}")
        else:
            owners = [
                (table, column)
                for table in self.tables.values()
                if (column := table.column(ref.column)) is not None
            ]
            if len(owners) > 1:
                raise AmbiguousColumn(ref.column)
            if not owners:
                if self.outer is not None:
                    return self.outer.resolve_column(ref)
                raise UnknownName(f"no FROM table owns column {ref.column!r}")
            table, column = owners[0]
        if ref.table == table.name and ref.column == column.name:
            return ref
        return ColumnRef(table.name, column.name)


def _flatten_and(condition: Condition | None) -> list[Condition]:
    if condition is None:
        return []
    if isinstance(condition, BoolOp) and condition.op == "AND":
        flattened: list[Condition] = []
        for operand in condition.operands:
            flattened.extend(_flatten_and(operand))
        return flattened
    return [condition]


def _rebuild_and(conjuncts: Sequence[Condition]) -> Condition | None:
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return BoolOp("AND", tuple(conjuncts))


def _resolve(loose: LooseQuery, scope: _Scope) -> NormalizedQuery:
    """Qualify every name of a statement, or of an IN-subquery in a scope
    whose ``outer`` is its statement's, and lift comma joins into ON.
    A part that needs no change is kept, not copied: every part is
    immutable."""
    where = _condition(loose.where, scope)
    from_clause, where = _build_from(loose.from_clause, where, scope)
    return NormalizedQuery(
        select=tuple([_select_item(item, scope) for item in loose.items]),
        from_clause=from_clause,
        where=where,
        group_by=tuple([scope.resolve_column(c) for c in loose.group_by]),
        having=_condition(loose.having, scope),
        order_by=tuple([_order_item(item, scope) for item in loose.order_by]),
        limit=loose.limit,
        distinct=loose.distinct,
    )


def _value_expr(expr, scope: _Scope):
    if isinstance(expr, ColumnRef):
        return scope.resolve_column(expr)
    if isinstance(expr, AggExpr) and isinstance(expr.arg, ColumnRef):
        arg = scope.resolve_column(expr.arg)
        return expr if arg is expr.arg else AggExpr(expr.func, arg, expr.distinct)
    return expr  # a star, alone or counted


def _select_item(item: SelectItem, scope: _Scope) -> SelectItem:
    expr = _value_expr(item.expr, scope)
    return item if expr is item.expr else SelectItem(expr)


def _order_item(item: OrderItem, scope: _Scope) -> OrderItem:
    expr = _value_expr(item.expr, scope)
    return item if expr is item.expr else OrderItem(expr, item.descending)


def _condition(condition: Condition | None, scope: _Scope) -> Condition | None:
    if condition is None:
        return None
    if isinstance(condition, BoolOp):
        return BoolOp(
            condition.op, tuple([_condition(op, scope) for op in condition.operands])
        )
    lhs = _value_expr(condition.lhs, scope)
    rhs = condition.rhs
    if isinstance(rhs, ColumnRef):
        rhs = scope.resolve_column(rhs)
    elif isinstance(rhs, LooseQuery):
        rhs = _resolve(rhs, _Scope(scope.schema, rhs.from_clause, outer=scope))
    if lhs is condition.lhs and rhs is condition.rhs:
        return condition
    return Predicate(lhs, condition.op, rhs, condition.negated)


# -- FROM assembly ----------------------------------------------------------


def _build_from(
    loose: LooseFrom, where: Condition | None, scope: _Scope
) -> tuple[FromClause, Condition | None]:
    base = scope.resolve_table(loose.base.name).name
    joins: list[JoinEdge] = []
    connected = {base.lower()}
    for loose_table, conditions in loose.joined:
        table = scope.resolve_table(loose_table.name).name
        resolved = tuple(
            [(scope.resolve_column(a), scope.resolve_column(b)) for a, b in conditions]
        )
        joins.append(JoinEdge(table, resolved))
        connected.add(table.lower())

    pending = [scope.resolve_table(t.name).name for t in loose.unjoined]
    if pending:
        joins, where = _lift_joins(joins, where, connected, pending)
    return FromClause(base, tuple(joins)), where


def _lift_joins(
    joins: list[JoinEdge],
    where: Condition | None,
    connected: set[str],
    pending: list[str],
) -> tuple[list[JoinEdge], Condition | None]:
    conjuncts = _flatten_and(where)
    available = list(conjuncts)
    remaining = list(pending)
    while remaining:
        progressed = False
        for table in list(remaining):
            used = [
                conjunct for conjunct in available if _links(conjunct, table, connected)
            ]
            if not used:
                continue
            pairs = tuple(
                (conjunct.lhs, conjunct.rhs)  # type: ignore[union-attr]
                for conjunct in used
            )
            joins.append(JoinEdge(table, pairs))
            connected.add(table.lower())
            remaining.remove(table)
            for conjunct in used:
                available.remove(conjunct)
            progressed = True
        if not progressed:
            raise NormalizationError(f"no join condition for table {remaining[0]!r}")
    return joins, _rebuild_and(available)


def _links(conjunct: Condition, table: str, connected: set[str]) -> bool:
    if not isinstance(conjunct, Predicate) or conjunct.op != "=" or conjunct.negated:
        return False
    lhs, rhs = conjunct.lhs, conjunct.rhs
    if not isinstance(lhs, ColumnRef) or not isinstance(rhs, ColumnRef):
        return False
    sides = {lhs.table.lower(), rhs.table.lower()}
    return table.lower() in sides and bool((sides - {table.lower()}) & connected)


_SET_OPERATIONS = frozenset(SET_OPERATIONS)


def normalize(sql_text: str, schema: DatabaseSchema) -> NormalizedQuery:
    """Rewrite one standard-SQL query into canonical form.

    Raises SelfJoinUnsupported, SetOperationUnsupported, AmbiguousColumn,
    UnknownName or ParseError when the query falls outside the dialect.
    """
    lexemes = scan_sql(sql_text)
    if not _SET_OPERATIONS.isdisjoint(lexemes):
        raise SetOperationUnsupported(next(x for x in lexemes if x in _SET_OPERATIONS))
    loose = parse_statement(lexemes)
    return _resolve(loose, _Scope(schema, loose.from_clause))


def rewrite_dataset(
    tasks: Sequence[TaskInstance], schemas: Mapping[str, DatabaseSchema]
) -> tuple[list[TaskInstance], list[tuple[TaskInstance, str]]]:
    """Normalize every task's gold query.

    A task without a gold query is kept as it is.  Tasks whose gold query
    cannot be expressed in the dialect land in the rejected list together
    with the reason; they are data, not errors.
    """
    normalized: list[TaskInstance] = []
    rejected: list[tuple[TaskInstance, str]] = []
    for task in tasks:
        if not task.gold_query:
            normalized.append(task)
            continue
        try:
            query = normalize(task.gold_query, schemas[task.db_id])
        except (NormalizationError, ParseError) as exc:
            rejected.append((task, f"{type(exc).__name__}: {exc}"))
            continue
        # ``dataclasses.replace(task, gold_query=...)`` spelled out, as
        # replace walks the fields on every call; a test pins the two.
        normalized.append(
            TaskInstance(
                id=task.id,
                db_id=task.db_id,
                question=task.question,
                gold_query=query.render(),
                examples=task.examples,
            )
        )
    return normalized, rejected
