"""Immutable query structure for the canonical SQL dialect.

The dialect admits exactly one ``SELECT`` block with seven clauses in a
fixed order; a rendered query prints one clause per line even when a
clause is empty.  All column references are table-qualified, so the
structure never stores aliases.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union


class ClauseKind(enum.Enum):
    SELECT = "SELECT"
    FROM = "FROM"
    WHERE = "WHERE"
    GROUP_BY = "GROUP BY"
    HAVING = "HAVING"
    ORDER_BY = "ORDER BY"
    LIMIT = "LIMIT"

    # Members are singletons that compare by identity; Enum.__hash__ is Python.
    __hash__ = object.__hash__

    def __init__(self, keyword: str) -> None:
        # A plain attribute: an enum property costs a call a read.
        self.keyword_lexemes = tuple(keyword.split(" "))


CLAUSE_ORDER: tuple[ClauseKind, ...] = (
    ClauseKind.SELECT,
    ClauseKind.FROM,
    ClauseKind.WHERE,
    ClauseKind.GROUP_BY,
    ClauseKind.HAVING,
    ClauseKind.ORDER_BY,
    ClauseKind.LIMIT,
)

# The clause each clause keyword's first lexeme starts.
CLAUSE_STARTS: dict[str, ClauseKind] = {
    kind.keyword_lexemes[0]: kind for kind in CLAUSE_ORDER
}


@dataclass(frozen=True)
class ColumnRef:
    table: str
    column: str

    def render(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass(frozen=True)
class Star:
    def render(self) -> str:
        return "*"


@dataclass(frozen=True)
class Constant:
    """A literal lexeme, kept verbatim (strings retain their quotes)."""

    lexeme: str

    def render(self) -> str:
        return self.lexeme


@dataclass(frozen=True)
class AggExpr:
    func: str
    arg: Union[ColumnRef, Star]
    distinct: bool = False

    def render(self) -> str:
        inner = "DISTINCT " + self.arg.render() if self.distinct else self.arg.render()
        return f"{self.func} ( {inner} )"


SelectExpr = Union[ColumnRef, Star, AggExpr]
ValueExpr = Union[ColumnRef, AggExpr]


@dataclass(frozen=True)
class Predicate:
    """A comparison, LIKE, BETWEEN or IN test on one value expression."""

    lhs: ValueExpr
    op: str
    rhs: Union[Constant, ColumnRef, "NormalizedQuery", tuple[Constant, ...]]
    negated: bool = False

    def render(self) -> str:
        lhs = self.lhs.render()
        neg = "NOT " if self.negated else ""
        if self.op == "BETWEEN":
            low, high = self.rhs  # type: ignore[misc]
            return f"{lhs} {neg}BETWEEN {low.render()} AND {high.render()}"
        if self.op == "IN":
            if isinstance(self.rhs, NormalizedQuery):
                return f"{lhs} {neg}IN ( {denormalize_text(self.rhs.render())} )"
            items = " , ".join(c.render() for c in self.rhs)  # type: ignore[union-attr]
            return f"{lhs} {neg}IN ( {items} )"
        rhs = self.rhs.render()  # type: ignore[union-attr]
        if self.op == "LIKE":
            return f"{lhs} {neg}LIKE {rhs}"
        return f"{lhs} {self.op} {rhs}"


@dataclass(frozen=True)
class BoolOp:
    """An AND / OR combination, flattened to n-ary form."""

    op: str
    operands: tuple[Union[Predicate, "BoolOp"], ...]

    def render(self) -> str:
        parts = []
        for term in self.operands:
            if isinstance(term, BoolOp):
                parts.append("( " + term.render() + " )")
            else:
                parts.append(term.render())
        return f" {self.op} ".join(parts)


Condition = Union[Predicate, BoolOp]


@dataclass(frozen=True)
class JoinEdge:
    table: str
    conditions: tuple[tuple[ColumnRef, ColumnRef], ...]

    def render(self) -> str:
        conds = " AND ".join(f"{a.render()} = {b.render()}" for a, b in self.conditions)
        return f"JOIN {self.table} ON {conds}"


@dataclass(frozen=True)
class FromClause:
    first: str
    joins: tuple[JoinEdge, ...] = ()

    @property
    def tables(self) -> tuple[str, ...]:
        return (self.first,) + tuple(j.table for j in self.joins)

    def render(self) -> str:
        parts = [self.first]
        parts.extend(j.render() for j in self.joins)
        return " ".join(parts)


@dataclass(frozen=True)
class SelectItem:
    expr: SelectExpr

    def render(self) -> str:
        return self.expr.render()


@dataclass(frozen=True)
class OrderItem:
    expr: ValueExpr
    descending: bool = False

    def render(self) -> str:
        return f"{self.expr.render()} {'DESC' if self.descending else 'ASC'}"


@dataclass(frozen=True)
class NormalizedQuery:
    select: tuple[SelectItem, ...]
    from_clause: FromClause
    where: Condition | None = None
    group_by: tuple[ColumnRef, ...] = ()
    having: Condition | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Constant | None = None
    distinct: bool = False

    def render(self) -> str:
        """One line per clause, in clause order: the keyword and the
        clause body, or the keyword alone for an empty body.  This is the
        one spelling of a clause body: ``grammar.clause_bodies`` reads
        the bodies back as lexemes."""
        where, having, limit = self.where, self.having, self.limit
        select = " , ".join([item.expr.render() for item in self.select])
        bodies = (
            "DISTINCT " + select if self.distinct else select,
            self.from_clause.render(),
            where.render() if where else "",
            " , ".join([column.render() for column in self.group_by]),
            having.render() if having else "",
            " , ".join([item.render() for item in self.order_by]),
            limit.render() if limit else "",
        )
        return "".join(
            [
                f"{keyword} {body}\n" if body else keyword + "\n"
                for keyword, body in zip(_CLAUSE_NAMES, bodies)
            ]
        )


_CLAUSE_NAMES = tuple(kind.value for kind in CLAUSE_ORDER)
_KEYWORD_LINES = frozenset(_CLAUSE_NAMES)


def denormalize_text(rendered: str) -> str:
    """Collapse canonical text to one executable line, dropping the
    bare keyword lines that stand for empty clauses.  Lines end at
    ``"\n"`` only: a string constant may hold any other line break."""
    return " ".join(
        line for line in rendered.split("\n") if line and line not in _KEYWORD_LINES
    )


# -- Constant-insensitive structural equality -------------------------------

Skeleton = tuple


def _expr_key(expr: object) -> Skeleton:
    if isinstance(expr, ColumnRef):
        return ("col", expr.table.lower(), expr.column.lower())
    if isinstance(expr, Star):
        return ("star",)
    if isinstance(expr, AggExpr):
        return ("agg", expr.func, expr.distinct, _expr_key(expr.arg))
    raise TypeError(f"unexpected expression {expr!r}")


def _rhs_key(rhs: object) -> Skeleton:
    if isinstance(rhs, Constant):
        return ("const",)
    if isinstance(rhs, ColumnRef):
        return _expr_key(rhs)
    if isinstance(rhs, NormalizedQuery):
        return ("subquery", query_skeleton(rhs))
    if isinstance(rhs, tuple):
        return ("in-list",)
    raise TypeError(f"unexpected rhs {rhs!r}")


def _condition_key(cond: Condition | None) -> Skeleton:
    if cond is None:
        return ("none",)
    if isinstance(cond, Predicate):
        return ("pred", _expr_key(cond.lhs), cond.op, cond.negated, _rhs_key(cond.rhs))
    keys = sorted(_condition_key(c) for c in cond.operands)
    return ("bool", cond.op, tuple(keys))


def _from_key(clause: FromClause) -> Skeleton:
    tables = tuple(sorted(t.lower() for t in clause.tables))
    edges = set()
    for join in clause.joins:
        for a, b in join.conditions:
            pair = tuple(sorted((_expr_key(a), _expr_key(b))))
            edges.add(pair)
    return ("from", tables, tuple(sorted(edges)))


def query_skeleton(query: NormalizedQuery) -> Skeleton:
    """A hashable shape of the query with every constant erased."""
    return (
        query.distinct,
        tuple(sorted(_expr_key(i.expr) for i in query.select)),
        _from_key(query.from_clause),
        _condition_key(query.where),
        tuple(sorted(_expr_key(c) for c in query.group_by)),
        _condition_key(query.having),
        tuple((_expr_key(i.expr), i.descending) for i in query.order_by),
        query.limit is not None,
    )


def exact_match(left: NormalizedQuery, right: NormalizedQuery) -> bool:
    """Structural equality up to constants, list order in SELECT and
    GROUP BY, conjunct order, and join orientation."""
    return query_skeleton(left) == query_skeleton(right)
