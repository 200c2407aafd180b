"""Static checks over possibly-incomplete canonical query text.

The checker sees only the database schema and the example tuple, never
the database contents.  Three checks run in order of cost: vocabulary
(per-lexeme category membership, with prefix membership for the final
unfinished lexeme), scope (every referenced table must appear in FROM),
and output types against the example.  Verdicts carry the error kind an
execution of the finished query would raise, which also powers the
4-label classifier used by the checker-comparison experiment.

Search checks a child of every expanded prefix, and children share
their terminated lines.  The checker ``make_checker`` returns therefore
keeps, per distinct head (the text up to and including the last
newline), every verdict that depends only on the terminated clauses;
checking a child parses and checks only its current line.  A new head is
its parent head plus one terminated line, and heads with equal verdicts
merge, so a text that differs from a checked one in one line (a repair
variant) rejoins its heads after that line.  Clause bodies are checked
and parsed through the search's clause memo, which the end-of-sequence
parse and repair share, so each distinct body is parsed once a search.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .nsql.errors import ClauseOrderViolation, ParseError
from .nsql.grammar import ClauseMemo
from .nsql.lexemes import (
    AGGREGATIONS,
    COMPARISONS,
    CONNECTIVES,
    is_column_ref,
    is_identifier,
    is_number,
    is_string_const,
)
from .nsql.partial import LineParse, PartialParse, parse_line, parse_partial
from .nsql.query import (
    CLAUSE_ORDER,
    AggExpr,
    BoolOp,
    ClauseKind,
    ColumnRef,
    Condition,
    NormalizedQuery,
    SelectItem,
    Star,
)
from .tasks import ColumnType, DatabaseSchema, ExampleTuple, NUMERIC_TYPES


class ErrorKind(enum.Enum):
    SYNTAX = "Syntax"
    RUNTIME = "Runtime"
    EXAMPLE = "Example"


@dataclass(frozen=True)
class CheckVerdict:
    ok: bool
    kind: ErrorKind | None = None
    clause: ClauseKind | None = None
    detail: str = ""

    @classmethod
    def rejected(
        cls, kind: ErrorKind, clause: ClauseKind | None, detail: str
    ) -> "CheckVerdict":
        return cls(ok=False, kind=kind, clause=clause, detail=detail)


PASS = CheckVerdict(ok=True)


# -- Vocabulary -------------------------------------------------------------


@dataclass(frozen=True)
class ClauseVocabulary:
    """Allowed lexeme sets and categories for one clause.

    ``nested_*`` entries apply additionally inside parentheses, where
    IN-subqueries and aggregation arguments live.
    """

    fixed: frozenset[str] = frozenset()
    nested_fixed: frozenset[str] = frozenset()
    classes: frozenset[str] = frozenset()
    nested_classes: frozenset[str] = frozenset()

    def fixed_at(self, depth: int) -> frozenset[str]:
        return self.fixed | self.nested_fixed if depth > 0 else self.fixed

    def classes_at(self, depth: int) -> frozenset[str]:
        return self.classes | self.nested_classes if depth > 0 else self.classes


_SUBQUERY_KEYWORDS = frozenset({"SELECT", "FROM", "WHERE", "JOIN", "ON", "DISTINCT"})
_CONDITION_FIXED = frozenset({"(", ")", ",", "NOT", "IN", "BETWEEN", "LIKE"})

CLAUSE_VOCABULARY: Mapping[ClauseKind, ClauseVocabulary] = {
    ClauseKind.SELECT: ClauseVocabulary(
        fixed=frozenset({"DISTINCT", "(", ")", ","}),
        classes=frozenset({"aggregation", "column_ref", "star"}),
    ),
    ClauseKind.FROM: ClauseVocabulary(
        fixed=frozenset({"JOIN", "ON", "=", "AND"}),
        classes=frozenset({"table", "column_ref"}),
    ),
    ClauseKind.WHERE: ClauseVocabulary(
        fixed=_CONDITION_FIXED,
        nested_fixed=_SUBQUERY_KEYWORDS,
        classes=frozenset({"column_ref", "constant", "comparison", "connective"}),
        nested_classes=frozenset({"aggregation", "star", "table"}),
    ),
    ClauseKind.GROUP_BY: ClauseVocabulary(
        fixed=frozenset({","}),
        classes=frozenset({"column_ref"}),
    ),
    ClauseKind.HAVING: ClauseVocabulary(
        fixed=_CONDITION_FIXED,
        nested_fixed=_SUBQUERY_KEYWORDS,
        classes=frozenset(
            {"column_ref", "constant", "comparison", "connective", "aggregation"}
        ),
        nested_classes=frozenset({"star", "table"}),
    ),
    ClauseKind.ORDER_BY: ClauseVocabulary(
        fixed=frozenset({"ASC", "DESC", "(", ")", ","}),
        nested_fixed=frozenset({"DISTINCT"}),
        classes=frozenset({"column_ref", "aggregation"}),
        nested_classes=frozenset({"star"}),
    ),
    ClauseKind.LIMIT: ClauseVocabulary(classes=frozenset({"integer"})),
}

_NUMBER_PREFIX_RE = re.compile(r"-?\d+(\.\d*)?")


def _schema_has_ref(schema: DatabaseSchema, lexeme: str) -> bool:
    table, column = lexeme.split(".", 1)
    return schema.column_type(table, column) is not None


def _lexeme_verdict(
    lexeme: str,
    clause: ClauseKind,
    depth: int,
    schema: DatabaseSchema,
) -> CheckVerdict:
    vocabulary = CLAUSE_VOCABULARY[clause]
    if lexeme in vocabulary.fixed_at(depth):
        return PASS
    classes = vocabulary.classes_at(depth)
    if "aggregation" in classes and lexeme in AGGREGATIONS:
        return PASS
    if "comparison" in classes and lexeme in COMPARISONS:
        return PASS
    if "connective" in classes and lexeme in CONNECTIVES:
        return PASS
    if "star" in classes and lexeme == "*":
        return PASS
    if "constant" in classes and (is_number(lexeme) or is_string_const(lexeme)):
        return PASS
    if "integer" in classes and lexeme.isdigit():
        return PASS
    if is_column_ref(lexeme):
        if "column_ref" in classes:
            if _schema_has_ref(schema, lexeme):
                return PASS
            return CheckVerdict.rejected(
                ErrorKind.RUNTIME, clause, f"{lexeme!r} is not a schema column"
            )
        return CheckVerdict.rejected(
            ErrorKind.SYNTAX, clause, f"column reference {lexeme!r} not allowed here"
        )
    if "table" in classes and is_identifier(lexeme):
        if schema.table(lexeme) is not None:
            return PASS
        return CheckVerdict.rejected(
            ErrorKind.RUNTIME, clause, f"{lexeme!r} is not a schema table"
        )
    return CheckVerdict.rejected(
        ErrorKind.SYNTAX, clause, f"{lexeme!r} not allowed in {clause.value}"
    )


def _fragment_plausible(
    fragment: str,
    clause: ClauseKind,
    depth: int,
    schema: DatabaseSchema,
) -> CheckVerdict:
    vocabulary = CLAUSE_VOCABULARY[clause]
    lowered = fragment.lower()
    for candidate in vocabulary.fixed_at(depth):
        if candidate.startswith(fragment):
            return PASS
    classes = vocabulary.classes_at(depth)
    members: list[str] = []
    if "aggregation" in classes:
        members.extend(AGGREGATIONS)
    if "comparison" in classes:
        members.extend(COMPARISONS)
    if "connective" in classes:
        members.extend(CONNECTIVES)
    if "star" in classes:
        members.append("*")
    for candidate in members:
        if candidate.startswith(fragment):
            return PASS
    if "constant" in classes:
        if fragment.startswith("'"):
            return PASS  # constant spellings are unbounded
        if fragment == "-" or _NUMBER_PREFIX_RE.fullmatch(fragment):
            return PASS
    if "integer" in classes and fragment.isdigit():
        return PASS
    if "column_ref" in classes:
        for ref in schema.column_refs():
            if ref.lower().startswith(lowered):
                return PASS
    if "table" in classes:
        for table in (t.name for t in schema.tables):
            if table.lower().startswith(lowered):
                return PASS
    if "." in fragment and "column_ref" in classes:
        return CheckVerdict.rejected(
            ErrorKind.RUNTIME,
            clause,
            f"no schema column starts with {fragment!r}",
        )
    return CheckVerdict.rejected(
        ErrorKind.SYNTAX,
        clause,
        f"{fragment!r} cannot extend to a lexeme allowed in {clause.value}",
    )


def check_vocabulary(
    clause: ClauseKind,
    lexemes: Sequence[str],
    last_incomplete: str | None,
    schema: DatabaseSchema,
) -> CheckVerdict:
    """Check a clause body (keyword already stripped) lexeme by lexeme."""
    depth = 0
    for lexeme in lexemes:
        if lexeme == ")":
            depth -= 1
            if depth < 0:
                return CheckVerdict.rejected(
                    ErrorKind.SYNTAX, clause, "unbalanced ')'"
                )
        verdict = _lexeme_verdict(lexeme, clause, depth if lexeme != ")" else depth + 1, schema)
        if not verdict.ok:
            return verdict
        if lexeme == "(":
            depth += 1
    if last_incomplete is not None:
        return _fragment_plausible(last_incomplete, clause, depth, schema)
    return PASS


# -- Scope ------------------------------------------------------------------


def _expr_column(expr: object) -> ColumnRef | None:
    """The column an output, sort or predicate expression reads, if any."""
    if isinstance(expr, AggExpr):
        expr = expr.arg
    return expr if isinstance(expr, ColumnRef) else None


def _collect_condition_refs(
    condition: Condition | None, out: list[tuple[ColumnRef, "frozenset[str] | None"]],
    extra_tables: frozenset[str] | None = None,
) -> None:
    if condition is None:
        return
    if isinstance(condition, BoolOp):
        for operand in condition.operands:
            _collect_condition_refs(operand, out, extra_tables)
        return
    predicate = condition
    for expr in (predicate.lhs, predicate.rhs):
        column = _expr_column(expr)
        if column is not None:
            out.append((column, extra_tables))
    rhs = predicate.rhs
    if isinstance(rhs, NormalizedQuery):
        sub_tables = frozenset(t.lower() for t in rhs.from_clause.tables)
        for item in rhs.select:
            column = _expr_column(item.expr)
            if column is not None:
                out.append((column, sub_tables))
        for join in rhs.from_clause.joins:
            for a, b in join.conditions:
                out.append((a, sub_tables))
                out.append((b, sub_tables))
        _collect_condition_refs(rhs.where, out, sub_tables)


def _clause_refs(
    kind: ClauseKind, parsed: object
) -> list[tuple[ColumnRef, frozenset[str] | None]]:
    """Column references of one parsed clause (see ``parse_clause_body``),
    each with the subquery tables in scope beside the outer FROM."""
    refs: list[tuple[ColumnRef, frozenset[str] | None]] = []
    if kind in (ClauseKind.WHERE, ClauseKind.HAVING):
        _collect_condition_refs(parsed, refs)
        return refs
    exprs: Sequence[object] = ()
    if kind is ClauseKind.SELECT:
        exprs = [item.expr for item in parsed[1]]
    elif kind is ClauseKind.FROM:
        exprs = [
            ref for join in parsed.joins for pair in join.conditions for ref in pair
        ]
    elif kind is ClauseKind.GROUP_BY:
        exprs = parsed
    elif kind is ClauseKind.ORDER_BY:
        exprs = [item.expr for item in parsed]
    for expr in exprs:
        column = _expr_column(expr)
        if column is not None:
            refs.append((column, None))
    return refs


@dataclass
class _ParenContext:
    seen_first: bool = False
    is_subquery: bool = False
    after_from: bool = False
    expect_table: bool = False
    tables: set[str] = field(default_factory=set)


def _scan_partial_scope(
    kind: ClauseKind, lexemes: Sequence[str], outer: frozenset[str]
) -> CheckVerdict:
    """Eagerly scope-check an unterminated clause body.

    Deferred cases (subquery output columns before the subquery's FROM
    is visible) are skipped; the AST walk re-checks everything when the
    line terminates.
    """
    stack: list[_ParenContext] = []
    for lexeme in lexemes:
        if lexeme == "(":
            stack.append(_ParenContext())
            continue
        if lexeme == ")":
            if stack:
                stack.pop()
            continue
        if stack and not stack[-1].seen_first:
            stack[-1].seen_first = True
            if lexeme == "SELECT":
                stack[-1].is_subquery = True
                continue
        subquery = next((c for c in reversed(stack) if c.is_subquery), None)
        if subquery is not None:
            if lexeme == "FROM":
                subquery.after_from = True
                subquery.expect_table = True
                continue
            if lexeme == "JOIN":
                subquery.expect_table = True
                continue
            if subquery.expect_table and is_identifier(lexeme):
                subquery.tables.add(lexeme.lower())
                subquery.expect_table = False
                continue
        if is_column_ref(lexeme):
            table = lexeme.split(".", 1)[0].lower()
            if subquery is not None:
                if not subquery.after_from:
                    continue  # output column of a subquery still being typed
                if table not in subquery.tables | outer:
                    return CheckVerdict.rejected(
                        ErrorKind.RUNTIME,
                        kind,
                        f"table {table!r} not in the subquery's FROM",
                    )
            elif table not in outer:
                return CheckVerdict.rejected(
                    ErrorKind.RUNTIME, kind, f"table {table!r} not in FROM"
                )
    return PASS


_SCANNED_CLAUSES = frozenset(
    {ClauseKind.WHERE, ClauseKind.GROUP_BY, ClauseKind.HAVING, ClauseKind.ORDER_BY}
)


def _clause_scope(
    kind: ClauseKind, parsed: object, outer: frozenset[str]
) -> CheckVerdict:
    """The verdict on one parsed clause's column refs against the outer
    FROM tables, lower-cased."""
    for ref, local in _clause_refs(kind, parsed):
        allowed = outer if local is None else local | outer
        if ref.table.lower() not in allowed:
            return CheckVerdict.rejected(
                ErrorKind.RUNTIME, kind, f"table {ref.table!r} not in FROM"
            )
    return PASS


def _scan_current(
    current: ClauseKind | None, body: Sequence[str], outer: frozenset[str] | None
) -> CheckVerdict:
    if outer is not None and current in _SCANNED_CLAUSES:
        return _scan_partial_scope(current, body, outer)
    return PASS


def check_scope(
    query_so_far: PartialParse, clauses: Mapping[ClauseKind, object]
) -> CheckVerdict:
    """Reject column references whose table is absent from FROM.

    ``clauses`` maps each terminated clause of ``query_so_far`` to its
    ``parse_clause_body`` result.  Inert until the FROM clause is
    terminated; afterwards the parsed clauses are walked and the current
    clause body is scanned eagerly.
    """
    from_clause = clauses.get(ClauseKind.FROM)
    if from_clause is None:
        return PASS
    outer = frozenset(t.lower() for t in from_clause.tables)
    for kind, parsed in clauses.items():
        verdict = _clause_scope(kind, parsed, outer)
        if not verdict.ok:
            return verdict
    return _scan_current(query_so_far.current_clause, query_so_far.current_body, outer)


# -- Types ------------------------------------------------------------------


def _compatible(computed: frozenset[ColumnType], example: ColumnType) -> bool:
    if ColumnType.OTHER in computed or example is ColumnType.OTHER:
        return True
    if example in NUMERIC_TYPES:
        return bool(computed & (NUMERIC_TYPES | {ColumnType.BOOLEAN}))
    if example is ColumnType.TEXT:
        return bool(computed & {ColumnType.TEXT, ColumnType.BOOLEAN})
    if example is ColumnType.BOOLEAN:
        return bool(
            computed & {ColumnType.BOOLEAN, ColumnType.INTEGER, ColumnType.TEXT}
        )
    return example in computed


def _column_type_set(
    schema: DatabaseSchema, ref: ColumnRef
) -> frozenset[ColumnType]:
    kind = schema.column_type(ref.table, ref.column)
    return frozenset({kind}) if kind is not None else frozenset({ColumnType.OTHER})


def _item_types(
    item: SelectItem,
    schema: DatabaseSchema,
    from_tables: Sequence[str] | None,
) -> list[frozenset[ColumnType]] | None:
    """Output type sets produced by one select item; None defers."""
    expr = item.expr
    if isinstance(expr, Star):
        if from_tables is None:
            return None
        types: list[frozenset[ColumnType]] = []
        for name in from_tables:
            table = schema.table(name)
            if table is None:
                return None
            types.extend(frozenset({column.type}) for column in table.columns)
        return types
    if isinstance(expr, ColumnRef):
        return [_column_type_set(schema, expr)]
    if isinstance(expr, AggExpr):
        if expr.func == "COUNT":
            return [frozenset({ColumnType.INTEGER})]
        if expr.func == "AVG":
            return [frozenset({ColumnType.REAL})]
        if expr.func == "SUM":
            return [NUMERIC_TYPES]
        assert isinstance(expr.arg, ColumnRef)
        return [_column_type_set(schema, expr.arg)]
    raise TypeError(f"unexpected select item {item!r}")


def check_types(
    select_items: Sequence[SelectItem],
    schema: DatabaseSchema,
    example: ExampleTuple,
    from_tables: Sequence[str] | None = None,
) -> CheckVerdict:
    """Compare the completed SELECT clause's output types to the example.

    Star items need the FROM table list to expand; when it is not yet
    known the whole check defers (a star changes the arity).
    """
    computed: list[frozenset[ColumnType]] = []
    for item in select_items:
        types = _item_types(item, schema, from_tables)
        if types is None:
            return PASS
        computed.extend(types)
    if len(computed) != example.arity:
        return CheckVerdict.rejected(
            ErrorKind.EXAMPLE,
            ClauseKind.SELECT,
            f"query returns {len(computed)} columns, example has {example.arity}",
        )
    for position, (types, expected) in enumerate(zip(computed, example.types)):
        if not _compatible(types, expected):
            names = "/".join(sorted(t.value for t in types))
            return CheckVerdict.rejected(
                ErrorKind.EXAMPLE,
                ClauseKind.SELECT,
                f"column {position + 1} yields {names}, example has {expected.value}",
            )
    return PASS


# -- Orchestration ----------------------------------------------------------

_FOLLOWING: Mapping[ClauseKind, ClauseKind | None] = dict(
    zip(CLAUSE_ORDER, (*CLAUSE_ORDER[1:], None))
)


@dataclass(frozen=True)
class _Head:
    """What the terminated lines of a prefix decide, whatever line follows.

    ``fatal`` is a structural error that ends every continuation.
    Otherwise ``next_clause`` is the clause the following line belongs
    to (None after LIMIT) and ``clause_error`` the first vocabulary or
    grammar failure among the terminated clauses; ``outer``, ``scope``,
    ``types`` and ``select`` are meaningful only without one.  ``select``
    is the SELECT body while FROM is still open: SELECT's scope, and its
    types against the FROM tables, are decided when FROM terminates.

    Heads compare by these fields, so prefixes that decide the same merge
    into one head; ``steps`` maps each terminated line seen after a
    merged head to the head that line leads to.
    """

    next_clause: ClauseKind | None = ClauseKind.SELECT
    fatal: CheckVerdict | None = None
    clause_error: CheckVerdict | None = None
    outer: frozenset[str] | None = None
    scope: CheckVerdict = PASS
    types: CheckVerdict = PASS
    select: tuple[str, ...] | None = None
    steps: dict[str, "_Head"] = field(default_factory=dict, compare=False, repr=False)


def _terminated_clause(
    kind: ClauseKind, body: tuple[str, ...], schema: DatabaseSchema, memo: ClauseMemo
) -> tuple[CheckVerdict, object]:
    """The vocabulary-then-grammar verdict on a terminated clause, and its
    AST when both pass."""
    key = (kind, body)
    verdict = memo.vocabulary.get(key)
    if verdict is None:
        verdict = memo.vocabulary[key] = check_vocabulary(kind, body, None, schema)
    if not verdict.ok:
        return verdict, None
    try:
        return verdict, memo.parse(kind, body)
    except ParseError as exc:
        return CheckVerdict.rejected(ErrorKind.SYNTAX, kind, str(exc)), None


def _advance(
    head: _Head,
    kind: ClauseKind,
    body: tuple[str, ...],
    schema: DatabaseSchema,
    example: ExampleTuple | None,
    memo: ClauseMemo,
) -> _Head:
    """The head after one more terminated clause: ``head.next_clause``
    with ``body``.  Checks run in clause order, as over a whole prefix:
    vocabulary and grammar first, then scope once FROM is known, then
    the output types."""
    following = _FOLLOWING[kind]
    if head.clause_error is not None:
        return _Head(following, clause_error=head.clause_error)
    verdict, parsed = _terminated_clause(kind, body, schema, memo)
    if not verdict.ok:
        return _Head(following, clause_error=verdict)
    if kind is ClauseKind.SELECT:
        types = PASS
        if example is not None:
            types = check_types(parsed[1], schema, example)
        return _Head(following, types=types, select=body)
    if kind is ClauseKind.FROM:
        outer = frozenset(t.lower() for t in parsed.tables)
        select = memo.parse(ClauseKind.SELECT, head.select)
        scope = _clause_scope(ClauseKind.SELECT, select, outer)
        if scope.ok:
            scope = _clause_scope(kind, parsed, outer)
        # Only a bare star's types depend on the FROM tables.
        types = PASS
        if scope.ok:
            types = head.types
            items = select[1]
            if example is not None and any(isinstance(i.expr, Star) for i in items):
                types = check_types(items, schema, example, from_tables=parsed.tables)
        return _Head(following, outer=outer, scope=scope, types=types)
    scope = head.scope
    if scope.ok:
        scope = _clause_scope(kind, parsed, head.outer)
    types = head.types if scope.ok else PASS
    return _Head(following, outer=head.outer, scope=scope, types=types)


def _step(
    head: _Head,
    line: str,
    schema: DatabaseSchema,
    example: ExampleTuple | None,
    memo: ClauseMemo,
) -> _Head:
    """The head after one more terminated ``line`` (newline included)."""
    if head.fatal is not None:
        return head
    try:
        partial = parse_partial(line, first=head.next_clause)
    except ClauseOrderViolation as exc:
        return _Head(fatal=CheckVerdict.rejected(ErrorKind.SYNTAX, None, str(exc)))
    if partial.syntax_error is not None:
        return _Head(
            fatal=CheckVerdict.rejected(ErrorKind.SYNTAX, None, partial.syntax_error)
        )
    ((kind, body),) = partial.completed.items()
    return _advance(head, kind, body, schema, example, memo)


def _check_line(
    head: _Head, line: LineParse, eos_seen: bool, schema: DatabaseSchema
) -> CheckVerdict:
    """Check the current line and slot the head's verdicts in around it.

    The order of the verdicts is the order of the checks: line structure,
    terminated clause vocabulary and grammar, current-line vocabulary,
    scope of the terminated clauses, scope of the current line, output
    types, and whether generation may end here.
    """
    current = head.next_clause
    keyword_remaining, body, fragment, syntax_error = line
    if syntax_error is not None:
        return CheckVerdict.rejected(ErrorKind.SYNTAX, current, syntax_error)
    if head.clause_error is not None:
        return head.clause_error
    if current is not None:
        if keyword_remaining:
            if fragment is not None and not keyword_remaining[0].startswith(fragment):
                return CheckVerdict.rejected(
                    ErrorKind.SYNTAX,
                    current,
                    f"{fragment!r} cannot start the {current.value} line",
                )
        else:
            verdict = check_vocabulary(current, body, fragment, schema)
            if not verdict.ok:
                return verdict
    if not head.scope.ok:
        return head.scope
    verdict = _scan_current(current, body, head.outer)
    if not verdict.ok:
        return verdict
    if not head.types.ok:
        return head.types
    if eos_seen and current is not None:
        return CheckVerdict.rejected(
            ErrorKind.SYNTAX, current, "generation ended before the LIMIT line"
        )
    return PASS


def check_partial(
    partial: PartialParse,
    schema: DatabaseSchema,
    example: ExampleTuple | None = None,
) -> CheckVerdict:
    """Run vocabulary, structure, scope and type checks on a partial."""
    if partial.syntax_error is not None:
        return CheckVerdict.rejected(
            ErrorKind.SYNTAX, partial.current_clause, partial.syntax_error
        )
    head, memo = _Head(), ClauseMemo()
    for kind, body in partial.completed.items():
        head = _advance(head, kind, body, schema, example, memo)
    line = (partial.keyword_remaining, partial.current_body, partial.fragment, None)
    return _check_line(head, line, partial.eos_seen, schema)


def make_checker(
    schema: DatabaseSchema,
    example: ExampleTuple | None,
    memo: ClauseMemo | None = None,
) -> Callable[[str, bool], CheckVerdict]:
    """Bind schema and example into a text-level checking function.

    The function keeps the head of each text it has seen (the text up to
    and including the last newline), built from the head one line
    shorter.  A child of an already-checked prefix therefore costs
    only its current line, and a new head costs one line split plus
    lookups in ``memo``, the clause memo of the search (a fresh one when
    None).  Equal heads merge, so a text that differs from a seen one in
    one line rejoins its heads right after that line (after FROM, for a
    SELECT line).  Everything lives as long as the function.
    """
    memo = memo if memo is not None else ClauseMemo()
    merged: dict[_Head, _Head] = {}
    heads: dict[str, _Head] = {"": _Head()}

    def head_of(text: str, cut: int) -> _Head:
        """The head of ``text[:cut]``, stepped one line at a time from
        its longest prefix head already known."""
        cuts = [cut]
        while True:
            cut = text.rfind("\n", 0, cut - 1) + 1
            head = heads.get(text[:cut])
            if head is not None:
                break
            cuts.append(cut)
        for end in reversed(cuts):
            line = text[cut:end]
            following = head.steps.get(line)
            if following is None:
                following = _step(head, line, schema, example, memo)
                following = head.steps[line] = merged.setdefault(following, following)
            head = heads[text[:end]] = following
            cut = end
        return head

    def check(text: str, eos_seen: bool) -> CheckVerdict:
        cut = text.rfind("\n") + 1
        head = heads.get(text[:cut]) or head_of(text, cut)
        if head.fatal is not None:
            return head.fatal
        try:
            line = parse_line(head.next_clause, text[cut:])
        except ClauseOrderViolation as exc:
            return CheckVerdict.rejected(ErrorKind.SYNTAX, None, str(exc))
        return _check_line(head, line, eos_seen, schema)

    return check


# -- 4-label classification -------------------------------------------------


class Label(enum.Enum):
    CORRECT = "Correct"
    EXAMPLE_ERROR = "ExampleError"
    RUNTIME_ERROR = "RuntimeError"
    SYNTAX_ERROR = "SyntaxError"


_KIND_TO_LABEL = {
    ErrorKind.SYNTAX: Label.SYNTAX_ERROR,
    ErrorKind.RUNTIME: Label.RUNTIME_ERROR,
    ErrorKind.EXAMPLE: Label.EXAMPLE_ERROR,
}


def predict_label(
    text: str, schema: DatabaseSchema, example: ExampleTuple | None
) -> Label:
    """Label a complete query using static checks only."""
    verdict = make_checker(schema, example)(text, True)
    if verdict.ok:
        return Label.CORRECT
    assert verdict.kind is not None
    return _KIND_TO_LABEL[verdict.kind]
