"""Static checks over possibly-incomplete canonical query text.

The checker sees only the database schema and the example tuple, never
the database contents.  Three checks run in order of cost: vocabulary,
scope (every referenced table must appear in FROM), and output types
against the example by ``tasks.types_agree``, the rule that also holds
example rows together.  A rejecting verdict carries the ``Label`` of the
error an execution of the finished query would raise, which also powers
the 4-label classifier used by the checker-comparison experiment.

Vocabulary reads one table per clause, ``CLAUSE_VOCABULARY``: flat and
inside parentheses, a set of exact lexemes and four open classes.  A
finished lexeme must belong to it, the unfinished last one must be a
prefix of something that does.

One scope scan, ``_scope``, serves terminated clause bodies and the line
still being typed.  Inside an IN-subquery a reference may also name the
subquery's own FROM tables, so its output columns and ``ON`` references
wait until its table list is final: at its WHERE or its closing ``)``.

Search and ``predict_label`` check text through the function
``make_checker`` returns.  Search checks a child of every expanded
prefix, and children share their terminated lines, so that function
keeps, per distinct head (the text up to and including the last
newline), every verdict that depends only on the terminated clauses;
checking a child parses and checks only its current line.  A new head
is its parent head plus one terminated line.

Searches over one schema object reach the same heads, lines and
lexemes again, so what they derive is shared rather than per search:
steps between heads, interned heads, lexeme verdicts and the verdict on
a head plus its current line live in bounded process-wide
``functools.lru_cache``s keyed by the schema object, which hashes by
identity.  ``nsql.grammar``'s line reader and process-wide clause cache
return a fault as a value, which a check turns into a verdict.
Repair's ``make_query_check`` steps each finished variant's clause lines
through the same heads: one rule.
"""

from __future__ import annotations

import enum
import functools
import re
import sys
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

from .nsql.errors import ClauseOrderViolation, ParseError
from .nsql.grammar import parse_clause_cached, parse_partial
from .nsql.lexemes import (
    AGGREGATIONS,
    COMPARISONS,
    CONNECTIVES,
    is_column_ref,
    is_constant,
    is_identifier,
)
from .nsql.query import (
    CLAUSE_ORDER,
    AggExpr,
    ClauseKind,
    ColumnRef,
    SelectItem,
    Star,
)
from .tasks import ColumnType, DatabaseSchema, ExampleTuple, types_agree


class Label(enum.Enum):
    """The 4-label classification of a finished query.  A rejecting
    verdict carries one of the three error labels: the error an
    execution of the finished query would raise.  Declaration order is
    the row and column order of the checker-comparison matrix."""

    CORRECT = "Correct"
    EXAMPLE_ERROR = "ExampleError"
    RUNTIME_ERROR = "RuntimeError"
    SYNTAX_ERROR = "SyntaxError"


@dataclass(frozen=True)
class CheckVerdict:
    ok: bool
    kind: Label | None = None
    clause: ClauseKind | None = None
    detail: str = ""

    @classmethod
    def rejected(
        cls, kind: Label, clause: ClauseKind | None, detail: str
    ) -> "CheckVerdict":
        if kind is Label.CORRECT:
            raise ValueError("a rejected verdict needs an error label")
        return cls(ok=False, kind=kind, clause=clause, detail=detail)


PASS = CheckVerdict(ok=True)

# Bounds on what checks remember across searches, for the whole process
# however many schemas it loads: steps between heads, interned heads, and
# entries of the lexeme-verdict and line-verdict caches.  Filled, with a
# new head at every step, they hold about 5.8 MB of heap on CPython 3.11
# (tracemalloc).  Every shared cache is a ``functools.lru_cache`` keyed
# by the schema object itself, which hashes by identity.  An entry is a
# pure function of its key, so a race between threads at worst computes
# one twice.
_STEP_CACHE_SIZE = 4096
_LEXEME_CACHE_SIZE = 2048
_LINE_CACHE_SIZE = 4096


# -- Vocabulary -------------------------------------------------------------


@dataclass(frozen=True)
class ClauseVocabulary:
    """What one clause admits at one depth: the ``exact`` lexemes, and
    four open classes, told by spelling (``constant``, ``integer``) or
    looked up in the schema (``column_ref``, ``table``)."""

    exact: frozenset[str]
    column_ref: bool = False
    table: bool = False
    constant: bool = False
    integer: bool = False


_PUNCTUATION = ("(", ")", ",")
_ITEMS = (*_PUNCTUATION, *AGGREGATIONS)  # of select items and order keys
_SUBQUERY = ("SELECT", "FROM", "WHERE", "JOIN", "ON", "DISTINCT", "*")
_CONDITION = (*_PUNCTUATION, "NOT", "IN", "BETWEEN", "LIKE", *COMPARISONS, *CONNECTIVES)


def _vocabulary(
    exact: Sequence[str],
    nested: Sequence[str] = (),
    subquery: bool = False,
    **open_classes: bool,
) -> tuple[ClauseVocabulary, ClauseVocabulary]:
    """A clause's records flat and inside parentheses, which admit
    ``nested`` as well and, where an IN-subquery may open, its keywords,
    ``*`` and table names."""
    flat = ClauseVocabulary(frozenset(exact), **open_classes)
    inner = frozenset((*exact, *nested, *(_SUBQUERY if subquery else ())))
    return flat, replace(flat, exact=inner, table=flat.table or subquery)


# Per clause, the records flat and nested: index it by ``nested``.
CLAUSE_VOCABULARY: Mapping[ClauseKind, tuple[ClauseVocabulary, ClauseVocabulary]] = {
    ClauseKind.SELECT: _vocabulary(("DISTINCT", "*", *_ITEMS), column_ref=True),
    ClauseKind.FROM: _vocabulary(
        ("JOIN", "ON", "=", "AND"), column_ref=True, table=True
    ),
    ClauseKind.WHERE: _vocabulary(
        _CONDITION, AGGREGATIONS, subquery=True, column_ref=True, constant=True
    ),
    ClauseKind.GROUP_BY: _vocabulary((",",), column_ref=True),
    ClauseKind.HAVING: _vocabulary(
        (*_CONDITION, *AGGREGATIONS), subquery=True, column_ref=True, constant=True
    ),
    ClauseKind.ORDER_BY: _vocabulary(
        ("ASC", "DESC", *_ITEMS), ("DISTINCT", "*"), column_ref=True
    ),
    ClauseKind.LIMIT: _vocabulary((), integer=True),
}

_NUMBER_PREFIX_RE = re.compile(r"-?[0-9]+(\.[0-9]*)?")


@functools.lru_cache(maxsize=_LEXEME_CACHE_SIZE)
def _lexeme_verdict(
    schema: DatabaseSchema, lexeme: str, clause: ClauseKind, nested: bool
) -> CheckVerdict:
    """Whether ``clause`` admits the finished ``lexeme``, through one
    process-wide cache of bounded size, so a rejection is one object
    however often it recurs."""
    vocabulary = CLAUSE_VOCABULARY[clause][nested]
    if lexeme in vocabulary.exact:
        return PASS
    if vocabulary.constant and is_constant(lexeme):
        return PASS
    if vocabulary.integer and lexeme.isascii() and lexeme.isdigit():
        return PASS
    if is_column_ref(lexeme):
        if not vocabulary.column_ref:
            detail = f"column reference {lexeme!r} not allowed here"
            return CheckVerdict.rejected(Label.SYNTAX_ERROR, clause, detail)
        table, column = lexeme.split(".", 1)
        if schema.column_type(table, column) is not None:
            return PASS
        return CheckVerdict.rejected(
            Label.RUNTIME_ERROR, clause, f"{lexeme!r} is not a schema column"
        )
    if vocabulary.table and is_identifier(lexeme):
        if schema.table(lexeme) is not None:
            return PASS
        return CheckVerdict.rejected(
            Label.RUNTIME_ERROR, clause, f"{lexeme!r} is not a schema table"
        )
    return CheckVerdict.rejected(
        Label.SYNTAX_ERROR, clause, f"{lexeme!r} not allowed in {clause.value}"
    )


def _fragment_plausible(
    fragment: str, clause: ClauseKind, nested: bool, schema: DatabaseSchema
) -> CheckVerdict:
    """Whether the unfinished ``fragment`` can still grow into a lexeme
    ``clause`` admits: a prefix of an exact lexeme, then of an open
    class's member."""
    vocabulary = CLAUSE_VOCABULARY[clause][nested]
    for lexeme in vocabulary.exact:
        if lexeme.startswith(fragment):
            return PASS
    if vocabulary.constant and (
        fragment.startswith("'")  # constant spellings are unbounded
        or fragment == "-"
        or _NUMBER_PREFIX_RE.fullmatch(fragment)
    ):
        return PASS
    if vocabulary.integer and fragment.isascii() and fragment.isdigit():
        return PASS
    lowered = fragment.lower()
    if vocabulary.column_ref:
        for ref in schema.column_refs():
            if ref.lower().startswith(lowered):
                return PASS
    if vocabulary.table:
        for table in schema.tables:
            if table.name.lower().startswith(lowered):
                return PASS
    if vocabulary.column_ref and "." in fragment:
        return CheckVerdict.rejected(
            Label.RUNTIME_ERROR, clause, f"no schema column starts with {fragment!r}"
        )
    detail = f"{fragment!r} cannot extend to a lexeme allowed in {clause.value}"
    return CheckVerdict.rejected(Label.SYNTAX_ERROR, clause, detail)


def _check_lexemes(
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
                    Label.SYNTAX_ERROR, clause, "unbalanced ')'"
                )
        verdict = _lexeme_verdict(schema, lexeme, clause, depth > 0 or lexeme == ")")
        if not verdict.ok:
            return verdict
        if lexeme == "(":
            depth += 1
    if last_incomplete is not None:
        return _fragment_plausible(last_incomplete, clause, depth > 0, schema)
    return PASS


# -- Scope ------------------------------------------------------------------


class _Subquery:
    """An IN-subquery open in a clause body: the tables its FROM names so
    far and, until that list is final, the references waiting for it."""

    __slots__ = ("tables", "waiting")

    def __init__(self) -> None:
        self.tables: set[str] = set()
        self.waiting: list[str] | None = []

    def close_tables(self) -> list[str]:
        """Mark the table list final and hand back the waiting references."""
        waiting, self.waiting = self.waiting or [], None
        return waiting


def _scope(
    kind: ClauseKind, lexemes: Sequence[str], outer: frozenset[str]
) -> CheckVerdict:
    """The verdict on the column references of one clause body, terminated
    or still being typed, against the outer FROM tables (lower-cased).

    A reference must name an outer FROM table or, inside an IN-subquery,
    one of the subquery's own FROM tables.  A subquery's output columns
    and ON references wait until its table list is final, at its WHERE or
    its closing ``)``; on a line still being typed they may wait past the
    end of the line.
    """
    parens: list[_Subquery | None] = []  # per open paren, the subquery it opens
    subqueries: list[_Subquery] = []
    for index, lexeme in enumerate(lexemes):
        sub = subqueries[-1] if subqueries else None
        refs: Sequence[str] = ()
        if lexeme == "(":
            opened = None
            if index + 1 < len(lexemes) and lexemes[index + 1] == "SELECT":
                opened = _Subquery()
                subqueries.append(opened)
            parens.append(opened)
        elif lexeme == ")":
            if parens and parens.pop() is not None:
                subqueries.pop()
                refs = sub.close_tables()
        elif sub is None:
            if is_column_ref(lexeme):
                refs = (lexeme,)
        elif lexeme == "WHERE":
            refs = sub.close_tables()
        elif lexemes[index - 1] in ("FROM", "JOIN") and is_identifier(lexeme):
            sub.tables.add(lexeme.lower())
        elif is_column_ref(lexeme):
            if sub.waiting is None:
                refs = (lexeme,)
            else:
                sub.waiting.append(lexeme)
        if refs:
            tables = outer if sub is None else sub.tables | outer
            for ref in refs:
                table = ref.split(".", 1)[0]
                if table.lower() not in tables:
                    where = "FROM" if sub is None else "the subquery's FROM"
                    return CheckVerdict.rejected(
                        Label.RUNTIME_ERROR, kind, f"table {table!r} not in {where}"
                    )
    return PASS


# -- Types ------------------------------------------------------------------


def _item_types(
    item: SelectItem,
    schema: DatabaseSchema,
    from_tables: Sequence[str] | None,
) -> list[ColumnType] | None:
    """Output types produced by one select item; None defers.  SUM is
    typed Real, though it may yield Integer: ``types_agree`` does not
    tell the two apart."""
    expr = item.expr
    if isinstance(expr, Star):
        if from_tables is None:
            return None
        types: list[ColumnType] = []
        for name in from_tables:
            table = schema.table(name)
            if table is None:
                return None
            types.extend(column.type for column in table.columns)
        return types
    if isinstance(expr, AggExpr):
        if expr.func == "COUNT":
            return [ColumnType.INTEGER]
        if expr.func in ("AVG", "SUM"):
            return [ColumnType.REAL]
        expr = expr.arg  # MIN and MAX yield their column's type
    assert isinstance(expr, ColumnRef)
    return [schema.column_type(expr.table, expr.column) or ColumnType.OTHER]


def check_types(
    select_items: Sequence[SelectItem],
    schema: DatabaseSchema,
    example_types: Sequence[ColumnType],
    from_tables: Sequence[str] | None = None,
) -> CheckVerdict:
    """Compare the completed SELECT clause's output types to the example's
    column types by ``types_agree``.

    Star items need the FROM table list to expand; when it is not yet
    known the whole check defers (a star changes the arity).
    """
    computed: list[ColumnType] = []
    for item in select_items:
        types = _item_types(item, schema, from_tables)
        if types is None:
            return PASS
        computed.extend(types)
    if len(computed) != len(example_types):
        return CheckVerdict.rejected(
            Label.EXAMPLE_ERROR,
            ClauseKind.SELECT,
            f"query returns {len(computed)} columns, example has {len(example_types)}",
        )
    for position, (kind, expected) in enumerate(zip(computed, example_types)):
        # SQLite returns no bool, so a declared Boolean column may yield
        # any type, and a Boolean example equals 1 and 1.0.
        if ColumnType.BOOLEAN not in (kind, expected) and not types_agree(kind, expected):
            return CheckVerdict.rejected(
                Label.EXAMPLE_ERROR,
                ClauseKind.SELECT,
                f"column {position + 1} yields {kind.value}, example has {expected.value}",
            )
    return PASS


# -- Orchestration ----------------------------------------------------------

_FOLLOWING: Mapping[ClauseKind, ClauseKind | None] = dict(
    zip(CLAUSE_ORDER, (*CLAUSE_ORDER[1:], None))
)


@dataclass(frozen=True, eq=False, slots=True)
class _Head:
    """What the terminated lines of a prefix decide, whatever line follows.

    ``fatal`` is a terminated line's ``parse_partial`` fault, such as a
    ``ClauseOrderViolation``, which ends every continuation.
    Otherwise ``next_clause`` is the clause the following line belongs
    to (None after LIMIT) and ``clause_error`` the first vocabulary or
    grammar failure among the terminated clauses; ``outer``, ``scope``,
    ``types`` and ``select`` are meaningful only without one.  ``select``
    is the SELECT body while FROM is still open: SELECT's scope, and its
    types against the FROM tables, are decided when FROM terminates.

    Heads compare and hash by identity: steps build them through
    ``_head``, which keeps one object per distinct value.
    """

    next_clause: ClauseKind | None = ClauseKind.SELECT
    fatal: CheckVerdict | None = None
    clause_error: CheckVerdict | None = None
    outer: frozenset[str] | None = None
    scope: CheckVerdict = PASS
    types: CheckVerdict = PASS
    select: tuple[str, ...] | None = None


# ``_Head`` through a cache, so equal heads of different searches are one
# object.  ``_shared_step`` builds each kind of head with one argument
# form, and no two forms build equal heads, so equal heads share a key.
_head = functools.lru_cache(maxsize=_STEP_CACHE_SIZE)(_Head)
_ROOT = _Head()


@functools.lru_cache(maxsize=_STEP_CACHE_SIZE)
def _shared_step(
    schema: DatabaseSchema,
    example_types: tuple[ColumnType, ...] | None,
    head: _Head,
    line: str,
) -> _Head:
    """The head after one more terminated ``line`` (newline included).

    Checks run in clause order, as over a whole prefix: line structure,
    vocabulary and grammar first, then scope once FROM is known, then
    the output types against ``example_types`` (None skips them).  One
    process-wide cache of bounded size answers repeats across searches.
    """
    if head.fatal is not None:
        return head
    kind = head.next_clause
    _, body, _, fault = parse_partial(kind, line[:-1], terminated=True)
    if fault is not None:
        return _head(fatal=CheckVerdict.rejected(Label.SYNTAX_ERROR, None, str(fault)))
    following = _FOLLOWING[kind]
    if head.clause_error is not None:
        return _head(following, clause_error=head.clause_error)
    verdict = _check_lexemes(kind, body, None, schema)
    if not verdict.ok:
        return _head(following, clause_error=verdict)
    parsed = parse_clause_cached(kind, body)
    if isinstance(parsed, ParseError):
        verdict = CheckVerdict.rejected(Label.SYNTAX_ERROR, kind, str(parsed))
        return _head(following, clause_error=verdict)
    if kind is ClauseKind.SELECT:
        types = PASS
        if example_types is not None:
            types = check_types(parsed[1], schema, example_types)
        return _head(following, types=types, select=body)
    if kind is ClauseKind.FROM:
        outer = frozenset(t.lower() for t in parsed.tables)
        scope = _scope(ClauseKind.SELECT, head.select, outer)
        if scope.ok:
            scope = _scope(kind, body, outer)
        # Only a bare star's types depend on the FROM tables.
        types = PASS
        if scope.ok:
            types = head.types
            items = parse_clause_cached(ClauseKind.SELECT, head.select)[1]
            if example_types is not None and any(
                isinstance(i.expr, Star) for i in items
            ):
                types = check_types(items, schema, example_types, parsed.tables)
        return _head(following, outer=outer, scope=scope, types=types)
    scope = head.scope
    if scope.ok:
        scope = _scope(kind, body, head.outer)
    types = head.types if scope.ok else PASS
    return _head(following, outer=head.outer, scope=scope, types=types)


@functools.lru_cache(maxsize=_LINE_CACHE_SIZE)
def _check_line(
    schema: DatabaseSchema, head: _Head, line: str, eos_seen: bool
) -> CheckVerdict:
    """Check the current ``line`` and slot the head's verdicts in around it.

    The order of the verdicts is the order of the checks: line structure,
    terminated clause vocabulary and grammar, current-line vocabulary,
    scope of the terminated clauses, scope of the current line, output
    types, and whether generation may end here.

    The verdict depends only on the head's value, the line, ``eos_seen``
    and the schema, so one process-wide cache of bounded size answers
    repeats across searches; heads and schemas hash by identity.
    """
    current = head.next_clause
    keyword_remaining, body, fragment, fault = parse_partial(current, line)
    if fault is not None:
        # A clause out of order is a fault of the text, not of a clause.
        clause = None if isinstance(fault, ClauseOrderViolation) else current
        return CheckVerdict.rejected(Label.SYNTAX_ERROR, clause, str(fault))
    if head.clause_error is not None:
        return head.clause_error
    if current is not None:
        if keyword_remaining:
            if fragment is not None and not keyword_remaining[0].startswith(fragment):
                return CheckVerdict.rejected(
                    Label.SYNTAX_ERROR,
                    current,
                    f"{fragment!r} cannot start the {current.value} line",
                )
        else:
            verdict = _check_lexemes(current, body, fragment, schema)
            if not verdict.ok:
                return verdict
    if not head.scope.ok:
        return head.scope
    if head.outer is not None and body:
        verdict = _scope(current, body, head.outer)
        if not verdict.ok:
            return verdict
    if not head.types.ok:
        return head.types
    if eos_seen and current is not None:
        return CheckVerdict.rejected(
            Label.SYNTAX_ERROR, current, "generation ended before the LIMIT line"
        )
    return PASS


def make_checker(
    schema: DatabaseSchema, example: ExampleTuple | None
) -> Callable[[str, bool], CheckVerdict]:
    """Bind schema and example into a text-level checking function.

    The function keeps the head of each text it has seen (the text up to
    and including the last newline), built from the head one line
    shorter.  Steps between heads, and the verdict on a head plus its
    current line, come from process-wide caches keyed by the schema
    object, so every search over that object and the same example types
    shares them, and a check that an earlier search already made costs
    two lookups.  A text whose head is unknown, such as a whole query,
    steps from its longest known head one line at a time.
    """
    types = None if example is None else example.types
    heads: dict[str, _Head] = {"": _ROOT}

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
            # Cached keys share one string per distinct line.
            line = sys.intern(text[cut:end])
            head = heads[text[:end]] = _shared_step(schema, types, head, line)
            cut = end
        return head

    def check(text: str, eos_seen: bool) -> CheckVerdict:
        cut = text.rfind("\n") + 1
        head = heads.get(text[:cut]) or head_of(text, cut)
        if head.fatal is not None:
            return head.fatal
        return _check_line(schema, head, sys.intern(text[cut:]), eos_seen)

    return check


def make_query_check(
    schema: DatabaseSchema, example: ExampleTuple | None
) -> Callable[[Mapping[ClauseKind, tuple[str, ...]]], bool]:
    """Bind schema and example into a check of a finished query given as
    its seven clause bodies, in clause order: what ``make_checker`` says
    of its rendered text at end of sequence, stepped through the same
    shared heads, so a variant reuses those of its unedited clauses.  It
    stops at the first head that no later line can clear; a head past
    LIMIT that none failed leaves the empty last line nothing to reject."""
    types = None if example is None else example.types

    def check(bodies: Mapping[ClauseKind, tuple[str, ...]]) -> bool:
        head = _ROOT
        for kind, body in bodies.items():
            line = f"{kind.value} {' '.join(body)}\n" if body else kind.value + "\n"
            head = _shared_step(schema, types, head, sys.intern(line))
            if head.fatal or head.clause_error or not (
                head.scope.ok and head.types.ok
            ):
                return False
        return True

    return check


# -- 4-label classification -------------------------------------------------


def predict_label(
    text: str, schema: DatabaseSchema, example: ExampleTuple | None
) -> Label:
    """Label a complete query using static checks only."""
    return make_checker(schema, example)(text, True).kind or Label.CORRECT
