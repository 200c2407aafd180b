"""Reference vocabulary check for the differential tests.

The checker keeps one table of what each clause admits, flat and inside
parentheses: a set of exact lexemes and four open classes.  This module
keeps the class-name form it had before, uncached: per clause a set of
fixed lexemes and a set of class names, each with a nested addition,
decoded once for a finished lexeme and once for the unfinished last
one.  ``check_lexemes`` is the reference the checker's vocabulary
verdicts are compared with.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from sqlsynth.checker import PASS, CheckVerdict, Label
from sqlsynth.nsql.lexemes import (
    AGGREGATIONS,
    COMPARISONS,
    CONNECTIVES,
    is_column_ref,
    is_identifier,
    is_number,
    is_string_const,
)
from sqlsynth.nsql.query import ClauseKind
from sqlsynth.tasks import DatabaseSchema


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

_NUMBER_PREFIX_RE = re.compile(r"-?[0-9]+(\.[0-9]*)?")


def _schema_has_ref(schema: DatabaseSchema, lexeme: str) -> bool:
    table, column = lexeme.split(".", 1)
    return schema.column_type(table, column) is not None


def lexeme_verdict(
    schema: DatabaseSchema,
    lexeme: str,
    clause: ClauseKind,
    nested: bool,
) -> CheckVerdict:
    vocabulary = CLAUSE_VOCABULARY[clause]
    if lexeme in vocabulary.fixed_at(nested):
        return PASS
    classes = vocabulary.classes_at(nested)
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
    if "integer" in classes and lexeme.isascii() and lexeme.isdigit():
        return PASS
    if is_column_ref(lexeme):
        if "column_ref" in classes:
            if _schema_has_ref(schema, lexeme):
                return PASS
            return CheckVerdict.rejected(
                Label.RUNTIME_ERROR, clause, f"{lexeme!r} is not a schema column"
            )
        return CheckVerdict.rejected(
            Label.SYNTAX_ERROR, clause, f"column reference {lexeme!r} not allowed here"
        )
    if "table" in classes and is_identifier(lexeme):
        if schema.table(lexeme) is not None:
            return PASS
        return CheckVerdict.rejected(
            Label.RUNTIME_ERROR, clause, f"{lexeme!r} is not a schema table"
        )
    return CheckVerdict.rejected(
        Label.SYNTAX_ERROR, clause, f"{lexeme!r} not allowed in {clause.value}"
    )


def fragment_plausible(
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
    if "integer" in classes and fragment.isascii() and fragment.isdigit():
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
            Label.RUNTIME_ERROR,
            clause,
            f"no schema column starts with {fragment!r}",
        )
    return CheckVerdict.rejected(
        Label.SYNTAX_ERROR,
        clause,
        f"{fragment!r} cannot extend to a lexeme allowed in {clause.value}",
    )


def check_lexemes(
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
        verdict = lexeme_verdict(schema, lexeme, clause, depth > 0 or lexeme == ")")
        if not verdict.ok:
            return verdict
        if lexeme == "(":
            depth += 1
    if last_incomplete is not None:
        return fragment_plausible(last_incomplete, clause, depth, schema)
    return PASS
