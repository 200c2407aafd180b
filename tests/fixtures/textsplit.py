"""Reference whole-text splitter for the differential tests.

The package splits canonical text one clause line at a time
(``nsql.grammar.parse_partial``).  This module keeps the whole-text
splitter it had before, built on that same line splitter: the checker's
whole-prefix reference, the reference parse of a finished text and the
reference repair enumerator read a text through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from sqlsynth.nsql.errors import ClauseOrderViolation, StructureError
from sqlsynth.nsql.grammar import parse_clause_bodies, parse_partial
from sqlsynth.nsql.query import CLAUSE_ORDER, ClauseKind, NormalizedQuery


@dataclass(frozen=True)
class SplitText:
    """Clause-line structure of a text prefix.

    ``completed`` maps each terminated clause to its body lexemes with
    the clause keyword stripped; ``current_clause`` is the clause the
    line still being typed must belong to (None after LIMIT).
    """

    completed: dict[ClauseKind, tuple[str, ...]] = field(default_factory=dict)
    current_clause: ClauseKind | None = None
    syntax_error: str | None = None


def _clause_after(terminated: int) -> ClauseKind | None:
    return CLAUSE_ORDER[terminated] if terminated < len(CLAUSE_ORDER) else None


def _message(fault: StructureError | None) -> str | None:
    """The message of a line's fault; a ``ClauseOrderViolation`` is
    raised."""
    if isinstance(fault, ClauseOrderViolation):
        raise fault
    return None if fault is None else str(fault)


def split_text(text: str) -> SplitText:
    """Split generated text into terminated clauses and the current line.

    Raises ``ClauseOrderViolation`` when a line starts with a clause
    keyword other than the one due at that position; other structural
    damage is reported through ``syntax_error``.
    """
    *terminated, current = text.split("\n")
    completed: dict[ClauseKind, tuple[str, ...]] = {}
    for index, line in enumerate(terminated):
        kind = _clause_after(index)
        _, body, _, fault = parse_partial(kind, line, terminated=True)
        error = _message(fault)
        if error is not None:
            return SplitText(completed=completed, syntax_error=error)
        completed[kind] = body
    kind = _clause_after(len(completed))
    error = _message(parse_partial(kind, current)[3])
    return SplitText(completed=completed, current_clause=kind, syntax_error=error)


def parse_complete_reference(text: str) -> NormalizedQuery:
    """``parse_complete`` as it read a text through ``split_text``."""
    split = split_text(text)
    if split.syntax_error is not None:
        raise StructureError(split.syntax_error)
    if split.current_clause is not None:
        raise StructureError("query text is incomplete")
    return parse_clause_bodies(split.completed)
