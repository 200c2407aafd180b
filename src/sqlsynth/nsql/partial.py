"""Structural view of possibly unfinished canonical query text.

Generation builds a query left to right, so at any point the text is a
run of terminated clause lines followed by one line still being typed.
``parse_partial`` recovers that structure without judging clause bodies,
and ``parse_line`` splits one line.  Body validation belongs to the
clause grammars and to the checker, whose one entry point is
``checker.make_checker``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ClauseOrderViolation
from .lexemes import split_line
from .query import CLAUSE_ORDER, ClauseKind

_KEYWORDS = {kind: kind.keyword_lexemes for kind in CLAUSE_ORDER}
_CLAUSE_STARTS = {keyword[0]: kind for kind, keyword in _KEYWORDS.items()}


@dataclass(frozen=True)
class PartialParse:
    """Clause-line structure of a text prefix.

    ``completed`` maps each terminated clause to its body lexemes with
    the clause keyword stripped; ``current_clause`` is the clause the
    line still being typed must belong to (None after LIMIT).
    """

    completed: dict[ClauseKind, tuple[str, ...]] = field(default_factory=dict)
    current_clause: ClauseKind | None = None
    syntax_error: str | None = None


# One clause line: (keyword lexemes still owed, body lexemes after the
# keyword, final open fragment, syntax error).  A plain tuple: a named
# tuple took about 0.65 us more to build (Python 3.11), and every line
# of every parse and every check builds one.
LineParse = tuple[tuple[str, ...], tuple[str, ...], str | None, str | None]


def parse_line(
    kind: ClauseKind | None, line: str, *, terminated: bool = False
) -> LineParse:
    """Split one line that must belong to clause ``kind``.

    ``kind`` is None once the LIMIT line has terminated, when any
    further text is an error.  A ``terminated`` line must be canonically
    spaced and carry its whole keyword.  Raises
    :class:`ClauseOrderViolation` when the line starts with the keyword
    of another clause.
    """
    if kind is None:
        if line or terminated:
            return (), (), None, "text continues after the LIMIT line"
        return (), (), None, None
    if terminated and (line == "" or line.endswith(" ")):
        return (), (), None, f"non-canonical spacing in {kind.value} line"
    lexemes, fragment = split_line(line, terminated=terminated)
    keyword = _KEYWORDS[kind]
    matched = 0
    for lexeme in lexemes[: len(keyword)]:
        if lexeme != keyword[matched]:
            other = _CLAUSE_STARTS.get(lexeme) if matched == 0 else None
            if other is not None and other is not kind:
                raise ClauseOrderViolation(
                    f"{other.value} line where {kind.value} was expected"
                )
            return (
                keyword[matched:],
                (),
                fragment,
                f"{kind.value} line does not start with its keyword",
            )
        matched += 1
    error = None
    if terminated and matched < len(keyword):
        error = f"{kind.value} line does not start with its keyword"
    return keyword[matched:], tuple(lexemes[matched:]), fragment, error


def _clause_after(terminated: int) -> ClauseKind | None:
    """The clause due after ``terminated`` clause lines; None after LIMIT."""
    return CLAUSE_ORDER[terminated] if terminated < len(CLAUSE_ORDER) else None


_POSITION = {kind: index for index, kind in enumerate(CLAUSE_ORDER)}


def parse_partial(
    text: str, *, first: ClauseKind | None = ClauseKind.SELECT
) -> PartialParse:
    """Split generated text into terminated clauses and the current line.

    ``first`` is the clause the first line of ``text`` belongs to (None
    after LIMIT); the checker splits the one new line of a head this way.
    Raises :class:`ClauseOrderViolation` when a line starts with a known
    clause keyword other than the one due at that position.  Other
    structural damage is reported through ``syntax_error`` so the caller
    can map it to a rejection instead of an exception.
    """
    start = _POSITION[first] if first is not None else len(CLAUSE_ORDER)
    *terminated, current = text.split("\n")
    completed: dict[ClauseKind, tuple[str, ...]] = {}
    for index, line in enumerate(terminated, start):
        kind = _clause_after(index)
        _, body, _, error = parse_line(kind, line, terminated=True)
        if error is not None:
            return PartialParse(completed=completed, syntax_error=error)
        completed[kind] = body
    kind = _clause_after(start + len(completed))
    error = parse_line(kind, current)[3]
    return PartialParse(completed=completed, current_clause=kind, syntax_error=error)
