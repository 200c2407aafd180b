"""Structural view of one line of possibly unfinished canonical text.

Generation builds a query left to right, so at any point the text is a
run of terminated clause lines followed by one line still being typed,
and the line at position ``i`` belongs to ``CLAUSE_ORDER[i]``.
``parse_partial`` splits one such line into the keyword lexemes still
owed and the body lexemes, without judging the body; the checker and
``grammar.parse_complete`` read every clause line through it.  Body
validation belongs to the clause grammars and to the checker, whose
one entry point is ``checker.make_checker``.
"""

from __future__ import annotations

from .errors import ClauseOrderViolation
from .lexemes import split_line
from .query import CLAUSE_ORDER, CLAUSE_STARTS, ClauseKind

_KEYWORDS = {kind: kind.keyword_lexemes for kind in CLAUSE_ORDER}


# One clause line: (keyword lexemes still owed, body lexemes after the
# keyword, final open fragment, syntax error).  A plain tuple: a named
# tuple took about 0.65 us more to build (Python 3.11), and every line
# of every parse and every check builds one.
LineParse = tuple[tuple[str, ...], tuple[str, ...], str | None, str | None]


def parse_partial(
    kind: ClauseKind | None, line: str, *, terminated: bool = False
) -> LineParse:
    """Split one line that must belong to clause ``kind``.

    ``kind`` is None once the LIMIT line has terminated, when any
    further text is an error.  A ``terminated`` line (given without its
    newline) must be canonically spaced and carry its whole keyword.
    Raises :class:`ClauseOrderViolation` when the line starts with the
    keyword of another clause.
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
            other = CLAUSE_STARTS.get(lexeme) if matched == 0 else None
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
