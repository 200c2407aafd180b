"""Lexeme-level utilities shared by the canonical renderer, parser and checker.

Canonical query text keeps every lexeme separated by a single space, one
clause per line, so splitting a line back into lexemes only has to respect
quoted string constants.  The standard-SQL scanner used by the normalizer
produces the same lexeme strings (keywords uppercased, operators canonical,
strings single-quoted) so both front ends feed identical clause grammars.
"""

from __future__ import annotations

import re

from .errors import ParseError

AGGREGATIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")
COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")
CONNECTIVES = ("AND", "OR")

SET_OPERATIONS = ("UNION", "INTERSECT", "EXCEPT")

KEYWORDS = frozenset(
    {
        "SELECT",
        "FROM",
        "WHERE",
        "GROUP",
        "BY",
        "HAVING",
        "ORDER",
        "LIMIT",
        "JOIN",
        "ON",
        "AS",
        "AND",
        "OR",
        "NOT",
        "IN",
        "BETWEEN",
        "LIKE",
        "DISTINCT",
        "ASC",
        "DESC",
    }
    | set(AGGREGATIONS)
    | set(SET_OPERATIONS)
)

_COLUMN_REF_RE = re.compile(r"^[A-Za-z_]\w*\.\w+$")
_NUMBER_RE = re.compile(r"^-?[0-9]+(\.[0-9]+)?$")
_STRING_RE = re.compile(r"^'(?:[^']|'')*'$")
_IDENT_RE = re.compile(r"^[A-Za-z_]\w*$")


def is_column_ref(lexeme: str) -> bool:
    return bool(_COLUMN_REF_RE.match(lexeme))


def is_number(lexeme: str) -> bool:
    return bool(_NUMBER_RE.match(lexeme))


def is_string_const(lexeme: str) -> bool:
    return bool(_STRING_RE.match(lexeme))


def is_constant(lexeme: str) -> bool:
    return is_number(lexeme) or is_string_const(lexeme)


def is_identifier(lexeme: str) -> bool:
    return bool(_IDENT_RE.match(lexeme)) and lexeme.upper() not in KEYWORDS


def quote_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


# One lexeme: a string constant (doubled quotes escape, an unclosed one
# runs to the end of the line) and anything glued to it, or a run of
# non-space characters.  A quote only opens a string at a lexeme's start.
_LEXEME_RE = re.compile(r"(?:'(?:[^']|'')*(?:'|\Z))?[^ ]*")


def split_line(line: str, terminated: bool) -> tuple[list[str], str | None]:
    """Split one clause line into lexemes.

    Returns ``(complete, trailing)`` where ``trailing`` is the final
    fragment still open for extension.  A fragment only exists on an
    unterminated line that does not end in a space; quoted strings may
    contain spaces and escaped quotes (``''``).
    """
    if "'" not in line:
        # Without a quote ``_LEXEME_RE`` is ``[^ ]*``: each space separates.
        complete = line.split(" ")
        trailing = complete.pop()
    else:
        complete = []
        start = 0
        while True:
            end = _LEXEME_RE.match(line, start).end()
            if end == len(line):
                break
            complete.append(line[start:end])  # line[end] is the separating space
            start = end + 1
        trailing = line[start:]
    if not trailing:
        return complete, None
    if terminated:
        complete.append(trailing)
        return complete, None
    return complete, trailing


def _scan_string(text: str, i: int, quote: str) -> tuple[str, int]:
    # Returns the canonical single-quoted lexeme and the index past the
    # closing quote.  Doubled quote characters escape themselves.
    value: list[str] = []
    i += 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == quote:
            if i + 1 < n and text[i + 1] == quote:
                value.append(quote)
                i += 2
                continue
            raw = "".join(value)
            if "\n" in raw:
                raise ParseError("newline inside string constant")
            return quote_string(raw), i + 1
        value.append(ch)
        i += 1
    raise ParseError(f"unterminated string constant near {text[max(0, i - 20):i]!r}")


_WORD_RE = re.compile(r"[A-Za-z_]\w*")
_NUM_RE = re.compile(r"[0-9]+(\.[0-9]+)?")


def scan_sql(text: str) -> list[str]:
    """Scan free-form SQL into canonical lexeme strings.

    Keywords are uppercased, ``<>`` becomes ``!=``, double-quoted literals
    become single-quoted, and dotted references collapse into a single
    ``table.column`` lexeme.
    """
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "'\"":
            lexeme, i = _scan_string(text, i, ch)
            out.append(lexeme)
            continue
        if ch in "(),*":
            out.append(ch)
            i += 1
            continue
        if ch == ";":
            i += 1
            continue
        if ch == "`":
            # Backtick-quoted identifier; emit the bare name.
            end = text.find("`", i + 1)
            if end < 0:
                raise ParseError("unterminated quoted identifier")
            out.append(text[i + 1 : end])
            i = end + 1
            continue
        if text.startswith(("<=", ">=", "!=", "=="), i):
            op = text[i : i + 2]
            out.append("=" if op == "==" else op)
            i += 2
            continue
        if text.startswith("<>", i):
            out.append("!=")
            i += 2
            continue
        if ch in "<>=":
            out.append(ch)
            i += 1
            continue
        if ch == "-" and i + 1 < n and "0" <= text[i + 1] <= "9" and _starts_value_position(out):
            m = _NUM_RE.match(text, i + 1)
            assert m is not None
            out.append("-" + m.group(0))
            i = m.end()
            continue
        if "0" <= ch <= "9":
            m = _NUM_RE.match(text, i)
            assert m is not None
            out.append(m.group(0))
            i = m.end()
            continue
        m = _WORD_RE.match(text, i)
        if m:
            word = m.group(0)
            i = m.end()
            if i < n and text[i] == ".":
                rest = _WORD_RE.match(text, i + 1)
                if rest is None:
                    raise ParseError(f"dangling '.' after {word!r}")
                out.append(f"{word}.{rest.group(0)}")
                i = rest.end()
                continue
            out.append(word.upper() if word.upper() in KEYWORDS else word)
            continue
        raise ParseError(f"unexpected character {ch!r} in SQL text")
    return out


def _starts_value_position(scanned: list[str]) -> bool:
    # A '-' begins a negative number only where a value may start.
    if not scanned:
        return True
    prev = scanned[-1]
    return prev in {"(", ","} or prev in COMPARISONS or prev.upper() in KEYWORDS
