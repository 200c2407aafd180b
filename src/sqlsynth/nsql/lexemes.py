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

# Each lexeme class is spelled once, here; the predicates, the clause-line
# splitter and the free-form scanner below are built from these patterns.
_IDENT = r"[A-Za-z_]\w*"
_NUMBER = r"[0-9]+(?:\.[0-9]+)?"
# A single-quoted string constant up to its closing quote; doubled quotes
# escape.
_OPEN_STRING = r"'(?:[^']|'')*"

_COLUMN_REF_RE = re.compile(rf"^{_IDENT}\.\w+$")
_NUMBER_RE = re.compile(rf"^-?{_NUMBER}$")
_STRING_RE = re.compile(rf"^{_OPEN_STRING}'$")
_IDENT_RE = re.compile(rf"^{_IDENT}$")
_CONSTANT_RE = re.compile(rf"^(?:-?{_NUMBER}|{_OPEN_STRING}')$")


def is_column_ref(lexeme: str) -> bool:
    return bool(_COLUMN_REF_RE.match(lexeme))


def is_number(lexeme: str) -> bool:
    return bool(_NUMBER_RE.match(lexeme))


def is_string_const(lexeme: str) -> bool:
    return bool(_STRING_RE.match(lexeme))


def is_constant(lexeme: str) -> bool:
    """``is_number(lexeme) or is_string_const(lexeme)``, in one match."""
    return bool(_CONSTANT_RE.match(lexeme))


def is_keyword(word: str) -> bool:
    # SQLite folds ASCII case alone: "joın", with a dotless i, is a name.
    return word.isascii() and word.upper() in KEYWORDS


def is_identifier(lexeme: str) -> bool:
    return bool(_IDENT_RE.match(lexeme)) and not is_keyword(lexeme)


def quote_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


# One lexeme of canonical text with the space or newline after it: a
# string constant (doubled quotes escape; an unclosed one runs to the
# end of its line) and anything glued to it, or a run of characters that
# are neither space nor newline.  A quote only opens a string at a
# lexeme's start.  The text's last lexeme may lack a separator, and one
# empty match follows it.
_OPEN_LINE_STRING = _OPEN_STRING.replace("[^']", r"[^'\n]")
_SEPARATED_LEXEME_RE = re.compile(
    rf"(?:{_OPEN_LINE_STRING}(?:'|(?=\n)|\Z))?[^ \n]*(?:[ \n]|\Z)"
)


def lexeme_tokens(text: str) -> tuple[str, ...]:
    """Split canonical query text into lexeme tokens.

    Each token is one lexeme of a line with the space or newline after
    it, so the tokens concatenate to the text; a line's final fragment,
    or an empty line, ends in its newline.  String constants stay single
    tokens even when they contain spaces.
    """
    pieces = _SEPARATED_LEXEME_RE.findall(text)
    pieces.pop()  # the empty match at the end
    return tuple(pieces)


def split_line(line: str, terminated: bool) -> tuple[list[str], str | None]:
    """Split one clause line into lexemes, as ``lexeme_tokens`` reads it.

    Returns ``(complete, trailing)`` where ``trailing`` is the final
    fragment still open for extension.  A fragment only exists on an
    unterminated line that does not end in a space; quoted strings may
    contain spaces and escaped quotes (``''``).
    """
    if "'" not in line:
        # Without a quote each space separates.
        complete = line.split(" ")
    else:
        # With the newline every token ends in exactly one separator.
        complete = [token[:-1] for token in lexeme_tokens(line + "\n")]
    trailing = complete.pop()
    if not trailing:
        return complete, None
    if terminated:
        complete.append(trailing)
        return complete, None
    return complete, trailing


# The lexeme classes of free-form SQL, tried after any run of whitespace
# and ';', which the scanner skips.  No two classes start with the same
# character, so the order is by frequency, with ``other`` last.  A word
# takes a dotted column reference or a dangling '.', and an unclosed
# string or backtick name runs to the end of the text, so that the
# scanner can name the fault.
_OPEN_DOUBLE_STRING = _OPEN_STRING.replace("'", '"')
_SQL_LEXEMES = (
    ("word", rf"{_IDENT}(?:\.(?:{_IDENT})?)?"),
    ("operator", r"<=|>=|!=|==|<>|[(),*<>=]"),
    ("number", rf"-?{_NUMBER}"),
    # Either quote kind; ``close`` is empty when the string is unclosed.
    ("string", f"(?:{_OPEN_STRING}|{_OPEN_DOUBLE_STRING})(?P<close>['\"]?)"),
    ("name", r"`[^`]*`?"),
    ("other", r"[^\s;]"),
)
# ``findall`` gives each lexeme as one tuple of the groups, in this order
# with the string's ``close`` after it; the lexeme's class alone is not
# empty.
_SQL_LEXEME_RE = re.compile(
    r"[\s;]*(?:"
    + "|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _SQL_LEXEMES)
    + ")"
)
_CANONICAL_OPERATORS = {"==": "=", "<>": "!="}


def scan_sql(text: str) -> list[str]:
    """Scan free-form SQL into canonical lexeme strings.

    Keywords are uppercased, ``==`` becomes ``=`` and ``<>`` becomes
    ``!=``, double-quoted literals become single-quoted, backticks are
    dropped from a quoted name, ``;`` is skipped, and a dotted reference
    is one ``table.column`` lexeme.  A ``-`` signs a number only where a
    value may start.
    """
    out: list[str] = []
    # Each match starts where the last one ended: some class matches any
    # character but whitespace and ';'.
    for word, operator, number, string, close, name, other in (
        _SQL_LEXEME_RE.findall(text)
    ):
        if word:
            if "." in word:
                if word[-1] == ".":
                    raise ParseError(f"dangling '.' after {word[:-1]!r}")
            elif word not in KEYWORDS:  # an uppercase keyword stays as it is
                upper = word.upper()
                # SQLite folds ASCII case alone, as ``is_keyword`` does.
                if upper in KEYWORDS and word.isascii():
                    word = upper
            out.append(word)
        elif operator:
            out.append(_CANONICAL_OPERATORS.get(operator, operator))
        elif number:
            if number[0] == "-" and not _starts_value_position(out):
                raise ParseError("unexpected character '-' in SQL text")
            out.append(number)
        elif string:
            if not close:
                raise ParseError(f"unterminated string constant near {text[-20:]!r}")
            if "\n" in string:
                raise ParseError("newline inside string constant")
            quote = string[0]
            out.append(quote_string(string[1:-1].replace(quote * 2, quote)))
        elif name:
            if len(name) == 1 or name[-1] != "`":
                raise ParseError("unterminated quoted identifier")
            out.append(name[1:-1])
        else:
            raise ParseError(f"unexpected character {other!r} in SQL text")
    return out


def _starts_value_position(scanned: list[str]) -> bool:
    # A '-' begins a negative number only where a value may start.
    if not scanned:
        return True
    prev = scanned[-1]
    return prev in {"(", ","} or prev in COMPARISONS or is_keyword(prev)
