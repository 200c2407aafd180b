"""Reference free-form SQL scanner for the differential scanner test.

``scan_sql``, ``_scan_string`` and ``_starts_value_position`` here are
those of ``sqlsynth.nsql.lexemes`` as they stood at commit aa98789,
before the scanner became one loop over one compiled alternation: a loop
over single characters with a hand-written string loop and sign rule.
``tests/test_nsql.py`` compares ``sqlsynth.nsql.lexemes.scan_sql`` with
it.
"""

from __future__ import annotations

import re

from sqlsynth.nsql.errors import ParseError
from sqlsynth.nsql.lexemes import COMPARISONS, KEYWORDS, quote_string


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
