from __future__ import annotations

import dataclasses
import functools
import random
import re
import sqlite3
from collections import Counter
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlsynth.nsql.errors import (
    AmbiguousColumn,
    ClauseOrderViolation,
    NormalizationError,
    ParseError,
    SelfJoinUnsupported,
    SetOperationUnsupported,
    SqlError,
    StructureError,
    UnknownName,
)
from sqlsynth.nsql import grammar
from sqlsynth.nsql.grammar import (
    clause_bodies,
    parse_clause_bodies,
    parse_clause_cached,
    parse_complete,
    parse_partial,
)
from sqlsynth.nsql.lexemes import (
    KEYWORDS,
    SET_OPERATIONS,
    is_identifier,
    is_number,
    quote_string,
    scan_sql,
    split_line,
)
from sqlsynth.nsql.normalize import normalize, rewrite_dataset
from sqlsynth.nsql.query import (
    CLAUSE_ORDER,
    ClauseKind,
    denormalize_text,
    exact_match,
    query_skeleton,
)
from tests.fixtures import grammar as reference_grammar
from tests.fixtures import normalize as reference_normalize
from tests.fixtures import scan as reference_scan
from tests.fixtures.corpus import CORPUS
from tests.fixtures.randqueries import distinct_queries
from tests.fixtures.textsplit import parse_complete_reference, split_text

# -- lexemes ----------------------------------------------------------------


def test_scan_sql_canonicalizes_operators_and_keywords():
    lexemes = scan_sql('select T1.a from t T1 where T1.b <> 3 and T1.c == "x";')
    assert lexemes == [
        "SELECT",
        "T1.a",
        "FROM",
        "t",
        "T1",
        "WHERE",
        "T1.b",
        "!=",
        "3",
        "AND",
        "T1.c",
        "=",
        "'x'",
    ]


def test_scan_sql_negative_numbers_only_in_value_position():
    assert scan_sql("where a.x > -4")[-1] == "-4"
    assert scan_sql("where a.x in (-4, -5)")[-5:] == ["(", "-4", ",", "-5", ")"]
    # After an identifier a '-' is not a number sign; the scanner rejects it.
    with pytest.raises(ParseError):
        scan_sql("a - b")


def test_scan_sql_string_escapes():
    assert scan_sql("where t.a = 'it''s'") == ["WHERE", "t.a", "=", "'it''s'"]
    assert scan_sql('where t.a = "say ""hi"""') == ["WHERE", "t.a", "=", "'say \"hi\"'"]
    with pytest.raises(ParseError):
        scan_sql("where t.a = 'open")


def test_scan_sql_backtick_identifiers():
    assert scan_sql("select `order` from t") == ["SELECT", "order", "FROM", "t"]


@pytest.mark.parametrize(
    "sql, message",
    [
        ("select 'a\nb' from t", "newline inside string constant"),
        ("select `name from t", "unterminated quoted identifier"),
        ("select t. from t", "dangling '.' after 't'"),
        (
            "select name from singer where name = 'open",
            "unterminated string constant near \"r where name = 'open\"",
        ),
        (
            'where t.a = "open',
            "unterminated string constant near 'where t.a = \"open'",
        ),
        ("a - b", "unexpected character '-' in SQL text"),
        ("a.b.c", "unexpected character '.' in SQL text"),
        ("select # from t", "unexpected character '#' in SQL text"),
    ],
    ids=[
        "newline-in-string",
        "open-backtick",
        "dangling-dot",
        "open-single-quote",
        "open-double-quote",
        "minus-after-a-name",
        "two-dots",
        "hash",
    ],
)
def test_scan_sql_rejects_malformed_text(sql, message):
    with pytest.raises(ParseError) as raised:
        scan_sql(sql)
    assert str(raised.value) == message


def test_split_line_basic():
    lexemes, fragment = split_line("WHERE t.a = 'two words' ", terminated=False)
    assert lexemes == ["WHERE", "t.a", "=", "'two words'"]
    assert fragment is None


def test_split_line_open_fragment():
    lexemes, fragment = split_line("SELECT sing", terminated=False)
    assert lexemes == ["SELECT"]
    assert fragment == "sing"
    lexemes, fragment = split_line("SELECT sing", terminated=True)
    assert lexemes == ["SELECT", "sing"]
    assert fragment is None


# One lexeme of a line: a string constant (doubled quotes escape, an
# unclosed one runs to the end of the line) and anything glued to it, or
# a run of non-space characters.  A quote only opens a string at a
# lexeme's start.  Spelled here apart from ``sqlsynth.nsql.lexemes``.
_REFERENCE_LEXEME_RE = re.compile(r"(?:'(?:[^']|'')*(?:'|\Z))?[^ ]*")


def _split_line_reference(line: str, terminated: bool) -> tuple[list[str], str | None]:
    """``split_line`` as one regex match per lexeme, quote or none."""
    complete: list[str] = []
    start = 0
    while True:
        end = _REFERENCE_LEXEME_RE.match(line, start).end()
        if end == len(line):
            break
        complete.append(line[start:end])
        start = end + 1
    trailing = line[start:]
    if not trailing:
        return complete, None
    if terminated:
        return [*complete, trailing], None
    return complete, trailing


@pytest.mark.parametrize(
    "line, complete, trailing",
    [
        ("", [], None),
        (" ", [""], None),
        ("SELECT", [], "SELECT"),
        ("SELECT ", ["SELECT"], None),
        ("WHERE t.a = 3", ["WHERE", "t.a", "="], "3"),
        ("a  b", ["a", ""], "b"),
        ("a  ", ["a", ""], None),
        ("  a", ["", ""], "a"),
    ],
)
def test_split_line_without_a_quote_splits_on_each_space(line, complete, trailing):
    assert split_line(line, terminated=False) == (complete, trailing)
    want = complete + [trailing] if trailing else complete
    assert split_line(line, terminated=True) == (want, None)
    for terminated in (False, True):
        assert split_line(line, terminated) == _split_line_reference(line, terminated)


@pytest.mark.parametrize(
    "line",
    [
        "WHERE t.a = 'two  words' ",
        "'it''s' x",
        "'ab'c'd e",
        "x = 'open string",
        "x = 'open ''",
        "'' ''",
        "a'b c",
        "'",
        " ' ",
    ],
)
def test_split_line_with_quotes_matches_the_reference(line):
    for terminated in (False, True):
        assert split_line(line, terminated) == _split_line_reference(line, terminated)


def test_split_line_matches_the_reference_on_random_lines():
    rng = random.Random(20240522)
    alphabet = "a1. '"
    quoted = 0
    for _ in range(100_000):
        line = "".join(rng.choices(alphabet, k=rng.randrange(13)))
        quoted += "'" in line
        for terminated in (False, True):
            assert split_line(line, terminated) == _split_line_reference(
                line, terminated
            ), (line, terminated)
    assert 20_000 < quoted < 90_000


def test_split_line_matches_the_reference_on_random_pieces():
    """Lines of lexeme-sized pieces, in which quotes open, close and
    double, and strings hold spaces, dots and parentheses."""
    rng = random.Random(50)
    pieces = ("a", " ", "'", "''", "x.y", "(")
    open_quote = doubled = 0
    for _ in range(100_000):
        line = "".join(rng.choices(pieces, k=rng.randrange(10)))
        open_quote += line.count("'") % 2
        doubled += "''" in line
        for terminated in (False, True):
            assert split_line(line, terminated) == _split_line_reference(
                line, terminated
            ), (line, terminated)
    assert open_quote > 20_000 and doubled > 20_000


# SQL text is UTF-8 and ends at a NUL, so neither a lone surrogate nor
# a NUL can appear in a literal.
@given(st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")))
def test_quote_string_is_the_sqlite_literal(value):
    with closing(sqlite3.connect(":memory:")) as conn:
        assert conn.execute(f"SELECT {quote_string(value)}").fetchone() == (value,)


# -- clause structure -------------------------------------------------------

_GOLD = (
    "SELECT singer.name\n"
    "FROM singer\n"
    "WHERE singer.age > 30\n"
    "GROUP BY\n"
    "HAVING\n"
    "ORDER BY singer.age ASC\n"
    "LIMIT 5\n"
)


def test_parse_partial_tracks_completed_clauses():
    text = "SELECT singer.name\nFROM singer\nWHERE singer."
    select, from_, where = text.split("\n")
    assert parse_partial(ClauseKind.SELECT, select, terminated=True) == (
        (),
        ("singer.name",),
        None,
        None,
    )
    assert parse_partial(ClauseKind.FROM, from_, terminated=True) == (
        (),
        ("singer",),
        None,
        None,
    )
    assert parse_partial(ClauseKind.WHERE, where) == ((), (), "singer.", None)
    with pytest.raises(StructureError, match="incomplete"):
        parse_complete(text)


def test_parse_partial_two_word_keywords():
    assert parse_partial(ClauseKind.WHERE, "WHERE", terminated=True) == (
        (),
        (),
        None,
        None,
    )
    assert parse_partial(ClauseKind.GROUP_BY, "GROUP ") == (("BY",), (), None, None)
    assert parse_partial(ClauseKind.GROUP_BY, "GROUP BY ")[0] == ()
    fault = parse_partial(ClauseKind.GROUP_BY, "GROUP", terminated=True)[3]
    assert type(fault) is StructureError
    assert str(fault) == "GROUP BY line does not start with its keyword"
    with pytest.raises(StructureError, match="incomplete"):
        parse_complete("SELECT singer.name\nFROM singer\nWHERE\nGROUP ")


def test_parse_partial_clause_order_violation():
    """The line reader returns a clause out of order as its fault;
    ``parse_complete`` raises it."""
    for kind, line, terminated, message in [
        (ClauseKind.FROM, "WHERE singer.age > 3", True, "WHERE line where FROM"),
        (ClauseKind.WHERE, "GROUP ", False, "GROUP BY line where WHERE"),
    ]:
        fault = parse_partial(kind, line, terminated=terminated)[3]
        assert type(fault) is ClauseOrderViolation
        assert str(fault) == f"{message} was expected"
    with pytest.raises(ClauseOrderViolation):
        parse_complete("SELECT singer.name\nWHERE singer.age > 3\n")
    with pytest.raises(ClauseOrderViolation):
        parse_complete("SELECT singer.name\nFROM singer\nGROUP ")


def test_parse_partial_reports_structural_damage():
    after_limit = "text continues after the LIMIT line"
    spacing = "non-canonical spacing in SELECT line"
    bad = "SELECT line does not start with its keyword"
    for kind, line, terminated, message in [
        (None, "extra", False, after_limit),
        (None, "", True, after_limit),
        (ClauseKind.SELECT, "SELECT singer.name ", True, spacing),
        (ClauseKind.SELECT, "SELECTX singer.name", True, bad),
    ]:
        fault = parse_partial(kind, line, terminated=terminated)[3]
        assert type(fault) is StructureError
        assert str(fault) == message
    for text, message in [
        (_GOLD + "extra", after_limit),
        (_GOLD + "\n", after_limit),
        ("SELECT singer.name \nFROM singer\n", spacing),
        ("SELECTX singer.name\nFROM singer\n", bad),
    ]:
        with pytest.raises(StructureError) as raised:
            parse_complete(text)
        assert type(raised.value) is StructureError
        assert str(raised.value) == message


def test_parse_partial_complete_query():
    for kind, line in zip(CLAUSE_ORDER, _GOLD.split("\n")):
        assert parse_partial(kind, line, terminated=True)[3] is None
    assert parse_partial(None, "") == ((), (), None, None)
    assert parse_partial(ClauseKind.LIMIT, "") == (("LIMIT",), (), None, None)
    assert parse_complete(_GOLD).render() == _GOLD
    with pytest.raises(StructureError, match="incomplete"):
        parse_complete(_GOLD[:-8])


def test_parse_complete_roundtrip():
    query = parse_complete(_GOLD)
    assert query.render() == _GOLD
    assert query.limit is not None
    assert query.order_by[0].descending is False


def test_parse_complete_rejects_damage():
    with pytest.raises(ParseError):
        parse_complete(_GOLD.replace("LIMIT 5\n", ""))  # missing clause line
    with pytest.raises(ParseError):
        parse_complete(_GOLD.replace("> 30", ">"))  # dangling operator
    with pytest.raises(ParseError):
        parse_complete(_GOLD.replace("LIMIT 5", "LIMIT 5.5"))


def test_a_failing_clause_body_is_parsed_once_and_fails_alike(monkeypatch):
    calls = []
    parse = grammar.parse_clause_body

    def counting(kind, body):
        calls.append(tuple(body))
        return parse(kind, body)

    monkeypatch.setattr(grammar, "parse_clause_body", counting)
    faults = [parse_clause_cached(ClauseKind.LIMIT, ("5.5",)) for _ in range(2)]
    assert calls == [("5.5",)]
    # The cache returns one shared fault, with no traceback to hold on to.
    assert type(faults[0]) is ParseError and faults[0] is faults[1]
    assert str(faults[0]) != "" and faults[0].__traceback__ is None
    bodies = {**split_text(_GOLD).completed, ClauseKind.LIMIT: ("5.5",)}
    raised = []
    for _ in range(2):
        with pytest.raises(ParseError) as caught:
            parse_clause_bodies(bodies)
        raised.append(caught.value)
    assert calls.count(("5.5",)) == 1
    assert str(raised[0]) == str(raised[1]) == str(faults[0])
    # Each raise is a fresh exception, with its own traceback.
    assert raised[0] is not raised[1] and faults[0] not in raised


def test_parse_complete_star_only_under_count():
    text = _GOLD.replace("SELECT singer.name", "SELECT COUNT ( * )")
    assert parse_complete(text).select[0].expr.func == "COUNT"
    with pytest.raises(ParseError):
        parse_complete(_GOLD.replace("SELECT singer.name", "SELECT SUM ( * )"))


def test_parse_complete_in_subquery():
    text = (
        "SELECT singer.name\n"
        "FROM singer\n"
        "WHERE singer.singer_id IN ( SELECT singer_in_concert.singer_id "
        "FROM singer_in_concert )\n"
        "GROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    )
    query = parse_complete(text)
    assert query.render() == text
    sub = query.where.rhs
    assert sub.select[0].expr.column == "singer_id"
    # No deeper nesting inside a subquery's own WHERE.
    nested = text.replace(
        "FROM singer_in_concert )",
        "FROM singer_in_concert WHERE singer_in_concert.singer_id IN "
        "( SELECT singer.singer_id FROM singer ) )",
    )
    with pytest.raises(ParseError):
        parse_complete(nested)


def test_render_parse_roundtrip_over_random_queries(schemas):
    rng = random.Random(7)
    for schema in schemas.values():
        for query in distinct_queries(schema, rng, 40):
            text = query.render()
            assert parse_complete(text).render() == text


def _parse_outcome(parse, text):
    """What ``parse`` makes of ``text``: the rendering of its query, or
    the type and message of what it raised."""
    try:
        return "query", parse(text).render()
    except SqlError as exc:
        return type(exc), str(exc)


_EDIT_ALPHABET = "\n ()',.*=<>aSFWGHOL5"


def _one_character_edits(text, rng, count):
    """``count`` seeded edits of ``text``: a character deleted, inserted
    or replaced at a random position."""
    for _ in range(count):
        position = rng.randrange(len(text) + 1)
        char = rng.choice(_EDIT_ALPHABET)
        action = rng.choice(("delete", "insert", "replace"))
        if action == "insert" or position == len(text):
            yield text[:position] + char + text[position:]
        elif action == "delete":
            yield text[:position] + text[position + 1 :]
        else:
            yield text[:position] + char + text[position + 1 :]


def test_parse_complete_matches_the_whole_text_splitter(schemas, normalized_tasks):
    """``parse_complete`` splits a text line by line, in clause order; it
    returns the same query, or raises the same error with the same
    message, as a parse through the whole-text splitter.  The texts are
    every character prefix of the gold corpus and of seeded random
    queries, and seeded one-character edits of each whole text and of
    random prefixes of it."""
    texts = [task.gold_query for task in normalized_tasks]
    for index, db_id in enumerate(sorted(schemas)):
        generated = distinct_queries(schemas[db_id], random.Random(index), 30)
        texts += [query.render() for query in generated]
    rng = random.Random(17)
    outcomes: Counter[str] = Counter()
    for text in texts:
        cases = [text[:end] for end in range(len(text) + 1)]
        cases += _one_character_edits(text, rng, 50)
        for _ in range(50):
            cases += _one_character_edits(text[: rng.randrange(len(text))], rng, 1)
        for case in cases:
            want = _parse_outcome(parse_complete_reference, case)
            assert _parse_outcome(parse_complete, case) == want, case
            outcomes[want[0] if want[0] == "query" else want[0].__name__] += 1
    assert outcomes == {
        "query": 1934,
        "ParseError": 1877,
        "StructureError": 27903,
        "ClauseOrderViolation": 145,
    }


def _body_outcome(parse, body):
    """What ``parse`` makes of ``body``: the repr of its result, which
    names the loose classes by name only, or the type and message of
    what it raised."""
    try:
        return "parsed", repr(parse(body))
    except SqlError as exc:
        return type(exc), str(exc)


_EDIT_LEXEMES = (
    *sorted(KEYWORDS), "(", ")", ",", "*", "=", "!=", ">", "'x'", "3", "-2",
    "2.5", "singer", "T1", "name", "singer.age", "concert.year",
)


def _lexeme_edits(body, rng, count):
    """``count`` seeded edits of ``body``, each of one or two lexemes
    deleted, inserted or replaced, from the body itself or a fixed pool."""
    pool = (*_EDIT_LEXEMES, *body)
    for _ in range(count):
        edited = list(body)
        for _ in range(rng.choice((1, 2))):
            position = rng.randrange(len(edited) + 1)
            action = rng.choice(("delete", "insert", "replace"))
            if action == "insert" or position == len(edited):
                edited.insert(position, rng.choice(pool))
            elif action == "delete":
                del edited[position]
            else:
                edited[position] = rng.choice(pool)
        yield tuple(edited)


def test_clause_grammar_matches_the_frozen_reference(schemas):
    """Every clause body of the gold corpus, free-form and canonical, and
    of seeded random queries, and seeded one- or two-lexeme edits of
    each, gets the same strict parse, or the same error with the same
    message, from the grammar as from a frozen copy of the grammar from
    before the cursor carried the dialect.  The free-form bodies are cut
    by the frozen normalizer's section splitter."""
    bodies: dict[ClauseKind, dict[tuple[str, ...], None]] = {
        kind: {} for kind in ClauseKind
    }
    texts = [
        normalize(entry.raw_sql, schemas[entry.db_id]).render() for entry in CORPUS
    ]
    for index, db_id in enumerate(sorted(schemas)):
        generated = distinct_queries(schemas[db_id], random.Random(index), 60)
        texts += [query.render() for query in generated]
    for text in texts:
        for kind, body in split_text(text + "\n").completed.items():
            bodies[kind][body] = None
    for sql in (*(entry.raw_sql for entry in CORPUS), _NESTED_SUBQUERY):
        for kind, body in reference_normalize._split_sections(scan_sql(sql)).items():
            bodies[kind][tuple(body)] = None
    rng = random.Random(27)
    for kind in ClauseKind:
        for body in list(bodies[kind]):
            bodies[kind].update(dict.fromkeys(_lexeme_edits(body, rng, 30)))
    outcomes: Counter[str] = Counter()
    for kind in ClauseKind:
        parse = functools.partial(grammar.parse_clause_body, kind)
        want_parse = functools.partial(reference_grammar.parse_clause_body, kind)
        for body in bodies[kind]:
            want = _body_outcome(want_parse, body)
            assert _body_outcome(parse, body) == want, (kind, body)
            outcomes[want[0] if want[0] == "parsed" else want[0].__name__] += 1
    assert outcomes == {"parsed": 479, "ParseError": 10837}


def _normalize_outcome(normalize_fn, sql, schema):
    """The rendered query, or the class of what ``normalize_fn`` raised."""
    try:
        return normalize_fn(sql, schema).render()
    except SqlError as exc:
        return type(exc)


def _holds_set_operation(sql):
    try:
        return any(lexeme in SET_OPERATIONS for lexeme in scan_sql(sql))
    except ParseError:
        return False


@pytest.fixture(scope="module")
def normalize_corpus(schemas) -> dict[tuple[str, str], None]:
    """Every gold statement and its canonical render, 180 seeded random
    queries rendered as text and as one line, the nested-subquery
    statement, three statements at the grammar's edges, and 40 seeded
    one- or two-lexeme edits of each, as ``(db_id, sql)`` keys."""
    gold = [(entry.db_id, entry.raw_sql) for entry in CORPUS]
    statements = gold + [
        (db_id, normalize(sql, schemas[db_id]).render()) for db_id, sql in gold
    ]
    for index, db_id in enumerate(sorted(schemas)):
        for query in distinct_queries(schemas[db_id], random.Random(index), 60):
            text = query.render()
            statements += [(db_id, text), (db_id, denormalize_text(text))]
    statements += [("concerts", sql) for sql in (_NESTED_SUBQUERY, *_STATEMENT_EDGES)]
    corpus = dict.fromkeys(statements)
    rng = random.Random(28)
    for db_id, sql in statements:
        for edited in _lexeme_edits(scan_sql(sql), rng, 40):
            corpus[db_id, " ".join(edited)] = None
    return corpus


def test_normalize_matches_the_frozen_reference(schemas, normalize_corpus):
    """Every statement of ``normalize_corpus`` normalizes to the same
    text as through a frozen copy of the normalizer from before the
    grammar read a whole statement, or fails with the same exception
    class.  A statement holding a set operation always fails with
    ``SetOperationUnsupported``: the reference raised it only when no
    fault came earlier in the statement."""
    outcomes: Counter[tuple[str, str]] = Counter()
    for db_id, sql in normalize_corpus:
        want = _normalize_outcome(reference_normalize.normalize, sql, schemas[db_id])
        got = _normalize_outcome(normalize, sql, schemas[db_id])
        if isinstance(want, type) and _holds_set_operation(sql):
            assert got is SetOperationUnsupported, sql
        else:
            assert got == want, sql
        name = "query" if isinstance(want, str) else want.__name__
        outcomes[name, "query" if isinstance(got, str) else got.__name__] += 1
    assert outcomes == {
        ("query", "query"): 1002,
        ("ParseError", "ParseError"): 16235,
        ("ParseError", "SetOperationUnsupported"): 115,
        ("SetOperationUnsupported", "SetOperationUnsupported"): 830,
        ("UnknownName", "UnknownName"): 134,
        ("SelfJoinUnsupported", "SelfJoinUnsupported"): 6,
    }


def _scan_outcome(scan, text):
    """The lexemes ``scan`` makes of ``text``, or the text of the
    ``ParseError`` it raises."""
    try:
        return scan(text)
    except ParseError as exc:
        return str(exc)


# Pieces of free-form SQL that reach every branch of the scanner: both
# quote kinds, open, closed and doubled; open and closed backticks; ';';
# every operator, '==' and '<>' among them; '-' before a digit, in and out
# of a value position; dots; newlines; and non-ASCII letters, digits and
# spaces.
_SCAN_PIECES = (
    *("'", '"', "''", '""', "'a b'", '"x y"', "`", "`n m`", ";"),
    *("==", "<>", "<=", ">=", "!=", "<", ">", "=", "(", ")", ",", "*"),
    *("-", "-1", "7", "2.5", ".", "\n", " ", "\t", "a", "t.c", "select"),
    *("where", "in", "\u00e9", "\u0131", "\u0663", "\u00b2", "\u3000", "\xa0"),
    *("#", "!"),
)


def test_scan_sql_matches_the_frozen_reference(normalize_corpus):
    """``scan_sql`` returns the same lexemes, or raises a ``ParseError``
    with the same text, as a frozen copy of the character-loop scanner,
    on every statement of ``normalize_corpus`` and on 20,000 seeded
    strings of one to twelve ``_SCAN_PIECES``."""
    texts = [sql for _, sql in normalize_corpus]
    rng = random.Random(36)
    for _ in range(20_000):
        pieces = rng.choices(_SCAN_PIECES, k=rng.randint(1, 12))
        texts.append("".join(pieces))
    outcomes: Counter[str] = Counter()
    for text in texts:
        want = _scan_outcome(reference_scan.scan_sql, text)
        assert _scan_outcome(scan_sql, text) == want, text
        kind = "lexemes" if isinstance(want, list) else re.match(r"[^'\"]*", want)[0]
        outcomes[kind] += 1
    assert outcomes == {
        "lexemes": 23059,
        "unexpected character ": 11135,
        "unterminated string constant near ": 2536,
        "unterminated quoted identifier": 1302,
        "dangling ": 261,
        "newline inside string constant": 29,
    }


_NESTED_SUBQUERY = (
    "SELECT name FROM singer WHERE singer_id IN (SELECT singer_id"
    " FROM singer_in_concert WHERE concert_id IN (SELECT concert_id FROM concert))"
)


# Free-form statements at the edges of the statement grammar: an
# IN-subquery whose WHERE is its keyword alone, a statement without FROM,
# and a statement whose clauses after FROM are all their keyword alone.
_STATEMENT_EDGES = (
    "SELECT name FROM singer WHERE singer_id IN"
    " (SELECT singer_id FROM singer_in_concert WHERE)",
    "SELECT name WHERE age > 30",
    "SELECT name FROM singer WHERE GROUP BY HAVING ORDER BY LIMIT",
)


def test_a_nested_subquery_is_refused_in_both_dialects(schemas):
    """The dialect allows one level of ``IN (SELECT ...)``: free-form SQL
    and canonical text with a second level inside the first raise the
    same error."""
    message = "WHERE: nested subqueries are not supported"
    with pytest.raises(ParseError, match=message):
        normalize(_NESTED_SUBQUERY, schemas["concerts"])
    canonical = (
        "singer.singer_id IN ( SELECT singer_in_concert.singer_id"
        " FROM singer_in_concert WHERE singer_in_concert.concert_id IN"
        " ( SELECT concert.concert_id FROM concert ) )"
    )
    with pytest.raises(ParseError, match=message):
        grammar.parse_clause_body(ClauseKind.WHERE, canonical.split())
    one_level = canonical.split(" WHERE")[0] + " )"
    assert grammar.parse_clause_body(ClauseKind.WHERE, one_level.split())


# -- normalization ----------------------------------------------------------


def test_normalize_expands_aliases(schemas):
    query = normalize(
        "SELECT T1.name FROM singer AS T1 WHERE T1.age > 30",
        schemas["concerts"],
    )
    assert query.render().startswith("SELECT singer.name\nFROM singer\n")


@pytest.mark.parametrize(
    "digit", ["\u00b2", "\u0663"], ids=["superscript-two", "arabic-indic-three"]
)
def test_normalize_rejects_a_non_ascii_digit(schemas, digit):
    """A character Python calls a digit but SQLite reads as no number is
    a scan error: not a crash (superscript two), and not a constant that
    SQLite would take for a column name (Arabic-Indic three)."""
    for value in (digit, f"-{digit}", f"1{digit}"):
        with pytest.raises(ParseError):
            normalize(f"SELECT name FROM singer WHERE age > {value}", schemas["concerts"])
    assert not is_number(digit)


@pytest.mark.parametrize(
    "text",
    [
        "SELECT singer.name FROM singer jo\u0131n singer_in_concert"
        " ON singer.singer_id = singer_in_concert.singer_id",
        "SELECT name FROM singer WHERE name l\u0131ke 'A%'",
    ],
    ids=["dotless-i-join", "dotless-i-like"],
)
def test_normalize_refuses_a_keyword_spelled_with_a_dotless_i(schemas, connect, text):
    """``str.upper`` turns a dotless i into ``I``, but SQLite folds ASCII
    case alone: it reads ``jo\u0131n`` as an alias and ``l\u0131ke`` as
    no keyword, and refuses both statements.  So does ``normalize``."""
    with pytest.raises(sqlite3.OperationalError, match="syntax error"):
        connect("concerts").execute(text)
    with pytest.raises(ParseError):
        normalize(text, schemas["concerts"])
    assert is_identifier("jo\u0131n")


def test_normalize_qualifies_bare_columns(schemas):
    query = normalize("select name from singer", schemas["concerts"])
    assert query.select[0].expr.render() == "singer.name"
    with pytest.raises(UnknownName):
        normalize("select wingspan from singer", schemas["concerts"])


def test_normalize_ambiguous_bare_column(schemas):
    with pytest.raises(AmbiguousColumn):
        normalize(
            "select stuid from student, has_pet "
            "where student.stuid = has_pet.stuid",
            schemas["pets"],
        )


def test_normalize_lifts_implicit_joins(schemas):
    query = normalize(
        "select T1.name from singer as T1, singer_in_concert as T2 "
        "where T1.singer_id = T2.singer_id and T1.age > 30",
        schemas["concerts"],
    )
    rendered = query.render()
    assert "JOIN singer_in_concert ON" in rendered
    assert "WHERE singer.age > 30" in rendered


def test_normalize_refuses_a_duplicate_alias(schemas):
    with pytest.raises(NormalizationError, match="^duplicate alias 'a'$"):
        normalize(
            "select a.name from singer as a join singer_in_concert as a "
            "on a.singer_id = a.singer_id",
            schemas["concerts"],
        )


def test_normalize_refuses_a_comma_join_without_where(schemas):
    message = "^no join condition for table 'concert'$"
    with pytest.raises(NormalizationError, match=message):
        normalize("select singer.name from singer, concert", schemas["concerts"])


def test_normalize_lifts_a_table_once_it_can_link(schemas):
    """concert links only to singer_in_concert, which is lifted after it
    in the first pass, and the two conjuncts left over stay one AND."""
    query = normalize(
        "select singer.name from singer, concert, singer_in_concert "
        "where concert.concert_id = singer_in_concert.concert_id "
        "and singer.singer_id = singer_in_concert.singer_id "
        "and singer.age > 30 and concert.year = 2014",
        schemas["concerts"],
    )
    assert query.render().splitlines()[1:3] == [
        "FROM singer JOIN singer_in_concert ON singer.singer_id = "
        "singer_in_concert.singer_id JOIN concert ON concert.concert_id = "
        "singer_in_concert.concert_id",
        "WHERE singer.age > 30 AND concert.year = 2014",
    ]


def test_normalize_resolves_a_qualified_outer_reference_in_a_subquery(schemas):
    query = normalize(
        "select name from singer as s where singer_id in (select singer_id "
        "from singer_in_concert where singer_in_concert.singer_id = s.singer_id)",
        schemas["concerts"],
    )
    assert query.render().splitlines()[2] == (
        "WHERE singer.singer_id IN ( SELECT singer_in_concert.singer_id "
        "FROM singer_in_concert "
        "WHERE singer_in_concert.singer_id = singer.singer_id )"
    )


def test_an_in_list_renders_and_parses_back(schemas):
    query = normalize(
        "select name from singer where age in (1, 2)", schemas["concerts"]
    )
    assert query.render().splitlines()[2] == "WHERE singer.age IN ( 1 , 2 )"
    assert parse_complete(query.render()) == query


def test_normalize_keeps_uppercase_keywords_and_case_of_names(schemas):
    query = normalize("SELECT NAME FROM SINGER LIMIT 1", schemas["concerts"])
    assert query.render() == (
        "SELECT singer.name\nFROM singer\nWHERE\nGROUP BY\nHAVING\n"
        "ORDER BY\nLIMIT 1\n"
    )


def test_normalize_rejects_self_join(schemas):
    with pytest.raises(SelfJoinUnsupported):
        normalize(
            "select a.name from singer a, singer b where a.age = b.age",
            schemas["concerts"],
        )


def test_normalize_rejects_set_operations(schemas):
    with pytest.raises(SetOperationUnsupported):
        normalize(
            "select name from singer union select venue from concert",
            schemas["concerts"],
        )


def test_normalize_subquery_gets_qualified(schemas):
    query = normalize(
        "select name from singer where singer_id in "
        "(select singer_id from singer_in_concert)",
        schemas["concerts"],
    )
    sub = query.where.rhs
    assert sub.select[0].expr.table == "singer_in_concert"


def test_normalize_is_idempotent_on_canonical_text(schemas, normalized_tasks):
    for task in normalized_tasks[:10]:
        schema = schemas[task.db_id]
        again = normalize(task.gold_query, schema)
        assert again.render() == task.gold_query


def test_normalize_reads_canonical_text_as_parse_complete_does(
    schemas, normalized_tasks
):
    """Grading reads gold through ``normalize`` alone, so on canonical
    text it must build the query ``parse_complete`` builds."""
    cases = [(task.gold_query, schemas[task.db_id]) for task in normalized_tasks]
    rng = random.Random(29)
    for schema in schemas.values():
        cases.extend((q.render(), schema) for q in distinct_queries(schema, rng, 200))
    assert len(cases) >= 650
    for text, schema in cases:
        assert normalize(text, schema) == parse_complete(text), text


def test_rewrite_dataset_reports_rejections(tasks, schemas):
    from sqlsynth.tasks import TaskInstance

    bad = TaskInstance(
        id="bad-1",
        db_id="concerts",
        question="?",
        gold_query="select a.name from singer a, singer b where a.age = b.age",
    )
    kept, rejected = rewrite_dataset(list(tasks) + [bad], schemas)
    assert len(kept) == len(tasks)
    assert [task.id for task, _ in rejected] == ["bad-1"]
    assert "SelfJoin" in rejected[0][1]


def test_rewrite_dataset_changes_only_the_gold_query(tasks, schemas):
    """Each kept task is ``dataclasses.replace`` of the task with its gold
    rendered by ``normalize``, a task without gold is kept as it is, and
    a task is rejected exactly when ``normalize`` raises, with its class
    and message, on the fixture tasks and a seeded batch of generated
    queries as text, as one line and as edited gold."""
    from sqlsynth.tasks import TaskInstance

    batch = list(tasks)
    rng = random.Random(31)
    for index, db_id in enumerate(sorted(schemas)):
        for number, query in enumerate(distinct_queries(schemas[db_id], rng, 40)):
            text = query.render()
            sql = (text, denormalize_text(text), text.replace("FROM", "FROM FROM"))
            batch.append(
                TaskInstance(
                    id=f"gen-{index}-{number}",
                    db_id=db_id,
                    question="?",
                    gold_query=sql[number % 3],
                    examples=tasks[0].examples if number % 2 else frozenset(),
                )
            )
    batch.append(TaskInstance(id="no-gold", db_id="concerts", question="?"))
    kept, rejected = rewrite_dataset(batch, schemas)
    want_kept, want_rejected = [], []
    for task in batch:
        if not task.gold_query:
            want_kept.append(task)
            continue
        try:
            text = normalize(task.gold_query, schemas[task.db_id]).render()
        except SqlError as exc:
            want_rejected.append((task, f"{type(exc).__name__}: {exc}"))
            continue
        want_kept.append(dataclasses.replace(task, gold_query=text))
    assert kept == want_kept
    assert rejected == want_rejected
    assert kept[-1] is batch[-1]
    assert len(want_rejected) > 10 and len(want_kept) > 100


def test_clause_bodies_read_back_what_render_spells(schemas, normalize_corpus):
    """``render`` is the one spelling of a clause body and
    ``clause_bodies`` the one reader of finished text: the bodies it
    reads, spelled again as lines, are the rendered text, and they parse
    back to the query, on every query of ``normalize_corpus`` and of
    seeded generated queries."""
    queries = []
    for db_id, sql in normalize_corpus:
        try:
            queries.append(normalize(sql, schemas[db_id]))
        except SqlError:
            pass
    for index, db_id in enumerate(sorted(schemas)):
        queries += distinct_queries(schemas[db_id], random.Random(40 + index), 200)
    assert len(queries) > 1500
    for query in queries:
        text = query.render()
        bodies = clause_bodies(text)
        assert list(bodies) == list(CLAUSE_ORDER)
        lines = [" ".join((kind.value, *body)) + "\n" for kind, body in bodies.items()]
        assert "".join(lines) == text
        assert parse_clause_bodies(bodies) == query


# -- rendering and equality -------------------------------------------------


def test_denormalize_drops_empty_clause_lines():
    text = "SELECT singer.name\nFROM singer\nWHERE\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    assert denormalize_text(text) == "SELECT singer.name FROM singer"


def test_denormalize_keeps_populated_clauses():
    assert denormalize_text(_GOLD) == (
        "SELECT singer.name FROM singer WHERE singer.age > 30 "
        "ORDER BY singer.age ASC LIMIT 5"
    )


def test_exact_match_ignores_constants(schemas):
    left = parse_complete(_GOLD)
    right = parse_complete(_GOLD.replace("> 30", "> 99").replace("LIMIT 5", "LIMIT 8"))
    assert exact_match(left, right)
    assert query_skeleton(left) == query_skeleton(right)


def test_exact_match_respects_structure(schemas):
    left = parse_complete(_GOLD)
    assert not exact_match(left, parse_complete(_GOLD.replace("> 30", "< 30")))
    assert not exact_match(
        left, parse_complete(_GOLD.replace("ORDER BY singer.age ASC", "ORDER BY"))
    )


def test_exact_match_on_a_column_to_column_predicate(schemas):
    def where(condition):
        sql = f"select name from singer where {condition}"
        return normalize(sql, schemas["concerts"])

    assert exact_match(where("age > singer_id"), where("age > singer_id"))
    assert not exact_match(where("age > singer_id"), where("age > 5"))
    assert not exact_match(where("age > singer_id"), where("age > is_male"))


def test_exact_match_ignores_select_order(schemas):
    a = normalize("select name, age from singer", schemas["concerts"])
    b = normalize("select age, name from singer", schemas["concerts"])
    assert exact_match(a, b)


def test_exact_match_ignores_join_orientation(schemas):
    a = normalize(
        "select t1.name from singer t1 join singer_in_concert t2 "
        "on t1.singer_id = t2.singer_id",
        schemas["concerts"],
    )
    b = normalize(
        "select t2.name from singer_in_concert t1 join singer t2 "
        "on t2.singer_id = t1.singer_id",
        schemas["concerts"],
    )
    assert exact_match(a, b)


def test_random_queries_execute_after_denormalization(schemas, connect):
    rng = random.Random(2024)
    for db_id in sorted(schemas):
        conn = connect(db_id)
        for query in distinct_queries(schemas[db_id], rng, 25):
            conn.execute(denormalize_text(query.render())).fetchall()
