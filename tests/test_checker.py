from __future__ import annotations

import dataclasses
import random
import sqlite3
import sys
import threading
from collections import Counter
from contextlib import closing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sqlsynth import checker
from sqlsynth.checker import (
    CLAUSE_VOCABULARY,
    CheckVerdict,
    Label,
    check_types,
    make_checker,
    make_query_check,
    predict_label,
)
from sqlsynth.lm import lexeme_tokens
from sqlsynth.nsql.errors import ClauseOrderViolation, ParseError
from sqlsynth.nsql.grammar import parse_clause_body, parse_complete, parse_partial
from sqlsynth.nsql.lexemes import COMPARISONS, KEYWORDS
from sqlsynth.nsql.normalize import normalize
from sqlsynth.nsql.query import ClauseKind, denormalize_text
from sqlsynth.repair import (
    ExecutionStatus,
    execute_text,
    hamming_one_queries,
    satisfies_examples,
)
from sqlsynth.tasks import (
    Column,
    ColumnType,
    DatabaseSchema,
    ExampleTuple,
    Table,
    open_database,
)
from tests.fixtures import vocabulary as reference_vocabulary
from tests.fixtures.build import (
    DATABASES,
    EmptyResult,
    ExecutionError,
    derive_example,
)
from tests.fixtures.randqueries import distinct_queries, random_query
from tests.fixtures.repair import parsed_edits
from tests.fixtures.textsplit import split_text
from tests.test_acceptance import _MUTATION_FAMILIES
from tests.test_repair import _reference_neighbours, _reference_variants


@pytest.fixture(scope="module")
def concerts(schemas):
    return schemas["concerts"]


# -- vocabulary -------------------------------------------------------------


def test_every_clause_has_a_vocabulary():
    """Every clause has a flat and a nested record, and the nested one
    admits everything the flat one does."""
    assert set(CLAUSE_VOCABULARY) == set(ClauseKind)
    for clause, (flat, nested) in CLAUSE_VOCABULARY.items():
        assert flat.exact <= nested.exact, clause
        for name in ("column_ref", "table", "constant", "integer"):
            assert getattr(nested, name) >= getattr(flat, name), (clause, name)


def _vocabulary_corpus(schemas) -> list[str]:
    """Every keyword, operator and punctuation mark, sample constants, and
    every table name and column reference of the fixture schemas, each as
    written, upper-cased and with a suffix."""
    corpus = [
        *KEYWORDS, *COMPARISONS, "(", ")", ",", "*", "-", ".", ";",
        "0", "7", "42", "-3", "2.5", "-0.25", "1.", "'a'", "'it''s'", "''",
        "'x", "x", "_", "ab.cd", "nosuch", "SELECT.x", "\u00b2", "\u0663",
    ]
    for schema in schemas.values():
        names = [table.name for table in schema.tables]
        for name in (*names, *schema.column_refs()):
            corpus.extend((name, name.upper(), name + "_x"))
    return list(dict.fromkeys(corpus))


def test_vocabulary_table_matches_the_class_name_reference(schemas):
    """Each finished lexeme, and every character prefix of it as the
    unfinished last lexeme, gets the same verdict from the checker's one
    table per clause as from the frozen class-name vocabulary, in every
    clause, flat and nested, on every fixture schema."""
    corpus = _vocabulary_corpus(schemas)
    fragments = list(dict.fromkeys(w[:n] for w in corpus for n in range(len(w) + 1)))
    compared = 0
    for schema in schemas.values():
        for clause in ClauseKind:
            for nested in (False, True):
                for lexeme in corpus:
                    want = reference_vocabulary.lexeme_verdict(
                        schema, lexeme, clause, nested
                    )
                    got = checker._lexeme_verdict(schema, lexeme, clause, nested)
                    assert got == want, (clause, nested, lexeme)
                for fragment in fragments:
                    want = reference_vocabulary.fragment_plausible(
                        fragment, clause, int(nested), schema
                    )
                    got = checker._fragment_plausible(fragment, clause, nested, schema)
                    assert got == want, (clause, nested, fragment)
                compared += len(corpus) + len(fragments)
    assert compared > 10_000


@pytest.mark.parametrize(
    "clause, body",
    [
        (ClauseKind.SELECT, ["DISTINCT", "singer.name", ",", "singer.age"]),
        (ClauseKind.SELECT, ["COUNT", "(", "*", ")"]),
        (ClauseKind.FROM, ["singer", "JOIN", "singer_in_concert", "ON",
                           "singer.singer_id", "=", "singer_in_concert.singer_id"]),
        (ClauseKind.WHERE, ["singer.age", ">", "30", "AND", "singer.name", "LIKE", "'A%'"]),
        (ClauseKind.WHERE, ["singer.singer_id", "IN", "(", "SELECT",
                            "singer_in_concert.singer_id", "FROM",
                            "singer_in_concert", ")"]),
        (ClauseKind.GROUP_BY, ["singer.country", ",", "singer.age"]),
        (ClauseKind.HAVING, ["COUNT", "(", "*", ")", ">", "2"]),
        (ClauseKind.ORDER_BY, ["COUNT", "(", "*", ")", "DESC"]),
        (ClauseKind.LIMIT, ["3"]),
    ],
)
def test_vocabulary_accepts_canonical_bodies(clause, body, concerts):
    assert _check_vocabulary(clause, body, None, concerts).ok


@pytest.mark.parametrize(
    "clause, body, kind",
    [
        (ClauseKind.SELECT, [">"], Label.SYNTAX_ERROR),
        (ClauseKind.SELECT, ["'text'"], Label.SYNTAX_ERROR),
        (ClauseKind.WHERE, ["singer.wingspan"], Label.RUNTIME_ERROR),
        (ClauseKind.FROM, ["starship"], Label.RUNTIME_ERROR),
        (ClauseKind.FROM, ["DISTINCT"], Label.SYNTAX_ERROR),
        (ClauseKind.GROUP_BY, ["COUNT"], Label.SYNTAX_ERROR),
        (ClauseKind.LIMIT, ["singer.age"], Label.SYNTAX_ERROR),
        (ClauseKind.LIMIT, ["-3"], Label.SYNTAX_ERROR),
        (ClauseKind.WHERE, [")"], Label.SYNTAX_ERROR),
    ],
)
def test_vocabulary_rejects_misplaced_lexemes(clause, body, kind, concerts):
    verdict = _check_vocabulary(clause, body, None, concerts)
    assert not verdict.ok
    assert verdict.kind is kind


def test_vocabulary_aggregation_depth_rules(concerts):
    # Aggregations live in WHERE only inside a subquery's parentheses.
    assert not _check_vocabulary(ClauseKind.WHERE, ["COUNT"], None, concerts).ok
    assert _check_vocabulary(
        ClauseKind.WHERE, ["(", "COUNT"], None, concerts
    ).ok
    # HAVING admits them at the top level.
    assert _check_vocabulary(ClauseKind.HAVING, ["COUNT"], None, concerts).ok


@pytest.mark.parametrize(
    "fragment",
    ["sing", "singer.na", "DIST", "COU"],
)
def test_fragments_with_a_future_pass(fragment, concerts):
    assert _check_vocabulary(ClauseKind.SELECT, [], fragment, concerts).ok


def test_fragment_case_insensitive_column_prefix(concerts):
    assert _check_vocabulary(ClauseKind.SELECT, [], "Singer.NA", concerts).ok


def test_constant_fragments_only_where_constants_live(concerts):
    for fragment in ("'unfinished", "12.", "-"):
        assert _check_vocabulary(ClauseKind.WHERE, [], fragment, concerts).ok
        assert not _check_vocabulary(ClauseKind.SELECT, [], fragment, concerts).ok


def test_dead_fragments_are_rejected(concerts):
    verdict = _check_vocabulary(ClauseKind.SELECT, [], "xyz", concerts)
    assert not verdict.ok and verdict.kind is Label.SYNTAX_ERROR
    verdict = _check_vocabulary(ClauseKind.SELECT, [], "singer.zz", concerts)
    assert not verdict.ok and verdict.kind is Label.RUNTIME_ERROR


def test_non_ascii_digits_are_rejected_as_they_are_written(concerts):
    """A character Python calls a digit but the grammar refuses is
    rejected as a fragment and as a finished lexeme, not only once its
    line is parsed; ASCII digits still pass."""
    check = make_checker(concerts, None)
    head = "SELECT singer.name\nFROM singer\nWHERE\nGROUP BY\nHAVING\nORDER BY\n"
    for text in (
        head + "LIMIT ²",
        head + "LIMIT ² ",
        "SELECT singer.name\nFROM singer\nWHERE singer.age > ٣",
    ):
        verdict = check(text, False)
        assert not verdict.ok and verdict.kind is Label.SYNTAX_ERROR, text
    assert check(head + "LIMIT 2 ", False).ok


def test_count_distinct_star_is_refused_as_sqlite_refuses_it(concerts):
    """SQLite reads ``COUNT ( DISTINCT * )`` as a syntax error, so the
    normalizer and the grammar refuse it and the checker calls a text
    that holds it SYNTAX; a counted star and a DISTINCT column parse."""
    with pytest.raises(ParseError):
        normalize("select count(distinct *) from singer", concerts)
    with pytest.raises(ParseError):
        parse_clause_body(ClauseKind.SELECT, "COUNT ( DISTINCT * )".split())
    text = (
        "SELECT COUNT ( DISTINCT * )\nFROM singer\n"
        "WHERE\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    )
    verdict = make_checker(concerts, None)(text, True)
    assert not verdict.ok and verdict.kind is Label.SYNTAX_ERROR
    for body in ("COUNT ( * )", "COUNT ( DISTINCT singer.age )"):
        assert parse_clause_body(ClauseKind.SELECT, body.split())


def test_a_close_paren_with_nothing_open_on_the_line_being_typed_is_syntax(concerts):
    verdict = make_checker(concerts, None)("SELECT singer.name ) ", False)
    assert not verdict.ok
    assert (verdict.kind, verdict.clause) == (Label.SYNTAX_ERROR, ClauseKind.SELECT)
    assert verdict.detail == "unbalanced ')'"


# -- scope ------------------------------------------------------------------


def _check(schema, text):
    return make_checker(schema, None)(text, False)


def test_scope_inert_until_from_is_closed(concerts):
    assert _check(concerts, "SELECT concert.venue\nFROM sing").ok


def test_scope_checks_select_once_from_is_known(concerts):
    assert _check(concerts, "SELECT singer.name\nFROM singer\nWHERE ").ok
    verdict = _check(concerts, "SELECT concert.venue\nFROM singer\nWHERE ")
    assert not verdict.ok
    assert verdict.kind is Label.RUNTIME_ERROR
    assert verdict.clause is ClauseKind.SELECT


def test_scope_scans_the_open_clause(concerts):
    verdict = _check(concerts, "SELECT singer.name\nFROM singer\nWHERE concert.year ")
    assert not verdict.ok
    assert verdict.kind is Label.RUNTIME_ERROR and verdict.clause is ClauseKind.WHERE
    assert _check(concerts, "SELECT singer.name\nFROM singer\nWHERE singer.age ").ok


def test_scope_defers_subquery_columns_until_their_from(concerts):
    prefix = (
        "SELECT singer.name\nFROM singer\n"
        "WHERE singer.singer_id IN ( SELECT singer_in_concert.singer_id "
    )
    assert _check(concerts, prefix).ok
    closed = prefix + "FROM singer_in_concert ) "
    assert _check(concerts, closed).ok
    # Under the subquery's FROM the outer table stays visible.
    correlated = prefix + "FROM singer_in_concert WHERE singer.age "
    assert _check(concerts, correlated).ok


def test_scope_rejects_strays_inside_subqueries(concerts):
    text = (
        "SELECT singer.name\nFROM singer\n"
        "WHERE singer.singer_id IN ( SELECT singer_in_concert.singer_id "
        "FROM singer_in_concert WHERE concert.year "
    )
    verdict = _check(concerts, text)
    assert not verdict.ok
    assert verdict.kind is Label.RUNTIME_ERROR
    assert "subquery's FROM" in verdict.detail


def test_scope_judges_subquery_columns_at_its_where(concerts):
    # Until WHERE a JOIN could still bring concert into the subquery.
    prefix = (
        "SELECT singer.name\nFROM singer\n"
        "WHERE singer.singer_id IN ( SELECT concert.year "
        "FROM singer_in_concert "
    )
    assert _check(concerts, prefix).ok
    verdict = _check(concerts, prefix + "WHERE ")
    assert not verdict.ok
    assert verdict.kind is Label.RUNTIME_ERROR and verdict.clause is ClauseKind.WHERE
    assert "subquery's FROM" in verdict.detail
    assert not _check(concerts, prefix + ") ").ok


def test_scope_covers_order_by(concerts):
    verdict = _check(
        concerts,
        "SELECT singer.name\nFROM singer\nWHERE\nGROUP BY\nHAVING\n"
        "ORDER BY concert.year ",
    )
    assert not verdict.ok
    assert verdict.kind is Label.RUNTIME_ERROR and verdict.clause is ClauseKind.ORDER_BY


# -- types ------------------------------------------------------------------


def _items(body):
    _, items = parse_clause_body(ClauseKind.SELECT, body)
    return items


def test_types_match_plain_columns(concerts):
    example = ExampleTuple.from_values(("France", 30))
    items = _items(("singer.country", ",", "singer.age"))
    assert check_types(items, concerts, example.types).ok


def test_types_arity_mismatch(concerts):
    example = ExampleTuple.from_values(("France", 30))
    verdict = check_types(_items(("singer.country",)), concerts, example.types)
    assert not verdict.ok
    assert verdict.kind is Label.EXAMPLE_ERROR
    assert "1 columns" in verdict.detail


def test_types_count_is_integer(concerts):
    count = _items(("COUNT", "(", "*", ")"))
    assert check_types(count, concerts, ExampleTuple.from_values((4,)).types).ok
    verdict = check_types(count, concerts, ExampleTuple.from_values(("x",)).types)
    assert not verdict.ok and verdict.kind is Label.EXAMPLE_ERROR


def test_types_avg_and_sum_are_numeric(concerts):
    avg = _items(("AVG", "(", "singer.age", ")"))
    assert check_types(avg, concerts, ExampleTuple.from_values((29.5,)).types).ok
    total = _items(("SUM", "(", "singer.age", ")"))
    assert check_types(total, concerts, ExampleTuple.from_values((120,)).types).ok
    verdict = check_types(total, concerts, ExampleTuple.from_values(("x",)).types)
    assert verdict.detail == "column 1 yields Real, example has Text"


def test_types_min_max_keep_column_type(concerts):
    youngest = _items(("MIN", "(", "singer.name", ")"))
    assert check_types(youngest, concerts, ExampleTuple.from_values(("Ali",)).types).ok
    assert not check_types(youngest, concerts, ExampleTuple.from_values((3,)).types).ok


def test_types_star_defers_without_from(concerts):
    star = _items(("*",))
    example = ExampleTuple.from_values(("x",))
    assert check_types(star, concerts, example.types, from_tables=None).ok
    verdict = check_types(star, concerts, example.types, from_tables=("singer",))
    assert not verdict.ok  # singer has five columns, example has one


def test_types_boolean_column_accepts_integer_examples(concerts):
    flag = _items(("singer.is_male",))
    assert check_types(flag, concerts, ExampleTuple.from_values((1,)).types).ok
    assert check_types(flag, concerts, ExampleTuple.from_values(("t",)).types).ok


def test_a_boolean_example_admits_real_outputs_that_equal_it():
    """SQLite returns no bool, and ``True == 1 == 1.0``: a Real output
    that reads 1.0 satisfies the example ``[true]``, so the checker
    passes it."""
    table = Table(
        "t", (Column("flag", ColumnType.INTEGER), Column("score", ColumnType.REAL))
    )
    schema = DatabaseSchema("flags", (table,))
    example = ExampleTuple.from_values((True,))
    empty = "WHERE\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    with closing(sqlite3.connect(":memory:")) as conn:
        conn.execute("CREATE TABLE t (flag integer, score real)")
        conn.execute("INSERT INTO t VALUES (1, 1.0)")
        for select in ("AVG ( t.flag )", "t.score"):
            text = f"SELECT {select}\nFROM t\n{empty}"
            check = make_checker(schema, example)
            for cut in range(len(text) + 1):
                assert check(text[:cut], False).ok, text[:cut]
            assert check(text, True).ok, text
            assert predict_label(text, schema, example) is Label.CORRECT
            result = execute_text(conn, denormalize_text(text))
            assert result.rows == ((1.0,),)
            assert satisfies_examples(result, [example])


_TYPED = DatabaseSchema(
    "typed",
    (Table("t", tuple(Column(f"c_{kind.name.lower()}", kind) for kind in ColumnType)),),
)
_TEXT_AND_NUMBER = (
    {ColumnType.TEXT, ColumnType.INTEGER},
    {ColumnType.TEXT, ColumnType.REAL},
)


@pytest.mark.parametrize(
    "example", [1, 2.5, "x", True, None], ids=["int", "real", "text", "bool", "null"]
)
@pytest.mark.parametrize(
    "body, output",
    [
        *(((f"t.c_{kind.name.lower()}",), kind) for kind in ColumnType),
        (("SUM", "(", "t.c_integer", ")"), ColumnType.REAL),
    ],
    ids=[*(kind.name.lower() for kind in ColumnType), "sum"],
)
def test_output_types_meet_example_types_by_one_rule(body, output, example):
    """The type rule as a truth table: a column is rejected exactly when
    one side is Text and the other Integer or Real.  A declared Boolean
    column may yield any type, and a Boolean example equals 1 and 1.0;
    Other (an undeclared type, or a NULL example) agrees with any type.
    SUM yields a number, Integer or Real."""
    kind = ExampleTuple.from_values((example,)).types[0]
    rejected = {output, kind} in _TEXT_AND_NUMBER
    verdict = check_types(_items(body), _TYPED, (kind,))
    assert verdict.ok is not rejected
    if rejected:
        assert (verdict.kind, verdict.clause) == (Label.EXAMPLE_ERROR, ClauseKind.SELECT)


# -- orchestration ----------------------------------------------------------


def test_check_partial_prefers_structural_errors(concerts):
    verdict = _check(concerts, "SELECT singer.name \nFROM singer\n")
    assert not verdict.ok and verdict.kind is Label.SYNTAX_ERROR


def test_check_partial_keyword_fragments(concerts):
    check = make_checker(concerts, None)
    assert check("SELECT singer.name\nFRO", False).ok
    assert not check("SELECT singer.name\nFRX", False).ok
    assert check("SELECT singer.name\nFROM singer\nWHERE\nGROUP B", False).ok


def test_check_partial_requires_eos_at_the_end(concerts):
    check = make_checker(concerts, None)
    full = (
        "SELECT singer.name\nFROM singer\nWHERE\nGROUP BY\nHAVING\n"
        "ORDER BY\nLIMIT\n"
    )
    assert check(full, True).ok
    early = check("SELECT singer.name\nFROM singer\n", True)
    assert not early.ok and early.kind is Label.SYNTAX_ERROR


def test_check_partial_clause_order_becomes_syntax(concerts):
    check = make_checker(concerts, None)
    verdict = check("SELECT singer.name\nWHERE singer.age > 3\n", False)
    assert not verdict.ok
    assert verdict.kind is Label.SYNTAX_ERROR


def test_checker_passes_every_prefix_of_a_gold(concerts):
    gold = (
        "SELECT singer.country , COUNT ( * )\nFROM singer\n"
        "WHERE singer.age > 20\nGROUP BY singer.country\n"
        "HAVING COUNT ( * ) >= 2\nORDER BY COUNT ( * ) DESC\nLIMIT 3\n"
    )
    example = ExampleTuple.from_values(("France", 3))
    check = make_checker(concerts, example)
    for cut in range(len(gold) + 1):
        verdict = check(gold[:cut], False)
        assert verdict.ok, (gold[:cut], verdict)
    assert check(gold, True).ok


def test_one_body_in_two_clauses_keeps_two_verdicts(concerts):
    # Verdicts and parses are keyed by kind and body: the same lexemes
    # are wrong in SELECT and right in WHERE.
    check = make_checker(concerts, None)
    body = "singer.age > 30"
    verdict = check(f"SELECT {body}\nFROM singer\n", False)
    assert not verdict.ok and verdict.clause is ClauseKind.SELECT
    assert check(f"SELECT singer.name\nFROM singer\nWHERE {body}\n", False).ok


def test_select_types_are_checked_once_per_head(monkeypatch, concerts):
    """A SELECT without a bare star keeps the types verdict it got when
    SELECT terminated; only a star is checked again once FROM is known."""
    calls: list[bool] = []

    def counting(items, schema, example_types, from_tables=None):
        calls.append(from_tables is not None)
        return check_types(items, schema, example_types, from_tables)

    monkeypatch.setattr(checker, "check_types", counting)
    example = ExampleTuple.from_values((1,))
    check = make_checker(concerts, example)
    reference = _reference_check(concerts, example)
    texts = {
        "SELECT singer.name\nFROM singer\nWHERE": [False],
        "SELECT singer.age\nFROM singer\nWHERE": [False],
        "SELECT *\nFROM singer\nWHERE": [False, True],
        "SELECT *\nFROM singer_in_concert\nWHERE": [True],
    }
    for text, expected_calls in texts.items():
        calls.clear()
        verdict = check(text, False)
        assert calls == expected_calls, text
        assert verdict == reference(text, False), text
    assert not check("SELECT singer.name\nFROM singer\nWHERE", False).ok
    assert check("SELECT singer.age\nFROM singer\nWHERE", False).ok
    # singer has five columns, the example one.
    assert check("SELECT *\nFROM singer\nWHERE", False).kind is Label.EXAMPLE_ERROR


# -- incremental checker against the whole-prefix reference ---------------


def _reference_scope(current, body, partial):
    """Every terminated body's column refs against the FROM tables, then
    the current line's; inert until FROM is terminated."""
    from_body = partial.completed.get(ClauseKind.FROM)
    if from_body is None:
        return checker.PASS
    outer = frozenset(
        t.lower() for t in parse_clause_body(ClauseKind.FROM, from_body).tables
    )
    for kind, lexemes in partial.completed.items():
        verdict = checker._scope(kind, lexemes, outer)
        if not verdict.ok:
            return verdict
    return checker._scope(current, body, outer)


def _check_vocabulary(clause, lexemes, last_incomplete, schema):
    """The uncached lexeme-by-lexeme check of one clause body through the
    frozen class-name vocabulary, the oracle for the checker's table."""
    return reference_vocabulary.check_lexemes(clause, lexemes, last_incomplete, schema)


def _reference_check(schema, example):
    """The whole-prefix orchestration the incremental checker replaced:
    every check re-runs every terminated clause."""

    def check(text, eos_seen):
        try:
            partial = split_text(text)
        except ClauseOrderViolation as exc:
            return CheckVerdict.rejected(Label.SYNTAX_ERROR, None, str(exc))
        if partial.syntax_error is not None:
            return CheckVerdict.rejected(
                Label.SYNTAX_ERROR, partial.current_clause, partial.syntax_error
            )
        clauses: dict[ClauseKind, object] = {}
        for kind, body in partial.completed.items():
            verdict = _check_vocabulary(kind, body, None, schema)
            if not verdict.ok:
                return verdict
            try:
                clauses[kind] = parse_clause_body(kind, body)
            except ParseError as exc:
                return CheckVerdict.rejected(Label.SYNTAX_ERROR, kind, str(exc))
        current = partial.current_clause
        keyword_remaining, body, fragment, _ = parse_partial(
            current, text[text.rfind("\n") + 1 :]
        )
        if current is not None:
            if keyword_remaining:
                if fragment is not None and not keyword_remaining[0].startswith(
                    fragment
                ):
                    return CheckVerdict.rejected(
                        Label.SYNTAX_ERROR,
                        current,
                        f"{fragment!r} cannot start the {current.value} line",
                    )
            else:
                verdict = _check_vocabulary(current, body, fragment, schema)
                if not verdict.ok:
                    return verdict
        verdict = _reference_scope(current, body, partial)
        if not verdict.ok:
            return verdict
        if example is not None and ClauseKind.SELECT in clauses:
            from_clause = clauses.get(ClauseKind.FROM)
            verdict = check_types(
                clauses[ClauseKind.SELECT][1],
                schema,
                example.types,
                from_tables=from_clause.tables if from_clause is not None else None,
            )
            if not verdict.ok:
                return verdict
        if eos_seen and current is not None:
            return CheckVerdict.rejected(
                Label.SYNTAX_ERROR, current, "generation ended before the LIMIT line"
            )
        return checker.PASS

    return check


_EDITS = (
    "\n", " ", "(", ")", ",", "'", ".", "*", "x", "\n\n", "  ",
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "GROUP BY", "HAVING",
    "ORDER BY", "LIMIT", "COUNT", "IN", "=",
)


def _edited(rng: random.Random, text: str) -> tuple[int, str]:
    """One seeded single-place edit: an insertion from ``_EDITS`` or a
    deletion of one to three characters.  Returns where it happened."""
    at = rng.randrange(len(text) + 1)
    if at < len(text) and rng.random() < 0.35:
        return at, text[:at] + text[at + rng.randint(1, 3) :]
    return at, text[:at] + rng.choice(_EDITS) + text[at:]


def _differential_texts(normalized_tasks, schemas) -> dict[str, list[str]]:
    """Inputs for each task: every character prefix of the gold, of the
    criterion-03 mutations drawn for it, of generated queries on its
    schema and of seeded edits of those (from the edit on), plus the
    gold's one-edit repair variants as complete texts."""
    rng = random.Random(5)
    texts = {task.id: [] for task in normalized_tasks}
    bases = {task.id: [task.gold_query] for task in normalized_tasks}
    for _, mutate, _ in _MUTATION_FAMILIES:
        for _ in range(10):
            task = rng.choice(normalized_tasks)
            mutated = mutate(rng, task, schemas[task.db_id])
            if mutated is not None:
                bases[task.id].append(mutated)
    for index, task in enumerate(normalized_tasks[::10]):
        generated = distinct_queries(schemas[task.db_id], random.Random(index), 2)
        bases[task.id].extend(query.render() for query in generated)
    for task in normalized_tasks:
        schema = schemas[task.db_id]
        out = texts[task.id]
        for base in bases[task.id]:
            out.extend(base[:cut] for cut in range(len(base) + 1))
            for _ in range(2):
                at, edited = _edited(rng, base)
                out.extend(edited[:cut] for cut in range(at, len(edited) + 1))
        gold = parse_complete(task.gold_query)
        for variant, _, _ in parsed_edits(hamming_one_queries(gold, schema)):
            out.append(variant.render())
        rng.shuffle(out)
        # Repeats come back after other heads have been seen.
        out.extend(rng.sample(out, len(out) // 5))
    return texts


def test_incremental_checker_matches_the_whole_prefix_reference(
    normalized_tasks, schemas
):
    """Same (ok, kind, clause, detail) as the reference for ``make_checker``,
    sharing one memo across each task's inputs so that head hits and
    misses interleave."""
    texts = _differential_texts(normalized_tasks, schemas)
    kinds: set[Label | None] = set()
    checks = 0
    for task in normalized_tasks:
        schema = schemas[task.db_id]
        example = task.sorted_examples()[0]
        check = make_checker(schema, example)
        reference = _reference_check(schema, example)
        for text in texts[task.id]:
            for eos in (False, True):
                got = check(text, eos)
                want = reference(text, eos)
                if got != want:
                    pytest.fail(f"{task.id} eos={eos} {text!r}: {got} != {want}")
                kinds.add(got.kind)
                checks += 1
    assert kinds == {None, *Label} - {Label.CORRECT}
    assert checks > 50_000


def test_checkers_sharing_warm_tables_match_the_whole_prefix_reference(
    normalized_tasks, schemas
):
    """Checkers over one schema object share the process-wide step table
    and line-verdict cache.  After a first pass has warmed both,
    a replay in a shuffled task order, with every other task's example
    hidden, still gives the reference's verdict on every input."""
    texts = _differential_texts(normalized_tasks, schemas)
    want: dict[tuple, CheckVerdict] = {}
    rng = random.Random(11)
    order = list(normalized_tasks)
    checks = 0
    for replay in range(2):
        rng.shuffle(order)
        for position, task in enumerate(order):
            hidden = replay == 1 and position % 2 == 1
            example = None if hidden else task.sorted_examples()[0]
            check = make_checker(schemas[task.db_id], example)
            reference = _reference_check(schemas[task.db_id], example)
            for text in texts[task.id]:
                for eos in (False, True):
                    key = (task.id, hidden, text, eos)
                    if key not in want:
                        want[key] = reference(text, eos)
                    got = check(text, eos)
                    if got != want[key]:
                        pytest.fail(f"{key}: {got} != {want[key]}")
                    checks += 1
    assert checks > 100_000
    assert checker._check_line.cache_info().hits > checks // 5


def test_threads_sharing_tables_match_the_whole_prefix_reference(
    normalized_tasks, schemas
):
    """Threads that check one text set at once, through checkers sharing
    the step table and the line-verdict cache, each get the reference's
    verdict on every input."""
    texts = _differential_texts(normalized_tasks, schemas)
    tasks = normalized_tasks[::3]
    want = {}
    for task in tasks:
        reference = _reference_check(schemas[task.db_id], task.sorted_examples()[0])
        want[task.id] = [
            (reference(text, False), reference(text, True)) for text in texts[task.id]
        ]
    workers = 4
    barrier = threading.Barrier(workers, timeout=30)
    done: list[int] = []
    wrong: list[str] = []

    def work() -> None:
        try:
            barrier.wait()
            checks = 0
            for task in tasks:
                check = make_checker(schemas[task.db_id], task.sorted_examples()[0])
                for text, expected in zip(texts[task.id], want[task.id]):
                    if (check(text, False), check(text, True)) != expected:
                        wrong.append(f"{task.id} {text!r}")
                    checks += 2
            done.append(checks)
        except Exception as exc:  # reported by the assertions below
            wrong.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(done) == workers and min(done) > 10_000


def test_shared_state_keeps_schemas_and_nesting_apart(concerts):
    """The shared caches keep verdicts apart by schema object and by
    nesting.  Texts whose verdicts differ between two schemas, or that
    use a lexeme allowed only inside parentheses, get the reference's
    verdict on each schema in either order."""
    singer, concert, _ = concerts.tables
    name = dataclasses.replace(singer.columns[1], type=ColumnType.INTEGER)
    columns = (singer.columns[0], name, *singer.columns[2:])
    other = dataclasses.replace(
        concerts, tables=(dataclasses.replace(singer, columns=columns), concert)
    )
    example = ExampleTuple.from_values(("Ali",))
    across_schemas = [
        "SELECT singer.name\nFROM singer\nWHERE",
        "SELECT singer_in_concert.singer_id\nFROM",
        "SELECT singer.name\nFROM singer_in",
    ]
    where = "SELECT singer.name\nFROM singer\nWHERE "
    nested, flat = where + "singer.age IN ( SELECT COUNT (", where + "COUNT ("
    terminated = [nested + " * ) )\nGROUP BY", flat + " * )\nGROUP BY"]
    texts = [*across_schemas, nested, flat, *terminated]
    for text in across_schemas:
        verdicts = {_reference_check(s, example)(text, False) for s in (concerts, other)}
        assert len(verdicts) == 2, text
    assert _reference_check(concerts, example)(nested, False).ok
    assert not _reference_check(concerts, example)(flat, False).ok
    for order in (texts, texts[::-1]):
        # Fresh schema objects, so each order starts from cold entries.
        pair = (dataclasses.replace(concerts), dataclasses.replace(other))
        for text in order:
            for schema in pair if order is texts else pair[::-1]:
                want = _reference_check(schema, example)(text, False)
                assert make_checker(schema, example)(text, False) == want, text


def test_shared_check_state_stays_within_its_bounds(concerts):
    """More distinct lexemes, steps, heads and current lines than any
    bound, spread over many schema objects, leave every shared checker
    cache within its process-wide bound, and the verdicts equal the
    reference's."""
    caches = (
        checker._shared_step,
        checker._head,
        checker._lexeme_verdict,
        checker._check_line,
    )
    count = max(cache.cache_info().maxsize for cache in caches) + 100
    example = ExampleTuple.from_values(("Ali",))
    reference = _reference_check(concerts, example)
    copies = [dataclasses.replace(concerts) for _ in range(8)]
    for index in range(count):
        # A new lexeme, so a new rejection, head, step and line-cache key.
        text = f"SELECT v{index}\nFROM"
        check = make_checker(copies[index % len(copies)], example)
        assert check(text, False) == reference(text, False)
    for cache in caches:
        info = cache.cache_info()
        assert info.misses >= count > info.maxsize >= info.currsize


def test_every_shared_cache_is_bounded(shared_caches):
    """Every process-wide cache in the package has a finite size, so one
    added later is bounded as well as emptied between tests."""
    assert "sqlsynth.checker._shared_step" in shared_caches
    unbounded = [
        name
        for name, cache in shared_caches.items()
        if cache.cache_info().maxsize is None
    ]
    assert unbounded == []


@pytest.mark.parametrize("db_id", sorted(DATABASES))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_checker_accepts_every_prefix_of_a_random_query(db_id, seed, schemas):
    schema = schemas[db_id]
    text = random_query(schema, random.Random(seed)).render()
    check = make_checker(schema, None)
    tokens = lexeme_tokens(text)
    for end in range(len(tokens) + 1):
        verdict = check("".join(tokens[:end]), False)
        assert verdict.ok, (text, end, verdict)
    assert check(text, True).ok, text


# -- scope against SQLite --------------------------------------------------


def _subquery_text(schema, rng: random.Random) -> str:
    """A seeded IN-subquery text over ``schema``.

    The subquery joins one to three tables.  Column references, in its
    SELECT, its ON conditions, its WHERE with an optional parenthesised
    OR, and an outer conjunct, are drawn mostly from the tables the text
    names and otherwise from any table of the schema.
    """
    names = [table.name for table in schema.tables]
    outer = rng.choice(names)
    inner = rng.sample(names, rng.randint(1, min(3, len(names))))
    named = [outer, *inner]

    def ref() -> str:
        table = schema.table(rng.choice(named if rng.random() < 0.85 else names))
        return f"{table.name}.{rng.choice(table.columns).name}"

    joins = "".join(f" JOIN {table} ON {ref()} = {ref()}" for table in inner[1:])
    where = ""
    if rng.random() < 0.7:
        where = f" WHERE {ref()} = {ref()}"
        if rng.random() < 0.5:
            where += f" AND ( {ref()} = 1 OR {ref()} > 2 )"
    conjunct = f" AND {ref()} > 0" if rng.random() < 0.5 else ""
    return (
        f"SELECT {ref()}\nFROM {outer}\nWHERE {ref()} IN ( SELECT {ref()} "
        f"FROM {inner[0]}{joins}{where} ){conjunct}\n"
        "GROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    )


@pytest.fixture(scope="module")
def scope_corpus(normalized_tasks, schemas):
    """(db_id, text) pairs: seeded IN-subquery texts on every fixture
    schema, and every gold query with its full-schema one-edit variants."""
    corpus = []
    for index, db_id in enumerate(sorted(schemas)):
        rng = random.Random(index)
        corpus += [(db_id, _subquery_text(schemas[db_id], rng)) for _ in range(150)]
    for task in normalized_tasks:
        gold = parse_complete(task.gold_query)
        variants = _reference_neighbours(gold, schemas[task.db_id])
        corpus.append((task.db_id, task.gold_query))
        corpus += [(task.db_id, variant.render()) for variant in variants]
    return corpus


def _runs(conn, text) -> bool | None:
    """True when SQLite runs ``text``, False on ``no such column``, and
    None on any other failure."""
    result = execute_text(conn, denormalize_text(text))
    if result.status is ExecutionStatus.OK:
        return True
    return False if "no such column" in result.error else None


def test_scope_rejects_exactly_what_sqlite_cannot_resolve(
    scope_corpus, schemas, connect
):
    """A complete text is RUNTIME exactly when SQLite reports ``no such
    column``; no other verdict is possible without an example."""
    conns = {db_id: connect(db_id) for db_id in schemas}
    seen = set()
    for db_id, text in scope_corpus:
        verdict = make_checker(schemas[db_id], None)(text, True)
        assert verdict.ok or verdict.kind is Label.RUNTIME_ERROR, (text, verdict)
        runs = _runs(conns[db_id], text)
        assert (verdict.kind is Label.RUNTIME_ERROR) == (runs is False), (text, verdict)
        seen.add((verdict.clause, runs))
    # Strays in the outer SELECT and in subqueries, and runnable texts.
    assert {(ClauseKind.SELECT, False), (ClauseKind.WHERE, False), (None, True)} <= seen


def test_checker_accepts_every_prefix_of_a_runnable_text(
    scope_corpus, schemas, connect
):
    conns = {db_id: connect(db_id) for db_id in schemas}
    checks = {db_id: make_checker(schema, None) for db_id, schema in schemas.items()}
    runnable = 0
    for db_id, text in scope_corpus:
        check = checks[db_id]
        if not check(text, True).ok or not _runs(conns[db_id], text):
            continue
        runnable += 1
        for cut in range(len(text)):
            verdict = check(text[:cut], False)
            assert verdict.ok, (text[:cut], verdict)
    assert runnable > 1000


_LATER_JOINED = (
    "SELECT singer.age\nFROM singer\n"
    "WHERE singer.name IN ( SELECT singer_in_concert.concert_id FROM singer "
    "JOIN singer_in_concert ON concert.capacity = singer_in_concert.concert_id "
    "JOIN concert ON concert.year = singer.age )\n"
    "GROUP BY\nHAVING\nORDER BY\nLIMIT\n"
)


def test_subquery_on_may_name_a_table_joined_later(concerts, connect):
    """SQLite resolves an ON reference against every table of the
    subquery's FROM, so the checker must not prune it while the table
    it names has yet to be joined."""
    assert _runs(connect("concerts"), _LATER_JOINED)
    check = make_checker(concerts, None)
    assert check(_LATER_JOINED, True).ok
    for cut in range(len(_LATER_JOINED)):
        verdict = check(_LATER_JOINED[:cut], False)
        assert verdict.ok, (_LATER_JOINED[:cut], verdict)


# -- the repair check from clause bodies against the text checker ----------


def test_query_check_matches_the_text_checker(
    normalized_tasks, schemas, fixture_paths
):
    """``make_query_check`` on a variant's bodies gives what ``make_checker``
    gives its rendered text at end of sequence, for the gold corpus,
    seeded random queries and IN-subquery texts, each original with its
    one-edit variants from the repair enumerator and from the full-schema
    reference, with an example derived from SQLite and without one."""
    originals = [(t.db_id, parse_complete(t.gold_query)) for t in normalized_tasks]
    for index, db_id in enumerate(sorted(schemas)):
        schema = schemas[db_id]
        generated = distinct_queries(schema, random.Random(index), 10)
        originals += [(db_id, query) for query in generated]
        rng = random.Random(index)
        originals += [
            (db_id, parse_complete(_subquery_text(schema, rng))) for _ in range(10)
        ]
    compared: Counter[tuple[bool, bool]] = Counter()
    for db_id, original in originals:
        schema = schemas[db_id]
        sql = denormalize_text(original.render())
        try:
            derived = derive_example(open_database(fixture_paths.db_root, db_id), sql)
        except (EmptyResult, ExecutionError):  # no row to take an example from
            derived = None
        bodies = split_text(original.render()).completed
        cases = [
            (original, bodies),
            *((v, b) for v, _, b in parsed_edits(hamming_one_queries(original, schema))),
            *((v, b) for v, _, b in parsed_edits(_reference_variants(original, schema))),
        ]
        for example in {derived, None}:
            query_check = make_query_check(schema, example)
            text_check = make_checker(schema, example)
            original_ok = text_check(original.render(), True).ok
            for variant, variant_bodies in cases:
                want = text_check(variant.render(), True).ok
                assert query_check(variant_bodies) == want, variant.render()
                compared[original_ok, want] += 1
    # Keyed by (original accepted, variant accepted): variants of
    # originals that fail a check are among them.
    assert compared == {
        (True, True): 5066,
        (True, False): 2278,
        (False, True): 96,
        (False, False): 4198,
    }


def test_repair_check_reuses_the_search_heads(normalized_tasks, schemas):
    """Once the text checker has checked a gold query, as a search does
    before repair, ``make_query_check`` steps that query's seven clause
    lines through the heads it built, each a cache hit, and rejects a
    SELECT edit with at most two new steps: the edited SELECT line and
    the FROM line that decides its scope and a star's types."""
    steps = checker._shared_step.cache_info
    rejected = 0
    for task in normalized_tasks:
        schema = schemas[task.db_id]
        original = parse_complete(task.gold_query)
        example = task.sorted_examples()[0]
        make_checker(schema, example)(original.render(), True)
        query_check = make_query_check(schema, example)
        before = steps()
        assert query_check(split_text(original.render()).completed)
        after = steps()
        assert (after.hits - before.hits, after.misses) == (7, before.misses)
        for kind, _, bodies in hamming_one_queries(original, schema):
            before = steps().misses
            if kind is ClauseKind.SELECT and not query_check(bodies):
                assert steps().misses - before <= 2, bodies
                rejected += 1
    assert rejected

# -- labels -----------------------------------------------------------------


def test_predict_label_four_ways(concerts):
    example = ExampleTuple.from_values(("Ali",))
    gold = (
        "SELECT singer.name\nFROM singer\nWHERE singer.age > 20\n"
        "GROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    )
    assert predict_label(gold, concerts, example) is Label.CORRECT
    assert (
        predict_label(gold.replace("singer.age", "singer.wingspan"), concerts, example)
        is Label.RUNTIME_ERROR
    )
    assert (
        predict_label(gold.replace("SELECT singer.name", "SELECT COUNT ( * )"),
                      concerts, example)
        is Label.EXAMPLE_ERROR
    )
    lines = gold.splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    swapped = "\n".join(lines) + "\n"
    assert predict_label(swapped, concerts, example) is Label.SYNTAX_ERROR


def test_a_rejected_verdict_needs_an_error_label():
    with pytest.raises(ValueError, match="error label"):
        CheckVerdict.rejected(Label.CORRECT, None, "not an error")
    verdict = CheckVerdict.rejected(Label.SYNTAX_ERROR, None, "bad")
    assert not verdict.ok and verdict.kind is Label.SYNTAX_ERROR
