from __future__ import annotations

import time

import pytest

from sqlsynth import repair
from sqlsynth.checker import ErrorKind, Label, make_checker
from sqlsynth.nsql.errors import ParseError
from sqlsynth.nsql.grammar import parse_complete
from sqlsynth.nsql.lexemes import (
    AGGREGATIONS,
    COMPARISONS,
    CONNECTIVES,
    is_column_ref,
    split_line,
)
from sqlsynth.nsql.normalize import normalize
from sqlsynth.nsql.query import denormalize_text
from sqlsynth.repair import (
    ExecutionStatus,
    canonical_row,
    canonical_value,
    execute_query,
    execute_text,
    hamming_one_queries,
    label_by_execution,
    rows_match,
    satisfies_examples,
)
from sqlsynth.repair import test_and_repair as run_with_repair
from sqlsynth.tasks import ExampleTuple

GOLD = (
    "SELECT singer.name\nFROM singer\nWHERE singer.age > 30\n"
    "GROUP BY\nHAVING\nORDER BY\nLIMIT\n"
)


# -- execution --------------------------------------------------------------


def test_execute_text_success(connect):
    conn = connect("concerts")
    result = execute_text(conn, "SELECT name FROM singer WHERE age > 30")
    assert result.ok
    assert sorted(row[0] for row in result.rows) == ["Chris", "Dina"]


def test_execute_text_error(connect):
    conn = connect("concerts")
    result = execute_text(conn, "SELECT wingspan FROM singer")
    assert result.status is ExecutionStatus.ERROR
    assert "wingspan" in result.error


def test_execute_text_timeout(connect):
    conn = connect("concerts")
    endless = (
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
        "SELECT COUNT(*) FROM c"
    )
    start = time.monotonic()
    result = execute_text(conn, endless, timeout=0.2)
    assert result.status is ExecutionStatus.TIMEOUT
    assert time.monotonic() - start < 5.0
    # The handler is cleared afterwards; the connection still works.
    assert execute_text(conn, "SELECT 1").ok


def test_execute_text_row_cap(connect):
    conn = connect("concerts")
    wide = (
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
        "LIMIT 1000) SELECT x FROM c"
    )
    result = execute_text(conn, wide, row_limit=500)
    assert result.status is ExecutionStatus.ERROR
    assert "exceeds" in result.error


def test_execute_query_drops_empty_clauses(connect):
    conn = connect("concerts")
    result = execute_query(conn, parse_complete(GOLD))
    assert result.ok and len(result.rows) == 2


# -- row comparison ---------------------------------------------------------


def test_canonical_value_unifies_numbers():
    assert canonical_value(True) == 1
    assert canonical_value(2.0) == 2
    assert canonical_value(2.5) == 2.5
    assert canonical_value("x") == "x"
    assert canonical_row((1.0, "a", False)) == (1, "a", 0)


def test_rows_match_multiset_and_ordered():
    assert rows_match([(1,), (2,), (2,)], [(2,), (1,), (2.0,)])
    assert not rows_match([(1,), (2,)], [(2,), (1,)], ordered=True)
    assert rows_match([(1,), (2,)], [(1.0,), (2,)], ordered=True)
    assert not rows_match([(1,)], [(1,), (1,)])


def test_satisfies_examples_is_containment(connect):
    conn = connect("concerts")
    result = execute_text(conn, "SELECT name, age FROM singer")
    assert satisfies_examples(result, [ExampleTuple.from_values(("Bo", 25))])
    assert satisfies_examples(result, [ExampleTuple.from_values(("Bo", 25.0))])
    assert not satisfies_examples(result, [ExampleTuple.from_values(("Bo", 26))])
    failed = execute_text(conn, "SELECT wingspan FROM singer")
    assert not satisfies_examples(failed, [])


# -- one-edit variants ------------------------------------------------------


def test_hamming_variants_cover_the_four_classes(schemas):
    text = (
        "SELECT MIN ( singer.age )\nFROM singer\n"
        "WHERE singer.age > 30 AND singer.age < 50\n"
        "GROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    )
    variants = [q.render() for q in hamming_one_queries(parse_complete(text), schemas["concerts"])]
    assert text.replace("MIN", "MAX") in variants
    assert text.replace("AND", "OR") in variants
    assert text.replace("> 30", ">= 30") in variants
    assert text.replace("WHERE singer.age >", "WHERE singer.is_male >") in variants
    assert text not in variants  # self is not a variant
    # Constants are never fuzzed.
    assert not any("31" in v for v in variants)


def test_hamming_variants_visit_positions_left_to_right(schemas):
    query = parse_complete(GOLD)
    variants = list(hamming_one_queries(query, schemas["concerts"]))
    # First edits rewrite the SELECT column, in schema declaration order.
    assert variants[0].select[0].expr.render() == "singer.singer_id"
    assert variants[1].select[0].expr.render() == "singer.age"


def test_hamming_skips_unparseable_substitutions(schemas):
    text = (
        "SELECT singer.name\n"
        "FROM singer JOIN singer_in_concert ON "
        "singer.singer_id = singer_in_concert.singer_id\n"
        "WHERE\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    )
    variants = list(hamming_one_queries(parse_complete(text), schemas["concerts"]))
    # The join's '=' has comparison alternatives, but none of them parse,
    # so every variant is still a well-formed join query.
    assert all(v.from_clause.joins for v in variants)


def test_hamming_counts_column_alternatives(schemas):
    schema = schemas["concerts"]
    simple = parse_complete(
        "SELECT singer.name\nFROM singer\nWHERE\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    )
    variants = list(hamming_one_queries(simple, schema))
    assert len(variants) == len(schema.table("singer").columns) - 1


def _swapped_refs(query, variants) -> set[str]:
    """The column references the variants put in place of another one."""
    before = query.render().split()
    swapped = set()
    for variant in variants:
        after = variant.render().split()
        assert len(after) == len(before)
        for old, new in zip(before, after):
            if old != new and is_column_ref(new):
                swapped.add(new)
    return swapped


@pytest.mark.parametrize(
    ("db_id", "sql", "named"),
    [
        (
            "concerts",
            "select singer.name from singer join singer_in_concert "
            "on singer.singer_id = singer_in_concert.singer_id",
            ("singer", "singer_in_concert"),
        ),
        (
            "pets",
            "select pettype from pets where petid in (select petid from has_pet)",
            ("pets", "has_pet"),
        ),
    ],
)
def test_hamming_offers_columns_of_the_named_tables_only(schemas, db_id, sql, named):
    schema = schemas[db_id]
    query = normalize(sql, schema)
    swapped = _swapped_refs(query, hamming_one_queries(query, schema))
    expected = {
        f"{table.name}.{column.name}"
        for table in schema.tables
        if table.name in named
        for column in table.columns
    }
    assert swapped == expected
    # The schema has a table the query does not name; none of its
    # columns are offered.
    assert len(schema.tables) > len(named)


# -- scope-bounded neighbourhood against the full-schema reference ----------


def _reference_alternatives(lexeme: str, schema) -> tuple[str, ...]:
    if lexeme in AGGREGATIONS:
        pool: tuple[str, ...] = tuple(AGGREGATIONS)
    elif lexeme in CONNECTIVES:
        pool = tuple(CONNECTIVES)
    elif lexeme in COMPARISONS:
        pool = tuple(COMPARISONS)
    elif is_column_ref(lexeme):
        pool = schema.column_refs()
    else:
        return ()
    return tuple(member for member in pool if member != lexeme)


def _reference_neighbours(query, schema, memo=None):
    """The full-schema one-edit enumerator: every column of every table
    is offered at each column-reference position."""
    lines = query.render().rstrip("\n").split("\n")
    split_lines: list[list[str]] = []
    for line in lines:
        lexemes, _ = split_line(line, terminated=True)
        split_lines.append(list(lexemes))
    for line_index, lexemes in enumerate(split_lines):
        for position, lexeme in enumerate(lexemes):
            for replacement in _reference_alternatives(lexeme, schema):
                patched = list(lexemes)
                patched[position] = replacement
                candidate_lines = [
                    " ".join(split_lines[i]) if i != line_index else " ".join(patched)
                    for i in range(len(split_lines))
                ]
                text = "\n".join(candidate_lines) + "\n"
                try:
                    yield parse_complete(text)
                except ParseError:
                    continue


def test_bounded_neighbourhood_drops_only_failing_variants(
    normalized_tasks, schemas, connect
):
    conns = {db_id: connect(db_id) for db_id in schemas}
    totals = {"reference": 0, "bounded": 0, "dropped": 0}
    for task in normalized_tasks:
        schema = schemas[task.db_id]
        check = make_checker(schema, None)
        gold = parse_complete(task.gold_query)
        bounded = [q.render() for q in hamming_one_queries(gold, schema)]
        reference = [q.render() for q in _reference_neighbours(gold, schema)]
        kept = 0
        for text in reference:
            if kept < len(bounded) and bounded[kept] == text:
                kept += 1
                continue
            verdict = check(text, True)
            assert not verdict.ok and verdict.kind is ErrorKind.RUNTIME, text
            result = execute_text(conns[task.db_id], denormalize_text(text))
            assert result.status is ExecutionStatus.ERROR, text
            assert "no such column" in result.error, (text, result.error)
            totals["dropped"] += 1
        # The bounded sequence is an order-preserving subsequence.
        assert kept == len(bounded), task.id
        totals["reference"] += len(reference)
        totals["bounded"] += len(bounded)
    assert totals == {"reference": 1429, "bounded": 881, "dropped": 548}


def test_bounded_repair_matches_reference_repair(
    monkeypatch, normalized_tasks, schemas, connect
):
    conns = {db_id: connect(db_id) for db_id in schemas}
    compared = 0
    for task in normalized_tasks:
        schema = schemas[task.db_id]
        conn = conns[task.db_id]
        examples = task.sorted_examples()
        prefilters = (make_checker(schema, examples[0]), None)
        gold = parse_complete(task.gold_query)
        for corrupted in _reference_neighbours(gold, schema):
            for prefilter in prefilters:
                outcomes = []
                for enumerate_variants in (hamming_one_queries, _reference_neighbours):
                    monkeypatch.setattr(
                        repair, "hamming_one_queries", enumerate_variants
                    )
                    outcome = run_with_repair(
                        corrupted, conn, schema, examples, prefilter=prefilter
                    )
                    outcomes.append(
                        (outcome.satisfied, outcome.repaired, outcome.query.render())
                    )
                assert outcomes[0] == outcomes[1], (task.id, corrupted.render())
                compared += 1
    assert compared == 2 * 1429


# -- test and repair --------------------------------------------------------


def test_original_query_that_satisfies_needs_no_repair(connect, schemas):
    conn = connect("concerts")
    outcome = run_with_repair(
        parse_complete(GOLD),
        conn,
        schemas["concerts"],
        [ExampleTuple.from_values(("Dina",))],
    )
    assert outcome.satisfied and not outcome.repaired
    assert outcome.variants_tried == 0
    assert outcome.query.render() == GOLD


def test_repair_finds_a_one_edit_fix(connect, schemas):
    # Ali is exactly 30, so the gold's strict '>' misses her.
    conn = connect("concerts")
    outcome = run_with_repair(
        parse_complete(GOLD),
        conn,
        schemas["concerts"],
        [ExampleTuple.from_values(("Ali",))],
    )
    assert outcome.satisfied and outcome.repaired
    assert outcome.variants_tried >= 1
    assert ("Ali",) in outcome.result.rows
    # The winner differs from the gold in exactly one lexeme.
    before = GOLD.split()
    after = outcome.query.render().split()
    assert len(before) == len(after)
    assert sum(a != b for a, b in zip(before, after)) == 1


def test_repair_disabled_reports_the_miss(connect, schemas):
    conn = connect("concerts")
    outcome = run_with_repair(
        parse_complete(GOLD),
        conn,
        schemas["concerts"],
        [ExampleTuple.from_values(("Ali",))],
        attempt_repair=False,
    )
    assert not outcome.satisfied and not outcome.repaired
    assert outcome.variants_tried == 0
    assert outcome.result.ok


def test_repair_prefilter_skips_rejected_variants(connect, schemas):
    conn = connect("concerts")

    class _Reject:
        ok = False

    outcome = run_with_repair(
        parse_complete(GOLD),
        conn,
        schemas["concerts"],
        [ExampleTuple.from_values(("Ali",))],
        prefilter=lambda text, eos: _Reject(),
    )
    assert not outcome.satisfied
    assert outcome.variants_tried == 0


def test_repair_respects_the_deadline(connect, schemas):
    conn = connect("concerts")
    outcome = run_with_repair(
        parse_complete(GOLD),
        conn,
        schemas["concerts"],
        [ExampleTuple.from_values(("Ali",))],
        deadline=time.monotonic(),
    )
    assert not outcome.satisfied
    assert outcome.variants_tried == 0
    assert outcome.result.status is ExecutionStatus.TIMEOUT


# -- execution labels -------------------------------------------------------


def test_label_by_execution_with_gold_rows(connect):
    conn = connect("concerts")
    gold_rows = [("Chris",), ("Dina",)]
    assert (
        label_by_execution(GOLD, conn, gold_rows=gold_rows) is Label.CORRECT
    )
    off = GOLD.replace("> 30", "> 36")
    assert label_by_execution(off, conn, gold_rows=gold_rows) is Label.EXAMPLE_ERROR


def test_label_by_execution_without_gold_uses_examples(connect):
    conn = connect("concerts")
    examples = [ExampleTuple.from_values(("Chris",))]
    assert label_by_execution(GOLD, conn, examples=examples) is Label.CORRECT
    assert (
        label_by_execution(GOLD.replace("> 30", "> 999"), conn, examples=examples)
        is Label.EXAMPLE_ERROR
    )


def test_label_by_execution_error_kinds(connect):
    conn = connect("concerts")
    runtime = GOLD.replace("singer.age", "singer.wingspan")
    assert label_by_execution(runtime, conn) is Label.RUNTIME_ERROR
    lines = GOLD.splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    swapped = "\n".join(lines) + "\n"
    assert label_by_execution(swapped, conn) is Label.SYNTAX_ERROR
