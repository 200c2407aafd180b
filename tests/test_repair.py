from __future__ import annotations

import time
from collections import Counter

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
    ExecutionResult,
    ExecutionStatus,
    RepairOutcome,
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


# -- the widened scan against the per-variant reference -----------------------


def _reference_repair(
    query, conn, schema, examples, *, prefilter=None, per_variant_timeout=1.0
):
    """The per-variant repair loop: the original and every admitted
    variant each run as a statement of their own."""
    example_list = tuple(examples)
    original = repair.execute_query(conn, query, timeout=per_variant_timeout)
    if satisfies_examples(original, example_list):
        return RepairOutcome(query, original, True, False, 0)
    tried = 0
    for variant in repair.hamming_one_queries(query, schema):
        if prefilter is not None and not prefilter(variant.render(), True).ok:
            continue
        tried += 1
        result = repair.execute_query(conn, variant, timeout=per_variant_timeout)
        if satisfies_examples(result, example_list):
            return RepairOutcome(variant, result, True, True, tried)
    return RepairOutcome(query, original, False, False, tried)


def _observed(outcome) -> tuple:
    result = outcome.result
    return (
        outcome.satisfied,
        outcome.repaired,
        outcome.query.render(),
        outcome.variants_tried,
        result.status,
        result.error,
        Counter(result.rows),
    )


def _counting_execute(monkeypatch) -> list:
    """Record every statement ``test_and_repair`` sends to SQLite."""
    statements: list = []

    def counting(conn, query, **kwargs):
        statements.append(query)
        return execute_query(conn, query, **kwargs)

    monkeypatch.setattr(repair, "execute_query", counting)
    return statements


def test_widened_scan_matches_the_per_variant_reference(
    monkeypatch, normalized_tasks, schemas, connect
):
    statements = _counting_execute(monkeypatch)
    conns = {db_id: connect(db_id) for db_id in schemas}
    compared = 0
    executed = {"scan": 0, "reference": 0}
    for task in normalized_tasks:
        schema = schemas[task.db_id]
        conn = conns[task.db_id]
        examples = task.sorted_examples()
        prefilters = (make_checker(schema, examples[0]), None)
        gold = parse_complete(task.gold_query)
        for corrupted in _reference_neighbours(gold, schema):
            for prefilter in prefilters:
                observed = []
                for name, run in (
                    ("scan", run_with_repair),
                    ("reference", _reference_repair),
                ):
                    statements.clear()
                    outcome = run(corrupted, conn, schema, examples, prefilter=prefilter)
                    executed[name] += len(statements)
                    observed.append(_observed(outcome))
                assert observed[0] == observed[1], (task.id, corrupted.render())
                compared += 1
    assert compared == 2 * 1429
    # The scan answers some variants without a statement of their own.
    assert executed["scan"] < executed["reference"]


# -- test and repair --------------------------------------------------------


def _concerts_query(schemas, sql):
    return normalize(sql, schemas["concerts"])


def _is_widened(statement, query) -> bool:
    return len(statement.select) > len(query.select)


def test_eligible_select_column_near_miss_runs_one_widened_statement(
    monkeypatch, connect, schemas
):
    # The gold selects names; the example wants an age, two SELECT swaps on.
    statements = _counting_execute(monkeypatch)
    query = parse_complete(GOLD)
    outcome = run_with_repair(
        query,
        connect("concerts"),
        schemas["concerts"],
        [ExampleTuple.from_values((40,))],
    )
    assert outcome.satisfied and outcome.repaired
    assert outcome.variants_tried == 2
    assert outcome.query.render() == GOLD.replace("SELECT singer.name", "SELECT singer.age")
    assert Counter(outcome.result.rows) == Counter([(40,), (35,)])
    # The original on its own, then one widened statement for both swaps.
    assert len(statements) == 2
    assert statements[0] == query and _is_widened(statements[1], query)


def test_satisfied_eligible_query_is_not_widened(monkeypatch, connect, schemas):
    statements = _counting_execute(monkeypatch)
    query = parse_complete(GOLD)
    outcome = run_with_repair(
        query,
        connect("concerts"),
        schemas["concerts"],
        [ExampleTuple.from_values(("Chris",))],
    )
    assert outcome.satisfied and not outcome.repaired
    assert statements == [query]


@pytest.mark.parametrize(
    "sql",
    [
        "select distinct name from singer where age > 30",
        "select name from singer where age > 30 order by name",
        "select min(age) from singer where age > 30",
    ],
    ids=["distinct", "order-by", "aggregate"],
)
def test_ineligible_query_runs_one_statement_per_variant(
    monkeypatch, connect, schemas, sql
):
    statements = _counting_execute(monkeypatch)
    query = _concerts_query(schemas, sql)
    outcome = run_with_repair(
        query,
        connect("concerts"),
        schemas["concerts"],
        [ExampleTuple.from_values(("nobody",))],
    )
    assert not outcome.satisfied
    assert outcome.variants_tried > 0
    assert statements[0] == query
    assert len(statements) == 1 + outcome.variants_tried


def test_scan_answers_only_a_lone_select_column_swap(schemas):
    schema = schemas["concerts"]
    query = parse_complete(GOLD)
    widened = repair._widened(query, schema)
    assert widened is not None
    statement, columns = widened
    assert statement.select[:1] == query.select
    assert len(statement.select) == 1 + len(columns)
    age = GOLD.replace("SELECT singer.name", "SELECT singer.age")
    assert repair._select_swap(query, parse_complete(age), columns) == (0, 3)
    # A second edit outside SELECT, or a column the widened rows lack,
    # needs a statement of its own.
    for sql in (
        age.replace("> 30", ">= 30"),
        GOLD.replace("> 30", ">= 30"),
        GOLD.replace("singer.name", "concert.venue", 1),
    ):
        assert repair._select_swap(query, parse_complete(sql), columns) is None


def test_failed_original_is_not_widened(monkeypatch, connect, schemas):
    conn = connect("concerts")
    query = parse_complete(GOLD.replace("SELECT singer.name", "SELECT singer.wingspan"))
    assert execute_query(conn, query).status is ExecutionStatus.ERROR
    examples = [ExampleTuple.from_values(("Chris",))]
    expected = _reference_repair(query, conn, schemas["concerts"], examples)
    statements = _counting_execute(monkeypatch)
    outcome = run_with_repair(query, conn, schemas["concerts"], examples)
    assert outcome.satisfied and outcome.repaired
    assert _observed(outcome) == _observed(expected)
    assert len(statements) == 1 + outcome.variants_tried
    assert not any(_is_widened(statement, query) for statement in statements)


def _widened_fails(monkeypatch, query, failure) -> list:
    """Record every statement; the widened one of ``query`` fails by
    calling ``failure`` with its timeout."""
    statements: list = []

    def execute(conn, statement, **kwargs):
        statements.append(statement)
        if _is_widened(statement, query):
            return failure(kwargs["timeout"])
        return execute_query(conn, statement, **kwargs)

    monkeypatch.setattr(repair, "execute_query", execute)
    return statements


def test_failed_widened_statement_falls_back_to_per_variant_runs(
    monkeypatch, connect, schemas
):
    """When the widened statement fails at once, the swap that ran it and
    every later variant run as in the per-variant loop."""
    conn = connect("concerts")
    query = parse_complete(GOLD)
    examples = [ExampleTuple.from_values((40,))]
    expected = _reference_repair(query, conn, schemas["concerts"], examples)
    statements = _widened_fails(
        monkeypatch, query, lambda timeout: ExecutionResult.failure("widened")
    )
    outcome = run_with_repair(query, conn, schemas["concerts"], examples)
    assert _observed(outcome) == _observed(expected)
    assert statements[0] == query and _is_widened(statements[1], query)
    assert len(statements) == 2 + outcome.variants_tried
    assert not any(_is_widened(statement, query) for statement in statements[2:])


def _times_out(timeout: float) -> ExecutionResult:
    time.sleep(timeout)
    return ExecutionResult.timed_out()


def test_widened_timeout_spends_only_its_swaps_budget(monkeypatch, connect, schemas):
    """A widened statement that uses up its budget leaves the swap that
    ran it timed out, with no second statement; later variants run."""
    conn = connect("concerts")
    schema = schemas["concerts"]
    query = parse_complete(GOLD)
    examples = [ExampleTuple.from_values((40,))]
    variants = list(hamming_one_queries(query, schema))
    statements = _widened_fails(monkeypatch, query, _times_out)
    outcome = run_with_repair(
        query, conn, schema, examples, per_variant_timeout=0.05
    )
    assert outcome.satisfied and outcome.variants_tried == 2
    assert statements == [query, statements[1], variants[1]]


def test_widened_timeout_under_a_deadline_leaves_the_original(
    monkeypatch, connect, schemas
):
    """The original runs on its own before any widening, so a widened
    statement that runs into the search deadline cannot change it."""
    conn = connect("concerts")
    query = parse_complete(GOLD)
    original = execute_query(conn, query)
    statements = _widened_fails(monkeypatch, query, _times_out)
    outcome = run_with_repair(
        query,
        conn,
        schemas["concerts"],
        [ExampleTuple.from_values((40,))],
        deadline=time.monotonic() + 0.2,
    )
    assert not outcome.satisfied and outcome.variants_tried == 1
    assert outcome.result == original
    assert len(statements) == 2 and statements[0] == query


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
