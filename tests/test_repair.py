from __future__ import annotations

import dataclasses
import random
import sqlite3
import time
from collections import Counter
from contextlib import closing

import pytest

from sqlsynth import repair
from sqlsynth.checker import Label, make_checker, make_query_check
from sqlsynth.nsql.errors import ParseError
from sqlsynth.nsql.grammar import parse_clause_bodies, parse_complete
from sqlsynth.nsql.lexemes import (
    AGGREGATIONS,
    COMPARISONS,
    CONNECTIVES,
    is_column_ref,
    quote_string,
    split_line,
)
from sqlsynth.nsql.normalize import normalize
from sqlsynth.nsql.query import ClauseKind, ColumnRef, SelectItem, denormalize_text
from sqlsynth.repair import (
    ExecutionResult,
    ExecutionStatus,
    RepairOutcome,
    execute_query,
    execute_text,
    hamming_one_queries,
    label_by_execution,
    rows_match,
    satisfies_examples,
)
from sqlsynth.repair import test_and_repair as run_with_repair
from sqlsynth.tasks import Column, ColumnType, DatabaseSchema, ExampleTuple, Table
from tests.fixtures import repair as frozen
from tests.fixtures.randqueries import distinct_queries
from tests.fixtures.repair import parsed_edits
from tests.fixtures.textsplit import split_text

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


def test_execute_text_row_cap(monkeypatch, connect):
    conn = connect("concerts")
    wide = (
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
        "LIMIT 1000) SELECT x FROM c"
    )
    monkeypatch.setattr(repair, "ROW_LIMIT", 500)
    result = execute_text(conn, wide)
    assert result.status is ExecutionStatus.ERROR
    assert "exceeds" in result.error


@pytest.mark.parametrize("count, ok", [(5, True), (6, False)], ids=["at", "past"])
def test_execute_text_reads_up_to_the_row_limit(monkeypatch, connect, count, ok):
    """``ROW_LIMIT`` rows come back whole; one more is a failure."""
    monkeypatch.setattr(repair, "ROW_LIMIT", 5)
    rows = (
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
        "LIMIT ?) SELECT x FROM c"
    )
    result = execute_text(connect("concerts"), rows, (count,))
    if ok:
        assert result.ok and result.rows == tuple((x,) for x in range(1, 6))
    else:
        assert result.status is ExecutionStatus.ERROR
        assert result.error == "result exceeds 5 rows"


def test_execute_text_times_out_while_rows_keep_coming(monkeypatch, connect):
    """A statement still yielding rows at its deadline times out, however
    many rows the limit would admit."""
    monkeypatch.setattr(repair, "ROW_LIMIT", 10**9)
    conn = connect("concerts")
    endless = (
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
        "SELECT x FROM c WHERE x % 10000 = 0"
    )
    start = time.monotonic()
    result = execute_text(conn, endless, timeout=0.2)
    assert result.status is ExecutionStatus.TIMEOUT
    assert time.monotonic() - start < 5.0
    assert execute_text(conn, "SELECT 1").rows == ((1,),)


def test_execute_query_drops_empty_clauses(connect):
    conn = connect("concerts")
    result = execute_query(conn, parse_complete(GOLD))
    assert result.ok and len(result.rows) == 2


def test_label_by_execution_calls_a_timed_out_statement_a_runtime_error(
    monkeypatch, connect
):
    budgets = []

    def timed_out(conn, sql, params=(), *, timeout):
        budgets.append(timeout)
        return ExecutionResult.timed_out()

    monkeypatch.setattr(repair, "execute_text", timed_out)
    assert label_by_execution(GOLD, connect("concerts")) is Label.RUNTIME_ERROR
    assert budgets == [repair.STATEMENT_TIMEOUT]


# Every line break str.splitlines() knows besides "\n", which the
# canonical text keeps out of string constants.
_OTHER_LINE_BREAKS = [
    "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
]


@pytest.mark.parametrize("line_break", _OTHER_LINE_BREAKS)
def test_a_line_break_inside_a_constant_reaches_sqlite_intact(line_break):
    value = f"a{line_break}b"
    text = GOLD.replace("singer.age > 30", f"singer.name = {quote_string(value)}")
    with closing(sqlite3.connect(":memory:")) as conn:
        conn.execute("CREATE TABLE singer (name TEXT)")
        conn.executemany("INSERT INTO singer VALUES (?)", [(value,), ("a b",)])
        assert execute_query(conn, parse_complete(text)).rows == ((value,),)
        gold = (parse_complete(text), ExecutionResult.success(((value,),)))
        assert label_by_execution(text, conn, gold=gold) is Label.CORRECT


# -- row comparison ---------------------------------------------------------


def _canonical_value(value: object) -> object:
    """Collapse numeric representations so 2, 2.0 and True compare equal."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _canonical_row(row) -> tuple:
    return tuple(_canonical_value(value) for value in row)


def _reference_rows_match(left, right, *, ordered=False) -> bool:
    """Row comparison on canonical rows, sorted by ``repr``."""
    a = [_canonical_row(row) for row in left]
    b = [_canonical_row(row) for row in right]
    if ordered:
        return a == b
    return sorted(a, key=repr) == sorted(b, key=repr)


def _reference_satisfies(result, examples) -> bool:
    """Example containment on canonical rows."""
    if not result.ok:
        return False
    produced = {_canonical_row(row) for row in result.rows}
    return all(_canonical_row(ex.values) in produced for ex in examples)


# Values that Python's ``==`` makes equal share a group.
_VALUE_GROUPS = (
    (None,),
    (True, 1, 1.0),
    (False, 0, 0.0, -0.0),
    (2, 2.0),
    (-3, -3.0),
    (2.5,),
    (-0.5,),
    (2**63,),
    (2**53 + 1,),
    (2**53, float(2**53 + 1)),
    (10**30,),
    (1e30, int(1e30)),
    ("a",),
    ("2",),
    ("",),
    (b"a",),
    (b"\x02",),
)


def test_row_equality_matches_the_canonical_reference():
    """Rows are drawn as group indices, then each value as any member of
    its group; the right rows are the left ones reordered, with now and
    then a row replaced, dropped or repeated."""
    rng = random.Random(23)
    verdicts: Counter = Counter()

    def draw(arity: int) -> tuple[int, ...]:
        return tuple(rng.randrange(len(_VALUE_GROUPS)) for _ in range(arity))

    def values(shape) -> list[tuple]:
        return [tuple(rng.choice(_VALUE_GROUPS[g]) for g in row) for row in shape]

    for _ in range(4000):
        arity = rng.randint(1, 3)
        shape = [draw(arity) for _ in range(rng.randint(0, 4))]
        other = list(shape)
        if other and rng.random() < 0.5:
            rng.shuffle(other)
        if other and rng.random() < 0.3:
            other[rng.randrange(len(other))] = draw(arity)
        if other and rng.random() < 0.1:
            other.pop(rng.randrange(len(other)))
        if other and rng.random() < 0.1:
            other.append(rng.choice(other))
        left, right = values(shape), values(other)
        for ordered in (False, True):
            verdict = rows_match(left, right, ordered=ordered)
            assert verdict == _reference_rows_match(left, right, ordered=ordered), (
                left,
                right,
                ordered,
            )
            verdicts["rows", ordered, verdict] += 1
        result = ExecutionResult.success(tuple(left))
        examples = [ExampleTuple.from_values(row) for row in right]
        verdict = satisfies_examples(result, examples)
        assert verdict == _reference_satisfies(result, examples), (left, right)
        verdicts["examples", verdict] += 1
    # Both verdicts occur for each comparison.
    assert len(verdicts) == 6 and min(verdicts.values()) > 100, verdicts


@pytest.mark.parametrize(
    "row, other, equal",
    [
        ((True,), (1,), True),
        ((2.0,), (2,), True),
        ((-0.0,), (0,), True),
        ((10**30,), (1e30,), False),
        ((2**53 + 1,), (float(2**53 + 1),), False),
        ((b"a",), ("a",), False),
    ],
)
def test_row_equality_named_cases(row, other, equal):
    for left, right in ((row, other), (other, row)):
        for ordered in (False, True):
            assert rows_match([left], [right], ordered=ordered) is equal
            assert _reference_rows_match([left], [right], ordered=ordered) is equal
        result = ExecutionResult.success((left,))
        examples = [ExampleTuple.from_values(right)]
        assert satisfies_examples(result, examples) is equal
        assert _reference_satisfies(result, examples) is equal


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
    edits = hamming_one_queries(parse_complete(text), schemas["concerts"])
    variants = [q.render() for q, _, _ in parsed_edits(edits)]
    assert text.replace("MIN", "MAX") in variants
    assert text.replace("AND", "OR") in variants
    assert text.replace("> 30", ">= 30") in variants
    assert text.replace("WHERE singer.age >", "WHERE singer.is_male >") in variants
    assert text not in variants  # self is not a variant
    # Constants are never fuzzed.
    assert not any("31" in v for v in variants)


def test_hamming_variants_visit_positions_left_to_right(schemas):
    query = parse_complete(GOLD)
    edits = hamming_one_queries(query, schemas["concerts"])
    variants = [q for q, _, _ in parsed_edits(edits)]
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
    edits = hamming_one_queries(parse_complete(text), schemas["concerts"])
    variants = [q for q, _, _ in parsed_edits(edits)]
    # The join's '=' has comparison alternatives, but none of them parse,
    # so every variant is still a well-formed join query.
    assert all(v.from_clause.joins for v in variants)


def test_hamming_counts_column_alternatives(schemas):
    schema = schemas["concerts"]
    simple = parse_complete(
        "SELECT singer.name\nFROM singer\nWHERE\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    )
    variants = [q for q, _, _ in parsed_edits(hamming_one_queries(simple, schema))]
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
    edits = hamming_one_queries(query, schema)
    swapped = _swapped_refs(query, (q for q, _, _ in parsed_edits(edits)))
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


def _reference_neighbours(query, schema):
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


def _reference_variants(query, schema):
    """``_reference_neighbours`` as ``hamming_one_queries`` yields its
    edits: each as its clause, the position of the substituted lexeme in
    that clause's body, and the clause bodies."""
    original = split_text(query.render()).completed
    for variant in _reference_neighbours(query, schema):
        bodies = split_text(variant.render()).completed
        (kind,) = [kind for kind, body in bodies.items() if body != original[kind]]
        assert len(bodies[kind]) == len(original[kind]), variant.render()
        (position,) = [
            position
            for position, (old, new) in enumerate(zip(original[kind], bodies[kind]))
            if old != new
        ]
        yield kind, position, bodies


def test_bounded_neighbourhood_drops_only_failing_variants(
    normalized_tasks, schemas, connect
):
    conns = {db_id: connect(db_id) for db_id in schemas}
    totals = {"reference": 0, "bounded": 0, "dropped": 0}
    for task in normalized_tasks:
        schema = schemas[task.db_id]
        check = make_checker(schema, None)
        gold = parse_complete(task.gold_query)
        edits = hamming_one_queries(gold, schema)
        bounded = [q.render() for q, _, _ in parsed_edits(edits)]
        reference = [q.render() for q in _reference_neighbours(gold, schema)]
        kept = 0
        for text in reference:
            if kept < len(bounded) and bounded[kept] == text:
                kept += 1
                continue
            verdict = check(text, True)
            assert not verdict.ok and verdict.kind is Label.RUNTIME_ERROR, text
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
    tried: Counter = Counter()
    for task in normalized_tasks:
        schema = schemas[task.db_id]
        conn = conns[task.db_id]
        examples = task.sorted_examples()
        gold = parse_complete(task.gold_query)
        for corrupted in _reference_neighbours(gold, schema):
            for prefilter in (True, False):
                outcomes = []
                for enumerate_variants in (hamming_one_queries, _reference_variants):
                    monkeypatch.setattr(
                        repair, "hamming_one_queries", enumerate_variants
                    )
                    outcome = run_with_repair(
                        corrupted, conn, schema, examples, prefilter=prefilter
                    )
                    outcomes.append(
                        (outcome.satisfied, outcome.repaired, outcome.query.render())
                    )
                    tried[enumerate_variants, prefilter] += outcome.variants_tried
                assert outcomes[0] == outcomes[1], (task.id, corrupted.render())
                compared += 1
    assert compared == 2 * 1429
    # The walk tried the reference's edits: without the prefilter, the
    # columns of tables a query does not name count as tried too.
    assert tried[_reference_variants, False] > tried[hamming_one_queries, False]


# -- clause bodies and statements against the whole-text split ------------


def _whole_text_variants(query, schema):
    """``hamming_one_queries`` with its clause bodies taken from the
    whole-text split of the query's rendering, as it once took them."""
    named = repair._named_tables(query)
    column_refs = tuple(
        f"{table.name}.{column.name}"
        for table in schema.tables
        if table.name.lower() in named
        for column in table.columns
    )
    clauses = split_text(query.render()).completed
    for kind, body in clauses.items():
        for position, lexeme in enumerate(body):
            for replacement in repair._alternatives(lexeme, column_refs):
                patched = (*body[:position], replacement, *body[position + 1 :])
                bodies = {**clauses, kind: patched}
                try:
                    variant = parse_clause_bodies(bodies)
                except ParseError:
                    continue
                yield variant, kind, bodies


def test_variants_and_statements_match_the_whole_text_split(
    monkeypatch, normalized_tasks, schemas
):
    """Repair splits clause bodies without a round trip through the
    rendered text.  Over the gold corpus, seeded random queries and every
    one-edit variant of either, ``hamming_one_queries`` yields the same
    variants, edits and bodies in the same order as from the whole-text
    split, each variant's bodies are the split of its rendering, and
    ``execute_query`` sends the statement ``denormalize_text`` makes of
    the rendering."""
    sent: list[str] = []
    monkeypatch.setattr(
        repair, "execute_text", lambda conn, sql, **_: sent.append(sql)
    )

    def statement(query) -> str:
        repair.execute_query(None, query)
        return sent.pop()

    originals = [(t.db_id, parse_complete(t.gold_query)) for t in normalized_tasks]
    for index, db_id in enumerate(sorted(schemas)):
        generated = distinct_queries(schemas[db_id], random.Random(index), 10)
        originals += [(db_id, query) for query in generated]
    queries = originals + [
        (db_id, variant)
        for db_id, original in originals
        for variant, _, _ in parsed_edits(hamming_one_queries(original, schemas[db_id]))
    ]
    counts = Counter()
    for db_id, query in queries:
        schema = schemas[db_id]
        text = query.render()
        assert statement(query) == denormalize_text(text), text
        variants = list(parsed_edits(hamming_one_queries(query, schema)))
        assert variants == list(_whole_text_variants(query, schema)), text
        for variant, _, bodies in variants:
            variant_text = variant.render()
            assert bodies == split_text(variant_text).completed, variant_text
            assert statement(variant) == denormalize_text(variant_text)
        counts["query"] += 1
        counts["variant"] += len(variants)
    assert counts == {"query": 1472, "variant": 40910}


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
    for variant, _, _ in parsed_edits(repair.hamming_one_queries(query, schema)):
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
    swaps: Counter = Counter()
    executed = {"scan": 0, "reference": 0}
    cases = [
        (task.db_id, task.gold_query, task.sorted_examples())
        for task in normalized_tasks
    ]
    # Examples written as a bool and as an integral float, which SELECT
    # swaps to the INTEGER columns ``singer.is_male`` and ``singer.age``
    # satisfy.
    cases += [
        ("concerts", GOLD, [ExampleTuple.from_values((True,))]),
        ("concerts", GOLD, [ExampleTuple.from_values((40.0,))]),
    ]
    for index, (db_id, gold_text, examples) in enumerate(cases):
        schema = schemas[db_id]
        conn = conns[db_id]
        text_check = make_checker(schema, examples[0])
        gold = parse_complete(gold_text)
        for corrupted in _reference_neighbours(gold, schema):
            for prefilter in (True, False):
                observed = []
                # The scan checks variants from their bodies, the reference as text.
                for name, run, check in (
                    ("scan", run_with_repair, prefilter),
                    ("reference", _reference_repair, text_check if prefilter else None),
                ):
                    statements.clear()
                    outcome = run(corrupted, conn, schema, examples, prefilter=check)
                    executed[name] += len(statements)
                    observed.append(_observed(outcome))
                assert observed[0] == observed[1], (gold_text, corrupted.render())
                compared += 1
                if index >= len(normalized_tasks):
                    swap = outcome.query.select != corrupted.select
                    swaps[index] += outcome.repaired and swap
    neighbours = _reference_neighbours(parse_complete(GOLD), schemas["concerts"])
    assert compared == 2 * 1429 + 4 * len(list(neighbours))
    assert len(swaps) == 2 and min(swaps.values()) > 0, swaps
    # The scan answers some variants without a statement of their own.
    assert executed["scan"] < executed["reference"]


# -- candidate probes against the per-variant reference -----------------------

# A REAL that an INTEGER column made of a 23-digit text: its canonical
# value is an integer beyond 64 bits, which no statement can bind.
_BEYOND_64_BITS = int(float("12345678901234567890123"))

_MIXED_DDL = (
    "CREATE TABLE mixed (k TEXT, n INTEGER, r REAL, v)",
    "CREATE TABLE shadowed (k TEXT, n INTEGER, r REAL, rowid)",
    "CREATE TABLE keyed (k TEXT PRIMARY KEY, n INTEGER, r REAL, v) WITHOUT ROWID",
)
_MIXED_POOLS = (
    (None, 2, 2.0, "2", "02", "2 apples", "12345678901234567890123", 3),
    (None, 2, 2.0, 2.5, "2", "two"),
    (None, 2, 2.0, 2.5, "2", "two", b"\x02"),
)


def _mixed_database(path) -> DatabaseSchema:
    """Seeded tables that mix storage classes in every column: NULLs,
    ``2`` against ``2.0``, digit text in INTEGER columns.  ``shadowed``
    has a column named ``rowid``, ``keyed`` is a WITHOUT ROWID table and
    ``mixed_view`` a view, so none of them has a usable rowid."""
    rng = random.Random(21)
    with closing(sqlite3.connect(path)) as conn:
        for ddl in _MIXED_DDL:
            conn.execute(ddl)
        for table in ("mixed", "shadowed", "keyed"):
            rows = [
                (f"k{i:02d}", *(rng.choice(pool) for pool in _MIXED_POOLS))
                for i in range(40)
            ]
            conn.executemany(f"INSERT INTO {table} VALUES (?, ?, ?, ?)", rows)
        conn.execute("CREATE VIEW mixed_view AS SELECT k, n, r, v FROM mixed")
        conn.commit()
    columns = (
        Column("k", ColumnType.TEXT),
        Column("n", ColumnType.INTEGER),
        Column("r", ColumnType.REAL),
    )
    return DatabaseSchema(
        "mixed",
        (
            Table("mixed", (*columns, Column("v", ColumnType.OTHER))),
            Table("shadowed", (*columns, Column("rowid", ColumnType.OTHER))),
            Table("keyed", (*columns, Column("v", ColumnType.OTHER))),
            Table("mixed_view", (*columns, Column("v", ColumnType.OTHER))),
        ),
    )


def _mixed_golds(table: str) -> tuple[str, ...]:
    last = "v" if table != "shadowed" else "rowid"
    return (
        f"SELECT {table}.k\nFROM {table}\nWHERE {table}.n = 2 AND {table}.r > 1\n"
        "GROUP BY\nHAVING\nORDER BY\nLIMIT\n",
        f"SELECT {table}.n , {table}.{last}\nFROM {table}\n"
        f"WHERE {table}.r = 2 OR {table}.k = 'k03'\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n",
    )


def _mixed_examples(rows, arity: int) -> list[list[ExampleTuple]]:
    """Each of the gold's first rows alone, two of them together, and
    values that only canonical equality matches, beyond 64 bits or of
    the wrong arity."""
    rows = sorted(set(rows), key=repr)[:3]
    values = (2.0, "2", None, b"\x02", _BEYOND_64_BITS, 2.5)
    crafted = [(value,) for value in values]
    if arity == 2:
        crafted = list(zip(values, reversed(values)))
    crafted.append((2,) * (arity + 1))
    lists = [[ExampleTuple.from_values(row)] for row in rows + crafted]
    if len(rows) > 1:
        lists.append([ExampleTuple.from_values(row) for row in rows[:2]])
    return lists


def _compare_probes(
    conn, schema, corruptions, example_lists, counts: Counter
) -> None:
    """Repair each corruption for each example list, with the prefilter
    on and off, and compare with the reference."""
    for examples in example_lists:
        text_check = make_checker(schema, examples[0])
        for corrupted in corruptions:
            for prefilter in (True, False):
                outcome = run_with_repair(
                    corrupted, conn, schema, examples, prefilter=prefilter
                )
                expected = _reference_repair(
                    corrupted,
                    conn,
                    schema,
                    examples,
                    prefilter=text_check if prefilter else None,
                )
                assert _observed(outcome) == _observed(expected), (
                    corrupted.render(),
                    [example.values for example in examples],
                )
                counts["compared"] += 1
                counts["repaired"] += outcome.repaired
                counts["probes"] += outcome.probes


def test_candidate_probes_match_the_per_variant_reference(
    normalized_tasks, schemas, connect, tmp_path
):
    counts: Counter = Counter()
    for task in normalized_tasks:
        schema = schemas[task.db_id]
        gold = parse_complete(task.gold_query)
        corruptions = list(_reference_neighbours(gold, schema))
        _compare_probes(
            connect(task.db_id), schema, corruptions, [task.sorted_examples()], counts
        )
    assert counts["compared"] == 2 * 1429 and counts["probes"] > 0
    corpus = counts.copy()
    path = tmp_path / "mixed.sqlite"
    schema = _mixed_database(path)
    with closing(sqlite3.connect(path)) as conn:
        for table in schema.tables:
            for text in _mixed_golds(table.name):
                gold = parse_complete(text)
                rows = execute_query(conn, gold).rows
                assert rows, text
                # Every column is offered at each position of the corpus
                # golds; here only the FROM table's are, to keep it short.
                edits = hamming_one_queries(gold, schema)
                corruptions = [q for q, _, _ in parsed_edits(edits)]
                examples = _mixed_examples(rows, len(gold.select))
                _compare_probes(conn, schema, corruptions, examples, counts)
    seeded = counts - corpus
    assert seeded["repaired"] > 0 and seeded["probes"] > 0


@pytest.mark.parametrize(
    "source, example, scans",
    [
        ("mixed", ("k03",), None),
        ("mixed", ("k03", 2), 0),
        ("mixed JOIN keyed ON mixed.k = keyed.k", ("k03",), 0),
        ("shadowed", ("k03",), 0),
        ("keyed", ("k03",), 1),
        ("mixed_view", ("k03",), 1),
    ],
    ids=["rowid-table", "other-arity", "join", "rowid-column", "without-rowid", "view"],
)
def test_tables_without_a_usable_rowid_run_every_where_variant(
    monkeypatch, tmp_path, source, example, scans
):
    """No one-edit variant can hit, so the walk tries every one.  Only
    the rowid table's WHERE variants after the first are left to probes
    (``scans`` None); everywhere else each WHERE variant runs in full,
    after ``scans`` candidate scans that fail or read NULL rowids."""
    path = tmp_path / "mixed.sqlite"
    schema = _mixed_database(path)
    table = source.split()[0]
    query = parse_complete(
        f"SELECT {table}.k\nFROM {source}\n"
        f"WHERE {table}.n = 12345 AND {table}.r = 12345\n"
        "GROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    )
    edits = hamming_one_queries(query, schema)
    kinds = Counter(kind for _, kind, _ in parsed_edits(edits))
    examples = [ExampleTuple.from_values(example)]
    with closing(sqlite3.connect(path)) as conn:
        expected = _reference_repair(query, conn, schema, examples)
        runs = _counting_execute(monkeypatch)
        outcome = run_with_repair(query, conn, schema, examples)
    assert _observed(outcome) == _observed(expected)
    assert not outcome.satisfied and outcome.variants_tried == kinds.total()
    # The widened statement answers every SELECT swap; a join's FROM
    # variants run in full.
    assert _is_widened(runs[0], query) and kinds[ClauseKind.WHERE] > 2
    full = kinds.total() - kinds[ClauseKind.SELECT]
    if scans is None:
        assert len(runs) == 2 and outcome.probes == kinds[ClauseKind.WHERE]
    else:
        assert len(runs) == 1 + full and outcome.probes == scans
    assert outcome.statements == len(runs) + outcome.probes


def test_a_failed_probe_runs_its_variant_in_full(monkeypatch, tmp_path):
    """A probe that does not return OK says nothing about its variant."""
    path = tmp_path / "deep.sqlite"
    schema = _deep_table(path)
    query = parse_complete(
        "SELECT t.c0\nFROM t\nWHERE t.c3 = 3 AND t.c4 = 3\n"
        "GROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    )
    examples = [ExampleTuple.from_values(("r0190",))]
    execute = repair.execute_text

    def failing_probes(conn, sql, params=(), **kwargs):
        if sql.startswith("SELECT 1 FROM"):
            return ExecutionResult.failure("probe failed")
        return execute(conn, sql, params, **kwargs)

    with closing(sqlite3.connect(path)) as conn:
        expected = _reference_repair(query, conn, schema, examples)
        monkeypatch.setattr(repair, "execute_text", failing_probes)
        runs = _counting_execute(monkeypatch)
        outcome = run_with_repair(query, conn, schema, examples)
    assert _observed(outcome) == _observed(expected) and outcome.repaired
    where_tried = outcome.variants_tried - (len(schema.tables[0].columns) - 1)
    assert where_tried > 2
    assert len(runs) == 1 + where_tried
    assert outcome.probes == 1 + (where_tried - 1)


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
    # One widened statement answers the original and both swaps.
    assert len(statements) == 1 and _is_widened(statements[0], query)
    assert outcome.statements == 1


def test_satisfied_eligible_query_runs_one_widened_statement(
    monkeypatch, connect, schemas
):
    conn = connect("concerts")
    query = parse_complete(GOLD)
    plain = execute_query(conn, query)
    statements = _counting_execute(monkeypatch)
    outcome = run_with_repair(
        query, conn, schemas["concerts"], [ExampleTuple.from_values(("Chris",))]
    )
    assert outcome.satisfied and not outcome.repaired
    assert len(statements) == 1 and _is_widened(statements[0], query)
    # The widened rows cut to the query's own columns are its rows.
    assert Counter(outcome.result.rows) == Counter(plain.rows)


def test_repair_off_runs_only_the_plain_original(monkeypatch, connect, schemas):
    """With repair off no swap can use the widened rows, so the eligible
    query runs as itself."""
    statements = _counting_execute(monkeypatch)
    query = parse_complete(GOLD)
    outcome = run_with_repair(
        query,
        connect("concerts"),
        schemas["concerts"],
        [ExampleTuple.from_values((40,))],
        attempt_repair=False,
    )
    assert not outcome.satisfied
    assert statements == [query] and outcome.statements == 1


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
    assert len(query.select) + columns[ColumnRef("singer", "age")] == 3
    # A swap's query is what its clause bodies parse to.
    (bodies,) = [
        bodies
        for kind, _, bodies in hamming_one_queries(query, schema)
        if kind is ClauseKind.SELECT and bodies[kind] == ("singer.age",)
    ]
    variant = parse_clause_bodies(bodies)
    assert variant.render() == GOLD.replace("SELECT singer.name", "SELECT singer.age")
    # A column the widened rows lack needs a statement of its own.
    assert ColumnRef("concert", "venue") not in columns


def test_widened_columns_are_shared_across_queries_over_the_same_tables(schemas):
    """Queries over the same FROM tables share one build of the appended
    columns and their offsets, and get the statement and the absolute
    column indices a build of their own gives, whatever the number of
    their SELECT items: on the concerts schema and on a schema of the
    wide-repair benchmark's shape."""

    def uncached(query, schema):
        columns: dict[ColumnRef, int] = {}
        for name in query.from_clause.tables:
            table = schema.table(name)
            for column in table.columns:
                columns.setdefault(
                    ColumnRef(table.name, column.name), len(query.select) + len(columns)
                )
        appended = tuple(SelectItem(ref) for ref in columns)
        return dataclasses.replace(query, select=query.select + appended), columns

    def absolute(query, schema):
        statement, offsets = repair._widened(query, schema)
        width = len(query.select)
        return statement, {ref: width + offset for ref, offset in offsets.items()}

    tail = (
        "FROM singer_in_concert JOIN singer ON "
        "singer_in_concert.singer_id = singer.singer_id\n"
        "WHERE\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    )
    wide_tail = "FROM t07\nWHERE t07.c01 > 3\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    # The wide-repair benchmark's shape: 60 tables of 20 columns, their
    # types cycling integer, real, text.
    kinds = (ColumnType.INTEGER, ColumnType.REAL, ColumnType.TEXT)
    columns = tuple(Column(f"c{c:02d}", kinds[c % 3]) for c in range(20))
    wide = DatabaseSchema("wide", tuple(Table(f"t{t:02d}", columns) for t in range(60)))
    concerts = schemas["concerts"]
    cases = {
        concerts: ("SELECT singer.name\n" + tail, "SELECT singer.name , singer.age\n" + tail),
        wide: ("SELECT t07.c02\n" + wide_tail, "SELECT t07.c02 , t07.c11\n" + wide_tail),
    }
    for schema, texts in cases.items():
        one, two = map(parse_complete, texts)
        repair._from_columns.cache_clear()
        for query in (one, two, one):
            assert absolute(query, schema) == uncached(query, schema)
        info = repair._from_columns.cache_info()
        assert (info.misses, info.hits) == (1, 2)
    indices = absolute(parse_complete(cases[concerts][1]), concerts)[1]
    assert indices[ColumnRef("singer", "singer_id")] == 4
    indices = absolute(parse_complete(cases[wide][1]), wide)[1]
    assert len(indices) == 20 and indices[ColumnRef("t07", "c19")] == 21


def test_failed_original_runs_on_its_own_after_the_widened_statement(
    monkeypatch, connect, schemas
):
    conn = connect("concerts")
    query = parse_complete(GOLD.replace("SELECT singer.name", "SELECT singer.wingspan"))
    assert execute_query(conn, query).status is ExecutionStatus.ERROR
    examples = [ExampleTuple.from_values(("Chris",))]
    expected = _reference_repair(query, conn, schemas["concerts"], examples)
    statements = _counting_execute(monkeypatch)
    outcome = run_with_repair(query, conn, schemas["concerts"], examples)
    assert outcome.satisfied and outcome.repaired
    assert _observed(outcome) == _observed(expected)
    # The widened statement fails as the original does; the original then
    # runs on its own, and so does every variant.
    assert _is_widened(statements[0], query) and statements[1] == query
    assert len(statements) == 2 + outcome.variants_tried == outcome.statements
    assert not any(_is_widened(statement, query) for statement in statements[1:])


def _widened_fails(monkeypatch, query, failure, timeouts=None) -> list:
    """Record every statement, and its timeout in ``timeouts`` when
    given; the widened one of ``query`` fails by calling ``failure`` with
    its timeout."""
    statements: list = []

    def execute(conn, statement, **kwargs):
        statements.append(statement)
        if timeouts is not None:
            timeouts.append(kwargs["timeout"])
        if _is_widened(statement, query):
            return failure(kwargs["timeout"])
        return execute_query(conn, statement, **kwargs)

    monkeypatch.setattr(repair, "execute_query", execute)
    return statements


def test_failed_widened_statement_falls_back_to_per_variant_runs(
    monkeypatch, connect, schemas
):
    """When the widened statement fails at once, the original and every
    variant run as in the per-variant loop."""
    conn = connect("concerts")
    query = parse_complete(GOLD)
    examples = [ExampleTuple.from_values((40,))]
    expected = _reference_repair(query, conn, schemas["concerts"], examples)
    statements = _widened_fails(
        monkeypatch, query, lambda timeout: ExecutionResult.failure("widened")
    )
    outcome = run_with_repair(query, conn, schemas["concerts"], examples)
    assert _observed(outcome) == _observed(expected)
    assert _is_widened(statements[0], query) and statements[1] == query
    assert len(statements) == 2 + outcome.variants_tried
    assert not any(_is_widened(statement, query) for statement in statements[1:])


def _times_out(timeout: float) -> ExecutionResult:
    time.sleep(timeout)
    return ExecutionResult.timed_out()


def test_widened_timeout_leaves_the_original_its_own_budget(
    monkeypatch, connect, schemas
):
    """A widened statement that uses up its budget leaves the original a
    full statement budget of its own; every variant then runs on its
    own, with the same budget."""
    conn = connect("concerts")
    schema = schemas["concerts"]
    query = parse_complete(GOLD)
    variants = [q for q, _, _ in parsed_edits(hamming_one_queries(query, schema))]
    timeouts: list = []
    statements = _widened_fails(monkeypatch, query, _times_out, timeouts)
    monkeypatch.setattr(repair, "STATEMENT_TIMEOUT", 0.05)
    outcome = run_with_repair(
        query, conn, schema, [ExampleTuple.from_values(("nobody",))]
    )
    assert not outcome.satisfied and outcome.variants_tried == len(variants)
    assert outcome.result.ok
    assert Counter(outcome.result.rows) == Counter(execute_query(conn, query).rows)
    assert _is_widened(statements[0], query)
    assert statements[1:] == [query, *variants]
    assert timeouts == [0.05] * len(statements) == [0.05] * outcome.statements


def test_widened_timeout_accepts_the_original_as_repair_off_does(
    monkeypatch, connect, schemas
):
    """The widened statement reads more columns a row than the original,
    so it can time out where the original fits its budget.  The original
    then runs with a budget of its own, so repair on and repair off
    return the same satisfied original."""
    conn = connect("concerts")
    schema = schemas["concerts"]
    query = parse_complete(GOLD)
    examples = [ExampleTuple.from_values(("Chris",))]
    statements = _widened_fails(monkeypatch, query, _times_out)
    monkeypatch.setattr(repair, "STATEMENT_TIMEOUT", 0.05)
    off = run_with_repair(query, conn, schema, examples, attempt_repair=False)
    assert off.satisfied and not off.repaired and statements == [query]
    statements.clear()
    on = run_with_repair(query, conn, schema, examples)
    assert _is_widened(statements[0], query) and statements[1:] == [query]
    assert on.satisfied and not on.repaired and on.variants_tried == 0
    assert _observed(on) == _observed(off)
    assert (on.statements, on.probes) == (2, 0)


def test_widened_timeout_under_a_deadline_times_the_original_out(
    monkeypatch, connect, schemas
):
    """A widened statement that runs into the search deadline leaves the
    original nothing to run with, and no variant runs."""
    conn = connect("concerts")
    query = parse_complete(GOLD)
    statements = _widened_fails(monkeypatch, query, _times_out)
    outcome = run_with_repair(
        query,
        conn,
        schemas["concerts"],
        [ExampleTuple.from_values((40,))],
        deadline=time.monotonic() + 0.2,
    )
    assert not outcome.satisfied and outcome.variants_tried == 0
    assert outcome.result.status is ExecutionStatus.TIMEOUT
    assert len(statements) == 1 and _is_widened(statements[0], query)


def _deep_table(path) -> DatabaseSchema:
    """One eight-column table of 4,000 rows without an index, in the
    shape of the deep repair workload: a unique text label, six integer
    columns of co-prime periods and a real one."""
    columns = (
        Column("c0", ColumnType.TEXT),
        *(Column(f"c{c}", ColumnType.INTEGER) for c in range(1, 7)),
        Column("c7", ColumnType.REAL),
    )
    with closing(sqlite3.connect(path)) as conn:
        conn.execute(
            "CREATE TABLE t (c0 TEXT, c1 INTEGER, c2 INTEGER, c3 INTEGER, "
            "c4 INTEGER, c5 INTEGER, c6 INTEGER, c7 REAL)"
        )
        conn.executemany(
            "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (f"r{i:04d}", i % 7, i % 11, i % 13, i % 17, i % 19, i % 23, i / 2)
                for i in range(4000)
            ],
        )
        conn.commit()
    return DatabaseSchema("deep", (Table("t", columns),))


def _counting_text(monkeypatch) -> list:
    """Record every statement text ``test_and_repair`` sends to SQLite,
    full runs, candidate scans and probes alike."""
    sent: list = []
    execute = repair.execute_text

    def counting(conn, sql, params=(), **kwargs):
        sent.append(sql)
        return execute(conn, sql, params, **kwargs)

    monkeypatch.setattr(repair, "execute_text", counting)
    return sent


def test_deep_where_near_miss_probes_the_later_where_variants(monkeypatch, tmp_path):
    """A near miss on its first predicate's column: the widened statement
    stands in for the original and answers every SELECT swap, the first
    WHERE variant runs in full, one candidate scan follows, each later
    WHERE variant sends one probe, and only the hit runs in full again."""
    path = tmp_path / "deep.sqlite"
    schema = _deep_table(path)
    # Row 190 has c2 = 3 and c4 = 3, but c3 = 8: the near miss reads c3.
    query = parse_complete(
        "SELECT t.c0\nFROM t\nWHERE t.c3 = 3 AND t.c4 = 3\n"
        "GROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    )
    examples = [ExampleTuple.from_values(("r0190",))]
    select_swaps = len(schema.tables[0].columns) - 1
    with closing(sqlite3.connect(path)) as conn:
        expected = _reference_repair(query, conn, schema, examples)
        runs = _counting_execute(monkeypatch)
        sent = _counting_text(monkeypatch)
        outcome = run_with_repair(query, conn, schema, examples)
    assert _observed(outcome) == _observed(expected)
    assert outcome.repaired and outcome.query.where != query.where
    where_tried = outcome.variants_tried - select_swaps
    assert where_tried > 2
    assert len(runs) == 3 and _is_widened(runs[0], query)
    assert runs[2] == outcome.query
    assert sent[2].startswith("SELECT t.rowid FROM t WHERE t.c0 IS ?")
    probes = sent[3:-1]
    assert len(probes) == where_tried - 1
    assert all(sql.startswith("SELECT 1 FROM t WHERE t.rowid IN (?)") for sql in probes)
    assert outcome.probes == 1 + len(probes)
    assert len(sent) == outcome.statements == len(runs) + outcome.probes


def test_a_hit_at_the_first_where_variant_sends_no_candidate_scan(
    monkeypatch, tmp_path
):
    """A task whose first WHERE variant hits pays nothing for the probes."""
    path = tmp_path / "deep.sqlite"
    schema = _deep_table(path)
    # c0 holds labels, so the original finds nothing; the first WHERE
    # variant reads c1, and row 5 has c1 = 5.
    query = parse_complete(
        "SELECT t.c0\nFROM t\nWHERE t.c0 = 5\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    )
    examples = [ExampleTuple.from_values(("r0005",))]
    with closing(sqlite3.connect(path)) as conn:
        expected = _reference_repair(query, conn, schema, examples)
        runs = _counting_execute(monkeypatch)
        sent = _counting_text(monkeypatch)
        outcome = run_with_repair(query, conn, schema, examples)
    assert _observed(outcome) == _observed(expected)
    assert outcome.repaired and outcome.query.where != query.where
    assert outcome.variants_tried == len(schema.tables[0].columns)
    assert len(runs) == len(sent) == outcome.statements == 2
    assert outcome.probes == 0


@pytest.mark.parametrize("statement_timeout", [1.0, 30.0], ids=["statement", "deadline"])
def test_every_send_gets_the_budget_left_at_send_time(
    monkeypatch, tmp_path, statement_timeout
):
    """Every statement a walk sends, full runs, candidate scans and
    probes alike, runs for at most ``STATEMENT_TIMEOUT`` seconds and no
    longer than the deadline leaves it when it is sent; the outcome
    counts exactly the statements sent.  The deadline is 20 s away, so
    a 1 s statement timeout binds, and a 30 s one leaves the deadline
    to bind."""
    path = tmp_path / "deep.sqlite"
    schema = _deep_table(path)
    query = parse_complete(
        "SELECT t.c0\nFROM t\nWHERE t.c3 = 3 AND t.c4 = 3\n"
        "GROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    )
    examples = [ExampleTuple.from_values(("r0190",))]
    monkeypatch.setattr(repair, "STATEMENT_TIMEOUT", statement_timeout)
    deadline = time.monotonic() + 20.0
    sends: list = []
    # Remaining time when the previous send returned, which bounds the
    # remaining time when the next one is sent from above.
    left_before = deadline - time.monotonic()

    def recording(conn, sql, params=(), *, timeout):
        nonlocal left_before
        sends.append((sql, timeout, deadline - time.monotonic(), left_before))
        try:
            return execute_text(conn, sql, params, timeout=timeout)
        finally:
            left_before = deadline - time.monotonic()

    # Full runs reach SQLite through ``execute_query``, which renders the
    # query and sends it through ``execute_text`` too.
    monkeypatch.setattr(repair, "execute_text", recording)
    with closing(sqlite3.connect(path)) as conn:
        outcome = run_with_repair(query, conn, schema, examples, deadline=deadline)
    assert outcome.repaired
    scans = [sql for sql, *_ in sends if sql.startswith("SELECT t.rowid FROM t")]
    probes = [sql for sql, *_ in sends if sql.startswith("SELECT 1 FROM t")]
    assert scans and probes
    assert outcome.statements == len(sends)
    assert outcome.probes == len(scans) + len(probes)
    for _, timeout, left_after, left_before in sends:
        assert timeout <= statement_timeout and timeout <= left_before
        assert timeout >= min(statement_timeout, left_after)


# -- SELECT swaps against the frozen per-variant walk ---------------------


def _against_frozen(query, conn, schema, examples, **options):
    """Repair ``query`` and its frozen reference, which parses and checks
    every SELECT swap on its own, and require equal outcomes."""
    outcome = run_with_repair(query, conn, schema, examples, **options)
    expected = frozen.test_and_repair(query, conn, schema, examples, **options)
    assert outcome == expected, (query.render(), [e.values for e in examples])
    return outcome


def _select_hit(outcome, query) -> bool:
    return outcome.repaired and outcome.query.select != query.select


def test_select_swaps_match_the_frozen_walk(normalized_tasks, schemas, connect):
    """Over the gold corpus, seeded random queries and every full-schema
    one-edit corruption of either, each repaired against the rows of its
    original, the outcome is the frozen walk's in every field, with the
    prefilter on and off."""
    conns = {db_id: connect(db_id) for db_id in schemas}
    originals = [
        (task.db_id, parse_complete(task.gold_query), task.sorted_examples())
        for task in normalized_tasks
    ]
    for index, db_id in enumerate(sorted(schemas)):
        for query in distinct_queries(schemas[db_id], random.Random(index), 10):
            rows = execute_query(conns[db_id], query).rows
            if rows:
                examples = [ExampleTuple.from_values(row) for row in rows[:2]]
                originals.append((db_id, query, examples))
    counts: Counter = Counter()
    for db_id, original, examples in originals:
        schema = schemas[db_id]
        for query in (original, *_reference_neighbours(original, schema)):
            for prefilter in (True, False):
                outcome = _against_frozen(
                    query, conns[db_id], schema, examples, prefilter=prefilter
                )
                counts["compared"] += 1
                counts["select hit"] += _select_hit(outcome, query)
                counts["repaired"] += outcome.repaired
    assert counts["compared"] > 2 * (1429 + len(normalized_tasks))
    assert 0 < counts["select hit"] < counts["repaired"], counts


def test_an_edit_that_does_not_parse_is_dropped_uncounted(connect, schemas):
    """The enumerator yields the join condition's ``=`` turned into
    ``!=``, which does not parse; the walk drops such edits uncounted, as
    the frozen walk, which never saw them, did."""
    schema = schemas["concerts"]
    query = parse_complete(
        "SELECT singer.name\nFROM singer JOIN singer_in_concert ON "
        "singer.singer_id = singer_in_concert.singer_id\n"
        "WHERE\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    )
    edits = list(hamming_one_queries(query, schema))
    assert any(
        kind is ClauseKind.FROM and "!=" in bodies[kind] for kind, _, bodies in edits
    )
    parsed = list(parsed_edits(edits))
    assert len(parsed) < len(edits)
    examples = [ExampleTuple.from_values(("nobody",))]
    for prefilter in (True, False):
        outcome = _against_frozen(
            query, connect("concerts"), schema, examples, prefilter=prefilter
        )
        assert not outcome.satisfied
        if not prefilter:  # every edit that parses is tried
            assert outcome.variants_tried == len(parsed)


def test_a_join_takes_its_select_swaps_in_schema_order(connect, schemas):
    """The FROM order, which the widened columns follow, lists
    singer_in_concert first; the schema lists singer first.  Both
    tables' singer_id columns read 4 on Dina's row, and the swap to the
    one of the schema's first table wins."""
    schema = schemas["concerts"]
    names = [table.name for table in schema.tables]
    assert names.index("singer") < names.index("singer_in_concert")
    query = parse_complete(
        "SELECT singer.name\nFROM singer_in_concert JOIN singer ON "
        "singer_in_concert.singer_id = singer.singer_id\n"
        "WHERE\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    )
    assert next(iter(repair._widened(query, schema)[1])).table == "singer_in_concert"
    examples = [ExampleTuple.from_values((4,))]
    for prefilter in (True, False):
        outcome = _against_frozen(
            query, connect("concerts"), schema, examples, prefilter=prefilter
        )
        assert outcome.repaired
        assert outcome.query.select[0].expr == ColumnRef("singer", "singer_id")
    other = query.render().replace(
        "SELECT singer.name", "SELECT singer_in_concert.singer_id"
    )
    conn = connect("concerts")
    assert run_with_repair(parse_complete(other), conn, schema, examples).satisfied


@pytest.mark.parametrize("prefilter", [True, False], ids=["prefilter", "no-prefilter"])
def test_a_swap_to_an_in_subquery_tables_column_runs_on_its_own(
    monkeypatch, connect, schemas, prefilter
):
    """has_pet is named only in the IN-subquery, so the widened rows lack
    its columns: a swap to one runs as a statement of its own, which
    SQLite refuses, unless the prefilter's scope check rejects it first."""
    schema = schemas["pets"]
    query = normalize(
        "select pettype from pets where petid in (select petid from has_pet)", schema
    )
    examples = [ExampleTuple.from_values(("fish",))]
    statements = _counting_execute(monkeypatch)
    outcome = _against_frozen(
        query, connect("pets"), schema, examples, prefilter=prefilter
    )
    assert not outcome.satisfied
    swaps = [
        statement
        for statement in statements
        if not _is_widened(statement, query)
        and statement.select != query.select
        and statement.where == query.where
    ]
    has_pet = [s for s in swaps if s.select[0].expr.table == "has_pet"]
    # Each run twice: once by the walk under test, once by the reference.
    assert len(has_pet) == (0 if prefilter else 2 * 2)
    assert len(swaps) == len(has_pet)


def test_a_swap_of_another_type_than_the_example_is_skipped_uncounted(
    monkeypatch, connect, schemas
):
    """The example is text: with the prefilter, the two integer columns
    before singer.country are rejected unseen and uncounted."""
    schema = schemas["concerts"]
    query = parse_complete(GOLD)
    examples = [ExampleTuple.from_values(("France",))]
    on = _against_frozen(query, connect("concerts"), schema, examples, prefilter=True)
    off = _against_frozen(query, connect("concerts"), schema, examples, prefilter=False)
    for outcome in (on, off):
        assert outcome.repaired
        assert outcome.query.select[0].expr == ColumnRef("singer", "country")
    assert (on.variants_tried, off.variants_tried) == (1, 3)
    assert on.statements == off.statements == 1


@pytest.mark.parametrize(
    "values, column",
    [
        (((40,), (35,)), "age"),  # Chris and Dina both
        (((40,), (1,)), None),  # an age and an is_male on no one row
        (((3,), (4,)), "singer_id"),
    ],
    ids=["age", "no-one-column", "singer-id"],
)
def test_two_examples_must_both_be_in_a_swaps_rows(connect, schemas, values, column):
    schema = schemas["concerts"]
    query = parse_complete(GOLD)
    examples = [ExampleTuple.from_values(value) for value in values]
    for prefilter in (True, False):
        outcome = _against_frozen(
            query, connect("concerts"), schema, examples, prefilter=prefilter
        )
        hit = _select_hit(outcome, query)
        assert hit == (column is not None)
        if hit:
            assert outcome.query.select[0].expr == ColumnRef("singer", column)


@pytest.mark.parametrize(
    "value, column",
    [
        (None, "n"),
        (2, "n"),
        (2.0, "n"),
        ("2", "v"),  # n's INTEGER affinity stored its "2" as 2
        (b"\x02", "v"),
        (_BEYOND_64_BITS, "n"),
        (2.5, "r"),
        (True, None),
    ],
)
def test_select_swaps_compare_null_and_mixed_numbers_as_the_walk_does(
    tmp_path, value, column
):
    """The mixed table's columns hold NULL, 2 and 2.0, digit text and a
    blob; an example value hits a swap exactly when Python's ``==``
    finds it among a column's values."""
    path = tmp_path / "mixed.sqlite"
    schema = _mixed_database(path)
    query = parse_complete(
        "SELECT mixed.k\nFROM mixed\nWHERE\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    )
    examples = [ExampleTuple.from_values((value,))]
    with closing(sqlite3.connect(path)) as conn:
        stored = execute_text(conn, "SELECT n, r, v FROM mixed").rows
        expected = next(
            (
                name
                for number, name in enumerate(("n", "r", "v"))
                if any(row[number] == value for row in stored)
            ),
            None,
        )
        for prefilter in (True, False):
            outcome = _against_frozen(
                query, conn, schema, examples, prefilter=prefilter
            )
            if not prefilter:
                swapped = outcome.query.select[0].expr.column
                found = swapped if outcome.repaired else None
                assert found == expected == column, value


def test_swap_hits_is_containment_in_the_projected_rows():
    """``_swap_hits`` says exactly whether the widened rows, cut to the
    query's columns with one swapped in, contain every example."""
    rng = random.Random(8)
    pool = (None, 2, 2.0, "2", 3, b"\x02", "a")
    for width in (1, 2, 3):
        rows = tuple(
            tuple(rng.choice(pool) for _ in range(width + 3)) for _ in range(12)
        )
        for _ in range(40):
            examples = [
                ExampleTuple.from_values([rng.choice(pool) for _ in range(width)])
                for _ in range(rng.randint(1, 2))
            ]
            hits = repair._swap_hits(rows, width, examples)
            for item in range(width):
                for index in range(width, width + 3):
                    projected = ExecutionResult.success(
                        tuple(
                            row[:item] + (row[index],) + row[item + 1 : width]
                            for row in rows
                        )
                    )
                    expected = satisfies_examples(projected, examples)
                    assert hits(item, index) == expected

class _TickingClock:
    """A ``time.monotonic`` that reads one second later at every call."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_a_deadline_that_passes_during_the_select_swaps_ends_the_walk(
    monkeypatch, connect, schemas
):
    """The clock ticks once for the widened statement's budget, once as
    it is sent, and once for each swap's budget; the deadline leaves
    three swaps of four, and the walk stops there as the frozen one
    does."""
    schema = schemas["concerts"]
    query = parse_complete(GOLD)
    examples = [ExampleTuple.from_values(("nobody",))]
    swaps = len(schema.table("singer").columns) - 1
    for prefilter in (True, False):
        outcomes = []
        for walk in (run_with_repair, frozen.test_and_repair):
            monkeypatch.setattr(time, "monotonic", _TickingClock())
            outcomes.append(
                walk(
                    query,
                    connect("concerts"),
                    schema,
                    examples,
                    prefilter=prefilter,
                    deadline=5.5,
                )
            )
            monkeypatch.undo()
        assert outcomes[0] == outcomes[1]
        assert not outcomes[0].satisfied and outcomes[0].statements == 1
        assert 0 < outcomes[0].variants_tried < swaps


def test_a_select_swap_hit_parses_and_checks_no_swap_it_need_not(
    monkeypatch, connect, schemas
):
    """Judging SELECT swaps from the widened rows builds a query only for
    the hit and one per SELECT item and column type the prefilter has to
    judge, and sends the widened statement alone."""
    schema = schemas["concerts"]
    query = parse_complete(GOLD)
    built: list = []
    checked: list = []

    def counting_parse(bodies):
        built.append(bodies)
        return parse_clause_bodies(bodies)

    def counting_make_query_check(*args):
        check = make_query_check(*args)

        def counting(bodies):
            checked.append(bodies)
            return check(bodies)

        return counting

    monkeypatch.setattr(repair, "parse_clause_bodies", counting_parse)
    monkeypatch.setattr(repair, "make_query_check", counting_make_query_check)
    statements = _counting_execute(monkeypatch)
    # Chris and Dina have is_male 1 and 0: the last of four swaps hits.
    outcome = run_with_repair(
        query,
        connect("concerts"),
        schema,
        [ExampleTuple.from_values((1,))],
        prefilter=True,
    )
    # singer.country is text, and the prefilter rejects it uncounted.
    assert outcome.repaired and outcome.variants_tried == 3
    assert outcome.query.select[0].expr == ColumnRef("singer", "is_male")
    kinds = {
        schema.column_type("singer", column.name)
        for column in schema.table("singer").columns
        if column.name != "name"
    }
    assert len(checked) <= len(kinds) and len(built) <= 1 + len(kinds)
    assert len(statements) == outcome.statements == 1


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


def test_a_table_the_schema_object_lacks_runs_the_plain_original(connect):
    """The database has concert, the schema object does not, so there is
    no widened statement: with pruning off, the original runs as written."""
    singer = Table("singer", (Column("name", ColumnType.TEXT),))
    schema = DatabaseSchema("concerts", (singer,))
    query = parse_complete(
        "SELECT concert.venue\nFROM concert\nWHERE concert.year = 2014\n"
        "GROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    )
    outcome = run_with_repair(
        query, connect("concerts"), schema, [ExampleTuple.from_values(("Grand Hall",))]
    )
    assert outcome.satisfied and not outcome.repaired
    assert (outcome.variants_tried, outcome.statements) == (0, 1)
    assert outcome.query is query


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
    # Every variant selects one column, so an example of arity 2 rejects all.
    outcome = run_with_repair(
        parse_complete(GOLD),
        conn,
        schemas["concerts"],
        [ExampleTuple.from_values(("Ali", 30))],
        prefilter=True,
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
    gold = (parse_complete(GOLD), ExecutionResult.success((("Chris",), ("Dina",))))
    assert label_by_execution(GOLD, conn, gold=gold) is Label.CORRECT
    off = GOLD.replace("> 30", "> 36")
    assert label_by_execution(off, conn, gold=gold) is Label.EXAMPLE_ERROR


def test_label_by_execution_without_gold_uses_examples(connect):
    conn = connect("concerts")
    examples = [ExampleTuple.from_values(("Chris",))]
    assert label_by_execution(GOLD, conn, examples=examples) is Label.CORRECT
    assert (
        label_by_execution(GOLD.replace("> 30", "> 999"), conn, examples=examples)
        is Label.EXAMPLE_ERROR
    )


def test_label_by_execution_falls_back_to_examples_when_the_gold_fails(
    connect, schemas
):
    """A gold that normalizes but that SQLite refuses grades nothing, so
    example containment decides."""
    conn = connect("concerts")
    gold = normalize("select name from singer where count(*) > 1", schemas["concerts"])
    gold_result = execute_query(conn, gold)
    assert not gold_result.ok and "misuse of aggregate" in gold_result.error
    examples = [ExampleTuple.from_values(("Chris",))]
    graded = dict(gold=(gold, gold_result), examples=examples)
    assert label_by_execution(GOLD, conn, **graded) is Label.CORRECT
    off = GOLD.replace("> 30", "> 999")
    assert label_by_execution(off, conn, **graded) is Label.EXAMPLE_ERROR


def test_label_by_execution_error_kinds(connect):
    conn = connect("concerts")
    runtime = GOLD.replace("singer.age", "singer.wingspan")
    assert label_by_execution(runtime, conn) is Label.RUNTIME_ERROR
    lines = GOLD.splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    swapped = "\n".join(lines) + "\n"
    assert label_by_execution(swapped, conn) is Label.SYNTAX_ERROR
    # SQLite reports these parse faults without the word "syntax".
    for broken in (
        GOLD.replace("> 30", ">"),
        GOLD.replace("singer.age > 30", "( singer.age > 30"),
        GOLD.replace("> 30", "= 'Chris"),
    ):
        assert label_by_execution(broken, conn) is Label.SYNTAX_ERROR, broken
