from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sqlsynth import checker
from sqlsynth.checker import (
    CLAUSE_VOCABULARY,
    CheckVerdict,
    ErrorKind,
    Label,
    check_partial,
    check_scope,
    check_types,
    check_vocabulary,
    make_checker,
    predict_label,
)
from sqlsynth.lm import lexeme_tokens
from sqlsynth.nsql.errors import ClauseOrderViolation, ParseError
from sqlsynth.nsql.grammar import parse_clause_body, parse_complete, parse_select_body
from sqlsynth.nsql.partial import parse_partial
from sqlsynth.nsql.query import ClauseKind
from sqlsynth.repair import hamming_one_queries
from sqlsynth.tasks import ExampleTuple
from tests.fixtures.build import DATABASES
from tests.fixtures.randqueries import distinct_queries, random_query
from tests.test_acceptance import _MUTATION_FAMILIES


@pytest.fixture(scope="module")
def concerts(schemas):
    return schemas["concerts"]


# -- vocabulary -------------------------------------------------------------


def test_every_clause_has_a_vocabulary():
    assert set(CLAUSE_VOCABULARY) == set(ClauseKind)


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
    assert check_vocabulary(clause, body, None, concerts).ok


@pytest.mark.parametrize(
    "clause, body, kind",
    [
        (ClauseKind.SELECT, [">"], ErrorKind.SYNTAX),
        (ClauseKind.SELECT, ["'text'"], ErrorKind.SYNTAX),
        (ClauseKind.WHERE, ["singer.wingspan"], ErrorKind.RUNTIME),
        (ClauseKind.FROM, ["starship"], ErrorKind.RUNTIME),
        (ClauseKind.FROM, ["DISTINCT"], ErrorKind.SYNTAX),
        (ClauseKind.GROUP_BY, ["COUNT"], ErrorKind.SYNTAX),
        (ClauseKind.LIMIT, ["singer.age"], ErrorKind.SYNTAX),
        (ClauseKind.LIMIT, ["-3"], ErrorKind.SYNTAX),
        (ClauseKind.WHERE, [")"], ErrorKind.SYNTAX),
    ],
)
def test_vocabulary_rejects_misplaced_lexemes(clause, body, kind, concerts):
    verdict = check_vocabulary(clause, body, None, concerts)
    assert not verdict.ok
    assert verdict.kind is kind


def test_vocabulary_aggregation_depth_rules(concerts):
    # Aggregations live in WHERE only inside a subquery's parentheses.
    assert not check_vocabulary(ClauseKind.WHERE, ["COUNT"], None, concerts).ok
    assert check_vocabulary(
        ClauseKind.WHERE, ["(", "COUNT"], None, concerts
    ).ok
    # HAVING admits them at the top level.
    assert check_vocabulary(ClauseKind.HAVING, ["COUNT"], None, concerts).ok


@pytest.mark.parametrize(
    "fragment",
    ["sing", "singer.na", "DIST", "COU"],
)
def test_fragments_with_a_future_pass(fragment, concerts):
    assert check_vocabulary(ClauseKind.SELECT, [], fragment, concerts).ok


def test_fragment_case_insensitive_column_prefix(concerts):
    assert check_vocabulary(ClauseKind.SELECT, [], "Singer.NA", concerts).ok


def test_constant_fragments_only_where_constants_live(concerts):
    for fragment in ("'unfinished", "12.", "-"):
        assert check_vocabulary(ClauseKind.WHERE, [], fragment, concerts).ok
        assert not check_vocabulary(ClauseKind.SELECT, [], fragment, concerts).ok


def test_dead_fragments_are_rejected(concerts):
    verdict = check_vocabulary(ClauseKind.SELECT, [], "xyz", concerts)
    assert not verdict.ok and verdict.kind is ErrorKind.SYNTAX
    verdict = check_vocabulary(ClauseKind.SELECT, [], "singer.zz", concerts)
    assert not verdict.ok and verdict.kind is ErrorKind.RUNTIME


# -- scope ------------------------------------------------------------------


def _check_scope(partial):
    clauses = {
        kind: parse_clause_body(kind, body) for kind, body in partial.completed.items()
    }
    return check_scope(partial, clauses)


def test_scope_inert_until_from_is_closed(concerts):
    partial = parse_partial("SELECT concert.venue\nFROM sing")
    assert _check_scope(partial).ok


def test_scope_checks_select_once_from_is_known(concerts):
    ok = parse_partial("SELECT singer.name\nFROM singer\nWHERE ")
    assert _check_scope(ok).ok
    bad = parse_partial("SELECT concert.venue\nFROM singer\nWHERE ")
    verdict = _check_scope(bad)
    assert not verdict.ok
    assert verdict.kind is ErrorKind.RUNTIME
    assert verdict.clause is ClauseKind.SELECT


def test_scope_scans_the_open_clause(concerts):
    bad = parse_partial("SELECT singer.name\nFROM singer\nWHERE concert.year ")
    assert not _check_scope(bad).ok
    ok = parse_partial("SELECT singer.name\nFROM singer\nWHERE singer.age ")
    assert _check_scope(ok).ok


def test_scope_defers_subquery_columns_until_their_from(concerts):
    prefix = (
        "SELECT singer.name\nFROM singer\n"
        "WHERE singer.singer_id IN ( SELECT singer_in_concert.singer_id "
    )
    assert _check_scope(parse_partial(prefix)).ok
    closed = prefix + "FROM singer_in_concert ) "
    assert _check_scope(parse_partial(closed)).ok
    # Under the subquery's FROM the outer table stays visible.
    correlated = prefix + "FROM singer_in_concert WHERE singer.age "
    assert _check_scope(parse_partial(correlated)).ok


def test_scope_rejects_strays_inside_subqueries(concerts):
    text = (
        "SELECT singer.name\nFROM singer\n"
        "WHERE singer.singer_id IN ( SELECT singer_in_concert.singer_id "
        "FROM singer_in_concert WHERE concert.year "
    )
    verdict = _check_scope(parse_partial(text))
    assert not verdict.ok
    assert verdict.kind is ErrorKind.RUNTIME


def test_scope_covers_order_by(concerts):
    bad = parse_partial(
        "SELECT singer.name\nFROM singer\nWHERE\nGROUP BY\nHAVING\n"
        "ORDER BY concert.year "
    )
    assert not _check_scope(bad).ok


# -- types ------------------------------------------------------------------


def _items(body):
    _, items = parse_select_body(body)
    return items


def test_types_match_plain_columns(concerts):
    example = ExampleTuple.from_values(("France", 30))
    items = _items(("singer.country", ",", "singer.age"))
    assert check_types(items, concerts, example).ok


def test_types_arity_mismatch(concerts):
    example = ExampleTuple.from_values(("France", 30))
    verdict = check_types(_items(("singer.country",)), concerts, example)
    assert not verdict.ok
    assert verdict.kind is ErrorKind.EXAMPLE
    assert "1 columns" in verdict.detail


def test_types_count_is_integer(concerts):
    count = _items(("COUNT", "(", "*", ")"))
    assert check_types(count, concerts, ExampleTuple.from_values((4,))).ok
    verdict = check_types(count, concerts, ExampleTuple.from_values(("x",)))
    assert not verdict.ok and verdict.kind is ErrorKind.EXAMPLE


def test_types_avg_and_sum_are_numeric(concerts):
    avg = _items(("AVG", "(", "singer.age", ")"))
    assert check_types(avg, concerts, ExampleTuple.from_values((29.5,))).ok
    total = _items(("SUM", "(", "singer.age", ")"))
    assert check_types(total, concerts, ExampleTuple.from_values((120,))).ok
    assert not check_types(total, concerts, ExampleTuple.from_values(("x",))).ok


def test_types_min_max_keep_column_type(concerts):
    youngest = _items(("MIN", "(", "singer.name", ")"))
    assert check_types(youngest, concerts, ExampleTuple.from_values(("Ali",))).ok
    assert not check_types(youngest, concerts, ExampleTuple.from_values((3,))).ok


def test_types_star_defers_without_from(concerts):
    star = _items(("*",))
    example = ExampleTuple.from_values(("x",))
    assert check_types(star, concerts, example, from_tables=None).ok
    verdict = check_types(star, concerts, example, from_tables=("singer",))
    assert not verdict.ok  # singer has five columns, example has one


def test_types_boolean_column_accepts_integer_examples(concerts):
    flag = _items(("singer.is_male",))
    assert check_types(flag, concerts, ExampleTuple.from_values((1,))).ok
    assert check_types(flag, concerts, ExampleTuple.from_values(("t",))).ok


# -- orchestration ----------------------------------------------------------


def test_check_partial_prefers_structural_errors(concerts):
    partial = parse_partial("SELECT singer.name \nFROM singer\n")
    verdict = check_partial(partial, concerts)
    assert not verdict.ok and verdict.kind is ErrorKind.SYNTAX


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
    assert not early.ok and early.kind is ErrorKind.SYNTAX


def test_check_partial_clause_order_becomes_syntax(concerts):
    check = make_checker(concerts, None)
    verdict = check("SELECT singer.name\nWHERE singer.age > 3\n", False)
    assert not verdict.ok
    assert verdict.kind is ErrorKind.SYNTAX


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
    # The clause memo is keyed by kind and body: the same lexemes are
    # wrong in SELECT and right in WHERE.
    check = make_checker(concerts, None)
    body = "singer.age > 30"
    verdict = check(f"SELECT {body}\nFROM singer\n", False)
    assert not verdict.ok and verdict.clause is ClauseKind.SELECT
    assert check(f"SELECT singer.name\nFROM singer\nWHERE {body}\n", False).ok


def test_select_types_are_checked_once_per_head(monkeypatch, concerts):
    """A SELECT without a bare star keeps the types verdict it got when
    SELECT terminated; only a star is checked again once FROM is known."""
    calls: list[bool] = []

    def counting(items, schema, example, from_tables=None):
        calls.append(from_tables is not None)
        return check_types(items, schema, example, from_tables)

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
    assert check("SELECT *\nFROM singer\nWHERE", False).kind is ErrorKind.EXAMPLE


# -- incremental checker against the whole-prefix reference ---------------


def _reference_partial(partial, schema, example=None):
    """The whole-prefix orchestration the incremental checker replaced:
    every check re-runs every terminated clause."""
    if partial.syntax_error is not None:
        return CheckVerdict.rejected(
            ErrorKind.SYNTAX, partial.current_clause, partial.syntax_error
        )
    clauses: dict[ClauseKind, object] = {}
    for kind, body in partial.completed.items():
        verdict = check_vocabulary(kind, body, None, schema)
        if not verdict.ok:
            return verdict
        try:
            clauses[kind] = parse_clause_body(kind, body)
        except ParseError as exc:
            return CheckVerdict.rejected(ErrorKind.SYNTAX, kind, str(exc))
    current = partial.current_clause
    if current is not None:
        if partial.keyword_remaining:
            fragment = partial.fragment
            if fragment is not None and not partial.keyword_remaining[0].startswith(
                fragment
            ):
                return CheckVerdict.rejected(
                    ErrorKind.SYNTAX,
                    current,
                    f"{fragment!r} cannot start the {current.value} line",
                )
        else:
            verdict = check_vocabulary(
                current, partial.current_body, partial.fragment, schema
            )
            if not verdict.ok:
                return verdict
    verdict = check_scope(partial, clauses)
    if not verdict.ok:
        return verdict
    if example is not None and ClauseKind.SELECT in clauses:
        from_clause = clauses.get(ClauseKind.FROM)
        verdict = check_types(
            clauses[ClauseKind.SELECT][1],
            schema,
            example,
            from_tables=from_clause.tables if from_clause is not None else None,
        )
        if not verdict.ok:
            return verdict
    if partial.eos_seen and not partial.all_terminated:
        return CheckVerdict.rejected(
            ErrorKind.SYNTAX, current, "generation ended before the LIMIT line"
        )
    return checker.PASS


def _reference_check(schema, example):
    def check(text, eos_seen):
        try:
            partial = parse_partial(text, eos_seen=eos_seen)
        except ClauseOrderViolation as exc:
            return CheckVerdict.rejected(ErrorKind.SYNTAX, None, str(exc))
        return _reference_partial(partial, schema, example)

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
        for variant in hamming_one_queries(parse_complete(task.gold_query), schema):
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
    misses interleave, and for ``check_partial`` on every tenth input."""
    texts = _differential_texts(normalized_tasks, schemas)
    kinds: set[ErrorKind | None] = set()
    checks = 0
    for task in normalized_tasks:
        schema = schemas[task.db_id]
        example = task.sorted_examples()[0]
        check = make_checker(schema, example)
        reference = _reference_check(schema, example)
        for index, text in enumerate(texts[task.id]):
            for eos in (False, True):
                got = check(text, eos)
                want = reference(text, eos)
                if got != want:
                    pytest.fail(f"{task.id} eos={eos} {text!r}: {got} != {want}")
                kinds.add(got.kind)
                checks += 1
                if index % 10 == 0:
                    try:
                        partial = parse_partial(text, eos_seen=eos)
                    except ClauseOrderViolation:
                        continue
                    assert check_partial(partial, schema, example) == want, text
    assert kinds == {None, *ErrorKind}
    assert checks > 50_000


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
