"""Acceptance suite over the bundled fixtures.

One test per numbered criterion; each prints a single summary line with
the measured figures (run ``pytest -v -s tests/test_acceptance.py`` to
see them).  These tests exercise whole-pipeline behavior and deliberate
budgets rather than unit contracts.
"""

from __future__ import annotations

import math
import os
import random
import re
import time
from collections import Counter
from pathlib import Path
from statistics import fmean

import pytest

from sqlsynth.checker import Label, make_checker
from sqlsynth.bench import run_checker_experiment
from sqlsynth.lm import (
    DistractorSpec,
    GenerationSession,
    ScriptedModel,
    ScriptedRouter,
    TokenCandidate,
    lexeme_tokens,
)
from sqlsynth.nsql.grammar import parse_complete
from sqlsynth.nsql.normalize import normalize, rewrite_dataset
from sqlsynth.nsql.query import denormalize_text
from sqlsynth.repair import (
    ExecutionResult,
    RepairOutcome,
)
from sqlsynth.repair import test_and_repair as run_with_repair
from sqlsynth.search import (
    ROOT,
    AttemptMode,
    SearchConfig,
    SearchStatus,
    extend,
    run_search,
)
from sqlsynth.tasks import (
    ExampleTuple,
    TaskInstance,
    load_schemas,
    load_tasks,
    open_database,
)
from tests.fixtures.corpus import (
    TWO_PATH_BEST,
    TWO_PATH_DB,
    TWO_PATH_EXAMPLE,
    TWO_PATH_SECOND,
)
from tests.fixtures.randqueries import distinct_queries
from tests.test_repair import _reference_neighbours


def _report(number: int, detail: str) -> None:
    print(f"criterion {number:02d} PASS: {detail}")


# -- 1: canonicalization preserves execution --------------------------------


def test_criterion_01_normalization_preserves_results(tasks, schemas, connect):
    started = time.perf_counter()
    conns = {db_id: connect(db_id) for db_id in schemas}
    checked = 0
    for task in tasks:
        schema = schemas[task.db_id]
        conn = conns[task.db_id]
        rendered = normalize(task.gold_query, schema).render()
        raw_rows = Counter(conn.execute(task.gold_query).fetchall())
        canon_rows = Counter(conn.execute(denormalize_text(rendered)).fetchall())
        assert raw_rows == canon_rows, task.id
        assert normalize(rendered, schema).render() == rendered, task.id
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == len(tasks) >= 30
    assert elapsed < 5.0
    _report(
        1,
        f"{checked}/{checked} fixture queries keep their result multiset and "
        f"re-normalize unchanged in {elapsed:.2f}s",
    )


# -- 2: the checker accepts every prefix of every gold ----------------------


def test_criterion_02_checker_accepts_every_gold_prefix(normalized_tasks, schemas):
    started = time.perf_counter()
    prefixes = 0
    for task in normalized_tasks:
        check = make_checker(schemas[task.db_id], task.sorted_examples()[0])
        tokens = lexeme_tokens(task.gold_query)
        for end in range(1, len(tokens) + 1):
            verdict = check("".join(tokens[:end]), False)
            assert verdict.ok, (task.id, end, verdict)
            prefixes += 1
        verdict = check(task.gold_query, True)
        assert verdict.ok, (task.id, verdict)
        prefixes += 1
    elapsed = time.perf_counter() - started
    assert prefixes >= 900
    assert elapsed < 5.0
    _report(2, f"0 rejections over {prefixes} gold prefixes in {elapsed:.2f}s")


# -- 3: seeded mutations are rejected with the right error kind -------------

_COLREF_WORD = re.compile(r"^[A-Za-z_]\w*\.[A-Za-z_]\w*$")


def _query_words(text: str) -> list[list[str]]:
    return [line.split(" ") for line in text.rstrip("\n").split("\n")]


def _join_words(lines: list[list[str]]) -> str:
    return "".join(" ".join(words) + "\n" for words in lines)


def _toplevel_colref_spots(lines: list[list[str]]) -> list[tuple[int, int]]:
    """Positions of column references outside any subquery parentheses."""
    spots = []
    depth = 0
    for line_index, words in enumerate(lines):
        for word_index, word in enumerate(words):
            if word == "(":
                depth += 1
            elif word == ")":
                depth -= 1
            elif depth == 0 and _COLREF_WORD.match(word):
                spots.append((line_index, word_index))
    return spots


def _mutate_unknown_column(rng, task, schema):
    lines = _query_words(task.gold_query)
    spots = _toplevel_colref_spots(lines)
    if not spots:
        return None
    line_index, word_index = rng.choice(spots)
    table = lines[line_index][word_index].split(".")[0]
    lines[line_index][word_index] = f"{table}.moonbeam"
    return _join_words(lines)


def _mutate_scope(rng, task, schema):
    lines = _query_words(task.gold_query)
    spots = _toplevel_colref_spots(lines)
    if not spots:
        return None
    mentioned = {
        word.split(".")[0].lower()
        for words in lines
        for word in words
        if _COLREF_WORD.match(word) or schema.table(word) is not None
    }
    donors = [t for t in schema.tables if t.name.lower() not in mentioned]
    if not donors:
        return None
    donor = rng.choice(donors)
    line_index, word_index = rng.choice(spots)
    lines[line_index][word_index] = f"{donor.name}.{donor.columns[0].name}"
    return _join_words(lines)


def _mutate_clause_order(rng, task, schema):
    lines = task.gold_query.rstrip("\n").split("\n")
    swap = rng.randrange(len(lines) - 1)
    lines[swap], lines[swap + 1] = lines[swap + 1], lines[swap]
    return "".join(line + "\n" for line in lines)


def _mutate_select_arity(rng, task, schema):
    lines = _query_words(task.gold_query)
    from_tables = [word for word in lines[1] if schema.table(word) is not None]
    if not from_tables:
        return None
    table = schema.table(rng.choice(from_tables))
    lines[0].extend([",", f"{table.name}.{table.columns[0].name}"])
    return _join_words(lines)


_MUTATION_FAMILIES = (
    ("unknown column", _mutate_unknown_column, Label.RUNTIME_ERROR),
    ("scope violation", _mutate_scope, Label.RUNTIME_ERROR),
    ("clause order", _mutate_clause_order, Label.SYNTAX_ERROR),
    ("select arity", _mutate_select_arity, Label.EXAMPLE_ERROR),
)


def test_criterion_03_mutations_rejected_with_correct_kind(
    normalized_tasks, schemas
):
    started = time.perf_counter()
    rng = random.Random(331)
    cases = []
    for name, mutate, expected in _MUTATION_FAMILIES:
        produced = 0
        attempts = 0
        while produced < 50:
            attempts += 1
            assert attempts < 5000, name
            task = rng.choice(normalized_tasks)
            mutated = mutate(rng, task, schemas[task.db_id])
            if mutated is None or mutated == task.gold_query:
                continue
            cases.append((name, task, mutated, expected))
            produced += 1
    assert len(cases) == 200
    for name, task, mutated, expected in cases:
        check = make_checker(schemas[task.db_id], task.sorted_examples()[0])
        verdict = check(mutated, True)
        assert not verdict.ok, (name, task.id, mutated)
        assert verdict.kind is expected, (name, task.id, mutated, verdict)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(
        3,
        "200/200 seeded mutations rejected with the expected kind "
        f"(4 families x 50) in {elapsed:.2f}s",
    )


# -- 4: the first complete query popped is the model argmax -----------------


def _accept_everything(query, deadline):
    return RepairOutcome(
        query=query,
        result=ExecutionResult.success(()),
        satisfied=True,
        repaired=False,
        variants_tried=0,
    )


def _enumerate_sequences(model, task_text):
    """Every complete sequence with its product probability, via the API."""
    leaves = []

    def walk(prefix: tuple[str, ...], prob: float) -> None:
        for cand in model.top_candidates(GenerationSession(task_text, prefix), 1000):
            if cand.is_eos:
                leaves.append((prob * cand.prob, "".join(prefix)))
            else:
                walk(prefix + (cand.token_id,), prob * cand.prob)

    walk((), 1.0)
    return leaves


def test_criterion_04_first_complete_is_enumeration_argmax(schemas):
    started = time.perf_counter()
    db_ids = sorted(schemas)
    sequences = 0
    for seed in range(10):
        rng = random.Random(4000 + seed)
        db_id = db_ids[seed % len(db_ids)]
        schema = schemas[db_id]
        queries = distinct_queries(schema, rng, 25)
        raw_weights = [rng.uniform(1.0, 2.0) for _ in queries]
        scale = 0.95 / sum(raw_weights)
        weighted = [
            (query.render(), weight * scale)
            for query, weight in zip(queries, raw_weights)
        ]
        assert all(len(lexeme_tokens(text)) < 250 for text, _ in weighted)
        by_weight = sorted(weighted, key=lambda pair: pair[1], reverse=True)
        assert by_weight[0][1] > by_weight[1][1], "argmax must be unique"
        model = ScriptedModel.from_queries(weighted)

        leaves = _enumerate_sequences(model, "argmax probe")
        assert len(leaves) == len(weighted)
        sequences += len(leaves)
        best_prob, best_text = max(leaves)
        assert best_text == by_weight[0][0]

        task = TaskInstance(
            id=f"argmax-{seed}", db_id=db_id, question="argmax probe"
        )
        result = run_search(
            task,
            schema,
            None,
            model,
            tester=_accept_everything,
            config=SearchConfig(
                k=40, max_tokens=256, pqc_enabled=False, time_limit=30.0
            ),
        )
        assert result.status is SearchStatus.SOLVED, seed
        assert result.query_text == best_text, seed
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(
        4,
        f"10/10 scripted models: first pop equals the argmax over "
        f"{sequences} enumerated sequences in {elapsed:.2f}s",
    )


# -- 5: a failing best path backtracks to the second best -------------------


def test_criterion_05_backtracks_to_second_best(schemas, fixture_paths):
    schema = schemas[TWO_PATH_DB]
    db = open_database(fixture_paths.db_root, TWO_PATH_DB)
    model = ScriptedModel.from_queries(
        [(TWO_PATH_BEST, 0.6), (TWO_PATH_SECOND, 0.3)]
    )
    task = TaskInstance(
        id="two-path",
        db_id=TWO_PATH_DB,
        question="two path fixture",
        gold_query=TWO_PATH_SECOND,
        examples=frozenset({ExampleTuple.from_values(list(TWO_PATH_EXAMPLE))}),
    )
    result = run_search(
        task, schema, db, model, config=SearchConfig(k=8, time_limit=20.0)
    )
    assert result.status is SearchStatus.SOLVED
    assert result.query_text == TWO_PATH_SECOND
    assert result.stats.complete_queries_tested == 2
    assert result.stats.backtracks >= 1
    assert TWO_PATH_BEST in result.stats.failed_queries

    single = run_search(
        task,
        schema,
        db,
        model,
        config=SearchConfig(
            k=8, time_limit=20.0, attempt_mode=AttemptMode.SINGLE
        ),
    )
    assert single.status is SearchStatus.EXHAUSTED
    assert single.stats.complete_queries_tested == 1
    _report(
        5,
        "second-best returned after the best path failed "
        f"({result.stats.backtracks} backtracks); single-attempt mode stops "
        "after the first failure",
    )


# -- 6: every single-lexeme corruption is repaired --------------------------


def test_criterion_06_single_edit_corruptions_all_recovered(
    normalized_tasks, schemas, connect
):
    started = time.perf_counter()
    conns = {db_id: connect(db_id) for db_id in schemas}
    corruptions = 0
    for task in normalized_tasks:
        schema = schemas[task.db_id]
        conn = conns[task.db_id]
        gold = parse_complete(task.gold_query)
        examples = task.sorted_examples()
        # Corruptions come from the full-schema reference enumerator, so
        # they include columns of tables the query never names; repair
        # walks the scope-bounded neighbourhood and must undo them all.
        for corrupted in _reference_neighbours(gold, schema):
            outcome = run_with_repair(corrupted, conn, schema, examples)
            assert outcome.satisfied, (task.id, corrupted.render())
            corruptions += 1
    elapsed = time.perf_counter() - started
    assert corruptions == 1429
    assert elapsed < 60.0
    _report(
        6,
        f"{corruptions}/{corruptions} one-edit corruptions recovered to an "
        f"example-satisfying query in {elapsed:.2f}s",
    )


# -- 7: static pruning saves work without changing outcomes -----------------


def test_criterion_07_pruning_reduces_expansions(
    normalized_tasks, schemas, fixture_paths
):
    started = time.perf_counter()
    noise = DistractorSpec(surface="frobnicate ", mass=0.2)
    expanded = {True: [], False: []}
    for task in normalized_tasks:
        model = ScriptedModel.from_queries([(task.gold_query, 0.7)], noise)
        db = open_database(fixture_paths.db_root, task.db_id)
        outcomes = {}
        for pqc in (True, False):
            result = run_search(
                task,
                schemas[task.db_id],
                db,
                model,
                config=SearchConfig(k=8, pqc_enabled=pqc, time_limit=20.0),
            )
            outcomes[pqc] = (result.status, result.query_text)
            expanded[pqc].append(result.stats.nodes_expanded)
        assert outcomes[True] == outcomes[False], task.id
        assert outcomes[True][0] is SearchStatus.SOLVED, task.id
    mean_on = fmean(expanded[True])
    mean_off = fmean(expanded[False])
    reduction = 1.0 - mean_on / mean_off
    elapsed = time.perf_counter() - started
    assert reduction >= 0.20
    _report(
        7,
        f"pruning cut mean nodes expanded {mean_off:.1f} -> {mean_on:.1f} "
        f"({reduction:.1%}) with identical outcomes on "
        f"{len(normalized_tasks)} noisy tasks in {elapsed:.2f}s",
    )


# -- 8: static labels vs executed labels on a seeded error suite ------------

_ERROR_FAMILIES = (
    (
        "concerts",
        "family-one",
        "SELECT singer.name\nFROM singer\nWHERE singer.age > 28\n"
        "GROUP BY\nHAVING\nORDER BY\nLIMIT\n",
        ("28", "39"),
        ("singer.age", "singer.altitude"),
    ),
    (
        "concerts",
        "family-two",
        "SELECT concert.venue\nFROM concert\nWHERE concert.year = 2015\n"
        "GROUP BY\nHAVING\nORDER BY\nLIMIT\n",
        ("2015", "2016"),
        ("concert.year", "concert.season"),
    ),
    (
        "pets",
        "family-three",
        "SELECT student.fname\nFROM student\nWHERE student.age < 20\n"
        "GROUP BY\nHAVING\nORDER BY\nLIMIT\n",
        ("20", "19"),
        ("student.age", "student.height"),
    ),
    (
        "shop",
        "family-four",
        "SELECT customers.city\nFROM customers\n"
        "WHERE customers.customer_id <= 2\n"
        "GROUP BY\nHAVING\nORDER BY\nLIMIT\n",
        ("2", "1"),
        ("customers.customer_id", "customers.zipcode"),
    ),
)


def _family_variants(gold: str, const_edit, ref_edit):
    """The five scripted generations: gold plus one per failure mode."""
    lines = gold.rstrip("\n").split("\n")
    swapped = "\n".join([lines[1], lines[0], *lines[2:]]) + "\n"
    count_first = "\n".join(["SELECT COUNT ( * )", *lines[1:]]) + "\n"
    return [
        (gold, 0.30),
        (gold.replace(*const_edit), 0.25),
        (count_first, 0.20),
        (gold.replace(*ref_edit), 0.15),
        (swapped, 0.10),
    ]


def test_criterion_08_checker_experiment_matrix(schemas, fixture_paths, connect):
    tasks = []
    routes = []
    for db_id, marker, gold, const_edit, ref_edit in _ERROR_FAMILIES:
        row = connect(db_id).execute(denormalize_text(gold)).fetchone()
        assert row is not None and isinstance(row[0], str)
        tasks.append(
            TaskInstance(
                id=marker,
                db_id=db_id,
                question=f"list values for {marker}",
                gold_query=gold,
                examples=frozenset({ExampleTuple.from_values(list(row))}),
            )
        )
        variants = _family_variants(gold, const_edit, ref_edit)
        assert math.isclose(sum(weight for _, weight in variants), 1.0)
        routes.append((marker, ScriptedModel.from_queries(variants)))
    experiment = run_checker_experiment(
        tasks,
        schemas,
        fixture_paths.db_root,
        ScriptedRouter(routes),
        per_task=5,
        config=SearchConfig(k=8, time_limit=20.0),
    )
    matrix = experiment.matrix
    assert matrix[Label.CORRECT][Label.CORRECT] == 4
    assert matrix[Label.SYNTAX_ERROR][Label.SYNTAX_ERROR] == 4
    assert matrix[Label.RUNTIME_ERROR][Label.RUNTIME_ERROR] == 4
    assert matrix[Label.EXAMPLE_ERROR][Label.EXAMPLE_ERROR] == 4
    # Wrong-constant queries execute cleanly, so static checks call them
    # correct; that is the one kind of miss this matrix should show.
    assert matrix[Label.EXAMPLE_ERROR][Label.CORRECT] == 4
    assert experiment.total == 20
    assert experiment.agreements == 16
    others = sum(
        count
        for truth, row in matrix.items()
        for predicted, count in row.items()
        if (truth, predicted)
        not in {
            (Label.CORRECT, Label.CORRECT),
            (Label.SYNTAX_ERROR, Label.SYNTAX_ERROR),
            (Label.RUNTIME_ERROR, Label.RUNTIME_ERROR),
            (Label.EXAMPLE_ERROR, Label.EXAMPLE_ERROR),
            (Label.EXAMPLE_ERROR, Label.CORRECT),
        }
    )
    assert others == 0
    _report(
        8,
        "checker-vs-execution matrix over 20 generations: exact diagonals "
        "for Syntax/Runtime, wrong constants predicted correct, "
        "16/20 agreement",
    )


# -- 9: probability accumulation is numerically faithful --------------------


def test_criterion_09_probability_accumulation_accuracy():
    started = time.perf_counter()
    rng = random.Random(2024)
    chain_count = 100_000
    worst = 0.0
    for _ in range(chain_count):
        node = ROOT
        chain = [rng.uniform(1e-4, 1.0) for _ in range(rng.randint(2, 8))]
        for prob in chain:
            node = extend(node, TokenCandidate("t", "t ", prob))
        oracle_log = math.fsum(math.log(p) for p in chain)
        log_err = abs(-node[0] - oracle_log) / abs(oracle_log)
        cum_err = abs(math.exp(-node[0]) - math.exp(oracle_log)) / math.exp(oracle_log)
        worst = max(worst, log_err, cum_err)
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12
    assert elapsed < 5.0
    _report(
        9,
        f"worst relative error {worst:.3e} over {chain_count} random chains "
        f"in {elapsed:.2f}s",
    )


# -- 10: optional large-dataset retention -----------------------------------

_SPIDER_DIR = os.environ.get("SQLSYNTH_SPIDER_DIR")


@pytest.mark.skipif(
    not _SPIDER_DIR,
    reason="set SQLSYNTH_SPIDER_DIR to a Spider checkout to run this",
)
def test_criterion_10_spider_retention():
    root = Path(_SPIDER_DIR)
    schemas = load_schemas(root / "tables.json")
    train = load_tasks(root / "train_spider.json", schemas)
    dev = load_tasks(root / "dev.json", schemas)
    kept_train, _ = rewrite_dataset(train, schemas)
    kept_dev, _ = rewrite_dataset(dev, schemas)
    assert abs(len(kept_train) - 6779) <= 70
    assert abs(len(kept_dev) - 1018) <= 10
    _report(
        10,
        f"retained {len(kept_train)}/{len(train)} training and "
        f"{len(kept_dev)}/{len(dev)} validation queries",
    )
