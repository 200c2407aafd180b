from __future__ import annotations

import importlib.util
import itertools
import math
import random
import sqlite3
import sys
import time
from contextlib import closing
from pathlib import Path

import pytest

from sqlsynth import checker, repair, search
from sqlsynth.bench import run_benchmark
from sqlsynth.checker import make_checker
from sqlsynth.lm import (
    EOS_TOKEN_ID,
    AdapterUnavailable,
    DistractorSpec,
    GenerationSession,
    ScriptedModel,
    ScriptedRouter,
    TokenCandidate,
    lexeme_tokens,
)
from sqlsynth.nsql import grammar
from sqlsynth.nsql.errors import StructureError
from sqlsynth.nsql.grammar import parse_clause_body, parse_complete
from sqlsynth.repair import (
    ExecutionResult,
    RepairOutcome,
    execute_query,
    hamming_one_queries,
    satisfies_examples,
)
from sqlsynth.search import (
    ROOT,
    AttemptMode,
    SearchConfig,
    SearchStats,
    SearchStatus,
    collect_complete,
    extend,
    run_search,
)
from sqlsynth.tasks import (
    Column,
    ColumnType,
    DatabaseSchema,
    ExampleTuple,
    Table,
    TaskDatabase,
    TaskInstance,
    open_database,
)
from tests.fixtures import search as reference
from tests.fixtures.corpus import (
    TWO_PATH_BEST,
    TWO_PATH_DB,
    TWO_PATH_EXAMPLE,
    TWO_PATH_SECOND,
)
from tests.fixtures.repair import parsed_edits
from tests.test_checker import _reference_check

GOLD = (
    "SELECT singer.name\nFROM singer\nWHERE singer.age > 30\n"
    "GROUP BY\nHAVING\nORDER BY\nLIMIT\n"
)


def _task(db_id="concerts", example=("Dina",), question="who?"):
    examples = (
        frozenset({ExampleTuple.from_values(example)}) if example else frozenset()
    )
    return TaskInstance(
        id="t-1", db_id=db_id, question=question, gold_query="", examples=examples
    )


def _accept_all(query, until):
    return RepairOutcome(query, ExecutionResult.success(()), True, False, 0)


def _reject_all(query, until):
    return RepairOutcome(query, ExecutionResult.success(()), False, False, 0)


# -- node arithmetic --------------------------------------------------------


def test_extend_accumulates_in_log_space():
    node = extend(ROOT, TokenCandidate("a ", "a ", 0.5))
    node = extend(node, TokenCandidate("b ", "b ", 0.25))
    cost, depth, tokens, text = node
    assert text == "a b "
    assert tokens == ("a ", "b ")
    assert depth == -2
    assert cost == pytest.approx(-math.log(0.125))
    assert math.exp(-cost) == pytest.approx(0.125)


def test_search_config_refuses_k_below_one():
    for k in (0, -1, 2.5):
        with pytest.raises(ValueError, match=r"SearchConfig\.k "):
            SearchConfig(k=k)
    assert SearchConfig(k=1).k == 1


def test_search_config_refuses_max_tokens_below_one():
    for max_tokens in (0, -1, 2.5):
        with pytest.raises(ValueError, match=r"SearchConfig\.max_tokens "):
            SearchConfig(max_tokens=max_tokens)
    assert SearchConfig(max_tokens=1).max_tokens == 1


def test_search_config_refuses_a_nan_time_limit():
    with pytest.raises(ValueError, match=r"SearchConfig\.time_limit "):
        SearchConfig(time_limit=float("nan"))
    assert SearchConfig(time_limit=0.0).time_limit == 0.0


def test_extend_rejects_zero_probability():
    with pytest.raises(ValueError):
        extend(ROOT, TokenCandidate("a ", "a ", 0.0))


# -- frontier ---------------------------------------------------------------


class _TreeModel:
    """Replies to each prefix from a fixed tree of ``(token, prob)`` lists,
    each token its own surface, and logs the prefixes it is asked for."""

    def __init__(self, tree: dict[tuple[str, ...], list[tuple[str, float]]]):
        self.tree = tree
        self.asked: list[tuple[str, ...]] = []

    def start_session(self, task_text):
        return GenerationSession(task_text)

    def top_candidates(self, session, k):
        self.asked.append(session.prefix)
        return [
            TokenCandidate(token, "" if token == EOS_TOKEN_ID else token, prob)
            for token, prob in self.tree.get(session.prefix, [])[:k]
        ]


def test_frontier_pops_highest_probability_first():
    model = _TreeModel(
        {
            (): [("low ", 0.2), ("high ", 0.7)],
            ("low ",): [(EOS_TOKEN_ID, 1.0)],
            ("high ",): [(EOS_TOKEN_ID, 1.0)],
        }
    )
    assert collect_complete("t", model, 3) == ["high ", "low "]
    assert model.asked == [(), ("high ",), ("low ",)]


def test_frontier_breaks_ties_toward_deeper_nodes():
    """Once ``a `` is expanded, its end-of-sequence child at depth 2 and
    its sibling ``b `` at depth 1 are both at 0.5: the deeper pops first."""
    model = _TreeModel(
        {
            (): [("a ", 0.5), ("b ", 0.5)],
            ("a ",): [(EOS_TOKEN_ID, 1.0)],
            ("b ",): [(EOS_TOKEN_ID, 1.0)],
        }
    )
    texts = search._best_first(
        model.start_session("t"), model, SearchStats(), SearchConfig(), None, math.inf
    )
    assert next(texts) == "a "
    assert model.asked == [(), ("a ",)]
    assert list(texts) == ["b "]
    assert model.asked == [(), ("a ",), ("b ",)]


def _two_step_tree(offers: list[tuple[str, float]]) -> _TreeModel:
    """Every two-token path over ``offers``, each ending there."""
    tree = {(): offers}
    for first, _ in offers:
        tree[(first,)] = offers
        for second, _ in offers:
            tree[(first, second)] = [(EOS_TOKEN_ID, 1.0)]
    return _TreeModel(tree)


def test_frontier_skips_a_nan_probability():
    """``math.log`` passes NaN through, and a NaN cost breaks the heap
    order: the search drops such a candidate as it drops an impossible one."""
    plain = _two_step_tree([("a ", 0.6), ("b ", 0.3)])
    noisy = _two_step_tree([("a ", 0.6), ("bad ", math.nan), ("b ", 0.3)])
    expected = collect_complete("t", plain, 20, SearchConfig(k=3))
    assert expected == ["a a ", "a b ", "b a ", "b b "]
    assert collect_complete("t", noisy, 20, SearchConfig(k=3)) == expected
    assert not any("bad " in prefix for prefix in noisy.asked)


# -- end-to-end over scripted models ----------------------------------------


def test_run_search_solves_a_single_path(schemas, fixture_paths):
    model = ScriptedModel.from_queries([(GOLD, 1.0)])
    db = open_database(fixture_paths.db_root, "concerts")
    result = run_search(_task(), schemas["concerts"], db, model)
    assert result.status is SearchStatus.SOLVED
    assert result.query_text == GOLD
    assert not result.repaired
    assert result.execution is not None and result.execution.ok
    stats = result.stats
    assert stats.complete_queries_tested == 1
    assert stats.backtracks == 0
    assert stats.failed_queries == []
    assert stats.nodes_expanded == len(lexeme_tokens(GOLD)) + 1
    assert stats.elapsed_seconds >= 0.0


def test_run_search_repairs_a_near_miss(schemas, fixture_paths):
    # The scripted query misses Ali (age exactly 30); repair closes the gap.
    model = ScriptedModel.from_queries([(GOLD, 1.0)])
    db = open_database(fixture_paths.db_root, "concerts")
    result = run_search(_task(example=("Ali",)), schemas["concerts"], db, model)
    assert result.status is SearchStatus.SOLVED
    assert result.repaired
    assert result.stats.repair_variants_tried >= 1


def test_run_search_repair_disabled(schemas, fixture_paths):
    model = ScriptedModel.from_queries([(GOLD, 1.0)])
    db = open_database(fixture_paths.db_root, "concerts")
    result = run_search(
        _task(example=("Ali",)),
        schemas["concerts"],
        db,
        model,
        config=SearchConfig(repair_enabled=False),
    )
    assert result.status is SearchStatus.EXHAUSTED
    assert result.stats.failed_queries == [GOLD]


def test_run_search_multiple_attempts_reach_the_second_path(
    schemas, fixture_paths
):
    model = ScriptedModel.from_queries(
        [(TWO_PATH_BEST, 0.55), (TWO_PATH_SECOND, 0.40)]
    )
    db = open_database(fixture_paths.db_root, TWO_PATH_DB)
    task = _task(db_id=TWO_PATH_DB, example=TWO_PATH_EXAMPLE)
    result = run_search(task, schemas[TWO_PATH_DB], db, model)
    assert result.status is SearchStatus.SOLVED
    assert result.query_text == TWO_PATH_SECOND
    assert result.stats.complete_queries_tested == 2
    assert result.stats.backtracks >= 1
    assert TWO_PATH_BEST in result.stats.failed_queries


def test_run_search_sums_the_repair_variants_tried(schemas):
    """``repair_variants_tried``, ``repair_statements`` and
    ``repair_probes`` add up what each tested candidate's repair ran,
    failed candidates included."""
    model = ScriptedModel.from_queries(
        [(TWO_PATH_BEST, 0.55), (TWO_PATH_SECOND, 0.40)]
    )
    outcomes = iter((False, True))
    counts = iter(((3, 5, 2), (4, 6, 1)))

    def tester(query, until):
        tried, statements, probes = next(counts)
        return RepairOutcome(
            query,
            ExecutionResult.success(()),
            next(outcomes),
            False,
            tried,
            statements,
            probes,
        )

    result = run_search(
        _task(db_id=TWO_PATH_DB, example=TWO_PATH_EXAMPLE),
        schemas[TWO_PATH_DB],
        None,
        model,
        tester=tester,
    )
    assert result.status is SearchStatus.SOLVED
    assert result.stats.complete_queries_tested == 2
    stats = result.stats.as_dict()
    assert stats["repair_variants_tried"] == 7
    assert stats["repair_statements"] == 11 and stats["repair_probes"] == 3


def test_run_search_counts_one_statement_for_an_eligible_select_near_miss(
    schemas, fixture_paths
):
    """The example wants an age; the scripted query selects names.  One
    widened statement answers the query and its SELECT swaps."""
    model = ScriptedModel.from_queries([(GOLD, 1.0)])
    db = open_database(fixture_paths.db_root, "concerts")
    result = run_search(
        _task(example=(40,)),
        schemas["concerts"],
        db,
        model,
        config=SearchConfig(pqc_enabled=False),
    )
    assert result.status is SearchStatus.SOLVED and result.repaired
    assert result.stats.repair_variants_tried == 2
    assert result.stats.repair_statements == 1


def test_run_search_single_attempt_stops_after_first_complete(
    schemas, fixture_paths
):
    model = ScriptedModel.from_queries(
        [(TWO_PATH_BEST, 0.55), (TWO_PATH_SECOND, 0.40)]
    )
    db = open_database(fixture_paths.db_root, TWO_PATH_DB)
    task = _task(db_id=TWO_PATH_DB, example=TWO_PATH_EXAMPLE)
    result = run_search(
        task,
        schemas[TWO_PATH_DB],
        db,
        model,
        config=SearchConfig(attempt_mode=AttemptMode.SINGLE),
    )
    assert result.status is SearchStatus.EXHAUSTED
    assert result.stats.complete_queries_tested == 1


def test_run_search_times_out(schemas):
    model = ScriptedModel.from_queries([(GOLD, 1.0)])
    result = run_search(
        _task(),
        schemas["concerts"],
        None,
        model,
        tester=_accept_all,
        config=SearchConfig(time_limit=0.0),
    )
    assert result.status is SearchStatus.TIMED_OUT


def test_run_search_exhausts_when_nothing_satisfies(schemas):
    model = ScriptedModel.from_queries([(GOLD, 1.0)])
    result = run_search(
        _task(), schemas["concerts"], None, model, tester=_reject_all
    )
    assert result.status is SearchStatus.EXHAUSTED
    assert result.stats.failed_queries == [GOLD]


def test_run_search_needs_a_database_or_tester(schemas):
    model = ScriptedModel.from_queries([(GOLD, 1.0)])
    with pytest.raises(ValueError):
        run_search(_task(), schemas["concerts"], None, model)


def test_searches_on_one_database_share_one_connection(
    monkeypatch, schemas, fixture_paths
):
    opened = []
    connect = TaskDatabase.connect

    def counting(self):
        opened.append(connect(self))
        return opened[-1]

    monkeypatch.setattr(TaskDatabase, "connect", counting)
    db = open_database(fixture_paths.db_root, "concerts")
    model = ScriptedModel.from_queries([(GOLD, 1.0)])
    for example in (("Dina",), ("Ali",), ("Dina",)):
        result = run_search(_task(example=example), schemas["concerts"], db, model)
        assert result.status is SearchStatus.SOLVED
    assert opened == [db.connection()]
    # The borrowed connection outlives the searches.
    assert opened[0].execute("SELECT 1").fetchone() == (1,)


_ROWS = "SELECT n.v\nFROM n\nWHERE\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n"
_SEVEN = "SELECT n.v\nFROM n\nWHERE n.v = 7\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n"


@pytest.fixture(scope="module")
def numbers(tmp_path_factory):
    """A database whose one table holds twice the row cap, so a scan
    that hits the cap stops partway."""
    path = tmp_path_factory.mktemp("numbers") / "numbers.sqlite"
    with closing(sqlite3.connect(path)) as conn:
        conn.execute("CREATE TABLE n (v INTEGER)")
        conn.execute(
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
            "WHERE x < ?) INSERT INTO n SELECT x FROM c",
            (2 * repair.ROW_LIMIT,),
        )
        conn.commit()
    table = Table("n", (Column("v", ColumnType.INTEGER),))
    schema = DatabaseSchema("numbers", (table,))
    return path, schema


def _unlocked(path) -> bool:
    """True when no connection holds a read lock on ``path``, as an
    unfinished statement would."""
    with closing(sqlite3.connect(path, timeout=0, isolation_level=None)) as probe:
        try:
            probe.execute("BEGIN EXCLUSIVE")
        except sqlite3.OperationalError:
            return False
        probe.execute("ROLLBACK")
        return True


@pytest.mark.parametrize(
    "statement_timeout, status",
    [
        (None, repair.ExecutionStatus.ERROR),
        (1e-6, repair.ExecutionStatus.TIMEOUT),
    ],
    ids=["row-cap", "timeout"],
)
def test_a_failed_statement_leaves_the_shared_connection_usable(
    monkeypatch, numbers, statement_timeout, status
):
    path, schema = numbers
    db = TaskDatabase("numbers", path)
    results: list[ExecutionResult] = []
    execute_text = repair.execute_text

    def recording(*args, **kwargs):
        results.append(execute_text(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(repair, "execute_text", recording)
    with monkeypatch.context() as patch:
        if statement_timeout is not None:
            patch.setattr(repair, "STATEMENT_TIMEOUT", statement_timeout)
        first = run_search(
            _task(db_id="numbers", example=(0,)),
            schema,
            db,
            ScriptedModel.from_queries([(_ROWS, 1.0)]),
        )
    assert first.status is SearchStatus.EXHAUSTED
    assert results[0].status is status
    if status is repair.ExecutionStatus.ERROR:
        assert "exceeds" in results[0].error
    assert _unlocked(path)
    # No watchdog is left behind to interrupt a full scan.
    conn = db.connection()
    count = conn.execute("SELECT count(*) FROM n").fetchone()[0]
    assert count == 2 * repair.ROW_LIMIT
    second = run_search(
        _task(db_id="numbers", example=(7,)),
        schema,
        db,
        ScriptedModel.from_queries([(_SEVEN, 1.0)]),
    )
    assert second.status is SearchStatus.SOLVED
    assert second.execution.rows == ((7,),)
    assert db.connection() is conn


class _FailingModel:
    def __init__(self, when: str) -> None:
        self._when = when

    def start_session(self, task_text: str) -> GenerationSession:
        if self._when == "start":
            raise AdapterUnavailable("backend down")
        return GenerationSession(task_text)

    def top_candidates(self, session, k):
        script = ("SELECT ", "singer.name\n")
        if len(session.prefix) >= len(script):
            raise AdapterUnavailable("backend died mid-request")
        token = script[len(session.prefix)]
        return [TokenCandidate(token, token, 0.9)]


@pytest.mark.parametrize("when", ["start", "mid"])
def test_run_search_surfaces_adapter_failures(when, schemas):
    result = run_search(
        _task(), schemas["concerts"], None, _FailingModel(when), tester=_accept_all
    )
    assert result.status is SearchStatus.ADAPTER_FAILURE
    assert result.stats.adapter_error


def test_run_search_max_tokens_cuts_long_prefixes(schemas):
    model = ScriptedModel.from_queries([(GOLD, 1.0)])
    result = run_search(
        _task(),
        schemas["concerts"],
        None,
        model,
        tester=_accept_all,
        config=SearchConfig(max_tokens=4),
    )
    assert result.status is SearchStatus.EXHAUSTED
    assert result.stats.nodes_expanded <= 5


_LINES = GOLD.splitlines(keepends=True)

# Finished generations that parse_complete refuses: a WHERE body that
# does not parse (the ids without a suffix), then three faults in the
# line structure.
_UNPARSABLE = [
    ("", GOLD.replace("singer.age > 30", "singer.age >")),
    ("-early-eos", "SELECT singer.name\nFROM singer\n"),  # stops before WHERE
    ("-misordered", "".join([_LINES[2], _LINES[0], _LINES[1], *_LINES[3:]])),
    ("-no-select-keyword", GOLD.replace("SELECT ", "", 1)),
]


@pytest.mark.parametrize(
    "bad, mode, status, tested",
    [
        pytest.param(bad, mode, status, tested, id=f"{mode}-{status}-{tested}{case}")
        for case, bad in _UNPARSABLE
        for mode, status, tested in [
            (AttemptMode.SINGLE, SearchStatus.EXHAUSTED, 1),
            (AttemptMode.MULTIPLE, SearchStatus.SOLVED, 2),
        ]
    ],
)
def test_run_search_records_an_unparsable_eos_with_checks_off(
    schemas, bad, mode, status, tested
):
    """A finished generation that does not parse is one failed attempt,
    whatever its fault, recorded as the model wrote it."""
    model = ScriptedModel([
        (lexeme_tokens(bad), 0.6),
        (lexeme_tokens(GOLD), 0.4),
    ])
    result = run_search(
        _task(),
        schemas["concerts"],
        None,
        model,
        tester=_accept_all,
        config=SearchConfig(pqc_enabled=False, attempt_mode=mode),
    )
    assert result.status is status
    assert result.stats.complete_queries_tested == tested
    assert result.stats.failed_queries == [bad]


def test_run_search_prunes_malformed_paths_with_checks_on(schemas):
    bad = GOLD.replace("singer.age", "singer.wingspan")
    model = ScriptedModel([
        (lexeme_tokens(bad), 0.6),
        (lexeme_tokens(GOLD), 0.4),
    ])
    result = run_search(
        _task(), schemas["concerts"], None, model, tester=_accept_all
    )
    assert result.status is SearchStatus.SOLVED
    assert result.query_text == GOLD
    assert result.stats.pruned_by_checker >= 1


class _EmptyTokenModel:
    """Walks GOLD one lexeme a step at 0.1, optionally beside a token
    with no text at 0.9 that does not advance the walk."""

    EMPTY = "<empty>"

    def __init__(self, offer_empty: bool) -> None:
        self.offer_empty = offer_empty
        self.tokens = (*lexeme_tokens(GOLD), EOS_TOKEN_ID)

    def start_session(self, task_text):
        return GenerationSession(task_text)

    def top_candidates(self, session, k):
        token = self.tokens[sum(t != self.EMPTY for t in session.prefix)]
        surface = "" if token == EOS_TOKEN_ID else token
        candidates = [TokenCandidate(token, surface, 0.1)]
        if self.offer_empty:
            candidates.insert(0, TokenCandidate(self.EMPTY, "", 0.9))
        return candidates


def test_run_search_skips_candidates_without_text(schemas, fixture_paths):
    db = open_database(fixture_paths.db_root, "concerts")
    config = SearchConfig(time_limit=10.0)
    plain, padded = (
        run_search(
            _task(), schemas["concerts"], db, _EmptyTokenModel(offer), config=config
        )
        for offer in (False, True)
    )
    assert plain.status is padded.status is SearchStatus.SOLVED
    assert padded.query_text == GOLD
    assert padded.stats.nodes_expanded == plain.stats.nodes_expanded


class _RepeatingModel:
    """Names every candidate of ``inner`` twice in each reply."""

    def __init__(self, inner: ScriptedModel) -> None:
        self.inner = inner

    def start_session(self, task_text):
        return self.inner.start_session(task_text)

    def top_candidates(self, session, k):
        return [c for c in self.inner.top_candidates(session, k) for _ in range(2)]


@pytest.mark.parametrize("pqc_enabled", [True, False])
def test_search_pushes_a_token_named_twice_in_one_reply_once(schemas, pqc_enabled):
    """A token sequence repeats only when one reply names a token id
    twice; the search expands and tests it once, and the checker still
    judges, and counts, every candidate it is offered."""
    inner = ScriptedModel.from_queries(
        [(GOLD, 0.6), (GOLD.replace("singer.age", "singer.wingspan"), 0.4)]
    )
    config = SearchConfig(pqc_enabled=pqc_enabled, time_limit=10.0)
    plain, repeated = (
        run_search(
            _task(),
            schemas["concerts"],
            None,
            model,
            tester=_reject_all,
            config=config,
        ).stats
        for model in (inner, _RepeatingModel(inner))
    )
    assert repeated.complete_queries_tested == plain.complete_queries_tested
    assert repeated.nodes_expanded == plain.nodes_expanded
    assert repeated.backtracks == plain.backtracks
    assert repeated.failed_queries == plain.failed_queries
    assert repeated.candidates_generated == 2 * plain.candidates_generated
    assert repeated.pruned_by_checker == 2 * plain.pruned_by_checker
    assert plain.complete_queries_tested == (1 if pqc_enabled else 2)
    assert plain.pruned_by_checker == (1 if pqc_enabled else 0)


class _CapturingModel:
    def __init__(self, inner: ScriptedModel) -> None:
        self.inner = inner
        self.task_texts: list[str] = []

    def start_session(self, task_text: str) -> GenerationSession:
        self.task_texts.append(task_text)
        return self.inner.start_session(task_text)

    def top_candidates(self, session, k):
        return self.inner.top_candidates(session, k)


def test_run_search_example_visibility_switch(schemas):
    inner = ScriptedModel.from_queries([(GOLD, 1.0)])
    shown = _CapturingModel(inner)
    run_search(
        _task(example=("Dina",)),
        schemas["concerts"],
        None,
        shown,
        tester=_accept_all,
    )
    assert '["Dina"]' in shown.task_texts[0]

    hidden = _CapturingModel(inner)
    run_search(
        _task(example=("Dina",)),
        schemas["concerts"],
        None,
        hidden,
        tester=_accept_all,
        config=SearchConfig(include_examples=False),
    )
    assert "Dina" not in hidden.task_texts[0]
    assert "no examples" in hidden.task_texts[0]


def test_collect_complete_orders_by_probability():
    texts = [
        "SELECT t.a\nFROM t\nWHERE\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n",
        "SELECT t.b\nFROM t\nWHERE\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n",
        "SELECT t.c\n",  # malformed: still collected, checks are off
    ]
    model = ScriptedModel.from_queries(
        [(texts[0], 0.2), (texts[1], 0.5), (texts[2], 0.3)]
    )
    collected = collect_complete("task", model, 3)
    assert collected == [texts[1], texts[2], texts[0]]
    assert collect_complete("task", model, 2) == [texts[1], texts[2]]
    assert collect_complete("task", model, 10) == [texts[1], texts[2], texts[0]]


class _StallingModel(ScriptedModel):
    """A scripted model that stalls past any short time limit once asked
    to continue a prefix holding ``stall_on``."""

    def __init__(self, paths, stall_on: str) -> None:
        super().__init__(paths)
        self._stall_on = stall_on

    def top_candidates(self, session, k):
        if self._stall_on in "".join(session.prefix):
            time.sleep(0.3)
        return super().top_candidates(session, k)


def test_collect_complete_returns_what_it_gathered_by_the_deadline():
    first = "SELECT t.a\nFROM t\nWHERE\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n"
    second = first.replace("t.a", "t.b")
    model = _StallingModel(
        [(lexeme_tokens(first), 0.6), (lexeme_tokens(second), 0.4)], "t.b"
    )
    assert collect_complete("task", model, 2, SearchConfig(time_limit=0.2)) == [first]


def _malformed(gold: str, rng: random.Random) -> str:
    """``gold`` with one seeded fault in its line structure: a clause
    line dropped, two adjacent clause lines swapped, or the text cut
    before its LIMIT line."""
    lines = gold.splitlines(keepends=True)
    at = rng.randrange(len(lines) - 1)
    fault = rng.choice(("drop", "swap", "cut"))
    if fault == "drop":
        del lines[at]
    elif fault == "swap":
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
    else:
        del lines[at + 1 :]
    return "".join(lines)


def test_failed_attempts_are_the_collected_generations(normalized_tasks, schemas):
    """With checks off and nothing satisfying, a MULTIPLE-mode search
    fails every finished generation, so it records exactly the texts
    ``collect_complete`` gathers, in the same order."""
    rng = random.Random(46)
    config = SearchConfig(
        k=2, max_tokens=96, pqc_enabled=False, repair_enabled=False,
        attempt_mode=AttemptMode.MULTIPLE,
    )
    for task in normalized_tasks:
        bad = _malformed(task.gold_query, rng)
        with pytest.raises(StructureError):
            parse_complete(bad)
        weight = rng.uniform(0.2, 0.8)
        model = ScriptedModel.from_queries(
            [(task.gold_query, weight), (bad, 1.0 - weight)]
        )
        schema = schemas[task.db_id]
        result = run_search(
            task, schema, None, model, tester=_reject_all, config=config
        )
        collected = collect_complete(
            search.search_task_text(task, schema, config), model, 10, config
        )
        assert result.status is SearchStatus.EXHAUSTED
        assert bad in collected, task.id
        assert result.stats.failed_queries == collected, task.id
        assert result.stats.complete_queries_tested == len(collected), task.id


def test_benchmark_entry_points_still_resolve():
    # perfbench/tracer.py patches these attributes to time each layer; a
    # name that stops resolving would turn its layer into "missing".
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.ENTRY_POINTS
    for module, attribute, span, _ in tracer.ENTRY_POINTS:
        found = getattr(importlib.import_module(module), attribute, None)
        assert callable(found), (module, attribute, span)


# -- the clause cache shared by checks, end-of-sequence parses and repair ---

_NOISE = DistractorSpec(surface="frobnicate ", mass=0.2)


def _near_miss(task, schema, conn) -> str | None:
    """The first one-edit variant of the gold that passes the static
    checks but misses the examples, so that repair must recover it."""
    examples = task.sorted_examples()
    check = make_checker(schema, examples[0])
    gold = parse_complete(task.gold_query)
    for variant, _, _ in parsed_edits(hamming_one_queries(gold, schema)):
        text = variant.render()
        if check(text, True).ok and not satisfies_examples(
            execute_query(conn, variant), examples
        ):
            return text
    return None


def _parse_afresh(kind, body):
    return parse_clause_body(kind, body)


def _outcome(result) -> tuple:
    stats = result.stats.as_dict()
    del stats["elapsed_seconds"]
    return result.status, result.query_text, result.repaired, stats


@pytest.fixture()
def parsed(monkeypatch) -> list[tuple[object, tuple[str, ...]]]:
    """Every ``(kind, body)`` a clause grammar runs on, in order."""
    seen: list[tuple[object, tuple[str, ...]]] = []

    parse = grammar.parse_clause_body

    def counting(kind, body):
        seen.append((kind, tuple(body)))
        return parse(kind, body)

    monkeypatch.setattr(grammar, "parse_clause_body", counting)
    # A grammar imported directly would bypass the count.
    for module in (checker, search, repair):
        imported = {name for name in vars(module) if name.endswith("_body")}
        assert imported <= {"parse_clause_body"}, module
    return seen


def _near_miss_searches(normalized_tasks, schemas, fixture_paths, connect):
    """``(task, schema, db, model)`` for every task with a near miss,
    whose model puts the near miss at 0.7 among noise."""
    conns = {db_id: connect(db_id) for db_id in schemas}
    for task in normalized_tasks:
        schema = schemas[task.db_id]
        near = _near_miss(task, schema, conns[task.db_id])
        if near is not None:
            model = ScriptedModel.from_queries([(near, 0.7)], _NOISE)
            db = open_database(fixture_paths.db_root, task.db_id)
            yield task, schema, db, model


def test_each_clause_is_parsed_once_per_search(
    parsed, normalized_tasks, schemas, fixture_paths, connect
):
    """From an empty clause cache, a clause body met by a search check,
    an end-of-sequence parse and a repair variant is parsed once between
    them."""
    repaired = total = 0
    for task, schema, db, model in _near_miss_searches(
        normalized_tasks, schemas, fixture_paths, connect
    ):
        grammar.parse_clause_cached.cache_clear()
        parsed.clear()
        result = run_search(
            task, schema, db, model, config=SearchConfig(k=8, time_limit=20.0)
        )
        assert result.status is SearchStatus.SOLVED, task.id
        assert len(parsed) == len(set(parsed)), task.id
        repaired += result.repaired
        total += len(parsed)
    assert repaired >= 40
    assert total > 300


def test_a_second_search_of_a_task_parses_no_clause(
    parsed, normalized_tasks, schemas, fixture_paths, connect
):
    """Parses outlive their search: the same search again, repair
    included, finds every clause body in the cache."""
    searches = 0
    for task, schema, db, model in _near_miss_searches(
        normalized_tasks, schemas, fixture_paths, connect
    ):
        config = SearchConfig(k=8, time_limit=20.0)
        first = run_search(task, schema, db, model, config=config)
        parsed.clear()
        second = run_search(task, schema, db, model, config=config)
        assert parsed == [], task.id
        assert _outcome(second) == _outcome(first), task.id
        searches += 1
    assert searches >= 40


def test_parallel_benchmark_from_an_empty_clause_cache_matches_serial(
    normalized_tasks, schemas, fixture_paths, connect
):
    """Four worker threads filling one clause cache at once, switching
    as often as the interpreter allows, report the same statistics as
    a serial run."""
    routes = {}
    for task, _, _, model in _near_miss_searches(
        normalized_tasks, schemas, fixture_paths, connect
    ):
        routes.setdefault(task.question, (task, model))
    tasks = [task for task, _ in routes.values()]
    # Longest question first: a task whose question contains another
    # task's question still meets its own route first.
    router = ScriptedRouter(
        sorted(
            ((question, model) for question, (_, model) in routes.items()),
            key=lambda route: -len(route[0]),
        )
    )
    config = SearchConfig(k=8, time_limit=20.0)

    def outcomes(jobs):
        grammar.parse_clause_cached.cache_clear()
        report = run_benchmark(
            tasks, schemas, fixture_paths.db_root, router, config=config, jobs=jobs
        )
        rows = []
        for row in report.reports:
            stats = dict(row.stats)
            del stats["elapsed_seconds"]
            rows.append((row.task_id, row.status, row.query_text, row.repaired, stats))
        return rows

    serial = outcomes(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = outcomes(4)
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial
    assert len(serial) >= 30
    assert sum(repaired for _, _, _, repaired, _ in serial) >= 20


def test_repair_checks_variants_without_the_text_checker(
    monkeypatch, normalized_tasks, schemas, fixture_paths, connect
):
    """With pruning and repair on, a near-miss search checks its repair
    variants from their clause bodies: the text checker ``run_search``
    builds is not called while ``test_and_repair`` runs."""
    calls = {"search": 0, "repair": 0}
    repairing = False

    def counting_make_checker(*args):
        check = make_checker(*args)

        def counting(text, eos):
            calls["repair" if repairing else "search"] += 1
            return check(text, eos)

        return counting

    def flagged_test_and_repair(*args, **kwargs):
        nonlocal repairing
        repairing = True
        try:
            return repair.test_and_repair(*args, **kwargs)
        finally:
            repairing = False

    monkeypatch.setattr(search, "make_checker", counting_make_checker)
    monkeypatch.setattr(search, "test_and_repair", flagged_test_and_repair)
    tried = 0
    for task, schema, db, model in _near_miss_searches(
        normalized_tasks, schemas, fixture_paths, connect
    ):
        config = SearchConfig(k=8, time_limit=20.0)
        result = run_search(task, schema, db, model, config=config)
        assert result.status is SearchStatus.SOLVED, task.id
        tried += result.stats.repair_variants_tried
    assert calls["search"] > 0 and tried > 0
    assert calls["repair"] == 0


def _reference_best_first(session, model, stats, config, checker, deadline):
    """``search._best_first`` as it built every child's node before
    checking it, on the reference nodes and frontier."""
    frontier = reference.Frontier()
    frontier.push(reference.ROOT)
    previous = None
    while True:
        if time.monotonic() > deadline:
            raise search._DeadlinePassed
        node = frontier.pop_best()
        if node is None:
            return
        if not reference.is_direct_child(previous, node):
            stats.backtracks += 1
        previous = node
        if node.tokens and node.tokens[-1] == EOS_TOKEN_ID:
            yield node.text
            continue
        candidates = model.top_candidates(
            GenerationSession(session.task_text, node.tokens), config.k
        )
        stats.nodes_expanded += 1
        stats.candidates_generated += len(candidates)
        pushed = set()
        for candidate in candidates:
            eos = candidate.is_eos
            if candidate.prob <= 0.0 or not (eos or candidate.surface):
                continue
            child = reference.extend(node, candidate)
            if not eos and child.depth >= config.max_tokens:
                continue
            if checker is not None and not checker(child.text, eos).ok:
                stats.pruned_by_checker += 1
                continue
            if candidate.token_id in pushed:
                continue
            pushed.add(candidate.token_id)
            frontier.push(child)


@pytest.mark.parametrize(
    "pqc_enabled, max_tokens", [(True, 128), (False, 128), (True, 12)]
)
def test_search_builds_a_node_only_for_a_pushed_child(
    monkeypatch, normalized_tasks, schemas, fixture_paths, pqc_enabled, max_tokens
):
    """On noisy fixture searches ``extend`` builds only the children that
    are pushed: none the checker rejected, none past ``max_tokens`` and no
    token sequence twice.  Statistics and answer equal those of the loop
    that built every child before checking it."""
    rejected: set[tuple[str, bool]] = set()
    children: list[tuple[tuple, bool]] = []
    make = search.make_checker

    def recording_make_checker(schema, example):
        check = make(schema, example)

        def recording(text, eos):
            verdict = check(text, eos)
            if not verdict.ok:
                rejected.add((text, eos))
            return verdict

        return recording

    def recording_extend(node, candidate):
        child = extend(node, candidate)
        children.append((child, candidate.is_eos))
        return child

    config = SearchConfig(
        k=8, pqc_enabled=pqc_enabled, max_tokens=max_tokens, time_limit=20.0
    )
    pruned = searches = 0
    for task in normalized_tasks:
        schema = schemas[task.db_id]
        model = ScriptedModel.from_queries([(task.gold_query, 0.7)], _NOISE)
        db = open_database(fixture_paths.db_root, task.db_id)
        with monkeypatch.context() as patch:
            patch.setattr(search, "_best_first", _reference_best_first)
            want = run_search(task, schema, db, model, config=config)
        rejected.clear()
        children.clear()
        with monkeypatch.context() as patch:
            patch.setattr(search, "make_checker", recording_make_checker)
            patch.setattr(search, "extend", recording_extend)
            got = run_search(task, schema, db, model, config=config)
        assert _outcome(got) == _outcome(want), task.id
        # A loop that stopped building through ``extend`` records nothing.
        assert children, task.id
        assert not {(child[3], eos) for child, eos in children} & rejected, task.id
        assert all(eos or -child[1] < max_tokens for child, eos in children), task.id
        tokens = [child[2] for child, _ in children]
        assert len(set(tokens)) == len(tokens), task.id
        pruned += got.stats.pruned_by_checker
        searches += 1
    assert searches >= 40
    assert (pruned > 0) is pqc_enabled


@pytest.mark.parametrize("scripted", ["noisy", "near-miss"])
def test_run_search_with_the_clause_memo_matches_the_reference(
    scripted, monkeypatch, normalized_tasks, schemas, fixture_paths, connect
):
    """Same status, query, repair flag and statistics as the same search
    through the whole-prefix reference checker, with every clause parsed
    afresh, for pruning and repair each on and off."""
    conns = {db_id: connect(db_id) for db_id in schemas}
    searches = 0
    for task in normalized_tasks:
        schema = schemas[task.db_id]
        text = task.gold_query
        if scripted == "near-miss":
            text = _near_miss(task, schema, conns[task.db_id])
            if text is None:
                continue
        model = ScriptedModel.from_queries([(text, 0.7)], _NOISE)
        db = open_database(fixture_paths.db_root, task.db_id)
        reference = _reference_check(schema, task.sorted_examples()[0])
        for pqc, repair_enabled in itertools.product((True, False), repeat=2):
            config = SearchConfig(
                k=8, pqc_enabled=pqc, repair_enabled=repair_enabled, time_limit=20.0
            )
            got = run_search(task, schema, db, model, config=config)
            with monkeypatch.context() as patch:
                patch.setattr(grammar, "parse_clause_cached", _parse_afresh)
                want = run_search(
                    task, schema, db, model, checker=reference, config=config
                )
            assert _outcome(got) == _outcome(want), (task.id, pqc, repair_enabled)
            searches += 1
    assert searches >= 160
