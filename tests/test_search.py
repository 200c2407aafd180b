from __future__ import annotations

import importlib.util
import itertools
import math
from pathlib import Path

import pytest

from sqlsynth import checker, repair, search
from sqlsynth.checker import make_checker
from sqlsynth.lm import (
    EOS_TOKEN_ID,
    AdapterUnavailable,
    DistractorSpec,
    GenerationSession,
    ScriptedModel,
    TokenCandidate,
    lexeme_tokens,
)
from sqlsynth.nsql import grammar
from sqlsynth.nsql.grammar import ClauseMemo, parse_clause_body, parse_complete
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
    Frontier,
    SearchConfig,
    SearchNode,
    SearchStatus,
    collect_complete,
    extend,
    is_complete,
    run_search,
)
from sqlsynth.tasks import ExampleTuple, TaskInstance, open_database
from tests.fixtures.corpus import (
    TWO_PATH_BEST,
    TWO_PATH_DB,
    TWO_PATH_EXAMPLE,
    TWO_PATH_SECOND,
)
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
    assert node.text == "a b "
    assert node.tokens == ("a ", "b ")
    assert node.depth == 2
    assert node.log_prob == pytest.approx(math.log(0.125))
    assert node.cum_prob == pytest.approx(0.125)


def test_extend_rejects_zero_probability():
    with pytest.raises(ValueError):
        extend(ROOT, TokenCandidate("a ", "a ", 0.0))


# -- frontier ---------------------------------------------------------------


def test_frontier_pops_highest_probability_first():
    frontier = Frontier()
    low = extend(ROOT, TokenCandidate("low ", "low ", 0.2))
    high = extend(ROOT, TokenCandidate("high ", "high ", 0.7))
    frontier.push(low)
    frontier.push(high)
    assert frontier.pop_best() is high
    assert frontier.pop_best() is low
    assert frontier.pop_best() is None


def test_frontier_breaks_ties_toward_deeper_nodes():
    frontier = Frontier()
    shallow = SearchNode("a ", ("a ",), math.log(0.5), 1)
    deep = SearchNode("b c ", ("b ", "c "), math.log(0.5), 2)
    frontier.push(shallow)
    frontier.push(deep)
    assert frontier.pop_best() is deep


def test_frontier_dedups_token_sequences():
    frontier = Frontier()
    node = extend(ROOT, TokenCandidate("a ", "a ", 0.5))
    assert frontier.push(node)
    assert not frontier.push(node)
    assert len(frontier) == 1


def test_is_complete_requires_terminal_eos_and_closed_lines():
    done = SearchNode(GOLD, lexeme_tokens(GOLD) + (EOS_TOKEN_ID,), 0.0, 16)
    assert is_complete(done)
    assert not is_complete(SearchNode(GOLD, lexeme_tokens(GOLD), 0.0, 15))
    early = SearchNode(
        "SELECT singer.name\n",
        lexeme_tokens("SELECT singer.name\n") + (EOS_TOKEN_ID,),
        0.0,
        3,
    )
    assert not is_complete(early)


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
    """``repair_variants_tried`` adds up the variants each tested
    candidate's repair ran, failed candidates included."""
    model = ScriptedModel.from_queries(
        [(TWO_PATH_BEST, 0.55), (TWO_PATH_SECOND, 0.40)]
    )
    outcomes = iter((False, True))
    tried = iter((3, 4))

    def tester(query, until):
        return RepairOutcome(
            query, ExecutionResult.success(()), next(outcomes), False, next(tried)
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
    assert result.stats.repair_variants_tried == 7
    assert result.stats.as_dict()["repair_variants_tried"] == 7


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


def test_run_search_accepts_a_raw_connection(schemas, connect):
    model = ScriptedModel.from_queries([(GOLD, 1.0)])
    conn = connect("concerts")
    result = run_search(_task(), schemas["concerts"], conn, model)
    assert result.status is SearchStatus.SOLVED
    # The injected connection stays open for the caller.
    assert conn.execute("SELECT 1").fetchone() == (1,)


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


def test_run_search_skips_malformed_eos_with_checks_off(schemas):
    bad = "SELECT singer.name\nFROM singer\n"  # stops before WHERE
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
        config=SearchConfig(pqc_enabled=False),
    )
    assert result.status is SearchStatus.SOLVED
    assert result.query_text == GOLD
    assert result.stats.complete_queries_tested == 1


def test_run_search_skips_misordered_eos_with_checks_off(schemas):
    lines = GOLD.splitlines(keepends=True)
    misordered = "".join([lines[2], lines[0], lines[1], *lines[3:]])
    model = ScriptedModel([
        (lexeme_tokens(misordered), 0.6),
        (lexeme_tokens(GOLD), 0.4),
    ])
    result = run_search(
        _task(),
        schemas["concerts"],
        None,
        model,
        tester=_accept_all,
        config=SearchConfig(pqc_enabled=False),
    )
    assert result.status is SearchStatus.SOLVED
    assert result.query_text == GOLD
    assert result.stats.complete_queries_tested == 1
    assert result.stats.failed_queries == []


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


# -- the clause memo shared by checks, end-of-sequence parses and repair ----

_NOISE = DistractorSpec(surface="frobnicate ", mass=0.2)


def _near_miss(task, schema, conn) -> str | None:
    """The first one-edit variant of the gold that passes the static
    checks but misses the examples, so that repair must recover it."""
    examples = task.sorted_examples()
    check = make_checker(schema, examples[0])
    for variant in hamming_one_queries(parse_complete(task.gold_query), schema):
        text = variant.render()
        if check(text, True).ok and not satisfies_examples(
            execute_query(conn, variant), examples
        ):
            return text
    return None


def _parse_afresh(memo, kind, body):
    return parse_clause_body(kind, body)


def _outcome(result) -> tuple:
    stats = result.stats.as_dict()
    del stats["elapsed_seconds"]
    return result.status, result.query_text, result.repaired, stats


def test_each_clause_is_parsed_once_per_search(
    monkeypatch, normalized_tasks, schemas, fixture_paths, connect
):
    """A clause body met by a search check, an end-of-sequence parse and
    a repair variant is parsed once between them."""
    parsed: list[tuple[object, tuple[str, ...]]] = []

    def counting(kind, original):
        def parse(body, *args, **kwargs):
            parsed.append((kind, tuple(body)))
            return original(body, *args, **kwargs)

        return parse

    for kind, parse in list(grammar._CLAUSE_GRAMMARS.items()):
        monkeypatch.setitem(grammar._CLAUSE_GRAMMARS, kind, counting(kind, parse))
    # A grammar imported directly would bypass the count.
    for module in (checker, search, repair):
        imported = {name for name in vars(module) if name.endswith("_body")}
        assert imported <= {"parse_clause_body"}, module
    conns = {db_id: connect(db_id) for db_id in schemas}
    repaired = total = 0
    for task in normalized_tasks:
        schema = schemas[task.db_id]
        near = _near_miss(task, schema, conns[task.db_id])
        if near is None:
            continue
        parsed.clear()
        model = ScriptedModel.from_queries([(near, 0.7)], _NOISE)
        db = open_database(fixture_paths.db_root, task.db_id)
        result = run_search(
            task, schema, db, model, config=SearchConfig(k=8, time_limit=20.0)
        )
        assert result.status is SearchStatus.SOLVED, task.id
        assert len(parsed) == len(set(parsed)), task.id
        repaired += result.repaired
        total += len(parsed)
    assert repaired >= 40
    assert total > 300


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
                patch.setattr(ClauseMemo, "parse", _parse_afresh)
                want = run_search(
                    task, schema, db, model, checker=reference, config=config
                )
            assert _outcome(got) == _outcome(want), (task.id, pqc, repair_enabled)
            searches += 1
    assert searches >= 160
