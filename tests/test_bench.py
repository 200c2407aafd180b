"""Benchmark grading, the ablation sweep, and the CLI front end."""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import socket
import sqlite3
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from sqlsynth import bench, cli
from sqlsynth.bench import (
    CheckerExperiment,
    ablation_grid,
    config_label,
    run_ablation,
    run_benchmark,
    run_checker_experiment,
)
from sqlsynth.checker import Label
from sqlsynth.lm import (
    HttpCompletionModel,
    ScriptedModel,
    ScriptedRouter,
    lexeme_tokens,
)
from sqlsynth.nsql.normalize import normalize, rewrite_dataset
from sqlsynth.search import AttemptMode, SearchConfig, search_task_text
from sqlsynth.tasks import (
    ExampleTuple,
    TaskDatabase,
    TaskInstance,
    load_tasks,
)
from tests.test_lm import (  # noqa: F401 (fixtures)
    DROP,
    STALL,
    _CannedHandler,
    canned_server,
    keepalive_server,
)

CONFIG = SearchConfig(k=8, time_limit=10.0)


def _task(task_id: str, question: str, gold: str, *example_values) -> TaskInstance:
    examples = frozenset(ExampleTuple.from_values(list(v)) for v in example_values)
    return TaskInstance(
        id=task_id,
        db_id="concerts",
        question=question,
        gold_query=gold,
        examples=examples,
    )


@pytest.fixture(scope="module")
def canon(schemas) -> dict[str, str]:
    concerts = schemas["concerts"]
    return {
        "count": normalize("select count(*) from singer", concerts).render(),
        "france": normalize(
            "select name from singer where country = 'France'", concerts
        ).render(),
        "name": normalize("select name from singer", concerts).render(),
    }


@pytest.fixture(scope="module")
def bench_tasks() -> list[TaskInstance]:
    return [
        _task("bench-001", "count every singer", "select count(*) from singer", [5]),
        _task(
            "bench-002",
            "names from France",
            "select name from singer where country = 'France'",
            ["Ali"],
        ),
        # The routed model emits a one-column query against a two-column
        # example, which no single-lexeme repair can fix.
        _task(
            "bench-003",
            "name and age pairs",
            "select name , age from singer",
            ["Ali", 30],
        ),
        _task("bench-004", "count with no reference", "", [5]),
    ]


@pytest.fixture(scope="module")
def router(canon) -> ScriptedRouter:
    return ScriptedRouter(
        routes=[
            ("count every singer", ScriptedModel.from_queries([(canon["count"], 0.9)])),
            ("from France", ScriptedModel.from_queries([(canon["france"], 0.9)])),
            ("name and age", ScriptedModel.from_queries([(canon["name"], 0.9)])),
            ("no reference", ScriptedModel.from_queries([(canon["count"], 0.9)])),
        ]
    )


@pytest.fixture(scope="module")
def report(bench_tasks, schemas, fixture_paths, router):
    return run_benchmark(
        bench_tasks,
        schemas,
        fixture_paths.db_root,
        router,
        config=CONFIG,
        label="unit",
    )


def test_benchmark_counts(report):
    assert report.total == 4
    assert report.solved == 3
    assert report.execution_matches == 2
    assert report.exact_matches == 2


def test_benchmark_task_rows(report, canon):
    rows = {row.task_id: row for row in report.reports}
    assert rows["bench-001"].status == "solved"
    assert rows["bench-001"].execution_match is True
    assert rows["bench-001"].exact is True
    assert rows["bench-001"].query_text == canon["count"]
    assert rows["bench-003"].status == "exhausted"
    assert rows["bench-003"].execution_match is False
    assert rows["bench-003"].exact is False
    assert rows["bench-004"].status == "solved"
    assert rows["bench-004"].execution_match is None
    assert rows["bench-004"].exact is None
    assert rows["bench-004"].note == "no gold query"
    assert all(not row.repaired for row in report.reports)
    assert all(row.elapsed_seconds >= 0 for row in report.reports)


def test_benchmark_grades_past_a_gold_query_with_a_non_ascii_digit(
    schemas, fixture_paths, router
):
    """A gold query the normalizer cannot scan marks its own task and the
    run grades the next one."""
    tasks = [
        _task(
            "bench-001",
            "count every singer",
            "select count(*) from singer where age > \u00b2",
            [5],
        ),
        _task("bench-002", "count every singer", "select count(*) from singer", [5]),
    ]
    result = run_benchmark(tasks, schemas, fixture_paths.db_root, router, config=CONFIG)
    first, second = result.reports
    assert first.status == "solved"
    assert first.note.startswith("gold not normalizable: ")
    assert first.execution_match is None and first.exact is None
    assert second.execution_match is True and second.exact is True


def test_benchmark_leaves_execution_unjudged_when_sqlite_refuses_the_gold(
    schemas, fixture_paths, router
):
    """The gold normalizes, but SQLite refuses an aggregate in WHERE, so a
    solved task's execution match is unknown rather than False."""
    gold = "select name from singer where count(*) > 1"
    task = _task("bench-001", "count every singer", gold, [5])
    result = run_benchmark([task], schemas, fixture_paths.db_root, router, config=CONFIG)
    row = result.reports[0]
    assert row.status == "solved" and row.note == ""
    assert row.execution_match is None
    assert result.execution_matches == 0


def test_benchmark_render_text(report):
    lines = report.render_text().splitlines()
    assert lines[0] == "run: unit"
    assert lines[1] == "tasks: 4"
    assert lines[2] == "solved: 3 (0.750)"
    assert lines[3] == "execution accuracy: 2 (0.500)"
    assert lines[4] == "exact match: 2 (0.500)"
    assert lines[5].startswith("mean nodes expanded: ")
    assert lines[6].split() == ["task", "status", "exec", "exact", "note"]
    by_id = {line.split()[0]: line for line in lines[8:]}
    assert "exhausted" in by_id["bench-003"]
    assert by_id["bench-004"].count("n/a") == 2
    assert by_id["bench-004"].endswith("no gold query")


def test_benchmark_report_serialization(report):
    data = json.loads(json.dumps(report.as_dict(), indent=2))
    assert data == report.as_dict()
    assert data["label"] == "unit"
    assert data["total"] == 4
    assert [row["task_id"] for row in data["tasks"]] == [
        "bench-001",
        "bench-002",
        "bench-003",
        "bench-004",
    ]
    assert data["tasks"][0]["status"] == "solved"


def test_benchmark_mean_stat(report):
    values = [row.stats["nodes_expanded"] for row in report.reports]
    assert report.mean_stat("nodes_expanded") == pytest.approx(sum(values) / 4)
    assert report.mean_stat("no_such_counter") is None


def test_benchmark_parallel_matches_serial(
    bench_tasks, schemas, fixture_paths, router, report
):
    parallel = run_benchmark(
        bench_tasks,
        schemas,
        fixture_paths.db_root,
        router,
        config=CONFIG,
        jobs=2,
        label="unit",
    )
    key = lambda row: (
        row.task_id, row.status, row.solved, row.execution_match, row.exact
    )
    assert [key(row) for row in parallel.reports] == [
        key(row) for row in report.reports
    ]


class _PairedModel:
    """Holds its first two sessions until both have started, so two
    worker threads are searching at once."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.barrier = threading.Barrier(2, timeout=10)
        self.started = itertools.count()

    def start_session(self, task_text):
        if next(self.started) < 2:
            self.barrier.wait()
        return self.inner.start_session(task_text)

    def top_candidates(self, session, k):
        return self.inner.top_candidates(session, k)


@pytest.mark.parametrize("jobs", [2, 4])
def test_benchmark_workers_hold_their_own_connections(
    monkeypatch, jobs, bench_tasks, schemas, fixture_paths, router, report
):
    opened: list[tuple[int, sqlite3.Connection]] = []
    connect = TaskDatabase.connect

    def recording(self):
        opened.append((threading.get_ident(), connect(self)))
        return opened[-1][1]

    monkeypatch.setattr(TaskDatabase, "connect", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run_benchmark(
            bench_tasks * jobs,
            schemas,
            fixture_paths.db_root,
            _PairedModel(router),
            config=CONFIG,
            jobs=jobs,
            label="unit",
        )
    finally:
        sys.setswitchinterval(interval)
    # A handle used from a second thread would raise ProgrammingError,
    # which grading turns into an "error" row.  On a mismatch, name each
    # differing task with both statuses and its note, which tells a time
    # out, a broken pairing barrier and a race apart.
    differing = [
        f"{row.task_id}: {row.status} (serial {serial.status}), note {row.note!r}"
        for row, serial in zip(parallel.reports, report.reports * jobs)
        if row.status != serial.status
    ]
    assert [row.status for row in parallel.reports] == [
        row.status for row in report.reports
    ] * jobs, differing
    # Every task names one database: one connection per worker thread.
    threads = [thread for thread, _ in opened]
    assert 2 <= len(set(threads)) == len(threads) <= jobs
    assert len({id(conn) for _, conn in opened}) == len(opened)


class _InlineExecutor:
    """Stands in for ``ThreadPoolExecutor``: records the pool size asked
    for and runs each submitted call at once, starting no thread."""

    sizes: list[int] = []

    def __init__(self, max_workers: int) -> None:
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def submit(self, fn, *args):
        future: Future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize(
    "jobs, count, sizes", [(64, 3, [3]), (2, 4, [2]), (64, 1, []), (4, 0, [])]
)
def test_benchmark_starts_no_more_workers_than_tasks(
    monkeypatch, jobs, count, sizes, bench_tasks, schemas, fixture_paths, router
):
    monkeypatch.setattr(bench, "ThreadPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(_InlineExecutor, "sizes", [])
    result = run_benchmark(
        bench_tasks[:count],
        schemas,
        fixture_paths.db_root,
        router,
        config=CONFIG,
        jobs=jobs,
    )
    assert _InlineExecutor.sizes == sizes
    assert [row.task_id for row in result.reports] == [
        task.id for task in bench_tasks[:count]
    ]


class _CrashingModel:
    """Raises a non-adapter error, which grading must contain per task."""

    def start_session(self, task_text):
        raise RuntimeError("boom")

    def top_candidates(self, session, k):
        raise RuntimeError("boom")


def test_benchmark_contains_model_crash(schemas, fixture_paths):
    task = _task("bench-001", "count every singer", "select count(*) from singer", [5])
    result = run_benchmark(
        [task], schemas, fixture_paths.db_root, _CrashingModel(), config=CONFIG
    )
    row = result.reports[0]
    assert row.status == "error"
    assert row.note == "RuntimeError: boom"
    assert row.solved is False
    assert row.execution_match is None
    assert row.stats == {}


class _Interrupt(BaseException):
    """Stands for ``KeyboardInterrupt``, which grading does not contain."""


@pytest.mark.parametrize("source", ["first-task", "fifth-submit"])
def test_an_interrupt_cancels_the_tasks_queued_behind_it(
    monkeypatch, schemas, fixture_paths, source
):
    """Under two workers, a ``BaseException`` from the first task, or from
    submitting the fifth, reaches the caller, and no task queued behind
    the ones in flight starts.  Every other task holds its worker until
    the pool has been shut down, so at most one task a worker is in
    flight when the exception is raised."""
    tasks = [_task(f"bench-{i:03d}", f"question {i}", "", [5]) for i in range(8)]
    started: list[str] = []
    shut = threading.Event()

    class Model:
        def start_session(self, task_text):
            if source == "first-task" and task_text.startswith("question 0"):
                raise _Interrupt
            started.append(task_text.split("\n", 1)[0])
            shut.wait(10)
            raise RuntimeError("stopped")

    class Pool(ThreadPoolExecutor):
        submitted = 0

        def submit(self, *args, **kwargs):
            self.submitted += 1
            if source == "fifth-submit" and self.submitted == 5:
                raise _Interrupt
            return super().submit(*args, **kwargs)

        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            shut.set()
            super().shutdown(wait=wait)

    monkeypatch.setattr(bench, "ThreadPoolExecutor", Pool)
    with pytest.raises(_Interrupt):
        run_benchmark(
            tasks, schemas, fixture_paths.db_root, Model(), config=CONFIG, jobs=2
        )
    assert shut.is_set()
    assert len(started) <= 2, started


def test_benchmark_records_adapter_failure(schemas, fixture_paths, router):
    stray = _task(
        "bench-009", "matches no route", "select count(*) from singer", [5]
    )
    result = run_benchmark(
        [stray], schemas, fixture_paths.db_root, router, config=CONFIG
    )
    row = result.reports[0]
    assert row.status == "adapter_failure"
    assert row.solved is False
    assert row.exact is False


def test_benchmark_contains_a_malformed_http_reply(
    bench_tasks, canon, schemas, fixture_paths, canned_server
):
    """Under two workers, the task whose model reply is malformed reads
    adapter_failure and the tasks beside it still grade."""
    answers = {
        "count every singer": lexeme_tokens(canon["count"]),
        "names from France": lexeme_tokens(canon["france"]),
    }

    def reply(request):
        tokens = next((t for q, t in answers.items() if q in request["task"]), None)
        if tokens is None:
            return {"candidates": 5}
        step = len(lexeme_tokens(request["prefix"]))
        if step == len(tokens):
            return {"candidates": [], "eos_logprob": 0.0}
        return {"candidates": [{"text": tokens[step], "logprob": 0.0}]}

    _CannedHandler.payload = reply
    broken = _task("bench-010", "a broken reply", "select count(*) from singer", [5])
    model = HttpCompletionModel(canned_server)
    try:
        result = run_benchmark(
            [*bench_tasks[:2], broken],
            schemas,
            fixture_paths.db_root,
            model,
            config=CONFIG,
            jobs=2,
        )
    finally:
        model.close()
    rows = {row.task_id: row for row in result.reports}
    assert rows["bench-010"].status == "adapter_failure"
    for task_id in ("bench-001", "bench-002"):
        assert rows[task_id].status == "solved"
        assert rows[task_id].execution_match is True


def _scripted_reply(answers, faults=None):
    """A server reply that spells out ``answers[question]`` token by token.

    ``faults`` maps a question to the reply it gets from the third step on,
    so that task fails in the middle of its search.
    """
    faults = faults or {}

    def reply(request):
        question = next(q for q in answers if q in request["task"])
        tokens = answers[question]
        step = len(lexeme_tokens(request["prefix"]))
        if question in faults and step >= 2:
            return faults[question]
        if step == len(tokens):
            return {"candidates": [], "eos_logprob": 0.0}
        return {"candidates": [{"text": tokens[step], "logprob": 0.0}]}

    return reply


def test_benchmark_contains_http_faults_under_two_workers(
    bench_tasks, canon, schemas, fixture_paths, keepalive_server
):
    """A timeout, a 500, a dropped connection and a malformed reply, each in
    the middle of one task's search, end only that task."""
    faults = {
        "a stalled reply": STALL,
        "a server error": (500, {"error": "boom"}),
        "a dropped connection": DROP,
        "a malformed reply": (200, b"{not json"),
    }
    answers = {
        "count every singer": lexeme_tokens(canon["count"]),
        "names from France": lexeme_tokens(canon["france"]),
        **dict.fromkeys(faults, lexeme_tokens(canon["count"])),
    }
    broken = [
        _task(f"bench-02{i}", question, "select count(*) from singer", [5])
        for i, question in enumerate(faults)
    ]
    server = keepalive_server(_scripted_reply(answers, faults))
    model = HttpCompletionModel(server.url, timeout=0.2)
    try:
        result = run_benchmark(
            [*broken[:2], *bench_tasks[:2], *broken[2:]],
            schemas,
            fixture_paths.db_root,
            model,
            config=CONFIG,
            jobs=2,
        )
    finally:
        model.close()
    rows = {row.task_id: row for row in result.reports}
    assert [rows[task.id].status for task in broken] == ["adapter_failure"] * 4
    for task_id in ("bench-001", "bench-002"):
        assert rows[task_id].status == "solved"
        assert rows[task_id].execution_match is True


def test_serial_benchmark_uses_one_http_connection(
    bench_tasks, canon, schemas, fixture_paths, keepalive_server
):
    answers = {
        "count every singer": lexeme_tokens(canon["count"]),
        "names from France": lexeme_tokens(canon["france"]),
        "no reference": lexeme_tokens(canon["count"]),
    }
    server = keepalive_server(_scripted_reply(answers))
    model = HttpCompletionModel(server.url)
    try:
        result = run_benchmark(
            [*bench_tasks[:2], bench_tasks[3]],
            schemas,
            fixture_paths.db_root,
            model,
            config=CONFIG,
        )
    finally:
        model.close()
    assert [row.status for row in result.reports] == ["solved"] * 3
    assert len(server.posted) > 3
    assert server.accepted == 1


def test_ablation_grid_covers_every_switch_combination():
    grid = ablation_grid()
    assert len(grid) == 16
    labels = [config_label(config) for config in grid]
    assert len(set(labels)) == 16
    assert labels[0] == "mode=multiple,pqc=on,repair=on,examples=on"
    assert labels[-1] == "mode=single,pqc=off,repair=off,examples=off"
    assert sum(config.pqc_enabled for config in grid) == 8
    assert {config.attempt_mode for config in grid} == {
        AttemptMode.MULTIPLE,
        AttemptMode.SINGLE,
    }


def test_config_label_reflects_flags():
    assert config_label(SearchConfig()) == "mode=multiple,pqc=on,repair=on,examples=on"
    flipped = SearchConfig(
        attempt_mode=AttemptMode.SINGLE, repair_enabled=False
    )
    assert config_label(flipped) == "mode=single,pqc=on,repair=off,examples=on"


def test_run_ablation_sixteen_runs(bench_tasks, schemas, fixture_paths, router):
    solvable = bench_tasks[:2]
    runs = run_ablation(
        solvable,
        schemas,
        fixture_paths.db_root,
        router,
        base_config=CONFIG,
    )
    assert [run.label for run in runs] == [
        config_label(config) for config in ablation_grid()
    ]
    assert all(run.total == 2 for run in runs)
    # The scripted routes emit the gold outright, so every switch
    # combination still solves both tasks.
    assert all(run.solved == 2 for run in runs)


def _timeless(report) -> dict:
    """A run's report without its wall-clock times."""
    data = report.as_dict()
    data["mean_elapsed_seconds"] = 0.0
    for task in data["tasks"]:
        task["elapsed_seconds"] = task["stats"]["elapsed_seconds"] = 0.0
    return data


def test_run_ablation_normalizes_and_runs_each_gold_once(
    bench_tasks, schemas, fixture_paths, router, monkeypatch
):
    """The grid grades every run against one normalized gold a task, run
    once: 2 normalizations, not 32, and 2 gold statements beside the 32
    found ones, not 32.  The reports equal a run_benchmark per
    configuration."""
    solvable = bench_tasks[:2]
    expected = [
        _timeless(
            run_benchmark(
                solvable, schemas, fixture_paths.db_root, router,
                config=config, label=config_label(config),
            )
        )
        for config in ablation_grid(CONFIG)
    ]
    calls = {"normalize": 0, "execute_query": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(bench, name, wrapper)

    counted("normalize", bench.normalize)
    counted("execute_query", bench.execute_query)
    runs = run_ablation(
        solvable, schemas, fixture_paths.db_root, router, base_config=CONFIG
    )
    assert calls == {"normalize": 2, "execute_query": 2 + 16 * 2}
    assert [_timeless(run) for run in runs] == expected


def test_checker_experiment_bookkeeping():
    experiment = CheckerExperiment()
    experiment.record(Label.CORRECT, Label.CORRECT)
    experiment.record(Label.SYNTAX_ERROR, Label.CORRECT)
    assert experiment.total == 2
    assert experiment.agreements == 1
    data = experiment.as_dict()
    assert data["total"] == 2
    assert data["agreement_rate"] == pytest.approx(0.5)
    assert data["matrix"]["Correct"]["Correct"] == 1
    assert data["matrix"]["SyntaxError"]["Correct"] == 1
    text = experiment.render_text()
    assert "generations labeled: 2" in text
    assert "rows: by execution, columns: by static checks" in text
    assert text.splitlines()[-1].startswith("SyntaxError")


def test_run_checker_experiment_agrees_on_gold(schemas, fixture_paths, router):
    task = _task("bench-001", "count every singer", "select count(*) from singer", [5])
    experiment = run_checker_experiment(
        [task], schemas, fixture_paths.db_root, router, per_task=1, config=CONFIG
    )
    assert experiment.total == 1
    assert experiment.agreements == 1
    assert experiment.matrix[Label.CORRECT][Label.CORRECT] == 1


class _RecordingModel:
    """Passes calls through to a model and keeps each task text shown."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.task_texts: list[str] = []

    def start_session(self, task_text):
        self.task_texts.append(task_text)
        return self.inner.start_session(task_text)

    def top_candidates(self, session, k):
        return self.inner.top_candidates(session, k)


def test_run_checker_experiment_hides_examples_when_asked(
    schemas, fixture_paths, router
):
    task = _task("bench-001", "count every singer", "select count(*) from singer", [5])
    config = dataclasses.replace(CONFIG, include_examples=False)
    model = _RecordingModel(router)
    experiment = run_checker_experiment(
        [task], schemas, fixture_paths.db_root, model, per_task=1, config=config
    )
    assert experiment.total == 1
    assert model.task_texts == [search_task_text(task, schemas["concerts"], config)]
    assert model.task_texts[0].endswith("---\nno examples")


@pytest.mark.parametrize("direction, matches", [("desc", True), ("asc", False)])
def test_bench_and_checker_exp_share_one_gold_rule(
    direction, matches, tasks, schemas, fixture_paths
):
    """Gold orders its rows, so both graders compare them in order: the
    same query sorted the other way matches neither grade."""
    [task] = [task for task in tasks if task.id == "concerts-020"]
    assert task.gold_query.endswith("order by count(*) desc")
    answer = task.gold_query.replace("desc", direction)
    model = ScriptedModel.from_queries(
        [(normalize(answer, schemas["concerts"]).render(), 0.9)]
    )
    [graded] = run_benchmark(
        [task], schemas, fixture_paths.db_root, model, config=CONFIG
    ).reports
    assert graded.solved and graded.execution_match is matches
    experiment = run_checker_experiment(
        [task], schemas, fixture_paths.db_root, model, per_task=1, config=CONFIG
    )
    truth = Label.CORRECT if matches else Label.EXAMPLE_ERROR
    assert experiment.total == sum(experiment.matrix[truth].values()) == 1


def _count_only_router(canon) -> ScriptedRouter:
    return ScriptedRouter(
        [("count every singer", ScriptedModel.from_queries([(canon["count"], 0.9)]))]
    )


def test_a_failing_task_does_not_sink_the_checker_experiment(
    schemas, fixture_paths, canon, bench_tasks
):
    """A router that serves only the first of three tasks: the matrix
    counts the first task's generation, and the other two are listed as
    failed, as ``run_benchmark`` grades them and goes on."""
    tasks, router = bench_tasks[:3], _count_only_router(canon)
    report = run_benchmark(tasks, schemas, fixture_paths.db_root, router, config=CONFIG)
    assert [row.status for row in report.reports] == [
        "solved", "adapter_failure", "adapter_failure"
    ]
    experiment = run_checker_experiment(
        tasks, schemas, fixture_paths.db_root, router, per_task=1, config=CONFIG
    )
    assert experiment.total == experiment.matrix[Label.CORRECT][Label.CORRECT] == 1
    error = "AdapterUnavailable: no scripted route matches the task text"
    assert experiment.failures == [("bench-002", error), ("bench-003", error)]
    assert experiment.as_dict()["failures"] == [
        {"task_id": "bench-002", "error": error},
        {"task_id": "bench-003", "error": error},
    ]
    assert experiment.render_text().splitlines()[-3:] == [
        "failed tasks: 2", f"  bench-002: {error}", f"  bench-003: {error}"
    ]


# -- CLI -------------------------------------------------------------------


def _write_json(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def _single_model_spec(tmp_path, query: str) -> str:
    return _write_json(
        tmp_path / "model.json", {"paths": [{"query": query, "weight": 0.9}]}
    )


def _router_spec(tmp_path, canon) -> str:
    return _write_json(
        tmp_path / "router.json",
        {
            "routes": [
                {
                    "match": "count every singer",
                    "paths": [{"query": canon["count"], "weight": 0.9}],
                },
                {
                    "match": "from France",
                    "paths": [{"query": canon["france"], "weight": 0.9}],
                },
            ]
        },
    )


def _dataset_file(tmp_path, records) -> str:
    return _write_json(tmp_path / "tasks.json", records)


COUNT_RECORD = {
    "id": "cli-001",
    "db_id": "concerts",
    "question": "count every singer",
    "query": "select count(*) from singer",
    "examples": [[5]],
}
FRANCE_RECORD = {
    "id": "cli-002",
    "db_id": "concerts",
    "question": "names from France",
    "query": "select name from singer where country = 'France'",
    "examples": [["Ali"]],
}


def test_cli_generate_prints_solution(tmp_path, capsys, fixture_paths, canon):
    spec = _single_model_spec(tmp_path, canon["count"])
    code = cli.main(
        [
            "generate",
            "--tables",
            str(fixture_paths.tables),
            "--db-root",
            str(fixture_paths.db_root),
            "--db-id",
            "concerts",
            "--question",
            "how many singers",
            "--example",
            "[5]",
            "--model",
            f"scripted:{spec}",
            "--k",
            "8",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "solved"
    assert payload["query"] == canon["count"]
    assert payload["rows"] == [[5]]
    assert payload["repaired"] is False
    assert payload["stats"]["nodes_expanded"] > 0


def test_cli_generate_sees_refined_column_types(tmp_path, capsys, fixture_paths, schemas):
    # The schema file declares pets.weight a number; only the stored
    # values show it is Real, and the router answers only that text.
    query = normalize(
        "select weight from pets where pettype = 'cat'", schemas["pets"]
    ).render()
    spec = _write_json(
        tmp_path / "router.json",
        {
            "routes": [
                {"match": "weight : Real", "paths": [{"query": query, "weight": 0.9}]}
            ]
        },
    )
    code = cli.main(
        [
            "generate",
            "--tables",
            str(fixture_paths.tables),
            "--db-root",
            str(fixture_paths.db_root),
            "--db-id",
            "pets",
            "--question",
            "how heavy is the cat",
            "--example",
            "[12.5]",
            "--model",
            f"scripted:{spec}",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "solved"
    assert payload["rows"] == [[12.5]]


def test_cli_generate_exits_1_when_the_model_server_is_unreachable(
    capsys, fixture_paths
):
    # A port that was bound and released refuses connections, so the
    # search ends in adapter_failure without any traffic leaving the host.
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    code = cli.main(
        [
            "generate",
            "--tables",
            str(fixture_paths.tables),
            "--db-root",
            str(fixture_paths.db_root),
            "--db-id",
            "concerts",
            "--question",
            "how many singers",
            "--example",
            "[5]",
            "--model",
            f"http://127.0.0.1:{port}",
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "adapter_failure"


def test_cli_generate_exits_1_on_a_malformed_scripted_spec(
    tmp_path, capsys, fixture_paths
):
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps({"paths": []}))
    code = cli.main(
        [
            "generate",
            "--tables",
            str(fixture_paths.tables),
            "--db-root",
            str(fixture_paths.db_root),
            "--db-id",
            "concerts",
            "--question",
            "how many singers",
            "--example",
            "[5]",
            "--model",
            f"scripted:{spec}",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("model adapter error: ")
    assert "Traceback" not in err


def test_cli_bench_exits_2_on_a_malformed_task_file(tmp_path, capsys, fixture_paths):
    tasks = tmp_path / "tasks.json"
    tasks.write_text(
        json.dumps([{"db_id": "concerts", "question": "?", "examples": ["Chris"]}])
    )
    code = cli.main(
        [
            "bench",
            "--tables",
            str(fixture_paths.tables),
            "--tasks",
            str(tasks),
            "--db-root",
            str(fixture_paths.db_root),
            "--model",
            f"scripted:{tmp_path / 'unused.json'}",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: record 0: ")
    assert "Traceback" not in err


def test_cli_bench_exits_1_when_the_model_server_is_unreachable(
    capsys, tmp_path, fixture_paths
):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    output = tmp_path / "report.json"
    code = cli.main(
        [
            "bench",
            "--tables",
            str(fixture_paths.tables),
            "--tasks",
            str(fixture_paths.tasks),
            "--db-root",
            str(fixture_paths.db_root),
            "--model",
            f"http://127.0.0.1:{port}",
            "--limit",
            "2",
            "--output",
            str(output),
        ]
    )
    assert code == 1
    # The report is still printed and written before the exit code.
    assert f"wrote {output}" in capsys.readouterr().out
    data = json.loads(output.read_text())
    assert [task["status"] for task in data["tasks"]] == ["adapter_failure"] * 2


def test_cli_generate_rejects_malformed_example(tmp_path, capsys, fixture_paths, canon):
    spec = _single_model_spec(tmp_path, canon["count"])
    code = cli.main(
        [
            "generate",
            "--tables",
            str(fixture_paths.tables),
            "--db-root",
            str(fixture_paths.db_root),
            "--db-id",
            "concerts",
            "--question",
            "how many singers",
            "--example",
            "not json",
            "--model",
            f"scripted:{spec}",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: example is not valid JSON")


@pytest.mark.parametrize("example", ["[]", "5", '"Ali"', '{"a": 1}'])
def test_cli_generate_rejects_an_example_that_is_not_a_non_empty_array(
    example, capsys, fixture_paths
):
    argv = [
        "generate", "--tables", str(fixture_paths.tables), "--db-root",
        str(fixture_paths.db_root), "--db-id", "concerts", "--question", "q",
        "--example", example, "--model", "scripted:m.json",
    ]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: example must be a non-empty JSON array\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--db-root", "db", "--question", "q", "--model", "m"],
        ["normalize", "--sql", "select 1"],
    ],
    ids=["generate", "normalize"],
)
def test_cli_rejects_an_unknown_db_id(argv, capsys, fixture_paths):
    tables = ["--tables", str(fixture_paths.tables), "--db-id", "nope"]
    assert cli.main([*argv, *tables]) == 2
    assert capsys.readouterr().err == "error: unknown database id 'nope'\n"


def test_cli_generate_rejects_a_nested_example_value(
    tmp_path, capsys, fixture_paths, canon
):
    spec = _single_model_spec(tmp_path, canon["count"])
    code = cli.main(
        [
            "generate",
            "--tables",
            str(fixture_paths.tables),
            "--db-root",
            str(fixture_paths.db_root),
            "--db-id",
            "concerts",
            "--question",
            "how many singers",
            "--example",
            "[[1, 2]]",
            "--model",
            f"scripted:{spec}",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: example value [1, 2]")
    assert "Traceback" not in err


def test_cli_generate_refuses_a_nan_example(tmp_path, capsys, fixture_paths, canon):
    spec = _single_model_spec(tmp_path, canon["count"])
    code = cli.main(
        [
            "generate",
            "--tables",
            str(fixture_paths.tables),
            "--db-root",
            str(fixture_paths.db_root),
            "--db-id",
            "concerts",
            "--question",
            "how many singers",
            "--example",
            "[NaN]",
            "--model",
            f"scripted:{spec}",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: example value nan is NaN")
    assert "Traceback" not in err


def test_cli_bench_writes_report(tmp_path, capsys, fixture_paths, canon):
    dataset = _dataset_file(tmp_path, [COUNT_RECORD, FRANCE_RECORD])
    output = tmp_path / "report.json"
    code = cli.main(
        [
            "bench",
            "--tables",
            str(fixture_paths.tables),
            "--tasks",
            dataset,
            "--db-root",
            str(fixture_paths.db_root),
            "--model",
            f"scripted:{_router_spec(tmp_path, canon)}",
            "--k",
            "8",
            "--output",
            str(output),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("run: benchmark\ntasks: 2\n")
    assert f"wrote {output}" in out
    data = json.loads(output.read_text())
    assert data["total"] == 2
    assert data["solved"] == 2
    assert len(data["tasks"]) == 2


def test_cli_bench_limit(tmp_path, capsys, fixture_paths, canon):
    dataset = _dataset_file(tmp_path, [COUNT_RECORD, FRANCE_RECORD])
    code = cli.main(
        [
            "bench",
            "--tables",
            str(fixture_paths.tables),
            "--tasks",
            dataset,
            "--db-root",
            str(fixture_paths.db_root),
            "--model",
            f"scripted:{_router_spec(tmp_path, canon)}",
            "--k",
            "8",
            "--limit",
            "1",
        ]
    )
    assert code == 0
    assert "tasks: 1\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("bench", "--k", "0"),
        ("bench", "--max-tokens", "0"),
        ("bench", "--limit", "-1"),
        ("checker-exp", "--per-task", "0"),
        ("bench", "--jobs", "0"),
        ("bench", "--jobs", "-1"),
        ("ablate", "--jobs", "0"),
        ("ablate", "--jobs", "-1"),
    ],
)
def test_cli_rejects_counts_out_of_range(command, flag, value, capsys):
    args = ["--tables", "t.json", "--tasks", "d.json", "--db-root", "db"]
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, *args, "--model", "scripted:m.json", flag, value])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be at least" in capsys.readouterr().err


_BENCH_ARGS = [
    "bench", "--tables", "t.json", "--tasks", "d.json", "--db-root", "db",
    "--model", "scripted:m.json",
]


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_cli_rejects_a_time_limit_that_is_not_positive_and_finite(value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*_BENCH_ARGS, "--time-limit", value])
    assert exit_info.value.code == 2
    assert "argument --time-limit: must be a positive finite number" in (
        capsys.readouterr().err
    )


def test_cli_accepts_a_fractional_time_limit():
    args = cli.build_parser().parse_args([*_BENCH_ARGS, "--time-limit", "2.5"])
    assert args.time_limit == 2.5


_DATASET_ARGS = ["--tables", "t.json", "--tasks", "d.json", "--db-root", "db"]
_GENERATE_ARGS = [
    "--tables", "t.json", "--db-root", "db", "--db-id", "concerts",
    "--question", "q",
]


@pytest.mark.parametrize(
    "command, flag",
    [
        ("ablate", "--mode single"),
        ("ablate", "--no-pqc"),
        ("ablate", "--no-repair"),
        ("ablate", "--no-examples"),
        ("checker-exp", "--mode single"),
        ("checker-exp", "--no-pqc"),
        ("checker-exp", "--no-repair"),
        ("generate", "--gold select"),
    ],
)
def test_cli_refuses_a_switch_its_command_ignores(command, flag, capsys):
    """``ablate`` sweeps the feature switches itself, ``checker-exp``
    collects generations with checks off and never repairs, and nothing
    that ``generate`` runs reads a gold query.  Each switch comes before
    ``--model``, which an abbreviated ``--mode`` must not stand for."""
    args = _GENERATE_ARGS if command == "generate" else _DATASET_ARGS
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, *flag.split(), *args, "--model", "scripted:m.json"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "args, message",
    [
        (["--sql", "select 1", "--tasks", "d.json", "--db-id", "concerts"],
         "argument --tasks: not allowed with argument --sql"),
        (["--sql", "select 1", "--db-id", "concerts", "--output", "{tmp}/o.json"],
         "error: --sql needs --db-id and takes no --output"),
        (["--tasks", "d.json", "--db-id", "concerts"],
         "error: --tasks takes no --db-id"),
        ([], "one of the arguments --tasks --sql is required"),
    ],
)
def test_cli_normalize_refuses_options_of_the_other_source(
    args, message, tmp_path, capsys, fixture_paths
):
    args = [arg.format(tmp=tmp_path) for arg in args]
    argv = ["normalize", "--tables", str(fixture_paths.tables), *args]
    assert _exit_code(argv) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, args, config",
    [
        (
            "generate",
            [*_GENERATE_ARGS, "--mode", "single", "--no-pqc", "--no-repair",
             "--no-examples"],
            SearchConfig(
                k=3, time_limit=2.0, max_tokens=9, attempt_mode=AttemptMode.SINGLE,
                pqc_enabled=False, repair_enabled=False, include_examples=False,
            ),
        ),
        (
            "bench",
            [*_DATASET_ARGS, "--no-repair"],
            SearchConfig(k=3, time_limit=2.0, max_tokens=9, repair_enabled=False),
        ),
        (
            "checker-exp",
            [*_DATASET_ARGS, "--no-examples"],
            SearchConfig(k=3, time_limit=2.0, max_tokens=9, include_examples=False),
        ),
        ("ablate", _DATASET_ARGS, SearchConfig(k=3, time_limit=2.0, max_tokens=9)),
    ],
)
def test_cli_builds_the_config_from_the_switches_its_search_reads(
    command, args, config
):
    argv = [command, *args, "--model", "m", "--k", "3", "--time-limit", "2"]
    parsed = cli.build_parser().parse_args([*argv, "--max-tokens", "9"])
    assert cli._build_config(parsed) == config


def test_cli_defaults_are_the_library_defaults():
    parsed = cli.build_parser().parse_args([*_BENCH_ARGS])
    assert cli._build_config(parsed) == SearchConfig()


def test_cli_settable_values_per_command():
    [commands] = [
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    settable = {
        name: sum(not isinstance(a, argparse._HelpAction) for a in parser._actions)
        for name, parser in commands.choices.items()
    }
    assert settable == {
        "generate": 13, "bench": 14, "ablate": 10, "normalize": 5, "checker-exp": 11
    }


def test_cli_normalize_single_statement(capsys, fixture_paths):
    code = cli.main(
        [
            "normalize",
            "--tables",
            str(fixture_paths.tables),
            "--db-id",
            "concerts",
            "--sql",
            "select name from singer where age > 30",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "SELECT singer.name\n"
        "FROM singer\n"
        "WHERE singer.age > 30\n"
        "GROUP BY\n"
        "HAVING\n"
        "ORDER BY\n"
        "LIMIT\n"
    )


def test_cli_normalize_reports_rejection(capsys, fixture_paths):
    code = cli.main(
        [
            "normalize",
            "--tables",
            str(fixture_paths.tables),
            "--db-id",
            "concerts",
            "--sql",
            "select t1.name from singer as t1, singer as t2 where t1.age > t2.age",
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("rejected: SelfJoinUnsupported")


def test_cli_normalize_requires_db_id_for_sql(capsys, fixture_paths):
    code = cli.main(
        ["normalize", "--tables", str(fixture_paths.tables), "--sql", "select 1"]
    )
    assert code == 2
    assert "needs --db-id" in capsys.readouterr().err


def test_cli_normalize_dataset(tmp_path, capsys, fixture_paths):
    self_join = dict(
        COUNT_RECORD,
        id="cli-003",
        query="select t1.name from singer as t1, singer as t2 where t1.age > t2.age",
    )
    dataset = _dataset_file(tmp_path, [COUNT_RECORD, self_join])
    output = tmp_path / "kept.json"
    code = cli.main(
        [
            "normalize",
            "--tables",
            str(fixture_paths.tables),
            "--tasks",
            dataset,
            "--output",
            str(output),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"wrote {output}\n" in out
    assert "normalized 1 tasks, rejected 1" in out
    assert "cli-003: SelfJoinUnsupported" in out
    kept = json.loads(output.read_text())
    assert len(kept) == 1
    assert kept[0]["query"].startswith("SELECT COUNT ( * )\nFROM singer\n")


def test_a_task_without_a_gold_query_is_kept_unchanged(
    tmp_path, capsys, fixture_paths, schemas
):
    """``query`` is optional in a task file: normalizing keeps a task
    without one as it is, in the library and on the command line."""
    no_query = {key: value for key, value in COUNT_RECORD.items() if key != "query"}
    no_query["id"] = "cli-004"
    dataset = _dataset_file(tmp_path, [COUNT_RECORD, no_query])
    tasks = load_tasks(dataset, schemas)
    kept, rejected = rewrite_dataset(tasks, schemas)
    assert rejected == [] and kept[1] == tasks[1]
    assert tasks[1].gold_query == ""
    output = tmp_path / "kept.json"
    code = cli.main(
        [
            "normalize",
            "--tables",
            str(fixture_paths.tables),
            "--tasks",
            dataset,
            "--output",
            str(output),
        ]
    )
    assert code == 0
    assert "normalized 2 tasks, rejected 0" in capsys.readouterr().out
    assert load_tasks(output, schemas)[1] == tasks[1]


def test_cli_checker_experiment(tmp_path, capsys, fixture_paths, canon):
    dataset = _dataset_file(tmp_path, [COUNT_RECORD])
    output = tmp_path / "matrix.json"
    code = cli.main(
        [
            "checker-exp",
            "--tables",
            str(fixture_paths.tables),
            "--tasks",
            dataset,
            "--db-root",
            str(fixture_paths.db_root),
            "--model",
            f"scripted:{_router_spec(tmp_path, canon)}",
            "--k",
            "8",
            "--per-task",
            "1",
            "--output",
            str(output),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("generations labeled: 1\n")
    data = json.loads(output.read_text())
    assert data["matrix"]["Correct"]["Correct"] == 1


def test_cli_checker_experiment_exits_1_when_a_task_fails(
    tmp_path, capsys, fixture_paths, canon
):
    """A router that serves only the first of three tasks."""
    paths = [{"query": canon["count"], "weight": 0.9}]
    spec = _write_json(
        tmp_path / "router.json",
        {"routes": [{"match": "count every singer", "paths": paths}]},
    )
    name_record = {**COUNT_RECORD, "id": "cli-003", "question": "every singer name"}
    dataset = _dataset_file(tmp_path, [COUNT_RECORD, FRANCE_RECORD, name_record])
    output = tmp_path / "matrix.json"
    code = cli.main(
        [
            "checker-exp",
            "--tables",
            str(fixture_paths.tables),
            "--tasks",
            dataset,
            "--db-root",
            str(fixture_paths.db_root),
            "--model",
            f"scripted:{spec}",
            "--per-task",
            "1",
            "--output",
            str(output),
        ]
    )
    assert code == 1
    assert "failed tasks: 2\n  cli-002: AdapterUnavailable" in capsys.readouterr().out
    data = json.loads(output.read_text())
    assert data["total"] == data["matrix"]["Correct"]["Correct"] == 1
    assert [row["task_id"] for row in data["failures"]] == ["cli-002", "cli-003"]


def test_cli_ablate(tmp_path, capsys, fixture_paths, canon):
    dataset = _dataset_file(tmp_path, [COUNT_RECORD])
    output = tmp_path / "runs.json"
    code = cli.main(
        [
            "ablate",
            "--tables",
            str(fixture_paths.tables),
            "--tasks",
            dataset,
            "--db-root",
            str(fixture_paths.db_root),
            "--model",
            f"scripted:{_router_spec(tmp_path, canon)}",
            "--k",
            "8",
            "--output",
            str(output),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 17
    assert lines[0].startswith("mode=multiple,pqc=on,repair=on,examples=on")
    assert "solved 1/1" in lines[0]
    assert len(json.loads(output.read_text())) == 16


def test_cli_rejects_unknown_model_scheme(tmp_path, capsys, fixture_paths):
    dataset = _dataset_file(tmp_path, [COUNT_RECORD])
    code = cli.main(
        [
            "bench",
            "--tables",
            str(fixture_paths.tables),
            "--tasks",
            dataset,
            "--db-root",
            str(fixture_paths.db_root),
            "--model",
            "magic:beans",
        ]
    )
    assert code == 2
    assert "unrecognized model spec" in capsys.readouterr().err


def test_cli_rejects_an_http_model_without_a_host(tmp_path, capsys, fixture_paths):
    dataset = _dataset_file(tmp_path, [COUNT_RECORD])
    code = cli.main(
        [
            "bench",
            "--tables",
            str(fixture_paths.tables),
            "--tasks",
            dataset,
            "--db-root",
            str(fixture_paths.db_root),
            "--model",
            "http://",
        ]
    )
    assert code == 2
    assert "bad model endpoint" in capsys.readouterr().err


def test_cli_rejects_missing_scripted_file(tmp_path, capsys, fixture_paths):
    dataset = _dataset_file(tmp_path, [COUNT_RECORD])
    code = cli.main(
        [
            "bench",
            "--tables",
            str(fixture_paths.tables),
            "--tasks",
            dataset,
            "--db-root",
            str(fixture_paths.db_root),
            "--model",
            f"scripted:{tmp_path / 'missing.json'}",
        ]
    )
    assert code == 2
    assert "scripted model file not found" in capsys.readouterr().err


def test_cli_rejects_missing_schema_file(tmp_path, capsys, fixture_paths):
    dataset = _dataset_file(tmp_path, [COUNT_RECORD])
    code = cli.main(
        [
            "bench",
            "--tables",
            str(tmp_path / "no-tables.json"),
            "--tasks",
            dataset,
            "--db-root",
            str(fixture_paths.db_root),
            "--model",
            "scripted:also-irrelevant.json",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
