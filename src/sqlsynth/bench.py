"""Batch evaluation: benchmark runs, ablations, and checker comparison.

A benchmark run drives the search once per task and grades the result
two ways: execution accuracy (the found query's rows match the gold
query's rows, in order when gold has ORDER BY) and exact match
(identical canonical structure).  The ablation driver repeats a run
over every combination of the four feature switches.  The checker
comparison collects finished generations with checks disabled and
labels each one twice, statically and by execution, to measure how
often the static verdict agrees.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .checker import Label, predict_label
from .nsql.errors import SqlError
from .nsql.normalize import normalize
from .nsql.query import NormalizedQuery, exact_match
from .repair import (
    ExecutionResult,
    execute_query,
    label_by_execution,
    matches_gold,
)
from .search import (
    AttemptMode,
    CompletionModel,
    SearchConfig,
    SearchStatus,
    collect_complete,
    run_search,
    search_task_text,
)
from .tasks import DatabaseSchema, TaskDatabase, TaskInstance, open_database

GRADE_TIMEOUT = 5.0  # seconds a gold or found query may run while grading


@dataclass(frozen=True)
class TaskReport:
    task_id: str
    db_id: str
    status: str
    solved: bool = False
    execution_match: bool | None = None
    exact: bool | None = None
    repaired: bool = False
    query_text: str | None = None
    elapsed_seconds: float = 0.0
    stats: Mapping[str, object] = field(default_factory=dict)
    note: str = ""

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _rate(hits: int, total: int) -> str:
    if total == 0:
        return "n/a"
    return f"{hits / total:.3f}"


@dataclass
class BenchmarkReport:
    label: str
    reports: list[TaskReport] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.reports)

    @property
    def solved(self) -> int:
        return sum(report.solved for report in self.reports)

    @property
    def execution_matches(self) -> int:
        return sum(bool(report.execution_match) for report in self.reports)

    @property
    def exact_matches(self) -> int:
        return sum(bool(report.exact) for report in self.reports)

    def mean_stat(self, key: str) -> float | None:
        values = [
            report.stats[key]
            for report in self.reports
            if isinstance(report.stats.get(key), (int, float))
        ]
        if not values:
            return None
        return sum(values) / len(values)

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "total": self.total,
            "solved": self.solved,
            "execution_matches": self.execution_matches,
            "exact_matches": self.exact_matches,
            "mean_nodes_expanded": self.mean_stat("nodes_expanded"),
            "mean_elapsed_seconds": self.mean_stat("elapsed_seconds"),
            "tasks": [report.as_dict() for report in self.reports],
        }

    def render_text(self) -> str:
        lines = [
            f"run: {self.label}",
            f"tasks: {self.total}",
            f"solved: {self.solved} ({_rate(self.solved, self.total)})",
            "execution accuracy: "
            f"{self.execution_matches} ({_rate(self.execution_matches, self.total)})",
            f"exact match: {self.exact_matches} ({_rate(self.exact_matches, self.total)})",
        ]
        mean_nodes = self.mean_stat("nodes_expanded")
        if mean_nodes is not None:
            lines.append(f"mean nodes expanded: {mean_nodes:.1f}")
        header = f"{'task':<24} {'status':<16} {'exec':<5} {'exact':<5} note"
        lines.append(header)
        lines.append("-" * len(header))
        for report in self.reports:
            lines.append(
                f"{report.task_id:<24} {report.status:<16} "
                f"{_flag(report.execution_match):<5} {_flag(report.exact):<5} "
                f"{report.note}"
            )
        return "\n".join(lines)


def _flag(value: bool | None) -> str:
    if value is None:
        return "n/a"
    return "yes" if value else "no"


def _open_databases(
    tasks: Sequence[TaskInstance], db_root: Path | str
) -> dict[str, TaskDatabase]:
    """One ``TaskDatabase`` per database the tasks name, for a whole run."""
    return {
        db_id: open_database(db_root, db_id)
        for db_id in dict.fromkeys(task.db_id for task in tasks)
    }


def _normalized_gold(
    task: TaskInstance, schema: DatabaseSchema
) -> tuple[NormalizedQuery | None, str]:
    """The task's gold query in canonical form, or None and why not."""
    if not task.gold_query:
        return None, "no gold query"
    try:
        return normalize(task.gold_query, schema), ""
    except SqlError as exc:
        return None, f"gold not normalizable: {exc}"


@dataclass
class _Gold:
    """A task's gold query in canonical form, or None and why not, and
    its result once a search has solved the task.  An ablation grades
    every run against one ``_Gold`` a task, so each gold is normalized
    once and run at most once for the whole grid."""

    query: NormalizedQuery | None
    note: str
    result: ExecutionResult | None = None


def _golds(
    tasks: Sequence[TaskInstance], schemas: Mapping[str, DatabaseSchema]
) -> list[_Gold]:
    return [_Gold(*_normalized_gold(task, schemas[task.db_id])) for task in tasks]


def _grade_task(
    task: TaskInstance,
    gold: _Gold,
    schema: DatabaseSchema,
    db: TaskDatabase,
    model: CompletionModel,
    config: SearchConfig,
) -> TaskReport:
    started = time.monotonic()
    try:
        result = run_search(task, schema, db, model, config=config)
    except Exception as exc:  # a task failure must not sink the batch
        return TaskReport(
            task_id=task.id,
            db_id=task.db_id,
            status="error",
            elapsed_seconds=time.monotonic() - started,
            note=f"{type(exc).__name__}: {exc}",
        )
    solved = result.status is SearchStatus.SOLVED
    execution = exact = None if gold.query is None else False
    if gold.query is not None and solved and result.query is not None:
        conn = db.connection()
        if gold.result is None:
            gold.result = execute_query(conn, gold.query, timeout=GRADE_TIMEOUT)
        found = execute_query(conn, result.query, timeout=GRADE_TIMEOUT)
        execution = matches_gold(found, gold.query, gold.result)
        exact = exact_match(result.query, gold.query)
    return TaskReport(
        task_id=task.id,
        db_id=task.db_id,
        status=result.status.value,
        solved=solved,
        execution_match=execution,
        exact=exact,
        repaired=result.repaired,
        query_text=result.query_text,
        elapsed_seconds=result.stats.elapsed_seconds,
        stats=result.stats.as_dict(),
        note=gold.note,
    )


def run_benchmark(
    tasks: Sequence[TaskInstance],
    schemas: Mapping[str, DatabaseSchema],
    db_root: Path | str,
    model: CompletionModel,
    *,
    config: SearchConfig | None = None,
    jobs: int = 1,
    label: str = "benchmark",
) -> BenchmarkReport:
    """Search every task and grade the answers against gold queries.

    Each database is opened once for the run, and every search and
    grading query on one thread borrows that thread's connection to it.
    With ``jobs`` above one, tasks run on a thread pool of at most one
    worker per task, and each worker thread opens its own connection, so
    SQLite stays on one thread.  An exception that reaches the pool, an
    interrupt included, cancels the tasks not yet started; the serial
    path lets an interrupt stop the running search at once.
    """
    return _run_benchmark(
        tasks, _golds(tasks, schemas), schemas, db_root, model,
        config or SearchConfig(), jobs, label,
    )


def _run_benchmark(
    tasks: Sequence[TaskInstance],
    golds: Sequence[_Gold],
    schemas: Mapping[str, DatabaseSchema],
    db_root: Path | str,
    model: CompletionModel,
    config: SearchConfig,
    jobs: int,
    label: str,
) -> BenchmarkReport:
    """``run_benchmark``, grading each task against its entry of
    ``golds``."""
    report = BenchmarkReport(label=label)
    dbs = _open_databases(tasks, db_root)
    workers = min(jobs, len(tasks))
    if workers <= 1:
        for task, gold in zip(tasks, golds):
            report.reports.append(
                _grade_task(
                    task, gold, schemas[task.db_id], dbs[task.db_id], model, config
                )
            )
        return report
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            futures = [
                pool.submit(
                    _grade_task,
                    task, gold, schemas[task.db_id], dbs[task.db_id], model, config,
                )
                for task, gold in zip(tasks, golds)
            ]
            report.reports.extend(future.result() for future in futures)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return report


def ablation_grid(base: SearchConfig | None = None) -> list[SearchConfig]:
    """Every combination of the four feature switches, over ``base``."""
    configs = []
    for mode in (AttemptMode.MULTIPLE, AttemptMode.SINGLE):
        for pqc in (True, False):
            for repair in (True, False):
                for examples in (True, False):
                    configs.append(
                        dataclasses.replace(
                            base or SearchConfig(),
                            attempt_mode=mode,
                            pqc_enabled=pqc,
                            repair_enabled=repair,
                            include_examples=examples,
                        )
                    )
    return configs


def config_label(config: SearchConfig) -> str:
    def onoff(flag: bool) -> str:
        return "on" if flag else "off"

    return (
        f"mode={config.attempt_mode.value},pqc={onoff(config.pqc_enabled)},"
        f"repair={onoff(config.repair_enabled)},"
        f"examples={onoff(config.include_examples)}"
    )


def run_ablation(
    tasks: Sequence[TaskInstance],
    schemas: Mapping[str, DatabaseSchema],
    db_root: Path | str,
    model: CompletionModel,
    *,
    base_config: SearchConfig | None = None,
    jobs: int = 1,
) -> list[BenchmarkReport]:
    """``run_benchmark`` under each configuration of ``ablation_grid``.
    Every run grades against the same normalized gold queries, and a
    gold's result, once run, serves every later run."""
    golds = _golds(tasks, schemas)
    return [
        _run_benchmark(
            tasks, golds, schemas, db_root, model, config, jobs, config_label(config)
        )
        for config in ablation_grid(base_config)
    ]


# -- Checker comparison ----------------------------------------------------


@dataclass
class CheckerExperiment:
    """Executed-vs-predicted label counts over collected generations,
    and each task that failed, as its id and ``Type: message``."""

    matrix: dict[Label, dict[Label, int]] = field(
        default_factory=lambda: {
            truth: {predicted: 0 for predicted in Label}
            for truth in Label
        }
    )
    failures: list[tuple[str, str]] = field(default_factory=list)

    def record(self, truth: Label, predicted: Label) -> None:
        self.matrix[truth][predicted] += 1

    @property
    def total(self) -> int:
        return sum(sum(row.values()) for row in self.matrix.values())

    @property
    def agreements(self) -> int:
        return sum(self.matrix[label][label] for label in Label)

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "agreements": self.agreements,
            "agreement_rate": (
                self.agreements / self.total if self.total else None
            ),
            "matrix": {
                truth.value: {
                    predicted.value: self.matrix[truth][predicted]
                    for predicted in Label
                }
                for truth in Label
            },
            "failures": [
                {"task_id": task_id, "error": error}
                for task_id, error in self.failures
            ],
        }

    def render_text(self) -> str:
        width = max(len(label.value) for label in Label) + 2
        lines = [
            f"generations labeled: {self.total}",
            f"agreement: {self.agreements} ({_rate(self.agreements, self.total)})",
            "rows: by execution, columns: by static checks",
            " " * width
            + "".join(f"{label.value:>{width}}" for label in Label),
        ]
        for truth in Label:
            cells = "".join(
                f"{self.matrix[truth][predicted]:>{width}}"
                for predicted in Label
            )
            lines.append(f"{truth.value:<{width}}" + cells)
        if self.failures:
            lines.append(f"failed tasks: {len(self.failures)}")
            lines.extend(f"  {task_id}: {error}" for task_id, error in self.failures)
        return "\n".join(lines)


def _generation_labels(
    task: TaskInstance,
    schema: DatabaseSchema,
    db: TaskDatabase,
    model: CompletionModel,
    per_task: int,
    config: SearchConfig,
) -> list[tuple[Label, Label]]:
    """The execution and static labels of each of the task's top
    ``per_task`` finished generations."""
    examples = tuple(task.sorted_examples())
    example = examples[0] if examples else None
    task_text = search_task_text(task, schema, config)
    texts = collect_complete(task_text, model, per_task, config)
    conn = db.connection()
    gold_query, _ = _normalized_gold(task, schema)
    gold = None
    if gold_query is not None and texts:
        gold = (gold_query, execute_query(conn, gold_query, timeout=GRADE_TIMEOUT))
    return [
        (
            label_by_execution(text, conn, gold=gold, examples=examples),
            predict_label(text, schema, example),
        )
        for text in texts
    ]


def run_checker_experiment(
    tasks: Sequence[TaskInstance],
    schemas: Mapping[str, DatabaseSchema],
    db_root: Path | str,
    model: CompletionModel,
    *,
    per_task: int = 4,
    config: SearchConfig | None = None,
) -> CheckerExperiment:
    """Label the top finished generations statically and by execution.

    ``collect_complete`` gathers the generations with checks off, so the
    static checker is judged on raw model output.  Ground truth for
    result mismatches comes from each task's gold query, compared by
    ``matches_gold`` as the benchmark's execution accuracy is.  A task
    that raises records none of its generations, and is listed in
    ``failures`` instead.
    """
    config = config or SearchConfig()
    experiment = CheckerExperiment()
    dbs = _open_databases(tasks, db_root)
    for task in tasks:
        schema, db = schemas[task.db_id], dbs[task.db_id]
        try:
            labels = _generation_labels(task, schema, db, model, per_task, config)
        except Exception as exc:  # a task failure must not sink the batch
            experiment.failures.append((task.id, f"{type(exc).__name__}: {exc}"))
            continue
        for truth, predicted in labels:
            experiment.record(truth, predicted)
    return experiment
