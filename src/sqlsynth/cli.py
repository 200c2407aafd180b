"""Command-line front end.

Subcommands cover the main workflows: solve one task (``generate``),
score a dataset (``bench``), sweep the feature switches (``ablate``),
rewrite gold queries into canonical form (``normalize``), and compare
static labels against execution labels (``checker-exp``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

from .bench import (
    run_ablation,
    run_benchmark,
    run_checker_experiment,
)
from .lm import AdapterError, HttpCompletionModel, load_scripted_model
from .nsql.errors import SqlError
from .nsql.normalize import normalize, rewrite_dataset
from .search import AttemptMode, SearchConfig, SearchStatus, run_search
from .tasks import (
    DatabaseSchema,
    DatasetError,
    ExampleTuple,
    TaskInstance,
    dump_tasks,
    load_schemas,
    load_tasks,
    open_database,
    refine_schema,
)


class CliError(Exception):
    """Bad command-line input; maps to exit code 2."""


@contextmanager
def _model(spec: str) -> Iterator:
    """The model ``--model`` names; an HTTP model's connections close on exit."""
    if spec.startswith("scripted:"):
        path = Path(spec[len("scripted:") :])
        if not path.exists():
            raise CliError(f"scripted model file not found: {path}")
        yield load_scripted_model(path)
    elif spec.startswith(("http://", "https://")):
        token = os.environ.get("SQLSYNTH_HTTP_TOKEN")
        try:
            model = HttpCompletionModel(spec, auth_token=token)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        try:
            yield model
        finally:
            model.close()
    else:
        raise CliError(
            f"unrecognized model spec {spec!r}; use scripted:<path> or an http(s) URL"
        )


def _build_config(args: argparse.Namespace) -> SearchConfig:
    """The search config from this command's options; an option the
    command lacks or leaves unset keeps its ``SearchConfig`` default."""
    fields = {field.name for field in dataclasses.fields(SearchConfig)}
    options = {name: value for name, value in vars(args).items() if value is not None}
    return SearchConfig(**{name: options[name] for name in fields & options.keys()})


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def integer(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return int(text)

    return integer


def _positive_seconds(text: str) -> float:
    """An argparse type: a finite number of seconds above zero."""
    seconds = float(text)
    if not (math.isfinite(seconds) and seconds > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text}"
        )
    return seconds


def _add_search_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, help="scripted:<path> or http(s) URL")
    parser.add_argument("--k", type=_at_least(1), help="continuations per expansion")
    parser.add_argument("--time-limit", type=_positive_seconds, help="seconds per task")
    parser.add_argument("--max-tokens", type=_at_least(1))


def _add_dataset_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tables", required=True, help="schema file (tables.json)")
    parser.add_argument("--tasks", required=True, help="task dataset file")
    parser.add_argument("--db-root", required=True, help="directory of SQLite files")
    parser.add_argument("--limit", type=_at_least(0), help="use only the first N tasks")


def _refine_schemas(
    schemas: dict[str, DatabaseSchema], db_root: str, db_ids: Iterable[str]
) -> None:
    """Widen the named schemas from their databases (``refine_schema``),
    so the CLI searches with the column types the library uses."""
    for db_id in set(db_ids):
        schemas[db_id] = refine_schema(open_database(db_root, db_id), schemas[db_id])


def _load_dataset(args: argparse.Namespace):
    schemas = load_schemas(args.tables)
    tasks = load_tasks(args.tasks, schemas)
    if args.limit is not None:
        tasks = tasks[: args.limit]
    _refine_schemas(schemas, args.db_root, (task.db_id for task in tasks))
    return schemas, tasks


def _write_output(path: str | None, payload: object) -> None:
    """Write ``payload`` as indented JSON to ``--output``, if one was given."""
    if path:
        Path(path).write_text(json.dumps(payload, indent=2))
        print(f"wrote {path}")


def _parse_example(raw: str) -> ExampleTuple:
    try:
        values = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliError(f"example is not valid JSON: {exc}") from None
    if not isinstance(values, list) or not values:
        raise CliError("example must be a non-empty JSON array")
    return ExampleTuple.from_values(values)


def _cmd_generate(args: argparse.Namespace) -> int:
    schemas = load_schemas(args.tables)
    if args.db_id not in schemas:
        raise CliError(f"unknown database id {args.db_id!r}")
    _refine_schemas(schemas, args.db_root, [args.db_id])
    examples = frozenset(_parse_example(raw) for raw in args.example or [])
    task = TaskInstance(
        id=f"{args.db_id}-cli",
        db_id=args.db_id,
        question=args.question,
        examples=examples,
    )
    db = open_database(args.db_root, args.db_id)
    with _model(args.model) as model:
        result = run_search(
            task, schemas[args.db_id], db, model, config=_build_config(args)
        )
    payload = {
        "status": result.status.value,
        "query": result.query_text,
        "repaired": result.repaired,
        "rows": [list(row) for row in result.execution.rows]
        if result.execution is not None and result.execution.ok
        else None,
        "stats": result.stats.as_dict(),
    }
    print(json.dumps(payload, indent=2))
    # run_search reports model adapter errors as a status, not an exception.
    return 1 if result.status is SearchStatus.ADAPTER_FAILURE else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    schemas, tasks = _load_dataset(args)
    with _model(args.model) as model:
        report = run_benchmark(
            tasks,
            schemas,
            args.db_root,
            model,
            config=_build_config(args),
            jobs=args.jobs,
        )
    print(report.render_text())
    _write_output(args.output, report.as_dict())
    failed = SearchStatus.ADAPTER_FAILURE.value
    return 1 if any(task.status == failed for task in report.reports) else 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    schemas, tasks = _load_dataset(args)
    with _model(args.model) as model:
        runs = run_ablation(
            tasks,
            schemas,
            args.db_root,
            model,
            base_config=_build_config(args),
            jobs=args.jobs,
        )
    width = max(len(run.label) for run in runs)
    for run in runs:
        print(
            f"{run.label:<{width}}  solved {run.solved}/{run.total}  "
            f"exec {run.execution_matches}/{run.total}  "
            f"exact {run.exact_matches}/{run.total}"
        )
    _write_output(args.output, [run.as_dict() for run in runs])
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    schemas = load_schemas(args.tables)
    if args.sql is not None:
        if args.output or not args.db_id:
            raise CliError("--sql needs --db-id and takes no --output")
        if args.db_id not in schemas:
            raise CliError(f"unknown database id {args.db_id!r}")
        try:
            print(normalize(args.sql, schemas[args.db_id]).render(), end="")
        except SqlError as exc:
            print(f"rejected: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        return 0
    if args.db_id:
        raise CliError("--tasks takes no --db-id")
    tasks = load_tasks(args.tasks, schemas)
    kept, rejected = rewrite_dataset(tasks, schemas)
    _write_output(args.output, dump_tasks(kept))
    print(f"normalized {len(kept)} tasks, rejected {len(rejected)}")
    for task, reason in rejected:
        print(f"  {task.id}: {reason}")
    return 0


def _cmd_checker_exp(args: argparse.Namespace) -> int:
    schemas, tasks = _load_dataset(args)
    with _model(args.model) as model:
        experiment = run_checker_experiment(
            tasks,
            schemas,
            args.db_root,
            model,
            per_task=args.per_task,
            config=_build_config(args),
        )
    print(experiment.render_text())
    _write_output(args.output, experiment.as_dict())
    return 1 if experiment.failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqlsynth",
        description="Search-based SQL synthesis from questions and example rows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="solve a single task")
    generate.add_argument("--tables", required=True)
    generate.add_argument("--db-root", required=True)
    generate.add_argument("--db-id", required=True)
    generate.add_argument("--question", required=True)
    generate.add_argument(
        "--example",
        action="append",
        help="expected output row as a JSON array; repeatable",
    )
    _add_search_options(generate)
    generate.set_defaults(func=_cmd_generate)

    bench = sub.add_parser("bench", help="run a dataset and report accuracy")
    _add_dataset_options(bench)
    _add_search_options(bench)
    bench.add_argument("--jobs", type=_at_least(1), default=1)
    bench.add_argument("--output", help="write the full JSON report here")
    bench.set_defaults(func=_cmd_bench)

    ablate = sub.add_parser("ablate", help="sweep the feature switches")
    _add_dataset_options(ablate)
    _add_search_options(ablate)
    ablate.add_argument("--jobs", type=_at_least(1), default=1)
    ablate.add_argument("--output", help="write all run reports as JSON")
    ablate.set_defaults(func=_cmd_ablate)

    norm = sub.add_parser("normalize", help="rewrite queries into canonical form")
    norm.add_argument("--tables", required=True)
    source = norm.add_mutually_exclusive_group(required=True)
    source.add_argument("--tasks", help="dataset whose gold queries to rewrite")
    source.add_argument("--sql", help="normalize one statement instead")
    norm.add_argument("--output", help="write the rewritten dataset here")
    norm.add_argument("--db-id", help="database for --sql")
    norm.set_defaults(func=_cmd_normalize)

    exp = sub.add_parser(
        "checker-exp", help="compare static labels with execution labels"
    )
    _add_dataset_options(exp)
    _add_search_options(exp)
    exp.add_argument("--per-task", type=_at_least(1), default=4)
    exp.add_argument("--output", help="write the matrix as JSON")
    exp.set_defaults(func=_cmd_checker_exp)

    # ablate sweeps these switches itself; checker-exp never checks or repairs.
    for command in (generate, bench):
        command.add_argument(
            "--mode", dest="attempt_mode", type=AttemptMode, help="single or multiple"
        )
        command.add_argument(
            "--no-pqc",
            dest="pqc_enabled",
            action="store_false",
            help="disable static pruning",
        )
        command.add_argument(
            "--no-repair",
            dest="repair_enabled",
            action="store_false",
            help="disable repair",
        )
    for command in (generate, bench, exp):
        command.add_argument(
            "--no-examples",
            dest="include_examples",
            action="store_false",
            help="hide example tuples from the model",
        )
    for command in sub.choices.values():
        command.allow_abbrev = False  # or ablate would read --mode as --model
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, DatasetError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AdapterError as exc:
        print(f"model adapter error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
