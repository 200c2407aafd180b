"""One measured pass: set up, then run every task through ``run_search``.

    python3 perfbench/measure.py --work DIR --trace 0|1 [--endpoint URL] --out FILE

It is a closed loop with one client: each ``run_search`` call starts
after the previous one returned.  Set-up (loading, refining, normalizing
and model construction) is repeated; each repetition and each task is
recorded with a machine-speed probe taken just before it.  With
``--trace 1`` the program's entry points are wrapped by :mod:`tracer`
after set-up.  The pass writes its raw observations to ``FILE``; grading
happens in the parent, ``run.py``.  Each pass runs in a fresh
interpreter, so a traced pass cannot leave wrappers or warm caches
behind for an untraced one.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from common import K, TIME_LIMIT_S, Probe, use_checkout

use_checkout()

from sqlsynth import (  # noqa: E402
    HttpCompletionModel,
    ScriptedModel,
    SearchConfig,
    load_schemas,
    load_tasks,
    open_database,
    refine_schema,
    run_search,
)
from sqlsynth.lm import DistractorSpec  # noqa: E402
from sqlsynth.nsql import rewrite_dataset  # noqa: E402

from tracer import Tracer  # noqa: E402

# Set-up is repeated at least SETUP_MIN_REPS times and until it has
# taken SETUP_BUDGET_S, so that a set-up of a few milliseconds is still
# reported as a median of many samples.
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 100
SETUP_BUDGET_S = 1.5
PROBES_PER_SETUP = 5


def build_models(spec_path: Path, endpoint: str | None) -> dict | HttpCompletionModel:
    if endpoint is not None:
        return HttpCompletionModel(endpoint)
    models = {}
    for question, entry in json.loads(spec_path.read_text()).items():
        noise = entry["distractor"]
        distractor = DistractorSpec(noise["surface"], noise["mass"]) if noise else None
        models[question] = ScriptedModel.from_queries(
            [(text, weight) for text, weight in entry["queries"]], distractor
        )
    return models


def setup(work: Path, endpoint: str | None) -> tuple[dict, tuple]:
    """Everything a user pays for before the first search."""
    t0 = perf_counter()
    raw = load_schemas(work / "tables.json")
    t1 = perf_counter()
    dbs = {db_id: open_database(work / "db", db_id) for db_id in raw}
    schemas = {db_id: refine_schema(dbs[db_id], schema) for db_id, schema in raw.items()}
    t2 = perf_counter()
    tasks = load_tasks(work / "tasks.json", schemas)
    t3 = perf_counter()
    tasks, rejected = rewrite_dataset(tasks, schemas)
    t4 = perf_counter()
    models = build_models(work / "models.json", endpoint)
    t5 = perf_counter()
    if rejected:
        raise RuntimeError(f"normalizer rejected {len(rejected)} gold queries")
    parts = {
        "setup_s": t5 - t0,
        "tasks.load_s": (t1 - t0) + (t3 - t2),
        "tasks.refine_s": t2 - t1,
        "nsql.normalize_s": t4 - t3,
    }
    return parts, (schemas, dbs, tasks, models)


def run_pass(work: Path, trace: bool, endpoint: str | None) -> dict:
    probe = Probe()
    timings: list[dict] = []
    while len(timings) < SETUP_MIN_REPS or (
        sum(t["setup_s"] for t in timings) < SETUP_BUDGET_S and len(timings) < SETUP_MAX_REPS
    ):
        state = None  # drop the previous repetition before building the next
        speed = statistics.median(probe() for _ in range(PROBES_PER_SETUP))
        parts, state = setup(work, endpoint)
        timings.append({**parts, "probe_s": speed})
    schemas, dbs, tasks, models = state
    config = SearchConfig(k=K, time_limit=TIME_LIMIT_S)

    tracer = Tracer() if trace else None
    search = run_search
    if tracer is not None:
        tracer.install()
        for model in models.values() if isinstance(models, dict) else [models]:
            tracer.wrap_model(model)
        search = tracer.wrap("search", run_search)

    records = []
    for task in tasks:
        model = models[task.question] if isinstance(models, dict) else models
        error = None
        speed = probe()
        started = perf_counter()
        try:
            result = search(task, schemas[task.db_id], dbs[task.db_id], model, config=config)
        except Exception as exc:  # a failing task is graded, not fatal
            result = None
            error = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - started
        record = {"id": task.id, "wall_s": wall, "probe_s": speed, "error": error}
        if result is not None:
            stats = result.stats
            record.update(
                status=result.status.value,
                query=result.query_text,
                repaired=result.repaired,
                nodes_expanded=getattr(stats, "nodes_expanded", None),
                backtracks=getattr(stats, "backtracks", None),
                complete_tested=getattr(stats, "complete_queries_tested", None),
            )
        records.append(record)

    out = {
        "setup": timings,
        "tasks": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    probe.close()
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.snapshot()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one measured pass.")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--endpoint")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    result = run_pass(args.work, bool(args.trace), args.endpoint)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
