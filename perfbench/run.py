"""The repository benchmark: closed-loop synthesis workloads, timed from
outside the program and graded independently of it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``fixture-noisy``  fixture schemas, noisy scripted model: the checker
  dominates.
* ``http-noisy``     the same tasks through ``HttpCompletionModel`` and a
  local stub server: model calls dominate.
* ``wide-repair``    60 x 20 synthetic schema, near-miss model: repair
  enumeration dominates.
* ``deep-repair``    8 x 8 schema with 5,000 rows per table, near-miss
  model: SQLite execution dominates.

A run generates its inputs from ``--seed`` in a child process, then runs
one measured pass in another (``measure.py``): set-up, then one client
that calls ``run_search`` on each task and waits for it before the next.
The number of tasks is fixed by the workload and ``--seconds`` (at least
200, so p95 has ten samples beyond it), so every count repeats exactly
for one seed.  With ``--trace 1`` a second, traced pass over the same
tasks gives the per-layer numbers, and the ratio of the two passes is the
tracing overhead.

Times are reported at a reference machine speed (see ``common.Probe``);
the raw wall-clock figures are printed beside them.  With tracing, the
layer self times must add up to the loop's run_search time within
``tracer.SELF_TIME_TOLERANCE``.

Every answer is re-executed with plain ``sqlite3``: a solved task must
return the example row, on the repair workloads it must have been
repaired, and its rows are compared with the gold query's rows.  Any
such violation makes the run incorrect and the exit code 1.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list
every metric by name and unit, ``fail_rate`` included (it is also
``failed / attempted``).  A run that cannot set up, such as one without
the program's sources, exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

from common import (
    HERE,
    PROBE_REFERENCE_S,
    ROOT,
    WORKLOADS,
    SetupError,
    at_reference_speed,
    executable,
    task_count,
    use_checkout,
)
from tracer import SELF_TIME_TOLERANCE

WORK_ROOT = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 170

# End-to-end metric -> unit.  Bounds are in BENCHMARK.json.
END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p95_ms": "ms",
    "exec_match_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_HTTP = "tasks_per_s, task_p50_ms on http-noisy"
_CHECK = "tasks_per_s on fixture-noisy"
_WIDE = "tasks_per_s, task_p95_ms on wide-repair"
_DEEP = "tasks_per_s on deep-repair"
_SETUP = "setup_s, most on fixture-noisy (3,000 gold queries a run)"

# Per-layer metric -> (unit, better, the end-to-end metric it should move).
PER_LAYER = {
    "lm.calls": ("count", "lower", _HTTP),
    "lm.s": ("s", "lower", _HTTP),
    "lm.ms_per_call": ("ms", "lower", _HTTP),
    "checker.search.calls": ("count", "lower", _CHECK),
    "checker.search.s": ("s", "lower", _CHECK),
    "checker.us_per_call": ("us", "lower", _CHECK),
    "checker.prune_ratio": ("ratio", "higher", "lm.calls and so tasks_per_s on http-noisy"),
    "checker.prefilter.calls": ("count", "lower", _WIDE),
    "checker.prefilter.s": ("s", "lower", _WIDE),
    "nsql.parse_partial.s": ("s", "lower", _CHECK),
    "nsql.parse_complete.calls": ("count", "lower", _CHECK),
    "nsql.parse_complete.s": ("s", "lower", _CHECK),
    "repair.s": ("s", "lower", "tasks_per_s on wide-repair and deep-repair"),
    "repair.variants_enumerated": ("count", "lower", "task_p95_ms on wide-repair, not deep-repair"),
    "repair.enumerate_s": ("s", "lower", "task_p95_ms on wide-repair, not deep-repair"),
    "repair.variants_prefiltered": ("count", "lower", _DEEP),
    "repair.variants_executed": ("count", "lower", _DEEP),
    "repair.execute.calls": ("count", "lower", _DEEP),
    "repair.execute.s": ("s", "lower", _DEEP),
    "repair.execute.rows": ("count", "lower", _DEEP),
    "repair.useful_ratio": ("ratio", "higher", _DEEP),
    "search.s": ("s", "lower", "the base of every layer share"),
    "search.nodes_expanded": ("count", "lower", _CHECK),
    "search.backtracks": ("count", "lower", _CHECK),
    "search.complete_tested": ("count", "lower", _CHECK),
    "search.self_s": ("s", "lower", _CHECK),
    "tasks.load_s": ("s", "lower", _SETUP),
    "tasks.refine_s": ("s", "lower", "setup_s on wide-repair (one sampling query a column)"),
    "nsql.normalize_s": ("s", "lower", _SETUP),
    "trace.overhead": ("x", "lower", "none: traced over untraced run_search time"),
}

# Spans whose self times partition run_search time, for the dominant
# layer line of the traced report.
LAYER_SPANS = (
    "search",
    "lm",
    "checker.search",
    "checker.prefilter",
    "nsql.parse_partial",
    "nsql.parse_complete",
    "repair",
    "repair.enumerate",
    "repair.execute",
)


class RunError(Exception):
    """A child process failed; the run prints no result."""


# -- Child processes -------------------------------------------------------------


def _child(args: list[str], work: Path) -> None:
    cmd = [sys.executable, str(HERE / args[0]), *args[1:]]
    done = subprocess.run(
        cmd, cwd=ROOT, env=_child_env(work), timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        raise RunError(f"{args[0]} failed ({done.returncode}):\n{done.stderr[-4000:]}")


def _child_env(work: Path) -> dict:
    env = dict(os.environ)
    # Keep SQLite's and Python's temporary files inside the checkout.
    env["SQLITE_TMPDIR"] = env["TMPDIR"] = str(work)
    env.pop("PYTHONPATH", None)
    return env


class Stub:
    """The local completion server, in its own process, for one run."""

    def __init__(self, models: Path, work: Path) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), str(models)],
            cwd=ROOT, env=_child_env(work), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        line = self.process.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            self.stop()
            raise RunError("stub server did not start")
        self.endpoint = f"http://127.0.0.1:{line[1]}/complete"

    def stop(self) -> None:
        try:
            self.process.stdin.close()
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def run_passes(workload_name: str, seed: int, tasks: int, trace: bool, work: Path) -> dict:
    workload = WORKLOADS[workload_name]
    _child(
        ["workloads.py", "--workload", workload_name, "--seed", str(seed),
         "--tasks", str(tasks), "--out", str(work)],
        work,
    )
    stub = Stub(work / "models.json", work) if workload.model == "http" else None
    passes = {}
    try:
        for traced in ((False, True) if trace else (False,)):
            out = work / f"pass-{int(traced)}.json"
            args = ["measure.py", "--work", str(work), "--trace", str(int(traced)),
                    "--out", str(out)]
            if stub is not None:
                args += ["--endpoint", stub.endpoint]
            _child(args, work)
            passes[traced] = json.loads(out.read_text())
    finally:
        if stub is not None:
            stub.stop()
    return passes


# -- Independent grading -------------------------------------------------------------


def grade(work: Path, workload_name: str, records: list[dict]) -> dict:
    """Check every answer with plain sqlite3, outside the program."""
    repair_workload = WORKLOADS[workload_name].inputs != "fixture"
    gold = {t["id"]: t for t in json.loads((work / "tasks.json").read_text())}
    failed = matched = 0
    violations: list[str] = []
    connections: dict[str, sqlite3.Connection] = {}
    try:
        for record in records:
            task = gold[record["id"]]
            if task["db_id"] not in connections:
                path = work / "db" / task["db_id"] / f"{task['db_id']}.sqlite"
                connections[task["db_id"]] = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
            conn = connections[task["db_id"]]
            if record["error"] is not None or record.get("status") != "solved":
                failed += 1
                continue
            try:
                rows = [tuple(r) for r in conn.execute(executable(record["query"]))]
            except sqlite3.Error as exc:
                rows = None
                violations.append(f"{record['id']}: answer does not run: {exc}")
            if rows is not None and not all(tuple(e) in set(rows) for e in task["examples"]):
                violations.append(f"{record['id']}: answer lacks an example row")
                rows = None
            if rows is None:
                failed += 1
                continue
            if repair_workload and not record.get("repaired"):
                violations.append(f"{record['id']}: solved without repair")
            gold_rows = [tuple(r) for r in conn.execute(task["query"])]
            matched += Counter(rows) == Counter(gold_rows)
    finally:
        for conn in connections.values():
            conn.close()
    return {"attempted": len(records), "failed": failed, "matched": matched,
            "violations": violations}


# -- Metrics -------------------------------------------------------------------------------


SETUP_PARTS = ("setup_s", "tasks.load_s", "tasks.refine_s", "nsql.normalize_s")


def pass_times(result: dict) -> dict:
    """A pass's task and set-up times, raw and at reference speed."""
    raw = [record["wall_s"] for record in result["tasks"]]
    walls = at_reference_speed(raw, [record["probe_s"] for record in result["tasks"]])
    setup = {
        key: statistics.median(
            rep[key] * PROBE_REFERENCE_S / rep["probe_s"] for rep in result["setup"]
        )
        for key in SETUP_PARTS
    }
    raw_setup = statistics.median(rep["setup_s"] for rep in result["setup"])
    probes = [record["probe_s"] for record in result["tasks"]]
    return {"walls": walls, "raw": raw, "setup": setup, "raw_setup_s": raw_setup,
            "factor": sum(walls) / sum(raw), "probe_s": statistics.median(probes)}


def latency(walls: list[float]) -> dict:
    return {
        "tasks_per_s": len(walls) / sum(walls),
        "task_p50_ms": 1000 * statistics.median(walls),
        "task_p95_ms": 1000 * statistics.quantiles(walls, n=100)[94],
    }


def end_to_end(result: dict, times: dict, graded: dict) -> dict:
    return {
        **latency(times["walls"]),
        "exec_match_rate": graded["matched"] / graded["attempted"],
        "setup_s": times["setup"]["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _ratio(numerator, denominator, scale=1.0):
    """``numerator / denominator``, 0 for an empty base, None if missing."""
    if numerator is None or denominator is None:
        return None
    return scale * numerator / denominator if denominator else 0.0


def per_layer(untraced: dict, traced: dict) -> dict:
    """Layer numbers of the traced pass; seconds at reference speed."""
    trace = traced["trace"]
    absent = set(trace["absent"])
    times = pass_times(traced)

    def read(table: str, name: str, entry: str | None = None):
        """``trace[table][name]``; None when its entry point is absent."""
        if (entry or name) in absent:
            return None
        value = trace[table].get(name, 0)
        return value * times["factor"] if table in ("total", "self") else value

    def stat(field: str):
        values = [record.get(field) for record in traced["tasks"]]
        return None if None in values else sum(values)

    checker = "checker.search"  # the one entry point behind both checker spans
    metrics = {
        "lm.calls": read("calls", "lm"),
        "lm.s": read("total", "lm"),
        "checker.search.calls": read("calls", checker),
        "checker.search.s": read("total", checker),
        "checker.prefilter.calls": read("calls", "checker.prefilter", checker),
        "checker.prefilter.s": read("total", "checker.prefilter", checker),
        "nsql.parse_partial.s": read("total", "nsql.parse_partial"),
        "nsql.parse_complete.calls": read("calls", "nsql.parse_complete"),
        "nsql.parse_complete.s": read("total", "nsql.parse_complete"),
        "repair.s": read("total", "repair"),
        "repair.variants_enumerated": read(
            "counts", "repair.variants_enumerated", "repair.enumerate"
        ),
        "repair.enumerate_s": read("total", "repair.enumerate"),
        "repair.variants_prefiltered": read("counts", "checker.prefilter.rejected", checker),
        "repair.variants_executed": read("counts", "repair.variants_executed", "repair.execute"),
        "repair.execute.calls": read("calls", "repair.execute"),
        "repair.execute.s": read("total", "repair.execute"),
        "repair.execute.rows": read("counts", "repair.execute.rows", "repair.execute"),
        "search.s": read("total", "search"),
        "search.nodes_expanded": stat("nodes_expanded"),
        "search.backtracks": stat("backtracks"),
        "search.complete_tested": stat("complete_tested"),
        "search.self_s": read("self", "search"),
        "tasks.load_s": times["setup"]["tasks.load_s"],
        "tasks.refine_s": times["setup"]["tasks.refine_s"],
        "nsql.normalize_s": times["setup"]["nsql.normalize_s"],
    }
    metrics["lm.ms_per_call"] = _ratio(metrics["lm.s"], metrics["lm.calls"], 1e3)
    metrics["checker.us_per_call"] = _ratio(
        metrics["checker.search.s"], metrics["checker.search.calls"], 1e6
    )
    metrics["checker.prune_ratio"] = _ratio(
        read("counts", "checker.search.rejected", checker), metrics["checker.search.calls"]
    )
    repaired = sum(bool(record.get("repaired")) for record in traced["tasks"])
    metrics["repair.useful_ratio"] = _ratio(repaired, metrics["repair.variants_executed"])
    metrics["trace.overhead"] = _ratio(sum(times["walls"]), sum(pass_times(untraced)["walls"]))
    return {name: metrics[name] for name in PER_LAYER}


def self_time_error(traced: dict) -> float:
    """Relative gap between the self times of all spans, which partition
    the traced run_search calls, and those calls' wall time as the
    measuring loop saw it."""
    loop = sum(record["wall_s"] for record in traced["tasks"])
    return abs(sum(traced["trace"]["self"].values()) - loop) / loop


def layer_shares(traced: dict) -> list[tuple[str, float]]:
    """Self time of each layer span as a share of run_search time,
    largest first."""
    trace = traced["trace"]
    search = trace["total"].get("search", 0.0) or 1.0
    shares = [(name, trace["self"].get(name, 0.0) / search) for name in LAYER_SPANS]
    return sorted(shares, key=lambda item: -item[1])


# -- Report -----------------------------------------------------------------------------


def _line(name: str, value, unit: str) -> str:
    shown = "missing" if value is None else f"{value:.6g}"
    return f"{name:<28} {shown:>14} {unit}"


def report(workload_name: str, seed: int, trace: bool, passes: dict, work: Path) -> tuple[dict, int]:
    graded = {traced: grade(work, workload_name, passes[traced]["tasks"]) for traced in passes}
    base = graded[False]
    violations = [v for g in graded.values() for v in g["violations"]]
    print(f"# workload {workload_name}, seed {seed}, {base['attempted']} tasks, "
          f"one closed-loop client{', traced' if trace else ''}")
    fail_rate = base["failed"] / base["attempted"]
    print(_line("fail_rate", fail_rate, "ratio"))
    times = pass_times(passes[False])
    e2e = end_to_end(passes[False], times, base)
    for name, unit in END_TO_END_UNITS.items():
        print(_line(name, e2e[name], unit))
    raw = latency(times["raw"])
    print(f"# times above are at reference speed; raw wall clock: "
          f"tasks_per_s {raw['tasks_per_s']:.6g}, task_p50_ms {raw['task_p50_ms']:.6g}, "
          f"task_p95_ms {raw['task_p95_ms']:.6g}, setup_s {times['raw_setup_s']:.6g}; "
          f"median probe {1e6 * times['probe_s']:.1f} us "
          f"(reference {1e6 * PROBE_REFERENCE_S:.0f} us)")
    if trace:
        traced = passes[True]
        layers = per_layer(passes[False], traced)
        for name, (unit, _, moves) in PER_LAYER.items():
            print(f"{_line(name, layers[name], unit):<52} -> {moves}")
        error = self_time_error(traced)
        print(f"# layer self times sum to the loop's run_search time within {error:.2%} "
              f"(tolerance {SELF_TIME_TOLERANCE:.0%})")
        if error > SELF_TIME_TOLERANCE:
            violations.append(f"layer self times off by {error:.2%} of run_search time")
        shares = ", ".join(f"{name} {share:.1%}" for name, share in layer_shares(traced))
        print(f"# self-time share of run_search: {shares}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _, _) in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for violation in violations[:20]:
        print(f"# INCORRECT {violation}")
    summary = {
        "correct": not violations,
        "attempted": base["attempted"],
        "failed": base["failed"],
        "metrics": metrics,
    }
    return summary, 0 if not violations else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tasks", type=int, help="override the task count (for tests)")
    args = parser.parse_args(argv)
    try:
        use_checkout()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    tasks = args.tasks or task_count(WORKLOADS[args.workload], args.seconds)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        passes = run_passes(args.workload, args.seed, tasks, bool(args.trace), work)
        summary, code = report(args.workload, args.seed, bool(args.trace), passes, work)
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
