"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench

They run every workload end to end, check that every metric named in
``BENCHMARK.json`` is reported, that counts repeat exactly for one seed,
and that grading and tracing catch what they must catch.
"""

from __future__ import annotations

import json
import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import common
import run
import tracer

TINY = 12
SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
COUNTS = (
    "lm.calls",
    "checker.search.calls",
    "checker.prefilter.calls",
    "nsql.parse_complete.calls",
    "repair.variants_enumerated",
    "repair.variants_prefiltered",
    "repair.variants_executed",
    "repair.execute.calls",
    "repair.execute.rows",
    "search.nodes_expanded",
    "search.backtracks",
    "search.complete_tested",
)


def bench(workload: str, trace: int, seed: int = 7, cwd: Path = common.ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tasks", str(TINY)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs() -> dict:
    return {w: result_of(bench(w, 1)) for w in common.WORKLOADS}


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(common.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in run.PER_LAYER.items()
    }
    for entry in SPEC["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


@pytest.mark.parametrize("workload", list(common.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    done = bench(workload, 0)
    result = result_of(done)
    assert result["correct"] is True
    assert result["attempted"] == TINY and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END_UNITS[name]
        assert metric["value"] > 0, name
    assert "fail_rate" in done.stdout


def test_traced_run_reports_every_layer_metric(traced_runs):
    for workload, result in traced_runs.items():
        assert result["correct"] is True, workload
        assert set(result["metrics"]) == set(run.PER_LAYER), workload
        for name, metric in result["metrics"].items():
            assert metric["value"] is not None, (workload, name)


def test_counts_repeat_for_one_seed(traced_runs):
    for workload, first in traced_runs.items():
        again = result_of(bench(workload, 1))
        for name in COUNTS:
            assert again["metrics"][name] == first["metrics"][name], (workload, name)


def test_every_repair_task_is_repaired(traced_runs):
    for workload in ("wide-repair", "deep-repair"):
        metrics = traced_runs[workload]["metrics"]
        assert metrics["repair.variants_executed"]["value"] > 0
        # every solved task was repaired, or grading would have failed it
        assert traced_runs[workload]["correct"] is True


def test_http_calls_do_not_stall_on_delayed_ack(traced_runs):
    # Headers and body sent apart cost about 40 ms a call.
    assert traced_runs["http-noisy"]["metrics"]["lm.ms_per_call"]["value"] < 20


def test_grading_rejects_a_wrong_solved_answer(tmp_path):
    db = tmp_path / "db" / "d" / "d.sqlite"
    db.parent.mkdir(parents=True)
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE t (a INTEGER)")
    conn.executemany("INSERT INTO t VALUES (?)", [(1,), (2,)])
    conn.commit()
    conn.close()
    task = {"id": "x", "db_id": "d", "query": "SELECT a FROM t WHERE a = 1", "examples": [[1]]}
    (tmp_path / "tasks.json").write_text(json.dumps([task]))
    answer = {"id": "x", "error": None, "status": "solved", "repaired": False}
    wrong = run.grade(tmp_path, "fixture-noisy",
                      [{**answer, "query": "SELECT t.a\nFROM t\nWHERE t.a = 2\nLIMIT\n"}])
    assert wrong["failed"] == 1 and wrong["violations"]
    right = run.grade(tmp_path, "fixture-noisy",
                      [{**answer, "query": "SELECT t.a\nFROM t\nWHERE t.a = 1\nLIMIT\n"}])
    assert right == {"attempted": 1, "failed": 0, "matched": 1, "violations": []}
    unrepaired = run.grade(tmp_path, "deep-repair",
                           [{**answer, "query": "SELECT t.a\nFROM t\nWHERE t.a = 1\nLIMIT\n"}])
    assert unrepaired["violations"]


def test_missing_entry_point_reads_as_missing(monkeypatch):
    monkeypatch.setattr(
        tracer, "ENTRY_POINTS",
        tracer.ENTRY_POINTS + (("sqlsynth.repair", "no_such_entry_point", "repair.gone", True),),
    )
    common.use_checkout()
    spans = tracer.Tracer()
    spans.install()
    spans.uninstall()
    assert "repair.gone" in spans.absent()
    # required entry points that were never called also read as missing
    assert "repair.execute" in spans.absent()


def test_self_times_partition_the_root_span():
    spans = tracer.Tracer()
    inner = spans.wrap("lm", lambda: sum(range(1000)))
    outer = spans.wrap("search", lambda: [inner() for _ in range(50)])
    outer()
    assert spans.calls["lm"] == 50
    assert abs(sum(spans.self_time.values()) - spans.total["search"]) < 1e-9


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("fixture-noisy", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
