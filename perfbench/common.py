"""Definitions shared by the benchmark's processes.

The benchmark is self-contained under ``perfbench/`` and imports the
program under test from the checkout's ``src/`` directory, never from an
installed copy, so every run measures the tree it sits in.
"""

from __future__ import annotations

import sqlite3
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class SetupError(Exception):
    """The checkout does not hold what the benchmark needs."""


def use_checkout() -> None:
    """Put the checkout's ``src/`` (and its root, for ``tests.fixtures``)
    first on ``sys.path``; refuse to fall back to an installed package."""
    if not (SRC / "sqlsynth" / "__init__.py").is_file():
        raise SetupError(f"no sqlsynth package under {SRC}")
    for path in (str(ROOT), str(SRC)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)


@dataclass(frozen=True)
class Workload:
    name: str
    # "fixture": the three fixture databases, gold corpus plus generated
    # queries, noisy scripted model.  "wide"/"deep": one synthetic
    # database, near-miss scripted model, so repair does the solving.
    inputs: str
    # "scripted" runs the model in process; "http" runs the same scripted
    # models behind a local stub server, reached through
    # HttpCompletionModel over one keep-alive connection.
    model: str
    # Tasks graded per requested second of measurement.  It fixes the
    # task list for a (seed, seconds) pair, so counts repeat exactly;
    # it was set so that one pass takes about ``--seconds`` at reference
    # speed (see the probe below) at the commit that introduced the
    # benchmark.
    tasks_per_second: float
    # A run grades at least this many tasks, even when that takes longer:
    # 200 leaves ten samples beyond task_p95_ms; wide-repair's tasks take
    # about 90 ms each, and 240 cover its 60 tables four times over.
    min_tasks: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fixture-noisy", "fixture", "scripted", 200.0, 200),
        Workload("http-noisy", "fixture", "http", 30.0, 200),
        Workload("wide-repair", "wide", "scripted", 12.0, 240),
        Workload("deep-repair", "deep", "scripted", 45.0, 200),
    )
}

# Top-k candidates per model call, as in the test suite's noisy search.
K = 8
# Generous enough that no task of any workload times out; a timeout
# would make counts depend on machine speed.
TIME_LIMIT_S = 60.0

# Probability mass of the gold path and of the per-step distractor in
# the noisy workloads, and of the near miss in the repair workloads.
GOLD_WEIGHT = 0.7
DISTRACTOR = {"surface": "frobnicate ", "mass": 0.2}
NEAR_MISS_WEIGHT = 0.9

CLAUSE_KEYWORDS = ("SELECT", "FROM", "WHERE", "GROUP BY", "HAVING", "ORDER BY", "LIMIT")


def executable(canonical: str) -> str:
    """Canonical query text as one SQLite statement: the bare keyword
    lines of empty clauses dropped.  Plain string handling, so grading
    does not depend on the program's own renderer."""
    lines = [line for line in canonical.splitlines() if line and line not in CLAUSE_KEYWORDS]
    return " ".join(lines)


def task_count(workload: Workload, seconds: float) -> int:
    return max(workload.min_tasks, round(workload.tasks_per_second * seconds))


# -- Machine-speed probe -------------------------------------------------------
#
# The machines this runs on share their cores, and their speed drifts by
# tens of percent within seconds, for every process alike.  So a fixed
# kernel is timed before every task and every set-up, and each time is
# reported at a reference speed: multiplied by PROBE_REFERENCE_S over the
# median probe time of the PROBE_WINDOW tasks centred on it (speed moves
# within a fraction of a second, so the window is narrow).  The kernel is
# half interpreter work and half an in-memory SQLite scan, because the
# workloads are a mix of both and the two slow down by different amounts.
# It runs outside the timed calls and never touches the program.  Raw
# wall-clock figures are printed beside the scaled ones.

PROBE_REFERENCE_S = 250e-6
PROBE_WINDOW = 3


class Probe:
    """Times a fixed kernel; one per process."""

    def __init__(self) -> None:
        self._db = sqlite3.connect(":memory:")
        self._db.execute("CREATE TABLE probe (a INTEGER, b REAL, c TEXT)")
        self._db.executemany(
            "INSERT INTO probe VALUES (?, ?, ?)",
            [(i * 7919 % 10007, i / 3, str(i)) for i in range(2000)],
        )

    def __call__(self) -> float:
        started = perf_counter()
        table: dict[int, str] = {}
        total = 0
        for i in range(500):
            key = i & 127
            table[key] = str(i)
            total += len(table[key])
        self._db.execute("SELECT COUNT(*) FROM probe WHERE a > 5000 AND c != 'x'").fetchone()
        return perf_counter() - started

    def close(self) -> None:
        self._db.close()


def at_reference_speed(times: list[float], probes: list[float]) -> list[float]:
    """Scale each time by the local machine speed its neighbours' probes show."""
    half = PROBE_WINDOW // 2
    scaled = []
    for i, elapsed in enumerate(times):
        local = statistics.median(probes[max(0, i - half) : i + half + 1])
        scaled.append(elapsed * PROBE_REFERENCE_S / local)
    return scaled
