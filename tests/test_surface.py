"""The package's public names, and the entry points the benchmark's tracer
patches by name (``perfbench/tracer.py``), which the tier-1 suite would
otherwise not notice going missing or going uncalled."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import sqlsynth
import sqlsynth.nsql
from sqlsynth.lm import ScriptedModel
from sqlsynth.search import SearchStatus, run_search
from sqlsynth.tasks import ExampleTuple, TaskInstance, open_database

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_public_name_resolves():
    assert [name for name in sqlsynth.__all__ if not hasattr(sqlsynth, name)] == []


def test_the_package_roots_export_what_their_importers_import():
    """The README's library example and the benchmark import these names
    from the package roots; everything else comes from its module."""
    assert sorted(sqlsynth.__all__) == [
        "ExampleTuple",
        "HttpCompletionModel",
        "ScriptedModel",
        "SearchConfig",
        "TaskInstance",
        "load_schemas",
        "load_tasks",
        "make_checker",
        "open_database",
        "refine_schema",
        "run_search",
    ]
    assert sqlsynth.nsql.__all__ == ["rewrite_dataset"]
    assert isinstance(sqlsynth.nsql.normalize, types.ModuleType)


def _tracer_entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # the tracer imports only the standard library
    return tracer.ENTRY_POINTS


def test_every_tracer_entry_point_resolves():
    entry_points = _tracer_entry_points()
    missing = [
        (module, attribute)
        for module, attribute, *_ in entry_points
        if not hasattr(importlib.import_module(module), attribute)
    ]
    assert entry_points and missing == []


def test_a_near_miss_search_reaches_every_required_tracer_entry_point(
    monkeypatch, schemas, fixture_paths
):
    """The tracer reports a required entry point that a search never
    calls as missing, so one repaired search must call each of them
    under the name the tracer patches."""
    calls: Counter[tuple[str, str]] = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    required = [(m, a) for m, a, _, needed in _tracer_entry_points() if needed]
    for key in required:
        module = importlib.import_module(key[0])
        monkeypatch.setattr(module, key[1], counted(key, getattr(module, key[1])))
    # The scripted query misses Ali (age exactly 30); repair closes the gap.
    model = ScriptedModel.from_queries(
        [
            (
                "SELECT singer.name\nFROM singer\nWHERE singer.age > 30\n"
                "GROUP BY\nHAVING\nORDER BY\nLIMIT\n",
                1.0,
            )
        ]
    )
    task = TaskInstance(
        id="near-miss",
        db_id="concerts",
        question="who?",
        gold_query="",
        examples=frozenset({ExampleTuple.from_values(("Ali",))}),
    )
    db = open_database(fixture_paths.db_root, "concerts")
    result = run_search(task, schemas["concerts"], db, model)
    assert result.status is SearchStatus.SOLVED and result.repaired
    assert required and [key for key in required if calls[key] == 0] == []


def _run_probe(probe: str) -> str:
    """Run ``probe`` in a fresh interpreter that imports this checkout."""
    src = str(Path(sqlsynth.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return result.stdout.strip()


def test_import_loads_no_third_party_http_stack():
    """The package has no runtime dependencies: the HTTP client speaks
    HTTP/1.1 over the standard library's ``socket``, and ``requests`` with
    ``urllib3`` would add about 8 MB of resident memory to every process
    that imports the package."""
    probe = "import sys, sqlsynth; print({'requests', 'urllib3'} & set(sys.modules))"
    assert _run_probe(probe) == "set()"


def test_import_loads_no_http_client_email_or_ssl():
    """``http.client``, the ``email`` header parser and ``ssl`` cost about
    5.5 MB of resident memory; importing the package or building an
    http:// model loads none of them."""
    probe = (
        "import sys, sqlsynth\n"
        "def heavy():\n"
        "    return sorted(m for m in sys.modules if m in ('http.client', 'ssl', '_ssl')"
        " or m.split('.')[0] == 'email')\n"
        "print(heavy())\n"
        "sqlsynth.HttpCompletionModel('http://127.0.0.1:9/complete')\n"
        "print(heavy())"
    )
    assert _run_probe(probe).splitlines() == ["[]", "[]"]
