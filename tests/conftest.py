from __future__ import annotations

import importlib
import pkgutil
import sqlite3

import pytest

import sqlsynth
from sqlsynth.nsql.normalize import rewrite_dataset
from sqlsynth.tasks import (
    DatabaseSchema,
    TaskDatabase,
    TaskInstance,
    load_schemas,
    load_tasks,
    open_database,
    refine_schema,
)
from tests.fixtures.build import FixturePaths, write_fixture_tree


@pytest.fixture(scope="session")
def shared_caches() -> dict[str, object]:
    """Every ``functools.lru_cache`` defined at module level in a
    ``sqlsynth`` module, by qualified name."""
    caches = {}
    for info in pkgutil.walk_packages(sqlsynth.__path__, "sqlsynth."):
        for name, value in vars(importlib.import_module(info.name)).items():
            if hasattr(value, "cache_info") and value.__module__ == info.name:
                caches[f"{info.name}.{name}"] = value
    return caches


@pytest.fixture(autouse=True)
def empty_shared_caches(shared_caches):
    """Start every test from empty process-wide caches, so that no test
    depends on which tests ran before it."""
    for cache in shared_caches.values():
        cache.cache_clear()


@pytest.fixture(scope="session")
def fixture_paths(tmp_path_factory) -> FixturePaths:
    return write_fixture_tree(tmp_path_factory.mktemp("fixtures"))


@pytest.fixture(scope="session")
def raw_schemas(fixture_paths) -> dict[str, DatabaseSchema]:
    return load_schemas(fixture_paths.tables)


@pytest.fixture(scope="session")
def schemas(fixture_paths, raw_schemas) -> dict[str, DatabaseSchema]:
    return {
        db_id: refine_schema(open_database(fixture_paths.db_root, db_id), schema)
        for db_id, schema in raw_schemas.items()
    }


@pytest.fixture(scope="session")
def tasks(fixture_paths, schemas) -> list[TaskInstance]:
    return load_tasks(fixture_paths.tasks, schemas)


@pytest.fixture(scope="session")
def normalized_tasks(tasks, schemas) -> list[TaskInstance]:
    kept, rejected = rewrite_dataset(tasks, schemas)
    assert not rejected, f"fixture corpus must fully normalize: {rejected}"
    return kept


@pytest.fixture()
def connect(fixture_paths):
    """Open read-only fixture connections that close with the test."""
    opened: list[sqlite3.Connection] = []

    def _connect(db_id: str) -> sqlite3.Connection:
        conn = open_database(fixture_paths.db_root, db_id).connect()
        opened.append(conn)
        return conn

    yield _connect
    for conn in opened:
        conn.close()


@pytest.fixture()
def traced_statements(monkeypatch) -> list[str]:
    """Every statement run on a connection ``TaskDatabase.connect`` opens
    during the test, in order.  A statement that cannot prepare never
    runs, so it is not listed."""
    traced: list[str] = []
    connect = TaskDatabase.connect

    def tracing_connect(self):
        conn = connect(self)
        conn.set_trace_callback(traced.append)
        return conn

    monkeypatch.setattr(TaskDatabase, "connect", tracing_connect)
    return traced
