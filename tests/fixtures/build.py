"""Builds the bundled fixture tree: tables.json, SQLite files, tasks.

Usable as a module (``write_fixture_tree``) from conftest and as a
script (``python -m tests.fixtures.build --dest DIR``) to materialize
the same tree for CLI experiments.  ``derive_example`` takes an example
tuple from a gold query's result, as the tests do with generated queries.
"""

from __future__ import annotations

import argparse
import json
import sqlite3
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

from sqlsynth.tasks import ExampleTuple, TaskDatabase

from .corpus import CORPUS

# Spider column type names; "number" stays deliberately ambiguous so the
# schema refinement step has something to do with the REAL columns.
DATABASES: dict[str, dict] = {
    "concerts": {
        "tables": {
            "singer": [
                ("singer_id", "number", "INTEGER"),
                ("name", "text", "TEXT"),
                ("age", "number", "INTEGER"),
                ("country", "text", "TEXT"),
                ("is_male", "boolean", "INTEGER"),
            ],
            "concert": [
                ("concert_id", "number", "INTEGER"),
                ("venue", "text", "TEXT"),
                ("year", "number", "INTEGER"),
                ("capacity", "number", "INTEGER"),
            ],
            "singer_in_concert": [
                ("concert_id", "number", "INTEGER"),
                ("singer_id", "number", "INTEGER"),
            ],
        },
        "foreign_keys": [
            ("singer_in_concert.singer_id", "singer.singer_id"),
            ("singer_in_concert.concert_id", "concert.concert_id"),
        ],
        "rows": {
            "singer": [
                (1, "Ali", 30, "France", 1),
                (2, "Bo", 25, "Japan", 0),
                (3, "Chris", 40, "France", 1),
                (4, "Dina", 35, "Spain", 0),
                (5, "Emil", 25, "France", 1),
            ],
            "concert": [
                (1, "Grand Hall", 2014, 500),
                (2, "Riverside", 2015, 300),
                (3, "Grand Hall", 2015, 800),
                (4, "Dome", 2016, 1200),
            ],
            "singer_in_concert": [
                (1, 1),
                (1, 2),
                (2, 3),
                (3, 1),
                (3, 4),
                (2, 1),
            ],
        },
    },
    "pets": {
        "tables": {
            "student": [
                ("stuid", "number", "INTEGER"),
                ("lname", "text", "TEXT"),
                ("fname", "text", "TEXT"),
                ("age", "number", "INTEGER"),
                ("city_code", "text", "TEXT"),
            ],
            "has_pet": [
                ("stuid", "number", "INTEGER"),
                ("petid", "number", "INTEGER"),
            ],
            "pets": [
                ("petid", "number", "INTEGER"),
                ("pettype", "text", "TEXT"),
                ("pet_age", "number", "INTEGER"),
                ("weight", "number", "REAL"),
            ],
        },
        "foreign_keys": [
            ("has_pet.stuid", "student.stuid"),
            ("has_pet.petid", "pets.petid"),
        ],
        "rows": {
            "student": [
                (1001, "Smith", "Linda", 18, "BAL"),
                (1002, "Kim", "Tracy", 19, "HKG"),
                (1003, "Jones", "Shiela", 21, "WAS"),
                (1004, "Kumar", "Dinesh", 20, "CHI"),
            ],
            "has_pet": [
                (1001, 2001),
                (1002, 2002),
                (1002, 2003),
                (1004, 2004),
            ],
            "pets": [
                (2001, "cat", 3, 12.5),
                (2002, "dog", 2, 23.0),
                (2003, "dog", 1, 9.3),
                (2004, "bird", 1, 0.6),
            ],
        },
    },
    "shop": {
        "tables": {
            "customers": [
                ("customer_id", "number", "INTEGER"),
                ("customer_name", "text", "TEXT"),
                ("city", "text", "TEXT"),
            ],
            "orders": [
                ("order_id", "number", "INTEGER"),
                ("customer_id", "number", "INTEGER"),
                ("total", "number", "REAL"),
                ("status", "text", "TEXT"),
            ],
        },
        "foreign_keys": [("orders.customer_id", "customers.customer_id")],
        "rows": {
            "customers": [
                (1, "Acme", "Paris"),
                (2, "Globex", "Oslo"),
                (3, "Initech", "Paris"),
                (4, "Umbrella", "Lyon"),
            ],
            "orders": [
                (10, 1, 250.0, "paid"),
                (11, 1, 80.5, "open"),
                (12, 2, 500.0, "paid"),
                (13, 3, 99.9, "open"),
                (14, 3, 250.0, "paid"),
                (15, 4, 10.0, "cancelled"),
            ],
        },
    },
}


@dataclass(frozen=True)
class FixturePaths:
    root: Path
    tables: Path
    tasks: Path
    db_root: Path


def _tables_entry(db_id: str, spec: dict) -> dict:
    table_names = list(spec["tables"])
    column_names = [[-1, "*"]]
    column_types = ["text"]
    flat_index: dict[str, int] = {}
    for table_index, table in enumerate(table_names):
        for name, spider_type, _ in spec["tables"][table]:
            flat_index[f"{table}.{name}"] = len(column_names)
            column_names.append([table_index, name])
            column_types.append(spider_type)
    foreign_keys = [
        [flat_index[source], flat_index[target]]
        for source, target in spec["foreign_keys"]
    ]
    return {
        "db_id": db_id,
        "table_names_original": table_names,
        "table_names": table_names,
        "column_names_original": column_names,
        "column_names": column_names,
        "column_types": column_types,
        "foreign_keys": foreign_keys,
        "primary_keys": [],
    }


def _write_database(path: Path, spec: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        path.unlink()
    conn = sqlite3.connect(path)
    try:
        for table, columns in spec["tables"].items():
            decls = ", ".join(f"{name} {affinity}" for name, _, affinity in columns)
            conn.execute(f"CREATE TABLE {table} ({decls})")
            placeholders = ", ".join("?" for _ in columns)
            conn.executemany(
                f"INSERT INTO {table} VALUES ({placeholders})",
                spec["rows"][table],
            )
        conn.commit()
    finally:
        conn.close()


def _task_records(db_root: Path) -> list[dict]:
    records = []
    for number, entry in enumerate(CORPUS, start=1):
        db_path = db_root / entry.db_id / f"{entry.db_id}.sqlite"
        conn = sqlite3.connect(db_path)
        try:
            row = conn.execute(entry.raw_sql).fetchone()
        finally:
            conn.close()
        if row is None:
            raise AssertionError(f"fixture query returns no rows: {entry.raw_sql}")
        records.append(
            {
                "id": f"{entry.db_id}-{number:03d}",
                "db_id": entry.db_id,
                "question": entry.question,
                "query": entry.raw_sql,
                "examples": [list(row)],
            }
        )
    return records


class EmptyResult(Exception):
    """A gold query returned no rows, so no example can be derived."""


class ExecutionError(Exception):
    """A gold query failed to execute while deriving an example."""


def derive_example(db: TaskDatabase, gold_query: str) -> ExampleTuple:
    """The first tuple of the gold query's result, under the query's own
    ordering; raises EmptyResult when the query returns no rows."""
    with closing(db.connect()) as connection:
        try:
            cursor = connection.execute(gold_query)
            row = cursor.fetchone()
        except sqlite3.Error as exc:
            raise ExecutionError(str(exc)) from exc
    if row is None:
        raise EmptyResult(gold_query)
    return ExampleTuple.from_values(tuple(row))


def write_fixture_tree(root: Path) -> FixturePaths:
    root.mkdir(parents=True, exist_ok=True)
    db_root = root / "db"
    for db_id, spec in DATABASES.items():
        _write_database(db_root / db_id / f"{db_id}.sqlite", spec)
    tables = root / "tables.json"
    tables.write_text(
        json.dumps(
            [_tables_entry(db_id, spec) for db_id, spec in DATABASES.items()],
            indent=2,
        )
    )
    tasks = root / "tasks.json"
    tasks.write_text(json.dumps(_task_records(db_root), indent=2))
    return FixturePaths(root=root, tables=tables, tasks=tasks, db_root=db_root)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dest", required=True, help="directory to build into")
    args = parser.parse_args(argv)
    paths = write_fixture_tree(Path(args.dest))
    print(f"wrote {paths.tables}")
    print(f"wrote {paths.tasks}")
    print(f"wrote databases under {paths.db_root}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
