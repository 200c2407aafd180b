"""Seeded generator of benchmark inputs.

    python3 perfbench/workloads.py --workload NAME --seed N --tasks N --out DIR

writes ``DIR/tables.json``, ``DIR/tasks.json`` (Spider layout, raw gold
SQL plus one example row), ``DIR/models.json`` (the scripted model of
each task) and ``DIR/db/<db_id>/<db_id>.sqlite``.  The same arguments
give byte-identical files.  It runs in its own process so that its time
and memory never count towards the measured run.

Workload inputs:

* ``fixture``: the three fixture databases of the test suite, its
  50-query gold corpus, and seeded random queries over the same schemas
  (joins along foreign keys, aggregates, grouping, ordering, limits),
  cycling through every query shape.
  The model puts the gold path at 0.7 and a dead-end distractor at 0.2
  on every step.
* ``wide``: one synthetic database of 60 tables x 20 columns with five
  rows per table.  ``deep``: 8 tables x 8 columns with 5,000 rows per
  table.  Gold queries select one column under one or two predicates.
  The model holds only a near miss: a one-edit variant of the gold that
  passes the static checker but whose result lacks the example row, so
  every solved task is solved by repair.

No two tasks of one run share a gold query, so no cache shared across
tasks can help more than it would on a real batch.
"""

from __future__ import annotations

import argparse
import json
import random
import sqlite3
import string
import sys
from collections import Counter
from contextlib import closing
from pathlib import Path

from common import (
    DISTRACTOR,
    GOLD_WEIGHT,
    NEAR_MISS_WEIGHT,
    WORKLOADS,
    executable,
    use_checkout,
)

use_checkout()

from sqlsynth import ExampleTuple, load_schemas, load_tasks, make_checker  # noqa: E402
from sqlsynth import open_database, refine_schema  # noqa: E402
from sqlsynth.nsql import rewrite_dataset  # noqa: E402

COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")

# Synthetic database shapes: (tables, columns per table, rows per table).
SYNTHETIC = {"wide": (60, 20, 5), "deep": (8, 8, 20000)}
# Near-miss edits, cycled over the tasks of a repair workload so that
# every run holds the same mix.  Repair walks lexeme positions left to
# right and tries every schema column at each column position, so on the
# wide schema a WHERE or comparison edit costs two full passes over its
# 1,200 columns; the wide workload keeps to SELECT edits, whose cost
# varies with the gold column's place in the schema.  On the deep schema
# gold queries start with an equality, so results stay a few rows and
# execution time is SQLite scanning 5,000 rows, not Python copying them;
# a comparison edit there would turn it into thousands of rows.
NEAR_MISS_KINDS = {"wide": ("select",), "deep": ("select", "where")}


# -- Plain SQL helpers (no sqlsynth) -----------------------------------------


def rows_of(conn: sqlite3.Connection, sql: str) -> list[tuple]:
    return [tuple(row) for row in conn.execute(sql).fetchall()]


def literal(value: object) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


# -- Databases ---------------------------------------------------------------


def _tables_entry(db_id: str, tables: dict[str, list[tuple[str, str]]]) -> dict:
    """A Spider ``tables.json`` entry, without foreign keys."""
    names = list(tables)
    column_names = [[-1, "*"]]
    column_types = ["text"]
    for t, table in enumerate(names):
        for column, spider_type in tables[table]:
            column_names.append([t, column])
            column_types.append(spider_type)
    return {
        "db_id": db_id,
        "table_names_original": names,
        "table_names": names,
        "column_names_original": column_names,
        "column_names": column_names,
        "column_types": column_types,
        "foreign_keys": [],
        "primary_keys": [],
    }


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(6))


def write_synthetic(out: Path, shape: str, rng: random.Random) -> str:
    """One synthetic database; column kinds cycle integer, real, text."""
    n_tables, n_columns, n_rows = SYNTHETIC[shape]
    db_id = shape
    kinds = ("INTEGER", "REAL", "TEXT")
    tables: dict[str, list[tuple[str, str]]] = {}
    for t in range(n_tables):
        tables[f"t{t:02d}"] = [
            (f"c{c:02d}", "text" if kinds[c % 3] == "TEXT" else "number")
            for c in range(n_columns)
        ]
    path = out / "db" / db_id / f"{db_id}.sqlite"
    path.parent.mkdir(parents=True)
    with closing(sqlite3.connect(path)) as conn:
        for table, columns in tables.items():
            decls = ", ".join(f"{name} {kinds[c % 3]}" for c, (name, _) in enumerate(columns))
            conn.execute(f"CREATE TABLE {table} ({decls})")
            rows = []
            for _ in range(n_rows):
                row = []
                for c in range(n_columns):
                    kind = kinds[c % 3]
                    if kind == "INTEGER":
                        row.append(rng.randrange(100_000))
                    elif kind == "REAL":
                        # never integral, so refine_schema widens the column
                        row.append(round(rng.randrange(1, 10_000_000) / 100 + 0.005, 3))
                    else:
                        row.append(_word(rng))
                rows.append(tuple(row))
            marks = ", ".join("?" for _ in columns)
            conn.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)
        conn.commit()
    (out / "tables.json").write_text(json.dumps([_tables_entry(db_id, tables)], indent=1))
    return db_id


def write_fixture(out: Path) -> list[dict]:
    """The test suite's fixture tree; returns its gold corpus records."""
    from tests.fixtures.build import write_fixture_tree

    paths = write_fixture_tree(out)
    records = json.loads(paths.tasks.read_text())
    paths.tasks.unlink()
    return records


# -- Random gold queries -----------------------------------------------------


def witness_row(rng: random.Random, conn: sqlite3.Connection, refs, from_sql: str) -> tuple:
    (size,) = conn.execute(f"SELECT COUNT(*) FROM {from_sql}").fetchone()
    sql = f"SELECT {', '.join(refs)} FROM {from_sql} LIMIT 1 OFFSET {rng.randrange(size)}"
    return rows_of(conn, sql)[0]


def _predicate(rng: random.Random, ref: str, kind: str, value: object) -> str:
    """A comparison on ``ref`` that the witness ``value`` satisfies."""
    if kind == "Text":
        choice = rng.random()
        if choice < 0.2 and value:
            return f"{ref} LIKE {literal(value[0] + '%')}"
        if choice < 0.6:
            return f"{ref} = {literal(value)}"
        return f"{ref} != {literal(value + 'x')}"
    op = rng.choice(COMPARISONS)
    if op in ("=", "<=", ">="):
        const = value
    elif op in ("!=", "<"):
        const = value + 1
    else:  # ">"
        const = value - 1
        if const < 0:
            op, const = ">=", value
    return f"{ref} {op} {literal(const)}"


def _where(rng, refs, witness, count, connective, equal_first=False) -> str:
    picked = rng.sample(range(len(refs)), count)
    parts = [_predicate(rng, refs[i][0], refs[i][1], witness[i]) for i in picked]
    if equal_first:
        parts[0] = f"{refs[picked[0]][0]} = {literal(witness[picked[0]])}"
    return f" {connective} ".join(parts)


# Query shapes of the generated fixture tasks: (join, select, predicates,
# order).  A shape fixes the number of tokens, and so the number of model
# calls and checks a task costs, so every run cycles through all shapes
# in a seeded order and the tail of task times does not depend on the
# seed.
SELECTS = ("count", "group", "having", "one", "two", "distinct")
ORDERS = ("none", "order", "limit")
SHAPES = tuple(
    (join, select, predicates, order)
    for join in (False, True)
    for select in SELECTS
    for predicates in (0, 1, 2)
    for order in ORDERS
    if select != "count" or order == "none"
)
# Attempts per shape and run before it is dropped: small databases hold
# only so many distinct queries of some shapes.
SHAPE_ATTEMPTS = 20


def fixture_query(rng: random.Random, schema, conn: sqlite3.Connection, shape) -> str:
    """A query of the given shape over a fixture schema, in the style of
    the test suite's generator, whose predicates a witness row satisfies."""
    join, select_kind, predicates, order = shape
    if join:
        source, target = rng.choice(schema.foreign_keys)
        src_table, src_col = source.split(".")
        dst_table, dst_col = target.split(".")
        from_sql = f"{dst_table} JOIN {src_table} ON {dst_table}.{dst_col} = {src_table}.{src_col}"
        tables = (dst_table, src_table)
    else:
        tables = (rng.choice(schema.tables).name,)
        from_sql = tables[0]
    refs = [
        (f"{t}.{c.name}", c.type.value)
        for t in tables
        for c in schema.table(t).columns
    ]
    witness = witness_row(rng, conn, [r for r, _ in refs], from_sql)

    group = having = ""
    if select_kind == "count":
        select = "COUNT(*)"
    elif select_kind in ("group", "having"):
        key = rng.choice(refs)[0]
        select, group = f"{key} , COUNT(*)", key
        if select_kind == "having":
            having = f"COUNT(*) >= {rng.randrange(1, 3)}"
    else:
        select = " , ".join(r for r, _ in rng.sample(refs, 2 if select_kind == "two" else 1))
        if select_kind == "distinct":
            select = "DISTINCT " + select
    sql = f"SELECT {select} FROM {from_sql}"
    if predicates:
        sql += " WHERE " + _where(rng, refs, witness, predicates, rng.choice(("AND", "OR")))
    if group:
        sql += f" GROUP BY {group}"
        if having:
            sql += f" HAVING {having}"
    if order != "none":
        sql += f" ORDER BY {rng.choice(refs)[0]} {rng.choice(('ASC', 'DESC'))}"
        if order == "limit":
            sql += f" LIMIT {rng.randrange(1, 6)}"
    return sql


def repair_gold(rng: random.Random, table, conn: sqlite3.Connection, selective: bool) -> str:
    """``SELECT t.a FROM t WHERE <one or two predicates>`` on a witness
    row; ``selective`` makes the first predicate an equality."""
    refs = [(f"{table.name}.{c.name}", c.type.value) for c in table.columns]
    witness = witness_row(rng, conn, [r for r, _ in refs], table.name)
    target = rng.choice(refs)[0]
    where = _where(rng, refs, witness, rng.choice((1, 2)), "AND", selective)
    return f"SELECT {target} FROM {table.name} WHERE {where}"


# -- Near misses -------------------------------------------------------------


def near_misses(rng: random.Random, canonical: str, schema, kind: str) -> list[str]:
    """One-edit variants of canonical gold text, of the given kind, in a
    seeded order.  ``select`` swaps the selected column, ``where`` the
    first predicate's column for one of the same type."""
    lines = canonical.split("\n")
    select_ref = lines[0].split(" ")[1]
    where = lines[2].split(" ")
    table_name, _ = select_ref.split(".")
    table = schema.table(table_name)
    refs = {f"{table.name}.{c.name}": c.type for c in table.columns}
    variants = []
    if kind == "select":
        for ref in refs:
            if ref != select_ref:
                variants.append("\n".join([f"SELECT {ref}"] + lines[1:]))
    else:
        for ref, ctype in refs.items():
            if ref != where[1] and ctype is refs[where[1]]:
                edited = [where[0], ref] + where[2:]
                variants.append("\n".join(lines[:2] + [" ".join(edited)] + lines[3:]))
    rng.shuffle(variants)
    return variants


# -- Task lists ----------------------------------------------------------------


def _record(task_id: str, db_id: str, question: str, sql: str, example: list) -> dict:
    return {
        "id": task_id,
        "db_id": db_id,
        "question": f"{task_id}: {question}",
        "query": sql,
        "examples": [example],
    }


def _canonical(out: Path, records: list[dict]) -> dict[str, str]:
    """Canonical gold text per task id, through the program's normalizer."""
    scratch = out / "normalize.json"
    scratch.write_text(json.dumps(records))
    schemas = load_schemas(out / "tables.json")
    kept, rejected = rewrite_dataset(load_tasks(scratch, schemas), schemas)
    scratch.unlink()
    if rejected:
        raise RuntimeError(f"generated gold queries outside the dialect: {rejected[:3]}")
    return {task.id: task.gold_query for task in kept}


def _usable(conn: sqlite3.Connection, raw: str, canonical: str) -> list | None:
    """The example row, when the raw and canonical gold agree and return rows."""
    try:
        raw_rows = rows_of(conn, raw)
        canonical_rows = rows_of(conn, executable(canonical))
    except sqlite3.Error:
        return None
    if not raw_rows or Counter(raw_rows) != Counter(canonical_rows):
        return None
    return list(raw_rows[0])


def fixture_tasks(out: Path, rng: random.Random, count: int) -> tuple[list, dict]:
    corpus = write_fixture(out)
    schemas = {
        db_id: refine_schema(open_database(out / "db", db_id), schema)
        for db_id, schema in load_schemas(out / "tables.json").items()
    }
    if count <= len(corpus):
        chosen = rng.sample(corpus, count)
    else:
        chosen = list(corpus)
    records = [
        _record(r["id"], r["db_id"], r["question"], r["query"], r["examples"][0])
        for r in chosen
    ]
    canonical = _canonical(out, records)
    seen = set(canonical.values())
    db_ids = sorted(schemas)
    connections = {d: sqlite3.connect(out / "db" / d / f"{d}.sqlite") for d in db_ids}
    pending: list = []
    attempts: Counter = Counter()
    try:
        number = 0
        while len(records) < count:
            batch = []
            for _ in range(min(256, 2 * (count - len(records)))):
                if not pending:
                    pending = rng.sample(SHAPES, len(SHAPES))
                shape = pending.pop()
                db_id = rng.choice(db_ids)
                number += 1
                sql = fixture_query(rng, schemas[db_id], connections[db_id], shape)
                record = _record(f"gen-{number:05d}", db_id, "generated question", sql, [0])
                batch.append((shape, record))
            batch_canonical = _canonical(out, [record for _, record in batch])
            for shape, record in batch:
                if len(records) >= count:
                    break
                text = batch_canonical[record["id"]]
                example = None
                if text not in seen:
                    example = _usable(connections[record["db_id"]], record["query"], text)
                if example is None:
                    attempts[shape] += 1
                    if attempts[shape] < SHAPE_ATTEMPTS:
                        pending.append(shape)
                    continue
                seen.add(text)
                record["examples"] = [example]
                canonical[record["id"]] = text
                records.append(record)
    finally:
        for conn in connections.values():
            conn.close()
    rng.shuffle(records)
    models = {
        r["question"]: {
            "queries": [[canonical[r["id"]], GOLD_WEIGHT]],
            "distractor": DISTRACTOR,
        }
        for r in records
    }
    return records, models


def repair_tasks(out: Path, shape: str, rng: random.Random, count: int) -> tuple[list, dict]:
    db_id = write_synthetic(out, shape, rng)
    db = open_database(out / "db", db_id)
    schema = refine_schema(db, load_schemas(out / "tables.json")[db_id])
    records: list[dict] = []
    models: dict[str, dict] = {}
    seen: set[str] = set()
    order: list = []
    number = 0
    with closing(sqlite3.connect(db.path)) as conn:
        while len(records) < count:
            batch = []
            for _ in range(min(256, count - len(records) + 16)):
                if not order:
                    # Each table once per cycle: the gold column's
                    # position in the schema, which sets how many
                    # variants repair enumerates, is spread the same way
                    # in every run.
                    order = rng.sample(schema.tables, len(schema.tables))
                table = order.pop()
                number += 1
                sql = repair_gold(rng, table, conn, selective=shape == "deep")
                batch.append((table, _record(f"cand-{number}", db_id, "", sql, [0])))
            canonical = _canonical(out, [record for _, record in batch])
            for table, candidate in batch:
                if len(records) >= count:
                    break
                text = canonical[candidate["id"]]
                example = _usable(conn, candidate["query"], text)
                variant = None
                if text not in seen and example is not None:
                    kinds = NEAR_MISS_KINDS[shape]
                    kind = kinds[len(records) % len(kinds)]
                    variant = _near_miss(rng, conn, schema, text, example, kind)
                if variant is None:
                    order.append(table)
                    continue
                seen.add(text)
                record = _record(
                    f"{shape}-{len(records) + 1:05d}", db_id, f"{kind} near miss",
                    candidate["query"], example,
                )
                records.append(record)
                models[record["question"]] = {
                    "queries": [[variant, NEAR_MISS_WEIGHT]],
                    "distractor": None,
                }
    return records, models


def _near_miss(rng, conn, schema, canonical: str, example: list, kind: str) -> str | None:
    """The first variant that passes the static checker and whose result
    lacks the example row."""
    check = make_checker(schema, ExampleTuple.from_values(example))
    for variant in near_misses(rng, canonical, schema, kind):
        if check(variant, True).ok and tuple(example) not in set(rows_of(conn, executable(variant))):
            return variant
    return None


def generate(workload_name: str, seed: int, count: int, out: Path) -> None:
    workload = WORKLOADS[workload_name]
    rng = random.Random(f"{workload.inputs}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    if workload.inputs == "fixture":
        records, models = fixture_tasks(out, rng, count)
    else:
        records, models = repair_tasks(out, workload.inputs, rng, count)
    (out / "tasks.json").write_text(json.dumps(records, indent=1))
    (out / "models.json").write_text(json.dumps(models, indent=1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Generate benchmark inputs.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tasks", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.tasks, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
