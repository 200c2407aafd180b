"""Task model: schemas, databases, tasks and example tuples.

Loads Spider-format ``tables.json`` and task files, opens the SQLite
database behind each task read-only, and serializes the task description
consumed by the language model adapters.
"""

from __future__ import annotations

import enum
import json
import sqlite3
import threading
from contextlib import closing
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence


class DatasetError(Exception):
    """A dataset file is malformed or internally inconsistent."""


class DuplicateDbId(DatasetError):
    """Two schema entries share the same db_id."""


class UnknownDbId(DatasetError):
    """A task record names a db_id with no loaded schema."""


class ColumnType(enum.Enum):
    INTEGER = "Integer"
    REAL = "Real"
    TEXT = "Text"
    BOOLEAN = "Boolean"
    OTHER = "Other"


def types_agree(left: ColumnType, right: ColumnType) -> bool:
    """Whether values of these types may stand in one result column.
    SQLite returns no bool and ``True == 1 == 1.0``, so Integer, Real and
    Boolean agree with each other; OTHER (NULL or bytes) agrees with any
    type, and Text only with Text."""
    if ColumnType.OTHER in (left, right):
        return True
    return (left is ColumnType.TEXT) == (right is ColumnType.TEXT)


REFINE_SAMPLE = 100  # rows refine_schema samples from each table

_SPIDER_TYPE_MAP = {
    "number": ColumnType.INTEGER,  # provisional; refine_schema may widen to Real
    "text": ColumnType.TEXT,
    "boolean": ColumnType.BOOLEAN,
}


def value_type(value: object) -> ColumnType:
    if isinstance(value, bool):
        return ColumnType.BOOLEAN
    if isinstance(value, int):
        return ColumnType.INTEGER
    if isinstance(value, float):
        return ColumnType.REAL
    if isinstance(value, str):
        return ColumnType.TEXT
    return ColumnType.OTHER


@dataclass(frozen=True)
class Column:
    name: str
    type: ColumnType


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[Column, ...]

    @cached_property
    def _by_name(self) -> dict[str, Column]:
        index: dict[str, Column] = {}
        for column in self.columns:
            index.setdefault(column.name.lower(), column)
        return index

    def column(self, name: str) -> Column | None:
        return self._by_name.get(name.lower())


@dataclass(frozen=True, eq=False)
class DatabaseSchema:
    """One database's tables.  Schemas compare and hash by identity, so
    the checker's process-wide caches key by the schema object cheaply."""

    db_id: str
    tables: tuple[Table, ...]
    foreign_keys: tuple[tuple[str, str], ...] = ()

    @cached_property
    def _by_name(self) -> dict[str, Table]:
        index: dict[str, Table] = {}
        for table in self.tables:
            index.setdefault(table.name.lower(), table)
        return index

    @cached_property
    def _column_refs(self) -> tuple[str, ...]:
        return tuple(
            f"{table.name}.{column.name}"
            for table in self.tables
            for column in table.columns
        )

    @cached_property
    def _declaration(self) -> tuple[str, ...]:
        """One ``name ( column : Type , ... )`` line per table."""
        return tuple(
            f"{table.name} ( "
            + " , ".join(f"{c.name} : {c.type.value}" for c in table.columns)
            + " )"
            for table in self.tables
        )

    def table(self, name: str) -> Table | None:
        return self._by_name.get(name.lower())

    def column_type(self, table: str, column: str) -> ColumnType | None:
        owner = self.table(table)
        if owner is None:
            return None
        found = owner.column(column)
        return found.type if found else None

    def column_refs(self) -> tuple[str, ...]:
        """All ``table.column`` lexemes in declaration order."""
        return self._column_refs


@dataclass(frozen=True)
class ExampleTuple:
    """One output tuple the synthesized query must return.  ``types``
    holds each value's type, so equality and hashing tell ``[1]`` from
    ``[true]``."""

    values: tuple[object, ...]
    types: tuple[ColumnType, ...] = field(init=False)

    def __post_init__(self) -> None:
        if not self.values:
            raise DatasetError("example tuples must have arity >= 1")
        for value in self.values:  # what SQLite returns; a BLOB is bytes
            if not isinstance(value, (type(None), int, float, str, bytes)):
                raise DatasetError(f"example value {value!r} is not a scalar")
            if value != value:  # SQLite stores NaN as NULL: no row can hold it
                raise DatasetError(f"example value {value!r} is NaN, which no row holds")
        object.__setattr__(self, "types", tuple(map(value_type, self.values)))

    @classmethod
    def from_values(cls, values: Sequence[object]) -> ExampleTuple:
        return cls(tuple(values))

    @property
    def arity(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class TaskInstance:
    id: str
    db_id: str
    question: str
    gold_query: str = ""
    examples: frozenset[ExampleTuple] = frozenset()

    def __post_init__(self) -> None:
        _check_example_consistency(self.examples)

    def sorted_examples(self) -> tuple[ExampleTuple, ...]:
        return tuple(sorted(self.examples, key=lambda t: tuple(map(repr, t.values))))


def _check_example_consistency(examples: Iterable[ExampleTuple]) -> None:
    """Every example has one arity, and every column's values agree by
    ``types_agree``: each with the column's first type other than OTHER."""
    columns: list[ColumnType] | None = None
    for example in examples:
        if columns is None:
            columns = list(example.types)
            continue
        if example.arity != len(columns):
            raise DatasetError("example tuples disagree on arity")
        for index, kind in enumerate(example.types):
            if not types_agree(columns[index], kind):
                raise DatasetError("example tuples disagree on column types")
            if columns[index] is ColumnType.OTHER:
                columns[index] = kind


@dataclass(frozen=True)
class TaskDatabase:
    """A task's SQLite file and the read-only handle each thread borrows.

    ``connection()`` opens one read-only connection per thread on first
    use and hands the same one back for as long as the instance lives,
    so repeated searches skip the connect and the schema load and find a
    warm page cache.  sqlite3's same-thread check stays on: a handle is
    never used from a thread other than the one that opened it.
    ``connect()`` opens a fresh connection the caller owns and closes.
    Equality and hashing see only ``db_id`` and ``path``.
    """

    db_id: str
    path: Path
    _local: threading.local = field(
        default_factory=threading.local, init=False, repr=False, compare=False
    )

    def connect(self) -> sqlite3.Connection:
        # A percent-encoded URI: a '#', '?' or '%' in the path is a name,
        # not a fragment, a query or an escape.
        uri = self.path.absolute().as_uri() + "?mode=ro"
        return sqlite3.connect(uri, uri=True)

    def connection(self) -> sqlite3.Connection:
        """This thread's borrowed connection; callers must not close it."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self.connect()
        return conn


# -- Loading ----------------------------------------------------------------


def load_schemas(tables_file: Path | str) -> dict[str, DatabaseSchema]:
    try:
        data = json.loads(Path(tables_file).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetError(f"cannot read schema file: {exc}") from exc
    if not isinstance(data, list):
        raise DatasetError("schema file must contain a list of database entries")
    schemas: dict[str, DatabaseSchema] = {}
    for entry in data:
        schema = _schema_from_entry(entry)
        if schema.db_id in schemas:
            raise DuplicateDbId(f"duplicate db_id {schema.db_id!r}")
        schemas[schema.db_id] = schema
    return schemas


def _schema_from_entry(entry: Mapping) -> DatabaseSchema:
    try:
        db_id = entry["db_id"]
        table_names = entry.get("table_names_original") or entry.get("table_names") or []
        column_names = entry.get("column_names_original") or entry.get("column_names") or []
        column_types = entry.get("column_types", [])
        foreign_key_pairs = entry.get("foreign_keys", [])
    except (TypeError, KeyError) as exc:
        raise DatasetError(f"malformed schema entry: {exc}") from exc
    if not isinstance(db_id, str):
        raise DatasetError(f"malformed schema entry: db_id {db_id!r} is not a string")
    for field, value in (
        ("table names", table_names),
        ("column names", column_names),
        ("column_types", column_types),
        ("foreign_keys", foreign_key_pairs),
    ):
        if not isinstance(value, list):
            raise DatasetError(f"{db_id}: {field} is not a list")

    columns_by_table: dict[int, list[Column]] = {i: [] for i in range(len(table_names))}
    flat_refs: list[str | None] = []
    for index, item in enumerate(column_names):
        if not (isinstance(item, list) and len(item) == 2 and type(item[0]) is int):
            raise DatasetError(f"{db_id}: column {index} is not a [table, name] pair")
        table_index, name = item
        if table_index < 0:
            flat_refs.append(None)  # the "*" pseudo-column
            continue
        if table_index >= len(table_names):
            raise DatasetError(f"{db_id}: column {index} names a missing table")
        type_name = column_types[index] if index < len(column_types) else "others"
        kind = _SPIDER_TYPE_MAP.get(str(type_name).lower(), ColumnType.OTHER)
        columns_by_table[table_index].append(Column(str(name).strip(), kind))
        flat_refs.append(f"{table_names[table_index]}.{str(name).strip()}")

    tables = tuple(
        Table(str(name).strip(), tuple(columns_by_table[i]))
        for i, name in enumerate(table_names)
    )
    _check_name_uniqueness(db_id, tables)

    foreign_keys = []
    for pair in foreign_key_pairs:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise DatasetError(f"{db_id}: foreign key {pair!r} is not a column pair")
        refs = [
            flat_refs[i] if type(i) is int and 0 <= i < len(flat_refs) else None
            for i in pair
        ]
        if None in refs:
            raise DatasetError(f"{db_id}: foreign key names a missing column")
        foreign_keys.append((refs[0], refs[1]))
    return DatabaseSchema(db_id, tables, tuple(foreign_keys))


def _check_name_uniqueness(db_id: str, tables: Sequence[Table]) -> None:
    seen_tables: set[str] = set()
    for table in tables:
        lowered = table.name.lower()
        if lowered in seen_tables:
            raise DatasetError(f"{db_id}: duplicate table name {table.name!r}")
        seen_tables.add(lowered)
        seen_columns: set[str] = set()
        for column in table.columns:
            if column.name.lower() in seen_columns:
                raise DatasetError(
                    f"{db_id}: duplicate column {table.name}.{column.name}"
                )
            seen_columns.add(column.name.lower())


def load_tasks(
    dataset_file: Path | str, schemas: Mapping[str, DatabaseSchema]
) -> list[TaskInstance]:
    try:
        records = json.loads(Path(dataset_file).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetError(f"cannot read task file: {exc}") from exc
    if not isinstance(records, list):
        raise DatasetError("task file must contain a list of records")
    tasks: list[TaskInstance] = []
    ids: set[str] = set()
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise DatasetError(f"record {index} is not an object")
        try:
            db_id = record["db_id"]
            question = record["question"]
        except KeyError as exc:
            raise DatasetError(f"record {index}: missing field {exc}") from exc
        # Only a missing, null or empty "id" or "query" falls through.
        task_id = record.get("id")
        if task_id in (None, ""):
            task_id = f"{db_id}-{index:04d}"
        if isinstance(task_id, bool) or not isinstance(task_id, (str, int)):
            raise DatasetError(f"record {index}: id must be a string or an integer")
        task_id = str(task_id)
        if task_id in ids:
            raise DatasetError(f"record {index}: duplicate id {task_id!r}")
        ids.add(task_id)
        given = (record.get("query"), record.get("gold_query"))
        gold_query = next((q for q in given if q not in (None, "")), "")
        fields = {"db_id": db_id, "question": question, "gold query": gold_query}
        for name, value in fields.items():
            if not isinstance(value, str):
                raise DatasetError(f"record {index}: {name} must be a string")
        if db_id not in schemas:
            raise UnknownDbId(f"record {index}: unknown db_id {db_id!r}")
        rows = record.get("examples", [])
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise DatasetError(f"record {index}: examples must be a list of rows")
        try:
            task = TaskInstance(
                id=task_id,
                db_id=db_id,
                question=question,
                gold_query=gold_query,
                examples=frozenset(ExampleTuple.from_values(row) for row in rows),
            )
        except DatasetError as exc:
            raise DatasetError(f"record {index}: {exc}") from exc
        tasks.append(task)
    return tasks


def dump_tasks(tasks: Iterable[TaskInstance]) -> list[dict]:
    """Task records in the JSON shape load_tasks accepts."""
    records = []
    for task in tasks:
        records.append(
            {
                "id": task.id,
                "db_id": task.db_id,
                "question": task.question,
                "query": task.gold_query,
                "examples": [list(t.values) for t in task.sorted_examples()],
            }
        )
    return records


# -- Databases --------------------------------------------------------------


def database_path(db_root: Path | str, db_id: str) -> Path:
    return Path(db_root) / db_id / f"{db_id}.sqlite"


def open_database(db_root: Path | str, db_id: str) -> TaskDatabase:
    path = database_path(db_root, db_id)
    if not path.is_file():
        raise DatasetError(f"no database file at {path}")
    return TaskDatabase(db_id, path)


def refine_schema(db: TaskDatabase, schema: DatabaseSchema) -> DatabaseSchema:
    """Widen provisional Integer columns to Real when a sampled float is
    not whole (a fraction or an infinity); Spider's type strings are too
    coarse to tell.  Each table is sampled once, by one statement over
    its Integer columns."""
    with closing(db.connect()) as connection:
        tables = []
        for table in schema.tables:
            provisional = [
                c.name for c in table.columns if c.type is ColumnType.INTEGER
            ]
            reals = _columns_holding_reals(connection, table.name, provisional)
            columns = tuple(
                Column(c.name, ColumnType.REAL) if c.name in reals else c
                for c in table.columns
            )
            tables.append(Table(table.name, columns))
    return DatabaseSchema(schema.db_id, tuple(tables), schema.foreign_keys)


def _quoted(name: str) -> str:
    # Backticks, not double quotes: SQLite reads a double-quoted name that
    # is no column as a string, so a missing column would sample its name.
    return "`" + name.replace("`", "``") + "`"


def _holds_reals(values: Iterable[object]) -> bool:
    return any(
        isinstance(value, float) and not value.is_integer() for value in values
    )


def _columns_holding_reals(
    connection: sqlite3.Connection, table: str, columns: Sequence[str]
) -> set[str]:
    """The ``columns`` of ``table`` whose first ``REFINE_SAMPLE`` stored
    values hold a float that is not whole, read by one table statement.
    A column falls back to its own statement when the table statement
    cannot prepare (``tables.json`` names a table or column the database
    lacks), or when a full sample finds no such float but reads NULL in
    it, and so saw fewer than ``REFINE_SAMPLE`` of its values."""
    if not columns:
        return set()
    try:
        rows = connection.execute(
            f"SELECT {', '.join(map(_quoted, columns))} FROM {_quoted(table)} LIMIT ?",
            (REFINE_SAMPLE,),
        ).fetchall()
    except sqlite3.Error:
        return {c for c in columns if _column_holds_reals(connection, table, c)}
    full = len(rows) == REFINE_SAMPLE
    return {
        column
        for column, values in zip(columns, zip(*rows))
        if _holds_reals(values)
        or (full and None in values and _column_holds_reals(connection, table, column))
    }


def _column_holds_reals(
    connection: sqlite3.Connection, table: str, column: str
) -> bool:
    try:
        rows = connection.execute(
            f"SELECT {_quoted(column)} FROM {_quoted(table)} "
            f"WHERE {_quoted(column)} IS NOT NULL LIMIT ?",
            (REFINE_SAMPLE,),
        ).fetchall()
    except sqlite3.Error:
        return False
    return _holds_reals(value for (value,) in rows)


# -- Serialization ----------------------------------------------------------

_SECTION_DELIMITER = "---"


def serialize_task(task: TaskInstance, schema: DatabaseSchema) -> str:
    """Deterministic text form of a task: question, schema, examples.

    Database contents never appear here; the model sees only the schema
    declaration and the example tuples.
    """
    lines = [task.question, _SECTION_DELIMITER]
    lines.extend(schema._declaration)
    lines.append(_SECTION_DELIMITER)
    examples = task.sorted_examples()
    if examples:
        lines.extend(json.dumps(list(t.values), default=str) for t in examples)
    else:
        lines.append("no examples")
    return "\n".join(lines)
