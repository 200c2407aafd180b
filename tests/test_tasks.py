from __future__ import annotations

import json
import sqlite3
import threading
from contextlib import closing

import pytest

from sqlsynth.tasks import (
    Column,
    ColumnType,
    DatabaseSchema,
    DatasetError,
    DuplicateDbId,
    ExampleTuple,
    Table,
    TaskInstance,
    UnknownDbId,
    database_path,
    dump_tasks,
    load_schemas,
    load_tasks,
    open_database,
    refine_schema,
    serialize_task,
    value_type,
)
from tests.fixtures.build import EmptyResult, ExecutionError, derive_example


def test_load_schemas_reads_spider_layout(raw_schemas):
    schema = raw_schemas["concerts"]
    assert [t.name for t in schema.tables] == [
        "singer",
        "concert",
        "singer_in_concert",
    ]
    assert schema.column_type("singer", "name") is ColumnType.TEXT
    assert schema.column_type("singer", "age") is ColumnType.INTEGER
    assert schema.column_type("singer", "is_male") is ColumnType.BOOLEAN
    assert ("singer_in_concert.singer_id", "singer.singer_id") in schema.foreign_keys


def test_schema_lookups_are_case_insensitive(raw_schemas):
    schema = raw_schemas["concerts"]
    assert schema.table("SINGER") is not None
    assert schema.column_type("Singer", "AGE") is ColumnType.INTEGER
    assert schema.column_type("singer", "no_such") is None
    assert schema.column_type("no_such", "age") is None


def test_schema_lookups_take_the_first_of_names_equal_but_for_case():
    first = Table(
        "Item", (Column("Price", ColumnType.REAL), Column("price", ColumnType.TEXT))
    )
    second = Table("item", (Column("price", ColumnType.INTEGER),))
    schema = DatabaseSchema("dup", (first, second))
    assert schema.table("ITEM") is first
    assert schema.table("item") is first
    assert schema.column_type("item", "PRICE") is ColumnType.REAL
    assert second.column("Price").type is ColumnType.INTEGER
    assert schema.column_refs() == ("Item.Price", "Item.price", "item.price")


def test_column_refs_follow_declaration_order(raw_schemas):
    refs = raw_schemas["shop"].column_refs()
    assert refs[:3] == (
        "customers.customer_id",
        "customers.customer_name",
        "customers.city",
    )
    assert "orders.total" in refs


def test_duplicate_db_id_rejected(tmp_path):
    entry = {
        "db_id": "twice",
        "table_names_original": ["t"],
        "column_names_original": [[-1, "*"], [0, "a"]],
        "column_types": ["text", "number"],
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([entry, entry]))
    with pytest.raises(DuplicateDbId, match=r"^duplicate db_id 'twice'$"):
        load_schemas(path)


def test_foreign_key_to_missing_column_rejected(tmp_path):
    entry = {
        "db_id": "broken",
        "table_names_original": ["t"],
        "column_names_original": [[-1, "*"], [0, "a"]],
        "column_types": ["text", "number"],
        "foreign_keys": [[1, 99]],
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([entry]))
    with pytest.raises(DatasetError):
        load_schemas(path)


_TWO_COLUMNS = [[-1, "*"], [0, "a"], [0, "b"]]


@pytest.mark.parametrize(
    "columns, foreign_keys",
    [
        ([[-1, "*"], [0]], []),
        ([[-1, "*"], [3, "a"]], []),
        (_TWO_COLUMNS, [[1]]),
        (_TWO_COLUMNS, [1]),
        (_TWO_COLUMNS, [[1, -1]]),
    ],
    ids=[
        "one-item-column-pair",
        "table-index-out-of-range",
        "one-item-foreign-key",
        "foreign-key-not-a-list",
        "negative-foreign-key-index",
    ],
)
def test_malformed_schema_entry_names_its_db_id(tmp_path, columns, foreign_keys):
    entry = {
        "db_id": "broken",
        "table_names_original": ["t"],
        "column_names_original": columns,
        "column_types": ["text", "number", "number"],
        "foreign_keys": foreign_keys,
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([entry]))
    with pytest.raises(DatasetError, match="^broken: "):
        load_schemas(path)


def _load_one_entry(tmp_path, **fields):
    entry = {
        "db_id": "broken",
        "table_names_original": ["t"],
        "column_names_original": _TWO_COLUMNS,
        "column_types": ["text", "number", "number"],
        "foreign_keys": [],
        **fields,
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([entry]))
    return load_schemas(path)


def test_schema_entry_rejects_foreign_keys_that_are_not_a_list(tmp_path):
    with pytest.raises(DatasetError, match="^broken: foreign_keys"):
        _load_one_entry(tmp_path, foreign_keys=5)


def test_schema_entry_rejects_column_names_that_are_not_a_list(tmp_path):
    with pytest.raises(DatasetError, match="^broken: column names"):
        _load_one_entry(tmp_path, column_names_original=5)


def test_schema_entry_rejects_column_types_that_are_not_a_list(tmp_path):
    with pytest.raises(DatasetError, match="^broken: column_types"):
        _load_one_entry(tmp_path, column_types=5)


def test_schema_entry_rejects_a_db_id_that_is_not_a_string(tmp_path):
    with pytest.raises(DatasetError, match=r"db_id \['broken'\]"):
        _load_one_entry(tmp_path, db_id=["broken"])


def test_schema_entry_rejects_table_names_given_as_a_string(tmp_path):
    with pytest.raises(DatasetError, match="^broken: table names"):
        _load_one_entry(tmp_path, table_names_original="ab")


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"table_names_original": ["t"]}, "malformed schema entry: 'db_id'"),
        (["broken"], "malformed schema entry: list indices must be integers"),
    ],
    ids=["missing-db-id", "entry-not-an-object"],
)
def test_malformed_schema_entry_is_a_dataset_error(tmp_path, entry, message):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([entry]))
    with pytest.raises(DatasetError) as raised:
        load_schemas(path)
    assert str(raised.value).startswith(message)


def test_schema_entry_rejects_table_names_equal_but_for_case(tmp_path):
    with pytest.raises(DatasetError, match="^broken: duplicate table name 'T'$"):
        _load_one_entry(
            tmp_path, table_names_original=["t", "T"], column_names_original=[]
        )


def test_schema_entry_rejects_column_names_equal_but_for_case(tmp_path):
    columns = [[-1, "*"], [0, "a"], [0, "A"]]
    with pytest.raises(DatasetError, match="^broken: duplicate column t.A$"):
        _load_one_entry(tmp_path, column_names_original=columns)


def test_schema_file_must_be_a_list(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps({"db_id": "x"}))
    with pytest.raises(DatasetError):
        load_schemas(path)


def test_load_tasks_unknown_db_id(tmp_path, raw_schemas):
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps([{"db_id": "nope", "question": "?"}]))
    with pytest.raises(UnknownDbId):
        load_tasks(path, raw_schemas)


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "cannot read task file: Expecting property name"),
        ('{"db_id": "shop"}', "task file must contain a list of records"),
        ('[{"db_id": "shop"}]', "record 0: missing field 'question'"),
        ("[5]", "record 0 is not an object"),
        ('["x"]', "record 0 is not an object"),
        ("[null]", "record 0 is not an object"),
        ("[[1]]", "record 0 is not an object"),
    ],
    ids=[
        "not-json",
        "not-a-list",
        "missing-question",
        "number-record",
        "string-record",
        "null-record",
        "list-record",
    ],
)
def test_load_tasks_rejects_a_malformed_task_file(tmp_path, raw_schemas, text, message):
    path = tmp_path / "tasks.json"
    path.write_text(text)
    with pytest.raises(DatasetError) as raised:
        load_tasks(path, raw_schemas)
    assert str(raised.value).startswith(message)


def test_load_tasks_rejects_an_unreadable_file(tmp_path, raw_schemas):
    with pytest.raises(DatasetError, match="^cannot read task file: .*No such file"):
        load_tasks(tmp_path / "missing.json", raw_schemas)


@pytest.mark.parametrize("value", [[1, 2], {"a": 1}])
def test_load_tasks_rejects_a_nested_example_value(tmp_path, raw_schemas, value):
    path = tmp_path / "tasks.json"
    record = {"db_id": "shop", "question": "?", "examples": [[value]]}
    path.write_text(json.dumps([record]))
    with pytest.raises(DatasetError, match="example value"):
        load_tasks(path, raw_schemas)


@pytest.mark.parametrize(
    "examples",
    [["Chris"], [5], 5, [[]]],
    ids=["bare-string-row", "bare-number-row", "examples-not-a-list", "empty-row"],
)
def test_malformed_examples_name_their_record(tmp_path, raw_schemas, examples):
    path = tmp_path / "tasks.json"
    good = {"db_id": "shop", "question": "?", "examples": [["Chris"]]}
    bad = {"db_id": "shop", "question": "?", "examples": examples}
    path.write_text(json.dumps([good, bad]))
    with pytest.raises(DatasetError, match="^record 1: "):
        load_tasks(path, raw_schemas)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("db_id", ["shop"], "db_id must be a string"),
        ("query", 5, "gold query must be a string"),
        ("query", ["select 1"], "gold query must be a string"),
        ("gold_query", 5, "gold query must be a string"),
        ("question", 5, "question must be a string"),
        ("query", 0, "gold query must be a string"),
        ("query", False, "gold query must be a string"),
        ("query", [], "gold query must be a string"),
        ("query", {}, "gold query must be a string"),
    ],
    ids=[
        "list-db-id", "int-query", "list-query", "int-gold-query", "int-question",
        "zero-query", "false-query", "empty-list-query", "empty-dict-query",
    ],
)
def test_load_tasks_rejects_a_wrongly_typed_field(
    tmp_path, raw_schemas, field, value, message
):
    path = tmp_path / "tasks.json"
    good = {"db_id": "shop", "question": "?"}
    path.write_text(json.dumps([good, {**good, field: value}]))
    with pytest.raises(DatasetError, match=f"^record 1: {message}$"):
        load_tasks(path, raw_schemas)


def test_load_tasks_accepts_both_gold_field_names(tmp_path, raw_schemas):
    records = [
        {"db_id": "shop", "question": "a", "query": "select 1"},
        {"db_id": "shop", "question": "b", "gold_query": "select 2"},
        {"db_id": "shop", "question": "c"},
    ]
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps(records))
    tasks = load_tasks(path, raw_schemas)
    assert [t.gold_query for t in tasks] == ["select 1", "select 2", ""]
    assert tasks[2].id == "shop-0002"


def test_load_tasks_keeps_a_zero_id(tmp_path, raw_schemas):
    """Only a missing, null or empty id falls back to the record's index."""
    ids = [0, 7, None, "", "a"]
    records = [{"db_id": "shop", "question": "?", "id": i} for i in ids]
    records.append({"db_id": "shop", "question": "?"})
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps(records))
    tasks = load_tasks(path, raw_schemas)
    assert [t.id for t in tasks] == [
        "0", "7", "shop-0002", "shop-0003", "a", "shop-0005"
    ]


@pytest.mark.parametrize(
    "value", [[1], True, {"a": 1}, 2.5], ids=["list", "bool", "object", "real"]
)
def test_load_tasks_refuses_an_id_that_is_not_a_string_or_an_integer(
    tmp_path, raw_schemas, value
):
    path = tmp_path / "tasks.json"
    good = {"db_id": "shop", "question": "?", "id": "a"}
    path.write_text(json.dumps([good, {**good, "id": value}]))
    with pytest.raises(
        DatasetError, match="^record 1: id must be a string or an integer$"
    ):
        load_tasks(path, raw_schemas)


@pytest.mark.parametrize(
    "ids, duplicate",
    [(["dup", "dup"], "dup"), ([1, "1"], "1"), (["shop-0001", None], "shop-0001")],
    ids=["given-twice", "integer-and-string", "given-and-generated"],
)
def test_load_tasks_refuses_a_duplicate_id(tmp_path, raw_schemas, ids, duplicate):
    records = [{"db_id": "shop", "question": "?", "id": i} for i in ids]
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps(records))
    with pytest.raises(DatasetError, match=f"^record 1: duplicate id '{duplicate}'$"):
        load_tasks(path, raw_schemas)


@pytest.mark.parametrize(
    "rows, agree",
    [
        ([[10], [12.5]], True),
        ([[1], [True]], True),
        ([[1], ["a"]], False),
        ([[None], [1], ["a"]], False),
    ],
    ids=["integer-real", "integer-boolean", "integer-text", "null-between"],
)
def test_example_columns_agree_by_type_family(tmp_path, raw_schemas, rows, agree):
    """SQLite returns Integer and Real values from one column, and no
    bool, so Integer, Real and Boolean share a column; Text shares one
    with none of them, and a NULL joins any column without bridging
    the two."""
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps([{"db_id": "shop", "question": "?", "examples": rows}]))
    if agree:
        [task] = load_tasks(path, raw_schemas)
        assert len(task.examples) == len(rows)
    else:
        message = "^record 0: example tuples disagree on column types$"
        with pytest.raises(DatasetError, match=message):
            load_tasks(path, raw_schemas)


def test_dump_load_roundtrip(tmp_path, tasks, raw_schemas):
    path = tmp_path / "roundtrip.json"
    path.write_text(json.dumps(dump_tasks(tasks)))
    again = load_tasks(path, raw_schemas)
    assert again == tasks


def test_value_type_classification():
    assert value_type(True) is ColumnType.BOOLEAN
    assert value_type(3) is ColumnType.INTEGER
    assert value_type(2.5) is ColumnType.REAL
    assert value_type("x") is ColumnType.TEXT
    assert value_type(None) is ColumnType.OTHER


def test_example_tuple_from_values():
    example = ExampleTuple.from_values(("Ali", 30))
    assert example.values == ("Ali", 30)
    assert example.types == (ColumnType.TEXT, ColumnType.INTEGER)
    assert example.arity == 2


def test_example_tuples_tell_a_boolean_from_an_equal_number():
    one, true = ExampleTuple.from_values([1]), ExampleTuple.from_values([True])
    assert one.values == true.values
    assert one != true and len({one, true}) == 2
    assert one == ExampleTuple.from_values((1,))
    assert hash(one) == hash(ExampleTuple.from_values((1,)))


def test_example_tuple_must_not_be_empty():
    with pytest.raises(DatasetError):
        ExampleTuple(())


def test_example_tuple_keeps_every_value_sqlite_returns():
    values = (None, True, 3, 2.5, "x", b"\x00")
    assert ExampleTuple.from_values(values).values == values


def test_example_tuple_refuses_nan_and_keeps_infinity():
    """SQLite stores NaN as NULL, so no row holds a NaN example; it stores
    an infinity and returns it, equal to the example."""
    with pytest.raises(DatasetError, match=r"^example value nan is NaN"):
        ExampleTuple.from_values(("x", float("nan")))
    infinite = ExampleTuple.from_values((float("inf"),))
    with closing(sqlite3.connect(":memory:")) as conn:
        conn.execute("CREATE TABLE t (x REAL)")
        conn.execute("INSERT INTO t VALUES (?), (?)", (float("inf"), float("nan")))
        rows = conn.execute("SELECT x FROM t").fetchall()
    assert rows == [infinite.values, (None,)]


def test_load_tasks_refuses_a_nan_example_naming_its_record(tmp_path, raw_schemas):
    path = tmp_path / "tasks.json"
    good = '{"db_id": "shop", "question": "?", "examples": [[1.5]]}'
    bad = '{"db_id": "shop", "question": "?", "examples": [[NaN]]}'
    path.write_text(f"[{good}, {bad}]")
    with pytest.raises(DatasetError, match="^record 1: example value nan is NaN"):
        load_tasks(path, raw_schemas)


def test_task_rejects_examples_with_mixed_arity():
    with pytest.raises(DatasetError):
        TaskInstance(
            id="x",
            db_id="shop",
            question="?",
            examples=frozenset(
                {ExampleTuple.from_values((1,)), ExampleTuple.from_values((1, 2))}
            ),
        )


def test_task_rejects_examples_with_mixed_types():
    with pytest.raises(DatasetError):
        TaskInstance(
            id="x",
            db_id="shop",
            question="?",
            examples=frozenset(
                {ExampleTuple.from_values(("a",)), ExampleTuple.from_values((1,))}
            ),
        )


def test_task_allows_other_typed_examples():
    task = TaskInstance(
        id="x",
        db_id="shop",
        question="?",
        examples=frozenset(
            {ExampleTuple.from_values((None,)), ExampleTuple.from_values((1,))}
        ),
    )
    assert len(task.examples) == 2


def test_sorted_examples_are_deterministic():
    examples = frozenset(
        {ExampleTuple.from_values((v,)) for v in ("pear", "apple", "fig")}
    )
    task = TaskInstance(id="x", db_id="shop", question="?", examples=examples)
    assert [e.values[0] for e in task.sorted_examples()] == [
        "apple",
        "fig",
        "pear",
    ]


def test_derive_example_takes_first_row(fixture_paths):
    db = open_database(fixture_paths.db_root, "concerts")
    example = derive_example(db, "select name, age from singer order by age")
    assert example.values == ("Bo", 25)


def test_derive_example_empty_result(fixture_paths):
    db = open_database(fixture_paths.db_root, "concerts")
    with pytest.raises(EmptyResult):
        derive_example(db, "select name from singer where age > 500")


def test_derive_example_bad_sql(fixture_paths):
    db = open_database(fixture_paths.db_root, "concerts")
    with pytest.raises(ExecutionError):
        derive_example(db, "select nothing from nowhere")


def test_open_database_missing_file(tmp_path):
    with pytest.raises(DatasetError):
        open_database(tmp_path, "ghost")
    assert database_path(tmp_path, "ghost").name == "ghost.sqlite"


def test_connections_are_read_only(fixture_paths):
    db = open_database(fixture_paths.db_root, "shop")
    conn = db.connect()
    try:
        with pytest.raises(sqlite3.OperationalError):
            conn.execute("insert into customers values (9, 'Evil', 'X')")
    finally:
        conn.close()


@pytest.mark.parametrize("root", ["a#b", "a?b", "a%41b", "a b"])
def test_a_database_opens_read_only_under_any_path(tmp_path, root):
    """A '#', '?' or '%' in the path is part of the name: read as a URI
    fragment, query or escape, it opened (and created) an empty database
    at a cut path, or none at all."""
    db_root = tmp_path / root
    path = database_path(db_root, "odd")
    path.parent.mkdir(parents=True)
    with closing(sqlite3.connect(path)) as conn:
        conn.execute("CREATE TABLE t (x)")
        conn.execute("INSERT INTO t VALUES (1)")
        conn.commit()
    before = sorted(tmp_path.rglob("*"))
    with closing(open_database(db_root, "odd").connect()) as conn:
        assert conn.execute("SELECT x FROM t").fetchall() == [(1,)]
        with pytest.raises(sqlite3.OperationalError, match="readonly"):
            conn.execute("INSERT INTO t VALUES (2)")
    assert sorted(tmp_path.rglob("*")) == before


def test_each_thread_borrows_its_own_connection(fixture_paths):
    db = open_database(fixture_paths.db_root, "shop")
    conn = db.connection()
    assert db.connection() is conn
    seen = {}

    def worker():
        seen["own"] = db.connection()
        try:
            conn.execute("SELECT 1")
        except sqlite3.ProgrammingError:
            seen["refused"] = True

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert seen["own"] is not conn
    assert seen["refused"]
    with pytest.raises(sqlite3.OperationalError):
        conn.execute("insert into customers values (9, 'Evil', 'X')")


def test_task_database_identity_ignores_its_connections(fixture_paths):
    db = open_database(fixture_paths.db_root, "shop")
    twin = open_database(fixture_paths.db_root, "shop")
    db.connection()
    assert db == twin
    assert hash(db) == hash(twin)
    assert {db: 1}[twin] == 1
    assert repr(db) == f"TaskDatabase(db_id='shop', path={db.path!r})"


def test_refine_schema_widens_fractional_number_columns(
    fixture_paths, raw_schemas
):
    raw = raw_schemas["pets"]
    assert raw.column_type("pets", "weight") is ColumnType.INTEGER
    refined = refine_schema(open_database(fixture_paths.db_root, "pets"), raw)
    assert refined.column_type("pets", "weight") is ColumnType.REAL
    assert refined.column_type("pets", "pet_age") is ColumnType.INTEGER
    assert refined.foreign_keys == raw.foreign_keys


def test_serialize_task_layout(schemas):
    task = TaskInstance(
        id="t",
        db_id="shop",
        question="which cities?",
        examples=frozenset(
            {ExampleTuple.from_values(("Paris",)), ExampleTuple.from_values(("Oslo",))}
        ),
    )
    text = serialize_task(task, schemas["shop"])
    lines = text.split("\n")
    assert lines[0] == "which cities?"
    assert lines[1] == "---"
    assert lines[2].startswith("customers ( customer_id : Integer")
    assert lines[4] == "---"
    assert lines[5] == '["Oslo"]'
    assert lines[6] == '["Paris"]'


def test_serialize_task_without_examples(schemas):
    task = TaskInstance(id="t", db_id="shop", question="q")
    assert serialize_task(task, schemas["shop"]).endswith("no examples")


def test_refine_schema_keeps_a_column_the_database_lacks(tmp_path, traced_statements):
    """A ``tables.json`` column or table the database lacks keeps its
    declared type: SQLite refuses to prepare its sample, so the sample
    never runs (a statement that cannot prepare is never traced)."""
    path = database_path(tmp_path, "gap")
    path.parent.mkdir()
    with closing(sqlite3.connect(path)) as conn:
        conn.execute("CREATE TABLE t (x NUMBER, `a``b` NUMBER)")
        conn.execute("INSERT INTO t VALUES (2.5, 3.5)")
        conn.commit()
    columns = (
        Column("x", ColumnType.INTEGER),
        Column("a`b", ColumnType.INTEGER),
        Column("ghost", ColumnType.INTEGER),
    )
    gone = Table("gone", (Column("y", ColumnType.INTEGER),))
    raw = DatabaseSchema("gap", (Table("t", columns), gone))
    refined = refine_schema(open_database(tmp_path, "gap"), raw)
    assert refined.column_type("t", "x") is ColumnType.REAL
    assert refined.column_type("t", "a`b") is ColumnType.REAL
    assert refined.column_type("t", "ghost") is ColumnType.INTEGER
    assert refined.column_type("gone", "y") is ColumnType.INTEGER
    assert len(traced_statements) == 2
    assert not any("ghost" in statement for statement in traced_statements)


def _number_database(tmp_path, db_id: str, tables: dict[str, list[tuple]]):
    """A database of NUMBER columns ``c0``, ``c1``, … per table, filled
    with ``tables``' rows, and its schema with every column Integer."""
    path = database_path(tmp_path, db_id)
    path.parent.mkdir()
    schema_tables = []
    with closing(sqlite3.connect(path)) as conn:
        for name, rows in tables.items():
            names = [f"c{index}" for index in range(len(rows[0]))]
            declared = ", ".join(f"{column} NUMBER" for column in names)
            conn.execute(f"CREATE TABLE {name} ({declared})")
            marks = ", ".join("?" * len(names))
            conn.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
            columns = tuple(Column(c, ColumnType.INTEGER) for c in names)
            schema_tables.append(Table(name, columns))
        conn.commit()
    schema = DatabaseSchema(db_id, tuple(schema_tables))
    return open_database(tmp_path, db_id), schema


def test_refine_schema_sends_one_statement_a_table(tmp_path, traced_statements):
    rows = [(i, i + 0.5, 2 * i) for i in range(150)]
    db, raw = _number_database(tmp_path, "two", {"t": rows, "u": rows[:3]})
    refined = refine_schema(db, raw)
    assert len(traced_statements) == 2
    for table in ("t", "u"):
        assert refined.column_type(table, "c0") is ColumnType.INTEGER
        assert refined.column_type(table, "c1") is ColumnType.REAL
        assert refined.column_type(table, "c2") is ColumnType.INTEGER


def test_refine_schema_samples_a_column_that_reads_null_on_its_own(
    tmp_path, traced_statements
):
    """A full table sample that reads NULL in a column saw fewer than
    ``REFINE_SAMPLE`` of its values, so the column is sampled alone and
    still finds a fraction stored past the table sample."""
    rows = [(i, None, None) for i in range(150)]
    rows[149] = (149, 2.5, None)
    db, raw = _number_database(tmp_path, "late", {"t": rows})
    refined = refine_schema(db, raw)
    assert refined.column_type("t", "c0") is ColumnType.INTEGER
    assert refined.column_type("t", "c1") is ColumnType.REAL
    assert refined.column_type("t", "c2") is ColumnType.INTEGER
    assert len(traced_statements) == 3


@pytest.mark.parametrize("stored", ["1e999", "-1e999"], ids=["inf", "-inf"])
def test_refine_schema_widens_an_infinite_number_column(tmp_path, stored):
    path = database_path(tmp_path, "inf")
    path.parent.mkdir()
    with closing(sqlite3.connect(path)) as conn:
        conn.execute("CREATE TABLE t (x NUMBER, n NUMBER)")
        conn.execute(f"INSERT INTO t VALUES ({stored}, 3.0)")
        conn.commit()
    columns = (Column("x", ColumnType.INTEGER), Column("n", ColumnType.INTEGER))
    raw = DatabaseSchema("inf", (Table("t", columns),))
    refined = refine_schema(open_database(tmp_path, "inf"), raw)
    assert refined.column_type("t", "x") is ColumnType.REAL
    assert refined.column_type("t", "n") is ColumnType.INTEGER
