"""Search-based synthesis of SQL queries from questions and example rows.

The package root exports what a library caller needs to load a dataset,
build a model and run a search; every other name is imported from the
module that defines it.
"""

from .checker import make_checker
from .lm import HttpCompletionModel, ScriptedModel
from .search import SearchConfig, run_search
from .tasks import (
    ExampleTuple,
    TaskInstance,
    load_schemas,
    load_tasks,
    open_database,
    refine_schema,
)

__version__ = "0.1.0"

__all__ = [
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
