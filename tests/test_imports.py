"""Every module-level import in ``src/`` is used by its module, every
function parameter by its function, every private definition by its
module, and every public function and class by ``src/`` or a reader
outside the tests.

Standard-library (``ast``) forms of a linter's unused-import,
unused-argument and unused-private-definition rules.  An import may stay unused when its name is in
the module's ``__all__``, or when its line carries ``# noqa: F401`` with
a reason, written after the marker or as a comment on the line above.
A parameter may stay unused when it is ``self`` or ``cls``, when its
name starts with ``_``, or when the function is a stub whose body is
``...`` or a docstring only, as in a protocol.  A private definition
is a ``_``-prefixed, non-dunder module-level function, class or constant,
or method; no module in ``src/`` imports another's private names (also
checked here), so a definition its own module never reads is dead.  A public module-level
function, class or constant must be read by some module in ``src/``, by
name or as an attribute, or be named in ``perfbench/*.py`` or the README:
one that only the tests read belongs in ``tests/fixtures/``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src"
_NOQA = "# noqa: F401"


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_level(node: ast.AST):
    """The nodes outside every function and class body, the function and
    class definitions themselves included."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, _DEFINITIONS):
            yield from _module_level(child)


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    annotations = [
        annotation
        for node in ast.walk(tree)
        for annotation in (
            getattr(node, "annotation", None),
            getattr(node, "returns", None),
        )
        if annotation is not None
    ]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a string literal, not a quoted type
                    continue
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _waived(lines: list[str], number: int) -> bool:
    """Whether line ``number`` (1-based) carries the marker and a reason."""
    line = lines[number - 1]
    if _NOQA not in line:
        return False
    after = line.split(_NOQA, 1)[1].strip()
    above = lines[number - 2].strip() if number > 1 else ""
    return bool(after) or above.startswith("#")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for each module-level import ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree) | _exported(tree)
    unused = []
    for statement in _module_level(tree):
        if not isinstance(statement, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
            continue
        for alias in statement.names:
            name = alias.asname or alias.name.split(".", 1)[0]
            if name == "*" or name in used:
                continue
            if _waived(lines, alias.lineno) or _waived(lines, statement.lineno):
                continue
            unused.append((alias.lineno, name))
    return unused


def test_the_check_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import re  # noqa: F401\n"
        "import sys  # noqa: F401 (looked up by name elsewhere)\n"
        "# Unused here: kept for callers.\n"
        "import json  # noqa: F401\n"
        "from typing import Any, Callable, Mapping\n"
        "from collections import Counter\n"
        "__all__ = ['Counter']\n"
        "def f(x: 'Mapping[str, int]', y: Literal['a b']) -> Callable:\n"
        "    import shutil\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(2, "osp"), (3, "re"), (7, "Any")]


def test_no_module_in_src_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(_SRC)}:{line} {name}"
        for path in sorted(_SRC.rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def _is_stub(function: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether ``function``'s body is ``...`` or a docstring, or both."""
    return all(
        isinstance(statement, ast.Expr)
        and isinstance(statement.value, ast.Constant)
        and (statement.value.value is ... or isinstance(statement.value.value, str))
        for statement in function.body
    )


def unused_parameters(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for each parameter of a function in ``source``
    that the function's body, nested functions included, never reads."""
    unused = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if _is_stub(function):
            continue
        read = {
            node.id
            for statement in function.body
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        arguments = function.args
        parameters = (
            *arguments.posonlyargs, *arguments.args, arguments.vararg,
            *arguments.kwonlyargs, arguments.kwarg,
        )
        for parameter in parameters:
            if parameter is None or parameter.arg in ("self", "cls"):
                continue
            if parameter.arg.startswith("_") or parameter.arg in read:
                continue
            unused.append((parameter.lineno, parameter.arg))
    return sorted(unused)


def test_the_parameter_check_finds_what_it_should():
    source = (
        "class Model(Protocol):\n"
        "    def call(self, prompt: str) -> str:\n"
        "        \"\"\"A stub.\"\"\"\n"
        "    def other(self, prompt: str) -> str: ...\n"
        "class Impl:\n"
        "    @classmethod\n"
        "    def make(cls, size, _hint):\n"
        "        return cls()\n"
        "def f(a, b, *args, c, d=1, **kwargs):\n"
        "    b = 2\n"
        "    def inner(e):\n"
        "        return a + c\n"
        "    return inner\n"
    )
    assert unused_parameters(source) == [
        (7, "size"), (9, "args"), (9, "b"), (9, "d"), (9, "kwargs"), (11, "e"),
    ]


def test_no_function_in_src_takes_a_parameter_it_never_reads():
    found = [
        f"{path.relative_to(_SRC)}:{line} {name}"
        for path in sorted(_SRC.rglob("*.py"))
        for line, name in unused_parameters(path.read_text())
    ]
    assert found == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree: ast.Module):
    """``(node, name, is_method)`` for each module-level function, class
    and assigned name, and each method."""
    for node in _module_level(tree):
        if isinstance(node, _DEFINITIONS):
            yield node, node.name, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name, name.id, False
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield method, method.name, True


def _read_attributes(tree: ast.Module) -> set[str]:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unused_private_definitions(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for each private definition in ``source`` that
    the module never reads: a module-level one by its name, a method by
    its name or as an attribute."""
    tree = ast.parse(source)
    names = _used_names(tree)
    attributes = _read_attributes(tree)
    return sorted(
        (node.lineno, name)
        for node, name, is_method in _definitions(tree)
        if _is_private(name)
        and name not in names
        and not (is_method and name in attributes)
    )


def test_the_private_definition_check_finds_what_it_should():
    source = (
        "_USED = 1\n"
        "_UNUSED = 2\n"
        "_ANNOTATED: int = 3\n"
        "__version__ = '1'\n"
        "def _helper():\n"
        "    return _USED\n"
        "def _orphan():\n"
        "    pass\n"
        "class _Quoted:\n"
        "    def __init__(self):\n"
        "        self._run()\n"
        "    def _run(self):\n"
        "        pass\n"
        "    def _idle(self):\n"
        "        pass\n"
        "class _Lonely:\n"
        "    pass\n"
        "def public(x: '_Quoted') -> None:\n"
        "    _helper()\n"
    )
    assert unused_private_definitions(source) == [
        (2, "_UNUSED"), (3, "_ANNOTATED"), (7, "_orphan"), (14, "_idle"), (16, "_Lonely"),
    ]


def test_no_module_in_src_defines_a_private_name_it_never_reads():
    found = [
        f"{path.relative_to(_SRC)}:{line} {name}"
        for path in sorted(_SRC.rglob("*.py"))
        for line, name in unused_private_definitions(path.read_text())
    ]
    assert found == []


def _in_package(statement: ast.ImportFrom) -> bool:
    return statement.level > 0 or (statement.module or "").startswith("sqlsynth")


def private_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for each private name ``source`` takes from
    another module of the package: imported by name, or read as an
    attribute of a package module or name it imports."""
    tree = ast.parse(source)
    found = []
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _in_package(node):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append((node.lineno, alias.name))
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("sqlsynth"):
                    imported.add(alias.asname or alias.name.split(".", 1)[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and _is_private(node.attr)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
        ):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_the_private_import_check_finds_what_it_should():
    source = (
        "import sys\n"
        "import sqlsynth.tasks as tasks\n"
        "from os import _exit\n"
        "from . import grammar\n"
        "from .query import Query, _render\n"
        "from sqlsynth.lexemes import _SPLIT as split\n"
        "def f(schema):\n"
        "    from .errors import _fail\n"
        "    sys._getframe()\n"
        "    schema._by_name\n"
        "    Query._cached\n"
        "    return grammar._parse(tasks._load)\n"
    )
    assert private_imports(source) == [
        (5, "_render"), (6, "_SPLIT"), (8, "_fail"),
        (11, "_cached"), (12, "_load"), (12, "_parse"),
    ]


def test_no_module_in_src_imports_a_private_name_of_another():
    """The private-definition check above rests on this: a private name
    read only by another module would look dead to its own."""
    found = [
        f"{path.relative_to(_SRC)}:{line} {name}"
        for path in sorted(_SRC.rglob("*.py"))
        for line, name in private_imports(path.read_text())
    ]
    assert found == []


def unread_public_definitions(
    sources: dict[str, str], mentions: str
) -> list[tuple[str, int, str]]:
    """``(module, line, name)`` for each public module-level function,
    class and constant in ``sources`` that no source reads, by name or as
    an attribute, and that ``mentions`` never names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set(re.findall(r"\w+", mentions))
    for tree in trees.values():
        read |= _used_names(tree) | _read_attributes(tree)
    return sorted(
        (module, node.lineno, name)
        for module, tree in trees.items()
        for node, name, is_method in _definitions(tree)
        if not is_method and not name.startswith("_") and name not in read
    )


def test_the_public_definition_check_finds_what_it_should():
    sources = {
        "a.py": (
            "def used():\n"
            "    return Quoted\n"
            "def orphan():\n"
            "    pass\n"
            "def documented():\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
            "class Quoted:\n"
            "    def method(self):\n"
            "        pass\n"
            "class Lonely:\n"
            "    pass\n"
            "LIMIT = 3\n"
            "SPARE: int = 4\n"
            "__all__ = ['used']\n"
        ),
        "b.py": (
            "import a\n"
            "def caller(x: 'Annotated') -> None:\n"
            "    a.used()\n"
            "    return a.LIMIT\n"
            "class Annotated:\n"
            "    pass\n"
            "SHARED, ALONE = 1, 2\n"
            "TIMEOUT = SHARED\n"
        ),
    }
    assert unread_public_definitions(sources, "call documented() first") == [
        ("a.py", 3, "orphan"), ("a.py", 12, "Lonely"), ("a.py", 15, "SPARE"),
        ("b.py", 2, "caller"), ("b.py", 7, "ALONE"), ("b.py", 8, "TIMEOUT"),
    ]


def test_no_public_definition_in_src_is_read_only_by_tests():
    sources = {
        str(path.relative_to(_SRC)): path.read_text()
        for path in sorted(_SRC.rglob("*.py"))
    }
    mentions = "\n".join(
        path.read_text()
        for path in [_ROOT / "README.md", *sorted((_ROOT / "perfbench").glob("*.py"))]
    )
    assert unread_public_definitions(sources, mentions) == []
