from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_code(heading: str) -> str:
    """The first python block under a ``## heading`` of the README."""
    text = README.read_text()
    section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, f"no python block under {heading!r}"
    return match.group(1)


def test_library_use_example_runs(fixture_paths, capsys):
    code = _section_code("Library use")
    assert "/tmp/fixtures" in code
    code = code.replace("/tmp/fixtures", str(fixture_paths.root))
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("SearchStatus.SOLVED ")
