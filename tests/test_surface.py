"""The package's public names, and the entry points the benchmark's tracer
patches by name (``perfbench/tracer.py``), which the tier-1 suite would
otherwise not notice going missing."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import sqlsynth

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_public_name_resolves():
    assert [name for name in sqlsynth.__all__ if not hasattr(sqlsynth, name)] == []


def test_every_tracer_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # the tracer imports only the standard library
    missing = [
        (module, attribute)
        for module, attribute, *_ in tracer.ENTRY_POINTS
        if not hasattr(importlib.import_module(module), attribute)
    ]
    assert tracer.ENTRY_POINTS and missing == []


def test_import_loads_no_third_party_http_stack():
    """The package has no runtime dependencies: the HTTP client is
    ``http.client``, and ``requests`` with ``urllib3`` would add about 8 MB
    of resident memory to every process that imports the package."""
    src = str(Path(sqlsynth.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, sqlsynth; print({'requests', 'urllib3'} & set(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.stdout.strip() == "set()"
