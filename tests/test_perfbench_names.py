"""Every name the benchmark tracer wraps must exist in pinkey.

The tracer only warns, during a traced run, when a wrapped name is
missing, so a refactor that drops or renames one would otherwise go
unnoticed. The tracer file is parsed, not imported, so no bytecode is
written next to it.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced_names() -> list[tuple[str, str]]:
    names = []
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.Assign):
            continue
        targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
        if targets & {"ENTRY_POINTS", "COUNTED_GENERATORS"}:
            for entry in node.value.elts:
                module, attr = (ast.literal_eval(e) for e in entry.elts[:2])
                names.append((module, attr))
    return names


def test_tracer_lists_both_tables():
    modules = {module for module, _ in _traced_names()}
    assert "pinkey.cli" in modules and "pinkey.partitions" in modules


@pytest.mark.parametrize("module, attr", _traced_names())
def test_traced_name_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr)
