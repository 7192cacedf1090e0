"""Checks on the source tree itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "pinkey").glob("*.py"))


def test_sources_found():
    assert any(path.name == "protocol.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # invariant checks raise explicitly: ``python -O`` strips assert
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


def test_public_names_sorted_unique_and_defined():
    import pinkey

    names = pinkey.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(pinkey, name)] == []
