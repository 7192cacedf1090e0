"""Checks on the source tree itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "pinkey").glob("*.py"))


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


@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "__init__.py"],
                         ids=lambda path: path.name)
def test_module_level_imports_are_used(path):
    # a name imported at module level and never read is dead code, such as
    # a helper left behind by a rewrite (``__init__`` imports to re-export)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in read)
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every CLI run pays for what ``import pinkey.cli`` loads; ``dataclasses``
    # alone pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, pinkey.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_no_cap_parameters():
    # each size cap is one module constant read where its check runs, so
    # no function takes a cap as an argument
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                arguments = node.args
                for arg in [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                            arguments.vararg, arguments.kwarg]:
                    if arg is not None and (arg.arg == "cap" or arg.arg.endswith("_cap")):
                        found.append(f"{path.name}:{node.lineno} {arg.arg}")
    assert found == []


def test_readme_lists_every_cap():
    # the README's cap list names each module-level ``*_CAP`` constant
    # and the terminal limit on models, and nothing else
    constants = {"model.MAX_TERMINALS"}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                constants.update(f"{path.stem}.{target.id}" for target in node.targets
                                 if isinstance(target, ast.Name)
                                 and target.id.endswith("_CAP"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"There are (\w+):(.*?)\.\s", readme, re.S)
    assert listed is not None
    names = re.findall(r"`([\w.]+)`", listed.group(2))
    assert sorted(names) == sorted(constants)
    assert listed.group(1) == ["one", "two", "three", "four", "five", "six", "seven",
                               "eight", "nine", "ten"][len(names) - 1]
