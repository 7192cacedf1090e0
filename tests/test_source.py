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


def test_only_the_value_base_names_mapping_proxies():
    # ``Value._store`` makes every table read-only; no type wraps its own
    named = [path.name for path in SOURCES
             if "MappingProxyType" in path.read_text(encoding="utf-8")]
    assert named == ["value.py"]


def test_equality_overrides_compare_meaning():
    # ``Value`` compares and hashes the stored fields; only a type whose
    # equality reads meaning instead (rows, the rational vertex) overrides it
    found = set()
    for path in SOURCES:
        if path.name == "value.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                found.update(f"{node.name}.{item.name}" for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and item.name in ("__eq__", "__hash__"))
    assert found == {"Gf2Matrix.__eq__", "Gf2Matrix.__hash__",
                     "SimplexResult.__eq__", "SimplexResult.__hash__"}


def test_value_constructors_take_their_fields_in_order():
    # ``replace`` and pickling pass ``_fields`` back to the constructor, so
    # its parameters are those names, in that order, and nothing else
    import inspect

    import pinkey
    from pinkey.simplex import SimplexResult
    from pinkey.value import Value

    types = {obj for obj in vars(pinkey).values()
             if isinstance(obj, type) and issubclass(obj, Value)} | {SimplexResult}
    mismatched = {}
    for cls in sorted(types, key=lambda cls: cls.__name__):
        parameters = tuple(inspect.signature(cls.__init__).parameters)[1:]
        if parameters != cls._fields:
            mismatched[cls.__name__] = (parameters, cls._fields)
    assert len(types) > 10 and mismatched == {}


def test_no_value_type_states_its_fields():
    # ``Value`` reads each type's fields off its constructor when the class
    # is made, so a class body that assigns ``_fields`` would state them twice
    stated = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    targets = (item.targets if isinstance(item, ast.Assign) else
                               [item.target] if isinstance(item, (ast.AnnAssign, ast.AugAssign))
                               else [])
                    if any(isinstance(target, ast.Name) and target.id == "_fields"
                           for target in targets):
                        stated.add(f"{path.name}:{node.name}")
    assert stated == {"value.py:Value"}


def test_every_value_stores_its_fields():
    # equality, hashing, repr and pickling read the fields, so a field
    # that a property rebuilt would be built again on each of them
    from test_value import _every_value

    from pinkey.value import replace

    unstored = {type(value).__name__: [name for name in value._fields
                                       if name not in vars(value)]
                for value in map(replace, _every_value())}
    assert {name: missing for name, missing in unstored.items() if missing} == {}
