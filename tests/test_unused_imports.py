"""No unused top-level import under ``src/repro``.

A standard-library stand-in for pyflakes' F401: every name a module
binds with a module-level ``import`` must be read somewhere in that
module — as a name, in a string annotation, or listed in ``__all__``.
Docstrings do not count.  ``# noqa: F401`` on the import statement
exempts it, and ``from __future__`` imports are always allowed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _names_in_strings(node: ast.AST) -> set:
    """Names inside string annotations such as ``"Dict[int, float]"``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (
            getattr(node, "annotation", None),
            getattr(node, "returns", None),
        ):
            if isinstance(annotation, ast.AST):
                used |= _names_in_strings(annotation)
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= _names_in_strings(node.value)
            used.update(
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            )
    return used


def unused_imports(path: Path) -> list:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = lines[node.lineno - 1 : node.end_lineno]
        if any("noqa: F401" in line for line in statement):
            continue
        for alias in node.names:
            if alias.name != "*":
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = _used_names(tree)
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_no_unused_imports_in_src():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in unused_imports(path)
    ]
    assert found == []


def test_scanner_flags_an_unused_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        '"""Mentions field only here."""\n'
        "from dataclasses import dataclass, field\n"
        "from typing import Dict, List  # noqa: F401\n"
        "from typing import Optional\n"
        "import os.path\n"
        "x: 'Optional[int]' = None\n"
        "print(dataclass, os.path)\n"
    )
    assert unused_imports(module) == [(2, "field")]
