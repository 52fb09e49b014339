"""The layer table of DESIGN.md §1, checked statically.

Every module under ``src/repro`` imports, at module level, only from its
own layer or a lower one.  Imports inside a function are exempt: they are
the lazy loads that keep an ATM-off Session from loading the ATM layer.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
DESIGN = PACKAGE.parents[1] / "DESIGN.md"


def layer_table() -> dict[str, int]:
    """``{package: layer}`` from the ``| layer | packages |`` table."""
    section = DESIGN.read_text().split("## 1. Layering", 1)[1].split("\n## ", 1)[0]
    table = {}
    for layer, cells in re.findall(r"^\| (\d+) \| (.+?) \|$", section, re.MULTILINE):
        for name in re.findall(r"`([\w.]+)`", cells):
            table[name] = int(layer)
    return table


def package_of(module: str) -> str:
    """The layer-table name of a ``repro`` module or of a file path under it."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "__init__"


def module_level_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, module)`` of every ``repro`` import outside a function."""
    found = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0 and child.module:
                found.append((child.lineno, child.module))
            visit(child)

    visit(tree)
    return [(line, name) for line, name in found if name.split(".")[0] == "repro"]


def violations() -> list[str]:
    table = layer_table()
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE)
        own = relative.parts[0] if len(relative.parts) > 1 else relative.stem
        for line, name in module_level_imports(ast.parse(path.read_text())):
            target = package_of(name)
            if table[target] > table[own]:
                found.append(f"{relative}:{line} imports {name} (layer {table[target]} "
                             f"above {own}'s {table[own]})")
    return found


def test_the_table_names_every_package():
    table = layer_table()
    assert sorted(table.values())[0] == 0 and len(set(table.values())) == 6
    on_disk = {path.name for path in PACKAGE.iterdir() if (path / "__init__.py").exists()}
    on_disk |= {path.stem for path in PACKAGE.glob("*.py")}
    assert on_disk == set(table)


def test_no_module_imports_upward():
    assert violations() == []
