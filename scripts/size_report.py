#!/usr/bin/env python
"""Size of the codebase: the numbers a simplicity PR reports in CHANGES.md.

    python scripts/size_report.py [REF]

For the working tree — and, given a commit, tag or branch, for that ``REF``
side by side (checked out into a temporary ``git worktree``) — prints:

* raw and code lines of ``src/**/*.py`` and ``scripts/*.py`` (code = lines
  holding a token that is neither blank, comment nor docstring);
* configuration fields per section and in total (``ReproConfig().to_dict()``
  of that tree);
* names exported through ``__all__``, modules under ``src/repro/`` and the
  ``repro`` modules a fresh interpreter holds after ``import repro``;
* bytes of each root-level ``*.md`` file and their total (the docs).
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

from ref_worktree import REPO_ROOT, ref_worktree

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str, module: ast.Module) -> int:
    """Lines of ``source`` that hold code: not blank, comment or docstring."""
    docstrings: set[int] = set()
    for node in ast.walk(module):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def exported_names(module: ast.Module) -> int:
    """How many names the module's ``__all__`` literal lists."""
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return len(node.value.elts)
    return 0


def ask(tree: Path, code: str):
    """What ``code`` prints as JSON in a fresh interpreter of the tree's ``src``."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def config_fields(tree: Path) -> dict[str, int]:
    """Fields per config section, asked of the tree's own ``ReproConfig``."""
    return ask(tree, "import json; from repro.session import ReproConfig; "
                     "print(json.dumps({s: len(v) for s, v in ReproConfig().to_dict().items()}))")


def modules_loaded(tree: Path) -> int:
    """``repro`` modules in ``sys.modules`` after ``import repro`` in that tree."""
    return ask(tree, "import sys, repro; "
                     "print(sum(name.split('.')[0] == 'repro' for name in sys.modules))")


def measure(tree: Path) -> dict[str, int]:
    rows: dict[str, int] = {}
    exported = 0
    for label, files in (
        ("src", sorted((tree / "src").rglob("*.py"))),
        ("scripts", sorted((tree / "scripts").glob("*.py"))),
    ):
        raw = code = 0
        for path in files:
            source = path.read_text()
            module = ast.parse(source)
            raw += len(source.splitlines())
            code += code_lines(source, module)
            if label == "src":
                exported += exported_names(module)
        rows[f"{label} raw lines"] = raw
        rows[f"{label} code lines"] = code
    fields = config_fields(tree)
    for section, count in fields.items():
        rows[f"config fields: {section}"] = count
    rows["config fields: total"] = sum(fields.values())
    rows["__all__ names (src)"] = exported
    rows["modules under src/repro"] = len(list((tree / "src" / "repro").rglob("*.py")))
    rows["repro modules loaded by import repro"] = modules_loaded(tree)
    docs = {path.name: path.stat().st_size for path in sorted(tree.glob("*.md"))}
    for name, size in docs.items():
        rows[f"docs bytes: {name}"] = size
    rows["docs bytes: total"] = sum(docs.values())
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?",
                        help="commit, tag or branch to print beside the working tree")
    args = parser.parse_args(argv)

    new = measure(REPO_ROOT)
    width = max(map(len, new)) + 2
    if args.ref is None:
        for name, value in new.items():
            print(f"{name:<{width}}{value:>8}")
        return 0

    with ref_worktree(args.ref, "size_report_") as scratch:
        ref = measure(scratch / "ref")
    print(f"{'':<{width}}{args.ref[:12]:>12}{'tree':>10}{'change':>10}")
    for name, after in new.items():
        before = ref.get(name, 0)
        print(f"{name:<{width}}{before:>12}{after:>10}{after - before:>+10d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
