"""Fail when a private module-level helper of curveclass is never used.

    python .github/scripts/dead_helpers.py [SRC]

SRC defaults to this checkout's src/.  A module-level def or class whose
name starts with one underscore (in SRC/curveclass) counts as used when a
name, attribute or import anywhere in SRC outside its own definition
names it.  Prints each unused helper and exits 1 if there is any.
"""

import ast
import sys
from pathlib import Path

src = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[2] / "src")
trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.rglob("*.py"))}


def names(stmt):
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


uses = [(stmt, set(names(stmt))) for tree in trees.values() for stmt in tree.body]
dead = [
    f"{path}:{stmt.lineno}: {stmt.name} is never used"
    for path, tree in trees.items() if "curveclass" in path.parts
    for stmt in tree.body
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    and stmt.name.startswith("_") and not stmt.name.startswith("__")
    and not any(stmt.name in used for other, used in uses if other is not stmt)
]
print("\n".join(dead) or "no unused private helpers")
sys.exit(1 if dead else 0)
