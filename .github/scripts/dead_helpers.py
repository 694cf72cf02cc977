"""Fail when a private module-level helper or a module-level import of
curveclass is never used.

    python .github/scripts/dead_helpers.py [SRC]

SRC defaults to this checkout's src/.  A module-level def or class whose
name starts with one underscore (in SRC/curveclass) counts as used when a
name, attribute or import anywhere in SRC outside its own definition
names it.  A name bound by a module-level import in SRC/curveclass/*.py
(not __init__.py) counts as used when its own module reads it outside
its import statements.  Prints each unused helper or import and exits 1
if there is any.
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

# read from outside: bench/test_bench.py reads functions.upoly_gcd
KEPT_IMPORTS = {("functions.py", "upoly_gcd")}


def unused_imports(path, tree):
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and (path.name, bound) not in KEPT_IMPORTS:
                    yield f"{path}:{stmt.lineno}: import {bound} is never used"


dead += [
    line
    for path, tree in trees.items()
    if path.parent.name == "curveclass" and path.name != "__init__.py"
    for line in unused_imports(path, tree)
]
print("\n".join(dead) or "no unused private helpers or imports")
sys.exit(1 if dead else 0)
