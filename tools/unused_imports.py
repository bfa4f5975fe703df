"""List imported names that a module never reads.

    python tools/unused_imports.py src tests tools

Parses every ``*.py`` file under the given paths (or the files named) with
the standard library's ``ast`` and prints ``path:line: name`` for each name
an ``import`` statement binds that no expression of the module loads.  A
name listed in the module's ``__all__`` counts as read, ``__future__``
imports are skipped, and so is every ``__init__.py``, whose imports are
re-exports.  Exits 1 when it prints anything.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    out: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                out.update(e.value for e in node.value.elts
                           if isinstance(e, ast.Constant) and isinstance(e.value, str))
    return out


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    read = _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [(line, name) for line, name in imported if name not in read]


def _files(paths: list[str]):
    for arg in paths:
        path = Path(arg)
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv: list[str]) -> int:
    found = 0
    for path in _files(argv):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text()):
            print(f"{path}:{line}: {name}")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["."]))
