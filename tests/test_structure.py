import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "twoec"


def _callers(name: str) -> set[tuple[str, str]]:
    """(file, top-level definition) of every call to `name` in the package."""
    return {(path.name, getattr(top, "name", "<module>"))
            for path in sorted(SRC.glob("*.py"))
            for top in ast.parse(path.read_text(encoding="utf-8")).body
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                      getattr(node.func, "attr", None))}


def test_only_the_walk_builds_aux_graphs():
    # blocks(), the block certificate and the aux filters read the two
    # auxiliary-graph levels from one walk and build none themselves
    assert _callers("aux_graphs") == {("blocks.py", "_decompose")}
    assert _callers("_contract") == {("blocks.py", "aux_graphs"), ("blocks.py", "_decompose")}
