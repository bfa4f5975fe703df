import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "twoec"
# the code outside tests/ that may use the package: the package itself,
# the tools, the demos and the benchmark harness
USERS = [path for folder in (SRC, ROOT / "tools", ROOT / "demos", ROOT / "perfbench")
         for path in sorted(folder.glob("*.py"))]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _callers(name: str) -> set[tuple[str, str]]:
    """(file, top-level definition) of every call to `name` in the package."""
    return {(path.name, getattr(top, "name", "<module>"))
            for path in sorted(SRC.glob("*.py"))
            for top in _tree(path).body
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                      getattr(node.func, "attr", None))}


def _imported(path: Path) -> set[str]:
    """The last dotted part of every module or name that `path` imports."""
    return {name.rsplit(".", 1)[-1]
            for node in ast.walk(_tree(path)) if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in [getattr(node, "module", None) or ""] + [a.name for a in node.names]}


def _read(path: Path) -> set[str]:
    """Every name that `path` reads, imports or reaches as an attribute."""
    return {name for node in ast.walk(_tree(path))
            for name in (getattr(node, "id", None), getattr(node, "attr", None),
                         node.name if isinstance(node, ast.alias) else None) if name}


def _all(path: Path) -> list[str]:
    return [name for node in _tree(path).body if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
            for name in ast.literal_eval(node.value)]


def test_only_the_walk_builds_aux_graphs():
    # blocks(), the block certificate and the aux filters read the two
    # auxiliary-graph levels from one walk and build none themselves; the
    # public aux_graphs cuts the same first level for the package's users,
    # and the walk reverses that level once, as one flow graph C with one
    # dominator tree and one bridge pass, and reads each H^R in place in C,
    # not graph by graph
    assert _callers("aux_graphs") == set()
    assert _callers("_contract") == {("blocks.py", "aux_graphs"), ("blocks.py", "_decompose")}
    assert _callers("_rooted_reverse") == {("blocks.py", "_decompose")}
    assert {top for path, top in _callers("Digraph") if path == "blocks.py"} == {
        "_contract", "_regions", "_components", "condense"}
    assert {top for path, top in _callers("flow_bridges") if path == "blocks.py"} == {"_contract"}
    assert {top for path, top in _callers("reverse") if path == "blocks.py"} == set()
    assert {top for path, top in _callers("dominator_tree") if path == "blocks.py"} == {
        "aux_graphs", "_decompose"}


def test_the_package_ships_only_what_runs():
    # every module has a user outside tests/, or is a script entry point,
    # and so has every name in a module's __all__; code that only tests
    # call lives under tests/
    scripts = set(re.findall(r'"twoec\.(\w+):', (ROOT / "pyproject.toml").read_text()))
    imported = set().union(*(_imported(path) for path in USERS))
    read = set().union(*(_read(path) for path in USERS))
    modules = sorted(SRC.glob("*.py"))
    assert [p.stem for p in modules if p.stem not in imported | scripts | {"__init__"}] == []
    assert [(p.stem, name) for p in modules for name in _all(p) if name not in read] == []


def test_filters_leave_the_aux_graph_layout_to_blocks():
    # the aux filters take each second-level graph whole, with its blocks,
    # from blocks._regions, and rebuild none
    tree = _tree(SRC / "filters.py")
    assert not [node for node in ast.walk(tree) if getattr(node, "attr", None) == "vertex_origin"]
    assert [top for path, top in _callers("Digraph") if path == "filters.py"] == []
