import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "unused_imports.py"


def _tool():
    spec = importlib.util.spec_from_file_location("unused_imports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unused_imports_flags_only_names_never_read():
    source = "\n".join([
        "from __future__ import annotations",
        "import json",
        "import os.path",
        "import numpy as np",
        "from a import b, c as d, e",
        "from f import *",
        "__all__ = ['e']",
        "def run() -> None:",
        "    os.path.join(np.zeros(1), d)",
    ])
    assert _tool().unused_imports(source) == [(2, "json"), (5, "b")]


def test_unused_imports_skips_init_files_and_reports_by_line(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import f\n")
    (package / "mod.py").write_text("import sys\nimport json\n\nf = json.dumps\n")
    tool = _tool()
    assert tool.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out == f"{package / 'mod.py'}:1: sys\n"
    (package / "mod.py").write_text("import json\n\nf = json.dumps\n")
    assert tool.main([str(package / "mod.py")]) == 0
    assert capsys.readouterr().out == ""


def test_the_repository_has_no_unused_imports(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert _tool().main(["src", "tests", "tools", "demos"]) == 0, capsys.readouterr().out
