"""Every name a module imports is read somewhere in that module, and the package imports at module level."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the tracer test imports haarsys.cli only so that the tracer finds the module loaded
ALLOWED = {("tests/test_tracer.py", "haarsys")}


def imported_never_read(path: Path) -> list[tuple[str, int]]:
    """(name, line) of each name path imports, __future__ aside, but never reads nor lists in __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted((name, line) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    for path in sorted([*ROOT.glob("src/haarsys/*.py"), *ROOT.glob("tests/*.py")]):
        where = path.relative_to(ROOT).as_posix()
        unused.extend(
            f"{where}:{line}: {name}"
            for name, line in imported_never_read(path)
            if (where, name) not in ALLOWED
        )
    assert unused == []


def test_the_scan_sees_an_unused_import_and_its_use(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from a import b, c\n"
        "from d import e\n"
        "__all__ = ['e']\n"
        "x: b = os.sep\n",
        encoding="utf-8",
    )
    assert imported_never_read(module) == [("c", 4), ("j", 3)]


def imports_inside_functions(path: Path) -> list[int]:
    """The line of each import statement inside a function body of path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = (fn for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)))
    imports = (node for fn in functions for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom)))
    return sorted({node.lineno for node in imports})


def test_no_package_module_imports_inside_a_function():
    # a local import would hide an import cycle between the package modules
    local = [
        f"{path.relative_to(ROOT).as_posix()}:{line}"
        for path in sorted(ROOT.glob("src/haarsys/*.py"))
        for line in imports_inside_functions(path)
    ]
    assert local == []


def test_the_scan_sees_an_import_inside_a_function(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\n"
        "def f():\n"
        "    from a import b\n"
        "    def g():\n"
        "        import c\n"
        "    return b\n",
        encoding="utf-8",
    )
    assert imports_inside_functions(module) == [3, 5]
