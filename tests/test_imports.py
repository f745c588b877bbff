"""Every name a library module imports is used in it (stdlib `ast` only).
The package's `__init__.py` imports names to re-export them and is exempt."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "survtree"


def unused_imports(source: str) -> list[str]:
    """The names `source` binds by an import and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_what_is_never_read():
    source = "import os.path\nimport sys as system\nfrom a import b, c as d\nfrom __future__ import annotations\nos.sep; d()\n"
    assert unused_imports(source) == ["b", "system"]


def test_every_module_uses_each_name_it_imports():
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert len(modules) >= 5
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}
