"""Every name a library module imports is used in it, and every private
helper a module defines is read somewhere in the package (stdlib `ast`
only). The package's `__init__.py` imports names to re-export them and is
exempt from the first rule."""

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


def private_definitions(source: str) -> set[str]:
    """The module-level private names (`_name`, not dunder) `source` defines:
    functions, classes and assigned constants."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def names_read(source: str) -> set[str]:
    """Every name `source` reads, bare (`x`) or as an attribute (`m.x`)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_private_definitions_and_reads_find_a_dead_helper():
    source = "_A = 1\n_b: int = 2\ndef _used(): return _A\ndef _dead(): pass\nclass _K: pass\n__x__ = 0\n_used(); m._K\n"
    assert private_definitions(source) == {"_A", "_b", "_used", "_dead", "_K"}
    assert private_definitions(source) - names_read(source) == {"_b", "_dead"}


def test_every_private_helper_is_read_in_the_package():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*(names_read(source) for source in sources.values()))
    dead = {name: sorted(private_definitions(source) - read) for name, source in sources.items()}
    assert {name: names for name, names in dead.items() if names} == {}
