"""Static checks on the package source: no module-level import or constant
that nothing reads."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "ipir"


def module_names(tree: ast.Module):
    """(name, line) of each import and each plain assignment at module
    level, ``from __future__`` imports aside."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def unread_names(sources: dict) -> list[str]:
    """``module:line name`` for each module-level import or constant in
    ``sources`` (module name -> source text) that no module reads: by name
    in its own module, as an attribute anywhere, or through an import of it
    by another module. The package ``__init__``'s imports are its exports."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    attributes = set()
    imported = set()  # (module, name) imported by another module
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                imported.update((node.module, alias.name) for alias in node.names)
    unread = []
    for module, tree in trees.items():
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for name, line in module_names(tree):
            if module == "__init__" or name == "__version__":
                continue
            if name in loaded or name in attributes or (module, name) in imported:
                continue
            unread.append(f"{module}:{line} {name}")
    return unread


def test_no_unread_module_level_name():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert "audit" in sources and "core" in sources
    assert unread_names(sources) == []


def test_the_check_finds_unread_names():
    sources = {
        "__init__": "from .a import Used, Exported\n__version__ = '0'\n",
        "a": (
            "from __future__ import annotations\n"
            "import math\n"
            "import os.path\n"
            "from .b import helper, Unused\n"
            "ONE = 1\n"
            "TWO = 2\n"
            "Used = Exported = None\n"
            "def f():\n"
            "    return math.pi + helper() + os.sep\n"
        ),
        "b": "LIMIT = 3\nUnused = 0\ndef helper():\n    return 0\n",
        "c": "from . import a\nSHARED = a.TWO\n",
    }
    assert unread_names(sources) == [
        "a:4 Unused",
        "a:5 ONE",
        "b:1 LIMIT",
        "c:2 SHARED",
    ]
