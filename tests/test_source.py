"""Static checks on the package source: no module-level import or constant,
and no function, class or method, that nothing reads. Also: no test
expects a bare Exception, the README names every export of the package,
and its library sketch runs as written."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path, PurePosixPath

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "ipir"

# Defs that no module of the package reads, each with the file outside
# src/ and tests/ that reads it, as a path from the repository root. An
# entry that the package reads, that names no def, or whose file does not
# name its def fails the check, so the map cannot outlive its reasons.
OUTSIDE_READERS = {
    "pir.query_pattern": "bench/tracer.py",
    "net.RemoteTransport": "bench/workloads.py",
    "audit.mutual_information": "README.md",
    "audit.audit_leak_equivalence": "README.md",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# every failure of the package is a typed IpirError, so a test names it
BROAD_ERRORS = {"Exception", "BaseException"}


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


def module_defs(tree: ast.Module):
    """(name, node) of each function and class at module level, and
    (``Class.method``, node) of each method, classmethod and property of
    those classes, dunder methods aside."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def reads(tree: ast.AST) -> tuple[Counter, Counter]:
    """How often each name is loaded and each attribute is read in ``tree``."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
    return names, attributes


def names_word(path: str, name: str, readers: dict) -> bool:
    """Whether ``path``, a relative path outside src/ and tests/ whose
    text is ``readers[path]``, names the def ``name``: a ``.py`` file as a
    word, since a reader may name it as a string, and any other file, a
    markdown doc, only as a call, ``name(``, since a doc may use the same
    word for something else, such as a wire frame."""
    where = PurePosixPath(path)
    if where.is_absolute() or ".." in where.parts or where.parts[:1] in (("src",), ("tests",)):
        return False
    end = r"\b" if where.suffix == ".py" else r"\("
    return re.search(rf"\b{re.escape(name)}{end}", readers.get(path, "")) is not None


def unread_names(sources: dict, outside: dict, readers: dict) -> list[str]:
    """``module:line name`` for each module-level import, constant,
    function or class, and each method, in ``sources`` (module name ->
    source text) that no module reads: a module-level name by name in its
    own module, as an attribute anywhere, or through an import of it by
    another module; a method as an attribute anywhere. Reads inside a def
    itself do not count for it, and neither does the package
    ``__init__``: an export is not a read. A def named ``module.name`` in
    ``outside`` is exempt when the file it maps to, whose text is in
    ``readers``, names it (``names_word``); an entry that a module reads,
    that names no def, or whose file does not name its def is reported as
    ``outside:module.name``."""
    trees = {
        module: ast.parse(text) for module, text in sources.items() if module != "__init__"
    }
    loaded, attributes = {}, Counter()
    for module, tree in trees.items():
        loaded[module], module_attributes = reads(tree)
        attributes += module_attributes
    imported = set()  # (module, name) imported by another module
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                imported.update((node.module, alias.name) for alias in node.names)
    unread = []
    stale = set(outside)
    for module, tree in trees.items():
        for name, line in module_names(tree):
            if name == "__version__":
                continue
            if loaded[module][name] or attributes[name] or (module, name) in imported:
                continue
            unread.append(f"{module}:{line} {name}")
        for name, node in module_defs(tree):
            own_names, own_attributes = reads(node)
            attribute = name.rpartition(".")[2]
            read = attributes[attribute] > own_attributes[attribute]
            if "." not in name:
                read = read or loaded[module][name] > own_names[name] or (module, name) in imported
            entry = f"{module}.{name}"
            if entry in outside:
                if not read and names_word(outside[entry], attribute, readers):
                    stale.discard(entry)
            elif not read:
                unread.append(f"{module}:{node.lineno} {name}")
    return unread + [f"outside:{entry}" for entry in sorted(stale)]


def test_no_unread_module_level_name():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert "audit" in sources and "core" in sources
    readers = {
        path: (ROOT / path).read_text()
        for path in set(OUTSIDE_READERS.values())
        if (ROOT / path).is_file()
    }
    assert unread_names(sources, OUTSIDE_READERS, readers) == []


def test_the_check_finds_unread_names():
    sources = {
        "__init__": (
            "from .a import Used, Exported\n"
            "from .b import exported_only\n"
            "__version__ = '0'\n"
        ),
        "a": (
            "from __future__ import annotations\n"
            "import math\n"
            "import os.path\n"
            "from .b import helper, Unused, Box\n"
            "ONE = 1\n"
            "TWO = 2\n"
            "Used = Exported = None\n"
            "def f():\n"
            "    return math.pi + helper() + os.sep + Box().size\n"
            "def g():\n"
            "    return g()\n"
        ),
        "b": (
            "LIMIT = 3\n"
            "Unused = 0\n"
            "def helper():\n"
            "    return 0\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.size = 0\n"
            "    def shared(self):\n"
            "        return 0\n"
            "    def method(self):\n"
            "        return self.method()\n"
            "    @property\n"
            "    def prop(self):\n"
            "        return 0\n"
            "    @classmethod\n"
            "    def build(cls):\n"
            "        return cls()\n"
            "    def kept(self):\n"
            "        return 0\n"
            "def exported_only():\n"
            "    return 0\n"
            "def hello():\n"
            "    return 0\n"
        ),
        "c": "from . import a\nSHARED = a.TWO\ndef h(box):\n    return box.shared(a.Used)\n",
    }
    outside = {"b.Box.kept": "docs/box.md"}
    readers = {
        "docs/box.md": "Call `Box.kept()` to keep one. Send a `hello` frame first.\n",
        "tests/test_box.py": "build",
    }
    expected = [
        "a:4 Unused",
        "a:5 ONE",
        "a:7 Exported",  # exported, read nowhere
        "a:8 f",
        "a:10 g",
        "b:1 LIMIT",
        "b:10 Box.method",
        "b:13 Box.prop",
        "b:16 Box.build",
        "b:20 exported_only",  # an export-only def
        "b:22 hello",
        "c:2 SHARED",
        "c:3 h",
    ]
    # Box.shared is read only as an attribute in another module
    assert unread_names(sources, outside, readers) == expected
    stale = {
        **outside,
        "b.Box.shared": "docs/box.md",  # read in the package now
        "b.gone": "docs/box.md",  # no such def
        "b.Box.prop": "docs/box.md",  # the file does not name prop
        "b.Box.method": "docs/missing.md",  # no such file
        "b.Box.build": "tests/test_box.py",  # a test is not an outside reader
        "b.hello": "docs/box.md",  # the doc names a hello frame, not a call
    }
    gone = ("Box.method", "Box.prop", "Box.build", "hello")
    kept = [name for name in expected if name.split()[1] not in gone]
    assert unread_names(sources, stale, readers) == kept + [
        "outside:b.Box.build",
        "outside:b.Box.method",
        "outside:b.Box.prop",
        "outside:b.Box.shared",
        "outside:b.gone",
        "outside:b.hello",
    ]


def broad_raises(source: str) -> list[int]:
    """Lines of ``source`` that call ``raises`` with Exception or
    BaseException, alone or in a tuple, as the expected error."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "raises"
            and node.args
        ):
            expected = node.args[0]
            names = expected.elts if isinstance(expected, ast.Tuple) else [expected]
            if any(isinstance(name, ast.Name) and name.id in BROAD_ERRORS for name in names):
                lines.append(node.lineno)
    return lines


def test_no_test_expects_a_broad_error():
    found = [
        f"{path.name}:{line}"
        for path in sorted((ROOT / "tests").glob("*.py"))
        for line in broad_raises(path.read_text())
    ]
    assert found == []


def test_the_check_finds_broad_errors():
    offending = (
        "import pytest\n"
        "def test_a():\n"
        "    with pytest.raises(Exception):\n"
        "        f()\n"
        "    with pytest.raises((ValueError, BaseException)):\n"
        "        f()\n"
    )
    clean = (
        "import pytest\n"
        "def test_a():\n"
        "    with pytest.raises(InvalidParams, match='Exception'):\n"
        "        f()\n"
    )
    assert broad_raises(offending) == [3, 5]
    assert broad_raises(clean) == []


def test_readme_names_every_export():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    readme = (ROOT / "README.md").read_text()
    assert "PirSession" in exports
    assert [name for name in exports if not re.search(rf"\b{name}\b", readme)] == []


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text()
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", sketch], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("5/4 ")
