"""Static checks on the package source: no module-level import or constant,
and no function, class or method, that nothing reads, and no defaulted
parameter that no call in the package or the benchmark passes. Also: no
test oracle that no test reaches, no test expects a bare Exception, the
README names every export of the package, keeps each module row short,
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
}

# Defaulted parameters of defs in src/ that no call in src/ or bench/
# passes, each with the reason it stays. An entry that some call passes,
# or that names no defaulted parameter, fails the check, as above.
UNPASSED_OPTIONS = {
    "intermittent.run_two_request.private_each_trial": (
        "acceptance criterion 1 turns it off for its 1e5 trials against a 10 s "
        "bound: 3.5 and 3.8 s off, 5.5 and 5.1 s on (Python 3.11, 2 CPUs)"
    ),
    "cli.main.argv": "tests drive the CLI in process",
}

# README module rows not yet cut to ``ROW_CAP`` characters, whose facts
# still wait to move into the docstrings. An entry whose row is short, or
# that names no row, fails the check, as above.
LONG_ROWS = {"ipir.core", "ipir.pir", "ipir.intermittent", "ipir.location", "ipir.net"}
ROW_CAP = 600

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


def unreached_oracles(oracles: str, tests: list[str]) -> list[str]:
    """``oracles:line name`` for each function, class and method in
    ``oracles``, the source of the oracle module, that no test in ``tests``
    (source texts) reaches. A def is reached when a test reads its name, by
    name or as an attribute, or when the body of a reached def does; a
    method, ``Class.method``, by its attribute name. Reads inside a def
    that nothing reaches do not count, so a chain of oracles left behind
    by a deleted test is reported whole."""
    defs = dict(module_defs(ast.parse(oracles)))
    read = set()
    for text in tests:
        names, attributes = reads(ast.parse(text))
        read.update(names, attributes)
    reached: set = set()
    while True:
        new = [
            name for name in defs if name not in reached and name.rpartition(".")[2] in read
        ]
        if not new:
            break
        for name in new:
            reached.add(name)
            names, attributes = reads(defs[name])
            read.update(names, attributes)
    return [f"oracles:{node.lineno} {name}" for name, node in defs.items() if name not in reached]


def test_every_oracle_is_reached_from_a_test():
    tests = [
        path.read_text()
        for path in sorted((ROOT / "tests").glob("*.py"))
        if path.name != "oracles.py"
    ]
    oracles = (ROOT / "tests" / "oracles.py").read_text()
    assert "def fraction_leak_equivalence(" in oracles and len(tests) > 1
    assert unreached_oracles(oracles, tests) == []


def test_the_check_finds_unreached_oracles():
    oracles = (
        "ZERO = 0\n"
        "def used():\n"
        "    return helper() + Box().size\n"
        "def helper():\n"
        "    return ZERO\n"
        "class Box:\n"
        "    size = 0\n"
        "    def total(self):\n"
        "        return chained()\n"
        "    def unused(self):\n"
        "        return 0\n"
        "def chained():\n"
        "    return 0\n"
        "def orphan():\n"
        "    return orphan() + left_behind() + helper()\n"
        "def left_behind():\n"
        "    return 0\n"
        "def imported_only():\n"
        "    return 0\n"
    )
    tests = [
        "from oracles import used, imported_only\n"
        "def test_a(box):\n"
        "    assert used() == box.total()\n",
        "import oracles\n",
    ]
    expected = [
        "oracles:10 Box.unused",
        "oracles:14 orphan",  # reads itself only
        "oracles:16 left_behind",  # read only by an unreached oracle
        "oracles:18 imported_only",  # an import is not a read
    ]
    assert unreached_oracles(oracles, tests) == expected
    # a test that reads the orphan reaches the chain behind it
    tests.append("import oracles\ndef test_b():\n    assert oracles.orphan() == 0\n")
    assert unreached_oracles(oracles, tests) == expected[:1] + expected[3:]


def option_defs(tree: ast.Module):
    """(name, node, positional, defaulted) of each def in ``tree``, nested
    defs and methods included, named ``outer.inner`` or ``Class.method``:
    ``positional`` holds the parameters a call can pass by position, after
    ``self`` or ``cls`` in a method that is not a staticmethod, and
    ``defaulted`` those that have a default."""

    def visit(body, prefix: str, in_class: bool):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{prefix}{node.name}.", True)
            elif isinstance(node, FUNCTIONS):
                args = node.args
                positional = [p.arg for p in (*args.posonlyargs, *args.args)]
                defaulted = positional[len(positional) - len(args.defaults) :] + [
                    p.arg for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list
                )
                if in_class and not static:
                    positional = positional[1:]
                yield f"{prefix}{node.name}", node, positional, defaulted
                yield from visit(node.body, f"{prefix}{node.name}.", False)

    yield from visit(tree.body, "", False)


def passes(call: ast.Call, parameter: str, positional: list[str]) -> bool:
    """Whether ``call`` passes ``parameter``: by keyword, by position, or
    through a ``*`` or ``**`` argument, which may pass any parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == parameter for k in call.keywords):
        return True
    return parameter in positional and positional.index(parameter) < len(call.args)


def unpassed_options(sources: dict, callers: list[str], allowed: dict) -> list[str]:
    """``module:line name(parameter=)`` for each defaulted parameter of a
    def in ``sources`` (module name -> source text) that no call in
    ``callers`` (source texts) passes. Calls are matched to defs by name
    alone: ``f(...)`` and ``a.f(...)`` call every def named ``f``, a
    call of a class by its name calls its ``__init__``, and a def's calls
    of itself count. A parameter named ``module.name.parameter`` in
    ``allowed`` is exempt; an entry that some call passes, or that names
    no defaulted parameter, is reported as ``allowed:<entry>``."""
    calls: dict = {}  # callee name -> its calls
    for text in callers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed, stale = [], set(allowed)
    for module, text in sources.items():
        for name, node, positional, defaulted in option_defs(ast.parse(text)):
            parts = name.split(".")
            callee = parts[-2] if parts[-1] == "__init__" and len(parts) > 1 else parts[-1]
            for parameter in defaulted:
                entry = f"{module}.{name}.{parameter}"
                if any(passes(c, parameter, positional) for c in calls.get(callee, [])):
                    continue
                if entry in allowed:
                    stale.discard(entry)
                else:
                    unpassed.append(f"{module}:{node.lineno} {name}({parameter}=)")
    return unpassed + [f"allowed:{entry}" for entry in sorted(stale)]


def test_every_option_has_a_caller():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    callers = [
        path.read_text() for path in sorted([*PACKAGE.glob("*.py"), *ROOT.glob("bench/*.py")])
    ]
    assert "audit" in sources and len(callers) > len(sources)
    assert unpassed_options(sources, callers, UNPASSED_OPTIONS) == []


def test_the_check_finds_unpassed_options():
    sources = {
        "a": (
            "def f(x, y=1, *, z=2, unused=3):\n"
            "    return x\n"
            "def walk(node, depth=0):\n"
            "    return walk(node, depth + 1)\n"
            "class Box:\n"
            "    def __init__(self, size=0, colour=None):\n"
            "        self.size = size\n"
            "    def put(self, item, count=1):\n"
            "        return count\n"
            "    @classmethod\n"
            "    def build(cls, size=0):\n"
            "        return cls()\n"
            "    @staticmethod\n"
            "    def check(value, strict=False):\n"
            "        return value\n"
            "def spread(*args, **kwargs):\n"
            "    return g(*args) + h(**kwargs)\n"
            "def g(a=0):\n"
            "    return a\n"
            "def h(a=0):\n"
            "    return a\n"
            "def outer():\n"
            "    def inner(v=0):\n"
            "        return v\n"
            "    return inner()\n"
        ),
        "b": "def hello(name='you'):\n    return name\n",
    }
    callers = [
        sources["a"],
        "from a import f, Box\nf(0, z=5)\nBox(1).put('item')\nBox.build(3)\nBox.check(1)\n",
    ]
    expected = [
        "a:1 f(y=)",
        "a:1 f(unused=)",  # the planted option: no call passes it
        "a:6 Box.__init__(colour=)",
        "a:8 Box.put(count=)",
        "a:14 Box.check(strict=)",  # a staticmethod has no self to skip
        "a:23 outer.inner(v=)",
        "b:1 hello(name=)",
    ]
    # walk's depth is passed by its own recursion, Box's size by position
    # after self, build's by position after cls, g's and h's through * and **
    assert unpassed_options(sources, callers, {}) == expected
    allowed = {
        "a.f.unused": "kept",
        "a.walk.depth": "passed by walk itself",
        "a.f.x": "no default",
        "a.gone.p": "no such def",
        "b.hello.name": "kept",
    }
    assert unpassed_options(sources, callers, allowed) == [
        name for name in expected if name not in ("a:1 f(unused=)", "b:1 hello(name=)")
    ] + ["allowed:a.f.x", "allowed:a.gone.p", "allowed:a.walk.depth"]
    # a caller that passes it clears the planted option
    callers.append("from a import f\nf(1, 2, unused=4)\n")
    assert "a:1 f(unused=)" not in unpassed_options(sources, callers, {})


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


def long_rows(readme: str, allowed: set) -> list[str]:
    """``module (length)`` for each row of the README's module table, a
    line that starts with ``| `ipir.<module>` |``, longer than ``ROW_CAP``
    characters, and ``allowed:module`` for each module in ``allowed`` whose
    row is no longer than that, or that has no row."""
    lengths = {
        row.group(1): len(row.group(0))
        for row in re.finditer(r"^\| `(ipir\.\w+)` \|.*$", readme, re.M)
    }
    long = [f"{name} ({n})" for name, n in lengths.items() if n > ROW_CAP and name not in allowed]
    return long + [f"allowed:{name}" for name in sorted(allowed) if lengths.get(name, 0) <= ROW_CAP]


def test_readme_module_rows_are_short():
    readme = (ROOT / "README.md").read_text()
    assert "| `ipir.simplex` |" in readme
    assert long_rows(readme, LONG_ROWS) == []


def test_the_check_finds_long_rows():
    readme = (
        "| module | contents |\n"
        "| --- | --- |\n"
        f"| `ipir.a` | {'x' * ROW_CAP} |\n"
        f"| `ipir.b` | {'x' * (ROW_CAP - 15)} |\n"
        f"| `ipir.c` | {'x' * ROW_CAP} |\n"
        "| `ipir.d` | short |\n"
        f"| other | {'x' * ROW_CAP} |\n"
    )
    # ipir.b's row is exactly ROW_CAP characters long
    assert long_rows(readme, set()) == [f"ipir.a ({ROW_CAP + 15})", f"ipir.c ({ROW_CAP + 15})"]
    assert long_rows(readme, {"ipir.a", "ipir.c"}) == []
    assert long_rows(readme, {"ipir.a", "ipir.b", "ipir.gone"}) == [
        f"ipir.c ({ROW_CAP + 15})",
        "allowed:ipir.b",  # already short
        "allowed:ipir.gone",  # no such row
    ]


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text()
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", sketch], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("5/4 ")
