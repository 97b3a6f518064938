from __future__ import annotations

import ast
import builtins
import importlib
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import acshare.wire

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``perfbench/`` is left out because it changes only together with the benchmark's baseline
SCANNED = sorted(
    path for folder in ("src/acshare", "tests", "scripts") for path in (REPO_ROOT / folder).glob("*.py")
)

#: every file that may use what ``src/acshare`` defines
REFERRERS = sorted(
    path for folder in ("src", "tests", "perfbench", "scripts") for path in (REPO_ROOT / folder).rglob("*.py")
)

SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_imports(source: str) -> list[str]:
    """Names an ``import`` binds that the module never references."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd()\n"
    assert unused_imports(source) == ["os", "b"]


def test_every_imported_name_is_used():
    unused = [
        f"{path.relative_to(REPO_ROOT)}: {name}"
        for path in SCANNED
        for name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def late_imports(source: str) -> list[str]:
    """Each ``import`` statement inside a function of ``source``, unparsed and sorted."""
    nested = {
        node
        for scope in ast.walk(ast.parse(source))
        if isinstance(scope, FUNCTIONS)
        for node in ast.walk(scope)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    return sorted(map(ast.unparse, nested))


def test_late_imports_are_found():
    source = (
        "import a\n"
        "def f():\n"
        "    import b\n"
        "    def g():\n"
        "        from .c import d\n"
        "class C:\n"
        "    import e\n"
    )
    assert late_imports(source) == ["from .c import d", "import b"]


def test_the_late_imports_are_the_root_transcript_and_run_scenario():
    # the root imports wire only when acshare.Transcript is first read, so
    # that set-up, which imports acshare.dataset, loads no transcript code;
    # entities imports netsim, so netsim reaches back into entities only at
    # call time; moving scenario assembly above entities removes that one
    late = [
        f"{path.name}: {statement}"
        for path in sorted((REPO_ROOT / "src" / "acshare").glob("*.py"))
        for statement in late_imports(path.read_text(encoding="utf-8"))
    ]
    assert late == [
        "__init__.py: from .wire import Transcript",
        "netsim.py: from .entities import run_protocol",
    ]


def fresh_lines(code: str) -> list[str]:
    """The lines ``code`` prints in a fresh isolated interpreter that imports from ``src``."""
    path = f"import sys\nsys.path.insert(0, {str(REPO_ROOT / 'src')!r})\n"
    done = subprocess.run([sys.executable, "-I", "-c", path + code], capture_output=True, text=True, check=True)
    return done.stdout.split("\n")[:-1]


def test_dataset_import_loads_no_protocol_module():
    # the benchmark's set-up probe imports acshare.dataset in a fresh interpreter;
    # json and dataclasses are counted only if this import adds them, not site
    package, transcript_deps = fresh_lines(
        "before = set(sys.modules)\n"
        "import acshare.dataset\n"
        "added = set(sys.modules) - before\n"
        "print(*sorted(name for name in added if name.split('.')[0] == 'acshare'))\n"
        "print(*sorted(added & {'json', 'dataclasses'}))\n"
    )
    assert package.split() == ["acshare", "acshare.dataset", "acshare.primitives"]
    assert transcript_deps.split() == []


def test_the_root_binds_the_wire_transcript():
    assert acshare.Transcript is acshare.wire.Transcript
    # this session has loaded wire already; a fresh interpreter reads the name first
    assert fresh_lines(
        "import acshare\nfirst = acshare.Transcript\nimport acshare.wire\nprint(first is acshare.wire.Transcript)\n"
    ) == ["True"]


def test_the_root_has_no_other_name():
    with pytest.raises(AttributeError, match="'Nope'"):
        getattr(acshare, "Nope")
    with pytest.raises(ImportError, match="'Nope'"):
        exec("from acshare import Nope", {})


def references(tree: ast.AST) -> Counter:
    """Names, attributes, imported names and words of non-docstring strings in ``tree``.

    A string counts because ``perfbench/tracer.py`` names what it wraps
    as text, such as ``"Network.transmit"``.
    """
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, SCOPES) and node.body and isinstance(node.body[0], ast.Expr)
    }
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            found.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return found


def definitions(tree: ast.Module) -> list[ast.AST]:
    """Module-level functions and classes, and each method, save those named ``__*__``.

    The interpreter calls a ``__*__`` function by its name, as it does a
    module's ``__getattr__`` (PEP 562), so no code need reference it.
    """
    found = []
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            found.append(node)
        if isinstance(node, ast.ClassDef):
            found += [item for item in node.body if isinstance(item, FUNCTIONS)]
    return [node for node in found if not re.fullmatch(r"__\w+__", node.name)]


def unreferenced(source: str, referenced: Counter) -> list[str]:
    """Definitions in ``source`` that ``referenced`` counts only inside themselves."""
    return [
        node.name
        for node in definitions(ast.parse(source))
        if referenced[node.name] == references(node)[node.name]
    ]


def test_unreferenced_definitions_are_found():
    source = (
        "class A:\n"
        '    """Mentions b and d."""\n'
        "    def __init__(self):\n"
        "        pass\n"
        "    def b(self):\n"
        "        return self.b()\n"
        "    def c(self):\n"
        "        pass\n"
        "def d():\n"
        '    return "A.c"\n'
        "def __getattr__(name):\n"
        "    return e\n"
        "def e():\n"
        "    pass\n"
        "def f():\n"
        "    pass\n"
    )
    # the interpreter calls __getattr__, which references e; nothing references f
    assert unreferenced(source, references(ast.parse(source))) == ["b", "d", "f"]


def test_every_definition_is_referenced():
    referenced: Counter = Counter()
    for path in REFERRERS:
        referenced += references(ast.parse(path.read_text(encoding="utf-8")))
    unused = [
        f"{path.relative_to(REPO_ROOT)}: {name}"
        for path in sorted((REPO_ROOT / "src" / "acshare").glob("*.py"))
        for name in unreferenced(path.read_text(encoding="utf-8"), referenced)
    ]
    assert unused == []


def loaded_attributes(tree: ast.AST) -> set[str]:
    """Every attribute name that ``tree`` reads, as in ``x.name`` outside an assignment target."""
    return {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_fields(source: str, loaded: set[str]) -> list[str]:
    """``Class.field`` for each field of a ``@dataclass`` in ``source`` that ``loaded`` lacks."""
    return [
        f"{node.name}.{item.target.id}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(getattr(mark, "func", mark)) == "dataclass" for mark in node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and item.target.id not in loaded
    ]


def test_unread_dataclass_fields_are_found():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "class B:\n"
        "    z: int\n"
        "def f(a):\n"
        "    a.y = a.x\n"
    )
    assert unread_fields(source, loaded_attributes(ast.parse(source))) == ["A.y"]


def test_every_dataclass_field_is_read():
    loaded: set[str] = set()
    for path in REFERRERS:
        loaded |= loaded_attributes(ast.parse(path.read_text(encoding="utf-8")))
    unread = [
        f"{path.relative_to(REPO_ROOT)}: {name}"
        for path in sorted((REPO_ROOT / "src" / "acshare").glob("*.py"))
        for name in unread_fields(path.read_text(encoding="utf-8"), loaded)
    ]
    assert unread == []


def asserts(source: str) -> list[int]:
    """Line of each ``assert`` statement in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_asserts_are_found():
    assert asserts("assert a\ndef f():\n    if b:\n        assert (\n            c\n        )\n") == [1, 4]


def test_no_assert_in_src():
    # ``python -O`` strips asserts, so a check in the package must raise
    found = [
        f"{path.name}:{line}"
        for path in sorted((REPO_ROOT / "src" / "acshare").glob("*.py"))
        for line in asserts(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_every_package_error_prints_verbatim():
    # ``cli._fail`` prints ``str(exc)``, which a ``KeyError`` would quote
    modules = [
        importlib.import_module(f"acshare.{path.stem}")
        for path in sorted((REPO_ROOT / "src" / "acshare").glob("*.py"))
        if path.name != "__init__.py"
    ]
    errors = [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Exception) and value.__module__ == module.__name__
    ]
    assert [cls.__name__ for cls in errors if str(cls("m")) != "m"] == []
    assert sorted(cls.__name__ for cls in errors) == [
        "ConfigError",
        "DatasetParseError",
        "FramingError",
        "IntegrityError",
        "InvalidWidthError",
        "PhaseOrderError",
    ]


def unread_error_attributes(source: str, loaded: set[str]) -> list[str]:
    """Each ``Class.name`` that an exception class of ``source`` stores on ``self`` and ``loaded`` lacks.

    A class is an exception class when one of its bases is a builtin
    exception or an exception class defined above it in ``source``.
    """
    errors = {
        name for name, value in vars(builtins).items() if isinstance(value, type) and issubclass(value, BaseException)
    }
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or errors.isdisjoint(map(ast.unparse, node.bases)):
            continue
        errors.add(node.name)
        stored = {
            item.attr
            for item in ast.walk(node)
            if isinstance(item, ast.Attribute) and isinstance(item.ctx, ast.Store)
            and isinstance(item.value, ast.Name) and item.value.id == "self"
        }
        unread += [f"{node.name}.{name}" for name in sorted(stored - loaded)]
    return unread


def test_unread_error_attributes_are_found():
    source = (
        "class A(ValueError):\n"
        "    def __init__(self, m, x, y):\n"
        "        super().__init__(m)\n"
        "        self.x, self.y = x, y\n"
        "class B(A):\n"
        "    def note(self):\n"
        "        self.z: int = 1\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.w = 0\n"
        "def f(error):\n"
        "    return error.x\n"
    )
    assert unread_error_attributes(source, loaded_attributes(ast.parse(source))) == ["A.y", "B.z"]


def test_every_error_attribute_is_read_by_the_package():
    # ``cli._fail`` prints only ``str(exc)``, so an error holds only what package code reads
    package = sorted((REPO_ROOT / "src" / "acshare").glob("*.py"))
    loaded: set[str] = set()
    for path in package:
        loaded |= loaded_attributes(ast.parse(path.read_text(encoding="utf-8")))
    unread = [
        f"{path.name}: {name}"
        for path in package
        for name in unread_error_attributes(path.read_text(encoding="utf-8"), loaded)
    ]
    assert unread == []


def perfbench_path_entries(source: str) -> list[int]:
    """Line of each ``sys.path`` call in ``source`` whose arguments name ``perfbench``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and ast.unparse(node.func.value) == "sys.path" and "perfbench" in ast.unparse(node)
    ]


def test_perfbench_path_entries_are_found():
    source = (
        "import sys\n"
        "sys.path.insert(0, str(ROOT / 'perfbench'))\n"
        "sys.path.insert(0, str(ROOT / 'src'))\n"
        "def f():\n"
        "    sys.path.append(PERFBENCH := 'perfbench')\n"
        "CODE = 'sys.path.insert(0, \"perfbench\")'\n"
    )
    assert perfbench_path_entries(source) == [2, 5]


def test_only_the_trace_target_test_imports_perfbench():
    # the tests keep their own expectations, so a benchmark edit cannot loosen them
    found = [
        path.name
        for path in sorted((REPO_ROOT / "tests").glob("*.py"))
        if perfbench_path_entries(path.read_text(encoding="utf-8"))
    ]
    assert found == ["test_trace_targets.py"]
