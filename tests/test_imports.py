from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: the package's ``__init__`` imports names to re-export them
SCANNED = sorted(
    path
    for path in [*(REPO_ROOT / "src" / "acshare").glob("*.py"), *(REPO_ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)


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
