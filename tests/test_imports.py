from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: the package's ``__init__`` imports ``Transcript`` only for the benchmark's tracer
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


def test_dataset_import_loads_no_protocol_module():
    # the benchmark's set-up probe imports acshare.dataset in a fresh interpreter
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(REPO_ROOT / 'src')!r})\n"
        "import acshare.dataset\n"
        "print(*sorted(name for name in sys.modules if name.split('.')[0] == 'acshare'))\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["acshare", "acshare.dataset", "acshare.primitives", "acshare.wire"]
