"""Every import in the package modules, the tests and the benchmark is used.

A dependency-free stand-in for pyflakes' F401: an imported name that no
ast.Name in its module refers to is reported, unless the line that binds it
carries "# noqa: F401" (for names kept bound for outside code).  The
package's __init__.py re-exports by design and is not scanned.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for d in (ROOT / "src" / "pointwave", ROOT / "tests", ROOT / "perfbench")
    for p in d.glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """'line: name' for each imported name the module never refers to."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno}: {name}")
    return unused


def test_scanner_flags_only_unused_names():
    source = (
        "import math\n"
        "import os.path\n"
        "from json import dumps, loads as parse\n"
        "from re import compile  # noqa: F401\n"
        "print(parse(os.sep))\n"
    )
    assert unused_imports(source) == ["1: math", "3: dumps"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
