"""The package runs on its declared dependencies alone.

Every import in ``src/purity_witness`` must be relative, from the standard
library, or numpy, the one runtime dependency in ``pyproject.toml``.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "purity_witness"
DECLARED = {"numpy"}


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_src_imports_only_stdlib_and_declared_dependencies():
    files = sorted(SRC.glob("*.py"))
    assert files
    bad = [
        f"{path.name}:{line}: {name}"
        for path in files
        for line, name in _imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names | DECLARED
    ]
    assert bad == []
