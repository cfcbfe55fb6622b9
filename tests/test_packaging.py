"""The package runs on its declared dependencies alone.

Every import in ``src/purity_witness`` must be relative, from the standard
library, or numpy, the one runtime dependency in ``pyproject.toml``.  The
package's exports resolve lazily, and the closed-form command-line paths
start without numpy.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import purity_witness

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


# Run in a fresh interpreter, so that no other test has imported numpy or
# resolved an export yet.  The closed-form paths (certify, bounds, --version)
# must not load numpy; dir() and import * must see every export unresolved.
FRESH_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
counts_path, cert_path = sys.argv[2], sys.argv[3]
loaded = {}
import purity_witness
loaded["import purity_witness"] = "numpy" in sys.modules
not_in_dir = sorted(set(purity_witness.__all__) - set(dir(purity_witness)))
from purity_witness import cli
loaded["import purity_witness.cli"] = "numpy" in sys.modules
codes = {}
for argv in (
    ["certify", counts_path, "-o", cert_path],
    ["bounds", "--b1", "2.75"],
    ["bounds", "--p", "0.5", "--w", "0.5"],
    ["--version"],
):
    try:
        codes[" ".join(argv[:2])] = cli.main(argv)
    except SystemExit as exc:
        codes[" ".join(argv[:2])] = exc.code
    loaded[" ".join(argv[:2])] = "numpy" in sys.modules
namespace = {}
exec("from purity_witness import *", namespace)
not_bound = sorted(set(purity_witness.__all__) - set(namespace))
print(json.dumps({"codes": codes, "numpy_loaded": loaded, "not_in_dir": not_in_dir,
                  "not_bound": not_bound}))
"""


def test_fresh_import_and_closed_form_cli_paths_load_no_numpy(tmp_path):
    counts = {
        "label": "x",
        "claimed_initial_purity": None,
        "settings": [
            {"x": x, "y": y, "counts": {"++": 90, "+-": 5, "-+": 3, "--": 2}}
            for x in (0, 1)
            for y in (0, 1)
        ],
    }
    counts_path, cert_path = tmp_path / "counts.json", tmp_path / "cert.json"
    counts_path.write_text(json.dumps(counts))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_CHILD, str(SRC.parent), str(counts_path), str(cert_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result["codes"].values()) == {0}
    assert not any(result["numpy_loaded"].values()), result["numpy_loaded"]
    assert json.loads(cert_path.read_text())["b1_hat"] > 0
    assert result["not_in_dir"] == [] and result["not_bound"] == []


def test_every_export_resolves_to_its_submodule():
    assert purity_witness.__all__ == list(purity_witness._EXPORTS)
    for name, module in purity_witness._EXPORTS.items():
        source = importlib.import_module(f"purity_witness.{module}")
        assert getattr(purity_witness, name) is getattr(source, name)
    with pytest.raises(AttributeError):
        purity_witness.not_an_export
