"""The package runs on its declared dependencies alone.

Every import in ``src/purity_witness`` must be relative, from the standard
library, or a runtime dependency in ``pyproject.toml`` (numpy), and its
syntax must parse on the ``requires-python`` floor.  The metadata's version
and console script are the package's own.  The package's exports resolve
lazily, the closed-form command-line paths start without numpy, and
``simulate`` starts without the search modules.
"""

import ast
import importlib
import json
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import purity_witness
from purity_witness import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "purity_witness"
PROJECT = tomllib.loads(
    (SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
)["project"]
# the runtime dependencies' names, which are also their import names
DECLARED = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in PROJECT["dependencies"]}


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


def test_metadata_names_the_package_version_and_entry_point():
    # --version and every certificate's tool_version print __version__
    assert PROJECT["version"] == purity_witness.__version__
    module, _, name = PROJECT["scripts"]["purity-witness"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main


def test_counts_imports_no_package_module_but_errors():
    # the certify path: counts must not reach sequence (and numpy) again,
    # not even through an import inside a function
    tree = ast.parse((SRC / "counts.py").read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            package |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("purity_witness"):
            package.add(node.module)
        elif isinstance(node, ast.Import):
            package |= {a.name for a in node.names if a.name.startswith("purity_witness")}
    assert package == {"errors"}


def test_src_parses_on_the_requires_python_floor():
    # the tests may run on a newer interpreter, which accepts newer syntax
    floor = re.fullmatch(r">=(\d+)\.(\d+)", PROJECT["requires-python"])
    assert floor is not None
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        ast.parse(
            path.read_text(encoding="utf-8"),
            str(path),
            feature_version=tuple(int(v) for v in floor.groups()),
        )


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


# simulate builds and samples a protocol: it loads numpy, quantum and
# sequence, but not the search modules, which only verify loads
SIMULATE_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from purity_witness import cli
argv = ["simulate", "theorem2", "--p", "0.5", "--w", "1", "--shots", "1000", "--seed", "1",
        "-o", sys.argv[2]]
code = cli.main(argv)
print(json.dumps({"code": code, "loaded": sorted(m for m in sys.modules if "purity" in m)}))
"""


def test_simulate_loads_no_search_module(tmp_path):
    counts_path = tmp_path / "counts.json"
    proc = subprocess.run(
        [sys.executable, "-c", SIMULATE_CHILD, str(SRC.parent), str(counts_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0 and json.loads(counts_path.read_text())["settings"]
    assert "purity_witness.sequence" in result["loaded"]
    assert not {"purity_witness.kernels", "purity_witness.optimizer"} & set(result["loaded"])


def test_every_export_resolves_to_its_submodule():
    assert purity_witness.__all__ == list(purity_witness._EXPORTS)
    for name, module in purity_witness._EXPORTS.items():
        source = importlib.import_module(f"purity_witness.{module}")
        assert getattr(purity_witness, name) is getattr(source, name)
    with pytest.raises(AttributeError):
        purity_witness.not_an_export
    # dir() lists every export, resolved or not, beside the module's globals
    assert dir(purity_witness) == sorted(set(vars(purity_witness)) | set(purity_witness.__all__))
