"""Self-tests of the benchmark, on tiny inputs.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=0, cwd=ROOT, seconds="0"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for m in spec:
        value = result["metrics"][m["name"]]["value"]
        assert f"{m['name']} = {value!r} {m['unit']}" in lines
    assert any(line.startswith("environment: ") for line in lines)


def test_certificate_digest_is_deterministic():
    digests = []
    for _ in range(2):
        proc = bench("certify_stream", 0, seed=7)
        assert proc.returncode == 0, proc.stderr
        digests += [line for line in proc.stdout.splitlines() if line.startswith("certificate digest")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_wrong_reference_counts_as_failed(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(HERE))
    import run

    run.import_package()
    import workloads

    right = workloads.ref_b1_max_constrained
    monkeypatch.setattr(workloads, "ref_b1_max_constrained", lambda p, w: right(p, w) + 0.5)
    args = ["--workload", "kernel_search", "--seed", "0", "--seconds", "0", "--trace", "0", "--size", "tiny"]
    assert run.main(args) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    # a tiny round is two qubit grid points, both checked against the closed
    # form, and one qudit search, checked against 4(1 - 1/d)
    assert result["attempted"] == 3 and result["failed"] == 2 and not result["correct"]
    assert result["metrics"]["success_rate"]["value"] == pytest.approx(1 / 3)
    assert f"error_rate = {2 / 3!r} (2 failed of 3 attempted)" in lines
    assert sum(line.startswith("FAILED untraced op") for line in lines) == 2


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("certify_stream", 0, cwd=tmp_path, seconds="1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
