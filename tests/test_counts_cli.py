import json
import math

import numpy as np
import pytest

from purity_witness import cli, errors
from purity_witness.certificate import certify
from purity_witness.cli import MAX_GRID_STEPS, MAX_SURFACE_STEPS, main
from purity_witness.counts import (
    MAX_COUNT,
    CountsRecord,
    counts_record_from_dict,
    estimate_b1,
    hoeffding_width,
    ingest_counts,
)
from purity_witness.errors import CountsFormatError, DomainError, QubitAssumptionError
from purity_witness.optimizer import OptimizationReport
from purity_witness.quantum import purity
from purity_witness.sequence import b1, correlations, theorem2_protocol
from purity_witness.witness import b1_max_constrained


def _record_from_protocol(p, w, shots=1000, claimed=None, label="t"):
    """Exact counts: each setting's probabilities times shots, which are
    integers for the canonical protocols at dyadic (p, w)."""
    rho, protocol = theorem2_protocol(p, w)
    table = correlations(rho, protocol)
    counts = {}
    for x in (0, 1):
        for y in (0, 1):
            block = {}
            for i, a in enumerate("+-"):
                for j, b_ in enumerate("+-"):
                    raw = table.probs[i, j, x, y] * shots
                    assert abs(raw - round(raw)) < 1e-9
                    block[a + b_] = int(round(raw))
            counts[(x, y)] = block
    return CountsRecord(label=label, claimed_initial_purity=claimed, counts=counts)


def _valid_dict(n=100):
    block = {"++": n, "+-": 0, "-+": 0, "--": 0}
    return {
        "label": "x",
        "claimed_initial_purity": None,
        "settings": [
            {"x": x, "y": y, "counts": dict(block)}
            for x in (0, 1)
            for y in (0, 1)
        ],
    }


def test_counts_roundtrip():
    rec = counts_record_from_dict(_valid_dict())
    assert counts_record_from_dict(rec.to_json_dict()) == rec


def test_counts_estimator_exact_point():
    rec = _record_from_protocol(0.5, 1.0, shots=1000)
    b1_hat, b1_low = estimate_b1(rec, 0.05)
    assert b1_hat == pytest.approx(2.75, abs=1e-12)
    width = 4 * hoeffding_width(1000, 0.05)
    assert b1_low == pytest.approx(2.75 - width, abs=1e-12)
    assert b1_low < b1_hat


def test_counts_estimator_matches_simulated_table():
    rec = _record_from_protocol(1.0, 1.0, shots=512)
    table = rec.empirical_table()
    assert b1(table) == pytest.approx(3.0, abs=1e-12)


def test_hoeffding_width_values():
    assert hoeffding_width(1000, 0.05) == pytest.approx(
        math.sqrt(math.log(8 / 0.05) / 2000), abs=1e-15
    )
    assert hoeffding_width(4000, 0.05) == pytest.approx(
        hoeffding_width(1000, 0.05) / 2, abs=1e-15
    )
    with pytest.raises(DomainError):
        hoeffding_width(0, 0.05)
    with pytest.raises(DomainError):
        hoeffding_width(100, 1.5)


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.pop("label"), "label"),
        (lambda d: d.update(label=7), "label"),
        (lambda d: d.update(claimed_initial_purity="high"), "claimed_initial_purity"),
        (lambda d: d.update(claimed_initial_purity=0.3), "claimed_initial_purity"),
        (lambda d: d.update(settings="nope"), "settings"),
        (lambda d: d["settings"].pop(), "absent"),
        (lambda d: d["settings"][0].update(x=2), "must be 0 or 1"),
        (lambda d: d["settings"][0]["counts"].pop("+-"), "'+-' missing"),
        (lambda d: d["settings"][0]["counts"].update({"++": -1}), "non-negative"),
        (lambda d: d["settings"][0]["counts"].update({"+0": 3}), "unexpected"),
        (lambda d: d["settings"][1].update(x=0, y=0), "appears twice"),
        (
            lambda d: d["settings"][0].update(
                counts={"++": 0, "+-": 0, "-+": 0, "--": 0}
            ),
            "total count 0",
        ),
    ],
)
def test_counts_validation_messages(mutate, fragment):
    data = _valid_dict()
    mutate(data)
    with pytest.raises(CountsFormatError, match=None) as exc:
        counts_record_from_dict(data)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "entry,field,value", [(2, "x", True), (0, "y", False), (3, "x", 1.0), (1, "y", 1.0)]
)
def test_counts_reject_non_integer_setting_indices(entry, field, value):
    # each value equals the index it replaces in Python, but is no integer
    data = _valid_dict()
    data["settings"][entry][field] = value
    with pytest.raises(CountsFormatError, match="must be 0 or 1"):
        counts_record_from_dict(data)


def test_ingest_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"label": "x",\n  "settings": [}\n')
    with pytest.raises(CountsFormatError) as exc:
        ingest_counts(str(path))
    assert "line 2" in str(exc.value)


def test_certificate_fields_and_digest_stability():
    rec = _record_from_protocol(0.5, 1.0, shots=4000, claimed=0.625)
    cert = certify(rec, delta=0.05)
    assert cert.b1_hat == pytest.approx(2.75, abs=1e-12)
    assert cert.purity_point.purity_lower == pytest.approx(0.625, abs=1e-12)
    assert cert.concurrence_point.upper == pytest.approx(math.sqrt(0.75), abs=1e-12)
    assert cert.postmeas_point is not None
    assert cert.postmeas_point.purity_lower == pytest.approx(1.0, abs=1e-9)
    # the confidence-adjusted bounds are never stronger than the point ones
    assert cert.purity_conf.purity_lower <= cert.purity_point.purity_lower + 1e-12
    assert cert.concurrence_conf.upper >= cert.concurrence_point.upper - 1e-12
    assert certify(rec).input_digest == cert.input_digest
    assert len(cert.input_digest) == 64
    # stable serialization
    assert cert.to_json() == certify(rec).to_json()
    payload = json.loads(cert.to_json())
    assert payload["provenance"]["tool_version"] == cert.tool_version
    assert "statistical_layer" in payload["provenance"]


def test_certificate_without_claimed_purity_has_no_postmeas():
    rec = _record_from_protocol(0.5, 1.0, shots=1000)
    cert = certify(rec)
    assert cert.postmeas_point is None
    assert json.loads(cert.to_json())["postmeasurement_purity_bound"]["point"] is None


def test_certificate_rejects_confident_super_qubit_value():
    # all mass on the winning outcomes with huge counts: b1_low > 3
    block_pp = {"++": 10**9, "+-": 0, "-+": 0, "--": 0}
    block_pm = {"++": 0, "+-": 10**9, "-+": 0, "--": 0}
    rec = CountsRecord(
        label="cheat",
        claimed_initial_purity=None,
        counts={
            (0, 0): dict(block_pp),
            (1, 1): dict(block_pp),
            (0, 1): dict(block_pm),
            (1, 0): dict(block_pm),
        },
    )
    with pytest.raises(QubitAssumptionError):
        certify(rec, delta=0.05)


def test_certificate_clamps_statistically_compatible_excess():
    # same counts but small: the point estimate is 4, yet the confidence
    # interval still reaches below 3, so the point bounds are clamped
    block_pp = {"++": 10, "+-": 0, "-+": 0, "--": 0}
    block_pm = {"++": 0, "+-": 10, "-+": 0, "--": 0}
    rec = CountsRecord(
        label="small",
        claimed_initial_purity=None,
        counts={
            (0, 0): dict(block_pp),
            (1, 1): dict(block_pp),
            (0, 1): dict(block_pm),
            (1, 0): dict(block_pm),
        },
    )
    cert = certify(rec, delta=0.05)
    assert cert.b1_hat == pytest.approx(4.0, abs=1e-12)
    assert cert.purity_point.purity_lower == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_simulate_then_certify_roundtrip(tmp_path, capsys):
    counts_path = tmp_path / "counts.json"
    cert_path = tmp_path / "cert.json"
    rc = main(
        [
            "simulate",
            "theorem2",
            "--p",
            "1.0",
            "--w",
            "1.0",
            "--shots",
            "20000",
            "--seed",
            "7",
            "--claim-purity",
            "-o",
            str(counts_path),
        ]
    )
    assert rc == 0
    rec = ingest_counts(str(counts_path))
    assert rec.claimed_initial_purity == pytest.approx(1.0, abs=1e-12)
    rc = main(["certify", str(counts_path), "-o", str(cert_path)])
    assert rc == 0
    cert = json.loads(cert_path.read_text())
    assert cert["b1_hat"] == pytest.approx(3.0, abs=0.02)
    assert cert["purity_bound"]["confidence_adjusted"]["purity_lower"] > 0.5


def test_cli_simulate_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["simulate", "theorem2", "--shots", "500", "--seed", "3", "-o"]
    assert main(args + [str(p1)]) == 0
    assert main(args + [str(p2)]) == 0
    assert p1.read_text() == p2.read_text()


def test_cli_certify_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["certify", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["certify", str(tmp_path / "missing.json")]) == 2


def test_cli_certify_undecodable_counts_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["certify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and "UTF-8" in err


def test_cli_certify_deeply_nested_counts_file(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert main(["certify", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(deep) in err and "nested" in err


def _reject_non_finite(name):
    raise ValueError(f"non-finite JSON number {name}")


def test_cli_certify_rejects_count_above_int64(tmp_path, capsys):
    # 2.0 * n in hoeffding_width used to raise OverflowError on such a count
    data = _valid_dict()
    data["settings"][2]["counts"]["++"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert main(["certify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(MAX_COUNT) in err


def test_cli_certify_count_at_int64_limit_is_finite(tmp_path, capsys):
    path = tmp_path / "limit.json"
    path.write_text(json.dumps(_valid_dict(n=MAX_COUNT)))
    assert main(["certify", str(path)]) == 0
    cert = json.loads(capsys.readouterr().out, parse_constant=_reject_non_finite)
    assert cert["b1_hat"] == 2.0
    assert 1.9 < cert["b1_lower_conf"] < 2.0


def test_cli_certify_smallest_deltas(tmp_path, capsys):
    # below about 4.45e-308, 8/delta overflows: b1_lower_conf used to be
    # written as -Infinity with exit 0
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_valid_dict()))
    assert main(["certify", str(path), "--delta", "5e-308"]) == 0
    cert = json.loads(capsys.readouterr().out, parse_constant=_reject_non_finite)
    assert cert["confidence_delta"] == 5e-308
    assert main(["certify", str(path), "--delta", "1e-320"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "delta" in captured.err


def test_cli_certify_qubit_assumption_exit_code(tmp_path, capsys):
    data = _valid_dict(n=10**9)
    for entry in data["settings"]:
        if entry["x"] != entry["y"]:
            entry["counts"] = {"++": 0, "+-": 10**9, "-+": 0, "--": 0}
    path = tmp_path / "cheat.json"
    path.write_text(json.dumps(data))
    assert main(["certify", str(path)]) == 3
    assert "qubit" in capsys.readouterr().err


def test_cli_surface_csv(tmp_path):
    out = tmp_path / "surface.csv"
    assert main(["surface", "--p-steps", "3", "--w-steps", "3", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,w,b1_max"
    assert len(lines) == 10
    for line in lines[1:]:
        p, w, v = (float(tok) for tok in line.split(","))
        assert v == pytest.approx(b1_max_constrained(p, w), abs=1e-10)


def test_cli_bounds_b1(capsys):
    assert main(["bounds", "--b1", "2.75"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["purity_lower_bound"]["purity_lower"] == pytest.approx(0.625)
    assert out["concurrence_upper"]["upper"] == pytest.approx(math.sqrt(0.75))


def test_cli_bounds_pw(capsys):
    assert main(["bounds", "--p", "0.5", "--w", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["b1_max_constrained"] == pytest.approx(2.75)
    assert out["b1_max_initial"] == pytest.approx(2.75)
    assert out["threshold_w"] == pytest.approx(1.0 / 7.0)


def test_cli_bounds_postmeasurement(capsys):
    assert main(["bounds", "--b1", "3.0", "--purity", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["postmeasurement_purity_bound"]["purity_lower"] == pytest.approx(1.0)


def test_cli_bounds_requires_arguments(capsys):
    assert main(["bounds"]) == 2


def test_cli_bounds_super_qubit_exit_code(capsys):
    assert main(["bounds", "--b1", "3.5"]) == 3


def test_cli_verify_theorem2_point(capsys):
    rc = main(
        ["verify", "theorem2", "--p", "1.0", "--w", "1.0", "--restarts", "30", "--seed", "1"]
    )
    captured = capsys.readouterr()
    assert rc == 0
    rep = json.loads(captured.out.strip().splitlines()[-1])
    assert rep["strategy"] == "projective-pair"
    assert abs(rep["gap"]) <= 1e-6


def test_cli_verify_theorem2_deterministic_branch(capsys):
    rc = main(
        ["verify", "theorem2", "--p", "0.0", "--w", "0.1", "--restarts", "30", "--seed", "1"]
    )
    captured = capsys.readouterr()
    assert rc == 0
    rep = json.loads(captured.out.strip().splitlines()[-1])
    assert rep["strategy"] == "deterministic"
    assert rep["best_value"] == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("grid", ["-1", "0", "1"])
def test_cli_verify_theorem2_rejects_grid_below_two(grid, capsys):
    # -1 used to end in a numpy traceback and 0 verified no point at all
    assert main(["verify", "theorem2", "--grid", grid, "--restarts", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--grid" in captured.err


@pytest.mark.parametrize("grid", [str(MAX_GRID_STEPS + 1), "18446744073709551616"])
def test_cli_verify_theorem2_rejects_grid_above_cap(grid, capsys):
    # 2**64 used to end in a numpy traceback from np.linspace
    assert main(["verify", "theorem2", "--grid", grid, "--restarts", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--grid" in captured.err


@pytest.mark.parametrize("flag", ["--p-steps", "--w-steps"])
@pytest.mark.parametrize("steps", ["1", str(MAX_SURFACE_STEPS + 1), "18446744073709551616"])
def test_cli_surface_rejects_steps_outside_range(flag, steps, tmp_path, capsys):
    out = tmp_path / "surface.csv"
    assert main(["surface", flag, steps, "-o", str(out)]) == 2
    assert not out.exists()
    assert "steps" in capsys.readouterr().err


def test_cli_verify_qudit_d4(capsys):
    rc = main(["verify", "qudit", "--d", "4", "--restarts", "40", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    rep = json.loads(captured.out.strip().splitlines()[-1])
    assert rep["best_value"] == pytest.approx(3.0, abs=1e-5)


def test_cli_verify_qudit_d3_reports_gap(capsys):
    # the analytic ceiling 3 is not attainable in dimension 3: the line keeps
    # the 1/3 gap to it, and the search is judged against the attainable 8/3
    rc = main(["verify", "qudit", "--d", "3", "--restarts", "40", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    rep = json.loads(captured.out)
    assert rep["gap"] == pytest.approx(1.0 / 3.0, abs=1e-5)
    assert rep["attainable"] == pytest.approx(8.0 / 3.0, abs=1e-15)
    assert rep["best_value"] == pytest.approx(8.0 / 3.0, abs=1e-5)


_REPORT_KEYS = set(OptimizationReport(0.0, np.zeros(1), None, None, 1, 0).to_dict())


@pytest.mark.parametrize(
    "argv,extras,n_lines",
    [
        (["eq5"], {"p", "w", "strategy"}, 11),
        (["theorem2", "--grid", "2"], {"p", "w", "strategy"}, 4),
        (["qudit", "--d", "5"], {"d"}, 1),
        (["monotonicity"], {"purity"}, 8),
    ],
)
def test_cli_verify_lines_carry_report_keys(argv, extras, n_lines, capsys):
    # one restart per search: the exit code may flag a gap, the lines are whole
    assert main(["verify", *argv, "--restarts", "1", "--seed", "0"]) in (0, 4)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == n_lines
    for line in lines:
        assert set(json.loads(line)) == _REPORT_KEYS | extras


_EXIT_CODES = {
    errors.PurityWitnessError: 2,
    errors.DomainError: 2,
    errors.DimensionError: 2,
    errors.QubitAssumptionError: 3,
    errors.ConsistencyError: 2,
    errors.CountsFormatError: 2,
    OSError: 2,
}


def test_exit_code_table_covers_every_error_class():
    classes = {
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.PurityWitnessError)
    }
    assert classes == set(_EXIT_CODES) - {OSError}


@pytest.mark.parametrize("exc", list(_EXIT_CODES), ids=lambda cls: cls.__name__)
def test_cli_maps_each_error_class_to_its_exit_code(exc, monkeypatch, capsys):
    def fail(args):
        raise exc("injected failure")

    monkeypatch.setattr(cli, "_cmd_bounds", fail)
    assert main(["bounds"]) == _EXIT_CODES[exc]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: injected failure\n"


def test_cli_verify_monotonicity(capsys):
    rc = main(["verify", "monotonicity", "--restarts", "15", "--seed", "9"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert len(lines) == 8
    for line in lines:
        rep = json.loads(line)
        assert rep["best_value"] == pytest.approx(rep["closed_form"], abs=1e-5)


def test_cli_verify_eq5(capsys):
    rc = main(["verify", "eq5", "--restarts", "20", "--seed", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert len(lines) == 11
    for k, line in enumerate(lines):
        rep = json.loads(line)
        assert rep["p"] == pytest.approx(k / 10, abs=1e-15)
        assert rep["w"] == 1.0
        assert abs(rep["gap"]) <= 1e-6
        assert rep["strategy"] == "projective-pair"


def test_cli_simulate_validation(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["simulate", "theorem2", "--shots", "0", "-o", str(out)]) == 2
    assert main(["simulate", "theorem2", "--p", "1.5", "-o", str(out)]) == 2
    assert main(["simulate", "quditmm", "--d", "3", "-o", str(out)]) == 2


def test_cli_simulate_shots_int64_limit(tmp_path, capsys):
    # numpy's multinomial sampler accepts exactly up to 2**63 - 1 shots
    out = tmp_path / "c.json"
    for shots in (str(MAX_COUNT + 1), "100000000000000000000"):
        assert main(["simulate", "theorem2", "--shots", shots, "-o", str(out)]) == 2
        assert "shots" in capsys.readouterr().err
    assert not out.exists()
    assert main(["simulate", "theorem2", "--shots", str(MAX_COUNT), "-o", str(out)]) == 0
    assert ingest_counts(str(out)).total(0, 0) == MAX_COUNT


def test_cli_simulated_purity_claim_matches_protocol(tmp_path):
    out = tmp_path / "c.json"
    assert (
        main(
            [
                "simulate",
                "theorem2",
                "--p",
                "0.6",
                "--shots",
                "100",
                "--seed",
                "0",
                "--claim-purity",
                "-o",
                str(out),
            ]
        )
        == 0
    )
    rec = ingest_counts(str(out))
    rho, _ = theorem2_protocol(0.6, 1.0)
    assert rec.claimed_initial_purity == pytest.approx(purity(rho), abs=1e-12)


def test_cli_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("PURITY_WITNESS_SEED", "99")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["simulate", "theorem2", "--shots", "200", "-o", str(p1)]) == 0
    assert main(["simulate", "theorem2", "--shots", "200", "-o", str(p2)]) == 0
    assert p1.read_text() == p2.read_text()
    monkeypatch.setenv("PURITY_WITNESS_SEED", "abc")
    assert main(["simulate", "theorem2", "--shots", "200", "-o", str(p1)]) == 2


def test_cli_simulate_rejects_huge_dimension(tmp_path, capsys):
    # d = 2**63 - 2 used to end in numpy's "array is too big" traceback
    out = tmp_path / "c.json"
    for d in ("257", "9223372036854775806"):
        assert main(["simulate", "quditmm", "--d", d, "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_cli_verify_rejects_huge_restarts(capsys):
    # used to end in numpy's "array is too big" traceback with exit 1
    assert main(["verify", "theorem2", "--restarts", "1000000000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "restarts" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "theorem2", "--shots", "10"],
        ["verify", "theorem2", "--restarts", "1"],
    ],
)
@pytest.mark.parametrize("source", ["flag", "env"])
def test_cli_rejects_negative_seed(argv, source, tmp_path, monkeypatch, capsys):
    argv = list(argv)
    if argv[0] == "simulate":
        argv += ["-o", str(tmp_path / "c.json")]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("PURITY_WITNESS_SEED", "-1")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "seed" in captured.err
