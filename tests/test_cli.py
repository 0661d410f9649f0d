import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spinzero.cli import format_probability, main, outcome_text, rational_label

REPO_ROOT = Path(__file__).resolve().parent.parent
REFUTATION_SCENARIO = REPO_ROOT / "scenarios" / "refutation.qsc"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rational_label():
    assert rational_label(1.0 / 12.0) == "1/12"
    assert rational_label(0.75) == "3/4"
    assert rational_label(1.0) == "1"
    assert rational_label(0.0) == "0"
    assert rational_label(1.0 / 144.0) == "1/144"
    assert rational_label(0.123456789101112) is None


def test_format_probability_annotates():
    assert format_probability(1.0 / 12.0) == "0.0833333333333 (= 1/12)"
    assert format_probability(0.0) == "0"
    assert format_probability(1.0) == "1"


def test_outcome_text():
    assert outcome_text(1.0) == "+1"
    assert outcome_text(-1.0) == "-1"
    assert outcome_text(0.0) == "0"
    assert outcome_text((1.0, -1.0, 1.0)) == "+-+"
    assert outcome_text((1.0, 0.0)) == "+1,0"


def test_run_shipped_scenario(capsys):
    code, out, err = run_cli(capsys, "run", str(REFUTATION_SCENARIO))
    assert code == 0
    assert "0.0833333333333 (= 1/12)" in out
    assert "result: PASS" in out


def test_run_failing_assertion_reports_computed_value(capsys, tmp_path):
    path = tmp_path / "claim.qsc"
    path.write_text("qubits 8\nstate post = eta_tilde\n"
                    "obs f = embed(F; 1,2,3,4; 8)\nassert_prob f + = 1\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 1
    assert "0.0833333333333 (= 1/12)" in out
    assert "FAIL" in out


def test_run_parse_error_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.qsc"
    path.write_text("state x = |02>\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "line 1" in err and "column" in err


def test_run_runtime_error_exit_3(capsys, tmp_path):
    path = tmp_path / "mismatch.qsc"
    path.write_text("qubits 4\nstate s = |00>\nobs f = F\nmeasure f outcomes +\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 3
    assert "runtime error" in err


def test_refute_passes(capsys):
    code, out, err = run_cli(capsys, "refute", "--rotations", "25")
    assert code == 0
    assert "P(F=+1)=0.0833333333333 (= 1/12)" in out
    assert "refutation verified" in out


def test_refute_reports_are_deterministic(capsys):
    _, first, _ = run_cli(capsys, "refute", "--seed", "4", "--rotations", "25")
    _, second, _ = run_cli(capsys, "refute", "--seed", "4", "--rotations", "25")
    assert first == second


def test_refute_tightened_invariance_tolerance_fails_stage_4(capsys):
    code, out, err = run_cli(capsys, "refute", "--rotations", "25",
                             "--tol", "inv=1e-16")
    assert code == 1
    assert "FAILED at stage 4" in out


def test_refute_text_and_json_numeric_parity(capsys):
    _, text, _ = run_cli(capsys, "refute", "--rotations", "25")
    _, raw, _ = run_cli(capsys, "refute", "--rotations", "25", "--format", "json")
    report = json.loads(raw)
    assert report["passed"] is True
    stage2 = report["stages"][1]
    printed = re.search(r"P\(F=\+1\)=([0-9.eE+-]+)", text).group(1)
    assert math.isclose(float(printed), stage2["certainty"], rel_tol=1e-11)
    stage5 = report["stages"][4]
    printed_corr = re.search(r"max conditional certainty ([0-9.eE+-]+)", text).group(1)
    assert math.isclose(float(printed_corr), stage5["max_conditional_certainty"],
                        rel_tol=1e-11)


def test_sample_matches_exact_probabilities(capsys, tmp_path):
    path = tmp_path / "sample.qsc"
    path.write_text("qubits 8\nstate post = eta_tilde\n"
                    "obs f = embed(F; 1,2,3,4; 8)\nmeasure f outcomes +\n")
    code, raw, _ = run_cli(capsys, "sample", str(path), "--trials", "200000",
                           "--seed", "7", "--format", "json")
    assert code == 0
    report = json.loads(raw)
    rows = {row["outcome"]: row for row in report["rows"]}
    assert math.isclose(rows["+1"]["probability"], 1.0 / 12.0, rel_tol=1e-12)
    assert rows["+1"]["sigma_deviation"] <= 4.0
    assert rows["-1"]["count"] == 0


def test_sample_single_trial_and_determinism(capsys, tmp_path):
    path = tmp_path / "sample.qsc"
    path.write_text("qubits 2\nstate s = singlet(1,2)\nobs a = sigma z 1\n"
                    "measure a outcomes +\n")
    _, first, _ = run_cli(capsys, "sample", str(path), "--trials", "1", "--seed", "3")
    _, second, _ = run_cli(capsys, "sample", str(path), "--trials", "1", "--seed", "3")
    assert first == second
    counts = [int(m.group(1)) for m in re.finditer(r"\((\d+) counts", first)]
    assert sum(counts) == 1


def test_sample_without_measure_line_exit_3(capsys, tmp_path):
    path = tmp_path / "nomeasure.qsc"
    path.write_text("qubits 1\nstate s = |0>\n")
    code, out, err = run_cli(capsys, "sample", str(path))
    assert code == 3


def test_audit_function(capsys):
    code, out, err = run_cli(capsys, "audit-function")
    assert code == 0
    assert "is_function: false" in out
    assert "(+,+,+,+)" in out


def test_audit_invariance(capsys):
    code, out, err = run_cli(capsys, "audit-invariance", "--rotations", "25")
    assert code == 0
    assert "invariant" in out
    assert "verdict: PASS" in out


def test_unknown_tolerance_rejected(capsys):
    code, out, err = run_cli(capsys, "refute", "--tol", "bogus=1")
    assert code == 2
    assert "unknown tolerance" in err


def test_missing_input_file_exit_3(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", str(tmp_path / "nope.qsc"))
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["refute", "--rotations", "0"],
    ["audit-invariance", "--rotations", "-3"],
    ["audit-function", "--seed", "-1"],
    ["sample", str(REFUTATION_SCENARIO), "--seed", "-1"],
])
def test_bad_counts_exit_2_without_traceback(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "spinzero.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("argument error:")
    assert proc.stdout == ""
