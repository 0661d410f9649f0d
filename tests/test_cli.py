import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spinzero.cli import format_probability, main, outcome_text, rational_label
from spinzero.scenario import format_scenario, parse_scenario_file

from helpers import HUGE_INT

REPO_ROOT = Path(__file__).resolve().parent.parent
REFUTATION_SCENARIO = REPO_ROOT / "scenarios" / "refutation.qsc"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """`python -m spinzero.cli` in a new process, on this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "spinzero.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


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


def _assert_report_matches(actual, expected, path="report"):
    """The same keys in the same order at every level, the same types, equal
    strings, booleans and integers, and floats within 1e-12."""
    assert type(actual) is type(expected), path
    if isinstance(expected, dict):
        assert list(actual) == list(expected), path
        for key, value in expected.items():
            _assert_report_matches(actual[key], value, f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), path
        for k, (a, e) in enumerate(zip(actual, expected)):
            _assert_report_matches(a, e, f"{path}[{k}]")
    elif isinstance(expected, float):
        assert abs(actual - expected) <= 1e-12, path
    else:
        assert actual == expected, path


def _distribution(*rows):
    return [{"outcome": outcome, "probability": p} for outcome, p in rows]


def test_run_report_of_the_shipped_scenario_keeps_its_shape(capsys):
    code, out, _ = run_cli(capsys, "run", str(REFUTATION_SCENARIO), "--format", "json")
    assert code == 0
    assertions = [("f", "+1", "1/12", 1 / 12), ("f", "-1", "0", 0.0),
                  ("g", "+1", "3/4", 0.75), ("g", "-1", "1/4", 0.25)]
    _assert_report_matches(json.loads(out), {
        "command": "run",
        "input": str(REFUTATION_SCENARIO),
        "measurements": [{"observables": ["sz1", "sz2", "sx3", "sx4"], "outcomes": "++++",
                          "step_probabilities": [1.0, 1.0, 1.0, 1.0],
                          "joint_probability": 1.0}],
        "assertions": [{"observable": name, "outcome": outcome, "expected": text,
                        "expected_value": p, "computed": p, "passed": True}
                       for name, outcome, text, p in assertions],
        "reports": [
            {"observable": "f", "distribution": _distribution(("+1", 1 / 12), ("-1", 0.0),
                                                              ("0", 11 / 12))},
            {"observable": "g", "distribution": _distribution(("+1", 0.75), ("-1", 0.25),
                                                              ("0", 0.0))}],
        "passed": True,
        "note": ("note: the spin-zero pair behind F and G is reconstructed from its two "
                 "defining overlap checks (0 and 1/12 against |00++>); any rotation inside "
                 "the spin-zero subspace passes the same checks, so branch-resolved values "
                 "such as the 3/4 conditional depend on this choice of pair."),
    })


def test_sample_report_of_the_shipped_scenario_keeps_its_shape(capsys):
    code, out, _ = run_cli(capsys, "sample", str(REFUTATION_SCENARIO), "--trials", "1000",
                           "--seed", "1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    rows = [{"outcome": "".join(signs), "probability": 0.0, "count": 0, "frequency": 0.0,
             "sigma_deviation": 0.0} for signs in itertools.product("+-", repeat=4)]
    rows[0].update(probability=1.0, count=1000, frequency=1.0)
    # P(++++) is 1 up to rounding, so its sigma is rounding noise too: pin
    # the formula on the reported fields rather than the quotient's digits.
    first = report["rows"][0]
    rows[0]["sigma_deviation"] = (abs(first["frequency"] - first["probability"])
                                  / math.sqrt(first["probability"]
                                              * (1.0 - first["probability"]) / 1000))
    _assert_report_matches(report, {
        "command": "sample",
        "input": str(REFUTATION_SCENARIO),
        "state": "post",
        "observables": ["sz1", "sz2", "sx3", "sx4"],
        "trials": 1000,
        "seed": 1,
        "rows": rows,
    })


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
    path.write_text("qubits 2\nstate s = |00>\nobs f = F\nmeasure f outcomes +\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 3
    assert "runtime error" in err


def test_state_narrower_than_register_exit_2(capsys, tmp_path):
    path = tmp_path / "narrow.qsc"
    path.write_text("qubits 2\nstate s = |0>\nobs z = sigma z 1\nreport z\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out) == (2, "")
    assert "line 2, column 1: state 's' is a 1-qubit state on a 2-qubit register" in err


@pytest.mark.parametrize("command", ["run", "sample"])
def test_norm_error_reports_deviation_and_tolerance(capsys, command):
    code, out, err = run_cli(capsys, command, str(REFUTATION_SCENARIO),
                             "--tol", "norm=1e-300")
    assert (code, out) == (3, "")
    match = re.search(r"state norm deviates from 1 by (\S+), "
                      r"more than the norm tolerance 1e-300$", err.strip())
    assert match and 0 < float(match.group(1)) < 1e-12


def test_refute_passes(capsys):
    code, out, err = run_cli(capsys, "refute")
    assert code == 0
    assert "P(F=+1)=0.0833333333333 (= 1/12)" in out
    assert "refutation verified" in out


def test_refute_reports_are_deterministic(capsys):
    _, first, _ = run_cli(capsys, "refute")
    _, second, _ = run_cli(capsys, "refute")
    assert first == second


def test_refute_tightened_invariance_tolerance_fails_stage_4(capsys):
    # below the rounding of F's exact zero commutator with S_x (2.8e-17)
    code, out, err = run_cli(capsys, "refute", "--tol", "inv=1e-18")
    assert code == 1
    assert re.search(r"F under equal rotations: \S+ at S_x -> NOT invariant", out)
    assert "FAILED at stage 4" in out


def test_refute_invariance_tolerance_above_the_per_site_residual_fails_stage_4(capsys):
    # the per-site verdict reads the same tolerance: 2/3 is no longer above it
    code, out, err = run_cli(capsys, "refute", "--tol", "inv=0.7")
    assert code == 1
    assert "F under per-site rotations: 6.667e-01 at sigma_z on site 1 -> invariant" in out
    assert "FAILED at stage 4" in out


def test_refute_text_and_json_numeric_parity(capsys):
    _, text, _ = run_cli(capsys, "refute")
    _, raw, _ = run_cli(capsys, "refute", "--format", "json")
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


def test_sample_rejects_state_between_measure_lines(capsys, tmp_path):
    path = tmp_path / "rebind.qsc"
    path.write_text("qubits 1\nstate a = |0>\nobs z = sigma z 1\nobs x = sigma x 1\n"
                    "measure z outcomes +\nstate b = |+>\nmeasure x outcomes +\n")
    code, out, err = run_cli(capsys, "run", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["measurements"][1]["joint_probability"] == pytest.approx(1.0)
    code, out, err = run_cli(capsys, "sample", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("runtime error: line 7: state 'b' (line 6)")


def test_pair_product_over_ten_qubits_exit_2(capsys, tmp_path):
    path = tmp_path / "pairs.qsc"
    pairs = " * ".join(f"singlet({k},{k + 1})" for k in range(1, 12, 2))
    path.write_text(f"qubits 10\nstate s = {pairs}\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert err.startswith("parse error: line 2, column ")


def test_sum_of_every_ten_qubit_basis_ket_runs_and_round_trips(capsys, tmp_path):
    kets = " + ".join(f"|{''.join(bits)}>" for bits in itertools.product("01", repeat=10))
    path = tmp_path / "long.qsc"
    path.write_text(f"qubits 10\nstate s = normalize({kets})\n"
                    "obs a = sigma z 1\nassert_prob a + = 1/2\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, err) == (0, "")
    assert format_scenario(parse_scenario_file(path)) == path.read_text()


# Expressions nested past the parser's cap of 100 levels.
NESTED = {
    "parentheses": "state s = " + "(" * 3000 + "|0>" + ")" * 3000,
    "signs": "state s = " + "- " * 3000 + "|0>",
    "factors": "state s = " + " * ".join(["|0>"] * 3000),
    "embeds": "obs a = " + "embed(" * 2000 + "sigma z 1" + "; 1; 1)" * 2000,
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_deep_nesting_is_one_parse_error_line(capsys, tmp_path, shape):
    path = tmp_path / "nested.qsc"
    path.write_text(f"qubits 1\n{NESTED[shape]}\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: line 2, column ")
    assert err.endswith(": expression nests deeper than 100 levels\n")
    assert err.count("\n") == 1


def test_refute_stages_are_the_standalone_audits(capsys):
    flags = ["--tol", "inv=1e-12", "--format", "json"]
    _, raw, _ = run_cli(capsys, "refute", *flags)
    stages = json.loads(raw)["stages"]
    _, raw, _ = run_cli(capsys, "audit-function", "--format", "json")
    function = json.loads(raw)
    _, raw, _ = run_cli(capsys, "audit-invariance", *flags)
    invariance = json.loads(raw)
    assert stages[2]["is_function"] == function["is_function"]
    assert stages[2]["witness"] == function["witness"]
    assert stages[3]["results"] == invariance["results"]
    assert stages[3]["passed"] == invariance["passed"]
    assert [(r["observable"], r["pattern"], r["invariant"], r["generator"])
            for r in invariance["results"]] == [
        ("F", "equal", True, "S_x"), ("G", "equal", True, "S_x"),
        ("F", "per_site", False, "sigma_z on site 1"),
        ("G", "per_site", False, "sigma_z on site 1")]


def test_audit_function(capsys):
    code, out, err = run_cli(capsys, "audit-function")
    assert code == 0
    assert "is_function: false" in out
    assert "(+,+,+,+)" in out


def test_audit_invariance(capsys):
    code, out, err = run_cli(capsys, "audit-invariance")
    assert code == 0
    assert re.search(r"F under equal rotations: \S+ at S_x -> invariant", out)
    assert "verdict: PASS" in out


def test_unknown_tolerance_rejected(capsys):
    code, out, err = run_cli(capsys, "refute", "--tol", "bogus=1")
    assert code == 2
    assert "unknown tolerance" in err


def test_unread_tolerance_exit_2_without_traceback():
    proc = run_fresh("refute", "--tol", "eig=1e-3")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "argument error: unknown tolerance 'eig'; names: corr, zero, inv\n"
    assert proc.stdout == ""


def test_missing_input_file_exit_3(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", str(tmp_path / "nope.qsc"))
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["refute", "--rotations", "100"],   # the removed flag, at its old default
    ["sample", str(REFUTATION_SCENARIO), "--trials", "0"],
    ["audit-function", "--seed", "-1"],
    ["sample", str(REFUTATION_SCENARIO), "--seed", "-1"],
    ["sample", str(REFUTATION_SCENARIO), "--trials", "9223372036854775808"],
])
def test_bad_counts_exit_2_without_traceback(argv):
    proc = run_fresh(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("argument error:")
    assert proc.stdout == ""


def test_undecodable_scenario_exit_2_without_traceback(tmp_path):
    path = tmp_path / "latin1.qsc"
    path.write_bytes(b"qubits 1\nstate a = |0>\n# caf\xe9\n")
    proc = run_fresh("run", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "parse error: line 3, column 6: invalid UTF-8 byte 0xe9\n"
    assert proc.stdout == ""


# The flags and `--tol` names each command reads; every other one is exit 2.
COMMAND_FLAGS = {
    "run": ({"--tol", "--format"}, ("assert", "zero", "norm")),
    "refute": ({"--tol", "--format"}, ("corr", "zero", "inv")),
    "sample": ({"--seed", "--trials", "--tol", "--format"}, ("norm",)),
    "audit-function": ({"--format"}, ()),
    "audit-invariance": ({"--tol", "--format"}, ("inv",)),
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_only_the_flags_the_command_reads(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    flags, names = COMMAND_FLAGS[command]
    assert set(re.findall(r"--\w+", out)) - {"--help"} == flags
    listed = re.search(r"names: ([a-z, ]+)", out)
    assert (listed.group(1) if listed else "") == ", ".join(names)


@pytest.mark.parametrize("argv, message", [
    (["audit-function", "--seed", "5"], "unrecognized arguments: --seed 5"),
    (["run", str(REFUTATION_SCENARIO), "--rotations", "4"],
     "unrecognized arguments: --rotations 4"),
    (["refute", "--trials", "9"], "unrecognized arguments: --trials 9"),
    (["run", str(REFUTATION_SCENARIO), "--tol", "inv=1e-3"],
     "unknown tolerance 'inv'; names: assert, zero, norm"),
    (["refute", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    ([], "the following arguments are required: command"),
    (["sample", str(REFUTATION_SCENARIO), "--trials", "9223372036854775808"],
     "--trials must be <= 9223372036854775807"),
    (["run", str(REFUTATION_SCENARIO), "--tol", "assert=inf"],
     "tolerance assert must be positive and finite, got inf"),
    (["refute", "--tol", "corr=1e400"],
     "tolerance corr must be positive and finite, got 1e400"),
    (["audit-invariance", "--rotations", "5"], "unrecognized arguments: --rotations 5"),
    (["refute", "--seed", "3"], "unrecognized arguments: --seed 3"),
])
def test_bad_command_line_is_one_argument_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"argument error: {message}")
    assert err.count("\n") == 1


def test_parser_reuse_keeps_no_tolerance_between_calls(capsys):
    code, _, _ = run_cli(capsys, "refute", "--tol", "corr=0.5")
    assert code == 1
    code, out, _ = run_cli(capsys, "refute", "--format", "json")
    assert code == 0
    proc = run_fresh("refute", "--format", "json")
    assert proc.returncode == 0
    assert out == proc.stdout


def _contract_inputs(tmp_path) -> list[str]:
    """The shipped scenario, byte-mutated copies, a missing path, a directory,
    and literals and nesting the evaluator cannot hold."""
    text = REFUTATION_SCENARIO.read_bytes()
    rng = random.Random(0)
    paths = [str(REFUTATION_SCENARIO)] * 5 + [str(tmp_path / "missing.qsc"), str(tmp_path)]
    for k, line in enumerate(["state s = 1/sqrt(0) |0>", f"state s = {HUGE_INT} |0>",
                              "state s = " + "(" * 3000 + "|0>" + ")" * 3000]):
        path = tmp_path / f"unrepresentable{k}.qsc"
        path.write_text(f"qubits 1\n{line}\nobs a = sigma z 1\nmeasure a outcomes +\n")
        paths.append(str(path))
    for k in range(8):
        data = bytearray(text)
        for _ in range(1 + k % 3):
            data[rng.randrange(len(data))] = rng.choice(b"0189+-|>()=,; \n\xe9")
        if k == 0:
            data[rng.randrange(len(data))] = 0xFF  # never valid UTF-8
        path = tmp_path / f"mutated{k}.qsc"
        path.write_bytes(bytes(data))
        paths.append(str(path))
    return paths


def test_exit_code_contract(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    tol_names = ["assert", "corr", "inv", "norm", "zero", "eig", "herm", "bogus", ""]
    tol_values = ["1e-3", "1e-9", "1e-16", "inf", "0", "-1", "nan", "abc", ""]
    values = {
        "--seed": st.sampled_from(["0", "7", "-1", "x", "9223372036854775808", "1" + "0" * 40]),
        "--trials": st.sampled_from(["1", "1000", "0", "-5", "1.5",
                                     "9223372036854775807", "9223372036854775808"]),
        # no command reads it any more
        "--rotations": st.sampled_from(["1", "100", "0", "-2", "x"]),
        "--format": st.sampled_from(["text", "json", "junk"]),
    }
    every_flag = sorted(values) + ["--tol"]
    inputs = _contract_inputs(tmp_path)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(data=st.data())
    def check(data):
        command = data.draw(st.sampled_from(sorted(COMMAND_FLAGS)))
        # every name can appear; the command's own are drawn more often
        own_flags, own_tols = COMMAND_FLAGS[command]
        names = data.draw(st.lists(st.sampled_from(sorted(own_flags) + every_flag), max_size=3))
        tol = st.builds("{}={}".format, st.sampled_from(list(own_tols) + tol_names),
                        st.sampled_from(tol_values)) | st.just("inv")
        flags = [(name, data.draw(values.get(name, tol))) for name in names]
        argv = [command] + [x for pair in flags for x in pair]
        # one argv in four gives a file to a command that takes none, or omits it
        misplaced = data.draw(st.integers(0, 3)) == 3
        if (command in ("run", "sample")) != misplaced:
            argv.insert(1, data.draw(st.sampled_from(inputs)))
        formats = [value for name, value in flags if name == "--format"]
        code = _assert_contract(argv, json_report=bool(formats) and formats[-1] == "json")
        # a flag the command does not read, --rotations on every command, is exit 2
        if not {name for name, _ in flags} <= own_flags:
            assert code == 2, argv

    check()
    # Most drawn command lines stop at an argument error; give every input
    # to both file commands once, so that each reaches the parser.
    for path in inputs:
        for command in ("run", "sample"):
            code = _assert_contract([command, path, "--format", "json"], json_report=True)
            if "unrepresentable" in path:
                assert code == 2, path


def _assert_contract(argv, json_report: bool) -> int:
    """Run `main(argv)`: exit 0-3, no traceback, and a JSON report of a
    failed verdict says so."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 1 and json_report:
        assert json.loads(out.getvalue())["passed"] is False, argv
    return code
