import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from spinzero.qcore import SIGMA_Z, inner
from spinzero.states import SINGLET_2, basis_ket, eta_tilde, singlet_on, spin_zero_basis
from spinzero.observables import SpectralObservable, from_matrix, pauli
from spinzero.measurement import ZeroProbabilityError
from spinzero.scenario import (
    ScenarioParseError,
    ScenarioRuntimeError,
    assign_claimed_value,
    check_eta_candidate,
    dirac_audit,
    format_scenario,
    parse_scenario,
    parse_scenario_file,
    run_claimed_protocol,
    run_scenario,
    scenarios_equivalent,
)

from helpers import (
    BIG_200,
    BIG_308,
    HUGE_INT,
    MALFORMED_INPUTS,
    kron_chain,
    mixed_ket_for_signs,
    scenario_corpus,
)


REFUTATION_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "refutation.qsc"


def parse_state(expr, prefix=""):
    text = f"{prefix}state x = {expr}\n"
    return parse_scenario(text).states["x"]


# ---------------------------------------------------------------------------
# parsing states

def test_parse_simple_ket():
    vec = parse_state("|00++>")
    expected = np.zeros(16)
    expected[:4] = 0.5
    assert np.allclose(vec, expected)


def test_parse_post_measurement_expression():
    vec = parse_state("1/2 (|00++> * (psi0 + 1*sqrt(3) psi1))")
    assert np.allclose(vec, eta_tilde(), atol=1e-12)


def test_parse_builtins():
    pair = spin_zero_basis()
    assert np.allclose(parse_state("phi0"), pair.phi0)
    assert np.allclose(parse_state("psi1"), pair.phi1)
    assert np.allclose(parse_state("eta_tilde"), eta_tilde())


def test_parse_coefficient_forms():
    assert np.allclose(parse_state("normalize(2 |0>)"), [1, 0])
    assert np.allclose(parse_state("normalize(-1/2 |1>)"), [0, -1])
    assert np.allclose(parse_state("normalize(i |0> + |1>)"),
                       np.array([1j, 1]) / math.sqrt(2))
    assert np.allclose(parse_state("normalize(1/2*sqrt(3) |0> + 1/2 |1>)"),
                       [math.sqrt(3) / 2, 0.5])
    assert np.allclose(parse_state("normalize(i/2 |0> + 1/2 |1>)"),
                       np.array([1j, 1]) / math.sqrt(2))
    assert np.allclose(parse_state("normalize(- |1>)"), [0, -1])


def test_parse_name_references_resolve_in_order():
    text = "state a = |01>\nstate b = normalize(a + |10>)\n"
    scenario = parse_scenario(text)
    assert np.allclose(scenario.states["b"],
                       np.array([0, 1, 1, 0]) / math.sqrt(2))


def test_parse_accepts_crlf_line_endings():
    scenario = parse_scenario("qubits 1\r\nstate x = |0>\r\n")
    assert np.allclose(scenario.states["x"], [1, 0])


def test_parse_singlet_atom():
    assert np.allclose(parse_state("singlet(1,2)"), SINGLET_2)
    assert np.allclose(parse_state("singlet(2,1)"), -SINGLET_2)


def test_parse_pair_product_covers_crossed_pairing():
    vec = parse_state("singlet(1,3) * singlet(2,4)")
    assert np.allclose(vec, singlet_on(1, 3, 4, filler=SINGLET_2))


def test_parse_pair_product_composes_with_plain_states():
    vec = parse_state("|0> * singlet(1,2)")
    assert np.allclose(vec, np.kron(basis_ket("0"), SINGLET_2))


def test_parse_spin_zero_identity_from_pairings():
    vec = parse_state("normalize(2 singlet(1,3) * singlet(2,4) + -1 singlet(1,2) * singlet(3,4))")
    assert np.allclose(vec, spin_zero_basis().phi1, atol=1e-12)


# ---------------------------------------------------------------------------
# parse and semantic errors, with positions

@pytest.mark.parametrize("text,line", MALFORMED_INPUTS)
def test_malformed_inputs_report_positions(text, line):
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert err.value.line == line
    assert err.value.col >= 1
    assert f"line {line}," in str(err.value)


def test_parse_error_column_points_at_bad_ket_character():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("state x = |02>\n")
    assert err.value.col == 13  # the '2'


@pytest.mark.parametrize("text, line, col, message", [
    ("state x = 1/0 |0>\n", 1, 13, "division by zero in coefficient"),
    ("state x = 1/sqrt(0) |0>\n", 1, 18, "division by zero in coefficient"),
    (f"state x = 2*{HUGE_INT} |0>\n", 1, 13, "integer literal of 400 digits is too large"),
    (f"state x = sqrt({HUGE_INT}) |0>\n", 1, 16, "integer literal of 400 digits is too large"),
    # each factor fits a float, their product does not
    (f"state x = 1{'0' * 200}*1{'0' * 200} |0>\n", 1, 11, "coefficient overflows a float"),
    (f"qubits 1\nstate s = |0>\nobs a = sigma z 1\nassert_prob a + = {HUGE_INT}/3\n",
     4, 19, "integer literal of 400 digits is too large"),
    # a superscript two is a digit to str.isdigit() but not an integer literal
    ("qubits \u00b2\n", 1, 8, "expected a qubit count, got '\u00b2'"),
    pytest.param(f"qubits {'1' * 5000}\n", 1, 8, "integer literal of 5000 digits is too large",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="int() has no digit limit")),
])
def test_numeric_literal_errors_point_at_the_literal(text, line, col, message):
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value).endswith(message)


def test_overflow_in_a_state_expression_points_at_the_operation():
    cases = [  # expression, the text before the error column, what overflowed
        (f"normalize({BIG_308} |0> + {BIG_308} |0>)", f"normalize({BIG_308} |0> ", "sum"),
        (f"normalize({BIG_200} |0> + {BIG_200} |1>)", "", "norm"),
        (f"normalize({BIG_200} |0> * {BIG_200} |0>)", "normalize(", "scaled state"),
        (f"({BIG_200} |0>) * ({BIG_200} |0>)", f"({BIG_200} |0>) ", "tensor product"),
    ]
    for expr, before, what in cases:
        with pytest.raises(ScenarioParseError) as err:
            parse_state(expr)
        assert (err.value.line, err.value.col) == (1, len("state x = ") + len(before) + 1)
        assert str(err.value).endswith(f"{what} overflows a float")


def test_normalize_is_hinted_only_for_a_finite_norm():
    with pytest.raises(ScenarioParseError) as err:
        parse_state("2 |0>")
    assert str(err.value).endswith(
        "state 'x' is not normalized (norm 2); wrap the expression in normalize(...)")
    # normalize(...) of this sum fails at 'normalize(' (see above), so no hint
    with pytest.raises(ScenarioParseError) as err:
        parse_state(f"{BIG_200} |0> + {BIG_200} |1>")
    assert str(err.value).endswith(
        "state 'x' is not normalized (norm inf); its norm overflows a float")


def test_undecodable_file_reports_first_bad_byte(tmp_path):
    path = tmp_path / "bad.qsc"
    # CRLF endings; columns count characters, so the two-byte e-acute is one.
    path.write_bytes(b"qubits 1\r\nstate a = |0> # \xc3\xa9\xff\r\n")
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario_file(path)
    assert (err.value.line, err.value.col) == (2, 18)


def test_crlf_file_parses_like_lf(tmp_path):
    text = "qubits 1\nstate a = |+>\nobs x = sigma x 1\nmeasure x outcomes +\n"
    crlf, lf = tmp_path / "crlf.qsc", tmp_path / "lf.qsc"
    crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    lf.write_bytes(text.encode("utf-8"))
    assert scenarios_equivalent(parse_scenario_file(crlf), parse_scenario_file(lf))


def test_shipped_scenario_is_equivalent_to_its_canonical_text():
    # The canonical text drops the comments, so every line moves.
    text = REFUTATION_SCENARIO.read_text()
    shipped = parse_scenario(text)
    assert scenarios_equivalent(shipped, parse_scenario(format_scenario(shipped)))


@pytest.mark.parametrize("old, new", [
    ("outcomes ++++", "outcomes +++-"),       # one outcome sign
    ("assert_prob f + = 1/12", "assert_prob f + = 1/6"),  # one rational
    ("report f\n", "report g\n"),             # one observable name
    ("report f\nreport g\n", "report g\nreport f\n"),  # two lines swapped
])
def test_a_different_program_is_not_equivalent(old, new):
    text = REFUTATION_SCENARIO.read_text()
    assert text.count(old) == 1
    shipped = parse_scenario(text)
    assert not scenarios_equivalent(shipped, parse_scenario(text.replace(old, new)))


def test_reserved_names_rejected():
    with pytest.raises(ScenarioParseError):
        parse_scenario("state phi0 = |0>\n")
    with pytest.raises(ScenarioParseError):
        parse_scenario("obs sigma = F\n")


def test_duplicate_binding_rejected():
    with pytest.raises(ScenarioParseError):
        parse_scenario("state x = |0>\nstate x = |1>\n")


def test_unknown_names_rejected():
    with pytest.raises(ScenarioParseError):
        parse_scenario("state x = y\n")
    with pytest.raises(ScenarioParseError):
        parse_scenario("state x = |0>\nreport f\n")


def test_sigma_requires_qubits_declaration():
    with pytest.raises(ScenarioParseError):
        parse_scenario("obs z = sigma z 1\n")


def test_pair_product_must_cover_contiguous_sites():
    with pytest.raises(ScenarioParseError):
        parse_scenario("state x = singlet(2,3)\n")
    with pytest.raises(ScenarioParseError):
        parse_scenario("state x = singlet(1,2) * singlet(2,3)\n")


def test_assert_prob_takes_one_sign():
    with pytest.raises(ScenarioParseError):
        parse_scenario("qubits 1\nstate x = |0>\nobs z = sigma z 1\n"
                       "assert_prob z ++ = 1/2\n")


def test_measure_sign_count_must_match():
    with pytest.raises(ScenarioParseError):
        parse_scenario("qubits 2\nstate x = |00>\nobs a = sigma z 1\n"
                       "obs b = sigma z 2\nmeasure a, b outcomes +\n")


# ---------------------------------------------------------------------------
# observables in the DSL

def test_parse_sigma_and_embed():
    text = ("qubits 8\nstate x = eta_tilde\nobs f4 = embed(F; 1,2,3,4; 8)\n"
            "obs z1 = sigma z 1\n")
    scenario = parse_scenario(text)
    assert scenario.observables["f4"].dim == 256
    assert scenario.observables["z1"].dim == 256
    assert scenario.observables["f4"].sites == (1, 2, 3, 4)


def test_parse_axis_case_insensitive():
    scenario = parse_scenario("qubits 1\nstate x = |0>\nobs z = sigma Z 1\n")
    assert np.allclose(scenario.observables["z"].matrix(), SIGMA_Z)


# ---------------------------------------------------------------------------
# execution

def test_run_scenario_assertions_and_reports():
    text = """qubits 8
state post = eta_tilde
obs f = embed(F; 1,2,3,4; 8)
obs sz1 = sigma z 1
measure sz1 outcomes +
assert_prob f + = 1/12
assert_prob f - = 0
report f
"""
    result = run_scenario(parse_scenario(text))
    assert result.passed
    assert [a.passed for a in result.assertions] == [True, True]
    assert abs(result.assertions[0].computed - 1.0 / 12.0) < 1e-12
    assert result.reports[0].observable == "f"
    assert abs(result.reports[0].distribution.probability(0.0) - 11.0 / 12.0) < 1e-12


def test_run_scenario_collects_failed_assertion():
    text = "qubits 8\nstate post = eta_tilde\nobs f = embed(F; 1,2,3,4; 8)\nassert_prob f + = 1\n"
    result = run_scenario(parse_scenario(text))
    assert not result.passed
    assert abs(result.assertions[0].computed - 1.0 / 12.0) < 1e-12


def test_run_scenario_measure_updates_register():
    text = """qubits 2
state s = singlet(1,2)
obs a = sigma z 1
obs b = sigma z 2
measure a outcomes +
assert_prob b - = 1
"""
    result = run_scenario(parse_scenario(text))
    assert result.passed
    assert result.measurements[0].joint_probability == pytest.approx(0.5)


def test_run_scenario_zero_probability_is_runtime_error():
    text = "qubits 2\nstate s = |00>\nobs a = sigma z 1\nmeasure a outcomes -\n"
    with pytest.raises(ScenarioRuntimeError):
        run_scenario(parse_scenario(text))


def test_run_scenario_dimension_mismatch_is_runtime_error():
    text = "qubits 2\nstate s = |00>\nobs f = F\nmeasure f outcomes +\n"
    with pytest.raises(ScenarioRuntimeError):
        run_scenario(parse_scenario(text))


# ---------------------------------------------------------------------------
# printing and round-trips

def test_format_scenario_canonical_text():
    text = ("qubits 8\n"
            "state post = 1/2 (|00++> * (psi0 + 1*sqrt(3) psi1))\n"
            "obs f = embed(F; 1,2,3,4; 8)\n"
            "measure f outcomes +\n"
            "assert_prob f + = 1/12\n"
            "report f\n")
    scenario = parse_scenario(text)
    assert format_scenario(scenario) == text


@pytest.mark.parametrize("text", [
    "qubits 5\nstate x = (singlet(1,3) * singlet(2,4)) * |0>\n",
    "qubits 6\nstate x = |0> * (singlet(1,3) * singlet(2,4)) * |0>\n",
    "qubits 3\nstate x = (|0> * |1>) * |0>\n",
    "qubits 4\nstate x = (-1 singlet(1,2)) * singlet(1,2)\n",
])
def test_format_keeps_parentheses_of_a_left_tensor_group(text):
    # Pair products do not re-associate: without its parentheses the left
    # operand would pair its sites with the rest of the chain.
    first = parse_scenario(text)
    assert format_scenario(first) == text
    assert scenarios_equivalent(first, parse_scenario(format_scenario(first)))


def test_round_trip_corpus():
    rng = np.random.default_rng(61)
    for text in scenario_corpus(rng, 100):
        first = parse_scenario(text)
        second = parse_scenario(format_scenario(first))
        assert scenarios_equivalent(first, second, atol=1e-10), text


# ---------------------------------------------------------------------------
# the claimed protocol

def test_assign_claimed_value_all_up():
    assert assign_claimed_value((1, 1, 1, 1)) == 1.0


def test_assign_claimed_value_x_flipped():
    # Overlap with phi0 stays zero; with phi1 it is 1/(2 sqrt 3).
    assert assign_claimed_value((1, 1, -1, -1)) == 1.0
    ket = mixed_ket_for_signs((1, 1, -1, -1))
    pair = spin_zero_basis()
    assert abs(inner(pair.phi1, ket) - 1.0 / (2.0 * math.sqrt(3.0))) < 1e-12
    assert abs(inner(pair.phi0, ket)) < 1e-14


def test_assign_claimed_value_alternating_is_minus_one():
    # Direct expansion: overlap 1/2 magnitude with phi0 and 0 with phi1, so
    # the lookup rule lands on -1 (not ambiguous) for this reconstruction.
    ket = mixed_ket_for_signs((1, -1, 1, -1))
    pair = spin_zero_basis()
    assert abs(abs(inner(pair.phi0, ket)) - 0.5) < 1e-12
    assert abs(inner(pair.phi1, ket)) < 1e-14
    assert assign_claimed_value((1, -1, 1, -1)) == -1.0


def test_assign_claimed_value_partition_is_stable():
    counts = {1.0: 0, -1.0: 0, "ambiguous": 0, "undefined": 0}
    for signs in itertools.product([1, -1], repeat=4):
        counts[assign_claimed_value(signs)] += 1
    assert counts == {1.0: 12, -1.0: 4, "ambiguous": 0, "undefined": 0}


def test_assign_claimed_value_arity():
    with pytest.raises(ValueError):
        assign_claimed_value((1, 1, 1))


def test_run_claimed_protocol_refutes_on_post_measurement_state():
    report = run_claimed_protocol(eta_tilde(), (1, 1, 1, 1))
    assert report.claimed_value == 1.0
    assert report.verdict == "refuted"
    assert abs(report.certainty - 1.0 / 12.0) < 1e-12
    dist = report.quantum_distribution
    assert abs(dist.probability(1.0) - 1.0 / 12.0) < 1e-12
    assert dist.probability(-1.0) < 1e-12
    assert abs(dist.probability(0.0) - 11.0 / 12.0) < 1e-12


def test_run_claimed_protocol_confirms_genuine_function():
    # Positive harness control: a collective observable that IS a function
    # of the single-site outcomes is confirmed with certainty 1.
    collective = from_matrix(np.kron(SIGMA_Z, SIGMA_Z), name="zz")
    program = [pauli("z", 1, 2), pauli("z", 2, 2)]
    state = basis_ket("++")
    report = run_claimed_protocol(state, (1, -1), program=program,
                                  collective=collective)
    assert report.claimed_value == -1.0
    assert report.verdict == "confirmed"
    assert abs(report.certainty - 1.0) < 1e-12


def test_run_claimed_protocol_rejects_impossible_outcome():
    with pytest.raises(ZeroProbabilityError):
        run_claimed_protocol(eta_tilde(), (1, -1, 1, 1))


def test_run_claimed_protocol_on_four_qubit_state():
    report = run_claimed_protocol(spin_zero_basis().phi1, (1, 1, 1, 1))
    assert report.claimed_value == 1.0
    assert report.verdict == "refuted"
    assert abs(report.certainty - 1.0 / 12.0) < 1e-12


# ---------------------------------------------------------------------------
# candidate checks and the functional audit

def test_check_eta_candidate_accepts_fixed_point():
    ok, residual = check_eta_candidate(eta_tilde())
    assert ok
    assert residual < 1e-12


def test_check_eta_candidate_rejects_balanced_pairing():
    pair = spin_zero_basis()
    candidate = (np.kron(pair.phi0, pair.phi0) + np.kron(pair.phi1, pair.phi1)) / math.sqrt(2)
    ok, residual = check_eta_candidate(candidate)
    assert not ok
    # Collapse keeps only the second branch, giving fidelity 3/4.
    assert abs(residual - 0.25) < 1e-12


def test_check_eta_candidate_rejects_cross_singlets():
    text = "state c = singlet(1,5) * singlet(2,6) * singlet(3,7) * singlet(4,8)\n"
    candidate = parse_scenario(text).states["c"]
    ok, residual = check_eta_candidate(candidate)
    assert not ok
    assert residual > 0.1


def test_dirac_audit_default_refuses():
    report = dirac_audit()
    assert not report.is_function
    assert report.witness_outcome == (1.0, 1.0, 1.0, 1.0)


def test_dirac_audit_accepts_mixed_basis_diagonal():
    kets = [mixed_ket_for_signs(signs)
            for signs in itertools.product([1, -1], repeat=4)]
    plus = np.column_stack(kets[:8])
    minus = np.column_stack(kets[8:])
    diagonal = SpectralObservable(branches=((1.0, plus), (-1.0, minus)), name="diag")
    assert dirac_audit(diagonal).is_function


def test_dirac_audit_accepts_embedded_product():
    embedded = from_matrix(kron_chain(SIGMA_Z, SIGMA_Z, np.eye(2), np.eye(2)), name="zz")
    assert dirac_audit(embedded).is_function
