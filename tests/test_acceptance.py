"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here, not deferred to configuration.
"""

import math
from pathlib import Path

import numpy as np

from spinzero.qcore import (
    hermitian_eigen,
    inner,
    max_abs,
)
from spinzero.states import basis_ket, eta_tilde, spin_zero_basis, total_spin_squared
from spinzero.observables import (
    SpectralObservable,
    check_invariance,
    embed,
    from_matrix,
    is_function_of,
    observable_f,
    observable_g,
    pauli,
)
from spinzero.measurement import (
    ZeroProbabilityError,
    born_distribution,
    collapse,
    correlation_check,
    joint_distribution,
    run_sequence,
)
from spinzero.scenario import (
    ScenarioParseError,
    format_scenario,
    parse_scenario,
    run_claimed_protocol,
)
from spinzero.cli import main as cli_main

from helpers import (
    MALFORMED_INPUTS,
    random_hermitian,
    random_state,
    sample_counts,
    scenario_corpus,
    scenarios_equivalent,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(number: int, passed: bool, detail: str):
    print(f"criterion {number:02d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def f_on_eight():
    return embed(observable_f(), [1, 2, 3, 4], 8)


def test_criterion_01_overlap_reproduction():
    pair = spin_zero_basis()
    ket = basis_ket("00++")
    overlap_sq = abs(inner(ket, pair.phi1)) ** 2
    phi0_overlap = abs(inner(ket, pair.phi0))
    ok = abs(overlap_sq - 1.0 / 12.0) <= 1e-12 and phi0_overlap <= 1e-12
    report(1, ok, f"|<00++|phi1>|^2 = {overlap_sq!r}, |<00++|phi0>| = {phi0_overlap!r}")


def test_criterion_02_collapse_counterexample():
    dist = born_distribution(eta_tilde(), f_on_eight())
    dist_ok = (abs(dist.probability(1.0) - 1.0 / 12.0) <= 1e-12
               and abs(dist.probability(-1.0)) <= 1e-12
               and abs(dist.probability(0.0) - 11.0 / 12.0) <= 1e-12)
    protocol = run_claimed_protocol(eta_tilde(), (1, 1, 1, 1))
    protocol_ok = (protocol.claimed_value == 1.0
                   and protocol.verdict == "refuted"
                   and abs(protocol.certainty - 1.0 / 12.0) <= 1e-12)
    report(2, dist_ok and protocol_ok,
           f"P = {dict((k, v) for k, v in dist.entries)!r}; claimed "
           f"{protocol.claimed_value}, verdict {protocol.verdict}, "
           f"certainty {protocol.certainty!r}")


def test_criterion_03_impossible_branch_signaling():
    try:
        collapse(eta_tilde(), f_on_eight(), -1.0)
        ok, detail = False, "collapse onto the -1 branch did not raise"
    except ZeroProbabilityError as exc:
        ok, detail = True, f"raised ZeroProbabilityError: {exc}"
    report(3, ok, detail)


def test_criterion_04_dirac_audit():
    generators = [pauli("z", 1, 4), pauli("z", 2, 4), pauli("x", 3, 4), pauli("x", 4, 4)]
    negative = is_function_of(observable_f(), generators)
    product = from_matrix(np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])), name="zz")
    positive = is_function_of(product, [pauli("z", 1, 2), pauli("z", 2, 2)])
    expected_table = {(1.0, 1.0): 1.0, (1.0, -1.0): -1.0,
                      (-1.0, 1.0): -1.0, (-1.0, -1.0): 1.0}
    ok = (not negative.is_function and negative.witness_outcome is not None
          and positive.is_function and positive.value_table == expected_table)
    report(4, ok, f"F audit witness {negative.witness_outcome}; "
                  f"product table {positive.value_table}")


def test_criterion_05_invariance():
    ok = True
    details = []
    for obs in (observable_f(), observable_g()):
        equal = check_invariance(obs, pattern="equal", trials=100, seed=5)
        per_site = check_invariance(obs, pattern="per_site", trials=100, seed=6)
        violations = sum(1 for d in per_site.deviations if d > 1e-3)
        ok = ok and equal.max_deviation < 1e-9 and violations >= 95
        details.append(f"{obs.name}: equal max dev {equal.max_deviation:.2e}, "
                       f"per-site violations {violations}/100")
    report(5, ok, "; ".join(details))


def test_criterion_06_no_certain_prediction_for_bob():
    corr = correlation_check(eta_tilde(), f_on_eight(),
                             embed(observable_g(), [5, 6, 7, 8], 8))
    ok = (corr.max_conditional_certainty < 1.0 - 1e-9
          and abs(corr.max_conditional_certainty - 0.75) <= 1e-12)
    report(6, ok, f"max conditional certainty {corr.max_conditional_certainty!r}")


def test_criterion_07_spin_zero_oracle():
    decomposition = hermitian_eigen(total_spin_squared(4))
    null_mask = decomposition.eigenvalues < 1e-9
    null_dim = int(np.sum(null_mask))
    null_basis = decomposition.eigenvectors[:, null_mask]
    projector = null_basis @ null_basis.conj().T
    pair = spin_zero_basis()
    residual0 = float(np.linalg.norm(projector @ pair.phi0 - pair.phi0))
    residual1 = float(np.linalg.norm(projector @ pair.phi1 - pair.phi1))
    ok = null_dim == 2 and residual0 < 1e-9 and residual1 < 1e-9
    report(7, ok, f"null dimension {null_dim}, containment residuals "
                  f"{residual0:.2e}, {residual1:.2e}")


def test_criterion_08_eigensolver_round_trip():
    clustered = from_matrix(observable_f().matrix())
    sizes = {ev: basis.shape[1] for ev, basis in clustered.branches}
    cluster_ok = (len(sizes) == 3
                  and all(abs(ev - round(ev)) < 1e-10 for ev in sizes)
                  and sizes[max(sizes)] == 1 and sizes[min(sizes)] == 1
                  and sizes[sorted(sizes, key=abs)[0]] == 14)
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        m = random_hermitian(16, rng)
        worst = max(worst, max_abs(hermitian_eigen(m).reconstruct() - m))
    ok = cluster_ok and worst < 1e-9
    report(8, ok, f"F clusters {sizes}; worst random reconstruction {worst:.2e}")


def _random_shared_basis_pair(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(m)
    cut_a = int(rng.integers(1, dim))
    cut_b = int(rng.integers(1, dim))
    a = SpectralObservable(branches=((1.0, q[:, :cut_a]), (-1.0, q[:, cut_a:])), name="a")
    b = SpectralObservable(branches=((1.0, q[:, :cut_b]), (-1.0, q[:, cut_b:])), name="b")
    return a, b


def test_criterion_09_measurement_semantics_properties():
    rng = np.random.default_rng(131)
    worst_completeness = 0.0
    worst_repeat = 1.0
    worst_order = 0.0
    for _ in range(200):
        n = int(rng.choice([2, 3, 4]))
        dim = 2 ** n
        state = random_state(n, rng)
        a, b = _random_shared_basis_pair(dim, rng)
        dist = born_distribution(state, a)
        worst_completeness = max(worst_completeness,
                                 abs(sum(p for _, p in dist.entries) - 1.0))
        for ev in a.eigenvalues:
            if dist.probability(ev) <= 1e-14:
                continue
            record = collapse(state, a, ev)
            worst_repeat = min(worst_repeat,
                               born_distribution(record.post_state, a).probability(ev))
        joint = joint_distribution(state, [a, b])
        outcome = max(joint.entries, key=lambda e: e[1])[0]
        forward = run_sequence(state, [a, b], list(outcome))
        backward = run_sequence(state, [b, a], list(reversed(outcome)))
        p_forward = forward[0].probability * forward[1].probability
        p_backward = backward[0].probability * backward[1].probability
        worst_order = max(worst_order, abs(p_forward - p_backward),
                          float(np.max(np.abs(forward[-1].post_state
                                              - backward[-1].post_state))))
    ok = (worst_completeness < 1e-10 and worst_repeat >= 1.0 - 1e-10
          and worst_order < 1e-10)
    report(9, ok, f"completeness gap {worst_completeness:.2e}, repeatability "
                  f"{worst_repeat!r}, order deviation {worst_order:.2e}")


def test_criterion_10_sampling():
    trials = 1_000_000
    p = 1.0 / 12.0
    sigma = math.sqrt(p * (1.0 - p) / trials)
    ok = True
    details = []
    for seed in (101, 202, 303):
        counts = sample_counts(eta_tilde(), [f_on_eight()], trials, seed)
        freq = counts[(1.0,)] / trials
        deviation = abs(freq - p) / sigma
        ok = ok and deviation <= 4.0
        details.append(f"seed {seed}: {deviation:.2f} sigma")
    report(10, ok, "; ".join(details))


def test_criterion_11_parser(capsys):
    exit_code = cli_main(["run", str(REPO_ROOT / "scenarios" / "refutation.qsc")])
    shipped_ok = exit_code == 0

    rng = np.random.default_rng(997)
    round_trips = 0
    for text in scenario_corpus(rng, 100):
        first = parse_scenario(text)
        second = parse_scenario(format_scenario(first))
        if scenarios_equivalent(first, second):
            round_trips += 1

    malformed_ok = 0
    for text, line in MALFORMED_INPUTS:
        try:
            parse_scenario(text)
        except ScenarioParseError as exc:
            if exc.line == line and exc.col >= 1:
                malformed_ok += 1
    capsys.readouterr()  # swallow the CLI report so only criterion lines print
    ok = shipped_ok and round_trips == 100 and malformed_ok == len(MALFORMED_INPUTS)
    report(11, ok, f"shipped scenario exit {exit_code}; round-trips "
                   f"{round_trips}/100; malformed with positions "
                   f"{malformed_ok}/{len(MALFORMED_INPUTS)}")
