import itertools
import math

import numpy as np
import pytest

from spinzero.qcore import DimensionMismatchError
from spinzero.states import basis_ket, eta_tilde, singlet, spin_zero_basis
from spinzero.observables import SpectralObservable, embed, observable_f, observable_g, pauli
from spinzero.measurement import (
    NonCommutingError,
    OutcomeNotInSpectrumError,
    OverlappingSupportError,
    UnnormalizedStateError,
    ZeroProbabilityError,
    born_distribution,
    collapse,
    correlation_check,
    joint_distribution,
    run_sequence,
    sequence_distribution,
)

from helpers import mixed_ket_for_signs, random_state, sample_counts


def f_on_eight():
    return embed(observable_f(), [1, 2, 3, 4], 8)


def g_on_eight():
    return embed(observable_g(), [5, 6, 7, 8], 8)


def random_observable(dim, rng, values=(1.0, -1.0)):
    """Random two-branch observable from a Haar-ish orthonormal basis."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(m)
    cut = int(rng.integers(1, dim))
    return SpectralObservable(branches=((values[0], q[:, :cut]), (values[1], q[:, cut:])))


def test_born_certain_branch():
    dist = born_distribution(basis_ket("0"), pauli("z", 1, 1))
    assert dist.as_dict() == {1.0: 1.0, -1.0: 0.0}


def test_born_collective_on_post_measurement_state():
    dist = born_distribution(eta_tilde(), f_on_eight())
    assert abs(dist.probability(1.0) - 1.0 / 12.0) < 1e-12
    assert dist.probability(-1.0) < 1e-12
    assert abs(dist.probability(0.0) - 11.0 / 12.0) < 1e-12


def test_born_bob_counterpart_distribution():
    dist = born_distribution(eta_tilde(), g_on_eight())
    assert abs(dist.probability(1.0) - 0.75) < 1e-12
    assert abs(dist.probability(-1.0) - 0.25) < 1e-12
    assert dist.probability(0.0) < 1e-12


def test_born_retains_zero_branches():
    dist = born_distribution(basis_ket("00++"), observable_f())
    assert dist.labels == (1.0, -1.0, 0.0)


def test_born_constructed_eigenstate_is_certain():
    dist = born_distribution(basis_ket("00++"), pauli("x", 3, 4))
    assert abs(dist.probability(1.0) - 1.0) < 1e-12


def test_born_rejects_unnormalized_state():
    with pytest.raises(UnnormalizedStateError):
        born_distribution(2.0 * basis_ket("0"), pauli("z", 1, 1))


def test_born_rejects_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        born_distribution(basis_ket("00"), pauli("z", 1, 1))


def test_born_completeness_over_random_cases():
    rng = np.random.default_rng(31)
    for _ in range(50):
        dim = int(rng.choice([4, 8, 16]))
        state = random_state(int(math.log2(dim)), rng)
        obs = random_observable(dim, rng)
        total = sum(p for _, p in born_distribution(state, obs).entries)
        assert abs(total - 1.0) < 1e-10


def test_collapse_on_singlet():
    record = collapse(singlet(), pauli("z", 1, 2), 1.0)
    assert abs(record.probability - 0.5) < 1e-12
    assert np.allclose(record.post_state, basis_ket("01"))


def test_collapse_keeps_degenerate_coherence():
    # Lueders rule: the second factor of the product state survives collapse.
    pair = spin_zero_basis()
    bob = (pair.phi0 + math.sqrt(3.0) * pair.phi1) / 2.0
    record = collapse(eta_tilde(), f_on_eight(), 1.0)
    assert abs(record.probability - 1.0 / 12.0) < 1e-12
    assert np.allclose(record.post_state, np.kron(pair.phi1, bob), atol=1e-12)


def test_collapse_impossible_branch_raises():
    with pytest.raises(ZeroProbabilityError):
        collapse(eta_tilde(), f_on_eight(), -1.0)


def test_collapse_unknown_outcome_raises():
    with pytest.raises(OutcomeNotInSpectrumError):
        collapse(basis_ket("0"), pauli("z", 1, 1), 0.5)


def test_lueders_consistency_and_repeatability():
    rng = np.random.default_rng(37)
    for _ in range(30):
        dim = int(rng.choice([4, 8, 16]))
        state = random_state(int(math.log2(dim)), rng)
        obs = random_observable(dim, rng)
        dist = born_distribution(state, obs)
        for ev in obs.eigenvalues:
            p = dist.probability(ev)
            if p <= 1e-14:
                continue
            record = collapse(state, obs, ev)
            assert abs(record.probability - p) < 1e-12
            again = born_distribution(record.post_state, obs)
            assert again.probability(ev) >= 1.0 - 1e-10


def test_run_sequence_anticorrelated_singlet():
    records = run_sequence(singlet(), [pauli("z", 1, 2), pauli("z", 2, 2)], [1.0, -1.0])
    assert abs(records[0].probability - 0.5) < 1e-12
    assert abs(records[1].probability - 1.0) < 1e-12
    assert np.allclose(records[-1].post_state, basis_ket("01"))


def test_run_sequence_all_up_projects_alice_factor():
    rng = np.random.default_rng(43)
    program = [pauli("z", 1, 8), pauli("z", 2, 8), pauli("x", 3, 8), pauli("x", 4, 8)]
    for _ in range(5):
        state = random_state(8, rng)
        records = run_sequence(state, program, [1.0] * 4)
        post = records[-1].post_state.reshape(16, 16)
        u, s, _ = np.linalg.svd(post)
        assert abs(abs(np.vdot(u[:, 0], basis_ket("00++"))) - 1.0) < 1e-10


def test_run_sequence_order_invariance_for_commuting_program():
    rng = np.random.default_rng(47)
    program = [pauli("z", 1, 4), pauli("z", 2, 4), pauli("x", 3, 4), pauli("x", 4, 4)]
    outcomes = [1.0, -1.0, 1.0, -1.0]
    for _ in range(5):
        state = random_state(4, rng)
        base = run_sequence(state, program, outcomes)
        joint = np.prod([r.probability for r in base])
        for perm in (list(p) for p in itertools.permutations(range(4))):
            records = run_sequence(state, [program[k] for k in perm],
                                   [outcomes[k] for k in perm])
            joint_p = np.prod([r.probability for r in records])
            assert abs(joint_p - joint) < 1e-10
            assert np.allclose(records[-1].post_state, base[-1].post_state, atol=1e-10)


def test_run_sequence_reports_failing_step():
    with pytest.raises(ZeroProbabilityError, match="step 2"):
        run_sequence(basis_ket("00"), [pauli("z", 1, 2), pauli("z", 2, 2)], [1.0, -1.0])


def test_joint_distribution_singlet():
    dist = joint_distribution(singlet(), [pauli("z", 1, 2), pauli("z", 2, 2)])
    as_dict = dist.as_dict()
    assert abs(as_dict[(1.0, -1.0)] - 0.5) < 1e-12
    assert abs(as_dict[(-1.0, 1.0)] - 0.5) < 1e-12
    assert as_dict[(1.0, 1.0)] < 1e-12
    assert as_dict[(-1.0, -1.0)] < 1e-12


def test_joint_distribution_on_phi1_matches_amplitudes():
    # Oracle: each joint probability is the squared mixed-basis amplitude.
    pair = spin_zero_basis()
    program = [pauli("z", 1, 4), pauli("z", 2, 4), pauli("x", 3, 4), pauli("x", 4, 4)]
    dist = joint_distribution(pair.phi1, program)
    assert len(dist.entries) == 16
    for signs in itertools.product([1, -1], repeat=4):
        expected = abs(np.vdot(mixed_ket_for_signs(signs), pair.phi1)) ** 2
        assert abs(dist.probability(tuple(float(s) for s in signs)) - expected) < 1e-12
    assert abs(dist.probability((1.0, 1.0, 1.0, 1.0)) - 1.0 / 12.0) < 1e-12


def test_joint_distribution_sums_to_one():
    rng = np.random.default_rng(53)
    program = [pauli("z", 1, 2), pauli("x", 2, 2)]
    for _ in range(500):
        state = random_state(2, rng)
        total = sum(p for _, p in joint_distribution(state, program).entries)
        assert abs(total - 1.0) < 1e-10


def test_joint_distribution_marginals_match_born():
    rng = np.random.default_rng(59)
    program = [pauli("z", 2, 3), pauli("x", 3, 3)]
    for _ in range(20):
        state = random_state(3, rng)
        joint = joint_distribution(state, program)
        for k, obs in enumerate(program):
            single = born_distribution(state, obs)
            for ev in obs.eigenvalues:
                marginal = sum(p for label, p in joint.entries if label[k] == ev)
                assert abs(marginal - single.probability(ev)) < 1e-10


def test_joint_distribution_rejects_non_commuting():
    with pytest.raises(NonCommutingError):
        joint_distribution(basis_ket("0"), [pauli("z", 1, 1), pauli("x", 1, 1)])


def test_sample_certain_branch():
    counts = sample_counts(basis_ket("0"), [pauli("z", 1, 1)], 1000, seed=5)
    assert counts[(1.0,)] == 1000
    assert counts[(-1.0,)] == 0


def test_sample_deterministic_per_seed():
    program = [f_on_eight()]
    a = sample_counts(eta_tilde(), program, 10_000, seed=11)
    b = sample_counts(eta_tilde(), program, 10_000, seed=11)
    assert a == b
    c = sample_counts(eta_tilde(), program, 10_000, seed=12)
    assert c != a


def test_sample_converges_at_binomial_rate():
    trials = 1_000_000
    counts = sample_counts(eta_tilde(), [f_on_eight()], trials, seed=2)
    p = 1.0 / 12.0
    sigma = math.sqrt(p * (1.0 - p) / trials)
    assert abs(counts[(1.0,)] / trials - p) <= 4.0 * sigma


def test_sequence_distribution_handles_non_commuting_program():
    dist = sequence_distribution(basis_ket("0"), [pauli("z", 1, 1), pauli("x", 1, 1)])
    as_dict = dist.as_dict()
    assert abs(as_dict[(1.0, 1.0)] - 0.5) < 1e-12
    assert abs(as_dict[(1.0, -1.0)] - 0.5) < 1e-12
    assert as_dict[(-1.0, 1.0)] < 1e-12


def test_correlation_singlet_is_perfect():
    report = correlation_check(singlet(), pauli("z", 1, 2), pauli("z", 2, 2))
    assert report.perfectly_correlated
    assert report.max_conditional_certainty >= 1.0 - 1e-12


def test_correlation_product_state_is_trivially_perfect():
    report = correlation_check(basis_ket("00"), pauli("z", 1, 2), pauli("z", 2, 2))
    assert report.perfectly_correlated


def test_correlation_of_collective_observables_fails():
    report = correlation_check(eta_tilde(), f_on_eight(), g_on_eight())
    assert not report.perfectly_correlated
    assert abs(report.max_conditional_certainty - 0.75) < 1e-12


def test_correlation_requires_disjoint_sites():
    with pytest.raises(OverlappingSupportError):
        correlation_check(eta_tilde(), f_on_eight(),
                          embed(observable_g(), [4, 5, 6, 7], 8))
    with pytest.raises(OverlappingSupportError):
        correlation_check(basis_ket("00"), pauli("z", 1, 2),
                          SpectralObservable(branches=((1.0, np.eye(4)),)))
