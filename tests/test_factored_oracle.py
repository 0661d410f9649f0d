"""Independent oracle for site-local projection.

Observables placed on scrambled, non-ascending and nested sites are checked
against register-wide projectors built here by index arithmetic from
Kronecker-style bit masks, never from the package's own lift.
"""

from pathlib import Path

import numpy as np
import pytest

from spinzero.measurement import (
    ZeroProbabilityError,
    born_distribution,
    collapse,
    sequence_distribution,
)
from spinzero.observables import embed, from_matrix, joint_eigenspaces, observable_f, pauli
from spinzero.qcore import SIGMA_X, SIGMA_Y, SIGMA_Z, random_state
from spinzero.scenario import parse_scenario_file

from helpers import PHI0_EXPECTED, PHI1_EXPECTED, kron_chain

REFUTATION_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "refutation.qsc"
_PAULIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def lift(op, sites, n):
    """Register-wide matrix of `op` acting on `sites` (op's qubit j on
    register site sites[j]), identity elsewhere, built entry by entry."""
    dim = 2 ** n
    index = np.arange(dim)
    bit = {s: (index >> (n - s)) & 1 for s in range(1, n + 1)}
    local = sum(bit[s] << (len(sites) - 1 - j) for j, s in enumerate(sites))
    rest_sites = [s for s in range(1, n + 1) if s not in sites]
    rest = sum((bit[s] << j for j, s in enumerate(rest_sites)), np.zeros(dim, dtype=int))
    return op[local[:, None], local[None, :]] * (rest[:, None] == rest[None, :])


def pauli_projectors(axis, site, n):
    eye = np.eye(2)
    return {ev: lift((eye + ev * _PAULIS[axis]) / 2, [site], n) for ev in (1.0, -1.0)}


def f_projectors(sites, n):
    plus = np.outer(PHI1_EXPECTED, PHI1_EXPECTED.conj())
    minus = np.outer(PHI0_EXPECTED, PHI0_EXPECTED.conj())
    local = {1.0: plus, -1.0: minus, 0.0: np.eye(16) - plus - minus}
    return {ev: lift(p, sites, n) for ev, p in local.items()}


def spectral_projectors(m):
    values, vectors = np.linalg.eigh(m)
    out = {}
    for ev in np.unique(np.round(values, 9)):
        v = vectors[:, np.abs(values - ev) < 1e-6]
        out[float(ev)] = v @ v.conj().T
    return out


def oracle_sequence(state, projector_sets):
    paths = {(): state}
    for projectors in projector_sets:
        paths = {key + (ev,): p @ vec for key, vec in paths.items()
                 for ev, p in projectors.items()}
    return {key: float(np.vdot(vec, vec).real) for key, vec in paths.items()}


def assert_measurement_matches(state, obs, projectors):
    dist = born_distribution(state, obs)
    for ev, p in projectors.items():
        expected = float(np.vdot(state, p @ state).real)
        assert abs(dist.probability(ev) - expected) < 1e-12
        if expected > 1e-9:
            record = collapse(state, obs, ev)
            assert np.allclose(record.post_state, p @ state / np.sqrt(expected), atol=1e-12)


@pytest.fixture
def register10():
    return random_state(10, np.random.default_rng(2024))


def test_scrambled_sites_match_kron_oracle(register10):
    f = embed(observable_f(), [7, 4, 8, 10], 10)
    assert f.sites == (7, 4, 8, 10)
    assert_measurement_matches(register10, f, f_projectors([7, 4, 8, 10], 10))


def test_y_paulis_match_kron_oracle(register10):
    for site in (1, 5, 10):
        assert_measurement_matches(register10, pauli("y", site, 10),
                                   pauli_projectors("y", site, 10))


def test_nested_embed_composes_site_maps(register10):
    nested = embed(embed(observable_f(), [2, 4, 1, 3], 6), [9, 3, 5, 1, 8, 10], 10)
    assert nested.sites == (3, 1, 9, 5)
    assert_measurement_matches(register10, nested, f_projectors([3, 1, 9, 5], 10))
    moved = embed(pauli("y", 2, 3), [4, 6, 2], 7)
    assert moved.sites == (6,)
    state = random_state(7, np.random.default_rng(5))
    assert_measurement_matches(state, moved, pauli_projectors("y", 6, 7))


def test_dense_views_match_kron_oracle():
    f = embed(observable_f(), [7, 4, 2, 6], 7)
    for ev, p in f_projectors([7, 4, 2, 6], 7).items():
        assert np.allclose(f.projector(ev), p, atol=1e-12)


def test_mixed_program_with_site_less_observable():
    n = 4
    eye = np.eye(2)
    m = kron_chain(SIGMA_X, SIGMA_X, eye, eye) + 0.5 * kron_chain(eye, eye, SIGMA_Z, SIGMA_Z)
    site_less = from_matrix(m, name="m")
    assert site_less.sites is None
    program = [pauli("y", 3, n), site_less, embed(observable_f(), [2, 4, 1, 3], n),
               pauli("x", 1, n)]
    projector_sets = [pauli_projectors("y", 3, n), spectral_projectors(m),
                      f_projectors([2, 4, 1, 3], n), pauli_projectors("x", 1, n)]
    state = random_state(n, np.random.default_rng(11))
    expected = oracle_sequence(state, projector_sets)
    got = sequence_distribution(state, program)
    assert len(got.entries) == len(expected)
    for key, p in expected.items():
        assert abs(got.probability(key) - p) < 1e-12
    for obs, projectors in zip(program, projector_sets):
        assert_measurement_matches(state, obs, projectors)


def test_ten_qubit_program_matches_kron_oracle(register10):
    program = [pauli("y", 9, 10), embed(observable_f(), [7, 4, 8, 10], 10),
               pauli("x", 2, 10), pauli("z", 4, 10)]
    projector_sets = [pauli_projectors("y", 9, 10), f_projectors([7, 4, 8, 10], 10),
                      pauli_projectors("x", 2, 10), pauli_projectors("z", 4, 10)]
    expected = oracle_sequence(register10, projector_sets)
    got = sequence_distribution(register10, program)
    for key, p in expected.items():
        assert abs(got.probability(key) - p) < 1e-12


def test_joint_eigenspaces_match_kron_oracle():
    n = 6
    generators = [embed(observable_f(), [5, 2, 6, 3], n), pauli("y", 1, n), pauli("x", 4, n)]
    oracle = [f_projectors([5, 2, 6, 3], n), pauli_projectors("y", 1, n),
              pauli_projectors("x", 4, n)]
    spaces = joint_eigenspaces(generators)
    assert sum(basis.shape[1] for _, basis in spaces) == 2 ** n
    for outcome, basis in spaces:
        product = np.eye(2 ** n)
        for projectors, ev in zip(oracle, outcome):
            product = product @ projectors[ev]
        assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-10)
        assert np.allclose(basis @ basis.conj().T, product, atol=1e-10)


def test_impossible_outcome_is_exactly_zero():
    scenario = parse_scenario_file(str(REFUTATION_SCENARIO))
    post, sx3 = scenario.states["post"], scenario.observables["sx3"]
    assert born_distribution(post, sx3).probability(-1.0) == 0.0
    with pytest.raises(ZeroProbabilityError):
        collapse(post, sx3, -1.0)
