import numpy as np
import pytest

from spinzero.qcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DimensionMismatchError,
    NonUnitaryError,
    commutator,
    max_abs,
    random_hermitian,
)
from spinzero.observables import (
    NonCommutingError,
    SpectralObservable,
    _su2_from_rng,
    check_invariance,
    embed,
    from_matrix,
    is_function_of,
    joint_eigenspaces,
    observable_f,
    observable_g,
    pauli,
    random_su2,
)
from spinzero.states import basis_ket, spin_zero_basis

from helpers import kron_chain

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_pauli_single_qubit_branches():
    obs = pauli("z", 1, 1)
    assert obs.eigenvalues == (1.0, -1.0)
    assert np.allclose(obs.branch_basis(1.0)[:, 0], [1, 0])
    assert np.allclose(obs.branch_basis(-1.0)[:, 0], [0, 1])


@pytest.mark.parametrize("axis,matrix", [("x", SIGMA_X), ("y", SIGMA_Y), ("z", SIGMA_Z)])
@pytest.mark.parametrize("site,n", [(1, 1), (2, 3), (3, 4)])
def test_pauli_matrix_form(axis, matrix, site, n):
    factors = [np.eye(2, dtype=complex)] * n
    factors[site - 1] = matrix
    assert np.allclose(pauli(axis, site, n).matrix(), kron_chain(*factors), atol=1e-12)


def test_pauli_eigenspace_dimensions():
    obs = pauli("x", 3, 4)
    assert [b.shape[1] for _, b in obs.branches] == [8, 8]


def test_paulis_on_disjoint_sites_commute():
    c = commutator(pauli("z", 1, 2).matrix(), pauli("z", 2, 2).matrix())
    assert max_abs(c) < 1e-12


def test_pauli_errors():
    with pytest.raises(ValueError):
        pauli("z", 3, 2)
    with pytest.raises(ValueError):
        pauli("w", 1, 2)


def test_collective_observable_branch_structure():
    obs = observable_f()
    assert obs.eigenvalues == (1.0, -1.0, 0.0)
    assert [b.shape[1] for _, b in obs.branches] == [1, 1, 14]
    pair = spin_zero_basis()
    assert np.allclose(obs.branch_basis(1.0)[:, 0], pair.phi1)
    assert np.allclose(obs.branch_basis(-1.0)[:, 0], pair.phi0)


def test_collective_observable_projector_completeness():
    obs = observable_f()
    total = sum(obs.projector(ev) for ev in obs.eigenvalues)
    assert max_abs(total - np.eye(16)) < 1e-10
    for ev_a in obs.eigenvalues:
        for ev_b in obs.eigenvalues:
            product = obs.projector(ev_a) @ obs.projector(ev_b)
            expected = obs.projector(ev_a) if ev_a == ev_b else 0.0
            assert max_abs(product - expected) < 1e-10


def test_collective_observable_matrix_round_trip():
    obs = observable_f()
    recovered = from_matrix(obs.matrix())
    assert recovered.eigenvalues == pytest.approx((1.0, 0.0, -1.0), abs=1e-10)
    for ev in (1.0, -1.0, 0.0):
        assert max_abs(recovered.projector(ev) - obs.projector(ev)) < 1e-8


def test_g_mirrors_f():
    f, g = observable_f(), observable_g()
    assert g.eigenvalues == f.eigenvalues
    assert np.allclose(g.matrix(), f.matrix())
    assert g.name == "G"


def test_embed_reproduces_shifted_pauli():
    lifted = embed(pauli("z", 1, 1), [2], 2)
    assert np.allclose(lifted.matrix(), pauli("z", 2, 2).matrix())
    assert lifted.sites == (2,)


def test_embed_matrix_against_kron_oracle():
    f = observable_f()
    left = embed(f, [1, 2, 3, 4], 8)
    right = embed(f, [5, 6, 7, 8], 8)
    assert np.allclose(left.matrix(), np.kron(f.matrix(), np.eye(16)), atol=1e-12)
    assert np.allclose(right.matrix(), np.kron(np.eye(16), f.matrix()), atol=1e-12)


def test_embed_scales_eigenspace_dimensions_and_completeness():
    lifted = embed(observable_f(), [1, 2, 3, 4], 8)
    assert [b.shape[1] for _, b in lifted.branches] == [16, 16, 224]
    union = np.hstack([b for _, b in lifted.branches])
    assert max_abs(union.conj().T @ union - np.eye(256)) < 1e-10


def test_embed_site_validation():
    with pytest.raises(ValueError):
        embed(pauli("z", 1, 1), [1, 2], 2)
    with pytest.raises(ValueError):
        embed(observable_f(), [1, 2, 3, 3], 8)
    with pytest.raises(ValueError):
        embed(observable_f(), [1, 2, 3, 9], 8)


def test_spectral_observable_validates_inputs():
    with pytest.raises(ValueError):
        SpectralObservable(branches=((1.0, np.eye(2)),
                                     (1.0 + 1e-12, np.eye(2))))  # overlapping eigenvalues
    with pytest.raises(ValueError):
        SpectralObservable(branches=((1.0, np.array([[1.0], [1.0]])),
                                     (-1.0, np.array([[0.0], [1.0]]))))  # not orthonormal


def test_is_function_of_product_observable():
    product = from_matrix(np.kron(SIGMA_Z, SIGMA_Z), name="zz")
    generators = [pauli("z", 1, 2), pauli("z", 2, 2)]
    report = is_function_of(product, generators)
    assert report.is_function
    assert report.value_table == {
        (1.0, 1.0): 1.0, (1.0, -1.0): -1.0, (-1.0, 1.0): -1.0, (-1.0, -1.0): 1.0}


def test_is_function_of_identity_is_constant():
    identity = SpectralObservable(branches=((1.0, np.eye(2)),), name="id")
    report = is_function_of(identity, [pauli("z", 1, 1)])
    assert report.is_function
    assert set(report.value_table.values()) == {1.0}


def test_is_function_of_collective_observable_fails():
    generators = [pauli("z", 1, 4), pauli("z", 2, 4), pauli("x", 3, 4), pauli("x", 4, 4)]
    report = is_function_of(observable_f(), generators)
    assert not report.is_function
    assert report.witness_outcome == (1.0, 1.0, 1.0, 1.0)
    assert "(+,+,+,+)" in report.witness


def test_is_function_of_rejects_non_commuting_generators():
    with pytest.raises(NonCommutingError):
        is_function_of(pauli("z", 1, 1), [pauli("z", 1, 1), pauli("x", 1, 1)])


def test_is_function_of_rejects_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        is_function_of(pauli("z", 1, 1), [pauli("z", 1, 2)])


def test_value_table_reconstructs_the_observable():
    product = from_matrix(np.kron(SIGMA_Z, SIGMA_X), name="zx")
    generators = [pauli("z", 1, 2), pauli("x", 2, 2)]
    report = is_function_of(product, generators)
    assert report.is_function
    rebuilt = np.zeros((4, 4), dtype=complex)
    for outcome, basis in joint_eigenspaces(generators):
        rebuilt += report.value_table[outcome] * (basis @ basis.conj().T)
    assert max_abs(rebuilt - product.matrix()) < 1e-9


def test_joint_eigenspaces_of_full_pauli_set_are_lines():
    generators = [pauli("z", 1, 4), pauli("z", 2, 4), pauli("x", 3, 4), pauli("x", 4, 4)]
    spaces = joint_eigenspaces(generators)
    assert len(spaces) == 16
    assert all(basis.shape[1] == 1 for _, basis in spaces)
    lookup = dict(spaces)
    ket = lookup[(1.0, 1.0, 1.0, 1.0)][:, 0]
    assert abs(abs(np.vdot(ket, basis_ket("00++"))) - 1.0) < 1e-12


def test_equal_rotation_invariance_of_collective_observables():
    for obs in (observable_f(), observable_g()):
        report = check_invariance(obs, pattern="equal", trials=100, seed=7)
        assert report.invariant
        assert report.max_deviation < 1e-10
        assert report.trials == 100


def test_identity_invariant_under_anything():
    identity = SpectralObservable(branches=((1.0, np.eye(16)),), name="id")
    report = check_invariance(identity, pattern="per_site", trials=20, seed=3)
    assert report.invariant


def test_single_pauli_not_invariant_under_basis_swap():
    report = check_invariance(pauli("z", 1, 4), HADAMARD, pattern="equal")
    assert not report.invariant
    assert report.max_deviation > 0.5


def test_per_site_rotations_break_invariance():
    report = check_invariance(observable_f(), pattern="per_site", trials=100, seed=13)
    assert not report.invariant
    violations = sum(1 for d in report.deviations if d > 1e-3)
    assert violations >= 95


def test_check_invariance_rejects_non_unitary():
    with pytest.raises(NonUnitaryError):
        check_invariance(observable_f(), np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_check_invariance_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        check_invariance(observable_f(), pattern="equal", trials=0)


def test_check_invariance_per_site_rotation_list():
    rng = np.random.default_rng(41)
    rotations = [_su2_from_rng(rng) for _ in range(4)]
    report = check_invariance(observable_f(), rotations, pattern="per_site")
    assert report.trials == 1
    assert not report.invariant


def test_spectrum_preserved_under_conjugation():
    rng = np.random.default_rng(19)
    for _ in range(5):
        m = random_hermitian(8, rng)
        obs = from_matrix(m, cluster_tol=0.0 + 1e-12)
        u = kron_chain(*(_su2_from_rng(rng) for _ in range(3)))
        rotated = from_matrix(u @ m @ u.conj().T, cluster_tol=1e-12)
        assert np.allclose(sorted(obs.eigenvalues), sorted(rotated.eigenvalues), atol=1e-8)


def test_random_su2_determinism_and_unitarity():
    assert np.array_equal(random_su2(42), random_su2(42))
    for seed in range(1000):
        u = random_su2(seed)
        assert max_abs(u.conj().T @ u - np.eye(2)) < 1e-12


def test_random_su2_haar_marginal():
    rng = np.random.default_rng(97)
    mean = np.mean([abs(_su2_from_rng(rng)[0, 0]) ** 2 for _ in range(100_000)])
    assert abs(mean - 0.5) < 0.01
