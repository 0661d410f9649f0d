import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from spinzero.qcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TOL_INVARIANCE,
    CapacityError,
    DimensionMismatchError,
    NonHermitianError,
    commutator,
    hermitian_eigen,
    max_abs,
)
from spinzero import observables
from spinzero.observables import (
    NonCommutingError,
    SpectralObservable,
    _su2_stack,
    check_invariance,
    embed,
    from_matrix,
    invariance_residual,
    is_function_of,
    joint_eigenspaces,
    observable_f,
    observable_g,
    pauli,
)
from spinzero.measurement import born_distribution
from spinzero.states import basis_ket, spin_zero_basis, total_spin_squared

from helpers import _reference_su2, dense_projector, kron_chain, random_hermitian


def test_pauli_single_qubit_branches():
    obs = pauli("z", 1, 1)
    assert obs.eigenvalues == (1.0, -1.0)
    bases = dict(obs.branches)
    assert np.allclose(bases[1.0][:, 0], [1, 0])
    assert np.allclose(bases[-1.0][:, 0], [0, 1])


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
    with pytest.raises(ValueError, match=r"^site 3 out of range 1\.\.2$"):
        pauli("z", 3, 2)
    with pytest.raises(ValueError, match=r"^axis must be one of x, y, z; got 'w'$"):
        pauli("w", 1, 2)
    with pytest.raises(ValueError, match=r"^site 0 out of range 1\.\.4$"):
        pauli("x", 0, 4)
    with pytest.raises(ValueError, match=r"^site 5 out of range 1\.\.4$"):
        pauli("x", 5, 4)
    with pytest.raises(CapacityError, match=r"^11 qubits exceed the 10-qubit maximum$"):
        pauli("y", 1, 11)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("n", [1, 4, 10])
def test_pauli_equals_a_freshly_validated_observable(axis, n):
    for site in sorted({1, n}):
        fresh = SpectralObservable(branches=observables._PAULI_EIGENBASES[axis], sites=(site,),
                                   n_qubits=n, name=f"sigma_{axis}{site}")
        placed = pauli(axis.upper(), site, n)
        assert [(ev, b.shape, b.tobytes()) for ev, b in placed.local_branches] == [
            (ev, b.shape, b.tobytes()) for ev, b in fresh.local_branches]
        assert (placed.sites, placed.dim, placed.name, placed._subscripts) == (
            fresh.sites, fresh.dim, fresh.name, fresh._subscripts)


def test_paulis_of_one_axis_share_read_only_bases():
    first, second = pauli("x", 1, 4), pauli("x", 3, 10)
    assert first.local_branches is second.local_branches
    assert not any(b.flags.writeable for _, b in first.local_branches)
    assert pauli("z", 1, 4).local_branches is not first.local_branches


def test_collective_observable_branch_structure():
    obs = observable_f()
    assert obs.eigenvalues == (1.0, -1.0, 0.0)
    assert [b.shape[1] for _, b in obs.branches] == [1, 1, 14]
    pair = spin_zero_basis()
    bases = dict(obs.branches)
    assert np.allclose(bases[1.0][:, 0], pair.phi1)
    assert np.allclose(bases[-1.0][:, 0], pair.phi0)


def test_collective_observable_projector_completeness():
    obs = observable_f()
    projectors = {ev: dense_projector(obs, ev) for ev in obs.eigenvalues}
    total = sum(projectors.values())
    assert max_abs(total - np.eye(16)) < 1e-10
    for ev_a in obs.eigenvalues:
        for ev_b in obs.eigenvalues:
            product = projectors[ev_a] @ projectors[ev_b]
            expected = projectors[ev_a] if ev_a == ev_b else 0.0
            assert max_abs(product - expected) < 1e-10


def test_collective_observable_matrix_round_trip():
    obs = observable_f()
    recovered = from_matrix(obs.matrix())
    assert recovered.eigenvalues == pytest.approx((1.0, 0.0, -1.0), abs=1e-10)
    for ev in (1.0, -1.0, 0.0):
        assert max_abs(dense_projector(recovered, ev) - dense_projector(obs, ev)) < 1e-8


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
    with pytest.raises(CapacityError):
        embed(observable_f(), [1, 2, 3, 4], 11)


def test_resiting_shares_the_validated_bases(monkeypatch):
    f = observable_f()
    lookup = [pauli("z", 3, 10), pauli("z", 1, 10), pauli("x", 9, 10), pauli("x", 5, 10)]

    def refuse(*args, **kwargs):
        raise AssertionError("the validating constructor ran")

    monkeypatch.setattr(SpectralObservable, "__init__", refuse)
    moved = embed(embed(f, [2, 4, 1, 3], 6), [9, 3, 5, 1, 8, 10], 10)
    assert moved.sites == (3, 1, 9, 5) and moved.n_qubits == 10
    assert moved.local_branches is f.local_branches
    assert observables._on_qubits(moved, (1, 3, 5, 9)).sites == (2, 1, 4, 3)
    assert is_function_of(moved, lookup).witness_outcome == (1.0, 1.0, 1.0, 1.0)


def test_spectral_observable_validates_inputs():
    with pytest.raises(ValueError):
        SpectralObservable(branches=((1.0, np.eye(2)),
                                     (1.0 + 1e-12, np.eye(2))))  # overlapping eigenvalues
    with pytest.raises(ValueError):
        SpectralObservable(branches=((1.0, np.array([[1.0], [1.0]])),
                                     (-1.0, np.array([[0.0], [1.0]]))))  # not orthonormal


def test_stored_bases_are_read_only():
    with pytest.raises(ValueError):
        pauli("z", 1, 1).local_branches[0][1][1] = 1.0
    later = pauli("z", 2, 3)
    assert born_distribution(basis_ket("000"), later).probability(1.0) == 1.0


def test_collective_observables_are_built_once():
    assert observable_f() is observable_f()
    assert observable_g() is observable_g()
    assert observable_f() is not observable_g()
    assert not any(basis.flags.writeable for _, basis in observable_f().local_branches)


def test_observable_without_sites_covers_its_register():
    assert SpectralObservable(branches=((1.0, np.eye(4)),)).sites == (1, 2)
    with pytest.raises(DimensionMismatchError):
        from_matrix(np.diag([1.0, 2.0, 3.0]))


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


def test_per_site_rotations_break_invariance():
    report = check_invariance(observable_f(), pattern="per_site", trials=100, seed=13)
    assert not report.invariant
    violations = sum(1 for d in report.deviations if d > 1e-3)
    assert violations >= 95


def test_check_invariance_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        check_invariance(observable_f(), pattern="equal", trials=0, seed=0)


def test_spectrum_preserved_under_conjugation():
    rng = np.random.default_rng(19)
    for _ in range(5):
        m = random_hermitian(8, rng)
        obs = from_matrix(m)
        u = kron_chain(*(_reference_su2(rng) for _ in range(3)))
        rotated = from_matrix(u @ m @ u.conj().T)
        assert np.allclose(sorted(obs.eigenvalues), sorted(rotated.eigenvalues), atol=1e-8)


def _seeded_su2(seed):
    """The sampler's first rotation for a seed: one row of `_su2_stack`."""
    return _su2_stack(np.random.default_rng(seed).standard_normal((1, 4)))[0]


def test_random_su2_determinism_and_unitarity():
    assert np.array_equal(_seeded_su2(42), _seeded_su2(42))
    for seed in range(1000):
        u = _seeded_su2(seed)
        assert max_abs(u.conj().T @ u - np.eye(2)) < 1e-12


def test_random_su2_haar_marginal():
    draws = _su2_stack(np.random.default_rng(97).standard_normal((100_000, 4)))
    mean = np.mean(np.abs(draws[:, 0, 0]) ** 2)
    assert abs(mean - 0.5) < 0.01
    # The stack is the per-trial reference stream, row for row, bit for bit.
    rng = np.random.default_rng(97)
    assert np.array_equal(draws[:1000], [_reference_su2(rng) for _ in range(1000)])


def _reference_deviation(m, factors):
    v = reduce(np.kron, factors[1:], np.array(factors[0], dtype=complex))
    return float(np.max(np.abs(v @ m @ v.conj().T - m)))


def _reference_deviations(obs, pattern, trials, seed):
    """check_invariance computed one trial at a time, as a plain loop."""
    n = obs.n_qubits
    m = obs.matrix()
    rng = np.random.default_rng(seed)
    deviations = []
    for _ in range(trials):
        if pattern == "equal":
            factors = [_reference_su2(rng)] * n
        else:
            factors = [_reference_su2(rng) for _ in range(n)]
        deviations.append(_reference_deviation(m, factors))
    return tuple(deviations)


@pytest.mark.parametrize("build", [
    observable_f,
    observable_g,
    lambda: pauli("z", 1, 8),
    lambda: from_matrix(total_spin_squared(5)),
    lambda: from_matrix(total_spin_squared(6)),
], ids=["F", "G", "z1-of-8", "S2-5", "S2-6"])
def test_batched_invariance_bits_equal_per_trial_reference(build):
    obs = build()
    batch = max(1, observables._INVARIANCE_BATCH_BYTES // obs.matrix().nbytes)
    for pattern, seed in (("equal", 5), ("per_site", 7)):
        # one trial, and two full batches plus a partial one
        for trials in (1, 2 * batch + 1):
            report = check_invariance(obs, pattern=pattern, trials=trials, seed=seed)
            assert report.deviations == _reference_deviations(obs, pattern, trials, seed)
            assert report.max_deviation == max(report.deviations)


@pytest.mark.parametrize("build, per_batch", [
    (lambda: pauli("z", 1, 8), 1),
    (lambda: from_matrix(total_spin_squared(6)), 4),
], ids=["z1-of-8", "S2-6"])
def test_invariance_peak_memory_stays_within_the_batch_budget(build, per_batch):
    """check_invariance's traced peak, the dense matrix it builds included,
    stays within 8 times the larger of the matrix and the batch budget: the
    work stacks take three such blocks, and the matrix, its branch views,
    the Kronecker fold and the deviations the rest (about 6.2 at 8 qubits
    and 5.0 at 6).  The trials per batch are pinned, so a new budget shows
    here before it grows the memory of 7-10 qubit audits."""
    obs = build()
    m = obs.matrix()
    assert max(1, observables._INVARIANCE_BATCH_BYTES // m.nbytes) == per_batch
    unit = max(m.nbytes, observables._INVARIANCE_BATCH_BYTES)
    for pattern in ("equal", "per_site"):
        tracemalloc.start()
        try:
            check_invariance(obs, pattern=pattern, trials=2 * per_batch + 1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * unit


def test_random_su2_bits_equal_single_draw_reference():
    for seed in range(200):
        assert np.array_equal(_seeded_su2(seed), _reference_su2(np.random.default_rng(seed)))


# ---------------------------------------------------------------------------
# invariance decided from the su(2) generators, against the sampled audit

def _sampled_invariant(obs, pattern, trials, seed):
    """The sampled oracle: invariant when no drawn rotation moves the matrix
    by TOL_INVARIANCE; not invariant when at least 95% of the draws move an
    entry by more than 1e-3 (a generic rotation moves a non-invariant
    matrix by O(1)); None when neither holds."""
    report = check_invariance(obs, pattern=pattern, trials=trials, seed=seed)
    if report.invariant:
        return True
    if sum(d > 1e-3 for d in report.deviations) >= math.ceil(0.95 * trials):
        return False
    return None


def _random_observable(n, seed):
    return from_matrix(random_hermitian(2 ** n, np.random.default_rng(seed)), name=f"h{n}")


@pytest.mark.parametrize("build, trials", [
    (observable_f, 100),
    (observable_g, 100),
    (lambda: from_matrix(total_spin_squared(4)), 100),
    (lambda: from_matrix(total_spin_squared(5)), 100),
    (lambda: from_matrix(total_spin_squared(6)), 100),
    (lambda: _random_observable(4, 23), 100),
    (lambda: _random_observable(5, 29), 100),
    (lambda: pauli("z", 1, 8), 20),
    (lambda: embed(observable_f(), [1, 2, 3, 4], 10), 2),
], ids=["F", "G", "S2-4", "S2-5", "S2-6", "random-4", "random-5", "z1-of-8", "F-of-10"])
def test_generator_verdicts_equal_sampled_verdicts(build, trials):
    obs = build()
    for pattern, seed in (("equal", 11), ("per_site", 12)):
        residual, _ = invariance_residual(obs, pattern)
        assert _sampled_invariant(obs, pattern, trials, seed) is (residual <= TOL_INVARIANCE)


def test_invariance_witness_is_named_by_register_site():
    assert invariance_residual(pauli("z", 3, 8), "equal") == (1.0, "S_x")
    assert invariance_residual(pauli("z", 3, 8), "per_site") == (2.0, "sigma_x on site 3")
    wide = embed(observable_f(), [7, 2, 9, 4], 10)
    for pattern in ("equal", "per_site"):
        residual, _ = invariance_residual(observable_f(), pattern)
        assert invariance_residual(wide, pattern)[0] == residual
    assert invariance_residual(wide, "per_site")[1] == "sigma_z on site 7"


def test_invariance_residual_of_the_identity_is_zero():
    identity = SpectralObservable(branches=((1.0, np.eye(8)),), name="id")
    assert invariance_residual(identity, "equal") == (0.0, "S_x")
    assert invariance_residual(identity, "per_site") == (0.0, "sigma_x on site 1")


def test_invariance_residual_rejects_unknown_pattern():
    with pytest.raises(ValueError, match="pattern must be"):
        invariance_residual(observable_f(), "global")


def test_constructor_rejects_branches_within_tol_cluster():
    with pytest.raises(ValueError, match="not separated"):
        SpectralObservable(branches=((1.0, [1.0, 0.0]), (1.0 + 1e-9, [0.0, 1.0])))


def test_from_matrix_merges_eigenvalues_within_tol_cluster():
    # 1e-9 apart is within TOL_CLUSTER (1e-8): one branch at the mean.
    (branch,) = from_matrix(np.diag([1.0, 1.0 + 1e-9])).local_branches
    assert branch[0] == 1.0 + 5e-10 and branch[1].shape == (2, 2)


def test_from_matrix_separates_eigenvalues_beyond_tol_cluster():
    obs = from_matrix(np.diag([1.0, 1.0 + 1e-7]))
    assert obs.eigenvalues == (1.0 + 1e-7, 1.0)
    assert [basis.shape for _, basis in obs.local_branches] == [(2, 1), (2, 1)]


def test_from_matrix_clusters_on_consecutive_gaps():
    # Each gap is within TOL_CLUSTER but the spread is not: one branch whose
    # mean stays separated from the next one.
    obs = from_matrix(np.diag([1.0, 1.0 - 0.9e-8, 1.0 - 1.05e-8, 0.0]))
    assert obs.eigenvalues == pytest.approx((1.0 - 0.65e-8, 0.0), abs=1e-15)
    assert [basis.shape[1] for _, basis in obs.branches] == [3, 1]


def test_from_matrix_rejects_what_as_operator_rejects():
    with pytest.raises(DimensionMismatchError, match=r"^operator must be square, got shape \(2, 3\)$"):
        from_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="^operator entries must be finite$"):
        from_matrix(np.array([[0.0, np.nan], [np.nan, 0.0]]))


# ---------------------------------------------------------------------------
# from_matrix on the qubits a matrix acts on

def site_matrix(op, site, n):
    """Dense 2**n x 2**n matrix of a 2 x 2 op on `site`, identity elsewhere."""
    return kron_chain(*[op if s == site else np.eye(2) for s in range(1, n + 1)])


@pytest.mark.parametrize("axis, sigma", [("x", SIGMA_X), ("y", SIGMA_Y), ("z", SIGMA_Z)])
def test_from_matrix_sites_a_dense_pauli_on_its_qubit(axis, sigma):
    obs = from_matrix(site_matrix(sigma, 3, 6), name=f"{axis}3")
    assert obs.sites == (3,) and obs.n_qubits == 6
    assert [(ev, basis.shape) for ev, basis in obs.local_branches] == [(1.0, (2, 1)),
                                                                       (-1.0, (2, 1))]
    for ev in (1.0, -1.0):
        assert max_abs(dense_projector(obs, ev) - dense_projector(pauli(axis, 3, 6), ev)) < 1e-15


def test_from_matrix_of_an_embedded_f_finds_its_sites():
    f = embed(observable_f(), [2, 5, 1, 4], 6)
    dense = from_matrix(f.matrix(), name="F")
    assert dense.sites == (1, 2, 4, 5) and dense.n_qubits == 6
    assert len(dense.eigenvalues) == 3
    for ev in f.eigenvalues:
        assert max_abs(dense_projector(dense, ev) - dense_projector(f, ev)) < 1e-10
    lookup = [pauli(axis, s, 6) for axis, s in zip("zzxx", [2, 5, 1, 4])]
    for generators in (lookup, [f], [pauli("z", 3, 6)]):
        got, want = is_function_of(dense, generators), is_function_of(f, generators)
        assert (got.is_function, got.witness_outcome) == (want.is_function, want.witness_outcome)
    for pattern in ("equal", "per_site"):
        assert (invariance_residual(dense, pattern)[0] <= TOL_INVARIANCE) is \
            (invariance_residual(f, pattern)[0] <= TOL_INVARIANCE)


@pytest.mark.parametrize("build", [
    lambda: total_spin_squared(4),
    lambda: total_spin_squared(5),
    lambda: total_spin_squared(6),
    lambda: random_hermitian(16, np.random.default_rng(31)),
    lambda: random_hermitian(32, np.random.default_rng(37)),
], ids=["S2-4", "S2-5", "S2-6", "random-4", "random-5"])
def test_from_matrix_keeps_every_site_of_a_matrix_without_identity_factors(build):
    m = build()
    n = len(m).bit_length() - 1
    assert from_matrix(m).sites == tuple(range(1, n + 1))


def test_rounding_in_an_identity_factor_keeps_every_site():
    m = site_matrix(SIGMA_Z, 3, 6)
    noisy = m.copy()
    noisy[0, 1] += 1e-17  # off the diagonal of qubit 6, inside qubits 1-5's (0,0) slices
    clean, kept = from_matrix(m, name="z3"), from_matrix(noisy, name="z3")
    assert kept.sites == tuple(range(1, 7))
    for generators in ([pauli("z", 3, 6)], [pauli("x", 3, 6)],
                       [pauli("z", s, 6) for s in range(1, 7)]):
        got, want = is_function_of(kept, generators), is_function_of(clean, generators)
        assert (got.is_function, got.witness_outcome) == (want.is_function, want.witness_outcome)


def test_from_matrix_reports_the_whole_matrix_hermiticity_residual():
    with pytest.raises(NonHermitianError, match=r"max \|m - m\^dagger\| = 1\.000e\+00$"):
        from_matrix(np.kron(np.eye(2), [[0.0, 1.0], [0.0, 0.0]]))
    # M = I (x) S (x) I: M - M^dagger = I (x) (S - S^dagger) (x) I, so the
    # slice S has the residual of M to the last bit
    s = random_hermitian(4, np.random.default_rng(41))
    s[0, 3] += 3e-7j
    m = kron_chain(np.eye(2), s, np.eye(2))
    assert max_abs(s - s.conj().T) == max_abs(m - m.conj().T)
    with pytest.raises(NonHermitianError) as sliced:
        from_matrix(m)
    with pytest.raises(NonHermitianError) as whole:
        hermitian_eigen(m)
    assert str(sliced.value) == str(whole.value)


def test_a_ten_qubit_dense_pauli_is_solved_as_two_by_two(monkeypatch):
    shapes = []

    def spy(m):
        shapes.append(np.shape(m))
        return hermitian_eigen(m)

    monkeypatch.setattr(observables, "hermitian_eigen", spy)
    obs = from_matrix(site_matrix(SIGMA_Z, 3, 10))
    assert obs.sites == (3,) and obs.n_qubits == 10
    assert shapes == [(2, 2)]


def test_a_multiple_of_the_identity_keeps_site_one():
    obs = from_matrix(2.5 * np.eye(8), name="c")
    assert obs.sites == (1,) and obs.n_qubits == 3
    assert obs.eigenvalues == (2.5,)
    assert np.array_equal(obs.matrix(), 2.5 * np.eye(8))
    for pattern in ("equal", "per_site"):
        assert invariance_residual(obs, pattern)[0] == 0.0
    report = is_function_of(obs, [pauli("z", 2, 3), pauli("x", 3, 3)])
    assert report.is_function and set(report.value_table.values()) == {2.5}
    assert is_function_of(pauli("z", 1, 3), [obs]).witness_outcome == (2.5,)


def test_a_one_by_one_matrix_is_a_zero_qubit_observable():
    obs = from_matrix([[2.0]])
    assert obs.sites == () and obs.n_qubits == 0
    assert obs.eigenvalues == (2.0,)
