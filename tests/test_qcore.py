import math
from functools import reduce

import numpy as np
import pytest

from spinzero.qcore import (
    MAX_QUBITS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    CapacityError,
    DimensionMismatchError,
    NonHermitianError,
    as_state,
    commutator,
    fidelity,
    hermitian_eigen,
    inner,
    max_abs,
    permute_qubits,
    _exact_blocks,
    _kron_all,
    tensor,
)
from spinzero.states import (
    AXIS_KETS,
    SINGLET_2,
    basis_ket,
    singlet,
    singlet_on,
    spin_zero_basis,
    total_spin_squared,
)
from spinzero.scenario import parse_scenario
from spinzero.observables import from_matrix, observable_f, pauli

import exact_oracle
from helpers import PHI1_EXPECTED, product_ket, random_hermitian, random_state, reach_closure_blocks

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)


def test_tensor_basis_product():
    assert np.allclose(tensor(KET0, KET1), [0, 1, 0, 0])


def test_tensor_x_basis_expansion():
    plus = basis_ket("+")
    assert np.allclose(tensor(plus, plus), [0.5, 0.5, 0.5, 0.5])


def test_tensor_eight_qubit_norm_by_direct_summation():
    pair = spin_zero_basis()
    bob = (pair.phi0 + math.sqrt(3.0) * pair.phi1) / 2.0
    vec = tensor(basis_ket("00++"), bob)
    assert vec.shape == (256,)
    total = sum(abs(a) ** 2 for a in vec)  # direct summation oracle
    assert abs(total - 1.0) < 1e-12


def test_tensor_norm_multiplies():
    rng = np.random.default_rng(3)
    a = 2.0 * random_state(2, rng)
    b = 0.5 * random_state(3, rng)
    assert abs(np.linalg.norm(tensor(a, b)) - np.linalg.norm(a) * np.linalg.norm(b)) < 1e-12


def test_tensor_capacity_error():
    big = np.zeros(2 ** 6, dtype=complex)
    big[0] = 1.0
    other = np.zeros(2 ** 5, dtype=complex)
    other[0] = 1.0
    with pytest.raises(CapacityError):
        tensor(big, other)


def assert_same_array(got, expected):
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def test_product_kets_have_the_bits_of_np_kron():
    rng = np.random.default_rng(16)
    for _ in range(60):
        chars = "".join(rng.choice(list("01+-"), int(rng.integers(1, MAX_QUBITS + 1))))
        kets = [AXIS_KETS[c] for c in chars]
        assert_same_array(_kron_all(kets), reduce(np.kron, kets[1:], kets[0]))
        assert_same_array(basis_ket(chars), reduce(np.kron, kets[1:], kets[0]))
        if len(chars) < 2:
            continue
        cut = int(rng.integers(1, len(chars)))
        left, right = basis_ket(chars[:cut]), basis_ket(chars[cut:])
        assert_same_array(tensor(left, right), np.kron(left, right))
        state = parse_scenario(f"state x = |{chars[:cut]}> * |{chars[cut:]}>\n").states["x"]
        assert_same_array(state, np.kron(left, right))


def test_qsc_product_of_sums_has_the_bits_of_np_kron():
    text = "state x = normalize(|01> + i |1->) * normalize(|+> + -1/2*sqrt(3) |1>)\n"
    left = parse_scenario("state x = normalize(|01> + i |1->)\n").states["x"]
    right = parse_scenario("state x = normalize(|+> + -1/2*sqrt(3) |1>)\n").states["x"]
    assert_same_array(parse_scenario(text).states["x"], np.kron(left, right))


def test_singlet_chains_have_the_bits_of_np_kron():
    for pairs in range(1, MAX_QUBITS // 2 + 1):
        expected = reduce(np.kron, [SINGLET_2] * pairs)
        assert_same_array(singlet(pairs), expected)
        text = " * ".join(f"singlet({2 * k + 1},{2 * k + 2})" for k in range(pairs))
        assert_same_array(parse_scenario(f"state x = {text}\n").states["x"], expected)
    filler = basis_ket("+0-")
    assert_same_array(singlet_on(1, 2, 5, filler=filler), np.kron(SINGLET_2, filler))
    assert_same_array(spin_zero_basis().phi0, np.kron(SINGLET_2, SINGLET_2))


def test_tensor_associative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b, c = (random_state(1, rng) for _ in range(3))
        assert np.allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)), atol=1e-10)


def test_inner_basis_change():
    assert abs(inner(basis_ket("+"), KET0) - 1 / math.sqrt(2)) < 1e-12


def test_inner_paper_overlap_value():
    # |<00++|phi1>|^2 pinned to 1/12, checked against the frozen expansion.
    ket = basis_ket("00++")
    assert abs(abs(inner(ket, PHI1_EXPECTED)) ** 2 - 1.0 / 12.0) < 1e-12
    assert abs(abs(inner(ket, spin_zero_basis().phi1)) ** 2 - 1.0 / 12.0) < 1e-12


def test_inner_phi0_orthogonal_to_all_up_ket():
    assert abs(inner(basis_ket("00++"), spin_zero_basis().phi0)) < 1e-12


def test_inner_conjugate_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = random_state(3, rng)
        b = random_state(3, rng)
        assert abs(inner(a, b) - np.conj(inner(b, a))) < 1e-12
        assert abs(inner(a, a) - 1.0) < 1e-12


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner(KET0, np.array([1, 0, 0, 0], dtype=complex))


def test_commutator_vanishes_for_equal():
    assert max_abs(commutator(SIGMA_Z, SIGMA_Z)) == 0.0


def test_commutator_pauli_algebra():
    assert np.allclose(commutator(SIGMA_Z, SIGMA_X), 2j * SIGMA_Y)


def test_commutator_collective_vs_single_site():
    f_matrix = observable_f().matrix()
    z1 = pauli("z", 1, 4).matrix()
    assert max_abs(commutator(f_matrix, z1)) > 0.1


def test_permute_qubits_swaps_sites():
    assert np.allclose(permute_qubits(basis_ket("01+"), (2, 1, 3)), basis_ket("10+"))
    assert np.allclose(permute_qubits(product_ket("0-1+"), (4, 3, 2, 1)),
                       product_ket("+1-0"))


def test_as_state_rejects_bad_input():
    with pytest.raises(ValueError):
        as_state([np.nan, 0.0])
    with pytest.raises(DimensionMismatchError):
        as_state([1.0, 0.0, 0.0])
    with pytest.raises(CapacityError):
        as_state(np.zeros(2 ** (MAX_QUBITS + 1)))


def test_eigen_diagonal():
    dec = hermitian_eigen(np.diag([3.0, 2.0]))
    assert np.allclose(dec.eigenvalues, [3.0, 2.0])
    assert abs(fidelity(dec.eigenvectors[:, 0], KET0) - 1.0) < 1e-12


def test_eigen_sigma_x():
    dec = hermitian_eigen(SIGMA_X)
    assert np.allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-12)
    assert abs(fidelity(dec.eigenvectors[:, 0], basis_ket("+")) - 1.0) < 1e-12
    assert abs(fidelity(dec.eigenvectors[:, 1], basis_ket("-")) - 1.0) < 1e-12


def test_eigen_collective_observable_spectrum():
    dec = hermitian_eigen(observable_f().matrix())
    rounded = np.round(dec.eigenvalues, 10)
    assert rounded[0] == 1.0
    assert rounded[-1] == -1.0
    assert np.all(rounded[1:-1] == 0.0)


def _assert_eigen_oracles(m, dec):
    dim = m.shape[0]
    # eigenvalues sorted descending and real
    assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
    # orthonormal eigenvectors
    v = dec.eigenvectors
    assert max_abs(v.conj().T @ v - np.eye(dim)) < 1e-10
    # reconstruction residual
    assert max_abs(dec.reconstruct() - m) < 1e-9
    # the spectrum of the whole matrix, with no block split
    assert np.allclose(np.sort(dec.eigenvalues), np.linalg.eigvalsh(m), atol=1e-9)


def _assert_exact_spin_squared(m, eigenvalues, n):
    """The sorted eigenvalues of S^2 on n qubits equal the exact spectrum,
    expanded by multiplicity, within 1e-12 of the matrix scale."""
    exact = [float(value) for value, count in exact_oracle.total_spin_squared_spectrum(n)
             for _ in range(count)]
    assert len(eigenvalues) == len(exact) == 2 ** n
    assert max_abs(np.asarray(eigenvalues) - exact) <= 1e-12 * np.linalg.norm(m)


def _assert_one_sector_each(columns, labels):
    """Every column is exactly zero outside the indices of one label."""
    for column in columns.T:
        assert len(set(labels[column != 0])) == 1


def _sz_sectors(n):
    """The number of 1 bits of each basis index: one label per S_z sector."""
    return np.array([bin(i).count("1") for i in range(2 ** n)])


def test_eigen_random_hermitian_properties():
    rng = np.random.default_rng(17)
    for _ in range(25):
        dim = int(rng.choice([2, 3, 4, 8, 16]))
        m = random_hermitian(dim, rng)
        _assert_eigen_oracles(m, hermitian_eigen(m))


@pytest.mark.parametrize("dim", [8, 16, 32])
def test_eigen_converges_on_random_matrices(dim):
    rng = np.random.default_rng(dim)
    for _ in range(100):
        m = random_hermitian(dim, rng)
        _assert_eigen_oracles(m, hermitian_eigen(m))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_eigen_total_spin_squared(n):
    # S^2 splits into one exact block per total S_z.
    m = total_spin_squared(n)
    dec = hermitian_eigen(m)
    _assert_eigen_oracles(m, dec)
    _assert_exact_spin_squared(m, dec.eigenvalues, n)
    _assert_one_sector_each(dec.eigenvectors, _sz_sectors(n))


def test_from_matrix_total_spin_squared_at_eight_qubits():
    # The wall of the Python Jacobi at a size the suite can afford: one
    # LAPACK solve per S_z sector.
    n = 8
    m = total_spin_squared(n)
    branches = from_matrix(m, name="S2").local_branches
    exact = exact_oracle.total_spin_squared_spectrum(n)
    assert [basis.shape[1] for _, basis in branches] == [count for _, count in exact]
    for (ev, basis), (value, _) in zip(branches, exact):
        assert abs(ev - float(value)) <= 1e-12 * np.linalg.norm(m)
        _assert_one_sector_each(basis, _sz_sectors(n))


@pytest.mark.parametrize("dim", [1, 3, 5, 7])
def test_eigen_odd_dimensions(dim):
    m = random_hermitian(dim, np.random.default_rng(100 + dim))
    _assert_eigen_oracles(m, hermitian_eigen(m))


def test_eigen_permuted_block_diagonal():
    rng = np.random.default_rng(23)
    for sizes in [(3, 1, 4, 2, 5), (2, 17), (1, 1, 9)]:
        m = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
        labels = np.repeat(np.arange(len(sizes)), sizes)
        start = 0
        for size in sizes:
            m[start:start + size, start:start + size] = random_hermitian(size, rng)
            start += size
        perm = rng.permutation(m.shape[0])
        m, labels = m[np.ix_(perm, perm)], labels[perm]
        dec = hermitian_eigen(m)
        _assert_eigen_oracles(m, dec)
        # Blocks are solved apart, so every eigenvector is exactly zero off
        # its own block.
        _assert_one_sector_each(dec.eigenvectors, labels)


def _permuted_block_diagonal(rng, sizes, density):
    """A random Hermitian matrix, block diagonal with blocks of `sizes` up to a
    random permutation, each block's entries kept with probability `density`."""
    d = sum(sizes)
    m = np.zeros((d, d), dtype=complex)
    start = 0
    for size in sizes:
        block = random_hermitian(size, rng) * (rng.random((size, size)) < density)
        m[start:start + size, start:start + size] = block + block.conj().T
        start += size
    perm = rng.permutation(d)
    return m[np.ix_(perm, perm)]


def test_exact_blocks_equal_the_reach_closure_blocks():
    # Same index sets in the same order, so each block is solved on the
    # same submatrix and every eigenpair keeps its bits.
    rng = np.random.default_rng(29)
    inputs = [total_spin_squared(n) for n in range(2, 9)]
    inputs += [_permuted_block_diagonal(rng, rng.integers(1, 7, rng.integers(1, 9)), density)
               for density in (0.2, 0.5, 1.0) for _ in range(20)]
    inputs += [np.zeros((4, 4)), np.eye(5), np.ones((3, 3))]
    for m in inputs:
        got, want = _exact_blocks(m), reach_closure_blocks(m)
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_eigen_diagonal_input_returns_identity_eigenvectors():
    dec = hermitian_eigen(np.diag([1.0, 3.0, -2.0, 3.0]))
    assert np.array_equal(dec.eigenvalues, [3.0, 3.0, 1.0, -2.0])
    assert np.array_equal(dec.eigenvectors, np.eye(4)[:, [1, 3, 0, 2]])


def test_eigen_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
