import math

import numpy as np
import pytest

from spinzero.qcore import CapacityError, fidelity, hermitian_eigen, inner, max_abs
from spinzero.measurement import run_sequence
from spinzero.observables import pauli
from spinzero.states import (
    SINGLET_2,
    basis_ket,
    eta_tilde,
    singlet,
    singlet_on,
    spin_zero_basis,
    total_spin_squared,
)

from helpers import PHI0_EXPECTED, PHI1_EXPECTED, _reference_su2, kron_chain, product_ket


def test_basis_ket_single():
    assert np.allclose(basis_ket("0"), [1, 0])
    assert np.allclose(basis_ket("+"), [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_basis_ket_mixed_product():
    vec = basis_ket("00++")
    expected = np.zeros(16)
    expected[:4] = 0.5  # (|0>)(|0>)((|0>+|1>)/sqrt2)^2 expanded directly
    assert np.allclose(vec, expected)


def test_basis_ket_matches_direct_expansion():
    for chars in ("01", "1-", "+-01", "0+1-"):
        assert np.allclose(basis_ket(chars), product_ket(chars))


def test_single_factor_products_are_fresh_arrays():
    ket = basis_ket("0")
    ket[0] = 0.0
    assert np.array_equal(basis_ket("0"), [1, 0])
    pair = singlet(1)
    assert pair is not SINGLET_2 and np.array_equal(pair, SINGLET_2)


def test_basis_ket_accepts_character_sequences():
    assert np.allclose(basis_ket(["0", "0", "+", "+"]), basis_ket("00++"))


def test_basis_ket_errors():
    with pytest.raises(ValueError):
        basis_ket("")
    with pytest.raises(ValueError):
        basis_ket("02")
    with pytest.raises(CapacityError):
        basis_ket("0" * 11)


def test_singlet_definition():
    expected = np.array([0, 1, -1, 0]) / math.sqrt(2)
    assert np.allclose(singlet(), expected)
    assert np.allclose(singlet_on(1, 2, 2), expected)


def test_singlet_has_no_00_component():
    assert abs(inner(basis_ket("00"), singlet())) == 0.0


def test_singlet_site_order_flips_sign():
    assert np.allclose(singlet_on(2, 1, 2), -singlet())


def test_singlet_rotation_invariance():
    rng = np.random.default_rng(23)
    s = singlet()
    for _ in range(100):
        u = _reference_su2(rng)
        rotated = kron_chain(u, u) @ s
        assert fidelity(rotated, s) >= 1.0 - 1e-10


def test_singlet_pair_count():
    assert np.allclose(singlet(2), np.kron(SINGLET_2, SINGLET_2))


def test_singlet_on_with_filler_places_pairs():
    # Independent index-arithmetic oracle for the crossed pairing (1,3)(2,4).
    crossed = singlet_on(1, 3, 4, filler=SINGLET_2)
    s = SINGLET_2.reshape(2, 2)
    expected = np.zeros(16, dtype=complex)
    for b1 in range(2):
        for b2 in range(2):
            for b3 in range(2):
                for b4 in range(2):
                    expected[b1 * 8 + b2 * 4 + b3 * 2 + b4] = s[b1, b3] * s[b2, b4]
    assert np.allclose(crossed, expected)


def test_singlet_on_errors():
    with pytest.raises(ValueError):
        singlet_on(1, 1, 2)
    with pytest.raises(ValueError):
        singlet_on(1, 3, 2)
    with pytest.raises(ValueError):
        singlet_on(1, 2, 3)  # filler required
    with pytest.raises(ValueError):
        singlet_on(1, 2, 2, filler=basis_ket("0"))


def test_spin_zero_pair_is_orthonormal():
    pair = spin_zero_basis()
    assert abs(np.linalg.norm(pair.phi0) - 1.0) < 1e-10
    assert abs(np.linalg.norm(pair.phi1) - 1.0) < 1e-10
    assert abs(inner(pair.phi0, pair.phi1)) < 1e-10


def test_spin_zero_pair_is_built_once_and_read_only():
    pair = spin_zero_basis()
    assert spin_zero_basis() is pair
    for vec in (pair.phi0, pair.phi1):
        with pytest.raises(ValueError):
            vec[0] = 1.0


def test_spin_zero_pair_matches_frozen_expansion():
    pair = spin_zero_basis()
    assert np.allclose(pair.phi0, PHI0_EXPECTED, atol=1e-14)
    assert np.allclose(pair.phi1, PHI1_EXPECTED, atol=1e-14)


def test_spin_zero_overlaps_with_all_up_ket():
    pair = spin_zero_basis()
    ket = basis_ket("00++")
    assert abs(abs(inner(ket, pair.phi1)) ** 2 - 1.0 / 12.0) < 1e-12
    assert abs(inner(ket, pair.phi0)) < 1e-12


def test_spin_zero_pair_annihilated_by_total_spin():
    pair = spin_zero_basis()
    s2 = total_spin_squared(4)
    assert np.linalg.norm(s2 @ pair.phi0) < 1e-9
    assert np.linalg.norm(s2 @ pair.phi1) < 1e-9


def test_spin_zero_pair_fixed_by_equal_rotations():
    pair = spin_zero_basis()
    rng = np.random.default_rng(29)
    for _ in range(100):
        u = _reference_su2(rng)
        v = kron_chain(u, u, u, u)
        assert fidelity(v @ pair.phi0, pair.phi0) >= 1.0 - 1e-10
        assert fidelity(v @ pair.phi1, pair.phi1) >= 1.0 - 1e-10


def test_eta_tilde_is_normalized():
    assert abs(np.linalg.norm(eta_tilde()) - 1.0) < 1e-12


def test_eta_tilde_is_product_across_the_cut():
    # Schmidt rank 1 across the 4|4 qubit cut, with the first factor |00++>.
    matrix = eta_tilde().reshape(16, 16)
    u, s, vh = np.linalg.svd(matrix)
    assert s[0] > 1.0 - 1e-12
    assert np.all(s[1:] < 1e-12)
    assert abs(fidelity(u[:, 0], basis_ket("00++")) - 1.0) < 1e-12


def test_eta_tilde_bob_factor_weights():
    pair = spin_zero_basis()
    matrix = eta_tilde().reshape(16, 16)
    bob = matrix.conj().T @ basis_ket("00++")
    assert abs(abs(inner(pair.phi1, bob)) ** 2 - 0.75) < 1e-12
    assert abs(abs(inner(pair.phi0, bob)) ** 2 - 0.25) < 1e-12


def test_eta_tilde_projection_fixed_point():
    program = [pauli("z", 1, 8), pauli("z", 2, 8), pauli("x", 3, 8), pauli("x", 4, 8)]
    records = run_sequence(eta_tilde(), program, [1.0, 1.0, 1.0, 1.0])
    assert np.allclose(records[-1].post_state, eta_tilde(), atol=1e-12)
    for record in records:
        assert abs(record.probability - 1.0) < 1e-12


def test_total_spin_single_qubit():
    assert np.allclose(total_spin_squared(1), 0.75 * np.eye(2))


def test_total_spin_two_qubits_singlet_kernel():
    dec = hermitian_eigen(total_spin_squared(2))
    zero = dec.eigenvalues < 1e-9
    assert int(np.sum(zero)) == 1
    assert fidelity(dec.eigenvectors[:, zero][:, 0], singlet()) >= 1.0 - 1e-10


def test_total_spin_four_qubits_multiplicities():
    dec = hermitian_eigen(total_spin_squared(4))
    rounded = np.round(dec.eigenvalues, 8)
    counts = {value: int(np.sum(rounded == value)) for value in (0.0, 2.0, 6.0)}
    assert counts == {0.0: 2, 2.0: 9, 6.0: 5}


def test_total_spin_equals_sum_of_pauli_products():
    paulis = [np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex),
              np.array([[1, 0], [0, -1]], dtype=complex)]
    for n in range(1, 7):
        # (1/4) sum_{i,j} sigma_i . sigma_j = 3n/4 I + (1/2) sum_{i<j} sigma_i . sigma_j
        expected = 0.75 * n * np.eye(2 ** n, dtype=complex)
        for i in range(n):
            for j in range(i + 1, n):
                for sigma in paulis:
                    expected += 0.5 * kron_chain(*(sigma if k in (i, j) else np.eye(2)
                                                   for k in range(n)))
        assert np.array_equal(total_spin_squared(n), expected)


def test_total_spin_is_hermitian():
    s2 = total_spin_squared(3)
    assert max_abs(s2 - s2.conj().T) < 1e-12
