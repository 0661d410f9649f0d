"""Constructors for the named states of the measurement audit.

Covers mixed z/x product kets (bar notation: |+> and |-> are the x-basis
kets), the two-qubit singlet, the two-dimensional spin-zero subspace of
four qubits, and the post-measurement product state used by the shipped
refutation pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .qcore import (
    MAX_QUBITS,
    CapacityError,
    _kron_all,
    as_state,
    num_qubits,
    permute_qubits,
)

_SQRT2 = math.sqrt(2.0)

# Single-qubit kets keyed by the characters of the scenario-DSL ket syntax.
# '0'/'1' are the z basis; '+'/'-' are the x basis with +1 mapping to '+'
# so that an all-up outcome string corresponds to |00...++...>.
AXIS_KETS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / _SQRT2,
    "-": np.array([1.0, -1.0], dtype=complex) / _SQRT2,
}

SINGLET_2 = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / _SQRT2


def basis_ket(spec) -> np.ndarray:
    """Product ket from a string (or character sequence) over '01+-'.

    basis_ket("00++") is the four-qubit ket with |0> on qubits 1-2 and the
    x-basis plus state on qubits 3-4.
    """
    chars = list(spec)
    if not chars:
        raise ValueError("basis_ket needs at least one qubit")
    if len(chars) > MAX_QUBITS:
        raise CapacityError(f"{len(chars)} qubits exceed the {MAX_QUBITS}-qubit maximum")
    for ch in chars:
        if ch not in AXIS_KETS:
            raise ValueError(f"invalid ket character {ch!r}: expected one of 0, 1, +, -")
    return _kron_all(AXIS_KETS[ch] for ch in chars)


def singlet(pair_count: int = 1) -> np.ndarray:
    """Tensor power of the two-qubit singlet (|01> - |10>)/sqrt(2)."""
    if pair_count < 1:
        raise ValueError("pair_count must be positive")
    if 2 * pair_count > MAX_QUBITS:
        raise CapacityError(f"{2 * pair_count} qubits exceed the {MAX_QUBITS}-qubit maximum")
    return _kron_all([SINGLET_2] * pair_count)


def singlet_on(i: int, j: int, n: int, filler=None) -> np.ndarray:
    """Singlet on sites (i, j) of an n-qubit register.

    Site i takes the first singlet slot, so singlet_on(2, 1, 2) is the
    sign-flipped singlet_on(1, 2, 2).  The remaining n - 2 sites, in
    ascending order, hold `filler` (required whenever n > 2).
    """
    if n < 2 or n > MAX_QUBITS:
        raise CapacityError(f"register size must be in 2..{MAX_QUBITS}, got {n}")
    if i == j:
        raise ValueError(f"singlet sites must differ, got ({i}, {j})")
    for site in (i, j):
        if not 1 <= site <= n:
            raise ValueError(f"site {site} out of range 1..{n}")
    rest = [s for s in range(1, n + 1) if s not in (i, j)]
    if rest and filler is None:
        raise ValueError(f"filler state required for the remaining sites {rest}")
    if not rest and filler is not None:
        raise ValueError("filler given but no remaining sites to fill")
    vec = SINGLET_2
    if filler is not None:
        filler = as_state(filler)
        if num_qubits(filler) != len(rest):
            raise ValueError(f"filler must cover {len(rest)} qubits, got {num_qubits(filler)}")
        vec = _kron_all((vec, filler))
    order = [0] * n
    order[i - 1] = 1
    order[j - 1] = 2
    for k, site in enumerate(rest):
        order[site - 1] = 3 + k
    return permute_qubits(vec, order)


@dataclass(frozen=True, eq=False)
class SpinZeroBasis:
    """Orthonormal basis {phi0, phi1} of the four-qubit total-spin-zero subspace."""

    phi0: np.ndarray
    phi1: np.ndarray


@cache
def spin_zero_basis() -> SpinZeroBasis:
    """The two-dimensional spin-zero subspace of four qubits.

    phi0 pairs sites (1,2) and (3,4) into singlets; phi1 is the orthonormal
    complement inside the subspace, obtained by Gram-Schmidt from the
    crossed pairing (1,3)(2,4).  Both vectors are annihilated by the total
    spin squared and are pointwise fixed by any equal rotation U x U x U x U.
    The pair is built once per process and its arrays are read-only.
    """
    phi0 = _kron_all((SINGLET_2, SINGLET_2))
    crossed = singlet_on(1, 3, 4, filler=SINGLET_2)
    phi1 = (2.0 * crossed - phi0) / math.sqrt(3.0)
    phi0.setflags(write=False)
    phi1.setflags(write=False)
    return SpinZeroBasis(phi0=phi0, phi1=phi1)


def eta_tilde() -> np.ndarray:
    """Post-measurement 8-qubit product state of the shipped refutation.

    The first party's factor is the mixed ket |00++>; the second party's
    factor is the unit combination (phi0 + sqrt(3) phi1)/2 of its own
    spin-zero pair on sites 5-8.
    """
    pair = spin_zero_basis()
    bob = (pair.phi0 + math.sqrt(3.0) * pair.phi1) / 2.0
    return _kron_all((basis_ket("00++"), bob))


def total_spin_squared(n: int) -> np.ndarray:
    """The operator (sum_i vec(sigma_i)/2)^2 on n qubits.

    Its kernel is the total-spin-zero subspace; for n = 4 that kernel is
    two-dimensional and certifies the spin_zero_basis construction.  Built
    from sigma_i . sigma_j = 2 SWAP_ij - I as n(4 - n)/4 I + sum_{i<j} SWAP_ij,
    where SWAP_ij permutes basis indices; every entry is a multiple of 1/4,
    so the sums are exact.
    """
    if not 1 <= n <= MAX_QUBITS:
        raise CapacityError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")
    dim = 2 ** n
    # not eye() * c: a negative c (n > 4) would write -0.0 off the diagonal
    s2 = np.diag(np.full(dim, n * (4 - n) / 4, dtype=complex))
    index = np.arange(dim)
    for i in range(n):
        for j in range(i + 1, n):
            differ = ((index >> i) ^ (index >> j)) & 1
            s2[index, index ^ (differ * ((1 << i) | (1 << j)))] += 1.0
    return s2
