"""Exact rational oracle for the paper's audit points: F commutes with the
total-spin generators S_a = 1/2 sum_j sigma_a^(j) and not with the
single-site Paulis sigma_a^(j); the all-up eigenvector of the lookup
generators is not an eigenvector of F; and F's Born probabilities on it.

Stdlib only (`fractions`), independent of numpy and of the package.  Every
vector of the shipped audit is rational up to a scale factor: phi0 has
entries +-1/2 and sqrt(3) phi1 has entries +-1 and +-1/2, so
F = phi1 phi1^dagger - phi0 phi0^dagger is a rational 16 x 16 matrix.  A
complex rational matrix is a pair (real part, imaginary part) of square
lists of Fractions.  Qubit 1 is the most significant bit of an index, as in
the engine.
"""

from __future__ import annotations

import math
from fractions import Fraction

QUBITS = 4
DIM = 2 ** QUBITS
ZERO = Fraction(0)
HALF = Fraction(1, 2)

# Single-qubit Paulis as (real part, imaginary part).
PAULIS = {
    "x": ([[0, 1], [1, 0]], [[0, 0], [0, 0]]),
    "y": ([[0, 0], [0, 0]], [[0, -1], [1, 0]]),
    "z": ([[1, 0], [0, -1]], [[0, 0], [0, 0]]),
}


def _bit(index: int, site: int) -> int:
    """The bit of qubit `site` (1-indexed) in a basis index."""
    return (index >> (QUBITS - site)) & 1


def _singlet_sign(a: int, b: int) -> int:
    """sqrt(2) times the amplitude of |ab> in (|01> - |10>)/sqrt(2)."""
    return (a < b) - (a > b)


def _pairing(first: tuple[int, int], second: tuple[int, int]) -> list[Fraction]:
    """Singlets on the two site pairs: every amplitude is +-1/2 or 0."""
    return [HALF * _singlet_sign(_bit(i, first[0]), _bit(i, first[1]))
            * _singlet_sign(_bit(i, second[0]), _bit(i, second[1])) for i in range(DIM)]


def spin_zero_pair() -> tuple[list[Fraction], list[Fraction]]:
    """(phi0, sqrt(3) phi1): phi0 pairs sites (1,2)(3,4) into singlets, and
    phi1 = (2 crossed - phi0)/sqrt(3) with crossed the (1,3)(2,4) pairing."""
    phi0 = _pairing((1, 2), (3, 4))
    crossed = _pairing((1, 3), (2, 4))
    return phi0, [2 * c - p for c, p in zip(crossed, phi0)]


def collapsed_state() -> list[Fraction]:
    """|00++>, the state after the all-up run of sigma_z1, sigma_z2,
    sigma_x3, sigma_x4: amplitude 1/2 wherever sites 1 and 2 read 0."""
    return [HALF if _bit(i, 1) == _bit(i, 2) == 0 else ZERO for i in range(DIM)]


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), ZERO)


def matvec(m, v) -> list[Fraction]:
    """m v for a real rational matrix m."""
    return [dot(row, v) for row in m]


def eigenvector_defect(m, v) -> tuple[Fraction, Fraction]:
    """(<v|m|v>^2, ||m v||^2) for a real rational m and a real rational unit
    vector v.  By Cauchy-Schwarz the first is at most the second, with
    equality exactly when m v is a multiple of v."""
    mv = matvec(m, v)
    return dot(v, mv) ** 2, dot(mv, mv)


def born_probabilities(f, state) -> dict[int, Fraction]:
    """P(F = +1), P(F = 0) and P(F = -1) on a real rational unit state, for
    a real rational F with F^3 = F (spectrum in {1, 0, -1}): the spectral
    projectors are the polynomials (F^2 + F)/2, 1 - F^2 and (F^2 - F)/2."""
    fs = matvec(f, state)
    first, second = dot(state, fs), dot(fs, fs)
    return {1: (second + first) / 2, 0: dot(state, state) - second, -1: (second - first) / 2}


def observable_f() -> list[list[Fraction]]:
    """F = phi1 phi1^T - phi0 phi0^T (real, so ^T is ^dagger)."""
    phi0, root3_phi1 = spin_zero_pair()
    return [[root3_phi1[r] * root3_phi1[c] / 3 - phi0[r] * phi0[c] for c in range(DIM)]
            for r in range(DIM)]


def pauli_on_site(axis: str, site: int):
    """sigma_axis on `site`, the identity on the other qubits."""
    out = []
    for part in PAULIS[axis]:
        out.append([[Fraction(part[_bit(r, site)][_bit(c, site)])
                     if r ^ c in (0, 1 << (QUBITS - site)) else ZERO
                     for c in range(DIM)] for r in range(DIM)])
    return tuple(out)


def total_spin(axis: str):
    """S_axis = 1/2 sum_j sigma_axis^(j)."""
    sites = [pauli_on_site(axis, site) for site in range(1, QUBITS + 1)]
    return tuple([[HALF * sum((g[part][r][c] for g in sites), ZERO) for c in range(DIM)]
                  for r in range(DIM)] for part in (0, 1))


def matmul(a, b):
    return [[sum((a[r][k] * b[k][c] for k in range(DIM)), ZERO) for c in range(DIM)]
            for r in range(DIM)]


def commutator_max_entry(f, generator) -> Fraction:
    """The largest |entry| of [f, generator] for a real rational f, exactly;
    it must be rational (a perfect square under the modulus)."""
    parts = [[[x - y for x, y in zip(row_fg, row_gf)]
              for row_fg, row_gf in zip(matmul(f, g), matmul(g, f))] for g in generator]
    square = max(re * re + im * im for row_re, row_im in zip(*parts)
                 for re, im in zip(row_re, row_im))
    root = Fraction(math.isqrt(square.numerator), math.isqrt(square.denominator))
    if root * root != square:
        raise ValueError(f"largest entry sqrt({square}) is not rational")
    return root


def total_spin_squared_spectrum(n: int) -> list[tuple[Fraction, int]]:
    """(eigenvalue, multiplicity) of S^2 on n spin-1/2 sites, largest first:
    s(s+1) for s = n/2, n/2 - 1, ... down to 0 or 1/2, each (2s+1) times
    the number of spin-s multiplets, C(n, n/2 - s) - C(n, n/2 - s - 1)
    (the Clebsch-Gordan series of n spin-1/2 factors)."""
    out = []
    for k in range(n // 2 + 1):
        s = Fraction(n, 2) - k
        multiplets = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
        out.append((s * (s + 1), (n - 2 * k + 1) * multiplets))
    return out
