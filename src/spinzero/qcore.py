"""Dense complex linear algebra for small multi-qubit systems.

Everything works on plain numpy arrays with dtype complex128.  Qubit 1 is
the most significant bit of an amplitude index, so the amplitudes of
|q1 q2 ... qn> read left to right and tensor products append qubits on
the right.  All operations are pure; no global mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

MAX_QUBITS = 10

# Default numerical tolerances.  Most are overridable per call; the CLI's
# --tol NAME=VALUE overrides the ones its commands read (see README).
TOL_NORM = 1e-10       # state normalization
TOL_ORTH = 1e-10       # orthonormality of eigenbases
TOL_HERM = 1e-10       # hermiticity / unitarity deviation
TOL_EIG = 1e-12        # eigensolver off-diagonal residual (relative)
TOL_CLUSTER = 1e-8     # eigenvalue clustering width
TOL_INVARIANCE = 1e-9  # rotation-invariance verdicts
TOL_CORR = 1e-9        # perfect-correlation verdicts
TOL_ZERO = 1e-14       # impossible-branch threshold on probabilities
TOL_ASSERT = 1e-9      # scenario assert_prob comparisons

DEFAULT_TOLERANCES = {
    "norm": TOL_NORM,
    "orth": TOL_ORTH,
    "herm": TOL_HERM,
    "eig": TOL_EIG,
    "cluster": TOL_CLUSTER,
    "inv": TOL_INVARIANCE,
    "corr": TOL_CORR,
    "zero": TOL_ZERO,
    "assert": TOL_ASSERT,
}

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


class CapacityError(ValueError):
    """A construction would exceed the configured qubit maximum."""


class DimensionMismatchError(ValueError):
    """Operands live in incompatible-dimensional spaces."""


class NonHermitianError(ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NonUnitaryError(ValueError):
    """A matrix required to be unitary is not, beyond tolerance."""


class ConvergenceError(RuntimeError):
    """The eigensolver did not reach its residual target."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def as_state(amplitudes, *, require_unit: bool = False,
             norm_tol: float = TOL_NORM) -> np.ndarray:
    """Validate and copy a state vector.

    The vector must be one-dimensional with finite entries and a length
    that is a power of two between 2 and 2**MAX_QUBITS.
    """
    vec = np.array(amplitudes, dtype=complex)
    if vec.ndim != 1:
        raise DimensionMismatchError(f"state must be a vector, got shape {vec.shape}")
    size = vec.shape[0]
    if size < 2 or size & (size - 1):
        raise DimensionMismatchError(f"state length must be a power of two >= 2, got {size}")
    if size > 2 ** MAX_QUBITS:
        raise CapacityError(f"state of {size} amplitudes exceeds the {MAX_QUBITS}-qubit maximum")
    if not np.isfinite(vec).all():
        raise ValueError("state amplitudes must be finite")
    if require_unit and abs(norm(vec) - 1.0) > norm_tol:
        raise ValueError(f"state is not normalized: norm = {norm(vec):.12g}")
    return vec


def num_qubits(state: np.ndarray) -> int:
    """Number of qubits for a state vector (its length must be 2**n)."""
    size = int(np.asarray(state).shape[0])
    n = size.bit_length() - 1
    if 2 ** n != size:
        raise DimensionMismatchError(f"length {size} is not a power of two")
    return n


def as_operator(entries) -> np.ndarray:
    """Validate and copy a square matrix with finite entries."""
    mat = np.array(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"operator must be square, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("operator entries must be finite")
    return mat


def norm(state: np.ndarray) -> float:
    return float(np.linalg.norm(state))


def normalize(state: np.ndarray) -> np.ndarray:
    n = norm(state)
    if n < 1e-12:
        raise ValueError("cannot normalize a zero vector")
    return np.asarray(state, dtype=complex) / n


def tensor(a: np.ndarray, b: np.ndarray, *, max_qubits: int = MAX_QUBITS) -> np.ndarray:
    """Tensor product; the right factor becomes the least significant qubits."""
    a = as_state(a)
    b = as_state(b)
    if num_qubits(a) + num_qubits(b) > max_qubits:
        raise CapacityError(
            f"tensor product of {num_qubits(a)} and {num_qubits(b)} qubits "
            f"exceeds the {max_qubits}-qubit maximum")
    return np.kron(a, b)


def _kron_all(factors) -> np.ndarray:
    """Kronecker product of one or more factors, left to right; a fresh
    complex array even for a single factor."""
    first, *rest = factors
    return reduce(np.kron, rest, np.array(first, dtype=complex))


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"inner product needs equal dimensions, got {a.shape} and {b.shape}")
    return complex(np.vdot(a, b))


def apply(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Matrix-vector product m @ s."""
    m = as_operator(m)
    s = np.asarray(s, dtype=complex)
    if m.shape[1] != s.shape[0]:
        raise DimensionMismatchError(f"operator dim {m.shape[1]} does not match state dim {s.shape[0]}")
    return m @ s


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"commutator needs equal dims, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def max_abs(arr) -> float:
    arr = np.asarray(arr)
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for normalized inputs (inputs are normalized internally)."""
    na, nb = norm(a), norm(b)
    if na < 1e-12 or nb < 1e-12:
        raise ValueError("fidelity of a zero vector is undefined")
    return abs(inner(a, b)) ** 2 / (na * na * nb * nb)


def permute_qubits(state: np.ndarray, order) -> np.ndarray:
    """Reorder qubits so that slot k of the result holds source qubit order[k].

    `order` is a permutation of 1..n in 1-indexed qubit labels.
    """
    state = as_state(state)
    n = num_qubits(state)
    order = tuple(int(k) for k in order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order must be a permutation of 1..{n}, got {order}")
    axes = [k - 1 for k in order]
    return state.reshape([2] * n).transpose(axes).reshape(-1)


def random_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state on n qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise CapacityError(f"qubit count must be in 1..{MAX_QUBITS}, got {n_qubits}")
    dim = 2 ** n_qubits
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return normalize(vec)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix built as a + a^dagger."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (real, descending) with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Sum of eigenvalue-weighted projectors, for residual checks."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _offdiag_norm(h: np.ndarray) -> float:
    off = h - np.diag(np.diag(h))
    return float(np.linalg.norm(off))


def _jacobi_rotate(h: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """One cyclic-Jacobi step zeroing h[p, q] (and h[q, p]) in place."""
    hpq = h[p, q]
    habs = abs(hpq)
    if habs == 0.0:
        return
    phase = hpq / habs
    app = h[p, p].real
    aqq = h[q, q].real
    theta = 0.5 * math.atan2(2.0 * habs, aqq - app)
    c = math.cos(theta)
    s = math.sin(theta)
    # Combined rotation J = diag(phase, 1) @ [[c, s], [-s, c]].
    jpp = c * phase
    jpq = s * phase
    jqp = -s
    jqq = c
    colp = h[:, p] * jpp + h[:, q] * jqp
    colq = h[:, p] * jpq + h[:, q] * jqq
    h[:, p] = colp
    h[:, q] = colq
    rowp = np.conj(jpp) * h[p, :] + np.conj(jqp) * h[q, :]
    rowq = np.conj(jpq) * h[p, :] + np.conj(jqq) * h[q, :]
    h[p, :] = rowp
    h[q, :] = rowq
    h[p, q] = 0.0
    h[q, p] = 0.0
    h[p, p] = h[p, p].real
    h[q, q] = h[q, q].real
    vcolp = v[:, p] * jpp + v[:, q] * jqp
    vcolq = v[:, p] * jpq + v[:, q] * jqq
    v[:, p] = vcolp
    v[:, q] = vcolq


def hermitian_eigen(m: np.ndarray, *, herm_tol: float = TOL_HERM,
                    eig_tol: float = TOL_EIG,
                    max_sweeps: int = 100) -> SpectralDecomposition:
    """Cyclic Jacobi eigensolver for complex Hermitian matrices.

    Sweeps 2x2 unitary sub-rotations until the off-diagonal Frobenius norm
    drops below eig_tol relative to the matrix scale.  Raises
    NonHermitianError for non-Hermitian input and ConvergenceError (with the
    final residual) if the sweep cap is hit first.
    """
    a = as_operator(m)
    herm_dev = max_abs(a - a.conj().T)
    if herm_dev > herm_tol:
        raise NonHermitianError(f"matrix is not Hermitian: max |m - m^dagger| = {herm_dev:.3e}")
    h = (a + a.conj().T) / 2.0
    dim = h.shape[0]
    v = np.eye(dim, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(h)))
    target = eig_tol * scale
    skip = target / max(dim * dim, 1)
    for _ in range(max_sweeps):
        if _offdiag_norm(h) <= target:
            break
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                if abs(h[p, q]) > skip:
                    _jacobi_rotate(h, v, p, q)
    residual = _offdiag_norm(h)
    if residual > target:
        raise ConvergenceError(
            f"Jacobi sweeps did not converge after {max_sweeps} sweeps "
            f"(off-diagonal residual {residual:.3e}, target {target:.3e})",
            residual=residual)
    eig = np.real(np.diag(h))
    idx = np.argsort(-eig, kind="stable")
    return SpectralDecomposition(eigenvalues=eig[idx], eigenvectors=v[:, idx])
