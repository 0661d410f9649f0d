"""Dense complex linear algebra for small multi-qubit systems.

Everything works on plain numpy arrays with dtype complex128.  Qubit 1 is
the most significant bit of an amplitude index, so the amplitudes of
|q1 q2 ... qn> read left to right and tensor products append qubits on
the right.  All operations are pure; no global mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 10

# Numerical tolerances (README, Tolerances).  --tol NAME=VALUE overrides the
# ones in DEFAULT_TOLERANCES for the commands that read them; the rest are fixed.
TOL_NORM = 1e-10       # state normalization
TOL_ORTH = 1e-10       # orthonormality of eigenbases
TOL_HERM = 1e-10       # hermiticity deviation
TOL_CLUSTER = 1e-8     # eigenvalue clustering width
TOL_COMMUTE = 1e-10    # largest commutator entry of observables that commute
TOL_RANK = 1e-9        # rank of a projected eigenspace; containment in a branch
TOL_FIDELITY = 1e-10   # 1 - fidelity of a matching eta candidate
TOL_LABEL = 1e-12      # matching an eigenvalue or outcome label to a branch
TOL_SUM = 1e-8         # distance of a distribution's total probability from 1
TOL_INVARIANCE = 1e-9  # rotation-invariance verdicts
TOL_CORR = 1e-9        # perfect-correlation verdicts
TOL_ZERO = 1e-14       # impossible-branch threshold on probabilities
TOL_ASSERT = 1e-9      # scenario assert_prob comparisons
TOL_NULL = 1e-12       # norm below which a vector counts as zero

DEFAULT_TOLERANCES = {
    "norm": TOL_NORM,
    "inv": TOL_INVARIANCE,
    "corr": TOL_CORR,
    "zero": TOL_ZERO,
    "assert": TOL_ASSERT,
}

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class CapacityError(ValueError):
    """A construction would exceed the configured qubit maximum."""


class DimensionMismatchError(ValueError):
    """Operands live in incompatible-dimensional spaces."""


class NonHermitianError(ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


def as_state(amplitudes, *, require_unit: bool = False) -> np.ndarray:
    """Validate and copy a state vector.

    The vector must be one-dimensional with finite entries and a length
    that is a power of two between 2 and 2**MAX_QUBITS; with `require_unit`,
    its norm must be 1 within TOL_NORM.
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
    if require_unit and abs(norm(vec) - 1.0) > TOL_NORM:
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
    if n < TOL_NULL:
        raise ValueError("cannot normalize a zero vector")
    return np.asarray(state, dtype=complex) / n


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product; the right factor becomes the least significant qubits."""
    a = as_state(a)
    b = as_state(b)
    if num_qubits(a) + num_qubits(b) > MAX_QUBITS:
        raise CapacityError(
            f"tensor product of {num_qubits(a)} and {num_qubits(b)} qubits "
            f"exceeds the {MAX_QUBITS}-qubit maximum")
    return _kron_all((a, b))


def _kron_all(factors) -> np.ndarray:
    """Kronecker product of one or more vectors, left to right; a fresh
    complex array even for a single factor.  Each step flattens an outer
    product, which forms the elementwise products of `np.kron` bit for bit
    without its per-call overhead."""
    first, *rest = factors
    out = np.array(first, dtype=complex)
    for factor in rest:
        out = np.multiply.outer(out, factor).reshape(-1)
    return out


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"inner product needs equal dimensions, got {a.shape} and {b.shape}")
    return complex(np.vdot(a, b))


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
    if na < TOL_NULL or nb < TOL_NULL:
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


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (real, descending) with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Sum of eigenvalue-weighted projectors, for residual checks."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _exact_blocks(h: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the exact nonzero pattern
    of a Hermitian h, ordered by their first index, each ascending.  h is
    block diagonal up to a permutation of these index sets, so each can be
    diagonalized on its own.

    Label propagation over the nonzero entries, O(nnz) per round: every
    index takes the smallest label among its own and its neighbours', then
    the label of that label, until no label moves.  The pattern is
    symmetric, so each index ends labelled by the smallest index of its
    component."""
    rows, cols = np.nonzero((h != 0) | np.eye(len(h), dtype=bool))
    starts = np.flatnonzero(np.diff(rows, prepend=-1))  # every row, in order
    label = np.arange(len(h))
    while True:
        new = np.minimum.reduceat(label[cols], starts)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def hermitian_eigen(m: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a complex Hermitian matrix.

    Splits the matrix into the connected blocks of its exact nonzero
    pattern and diagonalizes each block of two or more indices with LAPACK
    (`np.linalg.eigh`); a 1-index block keeps its diagonal entry and its
    identity column.  Every eigenvector is exactly zero outside its own
    block.  Raises DimensionMismatchError or ValueError for input that is
    not a square finite matrix and NonHermitianError for input more than
    TOL_HERM from Hermitian.
    """
    a = as_operator(m)
    herm_dev = max_abs(a - a.conj().T)
    if herm_dev > TOL_HERM:
        raise NonHermitianError(f"matrix is not Hermitian: max |m - m^dagger| = {herm_dev:.3e}")
    h = (a + a.conj().T) / 2.0
    eig = np.real(np.diag(h)).copy()
    v = np.eye(h.shape[0], dtype=complex)
    for block in _exact_blocks(h):
        if len(block) > 1:
            ix = np.ix_(block, block)
            eig[block], v[ix] = np.linalg.eigh(h[ix])
    idx = np.argsort(-eig, kind="stable")
    return SpectralDecomposition(eigenvalues=eig[idx], eigenvectors=v[:, idx])
