"""Dense complex linear algebra for small multi-qubit systems.

Everything works on plain numpy arrays with dtype complex128.  Qubit 1 is
the most significant bit of an amplitude index, so the amplitudes of
|q1 q2 ... qn> read left to right and tensor products append qubits on
the right.  All operations are pure; no global mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

MAX_QUBITS = 10

# Numerical tolerances (README, Tolerances).  --tol NAME=VALUE overrides the
# ones in DEFAULT_TOLERANCES for the commands that read them; the rest are fixed.
TOL_NORM = 1e-10       # state normalization
TOL_ORTH = 1e-10       # orthonormality of eigenbases
TOL_HERM = 1e-10       # hermiticity / unitarity deviation
TOL_EIG = 1e-12        # eigensolver off-diagonal residual (relative)
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
    if n < 1e-12:
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


@cache
def _tournament(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The rounds of a round-robin tournament on 0..n-1 (n >= 2), as (P, Q)
    index arrays of disjoint pairs; every pair meets in exactly one round.
    For odd n, whoever meets player n sits the round out.  The arrays are
    shared, so read-only."""
    players = list(range(n + n % 2))
    half = len(players) // 2
    rounds = []
    for _ in range(len(players) - 1):
        pairs = [(a, b) for a, b in zip(players[:half], reversed(players[half:]))
                 if max(a, b) < n]
        p, q = (np.array(side, dtype=np.intp) for side in zip(*pairs))
        p.flags.writeable = q.flags.writeable = False
        rounds.append((p, q))
        players = [players[0], players[-1], *players[1:-1]]
    return tuple(rounds)


def _exact_blocks(h: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the exact nonzero pattern
    of h.  A rotation inside one component never touches another, so each
    can be diagonalized on its own."""
    reach = (h != 0) | np.eye(h.shape[0], dtype=bool)
    while True:
        paths = reach.astype(float)
        closure = (paths @ paths) > 0
        if np.array_equal(closure, reach):
            break
        reach = closure
    placed = np.zeros(h.shape[0], dtype=bool)
    blocks = []
    for i in range(h.shape[0]):
        if not placed[i]:
            block = np.flatnonzero(reach[i])
            placed[block] = True
            blocks.append(block)
    return blocks


def _jacobi_sweep(hv: np.ndarray, skip: float) -> None:
    """One sweep, in place, over a block h stacked on its eigenvector rows v
    (hv = [h; v]).  Every index pair of h meets once, a tournament round of
    disjoint pairs at a time, and each pair above `skip` is rotated to zero:
    a rotation acts on the columns of h and v and on the rows of h."""
    dim = hv.shape[1]
    h = hv[:dim]
    for p, q in _tournament(dim):
        hpq = h[p, q]
        active = np.abs(hpq) > skip
        if not active.any():
            continue
        if not active.all():
            p, q, hpq = p[active], q[active], hpq[active]
        # Per pair, J = diag(phase, 1) @ [[c, s], [-s, c]] with the inner
        # angle |theta| <= pi/4 and t = tan(theta): the symmetric 2x2 Schur
        # step.  The outer angle can stall the iteration.
        r = np.abs(hpq)
        diag = h.diagonal().real
        app, aqq = diag[p], diag[q]
        tau = (aqq - app) / (2.0 * r)
        t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        phase = hpq / r
        jpp, jpq = c * phase, s * phase
        # Columns, then rows: h <- J^H h J and v <- v J, from copies of the
        # old columns and rows.
        colp, colq = hv[:, p], hv[:, q]
        hv[:, p] = colp * jpp - colq * s
        hv[:, q] = colp * jpq + colq * c
        rowp, rowq = h[p], h[q]
        h[p] = jpp.conj()[:, None] * rowp - s[:, None] * rowq
        h[q] = jpq.conj()[:, None] * rowp + c[:, None] * rowq
        h[p, q] = 0.0
        h[q, p] = 0.0
        h[p, p] = app - t * r
        h[q, q] = aqq + t * r


def hermitian_eigen(m: np.ndarray, *, max_sweeps: int = 100) -> SpectralDecomposition:
    """Jacobi eigensolver for complex Hermitian matrices.

    Splits the matrix into the connected blocks of its exact nonzero
    pattern, then sweeps each block with 2x2 unitary sub-rotations in
    round-robin order: each round rotates disjoint pairs at once, and a
    sweep meets every pair once.  Stops when the off-diagonal Frobenius norm
    drops below TOL_EIG relative to the matrix scale.  Raises
    NonHermitianError for input more than TOL_HERM from Hermitian and
    ConvergenceError (with the final residual) if max_sweeps sweeps are not
    enough.
    """
    a = as_operator(m)
    herm_dev = max_abs(a - a.conj().T)
    if herm_dev > TOL_HERM:
        raise NonHermitianError(f"matrix is not Hermitian: max |m - m^dagger| = {herm_dev:.3e}")
    h = (a + a.conj().T) / 2.0
    dim = h.shape[0]
    v = np.eye(dim, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(h)))
    target = TOL_EIG * scale
    skip = target / max(dim * dim, 1)
    residual = _offdiag_norm(h)
    if residual > target:
        blocks = [np.ix_(idx, idx) for idx in _exact_blocks(h) if len(idx) > 1]
        stacks = [np.vstack([h[ix], v[ix]]) for ix in blocks]
        for _ in range(max_sweeps):
            for hv in stacks:
                _jacobi_sweep(hv, skip)
            # Entries outside the blocks are exact zeros.
            residual = math.hypot(*(_offdiag_norm(hv[:hv.shape[1]]) for hv in stacks))
            if residual <= target:
                break
        for ix, hv in zip(blocks, stacks):
            h[ix] = hv[:hv.shape[1]]
            v[ix] = hv[hv.shape[1]:]
    if residual > target:
        raise ConvergenceError(
            f"Jacobi sweeps did not converge after {max_sweeps} sweeps "
            f"(off-diagonal residual {residual:.3e}, target {target:.3e})",
            residual=residual)
    eig = np.real(np.diag(h))
    idx = np.argsort(-eig, kind="stable")
    return SpectralDecomposition(eigenvalues=eig[idx], eigenvectors=v[:, idx])
