"""Spectral observables: Pauli embeddings, the shipped collective
observables F and G, functional-dependence checking, and rotation-invariance
audits.

An observable is specified by its spectral data (eigenvalue -> orthonormal
eigenbasis), never reconstructed from a matrix on the main path; collapse
semantics depend on eigenspaces, and the eigensolver stays a cross-check
oracle.  Eigenbases are stored on the qubits the observable acts on and
applied to a register state by contracting only those qubits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qcore import (
    IDENTITY_2,
    MAX_QUBITS,
    TOL_CLUSTER,
    TOL_HERM,
    TOL_INVARIANCE,
    TOL_ORTH,
    CapacityError,
    DimensionMismatchError,
    NonUnitaryError,
    as_operator,
    commutator,
    hermitian_eigen,
    max_abs,
)
from .states import spin_zero_basis

_SQRT2 = np.sqrt(2.0)

_PAULI_EIGENBASES = {
    "x": ((1.0, np.array([1.0, 1.0], dtype=complex) / _SQRT2),
          (-1.0, np.array([1.0, -1.0], dtype=complex) / _SQRT2)),
    "y": ((1.0, np.array([1.0, 1.0j], dtype=complex) / _SQRT2),
          (-1.0, np.array([1.0, -1.0j], dtype=complex) / _SQRT2)),
    "z": ((1.0, np.array([1.0, 0.0], dtype=complex)),
          (-1.0, np.array([0.0, 1.0], dtype=complex))),
}


class NonCommutingError(ValueError):
    """Observables required to commute do not."""


@dataclass(frozen=True, eq=False, init=False)
class SpectralObservable:
    """Hermitian observable as (eigenvalue, orthonormal eigenbasis) branches.

    The branch bases are stored locally: each is a 2**k x r column block on
    the k qubits listed in `sites` (local qubit j sits on register site
    sites[j], 1-indexed) of an n_qubits register, with the identity
    elsewhere.  Across branches the columns form an orthonormal basis of
    the local space, so the branch projectors resolve the identity.  A
    site-less observable acts on its whole register in order.

    `branches`, `branch_basis`, `projector` and `matrix()` are register-wide
    dense views built on demand; measurement projects with `_apply`, which
    never forms them.
    """

    local_branches: tuple[tuple[float, np.ndarray], ...]
    sites: tuple[int, ...] | None
    dim: int
    name: str
    _subscripts: tuple[str, str] | None = field(repr=False)

    def __init__(self, branches, sites=None, name: str = "",
                 n_qubits: int | None = None):
        local = []
        for eigenvalue, basis in branches:
            basis = np.asarray(basis, dtype=complex)
            if basis.ndim == 1:
                basis = basis.reshape(-1, 1)
            local.append((float(eigenvalue), basis))
        if not local:
            raise ValueError("observable needs at least one branch")
        local_dim = local[0][1].shape[0]
        total = 0
        for eigenvalue, basis in local:
            if not np.isfinite(eigenvalue):
                raise ValueError("eigenvalues must be finite")
            if basis.shape[0] != local_dim:
                raise DimensionMismatchError("all branch bases must share one dimension")
            total += basis.shape[1]
        if total != local_dim:
            raise ValueError(f"branch bases supply {total} vectors for dimension {local_dim}")
        values = [ev for ev, _ in local]
        for i, vi in enumerate(values):
            for vj in values[i + 1:]:
                if abs(vi - vj) <= TOL_CLUSTER:
                    raise ValueError(f"branch eigenvalues {vi} and {vj} are not separated")
        union = np.hstack([basis for _, basis in local])
        gram_dev = max_abs(union.conj().T @ union - np.eye(local_dim))
        if gram_dev > TOL_ORTH:
            raise ValueError(f"branch bases are not orthonormal: deviation {gram_dev:.3e}")
        dim = local_dim
        if sites is not None:
            sites = tuple(int(s) for s in sites)
            if 2 ** len(sites) != local_dim:
                raise DimensionMismatchError(
                    f"{len(sites)} sites need branch bases with {2 ** len(sites)} rows, "
                    f"got {local_dim}")
            n = len(sites) if n_qubits is None else int(n_qubits)
            if n > MAX_QUBITS:
                raise CapacityError(f"{n} qubits exceed the {MAX_QUBITS}-qubit maximum")
            _check_sites(sites, n)
            dim = 2 ** n
        elif n_qubits is not None and 2 ** int(n_qubits) != local_dim:
            raise DimensionMismatchError(
                f"site-less branch bases have {local_dim} rows, not 2**{n_qubits}")
        object.__setattr__(self, "local_branches", tuple(local))
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_subscripts", _einsum_subscripts(sites, dim))

    @property
    def n_qubits(self) -> int:
        n = self.dim.bit_length() - 1
        if 2 ** n != self.dim:
            raise DimensionMismatchError(f"dimension {self.dim} is not a power of two")
        return n

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(ev for ev, _ in self.local_branches)

    def _local_branch(self, eigenvalue: float) -> tuple[float, np.ndarray]:
        """The (eigenvalue, local basis) branch matching `eigenvalue`."""
        for ev, basis in self.local_branches:
            if ev == eigenvalue or abs(ev - float(eigenvalue)) <= 1e-12:
                return ev, basis
        raise KeyError(f"{eigenvalue} is not in the spectrum {self.eigenvalues}")

    def _apply(self, basis: np.ndarray, arr: np.ndarray, *,
               adjoint: bool = False) -> np.ndarray:
        """The projection kernel: B arr, or B^dagger arr when `adjoint`,
        for B a local branch basis lifted onto the register.

        `arr` is a vector or a matrix of columns.  B is never formed: the
        register axes of `arr` are split into one axis per qubit, only the
        site axes are contracted with the local basis, and the einsum output
        subscripts put the axes back in order.  Coefficients are ordered
        (local column, then the other qubits ascending), the column order of
        the dense view.  Plain einsum, not BLAS: BLAS kernels fuse
        multiply-adds, which leaves ~1e-34 residues where an impossible
        outcome's amplitudes cancel exactly.
        """
        if self._subscripts is None:
            return basis.conj().T @ arr if adjoint else basis @ arr
        to_local, to_register = self._subscripts
        k = len(self.sites)
        batch = arr.shape[1:]
        tensor = basis.reshape((2,) * k + basis.shape[1:])
        if adjoint:
            out = np.einsum(to_local, tensor.conj(), arr.reshape((2,) * self.n_qubits + batch))
            return out.reshape((-1,) + batch)
        rest = (2,) * (self.n_qubits - k)
        out = np.einsum(to_register, tensor, arr.reshape(basis.shape[1:] + rest + batch))
        return out.reshape((self.dim,) + batch)

    def _project(self, basis: np.ndarray, arr: np.ndarray) -> np.ndarray:
        """B B^dagger arr: projection onto a lifted local branch basis."""
        return self._apply(basis, self._apply(basis, arr, adjoint=True))

    def _dense(self, basis: np.ndarray) -> np.ndarray:
        if self._subscripts is None:
            return basis
        return _lift_columns(basis, self.sites, self.n_qubits)

    @property
    def branches(self) -> tuple[tuple[float, np.ndarray], ...]:
        """Register-wide (eigenvalue, dim x r basis) branches, built on demand."""
        return tuple((ev, self._dense(basis)) for ev, basis in self.local_branches)

    def branch_basis(self, eigenvalue: float) -> np.ndarray:
        return self._dense(self._local_branch(eigenvalue)[1])

    def projector(self, eigenvalue: float) -> np.ndarray:
        basis = self.branch_basis(eigenvalue)
        return basis @ basis.conj().T

    def matrix(self) -> np.ndarray:
        """Hermitian matrix form: the eigenvalue-weighted sum of projectors."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for ev, basis in self.branches:
            if ev != 0.0:
                out += ev * (basis @ basis.conj().T)
        return out


def pauli(axis: str, site: int, n: int) -> SpectralObservable:
    """Single-site Pauli observable on an n-qubit register.

    Eigenvalues are +1 and -1, each with a 2**(n-1)-dimensional eigenbasis;
    the matrix form is the identity everywhere except `site`.
    """
    key = str(axis).lower()
    if key not in _PAULI_EIGENBASES:
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}")
    if not 1 <= site <= n:
        raise ValueError(f"site {site} out of range 1..{n}")
    return SpectralObservable(branches=_PAULI_EIGENBASES[key], sites=(site,),
                              n_qubits=n, name=f"sigma_{key}{site}")


def _orthonormal_completion(seed_vectors, dim: int) -> np.ndarray:
    """Complete seed vectors to an orthonormal basis via Gram-Schmidt over
    the computational basis in index order; returns only the new columns."""
    basis = [np.asarray(v, dtype=complex) for v in seed_vectors]
    added = []
    for k in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[k] = 1.0
        for _ in range(2):  # second pass keeps orthogonality at 1e-15 level
            for b in basis:
                v = v - np.vdot(b, v) * b
        nrm = np.linalg.norm(v)
        if nrm > 1e-7:
            v = v / nrm
            basis.append(v)
            added.append(v)
    return np.column_stack(added)


def _collective_observable(name: str) -> SpectralObservable:
    pair = spin_zero_basis()
    completion = _orthonormal_completion([pair.phi0, pair.phi1], 16)
    return SpectralObservable(
        branches=((1.0, pair.phi1.reshape(-1, 1)),
                  (-1.0, pair.phi0.reshape(-1, 1)),
                  (0.0, completion)),
        sites=(1, 2, 3, 4),
        name=name)


def observable_f() -> SpectralObservable:
    """The four-qubit collective observable F of the shipped audit.

    Outcome +1 on one spin-zero basis vector, -1 on the other, and 0 on the
    14-dimensional orthocomplement (produced by deterministic completion).
    """
    return _collective_observable("F")


def observable_g() -> SpectralObservable:
    """The second party's counterpart of F, built from the same spin-zero
    pair; it acts on that party's four qubits once embedded."""
    return _collective_observable("G")


def _check_sites(sites, n: int) -> None:
    if len(set(sites)) != len(sites):
        raise ValueError(f"sites must be distinct, got {list(sites)}")
    for s in sites:
        if not 1 <= s <= n:
            raise ValueError(f"site {s} out of range 1..{n}")


def _einsum_subscripts(sites, dim: int) -> tuple[str, str] | None:
    """Einsum subscripts of the projection kernel for a local basis on
    `sites` of a dim-dimensional register: (B^dagger arr, B coeff).  None
    when the sites are the whole register in order, so the local bases
    already are the register-wide ones."""
    n = dim.bit_length() - 1
    if sites is None or sites == tuple(range(1, n + 1)):
        return None
    axes = [chr(ord("a") + q) for q in range(n)]
    local = "".join(axes[s - 1] for s in sites) + "R"
    rest = "R" + "".join(a for q, a in enumerate(axes, start=1) if q not in sites)
    register = "".join(axes)
    return f"{local},{register}...->{rest}...", f"{local},{rest}...->{register}..."


def _lift_columns(basis: np.ndarray, sites, n: int) -> np.ndarray:
    """Dense view of a local basis: tensor each column with the identity on
    the complement sites, then reorder qubits so `sites` land at their
    register positions.  Columns are ordered (local column, complement)."""
    k = len(sites)
    block = np.kron(basis, np.eye(2 ** (n - k), dtype=complex))
    source = list(sites) + [s for s in range(1, n + 1) if s not in sites]
    axes = [source.index(t) for t in range(1, n + 1)]
    cols = block.shape[1]
    return block.reshape([2] * n + [cols]).transpose(axes + [n]).reshape(2 ** n, cols)


def embed(obs: SpectralObservable, sites, n: int) -> SpectralObservable:
    """Place an observable on `sites` of an n-qubit register (identity
    elsewhere).  Eigenvalues are preserved; each eigenspace dimension is
    multiplied by 2**(n - len(sites)).  The local bases are shared, not
    lifted: an observable already on sites s lands on sites[s - 1]."""
    sites = [int(s) for s in sites]
    if n > MAX_QUBITS:
        raise CapacityError(f"{n} qubits exceed the {MAX_QUBITS}-qubit maximum")
    if len(sites) != obs.n_qubits:
        raise ValueError(f"observable covers {obs.n_qubits} qubits, got {len(sites)} sites")
    _check_sites(sites, n)
    if obs.sites is not None:
        sites = [sites[s - 1] for s in obs.sites]
    return SpectralObservable(branches=obs.local_branches, sites=sites,
                              n_qubits=n, name=obs.name)


def from_matrix(m, *, cluster_tol: float = TOL_CLUSTER, herm_tol: float = TOL_HERM,
                name: str = "") -> SpectralObservable:
    """Spectral observable from a Hermitian matrix.

    Runs the Jacobi eigensolver and groups eigenvalues closer than
    cluster_tol into one eigenspace; each branch eigenvalue is the cluster
    mean.
    """
    decomp = hermitian_eigen(as_operator(m), herm_tol=herm_tol)
    eigenvalues = decomp.eigenvalues
    branches = []
    start = 0
    for k in range(1, len(eigenvalues) + 1):
        if k == len(eigenvalues) or eigenvalues[start] - eigenvalues[k] > cluster_tol:
            cluster = eigenvalues[start:k]
            branches.append((float(np.mean(cluster)), decomp.eigenvectors[:, start:k]))
            start = k
    return SpectralObservable(branches=tuple(branches), name=name)


@dataclass(frozen=True)
class FunctionReport:
    """Outcome of a functional-dependence check.

    Exactly one of value_table / witness is present: the table maps each
    joint outcome tuple of the generators to the checked observable's
    eigenvalue there, and the witness names a joint outcome whose eigenspace
    straddles several eigenspaces of the checked observable.
    """

    is_function: bool
    value_table: dict[tuple[float, ...], float] | None = None
    witness: str | None = None
    witness_outcome: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.is_function and (self.value_table is None or self.witness is not None):
            raise ValueError("a positive report carries a value table and no witness")
        if not self.is_function and (self.witness is None or self.value_table is not None):
            raise ValueError("a negative report carries a witness and no value table")


def _orthonormal_columns(block: np.ndarray, rank_tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the column span, empty when the span is trivial."""
    if block.shape[1] == 0:
        return block
    u, s, _ = np.linalg.svd(block, full_matrices=False)
    return u[:, s > rank_tol]


def _check_commuting(observables, tol: float) -> None:
    mats = None
    for i in range(len(observables)):
        for j in range(i + 1, len(observables)):
            a, b = observables[i], observables[j]
            if a.dim != b.dim:
                raise DimensionMismatchError(
                    f"observables have dims {a.dim} and {b.dim}")
            if (a.sites is not None and b.sites is not None
                    and not set(a.sites) & set(b.sites)):
                continue  # disjoint supports commute exactly
            if mats is None:
                mats = {k: obs.matrix() for k, obs in enumerate(observables)}
            dev = max_abs(commutator(mats[i], mats[j]))
            if dev > tol:
                raise NonCommutingError(
                    f"observables {a.name or i} and {b.name or j} do not commute "
                    f"(max commutator entry {dev:.3e})")


def joint_eigenspaces(generators, *, commute_tol: float = 1e-10,
                      rank_tol: float = 1e-9):
    """Joint eigenspace decomposition of a commuting set.

    Returns a list of (outcome tuple, orthonormal basis columns) covering
    every realizable joint outcome, refined generator by generator in branch
    order.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    _check_commuting(generators, commute_tol)
    dim = generators[0].dim
    spaces = [((), np.eye(dim, dtype=complex))]
    for gen in generators:
        refined = []
        for outcome, basis in spaces:
            for ev, branch in gen.local_branches:
                projected = gen._project(branch, basis)
                q = _orthonormal_columns(projected, rank_tol)
                if q.shape[1] > 0:
                    refined.append((outcome + (ev,), q))
        spaces = refined
    return spaces


def is_function_of(f: SpectralObservable, generators, *,
                   commute_tol: float = 1e-10,
                   contain_tol: float = 1e-9) -> FunctionReport:
    """Decide whether f is a function of a commuting generator set.

    f is a function of the set exactly when every joint eigenspace of the
    generators lies inside a single eigenspace of f, so that the joint
    outcome determines f's value.  Decided structurally by eigenspace
    containment, not by polynomial fitting.
    """
    generators = list(generators)
    for gen in generators:
        if gen.dim != f.dim:
            raise DimensionMismatchError(
                f"generator dim {gen.dim} does not match f dim {f.dim}")
    table: dict[tuple[float, ...], float] = {}
    for outcome, basis in joint_eigenspaces(generators, commute_tol=commute_tol):
        value = None
        for ev, branch in f.local_branches:
            residual = max_abs(f._project(branch, basis) - basis)
            if residual <= contain_tol:
                value = ev
                break
        if value is None:
            label = _format_outcome(outcome)
            return FunctionReport(
                is_function=False,
                witness=(f"joint outcome {label}: its eigenspace is not contained "
                         f"in a single eigenspace of {f.name or 'the observable'}"),
                witness_outcome=outcome)
        table[outcome] = value
    return FunctionReport(is_function=True, value_table=table)


def _format_outcome(outcome) -> str:
    parts = []
    for v in outcome:
        if v == 1.0:
            parts.append("+")
        elif v == -1.0:
            parts.append("-")
        else:
            parts.append(f"{v:g}")
    return "(" + ",".join(parts) + ")"


@dataclass(frozen=True)
class InvarianceReport:
    """Conjugation-invariance audit over one or more rotation trials."""

    invariant: bool
    max_deviation: float
    trials: int
    deviations: tuple[float, ...] = field(default=(), repr=False)


def _su2_from_rng(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform SU(2) element from a normalized Gaussian quaternion."""
    q = rng.standard_normal(4)
    q = q / np.linalg.norm(q)
    a, b, c, d = q
    return np.array([[a + 1j * b, c + 1j * d],
                     [-c + 1j * d, a - 1j * b]], dtype=complex)


def random_su2(seed: int) -> np.ndarray:
    """Deterministic Haar-uniform single-qubit rotation for a seed."""
    return _su2_from_rng(np.random.default_rng(seed))


def _require_unitary(u: np.ndarray, tol: float) -> np.ndarray:
    u = as_operator(u)
    if u.shape != (2, 2):
        raise DimensionMismatchError(f"rotations must be 2x2, got {u.shape}")
    dev = max_abs(u.conj().T @ u - IDENTITY_2)
    if dev > tol:
        raise NonUnitaryError(f"rotation is not unitary: deviation {dev:.3e}")
    return u


def _kron_chain(factors) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def check_invariance(obs: SpectralObservable, rotation=None, *,
                     pattern: str = "equal", trials: int = 1, seed: int = 0,
                     tol: float = TOL_INVARIANCE,
                     herm_tol: float = TOL_HERM) -> InvarianceReport:
    """Audit invariance of an observable under tensor-product rotations.

    pattern "equal" conjugates by u x u x ... x u; pattern "per_site" uses an
    independent rotation on every qubit.  With `rotation` given, runs that
    single trial (a 2x2 unitary, or a sequence of per-site 2x2 unitaries);
    otherwise draws `trials` seeded Haar-random rotations.
    """
    if pattern not in ("equal", "per_site"):
        raise ValueError(f"pattern must be 'equal' or 'per_site', got {pattern!r}")
    if rotation is None and trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = obs.n_qubits
    m = obs.matrix()
    rotation_sets = []
    if rotation is not None:
        if pattern == "equal":
            rotation_sets.append([_require_unitary(rotation, herm_tol)] * n)
        else:
            factors = [_require_unitary(u, herm_tol) for u in rotation]
            if len(factors) != n:
                raise ValueError(f"per_site pattern needs {n} rotations, got {len(factors)}")
            rotation_sets.append(factors)
    else:
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            if pattern == "equal":
                rotation_sets.append([_su2_from_rng(rng)] * n)
            else:
                rotation_sets.append([_su2_from_rng(rng) for _ in range(n)])
    deviations = []
    for factors in rotation_sets:
        v = _kron_chain(factors)
        deviations.append(max_abs(v @ m @ v.conj().T - m))
    max_dev = max(deviations)
    return InvarianceReport(invariant=max_dev < tol, max_deviation=max_dev,
                            trials=len(deviations), deviations=tuple(deviations))
