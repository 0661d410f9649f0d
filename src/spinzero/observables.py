"""Spectral observables: Pauli embeddings, the shipped collective
observables F and G, functional-dependence checking, and rotation-invariance
decisions and audits.

An observable is specified by its spectral data (eigenvalue -> orthonormal
eigenbasis), never reconstructed from a matrix on the main path; collapse
semantics depend on eigenspaces.  The eigensolver is reached only through
`from_matrix`, which turns a user's Hermitian matrix into that data.
Eigenbases are stored on the qubits the observable acts on and applied to a
register state by contracting only those qubits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, product

import numpy as np

from .qcore import (
    MAX_QUBITS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TOL_CLUSTER,
    TOL_COMMUTE,
    TOL_INVARIANCE,
    TOL_LABEL,
    TOL_ORTH,
    TOL_RANK,
    CapacityError,
    DimensionMismatchError,
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
    the local space, so the branch projectors resolve the identity, and
    branch eigenvalues lie more than TOL_CLUSTER apart.
    `sites` defaults to 1..k.  The bases are read-only copies, so an
    observable can be shared: F, G and the one-qubit Paulis are built once
    per process.

    `branches` and `matrix()` are register-wide dense views built on demand;
    measurement projects with `_apply`, which never forms them.
    """

    local_branches: tuple[tuple[float, np.ndarray], ...]
    sites: tuple[int, ...]
    dim: int
    name: str
    _subscripts: tuple[str, str] | None = field(repr=False)

    def __init__(self, branches, sites=None, name: str = "",
                 n_qubits: int | None = None):
        local = []
        for eigenvalue, basis in branches:
            basis = np.array(basis, dtype=complex)  # a copy no caller can write
            basis.setflags(write=False)
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
        # TOL_CLUSTER is above the window in which `_local_branch` matches
        # a requested eigenvalue, so no two branches can be confused.
        values = [ev for ev, _ in local]
        for i, vi in enumerate(values):
            for vj in values[i + 1:]:
                if abs(vi - vj) <= TOL_CLUSTER:
                    raise ValueError(f"branch eigenvalues {vi} and {vj} are not separated")
        union = np.hstack([basis for _, basis in local])
        gram_dev = max_abs(union.conj().T @ union - np.eye(local_dim))
        if gram_dev > TOL_ORTH:
            raise ValueError(f"branch bases are not orthonormal: deviation {gram_dev:.3e}")
        if sites is None:
            sites = range(1, local_dim.bit_length())
        self._place(tuple(local), sites, n_qubits, name)

    def _place(self, local_branches, sites, n_qubits, name: str) -> None:
        """Store validated local branches on `sites` of an n_qubits
        register (None: just the sites), after checking the sites."""
        sites = tuple(int(s) for s in sites)
        local_dim = local_branches[0][1].shape[0]
        if 2 ** len(sites) != local_dim:
            raise DimensionMismatchError(
                f"branch bases have {local_dim} rows, not 2**{len(sites)} for sites {sites}")
        n = len(sites) if n_qubits is None else int(n_qubits)
        if n > MAX_QUBITS:
            raise CapacityError(f"{n} qubits exceed the {MAX_QUBITS}-qubit maximum")
        _check_sites(sites, n)
        object.__setattr__(self, "local_branches", local_branches)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "dim", 2 ** n)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_subscripts", _einsum_subscripts(sites, n))

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(ev for ev, _ in self.local_branches)

    def _local_branch(self, eigenvalue: float) -> tuple[float, np.ndarray]:
        """The (eigenvalue, local basis) branch matching `eigenvalue`."""
        for ev, basis in self.local_branches:
            if ev == eigenvalue or abs(ev - float(eigenvalue)) <= TOL_LABEL:
                return ev, basis
        raise KeyError(f"{eigenvalue} is not in the spectrum {self.eigenvalues}")

    def _apply(self, basis: np.ndarray, arr: np.ndarray, *,
               adjoint: bool = False) -> np.ndarray:
        """The projection kernel: B v, or B^dagger v when `adjoint`, for B a
        local branch basis lifted onto the register and v a vector or each
        row of a stack of vectors (the register on the last axis).

        B is never formed: the register axis of `arr` is split into one axis
        per qubit, only the site axes are contracted with the local basis,
        and the einsum output subscripts put the axes back in order.
        Coefficients are ordered (local column, then the other qubits
        ascending), the column order of the dense view.  Plain einsum, not
        BLAS: BLAS kernels fuse multiply-adds, which leaves ~1e-34 residues
        where an impossible outcome's amplitudes cancel exactly.  When the
        sites are the whole register in order, BLAS applies B directly, one
        matrix-vector product per vector (~40 us against ~150 us in einsum
        for 64 vectors and a 64 x 27 basis), keeping those reports' digits.

        The stack's batch axis leads, so einsum contracts each vector as it
        would contract it alone, and each gets the same bits.  The one
        exception is an observable whose sites permute the whole register
        (no other qubits): einsum may then sum a lone vector in another
        grouping, and the two differ in the last bits.
        """
        if self._subscripts is None:
            op = basis.conj().T if adjoint else basis
            return np.matmul(op, arr[..., None])[..., 0]
        to_local, to_register = self._subscripts
        k = len(self.sites)
        batch = arr.shape[:-1]
        tensor = basis.reshape((2,) * k + basis.shape[1:])
        if adjoint:
            out = np.einsum(to_local, tensor.conj(), arr.reshape(batch + (2,) * self.n_qubits))
            return out.reshape(batch + (-1,))
        rest = (2,) * (self.n_qubits - k)
        out = np.einsum(to_register, tensor, arr.reshape(batch + basis.shape[1:] + rest))
        return out.reshape(batch + (self.dim,))

    def _project(self, basis: np.ndarray, arr: np.ndarray) -> np.ndarray:
        """B B^dagger v for each vector v of `arr`: projection onto a lifted
        local branch basis."""
        return self._apply(basis, self._apply(basis, arr, adjoint=True))

    def _dense(self, basis: np.ndarray) -> np.ndarray:
        if self._subscripts is None:
            return basis
        return _lift_columns(basis, self.sites, self.n_qubits)

    @property
    def branches(self) -> tuple[tuple[float, np.ndarray], ...]:
        """Register-wide (eigenvalue, dim x r basis) branches, built on demand."""
        return tuple((ev, self._dense(basis)) for ev, basis in self.local_branches)

    def matrix(self) -> np.ndarray:
        """Hermitian matrix form: the eigenvalue-weighted sum of projectors."""
        return _projector_sum(self.branches)


def _projector_sum(branches) -> np.ndarray:
    """sum of ev B B^dagger over (eigenvalue, basis B) branches: the matrix
    form of an observable on the rows of its bases."""
    dim = branches[0][1].shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for ev, basis in branches:
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
    return _resite(_one_qubit_pauli(key), (site,), n, f"sigma_{key}{site}")


@cache
def _one_qubit_pauli(key: str) -> SpectralObservable:
    """The validated one-qubit Pauli observable of an axis, built on first
    use; every Pauli of that axis shares its read-only bases."""
    return SpectralObservable(branches=_PAULI_EIGENBASES[key])


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


@cache
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


@cache
def _einsum_subscripts(sites: tuple[int, ...], n: int) -> tuple[str, str] | None:
    """Einsum subscripts of the projection kernel for a local basis on
    `sites` of an n-qubit register: (B^dagger arr, B coeff).  None when the
    sites are the whole register in order, so the local bases already are
    the register-wide ones.  Cached: every placement on the same sites of
    the same register asks for the same strings."""
    if sites == tuple(range(1, n + 1)):
        return None
    axes = [chr(ord("a") + q) for q in range(n)]
    local = "".join(axes[s - 1] for s in sites) + "R"
    rest = "R" + "".join(a for q, a in enumerate(axes, start=1) if q not in sites)
    register = "".join(axes)
    return f"{local},...{register}->...{rest}", f"{local},...{rest}->...{register}"


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
    multiplied by 2**(n - len(sites)).  The local bases are copied, not
    lifted: an observable already on sites s lands on sites[s - 1]."""
    sites = [int(s) for s in sites]
    if n > MAX_QUBITS:
        raise CapacityError(f"{n} qubits exceed the {MAX_QUBITS}-qubit maximum")
    if len(sites) != obs.n_qubits:
        raise ValueError(f"observable covers {obs.n_qubits} qubits, got {len(sites)} sites")
    _check_sites(sites, n)
    return _resite(obs, [sites[s - 1] for s in obs.sites], n, obs.name)


def _resite(obs: SpectralObservable, sites, n: int, name: str) -> SpectralObservable:
    """obs on `sites` of an n-qubit register, named `name`, sharing its
    read-only local bases.  They were validated when obs was built, so only
    the sites and the register size are checked."""
    out = object.__new__(SpectralObservable)
    out._place(obs.local_branches, sites, n, name)
    return out


def _acted_qubits(a: np.ndarray, n: int) -> list[int]:
    """The sites of the qubits on which a 2**n x 2**n matrix does not act
    as exactly the identity.

    In the matrix's 2n-axis view, qubit q is an identity factor when the
    (0,1) and (1,0) slices on its row and column axes are exactly zero and
    the (0,0) and (1,1) slices are equal entry by entry: the matrix is then
    I on q tensored with either slice (the partial-trace picture of
    Nielsen & Chuang, Quantum Computation and Quantum Information, 2.4.3).
    No threshold, as in the block split's h != 0: rounding in an identity
    factor keeps the qubit.  Each qubit's test stops at its first failing
    check; a dense matrix fails the first.
    """
    acted = []
    for q in range(n):
        v = a.reshape(2 ** q, 2, 2 ** (n - 1 - q), 2 ** q, 2, 2 ** (n - 1 - q))
        if (v[:, 0, :, :, 1].any() or v[:, 1, :, :, 0].any()
                or not np.array_equal(v[:, 0, :, :, 0], v[:, 1, :, :, 1])):
            acted.append(q + 1)
    return acted


def from_matrix(m, *, name: str = "") -> SpectralObservable:
    """Spectral observable from a Hermitian 2**n x 2**n matrix, on the
    sites of the n-qubit register it acts on.

    The qubits on which the matrix is exactly the identity are dropped
    (`_acted_qubits`), so a dense sigma_z on qubit 3 of 6 comes back on
    sites (3,) and is audited on that qubit alone; a matrix that is the
    identity on no qubit keeps every site.  c I keeps site 1, so that every
    observable of a register acts on a site; a 1 x 1 matrix is a 0-qubit
    observable.  Only the slice on the kept sites goes to the eigensolver.
    Its hermiticity residual equals the whole matrix's, since
    M - M^dagger = (S - S^dagger) (x) I when M = S (x) I.

    A new eigenspace starts wherever two consecutive sorted eigenvalues lie
    more than TOL_CLUSTER apart.  Each branch eigenvalue is its cluster's
    mean, which lies inside the cluster, so adjacent branches pass the
    constructor's check at the same width.  A row count that is not a power
    of two raises DimensionMismatchError.
    """
    a = as_operator(m)
    n = max(len(a).bit_length() - 1, 0)
    sites = list(range(1, n + 1))
    if 2 ** n == len(a):
        sites = _acted_qubits(a, n) or sites[:1]
        index = tuple(slice(None) if q in sites else 0 for q in range(1, n + 1))
        a = a.reshape((2,) * 2 * n)[index + index].reshape(2 ** len(sites), -1)
    decomp = hermitian_eigen(a)
    eigenvalues = decomp.eigenvalues
    branches = []
    start = 0
    for k in range(1, len(eigenvalues) + 1):
        if k == len(eigenvalues) or eigenvalues[k - 1] - eigenvalues[k] > TOL_CLUSTER:
            cluster = eigenvalues[start:k]
            branches.append((float(np.mean(cluster)), decomp.eigenvectors[:, start:k]))
            start = k
    return SpectralObservable(branches=tuple(branches), sites=sites, n_qubits=n, name=name)


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


def _orthonormal_rows(blocks) -> list[np.ndarray]:
    """Orthonormal bases (as rows) of the row spans of `blocks`, empty when
    a span is trivial: the right singular vectors above TOL_RANK, from one
    stacked SVD per block shape."""
    shapes: dict[tuple[int, int], list[int]] = {}
    for i, block in enumerate(blocks):
        shapes.setdefault(block.shape, []).append(i)
    out = [None] * len(blocks)
    for members in shapes.values():
        _, s, vh = np.linalg.svd(np.stack([blocks[i] for i in members]), full_matrices=False)
        # singular values come in descending order, so the kept rows lead
        for i, rank, vhi in zip(members, (s > TOL_RANK).sum(axis=1).tolist(), vh):
            out[i] = vhi[:rank]
    return out


def _split_rows(stack: np.ndarray, sizes) -> list[np.ndarray]:
    """The consecutive runs of `sizes` rows of a stack, as views."""
    return [stack[end - size:end] for size, end in zip(sizes, accumulate(sizes))]


def _on_qubits(obs: SpectralObservable, qubits) -> SpectralObservable:
    """obs on a register of len(qubits) qubits, whose qubit j is register
    site qubits[j - 1]; obs itself when `qubits` is its whole register."""
    if qubits == tuple(range(1, obs.n_qubits + 1)):
        return obs
    local = {s: j for j, s in enumerate(qubits, start=1)}
    return _resite(obs, [local[s] for s in obs.sites], len(qubits), obs.name)


def _reorder_qubits(rows: np.ndarray, source, target) -> np.ndarray:
    """Rows (vectors on the qubits listed in `source`, first qubit most
    significant) with their qubits put in `target` order."""
    if source == target:
        return rows
    w = len(source)
    axes = [0] + [source.index(t) + 1 for t in target]
    return rows.reshape((len(rows),) + (2,) * w).transpose(axes).reshape(rows.shape)


def _matrix_on(obs: SpectralObservable, qubits) -> np.ndarray:
    """The matrix of obs on the register sites `qubits` (ascending, a
    superset of obs.sites), the identity on those obs does not act on."""
    m = _projector_sum(obs.local_branches)
    if obs.sites == qubits:
        return m
    source = obs.sites + tuple(s for s in qubits if s not in obs.sites)
    m = np.kron(m, np.eye(2 ** (len(qubits) - len(obs.sites))))
    # P M P^T: permute the qubits of every row, then of every column
    return _reorder_qubits(_reorder_qubits(m, source, qubits).T, source, qubits).T


def _check_commuting(observables) -> None:
    """Raise NonCommutingError unless every pair commutes to TOL_COMMUTE.

    Each pair whose sites overlap is compared on the union of its sites
    only, since [A (x) I, B (x) I] = [A, B] (x) I; disjoint pairs commute
    exactly."""
    mats = {}
    for i in range(len(observables)):
        for j in range(i + 1, len(observables)):
            a, b = observables[i], observables[j]
            if a.dim != b.dim:
                raise DimensionMismatchError(
                    f"observables have dims {a.dim} and {b.dim}")
            if not set(a.sites) & set(b.sites):
                continue
            union = tuple(sorted(set(a.sites) | set(b.sites)))
            for k in (i, j):
                if (k, union) not in mats:
                    mats[k, union] = _matrix_on(observables[k], union)
            dev = max_abs(commutator(mats[i, union], mats[j, union]))
            if dev > TOL_COMMUTE:
                raise NonCommutingError(
                    f"observables {a.name or i} and {b.name or j} do not commute "
                    f"(max commutator entry {dev:.3e})")


def _components(generators) -> list[list[int]]:
    """The generators' indices grouped by overlapping sites: two generators
    share a group when their sites overlap, directly or through others."""
    groups: list[tuple[set[int], list[int]]] = []
    for i, gen in enumerate(generators):
        sites, members = set(gen.sites), [i]
        for group in [g for g in groups if g[0] & sites]:
            groups.remove(group)
            sites |= group[0]
            members += group[1]
        groups.append((sites, sorted(members)))
    return [members for _, members in groups]


def _refine(generators) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Joint eigenspaces of commuting generators on their whole register,
    refined generator by generator in branch order: (branch index per
    generator, orthonormal rows) for every nonempty space."""
    # The joint eigenspaces of a level are consecutive runs of orthonormal
    # rows in one stack.  A generator refines all of them at once: per
    # branch, one call takes the coefficients of every space, and one lifts
    # their orthonormalized coefficients back onto the register.
    dim = generators[0].dim
    keys, sizes, rows = [()], [dim], np.eye(dim, dtype=complex)
    for gen in generators:
        branches = gen.local_branches
        coeffs = [block for _, branch in branches
                  for block in _split_rows(gen._apply(branch, rows, adjoint=True), sizes)]
        del rows  # one register-sized block less through the SVDs
        kept = _orthonormal_rows(coeffs)
        lifted = []
        for b, (_, branch) in enumerate(branches):
            qs = kept[b * len(sizes):(b + 1) * len(sizes)]
            lifted.append(_split_rows(gen._apply(branch, np.vstack(qs)), [len(q) for q in qs]))
        nodes = [(key + (b,), per_branch[s])
                 for s, key in enumerate(keys)
                 for b, per_branch in enumerate(lifted) if len(per_branch[s])]
        keys = [key for key, _ in nodes]
        sizes = [len(q) for _, q in nodes]
        rows = np.vstack([q for _, q in nodes])
    return list(zip(keys, _split_rows(rows, sizes)))


def _component_spaces(generators, members):
    """(qubits, spaces) of one site-overlap component: the register sites
    its rows act on, in the rows' qubit order, and (branch index per member,
    orthonormal rows) of every nonempty joint eigenspace of its members."""
    if len(members) == 1:
        gen = generators[members[0]]
        return gen.sites, [((b,), basis.T) for b, (_, basis) in enumerate(gen.local_branches)
                           if basis.shape[1]]
    qubits = tuple(sorted(set().union(*(generators[i].sites for i in members))))
    return qubits, _refine([_on_qubits(generators[i], qubits) for i in members])


def _joint_spaces(generators, qubits=None):
    """Every nonempty joint eigenspace of a generator set commuting to
    TOL_COMMUTE, as (outcome tuple, orthonormal rows) on the register sites
    `qubits` (ascending, covering every generator; None for the whole
    register), lexicographic by branch index in generator order.

    The joint eigenspaces factor over the site-overlap components: one
    generator alone has its branches as its spaces, several are refined on
    their own sites, and a joint space is the Kronecker product of one
    space per component with the identity on the qubits no generator
    covers.  The validation is eager; each basis is built when the returned
    iterator reaches it.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    _check_commuting(generators)
    if qubits is None:
        qubits = tuple(range(1, generators[0].n_qubits + 1))
    values = [gen.eigenvalues for gen in generators]

    def outcome(key):
        return tuple(map(tuple.__getitem__, values, key))

    components = _components(generators)
    parts = [_component_spaces(generators, members) for members in components]
    if len(parts) == 1 and parts[0][0] == qubits:
        # one component on all of `qubits`, in order: its rows as they are
        return ((outcome(key), rows) for key, rows in parts[0][1])
    covered = tuple(s for sites, _ in parts for s in sites)
    rest = tuple(s for s in qubits if s not in covered)
    identity = np.eye(2 ** len(rest), dtype=complex)

    def joint_rows(choice):
        rows = identity
        for (_, spaces), c in zip(reversed(parts), reversed(choice)):
            block = spaces[c][1]
            rows = (block[:, None, :, None] * rows[None, :, None, :]).reshape(
                len(block) * len(rows), -1)
        return _reorder_qubits(rows, covered + rest, qubits)

    order = []
    for choice in product(*(range(len(spaces)) for _, spaces in parts)):
        key = [0] * len(generators)
        for members, (_, spaces), c in zip(components, parts, choice):
            for g, b in zip(members, spaces[c][0]):
                key[g] = b
        order.append((tuple(key), choice))
    order.sort()
    return ((outcome(key), joint_rows(choice)) for key, choice in order)


def joint_eigenspaces(generators):
    """Joint eigenspace decomposition of a set commuting to TOL_COMMUTE.

    Returns a list of (outcome tuple, orthonormal basis columns) covering
    every realizable joint outcome, in branch order generator by generator
    (lexicographic by branch index).  Each site-overlap component of the
    generators is decomposed on its own sites; see `_joint_spaces`.
    """
    return [(outcome, rows.T) for outcome, rows in _joint_spaces(generators)]


def is_function_of(f: SpectralObservable, generators) -> FunctionReport:
    """Decide whether f is a function of a commuting generator set.

    f is a function of the set exactly when every joint eigenspace of the
    generators lies inside a single eigenspace of f, so that the joint
    outcome determines f's value.  Decided structurally by eigenspace
    containment (projection residual at most TOL_RANK), not by polynomial
    fitting, on the sites U of f and the generators only: every observable
    acts as X (x) I, so containment holds on the register exactly when it
    holds on U.  The joint outcomes are visited in `joint_eigenspaces`
    order, each basis built when visited, and the first one that fails is
    the witness.
    """
    generators = list(generators)
    for gen in generators:
        if gen.dim != f.dim:
            raise DimensionMismatchError(
                f"generator dim {gen.dim} does not match f dim {f.dim}")
    qubits = tuple(sorted(set(f.sites).union(*(gen.sites for gen in generators))))
    local_f = _on_qubits(f, qubits)
    table: dict[tuple[float, ...], float] = {}
    for outcome, rows in _joint_spaces(generators, qubits):
        value = None
        for ev, branch in local_f.local_branches:
            residual = max_abs(local_f._project(branch, rows) - rows)
            if residual <= TOL_RANK:
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


@cache
def _su2_generators(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The su(2) generators on k qubits as two read-only stacks of
    2**k x 2**k matrices, built on first use of each k: (S_x, S_y, S_z)
    with S_a = 1/2 sum_j sigma_a^(j), and sigma_a^(j) for every local
    qubit j (j-major, then x, y, z).  Every entry is 0, +-1/2 or +-1 (times
    i), so both stacks are exact."""
    sigmas = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    per_site = np.stack([np.kron(np.kron(np.eye(2 ** j), sigma), np.eye(2 ** (k - 1 - j)))
                         for j in range(k) for sigma in sigmas])
    equal = per_site.reshape((k, 3) + per_site.shape[1:]).sum(axis=0) / 2
    equal.setflags(write=False)
    per_site.setflags(write=False)
    return equal, per_site


def invariance_residual(obs: SpectralObservable, pattern: str) -> tuple[float, str]:
    """Largest commutator entry of an observable with the generators of a
    rotation pattern, and the generator that attains it.

    SU(2) is connected, so a matrix commutes with every equal rotation
    u x ... x u exactly when it commutes with the total-spin generators
    S_x, S_y, S_z ("equal"), and with every per-site rotation
    u_1 x ... x u_k exactly when it commutes with sigma_x, sigma_y and
    sigma_z on each site ("per_site"); see Hall, Lie Groups, Lie Algebras,
    and Representations, 2nd ed., chs. 2-4.  The residual is 0 for an
    invariant observable up to rounding; the caller compares it with a
    tolerance.  Both are decided on the observable's own k sites, since
    [X (x) I, A (x) I] = [X, A] (x) I and generators on the other sites
    commute with it.  The witness is named by register site
    ("sigma_z on site 1", "S_x").
    """
    if pattern not in ("equal", "per_site"):
        raise ValueError(f"pattern must be 'equal' or 'per_site', got {pattern!r}")
    m = _projector_sum(obs.local_branches)  # on the k sites; never the register
    equal, per_site = _su2_generators(len(obs.sites))
    gens = equal if pattern == "equal" else per_site
    entries = np.abs(m @ gens - gens @ m).max(axis=(1, 2))
    g = int(np.argmax(entries))
    if pattern == "equal":
        generator = f"S_{'xyz'[g]}"
    else:
        generator = f"sigma_{'xyz'[g % 3]} on site {obs.sites[g // 3]}"
    return float(entries[g]), generator


@dataclass(frozen=True)
class InvarianceReport:
    """Conjugation-invariance audit over one or more rotation trials."""

    invariant: bool
    max_deviation: float
    trials: int
    deviations: tuple[float, ...] = field(repr=False)


def _su2_stack(q: np.ndarray) -> np.ndarray:
    """Haar-uniform SU(2) elements, one per row of Gaussian quaternions.

    Each row is normalized by the square root of its own dot product, a
    stacked matmul of 1x4 by 4x1 that runs the same BLAS `ddot` as
    `np.linalg.norm` of that row (`norm(axis=1)` and einsum sum in another
    order), so a row gives the bits of a single-row draw.
    """
    q = q / np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]
    a, b, c, d = q.T
    u = np.empty((len(q), 2, 2), dtype=complex)
    u[:, 0, 0] = a + 1j * b
    u[:, 0, 1] = c + 1j * d
    u[:, 1, 0] = -c + 1j * d
    u[:, 1, 1] = a - 1j * b
    return u


# Trials per batch in check_invariance: as many as fill this many bytes with
# one 2**n x 2**n complex matrix each (at least one).  This budget keeps peak
# memory at that of the one-trial loop; 2**18 cut 4-5 qubit audits by a
# further ~30% but raised their peak by 0.4 MB.
_INVARIANCE_BATCH_BYTES = 2 ** 16


def _conjugation_deviations(m: np.ndarray, rotations: np.ndarray,
                            work: np.ndarray) -> list[float]:
    """max |v m v^dagger - m| for v = u_1 x ... x u_n of each trial.

    `rotations` holds one row of n 2x2 factors per trial.  The Kronecker
    fold forms `np.kron`'s elementwise products on the whole stack, and the
    stacked matmul runs the GEMM of a single trial on each, so every
    deviation has the bits of the one-trial computation.  `work` holds three
    stacks of m-shaped matrices with room for every trial; the caller reuses
    it across batches, where fresh matrices of 1 MB and up (8 qubits) cost
    page faults on every trial.
    """
    count, n = rotations.shape[:2]
    vm, vh, dev = work[:, :count]
    v = rotations[:, 0]
    for k in range(1, n):
        rows, cols = v.shape[1:]
        v = (v[:, :, None, :, None] * rotations[:, k, None, :, None, :]).reshape(
            count, 2 * rows, 2 * cols)
    np.matmul(v, m, out=vm)
    np.conjugate(v, out=vh)
    np.matmul(vm, vh.transpose(0, 2, 1), out=dev)
    dev -= m
    return np.abs(dev).max(axis=(1, 2)).tolist()


def check_invariance(obs: SpectralObservable, *, pattern: str, trials: int,
                     seed: int) -> InvarianceReport:
    """Audit invariance of an observable under tensor-product rotations.

    pattern "equal" conjugates by u x u x ... x u; pattern "per_site" uses an
    independent rotation on every qubit.  Draws `trials` seeded Haar-random
    rotations, trial by trial and site by site from one stream, and audits
    them in batches against TOL_INVARIANCE.  This measures how far the drawn
    rotations move the observable; `invariance_residual` decides invariance
    under the whole group.
    """
    if pattern not in ("equal", "per_site"):
        raise ValueError(f"pattern must be 'equal' or 'per_site', got {pattern!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = obs.n_qubits
    m = obs.matrix()
    rng = np.random.default_rng(seed)
    draws = 1 if pattern == "equal" else n
    size = min(trials, max(1, _INVARIANCE_BATCH_BYTES // m.nbytes))
    batches = (_su2_stack(rng.standard_normal((min(size, trials - start) * draws, 4)))
               .reshape(-1, draws, 2, 2)
               for start in range(0, trials, size))
    work = np.empty((3, size) + m.shape, dtype=complex)
    deviations = []
    for batch in batches:
        deviations += _conjugation_deviations(
            m, np.broadcast_to(batch, (len(batch), n, 2, 2)), work)
    max_dev = max(deviations)
    return InvarianceReport(invariant=max_dev < TOL_INVARIANCE, max_deviation=max_dev,
                            trials=len(deviations), deviations=tuple(deviations))
