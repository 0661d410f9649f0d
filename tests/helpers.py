"""Shared test fixtures: independent oracles and a random-scenario generator."""

from __future__ import annotations

import math

import numpy as np

# Frozen independent reconstructions of the spin-zero pair, written out from
# the defining singlet pairings by hand so the tests never trust the library
# constructors they are checking.
PHI0_EXPECTED = np.zeros(16, dtype=complex)
PHI0_EXPECTED[0b0101] = 0.5
PHI0_EXPECTED[0b0110] = -0.5
PHI0_EXPECTED[0b1001] = -0.5
PHI0_EXPECTED[0b1010] = 0.5

PHI1_EXPECTED = np.zeros(16, dtype=complex)
PHI1_EXPECTED[0b0011] = 2.0 / math.sqrt(12.0)
PHI1_EXPECTED[0b1100] = 2.0 / math.sqrt(12.0)
for _idx in (0b0101, 0b0110, 0b1001, 0b1010):
    PHI1_EXPECTED[_idx] = -1.0 / math.sqrt(12.0)

_KETS_1Q = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "-": np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
}


def product_ket(chars: str) -> np.ndarray:
    """Direct kron expansion, independent of spinzero.states.basis_ket."""
    vec = np.array([1.0], dtype=complex)
    for ch in chars:
        vec = np.kron(vec, _KETS_1Q[ch])
    return vec


def mixed_ket_for_signs(signs) -> np.ndarray:
    """Outcome eigenstate of (sigma_z1, sigma_z2, sigma_x3, sigma_x4)."""
    chars = []
    for k, s in enumerate(signs):
        if k < 2:
            chars.append("0" if s > 0 else "1")
        else:
            chars.append("+" if s > 0 else "-")
    return product_ket("".join(chars))


def kron_chain(*mats) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def _reference_su2(rng):
    """One rotation drawn the per-trial way: four normals, np.linalg.norm."""
    q = rng.standard_normal(4)
    q = q / np.linalg.norm(q)
    a, b, c, d = q
    return np.array([[a + 1j * b, c + 1j * d],
                     [-c + 1j * d, a - 1j * b]], dtype=complex)


def random_state(n_qubits: int, rng) -> np.ndarray:
    """Haar-random pure state on n qubits."""
    from spinzero.qcore import normalize

    dim = 2 ** n_qubits
    return normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def random_hermitian(dim: int, rng) -> np.ndarray:
    """Random Hermitian matrix built as a + a^dagger."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


def sample_counts(state, program, trials: int, seed: int) -> dict:
    """The counts `spinzero sample` draws: one seeded multinomial draw over
    the exact outcome strings of the program."""
    from spinzero.measurement import _draw_counts, sequence_distribution

    return _draw_counts(sequence_distribution(state, program).entries, trials, seed)


def dense_projector(obs, eigenvalue) -> np.ndarray:
    """B B^dagger for the register-wide basis B of the branch within 1e-12
    of `eigenvalue`, from the dense `branches` view."""
    (basis,) = [b for ev, b in obs.branches if abs(ev - eigenvalue) <= 1e-12]
    return basis @ basis.conj().T


def scenarios_equivalent(a, b) -> bool:
    """The parse/print round-trip check: the same register, every state equal
    to 1e-10, every observable on the same sites with the same eigenvalues
    and local-branch projectors, and the same measure, assert_prob and report
    lines in the same order, compared by their canonical text."""
    if a.n_qubits != b.n_qubits:
        return False
    if set(a.states) != set(b.states) or set(a.observables) != set(b.observables):
        return False
    for name, vec in a.states.items():
        if vec.shape != b.states[name].shape or not np.allclose(vec, b.states[name], atol=1e-10):
            return False
    for name, obs in a.observables.items():
        other = b.observables[name]
        if obs.sites != other.sites or obs.eigenvalues != other.eigenvalues:
            return False
        for (_, p), (_, q) in zip(obs.local_branches, other.local_branches):
            if not np.allclose(p @ p.conj().T, q @ q.conj().T, atol=1e-10):
                return False

    def program(scenario):
        return [st.format() for st in scenario.statements if st.on_register]
    return program(a) == program(b)


# A 400-digit integer: too large to convert to a float.
HUGE_INT = "9" * 400
# 1e308 and 1e200 fit a float; twice the first, or the square of the second, does not.
BIG_308 = "1" + "0" * 308
BIG_200 = "1" + "0" * 200

# Canonical malformed scenario inputs with the line each error sits on.
MALFORMED_INPUTS = [
    ("state x = |02>\n", 1),                      # invalid ket character
    ("state x = (|0> + |1>\n", 1),                # unclosed parenthesis
    ("qubits eight\n", 1),                        # non-integer qubit count
    ("qubits 4\nobs f = sigma w 1\n", 2),         # unknown axis
    ("state x = \n", 1),                          # missing expression
    ("state x = |00> + |0>\n", 1),                # dimension mismatch in a sum
    ("measure f outcomes ++\n", 1),               # program before any state
    ("state x = 1/0 |0>\n", 1),                   # zero denominator
    ("state x = 2 |0>\n", 1),                     # non-unit state, no normalize
    ("frobnicate 12\n", 1),                       # unknown statement
    ("qubits 2\nstate s = |0>\n", 2),              # state narrower than the register
    ("qubits 2\nstate s = |000>\n", 2),            # state wider than the register
    ("state s = |0>\nqubits 2\n", 2),              # register declared after a state
    ("state x = 1/sqrt(0) |0>\n", 1),             # zero square-root denominator
    (f"state x = {HUGE_INT} |0>\n", 1),            # coefficient too large for a float
    (f"state x = sqrt({HUGE_INT}) |0>\n", 1),      # square-root argument too large
    # an assert_prob rational too large for a float
    (f"qubits 1\nstate s = |0>\nobs a = sigma z 1\nassert_prob a + = {HUGE_INT}/3\n", 4),
    # state expressions that overflow a float: at the '+', 'normalize(' and coefficient
    (f"state x = normalize({BIG_308} |0> + {BIG_308} |0>)\n", 1),
    (f"state x = normalize({BIG_200} |0> + {BIG_200} |1>)\n", 1),
    (f"state x = normalize({BIG_200} |0> * {BIG_200} |0>)\n", 1),
    # a finite state whose norm overflows, with no normalize(...) to point at
    (f"state x = {BIG_200} |0> + {BIG_200} |1>\n", 1),
]


# ---------------------------------------------------------------------------
# random well-formed scenarios for the round-trip corpus

_COEFFS = ["1/2", "-1/2", "1/3", "2", "1*sqrt(2)", "1/2*sqrt(3)", "i", "-1", "i/2"]


def _random_ket(rng, n) -> str:
    return "|" + "".join(rng.choice(list("01+-")) for _ in range(n)) + ">"


def _random_unit_expr(rng, n, names, depth=0) -> str:
    """A state expression guaranteed to evaluate to a unit vector."""
    roll = rng.random()
    if depth >= 2 or roll < 0.35:
        choices = [_random_ket(rng, n)]
        if n >= 2:
            choices.append(" * ".join(_random_ket(rng, 1) for _ in range(n))
                           if n <= 3 else _random_ket(rng, n))
        if n == 2:
            choices.append("singlet(1,2)")
        if n == 4:
            choices.extend(["phi0", "phi1", "psi0", "psi1",
                            "singlet(1,3) * singlet(2,4)", "singlet(1,2) * singlet(3,4)"])
        if names and rng.random() < 0.5:
            choices.append(str(rng.choice(names)))
        return str(rng.choice(choices))
    if roll < 0.6:
        left = _random_unit_expr(rng, n, names, depth + 1)
        right = _random_unit_expr(rng, n, names, depth + 1)
        return f"normalize({left} + {right})"
    if roll < 0.8:
        coeff = rng.choice(_COEFFS)
        inner = _random_unit_expr(rng, n, names, depth + 1)
        return f"normalize({coeff} ({inner}))"
    if n >= 2:
        split = int(rng.integers(1, n))
        left = _random_unit_expr(rng, split, [], depth + 1)
        right = _random_unit_expr(rng, n - split, [], depth + 1)
        return f"({left}) * ({right})"
    return _random_ket(rng, n)


def random_scenario_text(rng) -> str:
    """One random scenario, well-formed with overwhelming probability; use
    scenario_corpus for a guaranteed-parseable batch."""
    n = int(rng.integers(1, 5))
    lines = [f"qubits {n}"]
    state_names = []
    for k in range(int(rng.integers(1, 4))):
        name = f"s{k}"
        lines.append(f"state {name} = {_random_unit_expr(rng, n, state_names)}")
        state_names.append(name)
    obs_names = []
    for k in range(int(rng.integers(1, 3))):
        name = f"o{k}"
        axis = rng.choice(["x", "y", "z"])
        site = int(rng.integers(1, n + 1))
        if n == 4 and rng.random() < 0.3:
            lines.append(f"obs {name} = F")
        elif rng.random() < 0.3:
            sites = ",".join(str(i) for i in range(1, n + 1))
            lines.append(f"obs {name} = embed(sigma {axis} {site}; {sites}; {n})")
        else:
            lines.append(f"obs {name} = sigma {axis} {site}")
        obs_names.append(name)
    # The corpus is parsed and printed, not run, so the outcomes need not
    # be possible.
    if rng.random() < 0.6:
        names = [str(rng.choice(obs_names)) for _ in range(int(rng.integers(1, 4)))]
        signs = "".join(rng.choice(["+", "-"]) for _ in names)
        lines.append(f"measure {', '.join(names)} outcomes {signs}")
    if obs_names and rng.random() < 0.7:
        name = rng.choice(obs_names)
        num = int(rng.integers(0, 3))
        den = int(rng.integers(1, 9))
        lines.append(f"assert_prob {name} {rng.choice(['+', '-'])} = {num}/{den}")
    if obs_names and rng.random() < 0.5:
        lines.append(f"report {rng.choice(obs_names)}")
    return "\n".join(lines) + "\n"


def scenario_corpus(rng, count: int) -> list[str]:
    """Well-formed random scenarios; drafts whose sums happen to cancel to
    the zero vector (and so fail normalize) are rejected and redrawn."""
    from spinzero.scenario import ScenarioParseError, parse_scenario

    corpus = []
    while len(corpus) < count:
        text = random_scenario_text(rng)
        try:
            parse_scenario(text)
        except ScenarioParseError:
            continue
        corpus.append(text)
    return corpus


# ---------------------------------------------------------------------------
# per-node references for the engine's two outcome trees: one projection per
# node, the loops the batched walks in spinzero replace


def per_node_paths(state, program):
    """(outcome string, probability) of every path of a sequential program,
    each node projected on its own."""
    paths = [((), np.asarray(state, dtype=complex))]
    for obs in program:
        paths = [(outcome + (ev,), obs._project(basis, vec))
                 for outcome, vec in paths for ev, basis in obs.local_branches]
    return [(outcome, float(np.vdot(vec, vec).real)) for outcome, vec in paths]


def per_node_eigenspaces(generators):
    """Joint eigenspaces refined one (space, branch) node at a time, each
    projected onto the register and orthonormalized by its own SVD."""
    from spinzero.qcore import TOL_RANK

    dim = generators[0].dim
    spaces = [((), np.eye(dim, dtype=complex))]
    for gen in generators:
        refined = []
        for outcome, basis in spaces:
            for ev, branch in gen.local_branches:
                projected = gen._project(branch, basis.T).T
                u, s, _ = np.linalg.svd(projected, full_matrices=False)
                if (s > TOL_RANK).any():
                    refined.append((outcome + (ev,), u[:, s > TOL_RANK]))
        spaces = refined
    return spaces


def register_is_function_of(f, generators):
    """`is_function_of` decided on the whole register: the dense commuting
    check on every pair, joint eigenspaces refined register-wide one node at
    a time, and containment tested against f's branches lifted onto the
    register; the form the site-local check replaces."""
    from spinzero.observables import FunctionReport, NonCommutingError, _format_outcome
    from spinzero.qcore import TOL_COMMUTE, TOL_RANK, DimensionMismatchError, commutator, max_abs

    generators = list(generators)
    for gen in generators:
        if gen.dim != f.dim:
            raise DimensionMismatchError(f"generator dim {gen.dim} does not match f dim {f.dim}")
    if not generators:
        raise ValueError("need at least one generator")
    mats = [gen.matrix() for gen in generators]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if max_abs(commutator(mats[i], mats[j])) > TOL_COMMUTE:
                raise NonCommutingError(f"generators {i} and {j} do not commute")
    table = {}
    for outcome, basis in per_node_eigenspaces(generators):
        value = None
        for ev, branch in f.local_branches:
            residual = max_abs(f._project(branch, basis.T) - basis.T)
            if residual <= TOL_RANK:
                value = ev
                break
        if value is None:
            return FunctionReport(
                is_function=False,
                witness=(f"joint outcome {_format_outcome(outcome)}: its eigenspace is not "
                         f"contained in a single eigenspace of {f.name or 'the observable'}"),
                witness_outcome=outcome)
        table[outcome] = value
    return FunctionReport(is_function=True, value_table=table)


def reach_closure_blocks(h):
    """Connected blocks of the nonzero pattern of h by the dense reach
    closure: repeated squaring of the 0/1 reachability matrix, then one
    block per first unplaced index, ascending."""
    reach = (h != 0) | np.eye(h.shape[0], dtype=bool)
    while True:
        closure = (reach.astype(float) @ reach.astype(float)) > 0
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
