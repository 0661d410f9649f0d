"""Independent oracle for site-local projection.

Observables placed on scrambled, non-ascending and nested sites are checked
against register-wide projectors built here by index arithmetic from
Kronecker-style bit masks, never from the package's own lift.
"""

from pathlib import Path

import numpy as np
import pytest

from spinzero import observables
from spinzero.measurement import (
    ZeroProbabilityError,
    born_distribution,
    collapse,
    joint_distribution,
    sequence_distribution,
)
from spinzero.observables import (
    NonCommutingError,
    SpectralObservable,
    embed,
    from_matrix,
    is_function_of,
    joint_eigenspaces,
    observable_f,
    observable_g,
    pauli,
)
from spinzero.qcore import SIGMA_X, SIGMA_Y, SIGMA_Z, TOL_LABEL, normalize, random_state
from spinzero.scenario import parse_scenario_file
from spinzero.states import basis_ket, total_spin_squared

from helpers import (
    PHI0_EXPECTED,
    PHI1_EXPECTED,
    dense_projector,
    kron_chain,
    per_node_eigenspaces,
    per_node_paths,
    register_is_function_of,
)

REFUTATION_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "refutation.qsc"
_PAULIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def lift(op, sites, n):
    """Register-wide matrix of `op` acting on `sites` (op's qubit j on
    register site sites[j]), identity elsewhere, built entry by entry."""
    dim = 2 ** n
    index = np.arange(dim)
    bit = {s: (index >> (n - s)) & 1 for s in range(1, n + 1)}
    local = sum(bit[s] << (len(sites) - 1 - j) for j, s in enumerate(sites))
    rest_sites = [s for s in range(1, n + 1) if s not in sites]
    rest = sum((bit[s] << j for j, s in enumerate(rest_sites)), np.zeros(dim, dtype=int))
    return op[local[:, None], local[None, :]] * (rest[:, None] == rest[None, :])


def pauli_projectors(axis, site, n):
    eye = np.eye(2)
    return {ev: lift((eye + ev * _PAULIS[axis]) / 2, [site], n) for ev in (1.0, -1.0)}


def f_projectors(sites, n):
    plus = np.outer(PHI1_EXPECTED, PHI1_EXPECTED.conj())
    minus = np.outer(PHI0_EXPECTED, PHI0_EXPECTED.conj())
    local = {1.0: plus, -1.0: minus, 0.0: np.eye(16) - plus - minus}
    return {ev: lift(p, sites, n) for ev, p in local.items()}


def spectral_projectors(m):
    values, vectors = np.linalg.eigh(m)
    out = {}
    for ev in np.unique(np.round(values, 9)):
        v = vectors[:, np.abs(values - ev) < 1e-6]
        out[float(ev)] = v @ v.conj().T
    return out


def oracle_sequence(state, projector_sets):
    paths = {(): state}
    for projectors in projector_sets:
        paths = {key + (ev,): p @ vec for key, vec in paths.items()
                 for ev, p in projectors.items()}
    return {key: float(np.vdot(vec, vec).real) for key, vec in paths.items()}


def assert_measurement_matches(state, obs, projectors):
    dist = born_distribution(state, obs)
    for ev, p in projectors.items():
        expected = float(np.vdot(state, p @ state).real)
        assert abs(dist.probability(ev) - expected) < 1e-12
        if expected > 1e-9:
            record = collapse(state, obs, ev)
            assert np.allclose(record.post_state, p @ state / np.sqrt(expected), atol=1e-12)


@pytest.fixture
def register10():
    return random_state(10, np.random.default_rng(2024))


def test_scrambled_sites_match_kron_oracle(register10):
    f = embed(observable_f(), [7, 4, 8, 10], 10)
    assert f.sites == (7, 4, 8, 10)
    assert_measurement_matches(register10, f, f_projectors([7, 4, 8, 10], 10))


def test_y_paulis_match_kron_oracle(register10):
    for site in (1, 5, 10):
        assert_measurement_matches(register10, pauli("y", site, 10),
                                   pauli_projectors("y", site, 10))


def test_nested_embed_composes_site_maps(register10):
    nested = embed(embed(observable_f(), [2, 4, 1, 3], 6), [9, 3, 5, 1, 8, 10], 10)
    assert nested.sites == (3, 1, 9, 5)
    assert_measurement_matches(register10, nested, f_projectors([3, 1, 9, 5], 10))
    moved = embed(pauli("y", 2, 3), [4, 6, 2], 7)
    assert moved.sites == (6,)
    state = random_state(7, np.random.default_rng(5))
    assert_measurement_matches(state, moved, pauli_projectors("y", 6, 7))


def test_dense_views_match_kron_oracle():
    f = embed(observable_f(), [7, 4, 2, 6], 7)
    for ev, p in f_projectors([7, 4, 2, 6], 7).items():
        assert np.allclose(dense_projector(f, ev), p, atol=1e-12)


def test_mixed_program_with_site_less_observable():
    n = 4
    eye = np.eye(2)
    m = kron_chain(SIGMA_X, SIGMA_X, eye, eye) + 0.5 * kron_chain(eye, eye, SIGMA_Z, SIGMA_Z)
    site_less = from_matrix(m, name="m")
    assert site_less.sites == (1, 2, 3, 4)
    program = [pauli("y", 3, n), site_less, embed(observable_f(), [2, 4, 1, 3], n),
               pauli("x", 1, n)]
    projector_sets = [pauli_projectors("y", 3, n), spectral_projectors(m),
                      f_projectors([2, 4, 1, 3], n), pauli_projectors("x", 1, n)]
    state = random_state(n, np.random.default_rng(11))
    expected = oracle_sequence(state, projector_sets)
    got = sequence_distribution(state, program)
    assert len(got.entries) == len(expected)
    for key, p in expected.items():
        assert abs(got.probability(key) - p) < 1e-12
    for obs, projectors in zip(program, projector_sets):
        assert_measurement_matches(state, obs, projectors)


def test_ten_qubit_program_matches_kron_oracle(register10):
    program = [pauli("y", 9, 10), embed(observable_f(), [7, 4, 8, 10], 10),
               pauli("x", 2, 10), pauli("z", 4, 10)]
    projector_sets = [pauli_projectors("y", 9, 10), f_projectors([7, 4, 8, 10], 10),
                      pauli_projectors("x", 2, 10), pauli_projectors("z", 4, 10)]
    expected = oracle_sequence(register10, projector_sets)
    got = sequence_distribution(register10, program)
    for key, p in expected.items():
        assert abs(got.probability(key) - p) < 1e-12


def test_joint_eigenspaces_match_kron_oracle():
    n = 6
    generators = [embed(observable_f(), [5, 2, 6, 3], n), pauli("y", 1, n), pauli("x", 4, n)]
    oracle = [f_projectors([5, 2, 6, 3], n), pauli_projectors("y", 1, n),
              pauli_projectors("x", 4, n)]
    spaces = joint_eigenspaces(generators)
    assert sum(basis.shape[1] for _, basis in spaces) == 2 ** n
    for outcome, basis in spaces:
        product = np.eye(2 ** n)
        for projectors, ev in zip(oracle, outcome):
            product = product @ projectors[ev]
        assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-10)
        assert np.allclose(basis @ basis.conj().T, product, atol=1e-10)


def test_impossible_outcome_is_exactly_zero():
    scenario = parse_scenario_file(str(REFUTATION_SCENARIO))
    post, sx3 = scenario.states["post"], scenario.observables["sx3"]
    assert born_distribution(post, sx3).probability(-1.0) == 0.0
    with pytest.raises(ZeroProbabilityError):
        collapse(post, sx3, -1.0)


# ---------------------------------------------------------------------------
# the batched tree walks against their per-node references


def sum_of_product_kets(rng, n, terms=3):
    coeffs = (1.0, -2.0, 1j, np.sqrt(3.0), -np.sqrt(5.0) * 1j)
    return normalize(sum(coeffs[rng.integers(len(coeffs))]
                         * basis_ket("".join(rng.choice(list("01+-"), n)))
                         for _ in range(terms)))


def refutation_program():
    scenario = parse_scenario_file(str(REFUTATION_SCENARIO))
    names = ("sz1", "sz2", "sx3", "sx4")
    return scenario.states["post"], [scenario.observables[name] for name in names]


def generated_ten_qubit_program():
    rng = np.random.default_rng(16)
    sites = rng.choice(np.arange(1, 11), 5, replace=False)
    return (sum_of_product_kets(rng, 10),
            [pauli(str(rng.choice(list("xyz"))), int(s), 10) for s in sites])


def ten_qubit_program_with_embedded_f():
    program = [pauli("y", 9, 10), embed(observable_f(), [7, 4, 8, 10], 10),
               pauli("x", 2, 10), pauli("z", 4, 10)]
    return random_state(10, np.random.default_rng(2024)), program


def site_less_program():
    n = 4
    eye = np.eye(2)
    m = kron_chain(SIGMA_X, SIGMA_X, eye, eye) + 0.5 * kron_chain(eye, eye, SIGMA_Z, SIGMA_Z)
    program = [pauli("y", 3, n), from_matrix(m, name="m"), observable_f(), pauli("x", 1, n)]
    return random_state(n, np.random.default_rng(11)), program


def permuted_register_program():
    """Three Paulis, then F and G on sites that permute the whole register:
    the permuted observables project stacks of 8 and 24 rows."""
    n = 4
    program = [pauli("x", 1, n), pauli("y", 3, n), pauli("x", 4, n),
               embed(observable_f(), [2, 1, 3, 4], n), embed(observable_g(), [4, 3, 2, 1], n)]
    return random_state(n, np.random.default_rng(24)), program


@pytest.mark.parametrize("make", [refutation_program, generated_ten_qubit_program,
                                  ten_qubit_program_with_embedded_f, site_less_program,
                                  permuted_register_program])
def test_sequence_distribution_has_the_bits_of_per_node_projection(make):
    state, program = make()
    assert sequence_distribution(state, program).entries == tuple(per_node_paths(state, program))


@pytest.mark.parametrize("sites", [[2, 1, 3, 4], [4, 3, 2, 1], [3, 4, 1, 2]])
def test_a_permuted_register_observable_is_its_in_order_twin(sites):
    """Sites that permute the whole register are applied by BLAS on the
    register in site order: batched rows get the bits of lone vectors, and
    the Born distribution has the bits of F on the state with its qubits
    put in site order."""
    rng = np.random.default_rng(31)
    moved, f = embed(observable_f(), sites, 4), observable_f()
    rows = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
    for _, basis in moved.local_branches:
        coeffs = moved._apply(basis, rows, adjoint=True)
        assert np.array_equal(coeffs, [moved._apply(basis, row, adjoint=True) for row in rows])
        assert np.array_equal(moved._apply(basis, coeffs), [moved._apply(basis, c) for c in coeffs])
        projector = lift(basis @ basis.conj().T, sites, 4)
        assert np.allclose(moved._project(basis, rows), rows @ projector.T, atol=1e-12)
    for row in rows:
        state = row / np.linalg.norm(row)
        twin = state.reshape((2,) * 4).transpose([s - 1 for s in sites]).reshape(-1)
        born = born_distribution(state, moved)
        assert born.entries == born_distribution(twin, f).entries
        sequence = sequence_distribution(state, [moved])
        assert [outcome for outcome, _ in sequence.entries] == [(ev,) for ev, _ in born.entries]
        assert np.allclose([p for _, p in sequence.entries], [p for _, p in born.entries],
                           rtol=0, atol=1e-15)


def spin_component(axis, n):
    """S_a = 1/2 sum_j sigma_a^(j) on n qubits, as a dense matrix."""
    eye = np.eye(2)
    return sum(kron_chain(*[_PAULIS[axis] if j == site else eye for j in range(n)])
               for site in range(n)) / 2


def z_matrices(n):
    """Dense sigma_z on each site of n qubits."""
    eye = np.eye(2)
    return [kron_chain(*[SIGMA_Z if j == site else eye for j in range(n)]) for site in range(n)]


def z_generators(n):
    """sigma_z on each site, from dense matrices: each comes back on its site."""
    return [from_matrix(z) for z in z_matrices(n)]


def perturbed_z_generators(n):
    """sigma_z on each site, from dense matrices with 1e-17 added to one
    entry that flips another qubit: no qubit is an exact identity factor, so
    each keeps the whole register and the set is one component refined
    there."""
    generators = []
    for site, z in enumerate(z_matrices(n)):
        z[0, 1 << (n - 1 - (site + 1) % n)] += 1e-17
        generators.append(from_matrix(z))
    return generators


def test_perturbed_z_generators_keep_the_whole_register():
    for n in (2, 4, 6):
        assert [gen.sites for gen in perturbed_z_generators(n)] == [tuple(range(1, n + 1))] * n
        assert [gen.sites for gen in z_generators(n)] == [(s,) for s in range(1, n + 1)]


def lookup_generators(n):
    return [pauli("z", 1, n), pauli("z", 2, n), pauli("x", 3, n), pauli("x", 4, n)]


def spin_generators(n):
    # S^2 = 3/4 holds no S_z = +-3/2 vector, so refining by S_z drops spaces.
    return [from_matrix(total_spin_squared(n), name="S2"),
            from_matrix(spin_component("z", n), name="Sz")]


@pytest.mark.parametrize("make,n", [(lookup_generators, 4), (lookup_generators, 8),
                                    (z_generators, 4), (z_generators, 5), (z_generators, 6),
                                    (perturbed_z_generators, 4), (perturbed_z_generators, 5),
                                    (spin_generators, 3), (spin_generators, 4)])
def test_joint_eigenspaces_match_per_node_refinement(make, n):
    generators = make(n)
    spaces = joint_eigenspaces(generators)
    reference = per_node_eigenspaces(generators)
    assert [outcome for outcome, _ in spaces] == [outcome for outcome, _ in reference]
    for (_, basis), (_, ref) in zip(spaces, reference):
        assert basis.shape == ref.shape
        assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-10)
        assert np.allclose(basis @ basis.conj().T, ref @ ref.conj().T, atol=1e-10)


def test_refinement_drops_empty_spaces_in_branch_order():
    outcomes = [outcome for outcome, _ in joint_eigenspaces(spin_generators(3))]
    expected = [(3.75, 1.5), (3.75, 0.5), (3.75, -0.5), (3.75, -1.5),
                (0.75, 0.5), (0.75, -0.5)]
    # The labels are from_matrix cluster means, so they match to rounding.
    assert len(outcomes) == len(expected)
    assert np.allclose(outcomes, expected, rtol=0, atol=TOL_LABEL)


# ---------------------------------------------------------------------------
# the site-local function audit against the register-wide one


def lookup_on(sites, n):
    """sigma_z, sigma_z, sigma_x, sigma_x on the four given sites."""
    return [pauli(axis, s, n) for axis, s in zip("zzxx", sites)]


def product_on(factors, sites, n):
    """The product of single-qubit matrices on `sites`, built by from_matrix."""
    return embed(from_matrix(kron_chain(*factors), name="prod"), sites, n)


EYE = np.eye(2)
# (|0-+> + |1+->)/sqrt(2): a reflection through it straddles exactly the
# joint outcomes (+,-,+) and (-,+,+) of z1, x2, z1 x3; the first comes first
# in generator order, the second in the order of the components {2}, {1, 3}
MIXED = (basis_ket("0-+") + basis_ket("1+-")).real / np.sqrt(2)

FUNCTION_AUDITS = {
    # F on sites 1-4 and on scrambled sites, with the lookup generators on
    # F's own sites or on sites 1-4 (then F's sites 5 and 6 are covered by
    # no generator)
    "F, 4 qubits": lambda: (observable_f(), lookup_generators(4)),
    "F scrambled, 4 qubits": lambda: (embed(observable_f(), [3, 1, 4, 2], 4),
                                      lookup_on([3, 1, 4, 2], 4)),
    "F, 8 qubits": lambda: (embed(observable_f(), [1, 2, 3, 4], 8), lookup_generators(8)),
    "F scrambled, 8 qubits": lambda: (embed(observable_f(), [7, 4, 8, 2], 8),
                                      lookup_on([7, 4, 8, 2], 8)),
    "F of itself, scrambled": lambda: (embed(observable_f(), [3, 1, 4, 2], 4),
                                       [embed(observable_f(), [3, 1, 4, 2], 4)]),
    "F on 5,2,6,3 vs sites 1-4, 8 qubits": lambda: (embed(observable_f(), [5, 2, 6, 3], 8),
                                                    lookup_generators(8)),
    # products of the generators' own Paulis: the positive case
    "zz of z1, z2": lambda: (from_matrix(np.kron(SIGMA_Z, SIGMA_Z), name="zz"),
                             [pauli("z", 1, 2), pauli("z", 2, 2)]),
    "z5 x2 of scrambled generators": lambda: (product_on([SIGMA_Z, SIGMA_X], [5, 2], 6),
                                              [pauli("y", 3, 6), pauli("x", 2, 6),
                                               pauli("z", 5, 6)]),
    # components {1, 3} and {2}, interleaved in generator order
    "x2 x3 of z1, x2, z1 x3": lambda: (product_on([SIGMA_X, SIGMA_X], [2, 3], 4),
                                       [pauli("z", 1, 4), pauli("x", 2, 4),
                                        product_on([SIGMA_Z, SIGMA_X], [1, 3], 4)]),
    "y3 of z1, x2, z1 x3": lambda: (pauli("y", 3, 4),
                                    [pauli("z", 1, 4), pauli("x", 2, 4),
                                     product_on([SIGMA_Z, SIGMA_X], [1, 3], 4)]),
    "reflection mixing (+,-,+) and (-,+,+) of z1, x2, z1 x3": lambda: (
        from_matrix(np.eye(8) - 2 * np.outer(MIXED, MIXED), name="reflection"),
        [pauli("z", 1, 3), pauli("x", 2, 3), product_on([SIGMA_Z, SIGMA_X], [1, 3], 3)]),
    "z1 x3 x4 of x3, z1, x4 x3, x2": lambda: (
        product_on([SIGMA_Z, SIGMA_X, SIGMA_X], [1, 3, 4], 5),
        [pauli("x", 3, 5), pauli("z", 1, 5), product_on([SIGMA_X, SIGMA_X], [4, 3], 5),
         pauli("x", 2, 5)]),
    # S^2 and S_z, whose refinement drops empty spaces
    "S^2 of S^2, S_z": lambda: (from_matrix(total_spin_squared(3), name="S2"),
                                spin_generators(3)),
    "z1 of S^2, S_z": lambda: (pauli("z", 1, 3), spin_generators(3)),
    # f on a qubit no generator covers: identity there, or not
    "z1 (x) I5 of z1, x2": lambda: (product_on([SIGMA_Z, EYE], [1, 5], 5),
                                    [pauli("z", 1, 5), pauli("x", 2, 5)]),
    "z1 z5 of z1, x2": lambda: (product_on([SIGMA_Z, SIGMA_Z], [1, 5], 5),
                                [pauli("z", 1, 5), pauli("x", 2, 5)]),
    # generators from dense single-site matrices: one site, one component each
    "S^2 of z generators, 4 qubits": lambda: (from_matrix(total_spin_squared(4), name="S2"),
                                              z_generators(4)),
    "z1 z3 of z generators, 4 qubits": lambda: (
        from_matrix(kron_chain(SIGMA_Z, EYE, SIGMA_Z, EYE), name="z1z3"), z_generators(4)),
    # the same with rounding in their identity factors: one whole-register component
    "S^2 of perturbed z generators, 4 qubits": lambda: (
        from_matrix(total_spin_squared(4), name="S2"), perturbed_z_generators(4)),
    "z1 z3 of perturbed z generators, 4 qubits": lambda: (
        from_matrix(kron_chain(SIGMA_Z, EYE, SIGMA_Z, EYE), name="z1z3"),
        perturbed_z_generators(4)),
}


@pytest.mark.parametrize("name", FUNCTION_AUDITS)
def test_is_function_of_matches_the_register_wide_check(name):
    f, generators = FUNCTION_AUDITS[name]()
    got, want = is_function_of(f, generators), register_is_function_of(f, generators)
    assert (got.is_function, got.witness, got.witness_outcome, got.value_table) == \
        (want.is_function, want.witness, want.witness_outcome, want.value_table)


def test_function_audit_cases_cover_both_verdicts():
    verdicts = {name: is_function_of(*make()).is_function for name, make in FUNCTION_AUDITS.items()}
    assert sum(verdicts.values()) == 9 and len(verdicts) - sum(verdicts.values()) == 11
    assert is_function_of(*FUNCTION_AUDITS["F on 5,2,6,3 vs sites 1-4, 8 qubits"]()
                          ).witness_outcome == (1.0, 1.0, 1.0, 1.0)
    reflection = FUNCTION_AUDITS["reflection mixing (+,-,+) and (-,+,+) of z1, x2, z1 x3"]
    assert is_function_of(*reflection()).witness_outcome == (1.0, -1.0, 1.0)


def test_interleaved_components_keep_the_generator_order():
    generators = [pauli("z", 1, 4), pauli("x", 2, 4), product_on([SIGMA_Z, SIGMA_X], [1, 3], 4)]
    spaces = joint_eigenspaces(generators)
    reference = per_node_eigenspaces(generators)
    assert [outcome for outcome, _ in spaces] == [outcome for outcome, _ in reference]
    for (_, basis), (_, ref) in zip(spaces, reference):
        assert basis.shape == ref.shape
        assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-10)
        assert np.allclose(basis @ basis.conj().T, ref @ ref.conj().T, atol=1e-10)


@pytest.fixture
def no_register_views(monkeypatch):
    """Make every register-wide dense view of an observable raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a register-wide dense view was built")
    monkeypatch.setattr(SpectralObservable, "matrix", refuse)
    monkeypatch.setattr(observables, "_lift_columns", refuse)


def test_ten_qubit_function_audit_stays_on_the_observables_sites(no_register_views):
    report = is_function_of(embed(observable_f(), [1, 2, 3, 4], 10), lookup_generators(10))
    assert not report.is_function
    assert report.witness_outcome == (1.0, 1.0, 1.0, 1.0)


def test_ten_qubit_commuting_check_stays_on_the_pairs_sites(no_register_views):
    f = embed(observable_f(), [1, 2, 3, 4], 10)
    clash = [pauli("z", 1, 10), pauli("x", 1, 10)]
    with pytest.raises(NonCommutingError):
        is_function_of(f, clash)
    with pytest.raises(NonCommutingError):
        joint_eigenspaces(clash)
    with pytest.raises(NonCommutingError):
        joint_distribution(random_state(10, np.random.default_rng(3)), clash)
    # z1 z2 and x2 overlap on site 2 only
    with pytest.raises(NonCommutingError):
        joint_eigenspaces([product_on([SIGMA_Z, SIGMA_Z], [1, 2], 10), pauli("x", 2, 10)])
    # x1 x2 and z1 z2 overlap on two sites and commute
    pair = [product_on([SIGMA_X, SIGMA_X], [1, 2], 10), product_on([SIGMA_Z, SIGMA_Z], [2, 1], 10)]
    assert len(joint_eigenspaces(pair)) == 4
