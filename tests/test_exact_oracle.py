"""The engine's rotation-invariance residuals, function-audit witness and
point-1 probabilities against exact rational arithmetic
(tests/exact_oracle.py)."""

import json
import math
from fractions import Fraction

import exact_oracle
from spinzero.cli import main
from spinzero.observables import (
    invariance_residual,
    is_function_of,
    observable_f,
    observable_g,
    pauli,
)


def test_spin_zero_pair_is_rational_and_orthonormal():
    phi0, root3_phi1 = exact_oracle.spin_zero_pair()
    assert set(phi0) == {0, Fraction(1, 2), Fraction(-1, 2)}
    assert set(root3_phi1) == {0, 1, Fraction(-1, 2)}
    assert exact_oracle.dot(phi0, phi0) == 1
    assert exact_oracle.dot(root3_phi1, root3_phi1) == 3
    assert exact_oracle.dot(phi0, root3_phi1) == 0


def test_total_spin_squared_spectrum_counts_every_state():
    for n in range(1, 11):
        spectrum = exact_oracle.total_spin_squared_spectrum(n)
        assert sum(count for _, count in spectrum) == 2 ** n
        # tr S^2 = 3 tr S_z^2 = 3 n 2^n / 4: the cross terms of
        # S_z^2 = 1/4 sum_jk sigma_z^(j) sigma_z^(k) are traceless
        assert sum(value * count for value, count in spectrum) == Fraction(3 * n * 2 ** n, 4)
    assert exact_oracle.total_spin_squared_spectrum(4) == [(6, 5), (2, 9), (0, 2)]
    assert exact_oracle.total_spin_squared_spectrum(3) == [(Fraction(15, 4), 4), (Fraction(3, 4), 4)]


def test_engine_f_is_the_rational_f():
    f = exact_oracle.observable_f()
    m = observable_f().matrix()
    assert not m.imag.any()
    # Measured: 0.58 ulp of 1 at worst (1.3e-16).
    worst = max(abs(Fraction(m[r, c].real) - f[r][c])
                for r in range(exact_oracle.DIM) for c in range(exact_oracle.DIM))
    assert worst <= 4 * Fraction(math.ulp(1.0))


def test_f_commutes_exactly_with_total_spin():
    f = exact_oracle.observable_f()
    for axis in "xyz":
        assert exact_oracle.commutator_max_entry(f, exact_oracle.total_spin(axis)) == 0
    # The engine's float: 2.8e-17, an eighth of an ulp of 1, from rounding
    # alone; G is F's matrix on the second party's sites.
    for obs in (observable_f(), observable_g()):
        residual, _ = invariance_residual(obs, "equal")
        assert residual <= 1e-15


def test_largest_per_site_commutator_entry_is_two_thirds():
    f = exact_oracle.observable_f()
    # in the engine's generator order: site by site, then x, y, z
    entries = [((site, axis),
                exact_oracle.commutator_max_entry(f, exact_oracle.pauli_on_site(axis, site)))
               for site in range(1, exact_oracle.QUBITS + 1) for axis in "xyz"]
    largest = max(entry for _, entry in entries)
    assert largest == Fraction(2, 3)
    (site, axis), _ = next(item for item in entries if item[1] == largest)
    for obs in (observable_f(), observable_g()):
        residual, generator = invariance_residual(obs, "per_site")
        assert generator == f"sigma_{axis} on site {site}" == "sigma_z on site 1"
        # Measured error: 1/3 ulp, as 0.6666666666666666 is the double nearest 2/3.
        ulps = abs(Fraction(residual) - largest) / Fraction(math.ulp(2 / 3))
        assert ulps <= 4


def test_point_1_probabilities_on_the_collapsed_state(capsys):
    f = exact_oracle.observable_f()
    assert exact_oracle.matmul(f, exact_oracle.matmul(f, f)) == f
    probabilities = exact_oracle.born_probabilities(f, exact_oracle.collapsed_state())
    assert probabilities == {1: Fraction(1, 12), 0: Fraction(11, 12), -1: 0}
    assert main(["refute", "--format", "json"]) == 0
    stage = json.loads(capsys.readouterr().out)["stages"][1]
    engine = {float(row["outcome"]): row["probability"] for row in stage["distribution"]}
    assert stage["outcomes"] == "++++" and stage["certainty"] == engine[1]
    # Measured: P(F=+1) 0.08333333333333333 and P(F=0) 0.9166666666666666 are
    # the doubles nearest 1/12 and 11/12, and P(F=-1) is exactly 0.
    for value, exact in probabilities.items():
        ulps = abs(Fraction(engine[value]) - exact) / Fraction(math.ulp(float(exact)))
        assert ulps <= 4


def test_point_2_the_all_up_eigenvector_is_not_an_eigenvector_of_f(capsys):
    f = exact_oracle.observable_f()
    v = exact_oracle.collapsed_state()  # |00++>
    assert set(v) == {0, Fraction(1, 2)} and exact_oracle.dot(v, v) == 1
    # v spans the all-up joint eigenspace: each lookup generator fixes it,
    # and four commuting single-site Paulis have one-dimensional joint spaces
    lookup = (("z", 1), ("z", 2), ("x", 3), ("x", 4))
    for axis, site in lookup:
        real, imag = exact_oracle.pauli_on_site(axis, site)
        assert exact_oracle.matvec(real, v) == v and not any(map(any, imag))
    # so F is a function of the generators only if Fv is a multiple of v
    mean_squared, norm_squared = exact_oracle.eigenvector_defect(f, v)
    assert mean_squared == Fraction(1, 144) and norm_squared == Fraction(1, 12)
    assert mean_squared < norm_squared
    # the engine names this outcome, the first in branch order, as its witness
    report = is_function_of(observable_f(), [pauli(axis, site, 4) for axis, site in lookup])
    assert not report.is_function and report.witness_outcome == (1.0, 1.0, 1.0, 1.0)
    assert main(["audit-function", "--format", "json"]) == 0
    audit = json.loads(capsys.readouterr().out)
    assert audit["is_function"] is False and audit["witness"].startswith("joint outcome (+,+,+,+):")
