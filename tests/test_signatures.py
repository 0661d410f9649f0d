"""The library's public surface: the names `spinzero` exports, and its
settable knobs, every defaulted parameter of a public function or class,
module by module.  A new name or knob, or a lost one, fails here and so
shows up in review; thresholds that are not in this table are the fixed
constants of qcore's TOL_* block (README, Tolerances)."""

import importlib
import inspect
import types

import spinzero

MODULES = ("qcore", "states", "observables", "measurement", "scenario", "cli")

EXPECTED = {
    "qcore.as_state": ("require_unit",),
    "states.singlet": ("pair_count",),
    "states.singlet_on": ("filler",),
    "observables.FunctionReport": ("value_table", "witness", "witness_outcome"),
    "observables.SpectralObservable": ("sites", "name", "n_qubits"),
    "observables.from_matrix": ("name",),
    "measurement.born_distribution": ("norm_tol",),
    "measurement.collapse": ("norm_tol", "zero_tol"),
    "measurement.correlation_check": ("corr_tol", "zero_tol"),
    "measurement.run_sequence": ("norm_tol", "zero_tol"),
    "measurement.sequence_distribution": ("norm_tol",),
    "scenario.dirac_audit": ("collective",),
    "scenario.run_claimed_protocol": ("program", "collective", "corr_tol", "zero_tol"),
    "scenario.run_scenario": ("assert_tol", "zero_tol", "norm_tol"),
    "cli.main": ("argv",),
}


def _defaulted_parameters() -> dict[str, tuple[str, ...]]:
    found = {}
    for module_name in MODULES:
        module = importlib.import_module(f"spinzero.{module_name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            try:
                parameters = inspect.signature(obj).parameters.values()
            except ValueError:  # an exception class with the builtin constructor
                continue
            defaulted = tuple(p.name for p in parameters if p.default is not p.empty)
            if defaulted:
                found[f"{module_name}.{name}"] = defaulted
    return found


# Exact decisions: no tolerance, seed or trial count to set.
NO_KNOBS = {
    "observables.invariance_residual": ("obs", "pattern"),
}


def test_defaulted_parameters_are_the_expected_knobs():
    assert _defaulted_parameters() == EXPECTED


def test_exact_decisions_take_no_knob():
    for name, parameters in NO_KNOBS.items():
        module_name, _, attr = name.partition(".")
        fn = getattr(importlib.import_module(f"spinzero.{module_name}"), attr)
        signature = inspect.signature(fn).parameters.values()
        assert tuple(p.name for p in signature) == parameters
        assert all(p.default is p.empty for p in signature)


# The package's exports, by the module that defines them.
EXPORTS = {
    # qcore
    "DEFAULT_TOLERANCES", "MAX_QUBITS", "CapacityError", "DimensionMismatchError",
    "NonHermitianError", "SpectralDecomposition", "commutator",
    "fidelity", "hermitian_eigen", "inner", "normalize", "permute_qubits", "tensor",
    # states
    "SpinZeroBasis", "basis_ket", "eta_tilde", "singlet", "singlet_on",
    "spin_zero_basis", "total_spin_squared",
    # observables
    "FunctionReport", "InvarianceReport", "NonCommutingError", "SpectralObservable",
    "check_invariance", "embed", "from_matrix", "invariance_residual", "is_function_of",
    "joint_eigenspaces", "observable_f", "observable_g", "pauli",
    # measurement
    "CorrelationReport", "Distribution", "MeasurementRecord", "OutcomeNotInSpectrumError",
    "OverlappingSupportError", "UnnormalizedStateError", "ZeroProbabilityError",
    "born_distribution", "collapse", "correlation_check", "joint_distribution",
    "run_sequence", "sequence_distribution",
    # scenario
    "ProtocolReport", "Scenario", "ScenarioParseError", "ScenarioRuntimeError",
    "check_eta_candidate", "dirac_audit", "format_scenario",
    "parse_scenario", "parse_scenario_file", "run_claimed_protocol", "run_scenario",
}


def test_exported_names_are_the_expected_surface():
    exported = {name for name, obj in vars(spinzero).items()
                if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert exported == EXPORTS
