"""The library's settable knobs: every defaulted parameter of a public
function or class, module by module.  A new knob, or a lost one, fails here
and so shows up in review; thresholds that are not in this table are the
fixed constants of qcore's TOL_* block (README, Tolerances)."""

import importlib
import inspect

MODULES = ("qcore", "states", "observables", "measurement", "scenario", "cli")

EXPECTED = {
    "qcore.as_state": ("require_unit",),
    "qcore.hermitian_eigen": ("max_sweeps",),
    "states.singlet": ("pair_count",),
    "states.singlet_on": ("filler",),
    "observables.FunctionReport": ("value_table", "witness", "witness_outcome"),
    "observables.InvarianceReport": ("deviations",),
    "observables.SpectralObservable": ("sites", "name", "n_qubits", "cluster_tol"),
    "observables.check_invariance": ("rotation", "pattern", "trials", "seed", "tol"),
    "observables.from_matrix": ("cluster_tol", "name"),
    "measurement.born_distribution": ("norm_tol",),
    "measurement.collapse": ("norm_tol", "zero_tol"),
    "measurement.correlation_check": ("corr_tol", "zero_tol"),
    "measurement.run_sequence": ("norm_tol", "zero_tol"),
    "measurement.sequence_distribution": ("norm_tol",),
    "scenario.dirac_audit": ("collective",),
    "scenario.run_claimed_protocol": ("program", "collective", "corr_tol", "zero_tol"),
    "scenario.run_scenario": ("assert_tol", "zero_tol", "norm_tol"),
    "scenario.scenarios_equivalent": ("atol",),
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


def test_defaulted_parameters_are_the_expected_knobs():
    assert _defaulted_parameters() == EXPECTED
