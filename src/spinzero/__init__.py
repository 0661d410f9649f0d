"""Exact multi-qubit statevector engine with projective-measurement
semantics, a scenario DSL, and a protocol auditor for collective
observables."""

from .qcore import (
    DEFAULT_TOLERANCES,
    MAX_QUBITS,
    CapacityError,
    DimensionMismatchError,
    NonHermitianError,
    NonUnitaryError,
    SpectralDecomposition,
    commutator,
    fidelity,
    hermitian_eigen,
    inner,
    normalize,
    permute_qubits,
    tensor,
)
from .states import (
    SpinZeroBasis,
    basis_ket,
    eta_tilde,
    singlet,
    singlet_on,
    spin_zero_basis,
    total_spin_squared,
)
from .observables import (
    FunctionReport,
    InvarianceReport,
    NonCommutingError,
    SpectralObservable,
    check_invariance,
    embed,
    from_matrix,
    invariance_residual,
    is_function_of,
    joint_eigenspaces,
    observable_f,
    observable_g,
    pauli,
    random_su2,
)
from .measurement import (
    CorrelationReport,
    Distribution,
    MeasurementRecord,
    OutcomeNotInSpectrumError,
    OverlappingSupportError,
    UnnormalizedStateError,
    ZeroProbabilityError,
    born_distribution,
    collapse,
    correlation_check,
    joint_distribution,
    run_sequence,
    sample,
    sequence_distribution,
)
from .scenario import (
    ProtocolReport,
    Scenario,
    ScenarioParseError,
    ScenarioRuntimeError,
    assign_claimed_value,
    check_eta_candidate,
    dirac_audit,
    format_scenario,
    parse_scenario,
    parse_scenario_file,
    run_claimed_protocol,
    run_scenario,
    scenarios_equivalent,
)

__version__ = "0.1.0"
