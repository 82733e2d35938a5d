"""Quantum speed limits for Lindblad dynamics in Liouville space."""

from .exceptions import (
    DefectiveGeneratorError,
    DimensionError,
    NonUniqueSteadyStateError,
    NumericalConsistencyError,
    QuadratureError,
    ValidationError,
)
from .liouville import (
    NormalizedState,
    devectorize,
    inner,
    liouville_angle,
    normalize_state,
    rehermitize,
    sandwich_superop,
    superop_expectation,
    superop_variance,
    validate_density_matrix,
    vectorize,
)
from .lindblad import (
    KrausSet,
    LindbladSpec,
    LiouvillianParts,
    apply_dissipator,
    build_liouvillian,
    commutator_superop,
    kraus_from_lindblad_step,
    kraus_to_superop,
)
from .serialize import (
    dump_json,
    format_float,
    load_spec,
    matrix_from_json,
    matrix_to_json,
    spec_from_json,
    spec_to_json,
    write_csv,
)
from .evolve import (
    EvolutionTrace,
    build_trace,
    generic_speed,
    kraus_trajectory_speed,
    normalized_rhs,
    projector_rhs,
    propagate_expm,
)
from .qsl import (
    BasisSet,
    QslReport,
    average_speed,
    classical_part,
    complete_basis,
    exact_qsl,
    exact_uncertainty,
    hsnorm_bound,
    mt_bound,
    nonclassical_speed,
    operator_norm,
    opnorm_bound,
    speed,
    speed_decomposition,
    speed_efficiency,
    speed_matrix_form,
    uncertainty_product,
    wootters_length,
)
from .optimal import (
    GeodesicSpec,
    connecting_unitary,
    geodesic_state,
    mixing_schedule,
    optimal_liouvillian,
    physicality_check,
    pure_optimal_liouvillian,
    relative_purity,
)
from .spectral import (
    SpectralData,
    angle_from_modes,
    mode_elimination_search,
    mode_overlaps,
    spectral_decompose,
    speed_from_modes,
    steady_state,
    tqsl_from_modes,
)
from .applications import (
    KrylovData,
    MpembaReport,
    amplitude_damping_closed_forms,
    amplitude_damping_spec,
    coherent_gibbs_state,
    krylov_bound_check,
    krylov_build,
    krylov_complexity,
    krylov_precursor_margins,
    mpemba_report,
    sff,
    sff_bound_check,
    superposition_state,
    tradeoff_check,
)

__version__ = "0.1.0"
