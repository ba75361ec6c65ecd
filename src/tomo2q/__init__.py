"""Two-qubit state estimation toolkit.

Tomographic measurement models for photon-pair counting, Poisson
maximum-likelihood and minimum-AIC state estimation, Fisher-information
error bounds, and a Monte Carlo simulator for error scaling against
the quantum limit.
"""

from .exceptions import (
    CountsParseError,
    DegenerateModelError,
    InconsistentDirectionError,
    InvariantViolation,
    InversionError,
    TomographyError,
    UnboundedInformationError,
)
from .states import (
    CholeskyModel,
    RANK_NPARAMS,
    bures_distance_sq,
    check_density,
    cholesky_from_density,
    density_from_cholesky,
    density_from_pauli,
    fidelity,
    pauli_basis,
    pauli_coefficients,
)
from .projectors import (
    ProjectorSet,
    check_counts,
    completeness_check,
    inseparable_projector_set,
    linear_tomography,
    local_projector_set,
    mean_counts,
    mean_counts_of_density,
    product_ket,
    projector_set_from_kets,
)
from .estimation import (
    EstimationResult,
    aic,
    log_likelihood,
    maice,
    mle,
)
from .fisher import (
    BoundReport,
    bound_coefficient,
    bures_quadratic_form,
    fisher_analytic,
    fisher_mc,
    sld,
    sld_fisher,
)
from .simulate import (
    BasisComparison,
    SimulationConfig,
    SweepResult,
    TrialRecord,
    compare_bases,
    emit_results,
    preset_state,
    read_counts,
    run_sweep,
    sample_counts,
    tile_estimates,
    true_model,
)

__version__ = "0.1.0"

__all__ = [
    "BasisComparison",
    "BoundReport",
    "CholeskyModel",
    "CountsParseError",
    "DegenerateModelError",
    "EstimationResult",
    "InconsistentDirectionError",
    "InvariantViolation",
    "InversionError",
    "ProjectorSet",
    "RANK_NPARAMS",
    "SimulationConfig",
    "SweepResult",
    "TomographyError",
    "TrialRecord",
    "UnboundedInformationError",
    "aic",
    "bound_coefficient",
    "bures_distance_sq",
    "bures_quadratic_form",
    "check_counts",
    "check_density",
    "cholesky_from_density",
    "compare_bases",
    "completeness_check",
    "density_from_cholesky",
    "density_from_pauli",
    "emit_results",
    "fidelity",
    "fisher_analytic",
    "fisher_mc",
    "inseparable_projector_set",
    "linear_tomography",
    "local_projector_set",
    "log_likelihood",
    "maice",
    "mean_counts",
    "mean_counts_of_density",
    "mle",
    "pauli_basis",
    "pauli_coefficients",
    "preset_state",
    "product_ket",
    "projector_set_from_kets",
    "read_counts",
    "run_sweep",
    "sample_counts",
    "sld",
    "sld_fisher",
    "tile_estimates",
    "true_model",
    "__version__",
]
