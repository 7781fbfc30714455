"""Numerical toolkit for measurement-induced freezing of quantum dynamics.

The package covers both routes to the effect: repeated pulsed projections
(:mod:`zenosim.pulsed`) and strong continuous coupling to an apparatus
(:mod:`zenosim.continuous`), their common sector structure
(:mod:`zenosim.operators`), time-dependent sector transport
(:mod:`zenosim.adiabatic`), four bundled model systems
(:mod:`zenosim.models`), and a scenario-file front end
(:mod:`zenosim.scenario`, ``zeno`` command line).
"""

from .adiabatic import (
    TimeDependentBundle,
    TransportReport,
    constant_bundle,
    intertwining_defect,
    propagate_td,
    required_steps,
    rotating_bundle,
)
from .continuous import (
    CoupledHamiltonian,
    PerturbativeExpansion,
    diag_part,
    exact_propagator,
    nonadiabatic_defect,
    perturbative_spectrum,
    zeno_propagator,
    zeno_sectors,
)
from .errors import (
    AmbiguousSpectrumError,
    NumericalError,
    SectorTrackingError,
    StepResolutionError,
    ValidationError,
    ZenoError,
)
from .models import (
    CavityModel,
    ExcitationSectors,
    FourLevelModel,
    cavity,
    coupling_matrix,
    decay_model,
    dfs_extract,
    four_level,
    rotation_generator,
    three_level,
    three_level_survival,
)
from .operators import (
    DensityMatrix,
    Operator,
    Projector,
    Sector,
    SectorDecomposition,
    as_operator,
    basis_projector,
    eig,
    expm,
    load_matrix,
    offblock_norm,
    projector_from_columns,
    save_matrix,
    snorm,
)
from .pulsed import (
    EffectiveRate,
    effective_rate,
    effective_rate_from_amplitude,
    nonselective_evolve,
    nonselective_limit,
    pulsed_limit,
    pulsed_propagator,
    survival_amplitude,
    survival_probability,
    zeno_time,
    zeno_time_fitted,
)

__version__ = "0.1.0"

__all__ = [
    "TimeDependentBundle", "TransportReport", "constant_bundle", "intertwining_defect",
    "propagate_td", "required_steps", "rotating_bundle", "CoupledHamiltonian",
    "PerturbativeExpansion", "diag_part", "exact_propagator", "nonadiabatic_defect",
    "perturbative_spectrum", "zeno_propagator", "zeno_sectors", "AmbiguousSpectrumError",
    "NumericalError", "SectorTrackingError", "StepResolutionError", "ValidationError",
    "ZenoError", "CavityModel", "ExcitationSectors", "FourLevelModel", "cavity",
    "coupling_matrix", "decay_model", "dfs_extract", "four_level", "rotation_generator",
    "three_level", "three_level_survival", "DensityMatrix", "Operator", "Projector", "Sector",
    "SectorDecomposition", "as_operator", "basis_projector", "eig", "expm", "load_matrix",
    "offblock_norm", "projector_from_columns", "save_matrix", "snorm", "EffectiveRate",
    "effective_rate", "effective_rate_from_amplitude", "nonselective_evolve",
    "nonselective_limit", "pulsed_limit", "pulsed_propagator", "survival_amplitude",
    "survival_probability", "zeno_time", "zeno_time_fitted",
]
