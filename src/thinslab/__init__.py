"""Spectral thin-slab propagation for first-order one-way wave equations."""

__version__ = "0.1.0"

from .spectral import (
    Field,
    FormatError,
    Grid,
    GridError,
    SpectralField,
    apply_weight,
    forward,
    inverse,
    read_field,
    sobolev_norm,
    wave_packet,
    write_field,
)
from .symbols import (
    SymbolSpec,
    available_symbols,
    averaged_symbol,
    check_PL,
    check_QL_family,
    estimate_seminorm,
    eval_symbol,
    get_symbol,
    smoothed_abs,
)
from .propagator import (
    Averaged,
    ContractViolation,
    Frozen,
    PropagatorMatrix,
    SlabSpec,
    apply_slab,
    apply_symbol_operator,
    assemble_matrix,
    exact_multiplier_evolution,
    operator_norm_hs,
    semigroup_defect,
)
from .ansatz import (
    ConvergenceReport,
    ExactMultiplier,
    FineStep,
    Subdivision,
    apply_ansatz,
    convergence_study,
    reference_solution,
    residual_norm,
    uniform_bound_check,
)
from .oneway import (
    AcousticMedium,
    ApertureConfig,
    BandLimitError,
    build_bplus,
    build_damping,
    downward_continue,
    energy_partition,
    homogeneous_medium,
    lens_medium,
    oneway_symbol_spec,
)

__all__ = [name for name in dir() if not name.startswith("_")]
