"""fraclat: lattice laboratory for the fractional Schrodinger equation with memory."""

__version__ = "0.1.0"

from .special import MLOverflowError, ml_e, ml_ee, ml_oracle
from .symbol import (
    find_xi0,
    find_xi1,
    normalization_constant,
    phi_eval,
    w_eval,
    w_prime,
    w_second,
)
from .lattice import (
    LatticeField,
    LatticeGrid,
    NormReport,
    discretize,
    filter_pi,
    inject,
    interp_linear,
    interp_multiplier,
    lambda_norm,
    norm_lp,
    norm_maximal,
    norm_smoothing,
    norm_sobolev,
    restrict,
)
from .solver import (
    ModelParams,
    NonContractionError,
    ParameterError,
    SolutionTrajectory,
    TimeGrid,
    prepare_initial,
    solve,
    solve_continuum_reference,
)
from .harness import (
    fit_order,
    gaussian_profile,
    nyquist_packet,
    run_continuum_study,
    run_mass_uniformity,
    run_ml_check,
    run_smoothing_experiment,
    run_symbol_checks,
)

__all__ = [name for name in dir() if not name.startswith("_")]
