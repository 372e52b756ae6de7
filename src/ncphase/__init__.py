"""Exact operator algebra, Fock-space spectra and uncertainty bounds for a
two-dimensional oscillator on a position-dependent noncommutative phase
space."""

__version__ = "0.1.0"

from .algebra import (
    ALPHABETS,
    CANONICAL,
    DEFAULT_POLICY,
    FIRST_ORDER_CROSS_POLICY,
    NONCOMMUTATIVE,
    UNDEFORMED_POLICY,
    AlgebraError,
    AlgebraTable,
    Expression,
    MissingImageError,
    MixedAlphabetError,
    TruncationPolicy,
    commutator,
    formal_adjoint,
    jacobi,
    normal_order,
    powers_of,
    truncate,
)
from .fock import (
    FockBasis,
    LevelRow,
    LevelTable,
    NumericError,
    ParameterPoint,
    Plan,
    analytic_energy,
    build_ladder,
    build_phase_space,
    classify,
    commuting_check,
    compile_plan,
    diagonal_check,
    diagonalize,
    evaluate,
    level_table_csv,
    level_table_json,
    spectra,
    spectrum,
)
from .hamiltonian import (
    build_hamiltonian,
    h_core,
    h_tau,
    h_theta_eta,
    reference_hamiltonian,
)
from .maps import BOPP, named_operator, substitute
from .parsing import ParseError, UnknownSymbolError, parse
from .rationals import GaussianRational
from .symmetry import (
    P_THETA_ETA_T,
    P_THETA_T,
    PT,
    PTVariant,
    apply,
    check_algebra_invariance,
    is_invariant,
)
from .uncertainty import (
    Gaussian,
    MomentError,
    QuadratureError,
    brute_force_min_product,
    delta_y_solutions,
    expectation,
    gaussian_moments,
    min_delta_x,
    min_delta_py,
    rho_inner,
    rho_norm,
    robertson_lower_bound,
    squeezing_bound,
    uncertainty_report,
    verify_rho_hermiticity,
)
