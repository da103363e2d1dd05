"""Dunkl-operator calculus: reflection groups, exact polynomial algebra,
weighted quadrature, spherical h-harmonics, and sharp-constant verification
of weighted Hardy and Rellich type inequalities."""

from .reflection import (
    Root,
    RootSystem,
    SingularPointError,
    build_root_system,
    generate_group,
    reflect,
    reflection_matrix,
    rho,
    weight,
)
from .polyalg import (
    ExactDivisionError,
    Polynomial,
    constant,
    dunkl_apply,
    dunkl_gradient_sym,
    dunkl_laplacian_fast,
    norm_squared,
    variable,
)
from .quad import (
    DivergenceError,
    RadialGrid,
    SphericalRule,
    integrate_measure,
    integrate_radial,
    jitter_off_hyperplanes,
    sphere_rule,
    sphere_weight_integral,
)
from .dunklnum import SmoothFunction, dunkl_gradient, dunkl_laplacian_num
from .harmonics import (
    HHarmonicBasis,
    build_basis,
    eigenvalue,
    expand,
    hharmonic_dim,
    kernel_basis,
    parseval_residual,
)
from .domains import DomainSpec, DistanceData, distance_data
from .profiles import PiecewiseProfile, hardy_p_profile, mollified_power_profile
from .inequalities import (
    FUNCTIONALS,
    ModeFunction,
    OracleMismatchError,
    RayleighSweep,
    VerificationReport,
    hardy_eps_check,
    hardy_remainder_check,
    mode_coefficients,
    mode_quotient,
    oracle_quotient,
    quadrature_quotient,
    sharp_constant,
    sharpness_sweep,
)

__version__ = "0.1.0"
