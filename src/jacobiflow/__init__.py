"""Numerical and exact-arithmetic engine for the spectral flow of the free
Jacobi process: Taylor coefficients of the inverted flow, the conformal maps
and Herglotz transforms behind it, and a contour-integral representation of
the derivative series, each cross-checked against an independent oracle.
"""

from .contour import (
    ContourSpec,
    NoAdmissibleContourError,
    QuadratureError,
    admissible_contour,
    circle_quadrature,
    jacobi_gen_check,
    laguerre_gen_check,
    m_integral,
    m_integral_detailed,
    nonvanishing_check,
    pkm_residue,
)
from .flow import (
    FlowParams,
    RationalPoly,
    a_coeff,
    b_coeff,
    binom_transform,
    inv_binom_transform,
    jacobi_moments,
    m_series_coeffs,
    phi_inv_coeffs,
    pnm_poly,
    s_coeff,
    s_series_coeffs,
)
from .gaussian import GaussianRational
from .maps import (
    ConvergenceError,
    DomainError,
    alpha,
    alpha_inv,
    big_phi,
    big_phi_series,
    herglotz_k,
    k_series_coeff,
    m_zero,
    phi,
    phi_series,
    psi,
    r_func,
    v_deformed,
    xi,
    y_func,
)
from .powerseries import (
    NonInvertibleError,
    TruncatedSeries,
    series_compose,
    series_derive,
    series_revert,
    series_sqrt,
)
from .report import VerifyEntry, VerifyReport
from .specfun import binomial, charlier, jacobi_poly, laguerre, pochhammer
from .verify import run_checks

__version__ = "0.1.0"
