"""Numerical and exact-arithmetic engine for the spectral flow of the free
Jacobi process: Taylor coefficients of the inverted flow, the conformal maps
and Herglotz transforms behind it, and a contour-integral representation of
the derivative series, each cross-checked against an independent oracle.

The top level holds the names the demos and the README use, plus the error
types and ``run_checks``; everything else lives in the submodules.
"""

from .contour import (
    NoAdmissibleContourError,
    QuadratureError,
    admissible_contour,
    m_integral,
    m_integral_detailed,
    nonvanishing_check,
)
from .flow import (
    FlowParams,
    a_coeff,
    b_coeff,
    jacobi_moments,
    m_series_coeffs,
    phi_inv_coeffs,
    s_coeff,
)
from .maps import (
    ConvergenceError,
    DomainError,
    alpha,
    alpha_inv,
    big_phi_series,
    herglotz_k,
    k_series_coeff,
    m_zero,
    phi_series,
    psi,
    v_deformed,
    xi,
)
from .powerseries import NonInvertibleError, TruncatedSeries, series_revert
from .verify import run_checks

__version__ = "0.1.0"
