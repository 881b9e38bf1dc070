"""Contour-integral representation of the derivative series M(z).

The series M(z) = z d/dz of the inverted flow admits an integral over a
small circle around kappa whose kernel is built from the Herglotz transform.
This script finds admissible circles, evaluates both integrand forms in one
pass over each circle, and compares with the truncated series; it then
pushes z outward until no radius among rho0 and its halvings passes the
kernel conditions, which the library surfaces as an explicit error rather
than a silently wrong value.
A wider circle may still pass there, so the error is not an analytic
obstruction.
"""

from jacobiflow import (
    FlowParams,
    NoAdmissibleContourError,
    admissible_contour,
    m_integral_detailed,
    m_series_coeffs,
    m_zero,
    nonvanishing_check,
)

print("=" * 72)
print("1. Admissible circles and the two integrand forms")
print("=" * 72)
params = FlowParams(0.5, 1.0)
series = m_series_coeffs(params, 16)
print(f"{'z':>12} {'radius':>8} {'nodes':>6} {'integral':>24} {'series':>24}")
for z in (0.02, 0.03 + 0.01j, 0.05):
    res = m_integral_detailed(params, z)  # both forms, one pass of doublings
    print(f"{z!s:>12} {res.contour.radius:>8.4f} {res.samples:>6} "
          f"{res.corollary:>24.16g} {series(z):>24.16g}")
    print(f"{'':>12} forms differ by {abs(res.corollary - res.proposition):.2e}; "
          f"min |t K^2 + (2-t)| on the contour: {res.min_kernel_denominator:.3f}")

print()
print("=" * 72)
print("2. The symmetric case has a closed form (no contour needed)")
print("=" * 72)
t, z = 1.0, 0.05
sym_series = m_series_coeffs(FlowParams(0.0, t), 16)
print(f"M(0.05) closed form: {m_zero(t, z):.16g}")
print(f"M(0.05) from series: {sym_series(z):.16g}")

print()
print("=" * 72)
print("3. Kernel checks along a contour")
print("=" * 72)
spec = admissible_contour(params, 0.03)
entry = nonvanishing_check(params, 0.03, spec)
print(entry.format_line())

print()
print("=" * 72)
print("4. A failed search: no radius among rho0 and its halvings passes")
print("=" * 72)
hard = FlowParams(0.9, 0.5)
for z in (0.02, 0.05, 0.1, 0.2):
    try:
        spec = admissible_contour(hard, z)
        print(f"z = {z}: admissible radius {spec.radius:.5f}")
    except NoAdmissibleContourError:
        print(f"z = {z}: no radius among rho0 and its halvings passes (i)-(vi)")
