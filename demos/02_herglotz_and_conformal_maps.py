"""The conformal-map layer: disc/cut-plane maps, inversion of the
exponential map, and the deformed Herglotz transform.

K(y) is defined implicitly by xi(K(y)) = y on a Jordan domain of the right
half-plane; it is computed as 1 + delta, with delta walked out from
K(0) = 1 along the ray to y by predictor-corrector continuation, each step
corrected by Newton on delta e^{t delta} / (2 + delta) = y e^{-t}.  The deformed
transform V pushes K through a disc automorphism-like sandwich and stays a
Herglotz function (positive real part) for every asymmetry kappa.
"""

import numpy as np

from jacobiflow import FlowParams, alpha, alpha_inv, herglotz_k, psi, v_deformed, xi

print("=" * 72)
print("1. Riemann map of the cut plane and its inverse")
print("=" * 72)
for z in (-0.5, 0.2 + 0.4j, 0.75):
    image = alpha(z)
    back = alpha_inv(image)
    print(f"alpha({z}) = {image:.12g}   round trip error {abs(back - z):.2e}")

print()
print("=" * 72)
print("2. Inverting the exponential map: xi(K(y)) = y")
print("=" * 72)
t = 1.0
for r in (0.2, 0.5, 0.9):
    ys = r * np.exp(1j * np.linspace(0, 2 * np.pi, 12, endpoint=False))
    K = herglotz_k(t, ys)
    err = np.max(np.abs(xi(t, K) - ys))
    print(f"|y| = {r}: worst inversion residual {err:.2e}, "
          f"min Re K = {np.min(K.real):.4f} (stays in the right half-plane)")
print(f"K(0) = {herglotz_k(t, 0.0)}")

print()
print("=" * 72)
print("3. The deformed transform V keeps positive real part for kappa != 0")
print("=" * 72)
for kappa in (0.0, 0.4, 0.8):
    params = FlowParams(kappa, t)
    zs = 0.9 * np.exp(1j * np.linspace(0, 2 * np.pi, 24, endpoint=False))
    vals = np.array([v_deformed(params, z) for z in zs])
    print(f"kappa = {kappa}: V(0) = {v_deformed(params, 0.0):.12g}, "
          f"min Re V on |z| = 0.9: {np.min(vals.real):.6f}")

print()
print("=" * 72)
print("4. The disc flow psi near the origin")
print("=" * 72)
params = FlowParams(0.3, t)
for z in (0.0, 0.05, 0.1, -0.15):
    print(f"psi({z:>5}) = {psi(params, z):.12g}")
print()
print("At kappa = 0 the chain collapses: psi(z) = xi((1+z)/(1-z)).")
params = FlowParams(0.0, t)
z = 0.1
print(f"psi(0.1) = {psi(params, z):.12g}  vs  "
      f"xi(s(0.1)) = {xi(t, (1 + z) / (1 - z)):.12g}")
