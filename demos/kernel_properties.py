"""Tour of the complex Gaussian kernel and its numerical properties.

Run with ``python3 demos/kernel_properties.py`` after installing the
package. The script evaluates the kernel on hand-picked points, verifies
Hermitian symmetry and Gram positivity on random sets, shows that the
kernel restricted to real inputs collapses to the familiar real Gaussian,
that the real Gaussian reads a complex vector as its stacked real coordinates,
and demonstrates the one property that drives filter stability: the
self-kernel kappa(z, z) equals 1 only on the real subspace and grows
exponentially with the imaginary parts of z.
"""

import numpy as np

from ckaf.kernels import (
    complex_gaussian,
    eval_complex_gaussian,
    eval_real_gaussian,
    gram,
    is_positive_semidefinite,
    real_gaussian,
    rkhs_distance_sq,
    self_kernel,
)

rng = np.random.default_rng(2024)

print("=== Point evaluations ===")
spec = complex_gaussian(2.0)
z = np.array([1.0 + 1.0j, 0.5 - 0.2j])
w = np.array([0.8 - 0.3j, -0.1 + 0.4j])
print(f"kappa(z, w)          = {eval_complex_gaussian(z, w, spec):.6f}")
print(f"kappa(w, z) conjugate = {np.conj(eval_complex_gaussian(w, z, spec)):.6f}")
print("The two values agree: the kernel is Hermitian, not symmetric.")

print()
print("=== Gram matrix positivity ===")
points = 0.5 * (rng.standard_normal((30, 3)) + 1j * rng.standard_normal((30, 3)))
matrix = gram(points, spec)
eigenvalues = np.linalg.eigvalsh(matrix)
print(f"30 random points in C^3, sigma = {spec.sigma}")
print(f"smallest eigenvalue = {eigenvalues[0]:.3e}")
print(f"is_positive_semidefinite -> {is_positive_semidefinite(matrix)}")

print()
print("=== Restriction to real inputs ===")
x = rng.standard_normal(4)
y = rng.standard_normal(4)
complex_value = eval_complex_gaussian(x, y, complex_gaussian(1.5))
real_value = eval_real_gaussian(x, y, real_gaussian(1.5))
print(f"complex kernel on real vectors = {complex_value:.15f}")
print(f"real Gaussian kernel           = {real_value:.15f}")
print(f"relative gap = {abs(complex_value - real_value) / real_value:.2e}")

print()
print("=== The real Gaussian on complex inputs ===")
stacked = np.concatenate([z.real, z.imag]), np.concatenate([w.real, w.imag])
print(f"kappa_R(z, w) on C^2             = {eval_real_gaussian(z, w, real_gaussian(2.0)):.15f}")
print(f"kappa_R on (Re, Im) stacked, R^4 = {eval_real_gaussian(*stacked, real_gaussian(2.0)):.15f}")
print("Twice this kernel is the complexified real kernel; a filter on it at step mu")
print("is the real family at step 2 mu.")

print()
print("=== RKHS geometry ===")
a = np.array([1.0 + 1.0j])
b = np.array([0.0 + 0.0j])
dist_sq = rkhs_distance_sq(a, b, complex_gaussian(2.0))
print(f"||phi(1+i) - phi(0)||^2 at sigma = 2: {dist_sq:.12f}")
print("Novelty sparsification thresholds are expressed in this distance.")

print()
print("=== Self-kernel growth off the real axis ===")
print("kappa(z, z) = exp(4 sum Im(z_i)^2 / sigma^2) for the complex Gaussian:")
for imag in (0.0, 0.5, 1.0, 2.0, 4.0):
    point = np.array([0.3 + imag * 1j])
    for sigma in (2.0, 5.0):
        value = self_kernel(point, complex_gaussian(sigma))
        print(f"  Im(z) = {imag:3.1f}, sigma = {sigma}: kappa(z, z) = {value:10.4f}")
print("A kernel LMS step along kappa(z, .) is scaled by kappa(z, z) >= 1,")
print("so inputs with large imaginary parts amplify the effective step size.")
print("This is why the equalization benchmark at unit step size diverges;")
print("see demos/equalization_benchmark.py for the measured effect.")
