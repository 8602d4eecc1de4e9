"""Gaussian kernels on complex vectors, Gram matrices, and RKHS geometry.

This module provides the kernel evaluations used by the kernel LMS filters:
the complex Gaussian kernel, its real-input restriction, and a linear kernel
used as a diagnostic swap-in. It also builds Gram matrices, checks positive
semidefiniteness spectrally, and computes squared RKHS distances between
feature-space images of points.

Every kernel value but the kernel filter's dictionary rows (see below)
comes from one function, ``kernel_matrix(Z, C, spec)``, which writes each
family's formula once. ``eval_complex_gaussian``,
``eval_real_gaussian``, ``kernel_value``, ``kernel_vector`` and ``gram``
validate their arguments and return the scalar, the row or the matrix of a
single ``kernel_matrix`` call. Only ``self_kernel`` keeps closed forms of its
own, because the filters call it on every step and it is O(nu).

``kernel_matrix`` evaluates the Gaussian exponents in the difference form
``sum_i (z_i - conj(c_i))**2``. The kernel filter instead passes
``kernel_vector`` the per-center squares ``c.c`` that its dictionary caches
when a center is admitted, and then gets the row in the expanded form
``z.z - 2 conj(c).z + conj(c).conj(c)`` of ``_factored_row``: one
matrix-vector product over the stored centers plus one ``exp`` per center,
where the difference form builds and reduces an (m, nu) array every step.
The row follows the layout of the centers. A dictionary stores them row by
row up to 2048 centers, and the row then takes an ``einsum`` product and
the complex ``exp``. From center 2049 on the dictionary stores them column
by column, and the row then sums the ``nu`` scaled columns and splits the
complex Gaussian's ``exp`` into a real ``exp`` times ``cos`` and ``sin``.
The column form is cheaper per center at a few thousand centers, about
even at one to two thousand and dearer at a few hundred; the two forms
agree to rounding.
``kernel_matrix`` and its views keep the difference form because the
expanded form rounds differently: exact identities such as
``kappa(x, x) == 1`` for real ``x`` and ``rkhs_distance_sq(z, z) == 0``
hold only to rounding in it. The real family keeps its own real-arithmetic
branch, so its values are not a by-product of the complex formula and the
real-input restriction check compares two independent computations.

Conventions
-----------
The complex Gaussian kernel with width ``sigma`` is

    kappa(z, w) = exp(-sum_i (z_i - conj(w_i))**2 / sigma**2)

where the square is the complex square, not the squared modulus. The kernel
is Hermitian, ``kappa(w, z) == conj(kappa(z, w))``, and its Gram matrices are
positive semidefinite, but the diagonal is not identically one:

    kappa(z, z) = exp(4 * sum_i Im(z_i)**2 / sigma**2) >= 1

with equality only for real ``z``. Code that assumes unit self-kernels
(as holds for the real Gaussian kernel) will be wrong off the real subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

COMPLEX_GAUSSIAN = "complex-gaussian"
REAL_GAUSSIAN = "real-gaussian"
LINEAR = "linear"

_FAMILIES = (COMPLEX_GAUSSIAN, REAL_GAUSSIAN, LINEAR)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus width parameter.

    Parameters
    ----------
    family : str
        One of ``"complex-gaussian"``, ``"real-gaussian"`` or ``"linear"``.
        The linear family ``kappa(z, w) = sum_i z_i * conj(w_i)`` ignores
        ``sigma``; it exists so a kernel filter can be compared against an
        explicit-weight LMS filter operating on the raw input space.
    sigma : float
        Width of the Gaussian families. Must be positive and finite.
    """

    family: str
    sigma: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {_FAMILIES}"
            )
        if not 0 < self.sigma < math.inf:  # also refuses NaN
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")


def complex_gaussian(sigma: float) -> KernelSpec:
    """Shorthand for ``KernelSpec("complex-gaussian", sigma)``."""
    return KernelSpec(COMPLEX_GAUSSIAN, sigma)


def real_gaussian(sigma: float) -> KernelSpec:
    """Shorthand for ``KernelSpec("real-gaussian", sigma)``."""
    return KernelSpec(REAL_GAUSSIAN, sigma)


def linear_kernel() -> KernelSpec:
    """Shorthand for the linear diagnostic kernel."""
    return KernelSpec(LINEAR)


def _as_vector(z) -> np.ndarray:
    v = np.asarray(z, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a 1-D vector with at least one component")
    return v


def _as_pair(z, w):
    zv, wv = _as_vector(z), _as_vector(w)
    if zv.shape != wv.shape:
        raise ValueError(
            f"dimension mismatch: {zv.shape[0]} vs {wv.shape[0]} components"
        )
    return zv, wv


def _require_real(v: np.ndarray, name: str):
    if np.any(v.imag != 0.0):
        raise ValueError(f"{name} must have zero imaginary parts for the real kernel")


def kernel_matrix(Z, C, spec: KernelSpec) -> np.ndarray:
    """Evaluate K[i, j] = kappa(Z[i], C[j]) for every pair of rows.

    This is the only place the kernel formulas are written out in the
    difference form; ``self_kernel`` has closed forms of kappa(z, z) and
    ``_factored_row`` the expanded form the filter uses. The scalar, vector
    and Gram helpers are views of one call.

    Parameters
    ----------
    Z : array_like of complex, shape (n, nu)
        Query points, one per row.
    C : array_like of complex, shape (m, nu)
        Centers, one per row. ``n`` and ``m`` may be zero.
    spec : KernelSpec

    Returns
    -------
    ndarray, shape (n, m)
        Complex dtype for the complex-Gaussian and linear families, float
        for the real family, whose inputs must have zero imaginary parts.
    """
    Zm = np.asarray(Z, dtype=np.complex128)
    Cm = np.asarray(C, dtype=np.complex128)
    if Zm.ndim != 2 or Cm.ndim != 2 or Zm.shape[1] != Cm.shape[1] or Zm.shape[1] == 0:
        raise ValueError(
            "Z and C must be (n, nu) and (m, nu) arrays with nu >= 1, "
            f"got shapes {Zm.shape} and {Cm.shape}"
        )
    # np.add.reduce is np.sum without its Python-level dispatch, which is a
    # measurable share of a filter step at small dictionary sizes
    if spec.family == COMPLEX_GAUSSIAN:
        diff = Zm[:, None] - np.conj(Cm)
        return np.exp(-np.add.reduce(diff * diff, axis=-1) / spec.sigma**2)
    if spec.family == REAL_GAUSSIAN:
        _require_real(Zm, "Z")
        _require_real(Cm, "C")
        d = Zm.real[:, None] - Cm.real
        return np.exp(-np.add.reduce(d * d, axis=-1) / spec.sigma**2)
    return Zm @ np.conj(Cm).T


def _factored_row(
    z: np.ndarray, centers: np.ndarray, squares: np.ndarray, spec: KernelSpec
) -> np.ndarray:
    """Row kappa(z, centers[k]) in the expanded form over cached squares.

    ``z`` is a validated (nu,) complex vector, ``centers`` an (m, nu) complex
    array and ``squares[k] == sum_i centers[k, i]**2``. One matrix-vector
    product ``g = centers @ conj(z)`` (``_product``) serves every family. With
    ``w = conj(z)``, ``conj(kappa) = exp(-(w.w - 2 g + squares) / sigma**2)`` for
    the complex Gaussian, ``kappa = exp(-(x.x - 2 Re g + Re squares) / sigma**2)``
    for the real Gaussian on ``x = Re z``, and ``kappa = conj(g)`` for the linear
    kernel. The result agrees with ``kernel_matrix(z[None], centers, spec)[0]``
    to rounding, and has its dtype.

    The complex Gaussian branch takes ``-2 g`` straight from the product with
    ``-2 w`` (scaling by a power of two is exact, so this is ``-2 * g`` bit for
    bit) and multiplies the exponent by ``-1 / sigma**2``: numpy divides a
    complex array by a real scalar with Smith's algorithm, which computes this
    same reciprocal product at several times the cost. For a finite exponent
    the two differ at most in the sign of an exactly zero real or imaginary
    part, never in a value.

    The arithmetic follows the layout of ``centers``. Row-major centers (a
    dictionary's up to 2048 centers) get the ``einsum`` product and the
    complex ``exp``, the cheapest pair at a few hundred centers. Column-major
    centers (a dictionary's from center 2049 on) get ``nu`` passes over
    contiguous columns and, for the complex Gaussian, the split ``exp`` of
    ``_split_conj_exp``, a pair that is cheaper per center at a few thousand.
    With ``sigma = 5`` the two forms of a row differ by at most 1e-15 relative per
    kernel value (measured: 4.9e-16 on unit-variance inputs, 9.1e-16 on the
    bundled experiment's data, at 1025 to 5000 centers).
    """
    w = np.conj(z)
    columns = centers.strides[0] < centers.strides[1]
    if spec.family == COMPLEX_GAUSSIAN:
        # the (m,) product is the only (m,) array: the exponent and its exp are computed in
        # place in it
        row = _product(centers, -2.0 * w, columns)
        row += np.add.reduce(w * w)
        row += squares
        scale = -1.0 / spec.sigma**2
        if columns and _split_conj_exp(row, scale):
            return row
        row *= scale
        np.exp(row, out=row)
        return np.conjugate(row, out=row)
    g = _product(centers, w, columns)
    if spec.family == LINEAR:
        return np.conjugate(g, out=g)
    x = z.real
    return np.exp((x @ x - 2.0 * g.real + squares.real) / -spec.sigma**2)


def _product(centers: np.ndarray, v: np.ndarray, columns: bool) -> np.ndarray:
    """``centers @ v`` as a fresh (m,) array, computed on the calling thread.

    Row-major centers go through ``einsum``. Not ``centers @ v``: matmul is a
    BLAS GEMV, which OpenBLAS spreads over all cores from about a thousand
    centers on when its thread count is not pinned, nearly doubling the CPU
    time of a step without shortening it. Column-major centers (``columns``)
    are summed as ``nu`` scaled columns, one in-place pass each, which streams
    contiguous memory where ``einsum`` strides across the columns.
    """
    if not columns:
        return np.einsum("ij,j->i", centers, v)
    first, *rest = centers.T
    out = first * v[0]
    scaled = np.empty_like(out)
    for column, factor in zip(rest, v[1:]):
        np.multiply(column, factor, out=scaled)
        out += scaled
    return out


def _split_conj_exp(row: np.ndarray, scale: float) -> bool:
    """Write ``conj(exp(scale * row))`` into ``row`` as ``exp(x) * (cos(y) + i sin(y))``.

    ``x`` is the real part of the exponent and ``y`` its negated imaginary part;
    numpy's real ``exp`` runs in SIMD and the complex one does not. The split
    agrees with the complex ``exp`` to rounding wherever ``x < 700`` and ``y``
    is finite. For a row with any other exponent (an overflowing real part,
    NaN, an infinite imaginary part) it returns False and leaves ``row`` as it
    was, so the caller's complex ``exp`` gives the inf and NaN entries and
    ``inf * 0`` never turns into NaN.
    """
    x = np.multiply(row.real, scale)
    y = np.multiply(row.imag, -scale)
    if not (np.maximum.reduce(x, initial=-math.inf) < 700.0 and math.isfinite(np.add.reduce(y))):
        return False
    np.exp(x, out=x)
    np.multiply(x, np.cos(y), out=row.real)
    np.multiply(x, np.sin(y, out=y), out=row.imag)
    return True


def _pair_value(z, w, spec: KernelSpec):
    """kappa(z, w) as the single entry of a 1 x 1 kernel matrix."""
    zv, wv = _as_pair(z, w)
    if spec.family == REAL_GAUSSIAN:
        _require_real(zv, "x")
        _require_real(wv, "y")
    return kernel_matrix(zv[None], wv[None], spec)[0, 0]


def eval_complex_gaussian(z, w, spec: KernelSpec) -> complex:
    """Evaluate the complex Gaussian kernel kappa(z, w).

    Parameters
    ----------
    z, w : array_like of complex, shape (nu,)
        Input vectors of equal length.
    spec : KernelSpec
        Must have ``family == "complex-gaussian"``.

    Returns
    -------
    complex
        ``exp(-sum_i (z_i - conj(w_i))**2 / sigma**2)``. For real inputs the
        value is real and lies in (0, 1]; for complex inputs the modulus may
        exceed 1.
    """
    if spec.family != COMPLEX_GAUSSIAN:
        raise ValueError(f"spec has family {spec.family!r}, expected {COMPLEX_GAUSSIAN!r}")
    return complex(_pair_value(z, w, spec))


def eval_real_gaussian(x, y, spec: KernelSpec) -> float:
    """Evaluate the real Gaussian kernel on real-valued inputs.

    Inputs may be stored with complex dtype but must have zero imaginary
    parts. The value equals ``exp(-||x - y||**2 / sigma**2)``, which is the
    restriction of the complex Gaussian kernel to the real subspace.
    """
    if spec.family != REAL_GAUSSIAN:
        raise ValueError(f"spec has family {spec.family!r}, expected {REAL_GAUSSIAN!r}")
    return float(_pair_value(x, y, spec))


def kernel_value(z, w, spec: KernelSpec) -> complex:
    """Evaluate kappa(z, w) for any supported family.

    The linear family returns ``sum_i z_i * conj(w_i)``.
    """
    return complex(_pair_value(z, w, spec))


def kernel_vector(z, centers: np.ndarray, spec: KernelSpec, squares=None) -> np.ndarray:
    """Evaluate kappa(z, c) against every row of a center matrix.

    This is the hot-loop primitive of the kernel filters: ``cklms_step`` and
    ``cklms_predict`` make one call per step over the whole dictionary,
    passing the per-center squares the dictionary caches.

    Parameters
    ----------
    z : array_like of complex, shape (nu,)
        Query vector.
    centers : ndarray, shape (m, nu)
        Stored centers, one per row.
    spec : KernelSpec
    squares : ndarray of complex, shape (m,), optional
        ``sum_i centers[k, i]**2`` for every center. When given, the row is
        evaluated in the expanded form of ``_factored_row`` (one
        matrix-vector product plus one ``exp`` per center), which equals the
        difference form to rounding.

    Returns
    -------
    ndarray of complex, shape (m,)
        ``[kappa(z, centers[0]), ..., kappa(z, centers[m-1])]``. Without
        ``squares`` it is bit for bit the single row of
        ``kernel_matrix(z[None, :], centers, spec)``.
    """
    zv = _as_vector(z)
    c = np.asarray(centers, dtype=np.complex128)
    if c.ndim != 2 or c.shape[1] != zv.shape[0]:
        raise ValueError(
            f"centers must have shape (m, {zv.shape[0]}), got {c.shape}"
        )
    if spec.family == REAL_GAUSSIAN:
        _require_real(zv, "z")
        _require_real(c, "centers")
    if squares is None:
        row = kernel_matrix(zv[None], c, spec)[0]
    else:
        sq = np.asarray(squares, dtype=np.complex128)
        if sq.shape != c.shape[:1]:
            raise ValueError(f"squares must have shape ({c.shape[0]},), got {sq.shape}")
        row = _factored_row(zv, c, sq, spec)
    return np.asarray(row, dtype=np.complex128)


def self_kernel(z, spec: KernelSpec) -> float:
    """Evaluate kappa(z, z), which is real for every supported family.

    For the complex Gaussian family this is ``exp(4 * sum Im(z)^2 / sigma^2)``,
    the squared RKHS norm of the feature image of ``z``. It grows without
    bound in the imaginary parts, which is what destabilizes large step sizes
    in the kernel LMS update.
    """
    zv = _as_vector(z)
    if spec.family == COMPLEX_GAUSSIAN:
        return float(np.exp(4.0 * np.add.reduce(zv.imag**2) / spec.sigma**2))
    if spec.family == REAL_GAUSSIAN:
        _require_real(zv, "z")
        return 1.0
    return float(np.add.reduce(zv.real**2 + zv.imag**2))


def gram(points, spec: KernelSpec) -> np.ndarray:
    """Build the N x N Gram matrix K[i, j] = kappa(points[i], points[j]).

    Parameters
    ----------
    points : sequence of array_like, or ndarray of shape (N, nu)
        At least one point; all points must share one dimension.
    spec : KernelSpec

    Returns
    -------
    ndarray, shape (N, N)
        Hermitian matrix with a real diagonal. Complex dtype for the
        complex-Gaussian and linear families, float for the real family.
    """
    p = np.asarray(points, dtype=np.complex128)
    if p.ndim == 1:
        # a flat sequence is read as N scalar points in C^1
        p = p[:, None]
    if p.ndim != 2 or p.shape[0] == 0 or p.shape[1] == 0:
        raise ValueError("points must be a non-empty (N, nu) collection")
    if spec.family == REAL_GAUSSIAN:
        _require_real(p, "points")
    return kernel_matrix(p, p, spec)


def is_positive_semidefinite(K, tol: float = 1e-10) -> bool:
    """Spectral positive-semidefiniteness test for a Hermitian matrix.

    Returns True when the minimum eigenvalue is at least
    ``-tol * (1 + |trace(K)|)``. The tolerance scales with the trace so the
    test stays meaningful for Gram matrices whose diagonal is far from unit.

    Raises
    ------
    ValueError
        If ``K`` is not square or not Hermitian to within 1e-12.
    """
    M = np.asarray(K)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.allclose(M, np.conj(M).T, rtol=1e-12, atol=1e-12):
        raise ValueError("matrix is not Hermitian")
    eigenvalues = np.linalg.eigvalsh(M)
    bound = -tol * (1.0 + abs(float(np.trace(M).real)))
    return bool(eigenvalues.min() >= bound)


def rkhs_distance_sq(z, c, spec: KernelSpec) -> float:
    """Squared RKHS distance between the feature images of z and c.

    Expands ``||phi(z) - phi(c)||^2`` through the reproducing property as

        kappa(z, z) + kappa(c, c) - 2 * Re kappa(c, z)

    and clamps tiny negative rounding results to zero, so callers comparing
    against a novelty threshold never see a spurious negative. The square
    root is left to the caller; the filters compare squared values.
    """
    zv, cv = _as_pair(z, c)
    value = (
        self_kernel(zv, spec)
        + self_kernel(cv, spec)
        - 2.0 * kernel_value(cv, zv, spec).real
    )
    return max(0.0, float(value))
