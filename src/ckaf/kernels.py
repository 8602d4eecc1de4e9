"""Gaussian kernels on complex vectors, Gram matrices, and RKHS geometry.

This module provides the kernel evaluations used by the kernel LMS filters:
the complex Gaussian kernel, the real Gaussian kernel on C^nu read as
R^(2 nu), and a linear kernel used as a diagnostic swap-in. It also builds
Gram matrices, checks positive semidefiniteness spectrally, and computes
squared RKHS distances between feature-space images of points.

Every kernel value but the kernel filter's dictionary rows (see below)
comes from one function, ``_difference_form``, the body of
``kernel_matrix(Z, C, spec)``, which writes each family's formula once.
``eval_complex_gaussian``, ``eval_real_gaussian``, ``kernel_vector``,
``gram`` and ``rkhs_distance_sq`` validate each argument once and return
the scalar, the row or the matrix of a single call of it.
Only ``self_kernel`` keeps closed forms of its own, because the filters call
it on every step and it is O(nu).

Caller data becomes complex samples in one place, ``_complex_array``: bool,
integer, float and complex numbers are converted, and strings, bytes, None
and object arrays raise TypeError naming the argument. Shapes have three
rules, each written once here and used by every module: one vector
(``_as_vector``: 1-D with at least one component), one pair of vectors of
equal length (``_as_pair``) and one pair of ``(n, nu)`` and ``(m, nu)`` row
arrays with ``nu >= 1`` (``_as_rows``). Every shape error is a ValueError
that names the argument, and a length mismatch names both.

The settings rules of every module's config types are written here once,
beside ``KernelSpec``: ``_one_of`` for a named choice, ``_require_int`` for
an integer, ``_positive_finite`` and ``_nonnegative_finite`` for a range,
and ``_hold_python_numbers``, which each type calls first so that a numpy
scalar setting is held as the Python number it holds.

``kernel_matrix`` evaluates the Gaussian exponents in the difference form
``sum_i (z_i - conj(c_i))**2``. The kernel filter instead passes
``kernel_vector`` the per-center squares ``c.c`` that its dictionary caches
when a center is admitted, and then gets the row in the expanded form
``z.z - 2 conj(c).z + conj(c).conj(c)`` of ``_factored_row``: one
matrix-vector product over the stored centers plus one ``exp`` per center,
where the difference form builds and reduces an (m, nu) array every step.
The dictionary stores its centers row by row, and the row's number of
centers picks its form. A row of fewer than ``_GEMV_ROWS`` (900) centers
takes the product as complex GEMV, ``centers @ v``, and the complex ``exp``.
A larger row takes the product as one real GEMM on the float64 view of the
centers and writes the complex Gaussian's ``exp`` in the half-angle tangent
form: a real ``exp`` of the exponent's real part and one ``tan`` of half its
imaginary part, both of which numpy runs in SIMD, where the complex ``exp``
(like ``cos`` and ``sin``) calls scalar libm per element. The switch sits at
the measured speed crossover of the two forms at 6 components. The GEMV is
one call below ``_GEMV_ENTRIES`` (4096) entries ``m * nu`` and calls of
fewer entries each from there on (``_split_gemv``), because with its thread
count unpinned OpenBLAS runs a zgemv of 4096 entries or more on a second
thread, which makes the call slower and burns a second core. The two forms
agree to rounding. The products' last bits come from the BLAS library and
the kernel it dispatches to, and the SIMD ``exp`` and ``tan`` from numpy's
dispatch target, so byte-identical rows need the same numpy build, BLAS and
CPU features.
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

The real Gaussian kernel reads each complex vector as its stacked real
coordinates ``(Re z, Im z)``:

    kappa_R(z, w) = exp(-sum_i |z_i - w_i|**2 / sigma**2)

It is real, symmetric, 1 on the diagonal, and the complex Gaussian's
restriction to real inputs. ``2 * kappa_R`` is the kernel of the
complexified real RKHS (Bouboulis and Theodoridis, IEEE TSP 2011), so a
kernel filter on that kernel at step ``mu`` and novelty distance ``delta1``
is this family at ``2 * mu`` and ``delta1 / sqrt(2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

COMPLEX_GAUSSIAN = "complex-gaussian"
REAL_GAUSSIAN = "real-gaussian"
LINEAR = "linear"

_FAMILIES = (COMPLEX_GAUSSIAN, REAL_GAUSSIAN, LINEAR)
_COMPLEX = np.dtype(np.complex128)  # native complex128 arrays carry this very instance
_ONE_I = np.array([1.0, 1j])  # v times it is (v, i v): the two GEMM columns of a row product
# rows of fewer centers take the complex GEMV and the complex exp; larger rows take one real
# GEMM and the tangent-form exp (see ``_factored_row``)
_GEMV_ROWS = 900
# each GEMV call takes fewer entries (centers times components), so OpenBLAS keeps it on the
# calling thread
_GEMV_ENTRIES = 4096


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus width parameter.

    Parameters
    ----------
    family : str
        One of ``"complex-gaussian"``, ``"real-gaussian"`` or ``"linear"``.
        The real family is the real Gaussian kernel on the stacked real
        coordinates ``(Re z, Im z)`` and takes complex inputs like the
        others. The linear family ``kappa(z, w) = sum_i z_i * conj(w_i)``
        ignores ``sigma``; it exists so a kernel filter can be compared
        against an explicit-weight LMS filter operating on the raw input
        space.
    sigma : float
        Width of the Gaussian families. Must be positive and finite, and its
        square a normal, finite double: at least 2**-511 and below 2**512.
    """

    family: str
    sigma: float = 1.0

    def __post_init__(self):
        _hold_python_numbers(self)
        _one_of(self.family, _FAMILIES, "kernel family")
        _positive_finite(self.sigma, "sigma")  # an infinite width makes every kernel value 1
        # the kernels divide by sigma**2, which overflows from 2**512 on and is subnormal below
        # 2**-511, so that its reciprocal overflows and, further down, the square is 0
        if not 2.0**-511 <= self.sigma < 2.0**512:
            raise ValueError(f"sigma must be at least 2**-511 and below 2**512, got {self.sigma}")


def complex_gaussian(sigma: float) -> KernelSpec:
    """Shorthand for ``KernelSpec("complex-gaussian", sigma)``."""
    return KernelSpec(COMPLEX_GAUSSIAN, sigma)


def real_gaussian(sigma: float) -> KernelSpec:
    """Shorthand for ``KernelSpec("real-gaussian", sigma)``."""
    return KernelSpec(REAL_GAUSSIAN, sigma)


def linear_kernel() -> KernelSpec:
    """Shorthand for the linear diagnostic kernel."""
    return KernelSpec(LINEAR)


def _complex_array(x, name: str) -> np.ndarray:
    """``x`` as a complex128 array; the one place caller data becomes complex samples.

    An ndarray that already has the dtype is returned as it is, neither copied
    nor converted. Anything numpy reads as bool, integer, float or complex
    numbers is converted. Strings, bytes, None and object arrays are not
    sample data and raise TypeError naming ``name``: ``np.asarray(x,
    complex128)`` would parse the strings and bytes and turn None into NaN.
    Shape rules are left to the callers.
    """
    a = x if type(x) is np.ndarray else np.asarray(x)
    if a.dtype is _COMPLEX:
        return a
    if a.dtype.kind not in "biufc":
        raise TypeError(f"{name} must be numeric, got dtype {a.dtype}")
    return a.astype(_COMPLEX, copy=False)


def _complex_scalar(x, name: str) -> complex:
    """``x`` as a Python complex, under the rules of ``_complex_array`` plus 0-d shape."""
    if isinstance(x, complex):  # Python complex and np.complex128, a subclass of it
        return complex(x)
    v = _complex_array(x, name)
    if v.ndim != 0:
        raise TypeError(f"{name} must be a scalar, got shape {v.shape}")
    return v.item()


def _hold_python_numbers(settings) -> None:
    """Replace each numpy scalar field of dataclass ``settings`` by the Python number it holds.

    Every settings type calls this first in ``__post_init__``, so a setting
    given as ``np.int64(2)`` or ``np.float32(0.5)`` is checked, computed with
    and written to JSON as the ``int`` or ``float`` of the same value.
    ``object.__setattr__`` writes frozen dataclasses too. The fields are read
    one by one, never through ``vars``: that would turn the instance's inline
    attribute values into a dict, and make every later attribute read of the
    settings, such as the kernel filter's per-step ``config.mu``, about three
    times slower.
    """
    for name in settings.__dataclass_fields__:
        value = getattr(settings, name)
        if isinstance(value, np.generic):
            object.__setattr__(settings, name, value.item())


def _one_of(value, choices: tuple, name: str) -> None:
    """Refuse ``value`` unless it is one of the named ``choices``."""
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}; expected one of {choices}")


def _require_int(value, name: str, minimum=None) -> None:
    """Refuse ``value`` unless it is an int, never a bool, and at least ``minimum`` if given.

    A bool would embed silently as 0 or 1, and a float fails only later,
    inside numpy, with an error that names no setting. A numpy integer has
    become an int in ``_hold_python_numbers`` before this check. A wrong type
    is a TypeError, a value below ``minimum`` a ValueError.
    """
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be " + (f"at least {minimum}" if minimum else "nonnegative"))


def _positive_finite(value, name: str) -> None:
    """Refuse ``value`` unless ``0 < value < inf``; NaN fails the comparison and is refused too."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _nonnegative_finite(value, name: str) -> None:
    """Refuse ``value`` unless ``0 <= value < inf``; NaN fails the comparison and is refused too."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def _as_vector(z, name: str) -> np.ndarray:
    """``z`` as a complex 1-D vector with at least one component: the one vector rule."""
    v = _complex_array(z, name)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(
            f"{name} must be a 1-D vector with at least one component, got shape {v.shape}"
        )
    return v


def _as_pair(z, w, names=("z", "w")):
    """Two vectors of one length: the one pair rule."""
    return _matched(_as_vector(z, names[0]), _as_vector(w, names[1]), names)


def _as_rows(Z, C, names=("Z", "C")):
    """(n, nu) and (m, nu) complex arrays with nu >= 1: the one row-pair rule; n and m may be 0."""
    pair = _complex_array(Z, names[0]), _complex_array(C, names[1])
    for a, name in zip(pair, names):
        if a.ndim != 2 or a.shape[1] == 0:
            raise ValueError(f"{name} must be an (n, nu) array with nu >= 1, got shape {a.shape}")
    return _matched(*pair, names)


def _matched(a: np.ndarray, b: np.ndarray, names):
    """Refuse ``a`` and ``b`` unless their last axes agree."""
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {a.shape[-1]} components in {names[0]}, "
            f"{b.shape[-1]} in {names[1]}"
        )
    return a, b


def kernel_matrix(Z, C, spec: KernelSpec) -> np.ndarray:
    """Evaluate K[i, j] = kappa(Z[i], C[j]) for every pair of rows.

    This is the only place the kernel formulas are written out in the
    difference form; ``self_kernel`` has closed forms of kappa(z, z) and
    ``_factored_row`` the expanded form the filter uses. The scalar, vector
    and Gram helpers validate their arguments and share its body.

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
        for the real family.
    """
    return _difference_form(*_as_rows(Z, C), spec)


def _difference_form(Zm: np.ndarray, Cm: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """The body of ``kernel_matrix`` on validated (n, nu) and (m, nu) complex arrays."""
    # np.add.reduce is np.sum without its Python-level dispatch; the filter step does not come
    # here, it takes the kernel row from kernel_vector's expanded form
    if spec.family == COMPLEX_GAUSSIAN:
        diff = Zm[:, None] - np.conj(Cm)
        return np.exp(-np.add.reduce(diff * diff, axis=-1) / spec.sigma**2)
    if spec.family == REAL_GAUSSIAN:
        d = Zm[:, None] - Cm
        return np.exp(-np.add.reduce(d.real * d.real + d.imag * d.imag, axis=-1) / spec.sigma**2)
    return Zm @ np.conj(Cm).T


def _factored_row(
    z: np.ndarray, centers: np.ndarray, squares: np.ndarray, spec: KernelSpec
) -> np.ndarray:
    """Row kappa(z, centers[k]) in the expanded form over cached squares.

    ``z`` is a validated (nu,) complex vector, ``centers`` an (m, nu) complex
    array and ``squares[k] == sum_i centers[k, i]**2``. One matrix-vector
    product ``g = centers @ conj(z)`` serves every family. With ``w =
    conj(z)``, ``conj(kappa) = exp(-(w.w - 2 g + squares) / sigma**2)`` for
    the complex Gaussian, ``kappa = exp(-(|z|^2 - 2 Re g + |c|^2) / sigma**2)``
    for the real Gaussian, with ``|c|^2 = Re squares + 2 sum_i Im(c_i)**2``, and
    ``kappa = conj(g)`` for the linear kernel. On real data every imaginary
    term the real Gaussian adds is ``+0.0``, so there its row is bit for bit
    that of real arithmetic on the real parts. The result agrees with
    ``kernel_matrix(z[None], centers, spec)[0]`` to rounding, and has its
    dtype.

    The complex Gaussian branch takes ``-2 g`` straight from the product with
    ``-2 w`` (scaling by a power of two is exact, so this is ``-2 * g`` bit for
    bit) and multiplies the exponent by ``-1 / sigma**2``: numpy divides a
    complex array by a real scalar with Smith's algorithm, which computes this
    same reciprocal product at several times the cost. For a finite exponent
    the two differ at most in the sign of an exactly zero real or imaginary
    part, never in a value.

    The number of centers picks one of two forms. A row of fewer than
    ``_GEMV_ROWS`` centers takes the product as complex GEMV, ``centers @ v``,
    and the complex ``exp``. A larger row takes the product as one real GEMM,
    ``(m, 2 nu) @ (2 nu, 2)``, on the float64 view of the row-major centers,
    whose two output columns are the real and imaginary parts of ``g``; for
    the complex Gaussian it then writes the ``exp`` in the tangent form of
    ``_split_conj_exp``. Centers that are not C-contiguous (Fortran-ordered
    ones, or a strided slice) are copied first in the large form, since a
    Fortran-ordered array has no float64 view; a dictionary's centers are
    C-contiguous and are never copied. With ``sigma = 5`` both forms agree
    with ``kernel_matrix`` to at most 6e-15 relative per kernel value (see the
    README for the measured figures).

    ``_GEMV_ROWS`` sits at the speed crossover: with one BLAS thread, on the
    stream data of the benchmark at 6 components, the GEMV form is the cheaper
    one up to about 900 centers. The GEMV counts entries because BLAS
    threading does. With its thread count unpinned, OpenBLAS 0.3.31 runs
    zgemv on one thread below 4096 entries and on two from there on, where
    the call is slower and its worker burns a second core (at nu 5, a median
    6.5 us per call at 819 centers against 8.6 us at 820, and up to 54 us in
    a slow round). So a row of ``_GEMV_ENTRIES`` entries or more takes its
    GEMV in pieces of fewer entries (``_split_gemv``), to the same bits. The
    GEMM stays on the calling thread unless ``m * nu`` is several hundred
    thousand.
    """
    w = np.conj(z)
    # the complex Gaussian takes -2 g straight from the product with -2 w
    v = -2.0 * w if spec.family == COMPLEX_GAUSSIAN else w
    small = centers.shape[0] < _GEMV_ROWS
    # the (m,) product is the only (m,) array: the exponent and its exp are computed in place
    # in it
    if small:
        row = centers @ v if centers.size < _GEMV_ENTRIES else _split_gemv(centers, v)
    else:
        pair = np.multiply.outer(v, _ONE_I).view(np.float64).reshape(2 * v.shape[0], 2)
        row = (np.ascontiguousarray(centers).view(np.float64) @ pair).view(_COMPLEX)[:, 0]
    if spec.family == LINEAR:
        return np.conjugate(row, out=row)
    if spec.family == REAL_GAUSSIAN:
        y = centers.imag  # |c|^2 = Re(c.c) + 2 |Im c|^2; the Im terms are +0.0 on real data
        c_sq = squares.real + 2.0 * np.add.reduce(y * y, axis=1)
        return np.exp((z.real @ z.real + z.imag @ z.imag - 2.0 * row.real + c_sq) / -spec.sigma**2)
    row += np.add.reduce(w * w)
    row += squares
    scale = -1.0 / spec.sigma**2
    if not small and _split_conj_exp(row, scale):
        return row
    row *= scale
    np.exp(row, out=row)
    return np.conjugate(row, out=row)


def _split_gemv(centers: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``centers @ v`` as complex GEMV calls of fewer than ``_GEMV_ENTRIES`` entries each.

    The rows go in pieces of ``q = (_GEMV_ENTRIES - 1) // nu`` (at least two),
    one ``np.dot`` call each (about 0.4 us cheaper per call than the ``matmul``
    ufunc, the same zgemv), written into one (m,) array. numpy computes a
    piece of one row as a dot product, which rounds differently from the GEMV,
    so a last piece of one row starts a row earlier and computes that row again
    to the same bits. Each entry is then the GEMV's of its own row, and on
    OpenBLAS 0.3.31 the result is the single ``centers @ v`` bit for bit.
    """
    m, nu = centers.shape
    q = max(2, (_GEMV_ENTRIES - 1) // nu)
    row = np.empty(m, _COMPLEX)
    for i in range(0, m, q):
        i = min(i, m - 2)
        np.dot(centers[i : i + q], v, row[i : i + q])
    return row


def _split_conj_exp(row: np.ndarray, scale: float) -> bool:
    """Write ``conj(exp(scale * row))`` into ``row`` in the half-angle tangent form.

    With ``x`` the real part of the exponent, ``y`` its negated imaginary part
    and ``t = tan(y / 2)``, the value ``exp(x) * (cos(y) + i sin(y))`` is
    ``r (1 - t**2) + 2i r t`` with ``r = exp(x) / (1 + t**2)``. numpy runs the
    real ``exp`` and ``tan`` in SIMD; its complex ``exp``, ``cos`` and ``sin``
    call scalar libm per element at several times the cost. ``t`` is finite
    for every finite ``y``: no double lies close enough to an odd multiple of
    pi for ``tan`` to overflow, and ``t**2`` stays below 1e40. The form agrees
    with the complex ``exp`` to rounding, relative to the kernel value's
    modulus, wherever ``x < 700``, ``y`` is finite and ``r`` is not subnormal
    (a modulus ``exp(x)`` above about 1e-270).

    For a row with any other exponent (an overflowing real part, NaN, an
    infinite imaginary part) it returns False and leaves ``row`` as it was, so
    the caller's complex ``exp`` gives the inf and NaN entries and ``inf * 0``
    never turns into NaN.
    """
    x = np.multiply(row.real, scale)
    # the half angle y / 2 in one product: -0.5 * scale is exact, so this is (row.imag *
    # -scale) * 0.5 bit for bit unless that half is subnormal
    half_y = np.multiply(row.imag, -0.5 * scale)
    if not (np.maximum.reduce(x, initial=-math.inf) < 700.0 and math.isfinite(np.add.reduce(half_y))):
        return False
    np.exp(x, out=x)
    t = np.tan(half_y, out=half_y)
    t_sq = np.multiply(t, t)
    r = np.divide(x, t_sq + 1.0, out=x)
    np.multiply(r, np.subtract(1.0, t_sq, out=t_sq), out=row.real)
    rt = np.multiply(r, t, out=t)
    np.add(rt, rt, out=row.imag)
    return True


def _pair_value(z, w, spec: KernelSpec, family: str, names=("z", "w")):
    """kappa(z, w) as the single entry of a 1 x 1 kernel matrix, for a spec of ``family``."""
    if spec.family != family:
        raise ValueError(f"spec has family {spec.family!r}, expected {family!r}")
    zv, wv = _as_pair(z, w, names)
    return _difference_form(zv[None], wv[None], spec)[0, 0]


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
    return complex(_pair_value(z, w, spec, COMPLEX_GAUSSIAN))


def eval_real_gaussian(x, y, spec: KernelSpec) -> float:
    """Evaluate the real Gaussian kernel on the stacked coordinates ``(Re, Im)``.

    The value equals ``exp(-sum_i |x_i - y_i|**2 / sigma**2)``. On real
    inputs it is the restriction of the complex Gaussian kernel to the real
    subspace; on complex inputs it is the real Gaussian of the two vectors
    read as points of R^(2 nu).
    """
    return float(_pair_value(x, y, spec, REAL_GAUSSIAN, ("x", "y")))


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
    zv = _as_vector(z, "z")
    c = _complex_array(centers, "centers")
    if c.ndim != 2:
        raise ValueError(f"centers must have shape (m, {zv.shape[0]}), got {c.shape}")
    if c.shape[1] != zv.shape[0]:  # as the pair rule words it, naming both
        raise ValueError(f"dimension mismatch: {zv.size} components in z, {c.shape[1]} in centers")
    if squares is None:
        row = _difference_form(zv[None], c, spec)[0]
    else:
        sq = _complex_array(squares, "squares")
        if sq.shape != c.shape[:1]:
            raise ValueError(f"squares must have shape ({c.shape[0]},), got {sq.shape}")
        row = _factored_row(zv, c, sq, spec)
    return np.asarray(row, _COMPLEX)  # a no-op but for the real family's float rows


def self_kernel(z, spec: KernelSpec) -> float:
    """Evaluate kappa(z, z), which is real for every supported family.

    For the complex Gaussian family this is ``exp(4 * sum Im(z)^2 / sigma^2)``,
    the squared RKHS norm of the feature image of ``z``. It grows without
    bound in the imaginary parts, which is what destabilizes large step sizes
    in the kernel LMS update. The real family's is 1 on every input.
    """
    return _self_value(_as_vector(z, "z"), spec)


def _self_value(zv: np.ndarray, spec: KernelSpec) -> float:
    """The body of ``self_kernel`` on a validated vector."""
    if spec.family == COMPLEX_GAUSSIAN:
        q = zv.imag
        # Python float arithmetic rounds as numpy's does; np.exp, not math.exp, keeps its bits
        return float(np.exp(4.0 * float(np.add.reduce(q * q)) / spec.sigma**2))
    if spec.family == REAL_GAUSSIAN:
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
    p = _complex_array(points, "points")
    if p.ndim == 1:
        # a flat sequence is read as N scalar points in C^1
        p = p[:, None]
    p, _ = _as_rows(p, p, ("points", "points"))
    if p.shape[0] == 0:
        raise ValueError(f"points must be non-empty, got shape {p.shape}")
    return _difference_form(p, p, spec)


def is_positive_semidefinite(K, tol: float = 1e-10) -> bool:
    """Spectral positive-semidefiniteness test for a Hermitian matrix.

    Returns True when the minimum eigenvalue is at least
    ``-tol * (1 + |trace(K)|)``. The tolerance scales with the trace so the
    test stays meaningful for Gram matrices whose diagonal is far from unit.

    Raises
    ------
    ValueError
        If ``K`` is not square, has a non-finite entry (whose trace would
        make the bound infinite or NaN), or is not Hermitian to within 1e-12.
    """
    M = np.asarray(K)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
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
    against a novelty threshold never see a spurious negative; a NaN (from
    an overflowing kernel) stays NaN. The square root is left to the caller:
    ``cklms_step`` evaluates the same expansion against every center and
    compares the distance to the nearest one, ``sqrt(max(min_k d2_k, 0))``
    with ``d2_k`` the unclamped squared distance to center ``k``, with
    ``delta1``.
    """
    zv, cv = _as_pair(z, c, ("z", "c"))
    value = (
        _self_value(zv, spec)
        + _self_value(cv, spec)
        - 2.0 * _difference_form(cv[None], zv[None], spec)[0, 0].real
    )
    return max(float(value), 0.0)  # max keeps its first argument when it is NaN
