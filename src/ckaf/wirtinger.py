"""Numerical Wirtinger-calculus checks on C^nu.

A non-holomorphic functional T: C^nu -> C has no complex derivative, but
treating T as a function of z and conj(z) independently yields two formal
gradients, the R-derivative and the conjugate R-derivative. Writing
T = u + iv over real coordinates z = x + iy, the componentwise definitions

    dT/dz      = (dT/dx - i dT/dy) / 2
    dT/dconj-z = (dT/dx + i dT/dy) / 2

are implemented here with central finite differences. The module also ships
the identity checks the filtering code relies on: gradients of the four
sesquilinear inner products, the first-order Taylor expansion, the
steepest-ascent property of the conjugate gradient for real-valued T, and
the squared-error loss whose conjugate gradient drives the kernel LMS update.

The inner product convention throughout is linear in the first slot,
``<a, b> = sum_i a_i * conj(b_i)``.
"""

from __future__ import annotations

import cmath
from typing import Callable, NamedTuple

import numpy as np

from ckaf.kernels import _as_vector, _complex_array, _complex_scalar

DEFAULT_STEP = 1e-5


class WirtingerGradient(NamedTuple):
    """The two formal gradients of a functional at one point."""

    r_derivative: np.ndarray
    conj_r_derivative: np.ndarray


class BatteryFunction(NamedTuple):
    """A named test functional with its analytic character.

    kind is one of "holomorphic", "antiholomorphic", "real", "mixed";
    property tests key off it (for example, holomorphic functions must have
    vanishing conjugate R-derivative).
    """

    name: str
    func: Callable[[np.ndarray], complex]
    kind: str


def _evaluate(func, z) -> complex:
    value = _complex_scalar(func(z), "evaluator value")
    if not cmath.isfinite(value):
        raise ArithmeticError(f"evaluator returned non-finite value {value!r}")
    return value


def numeric_wirtinger_gradient(
    func: Callable[[np.ndarray], complex], z, step: float = DEFAULT_STEP
) -> WirtingerGradient:
    """Central-finite-difference R- and conjugate-R-derivatives of func at z.

    Each of the nu complex coordinates is probed along its real and imaginary
    axes with half-width ``step``, four evaluations per coordinate. The
    default step balances truncation against rounding error for smooth
    functionals at double precision.

    Raises ArithmeticError if the evaluator returns a non-finite value at any
    probe point.
    """
    zv = _as_vector(z, "z")
    nu = zv.shape[0]
    r = np.empty(nu, dtype=np.complex128)
    conj_r = np.empty(nu, dtype=np.complex128)
    for i in range(nu):
        e = np.zeros(nu, dtype=np.complex128)
        e[i] = step
        d_dx = (_evaluate(func, zv + e) - _evaluate(func, zv - e)) / (2.0 * step)
        d_dy = (_evaluate(func, zv + 1j * e) - _evaluate(func, zv - 1j * e)) / (2.0 * step)
        r[i] = 0.5 * (d_dx - 1j * d_dy)
        conj_r[i] = 0.5 * (d_dx + 1j * d_dy)
    return WirtingerGradient(r, conj_r)


def check_inner_product_gradients(w, probe, step: float = DEFAULT_STEP) -> float:
    """Worst deviation of the four inner-product gradients from closed form.

    The four functionals of f and their (R, conjugate-R) gradients are

        <f, w>        -> (conj(w), 0)
        <w, f>        -> (0, w)
        <conj(f), w>  -> (0, conj(w))
        <w, conj(f)>  -> (w, 0)

    each evaluated numerically at ``probe``; the return value is the largest
    componentwise absolute error across all eight gradient vectors.
    """
    wv, pv = _complex_array(w, "w"), _complex_array(probe, "probe")
    if wv.shape != pv.shape:
        raise ValueError("w and probe must have matching shapes")
    zeros = np.zeros_like(wv)
    cases = [
        (lambda f: np.sum(f * np.conj(wv)), np.conj(wv), zeros),
        (lambda f: np.sum(wv * np.conj(f)), zeros, wv),
        (lambda f: np.sum(np.conj(f) * np.conj(wv)), zeros, np.conj(wv)),
        (lambda f: np.sum(wv * f), wv, zeros),
    ]
    worst = 0.0
    for func, expected_r, expected_conj in cases:
        g = numeric_wirtinger_gradient(func, pv, step)
        worst = max(
            worst,
            float(np.max(np.abs(g.r_derivative - expected_r))),
            float(np.max(np.abs(g.conj_r_derivative - expected_conj))),
        )
    return worst


def check_taylor_first_order(
    func: Callable[[np.ndarray], complex], z, h, step: float = DEFAULT_STEP
) -> float:
    """Residual of the first-order expansion T(z+h) about z.

    The prediction is ``T(z) + sum_i h_i r_i + sum_i conj(h_i) c_i`` with
    (r, c) the numeric Wirtinger gradients; the residual is its absolute
    deviation from the directly evaluated T(z+h). For smooth T the residual
    shrinks quadratically as h is scaled down. For real-valued T the two
    correction terms are conjugates, so the prediction increment reduces to
    ``2 Re <h, conj(c)-slot form>``; no special casing is needed.
    """
    zv, hv = _complex_array(z, "z"), _complex_array(h, "h")
    if zv.shape != hv.shape:
        raise ValueError("z and h must have matching shapes")
    g = numeric_wirtinger_gradient(func, zv, step)
    predicted = (
        _evaluate(func, zv)
        + np.sum(hv * g.r_derivative)
        + np.sum(np.conj(hv) * g.conj_r_derivative)
    )
    return float(abs(_evaluate(func, zv + hv) - predicted))


def check_steepest_ascent(
    func: Callable[[np.ndarray], complex],
    z,
    n_directions: int = 200,
    step: float = 1e-4,
    rng=None,
) -> bool:
    """True when the conjugate-gradient direction out-climbs random ones.

    For a real-valued functional the direction of steepest increase is the
    conjugate R-derivative. The check draws ``n_directions`` random unit
    vectors, adds the normalized conjugate gradient, moves ``step`` along
    each, and reports whether the gradient direction achieved the largest
    increase of Re T.

    Raises ValueError when the conjugate gradient vanishes at z, since no
    ascent direction is then defined.
    """
    zv = _complex_array(z, "z")
    gen = np.random.default_rng(rng)
    g = numeric_wirtinger_gradient(func, zv, min(step, DEFAULT_STEP)).conj_r_derivative
    norm = float(np.linalg.norm(g))
    if norm < 1e-12:
        raise ValueError("conjugate gradient vanishes at z; no ascent direction")
    base = _evaluate(func, zv).real

    def increase(direction):
        return _evaluate(func, zv + step * direction).real - base

    best_random = -np.inf
    for _ in range(n_directions):
        d = gen.standard_normal(zv.shape[0]) + 1j * gen.standard_normal(zv.shape[0])
        d /= np.linalg.norm(d)
        best_random = max(best_random, increase(d))
    return increase(g / norm) >= best_random


def squared_error_loss(phi, d) -> Callable[[np.ndarray], complex]:
    """Build the loss L(w) = |d - <phi, w>|^2 for fixed phi and d.

    The conjugate R-derivative of this loss at w is ``-conj(e) * phi`` with
    ``e = d - <phi, w>``, which is exactly the negative of the kernel LMS
    update direction. See analytic_squared_error_gradients for the closed
    form used as the test oracle.
    """
    phiv = _complex_array(phi, "phi")
    dval = _complex_scalar(d, "d")

    def loss(w):
        e = dval - np.sum(phiv * np.conj(_complex_array(w, "w")))
        return complex(abs(e) ** 2)

    return loss


def analytic_squared_error_gradients(phi, d, w):
    """Closed-form Wirtinger gradients of the squared-error loss at w.

    Returns (error, r_derivative, conj_r_derivative) where the gradients are
    ``-e * conj(phi)`` and ``-conj(e) * phi``.
    """
    phiv, wv = _complex_array(phi, "phi"), _complex_array(w, "w")
    e = _complex_scalar(d, "d") - np.sum(phiv * np.conj(wv))
    return e, -e * np.conj(phiv), -np.conj(e) * phiv


def standard_battery(dim: int, rng=None) -> list:
    """The stock functionals exercised by the verification suites.

    Covers a holomorphic linear form, its antiholomorphic mirror, two
    real-valued quadratics, the real part, the mixed cubic z * conj(z)^2,
    and one squared-error loss instance with rng-drawn data.
    """
    gen = np.random.default_rng(rng)
    phi = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    d = complex(gen.standard_normal() + 1j * gen.standard_normal())
    return [
        BatteryFunction("sum_z", lambda z: np.sum(z), "holomorphic"),
        BatteryFunction("sum_conj_z", lambda z: np.sum(np.conj(z)), "antiholomorphic"),
        BatteryFunction("z_conj_z", lambda z: np.sum(z * np.conj(z)), "real"),
        BatteryFunction("z_conj_z_sq", lambda z: np.sum(z * np.conj(z) ** 2), "mixed"),
        BatteryFunction("re_z", lambda z: complex(np.sum(z.real)), "real"),
        BatteryFunction("modulus_sq", lambda z: complex(np.vdot(z, z).real), "real"),
        BatteryFunction("squared_error_loss", squared_error_loss(phi, d), "real"),
    ]
