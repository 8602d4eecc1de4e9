"""CKLMS checked in the explicit feature spaces of the complex and the real Gaussian kernel.

The complex Gaussian RKHS on C has the orthonormal basis (Steinwart, Hush & Scovel, IEEE TIT
2006)

    e_n(z) = sqrt(2^n / (sigma^(2n) n!)) z^n exp(-z^2 / sigma^2),    n = 0, 1, 2, ...

and on C^nu the tensor products of these, one degree per coordinate. With Phi(z) the vector of
basis values up to a total degree, ``kappa(z, w) = sum_n e_n(z) conj(e_n(w))`` is the series
``exp(-(z - conj w)^2 / sigma^2)`` summed term by term, so

    sum_k a_k kappa(z, c_k) = Phi(z)^T W,    W = sum_k a_k conj(Phi(c_k)),

and CKLMS with every sample admitted is complex LMS on the features: predict Phi(z)^T W, then
``W += mu e conj(Phi(z))``. That update is W minus mu times the conjugate R-derivative of
``L(W) = |d - Phi(z)^T W|^2``, which is ``-e conj(Phi(z))``, and so the steepest descent
direction of L; the unconjugated ``e Phi(z)`` descends less wherever Phi(z) is not real up to
one phase. None of this goes through the kernel code, so a conjugation slip in it shows here
without a copied reference.

The real Gaussian family reads z in C^nu as the 2 nu real coordinates ``(Re z, Im z)``. On real
x the same basis is real and ``exp(-(x - y)^2 / sigma^2) = sum_n e_n(x) e_n(y)``, so the tensor
products over the 2 nu coordinates are explicit real features of ``exp(-|z - w|^2 / sigma^2)``,
and CKLMS on that family over complex samples is LMS on them, ``W += mu e Phi(z)``.

Bounds, set from runs of every case below at seeds 0-4 over 60 steps: the series came within
2.8e-14 of ``kernel_matrix`` per unit of ``1 + |kappa|`` (rounding of terms up to 1e2 at
sigma = 1; 3.4e-15 at nu = 3, where truncation dominates), the predictions within 2.1e-14 of
explicit LMS, and the numeric gradient within 1.1e-11 of the closed form (central differences
are exact on a quadratic, so this is rounding over the probe step); a slip to kappa(c, z) for
kappa(z, c) in the filter moved the predictions by at least 0.93. The real family's cases came
within 8.6e-16 of ``kernel_matrix`` and within 2.7e-15 of explicit LMS (at nu = 3, sigma = 5,
degree 10 the series is 2.9e-13 off, because truncation dominates there). At seeds 0-9 the
gradient direction out-climbed 200 random ones in every case, and the unconjugated direction
descended at most 0.997 times as far as the conjugated one.
"""

import itertools

import numpy as np
import pytest

import ckaf.filters
from ckaf.filters import NoveltyConfig, cklms_step, new_cklms_state
from ckaf.kernels import COMPLEX_GAUSSIAN, REAL_GAUSSIAN, KernelSpec, kernel_matrix
from ckaf.wirtinger import check_steepest_ascent, numeric_wirtinger_gradient

# (family, nu, sigma, total degree, mu): mu keeps LMS stable at the self-kernel values of that
# width; the real Gaussian's self-kernel is 1, and its degree counts over the 2 nu coordinates
CASES = [
    (COMPLEX_GAUSSIAN, 1, 1.0, 40, 0.05), (COMPLEX_GAUSSIAN, 2, 1.5, 40, 0.1),
    (COMPLEX_GAUSSIAN, 3, 3.0, 16, 0.5), (COMPLEX_GAUSSIAN, 3, 5.0, 12, 1.0),
    (REAL_GAUSSIAN, 1, 1.0, 40, 0.5), (REAL_GAUSSIAN, 2, 3.0, 16, 1.0),
]
IDS = [
    f"{'real-' if family == REAL_GAUSSIAN else ''}nu{nu}-sigma{sigma}-degree{degree}"
    for family, nu, sigma, degree, _ in CASES
]
STEPS = 60
SERIES_BOUND = 1e-13
PREDICTION_BOUND = 1e-13
GRADIENT_BOUND = 1e-10


def degrees(nu, top):
    """Every multi-index in N^nu of total degree at most ``top``, one per row."""
    return np.array([a for a in itertools.product(range(top + 1), repeat=nu) if sum(a) <= top])


def features(Z, sigma, index):
    """Phi(z) for each row z of ``Z``: prod_i e_{index[f, i]}(z_i) for each feature f."""
    top = int(index.max())
    # sqrt(2^n / (sigma^(2n) n!)) as a running product, which neither overflows nor underflows
    scale = np.cumprod(np.r_[1.0, np.sqrt(2.0 / (sigma**2 * np.arange(1, top + 1)))])
    basis = scale * Z[..., None] ** np.arange(top + 1) * np.exp(-(Z**2) / sigma**2)[..., None]
    return np.prod(basis[:, np.arange(index.shape[1]), index], axis=-1)


def family_features(family, Z, sigma, degree):
    """The family's Phi(z) up to total degree ``degree``: the basis on the complex coordinates
    for the complex Gaussian, on the stacked real coordinates ``(Re z, Im z)`` for the real one."""
    X = Z if family == COMPLEX_GAUSSIAN else np.hstack([Z.real, Z.imag])
    return features(X, sigma, degrees(X.shape[1], degree))


def draw(nu, seed):
    rng = np.random.default_rng(seed)
    Z = 0.5 * (rng.standard_normal((STEPS, nu)) + 1j * rng.standard_normal((STEPS, nu)))
    d = 0.5 * (rng.standard_normal(STEPS) + 1j * rng.standard_normal(STEPS))
    return Z, d


def prediction_gap(family, nu, sigma, degree, mu, seed):
    """Largest gap between cklms_step's predictions and complex LMS on the features."""
    Z, d = draw(nu, seed)
    Phi = family_features(family, Z, sigma, degree)
    state = new_cklms_state(KernelSpec(family, sigma), mu, NoveltyConfig(0.0, 0.0))
    W = np.zeros(Phi.shape[1], dtype=np.complex128)
    worst = 0.0
    for z, target, phi in zip(Z, d, Phi):
        _, record = cklms_step(state, z, target)
        prediction = phi @ W
        W += mu * (target - prediction) * np.conj(phi)
        worst = max(worst, abs(record.prediction - prediction))
    assert state.dictionary.size == STEPS  # every sample admitted
    return worst


@pytest.mark.parametrize("family, nu, sigma, degree, mu", CASES, ids=IDS)
def test_series_is_the_kernel(family, nu, sigma, degree, mu):
    """Phi(z)^T conj(Phi(w)) equals kappa(z, w) from ``kernel_matrix`` for every pair."""
    Z, _ = draw(nu, 0)
    Phi = family_features(family, Z, sigma, degree)
    K = kernel_matrix(Z, Z, KernelSpec(family, sigma))
    assert np.max(np.abs(Phi @ Phi.conj().T - K) / (1.0 + np.abs(K))) <= SERIES_BOUND


@pytest.mark.parametrize("family, nu, sigma, degree, mu", CASES, ids=IDS)
def test_cklms_is_lms_on_the_features(family, nu, sigma, degree, mu):
    """With every sample admitted, cklms_step predicts what complex LMS on Phi predicts; for
    the real family over complex samples, LMS on the real features of R^(2 nu)."""
    assert prediction_gap(family, nu, sigma, degree, mu, seed=0) <= PREDICTION_BOUND


COMPLEX_CASES = [case for case in CASES if case[0] == COMPLEX_GAUSSIAN]


@pytest.mark.parametrize("family, nu, sigma, degree, mu", COMPLEX_CASES, ids=IDS[:4])
def test_swapped_kernel_arguments_are_caught(monkeypatch, family, nu, sigma, degree, mu):
    """A filter that evaluates kappa(c, z) in place of kappa(z, c) fails the comparison (the
    real family is symmetric, so the slip cannot show there)."""

    def swapped(z, centers, spec, squares=None):
        return kernel_matrix(centers, z[None], spec)[:, 0]

    monkeypatch.setattr(ckaf.filters, "kernel_vector", swapped)
    assert prediction_gap(family, nu, sigma, degree, mu, seed=0) > 0.1


def feature_loss(family, nu, sigma, degree, seed):
    """``L(W) = |d - Phi(z)^T W|^2`` on C^F at a random W, with that W, e and Phi(z)."""
    Z, d = draw(nu, seed)
    phi, target = family_features(family, Z[:1], sigma, degree)[0], d[0]
    rng = np.random.default_rng(seed)
    W = 0.1 * (rng.standard_normal(phi.shape[0]) + 1j * rng.standard_normal(phi.shape[0]))
    return (lambda v: complex(abs(target - phi @ v) ** 2)), W, target - phi @ W, phi


def test_numeric_gradient_of_the_feature_loss():
    """The numeric conjugate R-derivative of |d - Phi(z)^T W|^2 on C^F is -e conj(Phi(z)),
    the negative of the CKLMS update direction, and the R-derivative is its conjugate."""
    family, nu, sigma, degree, _ = CASES[0]
    Z, d = draw(nu, 1)
    Phi = family_features(family, Z, sigma, degree)
    rng = np.random.default_rng(2)
    W = 0.1 * (rng.standard_normal(Phi.shape[1]) + 1j * rng.standard_normal(Phi.shape[1]))
    phi, target = Phi[0], d[0]
    e = target - phi @ W
    g = numeric_wirtinger_gradient(lambda v: complex(abs(target - phi @ v) ** 2), W)
    assert np.max(np.abs(g.conj_r_derivative - (-e * np.conj(phi)))) <= GRADIENT_BOUND
    assert np.max(np.abs(g.r_derivative - (-np.conj(e) * phi))) <= GRADIENT_BOUND


# 41 and 861 complex features, 861 real ones
DESCENT_CASES = [CASES[0][:4], CASES[1][:4], CASES[4][:4]]


@pytest.mark.parametrize("family, nu, sigma, degree", DESCENT_CASES)
def test_cklms_direction_is_steepest_descent(family, nu, sigma, degree):
    """The conjugate R-derivative of the feature loss out-climbs 200 random directions, so its
    negative, the CKLMS direction ``e conj(Phi(z))``, is the steepest descent direction."""
    for seed in range(5):
        loss, W, _, _ = feature_loss(family, nu, sigma, degree, seed)
        assert check_steepest_ascent(loss, W, rng=seed), seed


@pytest.mark.parametrize("family, nu, sigma, degree", DESCENT_CASES[:2])
def test_unconjugated_direction_descends_less(family, nu, sigma, degree):
    """On complex features a step of 1e-4 along the unit vector of ``e Phi(z)`` lowers the loss
    less than one along the CKLMS direction ``e conj(Phi(z))``."""
    for seed in range(5):
        loss, W, e, phi = feature_loss(family, nu, sigma, degree, seed)
        conjugated, plain = (
            loss(W).real - loss(W + 1e-4 * u / np.linalg.norm(u)).real
            for u in (e * np.conj(phi), e * phi)
        )
        assert plain < conjugated, seed
