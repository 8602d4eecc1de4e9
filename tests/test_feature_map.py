"""CKLMS checked in the explicit feature space of the complex Gaussian kernel.

The complex Gaussian RKHS on C has the orthonormal basis (Steinwart, Hush & Scovel, IEEE TIT
2006)

    e_n(z) = sqrt(2^n / (sigma^(2n) n!)) z^n exp(-z^2 / sigma^2),    n = 0, 1, 2, ...

and on C^nu the tensor products of these, one degree per coordinate. With Phi(z) the vector of
basis values up to a total degree, ``kappa(z, w) = sum_n e_n(z) conj(e_n(w))`` is the series
``exp(-(z - conj w)^2 / sigma^2)`` summed term by term, so

    sum_k a_k kappa(z, c_k) = Phi(z)^T W,    W = sum_k a_k conj(Phi(c_k)),

and CKLMS with every sample admitted is complex LMS on the features: predict Phi(z)^T W, then
``W += mu e conj(Phi(z))``. That update is W minus mu times the conjugate R-derivative of
``L(W) = |d - Phi(z)^T W|^2``, which is ``-e conj(Phi(z))``. None of this goes through the
kernel code, so a conjugation slip in it shows here without a copied reference.

Bounds, set from runs of every case below at seeds 0-4 over 60 steps: the series came within
2.8e-14 of ``kernel_matrix`` per unit of ``1 + |kappa|`` (rounding of terms up to 1e2 at
sigma = 1; 3.4e-15 at nu = 3, where truncation dominates), the predictions within 2.1e-14 of
explicit LMS, and the numeric gradient within 1.1e-11 of the closed form (central differences
are exact on a quadratic, so this is rounding over the probe step); a slip to kappa(c, z) for
kappa(z, c) in the filter moved the predictions by at least 0.93.
"""

import itertools

import numpy as np
import pytest

import ckaf.filters
from ckaf.filters import NoveltyConfig, cklms_step, new_cklms_state
from ckaf.kernels import complex_gaussian, kernel_matrix
from ckaf.wirtinger import numeric_wirtinger_gradient

# (nu, sigma, total degree, mu): mu keeps LMS stable at the self-kernel values of that width
CASES = [(1, 1.0, 40, 0.05), (2, 1.5, 40, 0.1), (3, 3.0, 16, 0.5), (3, 5.0, 12, 1.0)]
IDS = [f"nu{nu}-sigma{sigma}-degree{degree}" for nu, sigma, degree, _ in CASES]
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


def draw(nu, seed):
    rng = np.random.default_rng(seed)
    Z = 0.5 * (rng.standard_normal((STEPS, nu)) + 1j * rng.standard_normal((STEPS, nu)))
    d = 0.5 * (rng.standard_normal(STEPS) + 1j * rng.standard_normal(STEPS))
    return Z, d


def prediction_gap(nu, sigma, degree, mu, seed):
    """Largest gap between cklms_step's predictions and complex LMS on the features."""
    Z, d = draw(nu, seed)
    Phi = features(Z, sigma, degrees(nu, degree))
    state = new_cklms_state(complex_gaussian(sigma), mu, NoveltyConfig(0.0, 0.0))
    W = np.zeros(Phi.shape[1], dtype=np.complex128)
    worst = 0.0
    for z, target, phi in zip(Z, d, Phi):
        _, record = cklms_step(state, z, target)
        prediction = phi @ W
        W += mu * (target - prediction) * np.conj(phi)
        worst = max(worst, abs(record.prediction - prediction))
    assert state.dictionary.size == STEPS  # every sample admitted
    return worst


@pytest.mark.parametrize("nu, sigma, degree, mu", CASES, ids=IDS)
def test_series_is_the_kernel(nu, sigma, degree, mu):
    """Phi(z)^T conj(Phi(w)) equals kappa(z, w) from ``kernel_matrix`` for every pair."""
    Z, _ = draw(nu, 0)
    Phi = features(Z, sigma, degrees(nu, degree))
    K = kernel_matrix(Z, Z, complex_gaussian(sigma))
    assert np.max(np.abs(Phi @ Phi.conj().T - K) / (1.0 + np.abs(K))) <= SERIES_BOUND


@pytest.mark.parametrize("nu, sigma, degree, mu", CASES, ids=IDS)
def test_cklms_is_lms_on_the_features(nu, sigma, degree, mu):
    """With every sample admitted, cklms_step predicts what complex LMS on Phi predicts."""
    assert prediction_gap(nu, sigma, degree, mu, seed=0) <= PREDICTION_BOUND


@pytest.mark.parametrize("nu, sigma, degree, mu", CASES, ids=IDS)
def test_swapped_kernel_arguments_are_caught(monkeypatch, nu, sigma, degree, mu):
    """A filter that evaluates kappa(c, z) in place of kappa(z, c) fails the comparison."""

    def swapped(z, centers, spec, squares=None):
        return kernel_matrix(centers, z[None], spec)[:, 0]

    monkeypatch.setattr(ckaf.filters, "kernel_vector", swapped)
    assert prediction_gap(nu, sigma, degree, mu, seed=0) > 0.1


def test_numeric_gradient_of_the_feature_loss():
    """The numeric conjugate R-derivative of |d - Phi(z)^T W|^2 on C^F is -e conj(Phi(z)),
    the negative of the CKLMS update direction, and the R-derivative is its conjugate."""
    nu, sigma, degree, _ = CASES[0]
    Z, d = draw(nu, 1)
    Phi = features(Z, sigma, degrees(nu, degree))
    rng = np.random.default_rng(2)
    W = 0.1 * (rng.standard_normal(Phi.shape[1]) + 1j * rng.standard_normal(Phi.shape[1]))
    phi, target = Phi[0], d[0]
    e = target - phi @ W
    g = numeric_wirtinger_gradient(lambda v: complex(abs(target - phi @ v) ** 2), W)
    assert np.max(np.abs(g.conj_r_derivative - (-e * np.conj(phi)))) <= GRADIENT_BOUND
    assert np.max(np.abs(g.r_derivative - (-np.conj(e) * phi))) <= GRADIENT_BOUND
