"""Unit tests for the kernel module: evaluations, Gram matrices, RKHS distance."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ckaf.channel import ChannelConfig, EmbeddingConfig, apply_channel, build_dataset
from ckaf.filters import LinearFilterState, LinearLmsConfig, run_block
from ckaf.kernels import (
    KernelSpec,
    complex_gaussian,
    eval_complex_gaussian,
    eval_real_gaussian,
    gram,
    is_positive_semidefinite,
    kernel_matrix,
    kernel_vector,
    linear_kernel,
    real_gaussian,
    rkhs_distance_sq,
    self_kernel,
)
from ckaf.wirtinger import (
    analytic_squared_error_gradients,
    check_inner_product_gradients,
    check_steepest_ascent,
    check_taylor_first_order,
    numeric_wirtinger_gradient,
    squared_error_loss,
)

# Values below were frozen from 40-digit evaluation of the closed forms.
EXP_ONE = 2.718281828459045
EXP_MINUS_ONE = 0.36787944117144233
DIST_SQ_1PI_0_SIGMA2 = 1.9631167046782998  # e + 1 - 2*cos(1/2)


def random_points(rng, n, dim, scale=0.5):
    return scale * (rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim)))


def reference_kappa(z, w, spec):
    """Per-pair closed forms in plain Python arithmetic, independent of the package."""
    pairs = [(complex(a), complex(b)) for a, b in zip(z, w)]
    if spec.family == "complex-gaussian":
        return cmath.exp(-sum((a - b.conjugate()) ** 2 for a, b in pairs) / spec.sigma**2)
    if spec.family == "real-gaussian":
        return complex(math.exp(-sum(abs(a - b) ** 2 for a, b in pairs) / spec.sigma**2))
    return sum(a * b.conjugate() for a, b in pairs)


def pair_entry(z, w, spec):
    """kappa(z, w) of any family: eval_complex_gaussian, else kernel_matrix's one entry."""
    if spec.family == "complex-gaussian":
        return eval_complex_gaussian(z, w, spec)
    return complex(kernel_matrix(z[None], w[None], spec)[0, 0])


def reference_matrix(Z, C, spec):
    return np.array(
        [[reference_kappa(z, c, spec) for c in C] for z in Z], dtype=np.complex128
    ).reshape(len(Z), len(C))


FAMILIES = ("complex-gaussian", "real-gaussian", "linear")
GAUSSIAN_FAMILIES = ("complex-gaussian", "real-gaussian")
# Components in [-1, 1], dimension <= 6 and sigma >= 1 keep the Gaussian
# exponent below 48 in modulus, so values neither overflow nor underflow.
_COORD = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def point_sets(draw, n, m):
    """(Z, C) of complex points of shapes (n, dim) and (m, dim)."""
    dim = draw(st.integers(1, 6))

    def points(rows):
        re = draw(hnp.arrays(np.float64, (rows, dim), elements=_COORD))
        return re + 1j * draw(hnp.arrays(np.float64, (rows, dim), elements=_COORD))

    return points(n), points(m)


@st.composite
def kernel_cases(draw, families=FAMILIES):
    """A spec plus a query point and two to five centers."""
    family = draw(st.sampled_from(families))
    spec = KernelSpec(family, draw(st.floats(1.0, 5.0)))
    Z, C = draw(point_sets(1, draw(st.integers(2, 5))))
    return spec, Z[0], C


class TestKernelSpec:
    def test_rejects_unknown_family(self):
        """Family names outside the supported set are refused."""
        with pytest.raises(ValueError, match="family"):
            KernelSpec("gaussian", 1.0)

    def test_rejects_nonpositive_sigma(self):
        """sigma must be strictly positive."""
        with pytest.raises(ValueError, match="sigma"):
            KernelSpec("complex-gaussian", 0.0)

    @pytest.mark.parametrize("family", ["complex-gaussian", "real-gaussian"])
    def test_sigma_squared_must_be_a_normal_finite_double(self, family):
        """The kernels divide by sigma**2, which overflows from 2**512 on (OverflowError at the
        first filter step) and is subnormal below 2**-511 (its reciprocal overflows, and below
        about 1e-162 the square is 0). Both ends are refused at their boundary values; the
        widths just inside them are kept and give finite kernel values."""
        for sigma in (math.nextafter(2.0**-511, 0.0), 1e-200, 2.0**512, 1e200):
            message = f"sigma must be at least 2**-511 and below 2**512, got {sigma}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                KernelSpec(family, sigma)
        x = np.array([[0.0], [1.0]])
        for sigma, off_diagonal in ((2.0**-511, 0.0), (math.nextafter(2.0**512, 0.0), 1.0)):
            K = kernel_matrix(x, x, KernelSpec(family, sigma))
            np.testing.assert_array_equal(K, [[1.0, off_diagonal], [off_diagonal, 1.0]])

    def test_factory_helpers(self):
        """Shorthand constructors produce the matching family."""
        assert complex_gaussian(2.0).family == "complex-gaussian"
        assert real_gaussian(3.0).sigma == 3.0
        assert linear_kernel().family == "linear"


class TestEvalComplexGaussian:
    def test_real_coincident_inputs_give_one(self):
        """Identical real inputs produce exactly 1 + 0i."""
        z = [0.3, -1.2]
        for sigma in (0.5, 1.0, 5.0):
            value = eval_complex_gaussian(z, z, complex_gaussian(sigma))
            assert value == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_imaginary_unit_against_zero(self):
        """kappa((i), (0)) with sigma=1 equals exp(1), real and above one."""
        value = eval_complex_gaussian([1j], [0], complex_gaussian(1.0))
        assert value.real == pytest.approx(EXP_ONE, rel=1e-15)
        assert value.imag == pytest.approx(0.0, abs=1e-15)

    def test_hermitian_pair(self):
        """Swapping arguments conjugates the value."""
        spec = complex_gaussian(2.0)
        forward = eval_complex_gaussian([1 + 2j], [0.5 - 0.5j], spec)
        backward = eval_complex_gaussian([0.5 - 0.5j], [1 + 2j], spec)
        assert forward == pytest.approx(np.conj(backward), rel=1e-14)

    def test_dimension_mismatch(self):
        """Vectors of different lengths are refused."""
        with pytest.raises(ValueError, match="mismatch"):
            eval_complex_gaussian([1j, 0], [0], complex_gaussian(1.0))

    def test_wrong_family_rejected(self):
        """A real-Gaussian spec cannot be passed to the complex evaluation."""
        with pytest.raises(ValueError, match="family"):
            eval_complex_gaussian([0j], [0j], real_gaussian(1.0))


class TestEvalRealGaussian:
    def test_coincident_inputs(self):
        """x == y gives exactly 1."""
        assert eval_real_gaussian([0.7, -0.1], [0.7, -0.1], real_gaussian(2.0)) == 1.0

    def test_unit_separation(self):
        """kappa((0), (1)) with sigma=1 equals exp(-1)."""
        value = eval_real_gaussian([0.0], [1.0], real_gaussian(1.0))
        assert value == pytest.approx(EXP_MINUS_ONE, rel=1e-15)

    def test_value_in_unit_interval(self):
        """Real-kernel values stay in (0, 1]."""
        rng = np.random.default_rng(3)
        spec = real_gaussian(1.5)
        for _ in range(50):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            v = eval_real_gaussian(x, y, spec)
            assert 0.0 < v <= 1.0

    def test_restriction_of_complex_kernel(self):
        """On real inputs the complex kernel reproduces the real kernel to 1e-14."""
        rng = np.random.default_rng(4)
        for sigma in (1.0, 5.0):
            for _ in range(100):
                x = rng.standard_normal(6)
                y = rng.standard_normal(6)
                cval = eval_complex_gaussian(x, y, complex_gaussian(sigma))
                rval = eval_real_gaussian(x, y, real_gaussian(sigma))
                assert cval.imag == 0.0
                assert cval.real == pytest.approx(rval, rel=1e-14)


class TestHermitianSymmetry:
    def test_thousand_random_pairs(self):
        """kappa(w, z) equals conj(kappa(z, w)) within 1e-12 relative."""
        rng = np.random.default_rng(5)
        spec = complex_gaussian(1.0)
        pts = random_points(rng, 2000, 3)
        for i in range(1000):
            z, w = pts[2 * i], pts[2 * i + 1]
            kzw = eval_complex_gaussian(z, w, spec)
            kwz = eval_complex_gaussian(w, z, spec)
            assert abs(kwz - np.conj(kzw)) <= 1e-12 * abs(kzw), f"pair {i} broke symmetry"


class TestKernelVector:
    def test_matches_scalar_evaluations(self):
        """The vectorized path agrees with the per-pair closed forms for every family."""
        rng = np.random.default_rng(6)
        z = random_points(rng, 1, 4)[0]
        centers = random_points(rng, 12, 4)
        for spec in (complex_gaussian(1.3), linear_kernel()):
            vec = kernel_vector(z, centers, spec)
            ref = np.array([reference_kappa(z, c, spec) for c in centers])
            np.testing.assert_allclose(vec, ref, rtol=1e-13)
        real_centers = centers.real.astype(complex)
        vec = kernel_vector(z.real.astype(complex), real_centers, real_gaussian(2.0))
        assert vec.dtype == np.complex128
        ref = np.array(
            [reference_kappa(z.real, c, real_gaussian(2.0)) for c in real_centers]
        )
        np.testing.assert_allclose(vec, ref, rtol=1e-13)

    def test_shape_validation(self):
        """Center matrices with the wrong width are refused."""
        with pytest.raises(ValueError, match="centers"):
            kernel_vector([1j, 0], np.zeros((3, 3), dtype=complex), complex_gaussian(1.0))
        with pytest.raises(ValueError, match="squares"):
            kernel_vector(
                [1j, 0], np.zeros((3, 2), dtype=complex), complex_gaussian(1.0), np.zeros(2)
            )

    def test_numpy_tan_is_within_two_ulp_of_libm(self):
        """The GEMM-form row's accuracy rests on numpy's SIMD ``tan``, so it is held
        to 2 ULP of ``math.tan`` for |y| from 1e-8 to 1e300 and next to odd multiples
        of pi/2, where ``tan`` reaches 1e16. A numpy build whose ``tan`` is coarser
        fails here before it moves a kernel row."""
        magnitudes = np.logspace(-8, 300, 3081)
        near = []
        for k in (0, 1, 2, 3, 10, 1000, 10**6, 10**9):
            pole = (2 * k + 1) * math.pi / 2
            below = above = pole
            for _ in range(4):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
                near += [below, above]
            near += [pole] + [pole + d for d in (1e-3, -1e-3, 1e-6, -1e-6, 1e-9, -1e-9)]
        y = np.concatenate([magnitudes, near])
        y = np.concatenate([y, -y])
        got = np.tan(y)
        expected = np.array([math.tan(v) for v in y])

        def ordinal(a):
            # doubles mapped to integers in their order, so ULP distance is a difference
            bits = a.view(np.int64)
            return np.where(bits < 0, np.int64(-(2**63)) - bits, bits)

        assert np.max(np.abs(expected)) > 1e15
        assert np.max(np.abs(ordinal(got) - ordinal(expected))) <= 2


class TestKernelMatrix:
    @pytest.mark.parametrize("m", [0, 1, 5])
    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, family, m, data):
        """Every entry agrees with the per-pair closed form to 1e-13."""
        spec = KernelSpec(family, data.draw(st.floats(1.0, 5.0)))
        Z, C = data.draw(point_sets(data.draw(st.integers(1, 3)), m))
        K = kernel_matrix(Z, C, spec)
        assert K.shape == (Z.shape[0], m)
        # linear values can cancel to near zero, so they get an absolute floor
        atol = 1e-13 if family == "linear" else 0.0
        np.testing.assert_allclose(K, reference_matrix(Z, C, spec), rtol=1e-13, atol=atol)

    @settings(max_examples=60, deadline=None)
    @given(kernel_cases())
    def test_views_are_entries_bit_for_bit(self, case):
        """Each helper returns exactly the entry, row or matrix of its kernel_matrix call."""
        spec, z, C = case
        c = C[0]
        entry = kernel_matrix(z[None, :], c[None, :], spec)[0, 0]
        if spec.family == "complex-gaussian":
            assert eval_complex_gaussian(z, c, spec) == complex(entry)
        if spec.family == "real-gaussian":
            assert eval_real_gaussian(z, c, spec) == float(entry)
        assert np.array_equal(kernel_vector(z, C, spec), kernel_matrix(z[None, :], C, spec)[0])
        assert np.array_equal(gram(C, spec), kernel_matrix(C, C, spec))

    @settings(max_examples=60, deadline=None)
    @given(kernel_cases(GAUSSIAN_FAMILIES))
    def test_hermitian_and_distance_symmetry_exact(self, case):
        """Gaussian families: kappa(w, z) == conj(kappa(z, w)) and symmetric distances, exactly."""
        spec, z, C = case
        w = C[0]
        assert pair_entry(w, z, spec) == np.conj(pair_entry(z, w, spec))
        assert rkhs_distance_sq(z, w, spec) == rkhs_distance_sq(w, z, spec)

    @settings(max_examples=60, deadline=None)
    @given(kernel_cases(("linear",)))
    def test_linear_hermitian_and_distance_symmetry(self, case):
        """Linear family: the same identities to rounding, since a BLAS product may fuse multiply-adds."""
        spec, z, C = case
        w = C[0]
        assert abs(pair_entry(w, z, spec) - np.conj(pair_entry(z, w, spec))) <= 1e-14
        assert rkhs_distance_sq(z, w, spec) == pytest.approx(rkhs_distance_sq(w, z, spec), abs=1e-14)

    def test_shape_validation(self):
        """Mismatched widths, wrong ranks and zero-width points are refused, naming the array."""
        spec = complex_gaussian(1.0)
        for Z, C, message in (
            (np.zeros((1, 2)), np.zeros((3, 3)), r"dimension mismatch: 2 components in Z, 3 in C"),
            (np.zeros(2), np.zeros((3, 2)), r"Z must be an \(n, nu\) array with nu >= 1"),
            (np.zeros((1, 0)), np.zeros((3, 0)), r"Z must be an \(n, nu\) array with nu >= 1"),
            (np.zeros((1, 2)), np.zeros(2), r"C must be an \(n, nu\) array with nu >= 1"),
        ):
            with pytest.raises(ValueError, match=f"^{message}"):
                kernel_matrix(Z, C, spec)


class TestSelfKernel:
    def test_closed_form(self):
        """kappa(z, z) equals exp(4 sum Im(z)^2 / sigma^2) and is at least 1."""
        rng = np.random.default_rng(7)
        for sigma in (1.0, 5.0):
            spec = complex_gaussian(sigma)
            for _ in range(50):
                z = random_points(rng, 1, 5)[0]
                expected = np.exp(4.0 * np.sum(z.imag**2) / sigma**2)
                got = self_kernel(z, spec)
                assert got == pytest.approx(expected, rel=1e-13)
                assert got >= 1.0
                direct = eval_complex_gaussian(z, z, spec)
                assert direct.real == pytest.approx(got, rel=1e-13)
                assert abs(direct.imag) <= 1e-12 * got

    def test_other_families(self):
        """Real family self-kernel is 1; linear family gives the squared norm."""
        assert self_kernel([0.2, -3.0], real_gaussian(1.0)) == 1.0
        assert self_kernel([3 + 4j], linear_kernel()) == pytest.approx(25.0, rel=1e-15)


class TestGram:
    def test_single_point(self):
        """One point yields the 1x1 matrix [kappa(p, p)]."""
        p = np.array([0.1 + 0.4j, -0.2j])
        K = gram([p], complex_gaussian(1.0))
        assert K.shape == (1, 1)
        assert K[0, 0] == pytest.approx(reference_kappa(p, p, complex_gaussian(1.0)), rel=1e-14)

    def test_two_identical_real_points(self):
        """Duplicated real points give the all-ones matrix."""
        K = gram([[0.5, 1.0], [0.5, 1.0]], complex_gaussian(1.0))
        np.testing.assert_allclose(K, np.ones((2, 2)), rtol=0, atol=1e-15)

    def test_matches_pairwise_evaluation(self):
        """Entries reproduce the per-pair closed forms."""
        rng = np.random.default_rng(8)
        pts = random_points(rng, 5, 3)
        for spec in (complex_gaussian(1.0), linear_kernel()):
            K = gram(pts, spec)
            for i in range(5):
                for j in range(5):
                    assert K[i, j] == pytest.approx(
                        reference_kappa(pts[i], pts[j], spec), rel=1e-13
                    ), f"entry ({i},{j}) mismatch for {spec.family}"

    def test_hermitian_with_real_diagonal(self):
        """Gram matrices are Hermitian with a real diagonal."""
        rng = np.random.default_rng(9)
        K = gram(random_points(rng, 20, 4), complex_gaussian(2.0))
        np.testing.assert_allclose(K, np.conj(K).T, rtol=1e-12, atol=1e-12)
        assert np.max(np.abs(K.diagonal().imag)) <= 1e-12

    def test_empty_input_rejected(self):
        """An empty point list is a usage error."""
        with pytest.raises(ValueError, match="non-empty"):
            gram(np.zeros((0, 3), dtype=complex), complex_gaussian(1.0))


class TestIsPositiveSemidefinite:
    def test_trivial_one_by_one(self):
        """[[1]] is PSD."""
        assert is_positive_semidefinite(np.array([[1.0]]), tol=1e-10)

    def test_known_indefinite_matrix(self):
        """[[0, 1], [1, 0]] has eigenvalue -1 and fails."""
        K = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert not is_positive_semidefinite(K, tol=1e-10)

    def test_random_gram_is_psd(self):
        """Gram of 20 random points under the complex Gaussian kernel passes."""
        rng = np.random.default_rng(10)
        K = gram(random_points(rng, 20, 6), complex_gaussian(5.0))
        assert is_positive_semidefinite(K, tol=1e-10)

    def test_gram_psd_both_gaussian_families(self):
        """Gram matrices of up to 50 points pass for both Gaussian families."""
        rng = np.random.default_rng(11)
        pts = random_points(rng, 50, 4)
        assert is_positive_semidefinite(gram(pts, complex_gaussian(1.0)), tol=1e-10)
        assert is_positive_semidefinite(
            gram(pts.real.astype(complex), real_gaussian(1.0)), tol=1e-10
        )

    def test_non_hermitian_rejected(self):
        """Non-Hermitian input is a usage error."""
        with pytest.raises(ValueError, match="Hermitian"):
            is_positive_semidefinite(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        """Rectangular input is a usage error."""
        with pytest.raises(ValueError, match="square"):
            is_positive_semidefinite(np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "K",
        [
            [[math.inf]], [[math.nan]], [[1.0, math.inf], [math.inf, 1.0]],
            [[1.0, 0.0], [0.0, -math.inf]],
        ],
        ids=["inf", "nan", "inf-off-diagonal", "minus-inf-diagonal"],
    )
    def test_non_finite_rejected(self, K):
        """A non-finite entry is refused before any test: with it the trace-scaled bound is
        -inf or NaN, and [[inf]] would pass."""
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            is_positive_semidefinite(np.array(K))


class TestRkhsDistanceSq:
    def test_coincident_points(self):
        """Distance of a point to itself is exactly 0."""
        z = [0.4 + 0.2j, -1.0 + 0.9j]
        assert rkhs_distance_sq(z, z, complex_gaussian(1.0)) == 0.0

    def test_distant_real_points_approach_two(self):
        """Far-apart real points give self-terms 1 each and a vanishing cross term."""
        value = rkhs_distance_sq([0.0], [50.0], complex_gaussian(1.0))
        assert value == pytest.approx(2.0, rel=1e-12)

    def test_frozen_value(self):
        """z = (1+i), c = (0), sigma = 2 reproduces the closed-form value."""
        value = rkhs_distance_sq([1 + 1j], [0], complex_gaussian(2.0))
        assert value == pytest.approx(DIST_SQ_1PI_0_SIGMA2, rel=1e-14)

    def test_exact_symmetry(self):
        """Swapping the arguments returns the identical float."""
        rng = np.random.default_rng(12)
        spec = complex_gaussian(1.5)
        for _ in range(200):
            z, c = random_points(rng, 2, 3)
            assert rkhs_distance_sq(z, c, spec) == rkhs_distance_sq(c, z, spec)

    def test_nonnegative(self):
        """Clamping keeps every distance at or above zero."""
        rng = np.random.default_rng(13)
        spec = complex_gaussian(5.0)
        pts = random_points(rng, 100, 6)
        for i in range(99):
            assert rkhs_distance_sq(pts[i], pts[i + 1], spec) >= 0.0

    def test_linear_family_is_euclidean(self):
        """Under the linear kernel the RKHS distance is the squared Euclidean one."""
        z = np.array([1 + 1j, 2.0])
        c = np.array([0.0, 1j])
        expected = float(np.sum(np.abs(z - c) ** 2))
        assert rkhs_distance_sq(z, c, linear_kernel()) == pytest.approx(expected, rel=1e-14)

    def test_dimension_mismatch(self):
        """Mismatched dimensions are refused."""
        with pytest.raises(ValueError, match="mismatch"):
            rkhs_distance_sq([1j], [1j, 0], complex_gaussian(1.0))

    def test_overflowing_kernel_gives_nan_not_zero(self):
        """When the self-kernels overflow, inf + inf - 2 inf is NaN and stays NaN: the clamp to
        zero covers rounding below zero only, so a failed evaluation never reads as coincident."""
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(rkhs_distance_sq([30j], [30j], complex_gaussian(1.0)))


_SPEC = complex_gaussian(1.0)
_Z = np.array([0.1 + 0.2j, -0.3j])
_NON_NUMERIC = {
    "string": np.array(["0.1", "0.2j"]),
    "bytes": np.array([b"0.1", b"0.2j"]),
    "None": None,
    "object": np.array([0.1, 0.2j], dtype=object),
}
_ROW = _Z[None]  # a (1, 2) array where a vector belongs
_LONG = np.ones(3)  # a vector one component longer than _Z
_WIDE = np.ones((1, 3))  # a row array one column wider than _Z[None]


def _modulus_sq(v):
    return complex(np.vdot(v, v).real)


# each entry: the argument name the error must carry, a call taking the bad value there, a
# value of the wrong rank, and a value whose length does not match the call's other argument
# (None where the call has no such pairing)
_ENTRIES = {
    "eval_complex_gaussian.z": ("z", lambda x: eval_complex_gaussian(x, _Z, _SPEC), _ROW, _LONG),
    "eval_complex_gaussian.w": ("w", lambda x: eval_complex_gaussian(_Z, x, _SPEC), _ROW, _LONG),
    # a z of the wrong length is reported as the pair rule words it, naming z and the centers
    "kernel_vector.z": ("z", lambda x: kernel_vector(x, _Z[None], _SPEC), _ROW, _LONG),
    "kernel_vector.centers": ("centers", lambda x: kernel_vector(_Z, x, _SPEC), _Z, _WIDE),
    "kernel_vector.squares": (
        "squares", lambda x: kernel_vector(_Z, _Z[None], _SPEC, x), _ROW, _LONG
    ),
    "kernel_matrix.Z": ("Z", lambda x: kernel_matrix(x, _Z[None], _SPEC), _Z, _WIDE),
    "kernel_matrix.C": ("C", lambda x: kernel_matrix(_Z[None], x, _SPEC), _Z, _WIDE),
    "gram": ("points", lambda x: gram(x, _SPEC), np.ones((1, 1, 2)), None),
    "self_kernel": ("z", lambda x: self_kernel(x, _SPEC), _ROW, None),
    "rkhs_distance_sq.z": ("z", lambda x: rkhs_distance_sq(x, _Z, _SPEC), _ROW, _LONG),
    "rkhs_distance_sq.c": ("c", lambda x: rkhs_distance_sq(_Z, x, _SPEC), _ROW, _LONG),
    "run_block.inputs": (
        "inputs", lambda x: run_block(x, np.zeros((1, 2)), "nclms", LinearLmsConfig(0.1)),
        np.zeros((1, 2)), np.zeros((1, 3, 1)),
    ),
    "run_block.targets": (
        "targets", lambda x: run_block(_Z[None, :, None], x, "nclms", LinearLmsConfig(0.1)),
        _Z, np.zeros((1, 3)),
    ),
    "LinearFilterState.w": (
        "weights", lambda x: LinearFilterState(LinearLmsConfig(0.1), x), _ROW, None
    ),
    "LinearFilterState.g": (
        "conjugate weights", lambda x: LinearFilterState(LinearLmsConfig(0.1), _Z.copy(), x),
        _ROW, _LONG,
    ),
    "apply_channel": ("s", lambda x: apply_channel(x, ChannelConfig()), _ROW, None),
    "build_dataset.r": (
        "r", lambda x: build_dataset(x, np.zeros(2), EmbeddingConfig(1, 0)), _ROW, _LONG
    ),
    "build_dataset.s": (
        "s", lambda x: build_dataset(np.zeros(2), x, EmbeddingConfig(1, 0)), _ROW, _LONG
    ),
    "numeric_wirtinger_gradient": (
        "z", lambda x: numeric_wirtinger_gradient(np.sum, x), _ROW, None
    ),
    "check_inner_product_gradients.w": (
        "w", lambda x: check_inner_product_gradients(x, _Z), _ROW, _LONG
    ),
    "check_inner_product_gradients.probe": (
        "probe", lambda x: check_inner_product_gradients(_Z, x), _ROW, _LONG
    ),
    "check_taylor_first_order.z": (
        "z", lambda x: check_taylor_first_order(np.sum, x, _Z), _ROW, _LONG
    ),
    "check_taylor_first_order.h": (
        "h", lambda x: check_taylor_first_order(np.sum, _Z, x), _ROW, _LONG
    ),
    "check_steepest_ascent": ("z", lambda x: check_steepest_ascent(_modulus_sq, x), _ROW, None),
    "squared_error_loss.phi": ("phi", lambda x: squared_error_loss(x, 0.5)(_Z), _ROW, _LONG),
    "squared_error_loss.w": ("w", lambda x: squared_error_loss(_Z, 0.5)(x), _ROW, _LONG),
    "analytic_squared_error_gradients.phi": (
        "phi", lambda x: analytic_squared_error_gradients(x, 0.5, _Z), _ROW, _LONG
    ),
    "analytic_squared_error_gradients.w": (
        "w", lambda x: analytic_squared_error_gradients(_Z, 0.5, x), _ROW, _LONG
    ),
}
# None is the default of these arguments: no cached squares, and an nclms state
_NONE_IS_DEFAULT = {"kernel_vector.squares", "LinearFilterState.g"}


class TestComplexInput:
    @pytest.mark.parametrize(
        "entry, value",
        [
            pytest.param(entry, value, id=f"{call}-{kind}")
            for call, entry in _ENTRIES.items()
            for kind, value in _NON_NUMERIC.items()
            if not (call in _NONE_IS_DEFAULT and kind == "None")
        ],
    )
    def test_non_numeric_input_raises_type_error(self, entry, value):
        """Strings, bytes, None and object arrays are not parsed or turned into NaN: every
        public entry that takes caller samples raises TypeError naming the argument."""
        name, call, _, _ = entry
        with pytest.raises(TypeError, match=f"^{name} must be numeric, got dtype"):
            call(value)

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint16, np.float32, np.complex64, ">c16"])
    def test_numeric_dtypes_are_converted(self, dtype):
        """Bool, integer, float and complex data of any width or byte order is accepted and
        gives the value of the same numbers as complex128."""
        x = np.array([1, 0], dtype=dtype)
        expected = eval_complex_gaussian(x.astype(np.complex128), _Z, _SPEC)
        assert eval_complex_gaussian(x, _Z, _SPEC) == expected
        assert eval_complex_gaussian(x.tolist(), _Z, _SPEC) == expected


class TestShapeRules:
    @pytest.mark.parametrize(
        "entry, value",
        [
            pytest.param(entry, value, id=f"{call}-{kind}")
            for call, entry in _ENTRIES.items()
            for kind, value in zip(("rank", "length"), entry[2:])
            if value is not None
        ],
    )
    def test_shape_error_names_its_argument(self, entry, value):
        """A value of the wrong rank, or one whose length does not match the argument it pairs
        with, raises ValueError naming the argument: nothing broadcasts."""
        name, call, _, _ = entry
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            call(value)

    def test_squared_error_loss_does_not_broadcast(self):
        """|d - <phi, w>|^2 is defined only for phi and w of one length; a length-1 w used to
        broadcast against a longer phi and give a loss and gradients anyway."""
        with pytest.raises(ValueError, match="^dimension mismatch: 2 components in phi, 1 in w$"):
            analytic_squared_error_gradients([1, 2], 0.5, [1j])
        with pytest.raises(ValueError, match="^dimension mismatch: 2 components in phi, 1 in w$"):
            squared_error_loss([1, 2], 0.5)([1j])
