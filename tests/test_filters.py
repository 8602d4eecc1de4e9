"""Step-level and run-level tests for the adaptive filters."""

import cmath
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ckaf.filters
import ckaf.kernels
from ckaf.documents import ConfigError
from ckaf.channel import (
    ChannelConfig,
    EmbeddingConfig,
    SignalConfig,
    apply_channel,
    build_dataset,
    generate_input,
)
from ckaf.filters import (
    CklmsConfig,
    CklmsState,
    Dictionary,
    FilterStepError,
    LinearFilterState,
    LinearLmsConfig,
    NoveltyConfig,
    cklms_predict,
    cklms_step,
    nclms_step,
    new_cklms_state,
    new_linear_state,
    restore_state,
    run_block,
    run_filter,
    snapshot_state,
)
from ckaf.kernels import (
    KernelSpec,
    complex_gaussian,
    kernel_matrix,
    kernel_vector,
    linear_kernel,
    self_kernel,
)


def random_samples(rng, n, dim, scale=0.5):
    z = scale * (rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim)))
    d = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return list(zip(z, d))


def fresh_snapshot(algorithm):
    """The snapshot document of a new filter of ``algorithm``."""
    if algorithm == "cklms":
        return snapshot_state(new_cklms_state(complex_gaussian(1.0), mu=0.5))
    return snapshot_state(new_linear_state(2, LinearLmsConfig(0.1), algorithm == "wl_nclms"))


def brute_force_cklms(samples, sigma, mu, delta1, delta2):
    """Reference in plain Python complex arithmetic; each input is a scalar or a vector."""
    centers, coeffs = [], []

    def kappa(z, c):
        return cmath.exp(-sum((zi - ci.conjugate()) ** 2 for zi, ci in zip(z, c)) / sigma**2)

    def selfk(z):
        return math.exp(4.0 * sum(zi.imag**2 for zi in z) / sigma**2)

    trace = []
    for z, d in samples:
        z = [complex(zi) for zi in np.atleast_1d(z)]
        pred = sum(a * kappa(z, c) for c, a in zip(centers, coeffs))
        e = d - pred
        if not centers:
            novel = True
        else:
            dis_sq = min(selfk(z) + selfk(c) - 2.0 * kappa(z, c).real for c in centers)
            dis = math.sqrt(max(dis_sq, 0.0))
            novel = dis >= delta1 and abs(e) >= delta2
        admitted = cmath.isfinite(mu * e) and novel
        if admitted:
            centers.append(z)
            coeffs.append(mu * e)
        trace.append((pred, e, admitted, len(centers)))
    return trace


def gemm_product(centers, v):
    """``centers @ v`` as the large kernel row computes it: one real GEMM of the float64
    view of the row-major ``centers``, ``[Re c_0, Im c_0, Re c_1, ...]``, with the (2 nu, 2)
    matrix whose rows 2i and 2i + 1 are ``(Re v_i, Im v_i)`` and ``(-Im v_i, Re v_i)``, so
    the two output columns are the real and imaginary parts of the product."""
    v = np.asarray(v)
    pair = np.empty((2 * v.size, 2))
    pair[0::2, 0], pair[0::2, 1] = v.real, v.imag
    pair[1::2, 0], pair[1::2, 1] = -v.imag, v.real
    parts = np.ascontiguousarray(centers, dtype=np.complex128).view(np.float64) @ pair
    product = np.empty(len(parts), dtype=np.complex128)
    product.real, product.imag = parts[:, 0], parts[:, 1]
    return product


def gemv_pieces(centers, v):
    """``centers @ v`` as the GEMV-form row computes it from 4096 entries on: one GEMV per
    piece of ``4095 // nu`` rows, and a last piece of one row taken with the row before it,
    because numpy computes a single row as a dot product, which rounds differently."""
    centers = np.asarray(centers)
    m, nu = centers.shape
    q = 4095 // nu
    pieces = [centers[i : i + q] @ v for i in range(0, m, q)]
    if m % q == 1:
        pieces[-1] = (centers[m - 2 :] @ v)[1:]
    return np.concatenate(pieces)


def numpy_scalar_cklms(samples, spec, mu, delta1, delta2):
    """The complex-Gaussian kernel LMS step on numpy scalars, the reference for its bits.

    The row multiplies the product by ``-2.0`` and calls ``np.divide`` by ``-sigma**2``,
    the distance adds ``kzz`` to the minimum of ``self_kernels - 2 Re kvec`` (the
    minimum of the sums, since rounding is monotone), and ``np.sqrt``/``np.abs`` act on
    numpy scalars. ``cklms_step`` folds the ``-2`` into the product, multiplies by the
    reciprocal and works on Python scalars; the two must round identically. Below
    ``_GEMV_ROWS`` centers the product is the complex GEMV ``centers @ w``, in the pieces
    of ``gemv_pieces`` from 4096 entries (centers times components) on, and the kernel the
    complex ``exp``; from ``_GEMV_ROWS`` centers on the product is the real GEMM of
    ``gemm_product`` and the kernel ``exp(x) * (cos(y) + i sin(y))`` for the conjugated
    exponent ``x + iy`` is written in the half-angle tangent form ``r (1 - t**2) + 2i r
    t``, with ``t = tan(y / 2)`` and ``r = exp(x) / (1 + t**2)``, unless some ``x``
    reaches 700 or some ``y`` is not finite. Returns ``(prediction, error, admitted,
    size)`` per sample.
    """
    centers, coefficients, self_kernels, squares = [], [], [], []
    trace = []
    for z, d in samples:
        zv = np.asarray(z, dtype=np.complex128)
        dv = np.complex128(d)
        kzz = self_kernel(zv, spec)
        if not centers:
            prediction = np.complex128(0)
            error = dv
            novel = True
        else:
            w = np.conj(zv)
            split = len(centers) >= GEMV_ROWS
            if split:
                g = gemm_product(np.array(centers), w)
            elif len(centers) * len(zv) >= 4096:
                g = gemv_pieces(centers, w)
            else:
                g = np.array(centers) @ w
            g *= -2.0
            g += np.add.reduce(w * w)
            g += np.array(squares)
            np.divide(g, -spec.sigma**2, out=g)
            x, y = g.real.copy(), -g.imag
            if split and np.max(x) < 700.0 and np.isfinite(np.sum(y)):
                t = np.tan(y * 0.5)
                r = np.exp(x) / (t * t + 1.0)
                kvec = np.empty_like(g)
                kvec.real = r * (1.0 - t * t)
                kvec.imag = r * t + r * t
            else:
                np.exp(g, out=g)
                kvec = np.conjugate(g, out=g)
            prediction = np.dot(np.array(coefficients), kvec)
            error = dv - prediction
            distance_sq = np.array(self_kernels) - 2.0 * kvec.real
            dis = np.sqrt(max(float(kzz + distance_sq.min()), 0.0))
            novel = dis >= delta1 and np.abs(error) >= delta2
        coefficient = mu * error
        admitted = bool(cmath.isfinite(coefficient) and novel)
        if admitted:
            centers.append(zv.copy())
            coefficients.append(coefficient)
            self_kernels.append(kzz)
            squares.append(np.add.reduce(zv * zv))
        trace.append((complex(prediction), complex(error), admitted, len(centers)))
    return trace


BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
GEMV_ROWS = ckaf.kernels._GEMV_ROWS  # rows of fewer centers take the GEMV form
SRC = Path(__file__).resolve().parents[1] / "src"

# rows just under the switch to the GEMM row, at 6 components and so in pieces, timed by
# per-thread CPU ticks (utime + stime, fields 14 and 15 of /proc/self/task/<tid>/stat)
THREAD_TICKS_CHILD = """
import json, os, time
import numpy as np
import ckaf.kernels
from ckaf.kernels import complex_gaussian, kernel_vector

def ticks():
    counts = {}
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        counts[int(tid)] = int(fields[11]) + int(fields[12])
    return counts

rng = np.random.default_rng(0)
m = ckaf.kernels._GEMV_ROWS - 1
centers = rng.standard_normal((m, 6)) + 1j * rng.standard_normal((m, 6))
squares = np.add.reduce(centers * centers, axis=1)
spec = complex_gaussian(5.0)
kernel_vector(centers[0] / 2, centers, spec, squares)
time.sleep(0.5)  # OpenBLAS's workers spin for a while after they start, then sleep
before = ticks()
for _ in range(20000):
    kernel_vector(centers[0] / 2, centers, spec, squares)
after = ticks()
gains = {tid: count - before.get(tid, 0) for tid, count in after.items()}
print(json.dumps({"entries": centers.size, "caller": os.getpid(), "gains": gains}))
"""


def openblas_on_linux() -> bool:
    """Whether this numpy runs on OpenBLAS under Linux, on more than one CPU."""
    if sys.platform != "linux" or (os.cpu_count() or 1) < 2:
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


class TestCklmsPredict:
    def test_empty_dictionary_predicts_zero(self):
        """An empty expansion evaluates to 0 for any query."""
        state = new_cklms_state(complex_gaussian(2.0), mu=1.0)
        assert cklms_predict(state, [1 + 2j, -0.5j]) == 0j

    def test_single_real_center_self_query(self):
        """One real center with a = 2 queried at itself gives 2."""
        state = new_cklms_state(complex_gaussian(1.5), mu=1.0)
        center = np.array([0.4 + 0j, -1.1 + 0j])
        state.dictionary.append(center, 2.0 + 0j, 1.0)
        value = cklms_predict(state, center)
        assert abs(value - 2.0) < 1e-14, f"expected 2, got {value}"

    def test_matches_term_by_term_summation(self):
        """The expansion agrees with an explicit scalar-loop summation."""
        rng = np.random.default_rng(11)
        spec = complex_gaussian(1.3)
        state = new_cklms_state(spec, mu=1.0)
        centers = 0.5 * (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for c, a in zip(centers, coeffs):
            state.dictionary.append(c, a, float(np.exp(4 * np.sum(c.imag**2) / spec.sigma**2)))
        z = np.array([0.2 - 0.1j, 0.05 + 0.3j])
        expected = 0j
        for c, a in zip(centers, coeffs):
            expected += a * np.exp(-np.sum((z - np.conj(c)) ** 2) / spec.sigma**2)
        value = cklms_predict(state, z)
        assert abs(value - expected) < 1e-13, f"expansion {value} != oracle {expected}"

    def test_dimension_mismatch_rejected(self):
        """Query dimension must match the stored centers."""
        state = new_cklms_state(complex_gaussian(1.0), mu=1.0)
        state.dictionary.append(np.array([1 + 0j, 0j]), 1 + 0j, 1.0)
        with pytest.raises(ValueError, match="^dimension mismatch: 1 components in z, 2 in centers$"):
            cklms_predict(state, [1 + 0j])
        with pytest.raises(ValueError, match="^dimension mismatch: 3 components in z, 2 in centers$"):
            cklms_step(state, [1 + 0j, 0j, 0j], 0j)
        assert state.iteration == 0 and state.dictionary.size == 1

    @pytest.mark.parametrize(
        "query, error",
        [([np.nan + 0j], ArithmeticError), ([[0.1 + 0j], [0.2 + 0j]], ValueError)],
        ids=["nan", "2-D"],
    )
    def test_query_validated_on_empty_dictionary(self, query, error):
        """An empty dictionary refuses the queries cklms_step refuses."""
        state = new_cklms_state(complex_gaussian(1.0), mu=1.0)
        with pytest.raises(error):
            cklms_predict(state, query)
        with pytest.raises(error):
            cklms_step(state, query, 0j)

    @pytest.mark.parametrize("family", ["complex-gaussian", "real-gaussian", "linear"])
    def test_a_posteriori_error_identity(self, family):
        """After an admitted step the error at the same input shrinks by 1 - mu kappa(z, z).

        The new term mu e kappa(z, z) is the only change to the expansion at z,
        so ``d - f_new(z) = e (1 - mu kappa(z, z))``: the error contracts only
        while the effective step mu kappa(z, z) stays in (0, 2).
        """
        rng = np.random.default_rng(0)
        samples = random_samples(rng, 600, 5)
        spec, mu = KernelSpec(family, 5.0), 0.3
        state = new_cklms_state(spec, mu, NoveltyConfig(0.1, 0.05))
        admitted = 0
        for z, d in samples:
            state, record = cklms_step(state, z, d)
            if not record.admitted:
                continue
            admitted += 1
            step = mu * self_kernel(z, spec)
            posterior = d - cklms_predict(state, z)
            bound = 1e-12 * abs(record.error) * max(1.0, step)
            assert abs(posterior - record.error * (1 - step)) <= bound, (admitted, posterior, step)
        assert admitted > 100


class TestKernelRow:
    @pytest.mark.parametrize("family", ["complex-gaussian", "real-gaussian", "linear"])
    @settings(max_examples=20, deadline=None)
    @given(
        # sizes on both sides of the buffer doublings at 64, 128 and 2048 centers, of the GEMV
        # in pieces from 4096 entries (683 centers of 6 components, 820 of 5) and of the switch
        # to the GEMM row at _GEMV_ROWS centers
        m=st.sampled_from(
            [1, 63, 64, 65, 128, 129, 682, 683, 819, 820, GEMV_ROWS - 1, GEMV_ROWS, 2048, 2049]
        ),
        dim=st.integers(1, 6),
        sigma=st.floats(1.0, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=682, dim=6, sigma=1.0, seed=1)
    @example(m=683, dim=6, sigma=1.0, seed=2)
    @example(m=GEMV_ROWS - 1, dim=6, sigma=1.0, seed=5)
    @example(m=GEMV_ROWS, dim=6, sigma=1.0, seed=6)
    @example(m=2048, dim=5, sigma=2.5, seed=3)
    @example(m=2049, dim=1, sigma=5.0, seed=4)
    def test_cached_squares_match_difference_form_and_survive_snapshot(
        self, family, m, dim, sigma, seed
    ):
        """The row over the dictionary's cached squares is kernel_matrix's row to 1e-13
        relative, in both row forms, and a restored snapshot gives it bit for bit.

        The worst seen over 600 such rows per Gaussian family at 63 to 2049 centers was
        3.7e-15: the expanded form cancels at sigma = 1, and both forms round alike there."""
        spec = KernelSpec(family, sigma)
        rng = np.random.default_rng(seed)
        # components in [-1, 1] with dim <= 6 and sigma >= 1 keep every value finite
        points = rng.uniform(-1, 1, (m + 1, dim)) + 1j * rng.uniform(-1, 1, (m + 1, dim))
        z, centers = points[0], points[1:]
        state = new_cklms_state(spec, mu=1.0)
        for c in centers:
            state.dictionary.append(c, 1 + 0j, self_kernel(c, spec))
        dictionary = state.dictionary
        row = kernel_vector(z, dictionary.centers, spec, dictionary.squares)
        expected = kernel_matrix(z[None], centers, spec)[0]
        assert row.dtype == np.complex128
        assert np.all(np.abs(row - expected) <= 1e-13 * self.scale(z, centers, expected, family))
        restored = restore_state(json.loads(json.dumps(snapshot_state(state)))).dictionary
        assert kernel_vector(z, restored.centers, spec, restored.squares).tobytes() == row.tobytes()

    @staticmethod
    def scale(z, centers, expected, family):
        """The size a row's rounding is relative to: the kernel value's modulus, or for
        the linear family, whose values can cancel to near zero, the size of its terms."""
        if family == "linear":
            return np.linalg.norm(z) * np.linalg.norm(centers, axis=1)
        return np.abs(expected)

    @pytest.mark.parametrize("family", ["complex-gaussian", "real-gaussian", "linear"])
    @pytest.mark.parametrize("m", [GEMV_ROWS - 1, GEMV_ROWS])
    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_noncontiguous_centers_match_difference_form(self, layout, m, family):
        """Centers that are not C-contiguous give kernel_matrix's row to 1e-13 relative, on
        both sides of the switch to the GEMM row, the GEMV side in pieces (6 components): a
        Fortran-ordered array, whose rows have no float64 view, and every other row of a
        larger array (``points[::2]``)."""
        spec = KernelSpec(family, 2.0)
        rng = np.random.default_rng(m)
        points = rng.uniform(-1, 1, (2 * m + 1, 6)) + 1j * rng.uniform(-1, 1, (2 * m + 1, 6))
        z = points[-1]
        centers = np.asfortranarray(points[:m]) if layout == "fortran" else points[:-1][::2]
        assert centers.shape == (m, 6) and not centers.flags.c_contiguous
        kept = centers.copy()
        squares = np.add.reduce(centers * centers, axis=1)
        row = kernel_vector(z, centers, spec, squares)
        expected = kernel_matrix(z[None], centers, spec)[0]
        assert np.all(np.abs(row - expected) <= 1e-13 * self.scale(z, centers, expected, family))
        assert np.array_equal(centers, kept)

    @pytest.fixture
    def tangent_calls(self, monkeypatch):
        """The values ``_split_conj_exp`` returned, one per call, while the test ran."""
        calls = []
        original = ckaf.kernels._split_conj_exp

        def recording(row, scale):
            calls.append(original(row, scale))
            return calls[-1]

        monkeypatch.setattr(ckaf.kernels, "_split_conj_exp", recording)
        return calls

    @pytest.mark.parametrize("m", [GEMV_ROWS - 1, GEMV_ROWS])
    @pytest.mark.parametrize("dim", [5, 6, 8])
    def test_switch_counts_centers(self, dim, m, tangent_calls):
        """A row of fewer than ``_GEMV_ROWS`` centers takes the GEMV form, which never calls
        the tangent form, also from 4096 entries (centers times components) on, where the
        GEMV runs in pieces; a row of ``_GEMV_ROWS`` centers or more takes the GEMM form,
        which calls it once. On both sides of the switch, at three widths, every kernel
        value is kernel_matrix's to 6e-15 relative at sigma = 5, the README's bound (the
        worst seen on unit-variance inputs was 6.7e-16)."""
        rng = np.random.default_rng(m * dim)
        points = rng.standard_normal((m + 1, dim)) + 1j * rng.standard_normal((m + 1, dim))
        points /= math.sqrt(2.0)
        z, centers = points[0], points[1:]
        assert centers.size > 4096
        spec = complex_gaussian(5.0)
        row = kernel_vector(z, centers, spec, np.add.reduce(centers * centers, axis=1))
        assert tangent_calls == ([] if m < GEMV_ROWS else [True])
        expected = kernel_matrix(z[None], centers, spec)[0]
        assert np.all(np.abs(row - expected) <= 6e-15 * np.abs(expected))

    @pytest.mark.parametrize("dim, m", [(6, 683), (5, 820), (8, 512), (6, GEMV_ROWS - 1)])
    def test_gemv_pieces_give_the_single_gemv_bits(self, dim, m):
        """A GEMV-form row of 4096 entries or more, computed in pieces, is the single GEMV's
        product bit for bit, also where the last piece would hold one row (683 centers of
        6 components, 820 of 5, 512 of 8), which numpy would compute as a dot product. The
        linear kernel's row is the conjugated product itself."""
        rng = np.random.default_rng(m * dim)
        points = rng.standard_normal((m + 20, dim)) + 1j * rng.standard_normal((m + 20, dim))
        centers = points[:m]
        squares = np.add.reduce(centers * centers, axis=1)
        for z in points[m:]:
            row = kernel_vector(z, centers, linear_kernel(), squares)
            assert row.tobytes() == np.conj(centers @ np.conj(z)).tobytes()
            assert row.tobytes() == np.conj(gemv_pieces(centers, np.conj(z))).tobytes()

    @pytest.mark.skipif(not openblas_on_linux(), reason="reads OpenBLAS threads' CPU in /proc")
    def test_rows_under_the_switch_stay_on_the_calling_thread(self):
        """With the BLAS thread count unpinned, 20 000 rows of 6 components just under the
        switch to the GEMM row (``_GEMV_ROWS - 1`` centers, more than 4096 entries, so the
        GEMV runs in pieces) leave every thread but the caller's idle: none gains more than
        one tick of CPU time. A single zgemv of 4096 entries or more runs on a second
        thread, which makes the call slower and burns a second core. The child process
        reads only its own threads' counters."""
        env = {key: value for key, value in os.environ.items() if key not in BLAS_PINS}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            [sys.executable, "-c", THREAD_TICKS_CHILD],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["entries"] == 6 * (GEMV_ROWS - 1) > 4096
        gains = {int(tid): ticks for tid, ticks in report["gains"].items()}
        assert gains.pop(report["caller"]) > 0
        assert all(ticks <= 1 for ticks in gains.values()), gains

    @staticmethod
    def large_row_and_complex_exp(z, centers, sigma):
        """The GEMM-form row of ``z`` over ``centers``, the complex exp of its scaled exponent
        computed in the row's own order, and that scaled exponent. ``centers`` must have
        at least the switch's ``_GEMV_ROWS`` rows, so the row takes the GEMM form."""
        assert len(centers) >= GEMV_ROWS
        spec = complex_gaussian(sigma)
        squares = np.add.reduce(centers * centers, axis=1)
        w = np.conj(z)
        product = gemm_product(centers, -2.0 * w)
        exponent = (product + np.add.reduce(w * w) + squares) * (-1.0 / spec.sigma**2)
        row = kernel_vector(z, centers, spec, squares)
        return row, np.conj(np.exp(exponent)), exponent

    @pytest.mark.parametrize(
        "sigma", [0.1, 2.0**-511], ids=["real-part-overflows", "smallest-width"]
    )
    def test_overflowing_exponent_takes_the_complex_exp(self, sigma, tangent_calls):
        """A GEMM-form row whose exponent's real part overflows is the complex exp of the
        same exponent entry by entry, inf and NaN in the same places.

        At sigma = 0.1 the first center's exponent is real and about 1300, so its kernel
        value is inf + 0j where the split exp(x) * sin(y) would give inf * 0 = NaN. At the
        smallest width KernelSpec accepts, 2**-511, the factor -1 / sigma**2 is -2**1022,
        so both parts of the exponent overflow and the complex exp gives NaN imaginary
        parts. The four centers are repeated past the switch to the GEMM row, whose tangent
        form must see the row and hand it back."""
        z = np.array([0.5 + 3j, -0.25 + 2j])  # large imaginary parts for a small sigma
        centers = np.array([[0.5, -0.25], [1.0, 0.5], [-0.75, 0.25], [5.0, -4.0]], dtype=complex)
        centers = np.tile(centers, (513, 1))  # 2052 centers
        with np.errstate(over="ignore", invalid="ignore"):
            row, expected, exponent = self.large_row_and_complex_exp(z, centers, sigma)
        assert tangent_calls == [False]
        assert not np.max(exponent.real) < 700.0
        assert expected[0].real == math.inf and expected[0].imag == 0.0
        if sigma != 0.1:
            assert math.isnan(expected[1].imag)
        assert np.array_equal(np.isnan(row), np.isnan(expected))
        assert np.array_equal(np.isinf(row.real), np.isinf(expected.real))
        assert np.array_equal(np.isinf(row.imag), np.isinf(expected.imag))
        assert row.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_tangent_form_matches_complex_exp_on_unit_variance_data(self, seed, tangent_calls):
        """At sigma = 5 on unit-variance inputs every value of the tangent-form row is the
        complex exp of the same exponent to 1e-15 relative, the README's bound (the worst
        seen over 600 000 such values was 6.6e-16)."""
        rng = np.random.default_rng(seed)
        dim = 5
        points = rng.standard_normal((3001, dim)) + 1j * rng.standard_normal((3001, dim))
        points /= math.sqrt(2.0)
        row, expected, exponent = self.large_row_and_complex_exp(points[0], points[1:], 5.0)
        assert tangent_calls == [True]
        assert np.max(exponent.real) < 700.0
        assert np.all(np.abs(row - expected) <= 1e-15 * np.abs(expected))

    @pytest.mark.parametrize("where", ["near-odd-multiples-of-pi", "phase-up-to-1e6"])
    def test_tangent_form_near_the_poles_of_tan_and_at_large_phases(self, where, tangent_calls):
        """Where ``y / 2`` lies within 1e-6 of an odd multiple of pi/2 (so ``tan(y / 2)`` is
        1e6 to 1e16) or ``|y|`` reaches 1e6, the tangent form stays finite and is the
        complex exp to 4e-15 relative (the worst seen was 5.7e-16).

        The query is 0 and the centers are ``(-s (1 + i), a)``, so the exponent is the
        cached square: its phase ``y = 2 s**2`` at sigma = 1 is set by ``s`` and its real
        part ``-a**2`` by ``a``. The 84 phases near the poles are repeated past the switch
        to the GEMM row, each time with new real parts."""
        rng = np.random.default_rng(17)
        if where == "near-odd-multiples-of-pi":
            odd = np.array([1, 3, 5, 15, 201, 24691, 636619]) * (math.pi / 2)
            offsets = np.array([1e-6, 3e-7, 1e-8, 1e-10, 1e-12, 0.0])
            half_phase = np.tile((odd[:, None] + np.concatenate([offsets, -offsets])).ravel(), 25)
        else:
            half_phase = np.concatenate(
                [rng.uniform(0.0, 5e5, 2000), 10 ** rng.uniform(-8, 5.7, 500)]
            )
        s = np.sqrt(half_phase)
        a = rng.uniform(-1.5, 1.5, s.size)
        centers = np.column_stack([-s * (1 + 1j), a]).astype(complex)
        row, expected, exponent = self.large_row_and_complex_exp(np.zeros(2, complex), centers, 1.0)
        assert tangent_calls == [True]
        t = np.tan(-exponent.imag / 2)
        if where == "near-odd-multiples-of-pi":
            assert np.min(np.abs(t)) > 9e5 and np.max(np.abs(t)) > 1e15
        else:
            assert np.max(np.abs(exponent.imag)) > 9.9e5
        assert np.all(np.isfinite(row))
        assert np.all(np.abs(row - expected) <= 4e-15 * np.abs(expected))


class TestDictionaryViews:
    VIEWS = ("centers", "coefficients", "self_kernels", "squares")

    def test_views_follow_appends_across_buffer_doublings(self):
        """After every append the four views have the new length and the stored values;
        a view taken earlier keeps its length."""
        rng = np.random.default_rng(95)
        points = rng.standard_normal((129, 3)) + 1j * rng.standard_normal((129, 3))
        dictionary = Dictionary()
        for k, c in enumerate(points):
            before = dictionary.centers
            dictionary.append(c, complex(k, -k), float(k))
            size = k + 1
            if size not in (63, 64, 65, 128, 129):
                continue
            assert before.shape[0] == size - 1
            assert np.array_equal(dictionary.centers, points[:size])
            assert np.array_equal(dictionary.coefficients, np.arange(size) * (1 - 1j))
            assert np.array_equal(dictionary.self_kernels, np.arange(size, dtype=float))
            expected_squares = np.add.reduce(points[:size] * points[:size], axis=1)
            assert np.array_equal(dictionary.squares, expected_squares)

    def test_views_are_read_only(self):
        """No view lets a caller write into the dictionary, the empty one included."""
        dictionary = Dictionary()
        assert dictionary.centers.shape == (0, 0)
        with pytest.raises(ValueError):
            dictionary.centers[...] = 1.0
        dictionary.append(np.array([0.5 + 0.5j, 1.0]), 1 + 0j, 1.0)
        for name in self.VIEWS:
            view = getattr(dictionary, name)
            with pytest.raises(ValueError):
                view[0] = 0.0

    @pytest.mark.parametrize("size", [1, 64])
    def test_append_of_another_width_changes_nothing(self, size):
        """A center of another width is refused before anything is stored, also when the
        buffers are full (size 64) and the append would have doubled them."""
        rng = np.random.default_rng(97)
        points = rng.standard_normal((size + 1, 3)) + 1j * rng.standard_normal((size + 1, 3))
        dictionary = Dictionary()
        for k, c in enumerate(points[:size]):
            dictionary.append(c, complex(k, 1), float(k))
        before = dictionary.views
        snapshot = [view.copy() for view in before]
        with pytest.raises(ValueError, match="center has 2 components, dictionary stores 3"):
            dictionary.append(points[size, :2], 1j, 1.0)
        assert dictionary.size == size
        assert dictionary.views is before
        for name, view, kept in zip(self.VIEWS, before, snapshot):
            assert getattr(dictionary, name) is view
            assert view.shape == kept.shape and view.tobytes() == kept.tobytes()
        dictionary.append(points[size], 2j, 2.0)  # a matching center still goes in
        assert dictionary.size == size + 1
        assert np.array_equal(dictionary.centers, points)

    def test_views_are_c_contiguous_across_doublings(self):
        """At every size, across the buffer doublings and the switch to the GEMM row at
        ``_GEMV_ROWS`` centers, the views are read-only (size, dim) views of the stored
        values, views taken before keep theirs, the centers are C-contiguous (the GEMM row
        multiplies their float64 view without a copy), and a restored dictionary has views
        equal as raw bytes."""
        rng = np.random.default_rng(99)
        points = rng.standard_normal((2049, 3)) + 1j * rng.standard_normal((2049, 3))
        spec = complex_gaussian(2.0)
        state = new_cklms_state(spec, mu=0.5)
        dictionary = state.dictionary
        taken = {}
        for k, c in enumerate(points):
            dictionary.append(c, complex(k, -k), self_kernel(c, spec))
            if k + 1 in (1, 64, 65, GEMV_ROWS - 1, GEMV_ROWS, 1024, 1025, 2048, 2049):
                taken[k + 1] = dictionary.views
        for size, views in taken.items():
            centers = views[0]
            assert centers.shape == (size, 3)
            assert centers.flags.c_contiguous
            assert np.array_equal(centers, points[:size])
            assert np.array_equal(views[1], np.arange(size) * (1 - 1j))
            assert np.array_equal(views[3], np.add.reduce(points[:size] * points[:size], axis=1))
            for view in views:
                with pytest.raises(ValueError):
                    view[0] = 0.0
        restored = restore_state(json.loads(json.dumps(snapshot_state(state)))).dictionary
        assert restored.centers.flags.c_contiguous
        for name in self.VIEWS:
            original = getattr(dictionary, name)
            assert getattr(restored, name).tobytes() == original.tobytes()

    def test_restored_dictionary_has_equal_views(self):
        """A dictionary rebuilt from a snapshot exposes the same four views."""
        state = new_cklms_state(complex_gaussian(1.5), mu=0.5)
        for z, d in random_samples(np.random.default_rng(96), 70, 2):
            state, _ = cklms_step(state, z, d)
        restored = restore_state(json.loads(json.dumps(snapshot_state(state))))
        for name in self.VIEWS:
            original = getattr(state.dictionary, name)
            assert getattr(restored.dictionary, name).tobytes() == original.tobytes()


class TestCklmsStep:
    def test_first_sample_always_admitted(self):
        """With an empty dictionary e = d and the coefficient is mu * e."""
        state = new_cklms_state(complex_gaussian(5.0), mu=1.0, novelty=NoveltyConfig(0.5, 0.5))
        state, record = cklms_step(state, [0.2 + 0.1j], 1 + 0j)
        assert record.admitted
        assert record.error == 1 + 0j
        assert record.prediction == 0j
        assert state.dictionary.coefficients[0] == 1 + 0j
        assert state.dictionary.size == 1
        assert state.iteration == 1

    def test_duplicate_center_rejected(self):
        """A repeated input has RKHS distance 0 and is rejected when delta1 > 0."""
        state = new_cklms_state(complex_gaussian(1.0), mu=0.5, novelty=NoveltyConfig(0.1, 0.0))
        z = np.array([0.3 + 0.7j])
        state, _ = cklms_step(state, z, 1 - 1j)
        state, record = cklms_step(state, z, 0.5 + 0j)
        assert not record.admitted
        assert state.dictionary.size == 1, "rejection must leave the dictionary unchanged"
        assert state.iteration == 2, "rejection still consumes an iteration"

    def test_small_error_rejected(self):
        """A distant sample whose prediction is already accurate is rejected."""
        sigma, mu = 1.0, 0.5
        state = new_cklms_state(complex_gaussian(sigma), mu=mu, novelty=NoveltyConfig(0.1, 0.01))
        z0, d0 = 0.3 + 0.4j, 0.5 - 0.2j
        state, _ = cklms_step(state, [z0], d0)
        z1 = -0.9 + 0.2j
        almost = complex(mu * d0 * cmath.exp(-((z1 - z0.conjugate()) ** 2) / sigma**2))
        state, record = cklms_step(state, [z1], almost + 0.004)
        assert abs(record.error) < 0.01, f"setup error: |e| = {abs(record.error)}"
        assert not record.admitted
        assert state.dictionary.size == 1

    def test_hand_trace_against_brute_force(self):
        """Scalar four-sample trace reproduces an independent reference exactly."""
        sigma, mu, d1, d2 = 1.0, 0.5, 0.1, 0.01
        z0 = 0.3 + 0.4j
        z1 = 0.31 + 0.41j
        z2 = -0.9 + 0.2j
        pred_z2 = mu * (0.5 - 0.2j) * cmath.exp(-((z2 - z0.conjugate()) ** 2) / sigma**2)
        samples = [
            (z0, 0.5 - 0.2j),
            (z1, 1.0 + 0j),
            (z2, complex(pred_z2) + 0.004),
            (z2 + 0.8, -0.7 + 0.3j),
        ]
        expected = brute_force_cklms(samples, sigma, mu, d1, d2)
        assert [t[2] for t in expected] == [True, False, False, True], "trace must cover both rejection branches"
        state = new_cklms_state(complex_gaussian(sigma), mu=mu, novelty=NoveltyConfig(d1, d2))
        for (z, d), (pred, err, admitted, size) in zip(samples, expected):
            state, record = cklms_step(state, [z], d)
            assert abs(record.prediction - pred) < 1e-13, f"prediction {record.prediction} != {pred}"
            assert abs(record.error - err) < 1e-13
            assert record.admitted == admitted
            assert record.dict_size == size

    def test_step_prediction_matches_predict(self):
        """The record's prediction equals cklms_predict on the pre-step state."""
        rng = np.random.default_rng(3)
        state = new_cklms_state(complex_gaussian(2.0), mu=0.8)
        for z, d in random_samples(rng, 12, 3):
            before = cklms_predict(state, z)
            state, record = cklms_step(state, z, d)
            assert record.prediction == before

    def test_non_finite_error_never_admitted(self):
        """A diverged prediction (inf - inf) is rejected even with sparsification off."""
        state = new_cklms_state(complex_gaussian(1.0), mu=1.0)
        state.dictionary.append(np.array([0.0 + 0j]), complex(np.inf), 1.0)
        state.dictionary.append(np.array([1.0 + 0j]), complex(-np.inf), 1.0)
        with np.errstate(invalid="ignore"):
            state, record = cklms_step(state, [0.5 + 0j], 0j)
        assert not np.isfinite(record.error)
        assert record.admitted is False
        assert record.dict_size == 2
        assert not np.any(np.isnan(state.dictionary.coefficients))

    @pytest.fixture
    def rooted(self, monkeypatch):
        """The argument of every ``math.sqrt`` call in ``cklms_step``: the clamped squared
        novelty distance of each step on a non-empty dictionary."""
        seen = []

        def sqrt(x):
            seen.append(x)
            return math.sqrt(x)

        namespace = types.SimpleNamespace(**{**vars(math), "sqrt": sqrt})
        monkeypatch.setattr(ckaf.filters, "math", namespace)
        return seen

    @staticmethod
    def one_center_state(delta1):
        state = new_cklms_state(complex_gaussian(1.0), 0.5, NoveltyConfig(delta1, 0.0))
        state, _ = cklms_step(state, [0j], 1 + 0j)
        return state

    def test_infinite_real_part_in_the_row_is_distance_zero(self, monkeypatch, rooted):
        """A row entry with a +inf real part makes that center's squared distance -inf,
        clamped to 0, so the sample is rejected when delta1 > 0."""
        state = self.one_center_state(delta1=0.1)
        row = np.array([complex(math.inf, 0.0)])
        monkeypatch.setattr(ckaf.filters, "kernel_vector", lambda *args: row)
        with np.errstate(invalid="ignore"):
            state, record = cklms_step(state, [0.5 + 0j], 1 + 0j)
        assert rooted == [0.0]
        assert (record.admitted, record.dict_size) == (False, 1)

    def test_infinite_self_kernel_against_infinite_row_is_nan(self, rooted):
        """A query whose self-kernel overflows (exp(3600) at sigma 1) against a center whose
        kernel value overflows too (exp(900)) gives inf - inf: the distance is NaN, which
        compares false with delta1, and the sample is rejected."""
        state = self.one_center_state(delta1=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            state, record = cklms_step(state, [30j], 1 + 0j)
        assert len(rooted) == 1 and math.isnan(rooted[0])
        assert (record.admitted, record.dict_size) == (False, 1)

    def test_nan_row_entry_is_rejected(self, monkeypatch, rooted):
        """A NaN anywhere in the row makes the nearest distance NaN, and the sample is
        rejected even with both thresholds 0."""
        state = self.one_center_state(delta1=0.0)
        state, _ = cklms_step(state, [2.0 + 0j], 0.5 + 0j)
        row = np.array([0.5 + 0j, complex(math.nan, 0.0)])
        monkeypatch.setattr(ckaf.filters, "kernel_vector", lambda *args: row)
        with np.errstate(invalid="ignore"):
            state, record = cklms_step(state, [1.0 + 0j], 1 + 0j)
        assert len(rooted) == 2 and math.isnan(rooted[1])
        assert (record.admitted, record.dict_size) == (False, 2)

    def test_overflowing_coefficient_never_admitted(self):
        """A finite error whose coefficient mu * e overflows is not admitted, on an empty or a
        non-empty dictionary, and the state still round-trips through a snapshot."""
        state = new_cklms_state(complex_gaussian(1.0), mu=2.0)
        state, record = cklms_step(state, [0.1 + 0j], 1e308 + 0j)
        assert (record.error, record.admitted, record.dict_size) == (1e308, False, 0)
        state, record = cklms_step(state, [0.1 + 0j], 0.5 + 0j)
        assert (record.admitted, record.dict_size) == (True, 1)
        state, record = cklms_step(state, [3.0 + 0j], 1e308 + 0j)
        assert cmath.isfinite(record.error) and not record.admitted
        assert state.dictionary.coefficients.tolist() == [1 + 0j]
        restored = restore_state(json.loads(json.dumps(snapshot_state(state))))
        assert snapshot_state(restored) == snapshot_state(state)

    def test_squared_error_consistent(self):
        """squared_error equals |error|^2 within rounding."""
        rng = np.random.default_rng(4)
        state = new_cklms_state(complex_gaussian(1.0), mu=1.0)
        for z, d in random_samples(rng, 10, 2):
            state, record = cklms_step(state, z, d)
            assert record.squared_error == pytest.approx(abs(record.error) ** 2, rel=1e-12)

    def test_non_finite_target_rejected(self):
        """A non-finite target raises a numeric error."""
        state = new_cklms_state(complex_gaussian(1.0), mu=1.0)
        with pytest.raises(ArithmeticError):
            cklms_step(state, [0.1 + 0j], complex("inf"))

    def test_non_finite_input_rejected(self):
        """A NaN input component raises a numeric error."""
        state = new_cklms_state(complex_gaussian(1.0), mu=1.0)
        with pytest.raises(ArithmeticError):
            cklms_step(state, [np.nan + 0j], 1 + 0j)

    @pytest.mark.parametrize("size", [0, 1])
    @pytest.mark.parametrize(
        "z, d, error",
        [
            ([0.1 + 0j, np.nan], 1 + 0j, ArithmeticError),
            ([0.1 + 0j, 0.2j], complex("nan"), ArithmeticError),
            ([[0.1 + 0j, 0.2j]], 1 + 0j, ValueError),
            ([], 1 + 0j, ValueError),
            ([0.1 + 0j, 0.2j], [1 + 0j, 2 + 0j], TypeError),
            (["0.1+1j", "0.2j"], 1 + 0j, TypeError),
            ([b"0.1", b"0.2j"], 1 + 0j, TypeError),
            ([0.1 + 0j, 0.2j], "1+2j", TypeError),
            ([0.1 + 0j, 0.2j], None, TypeError),
        ],
        ids=[
            "nan-input", "nan-target", "2-D-input", "empty-input", "two-element-target",
            "string-input", "bytes-input", "string-target", "None-target",
        ],
    )
    def test_malformed_sample_refused_and_state_kept(self, size, z, d, error):
        """A malformed input or target raises before the step changes anything, with an
        empty or a non-empty dictionary."""
        state = new_cklms_state(complex_gaussian(1.0), mu=1.0)
        for _ in range(size):
            state, _ = cklms_step(state, [0.3 + 0j, -0.1j], 0.5 + 0j)
        with pytest.raises(error):
            cklms_step(state, z, d)
        assert (state.iteration, state.dictionary.size) == (size, size)

    def test_invalid_parameters_rejected(self):
        """Nonpositive mu, negative thresholds and a negative or non-integer iteration are
        usage errors."""
        with pytest.raises(ValueError):
            new_cklms_state(complex_gaussian(1.0), mu=0.0)
        with pytest.raises(ValueError):
            NoveltyConfig(-0.1, 0.0)
        for thresholds, name in [((math.nan, 0.0), "delta1"), ((0.0, math.nan), "delta2")]:
            with pytest.raises(ValueError, match=f"^{name} must be nonnegative and finite, got nan$"):
                NoveltyConfig(*thresholds)
        for thresholds, name in [((math.inf, 0.0), "delta1"), ((0.0, math.inf), "delta2")]:
            with pytest.raises(ValueError, match=f"^{name} must be nonnegative and finite, got inf$"):
                NoveltyConfig(*thresholds)
        with pytest.raises(ValueError, match="sigma must be positive and finite, got inf"):
            new_cklms_state(complex_gaussian(math.inf), mu=1.0)
        with pytest.raises(ValueError, match="^iteration must be nonnegative and finite, got -3$"):
            CklmsState(CklmsConfig(complex_gaussian(1.0), 0.5), iteration=-3)
        # a snapshot holds only an int count, so a state that could not be restored is refused
        for iteration in (2.5, 3.0, True, "3"):
            with pytest.raises(TypeError, match=f"^iteration must be an int, got {iteration!r}$"):
                CklmsState(CklmsConfig(complex_gaussian(1.0), 0.5), iteration=iteration)
        # a numpy int passes, as it does for every other int setting, and is held as an int
        state = CklmsState(CklmsConfig(complex_gaussian(1.0), 0.5), iteration=np.int64(3))
        assert state.iteration == 3 and type(state.iteration) is int

    def test_state_holds_its_settings_frozen(self):
        """The state keeps one settings object, which refuses assignment: a step size can no
        longer be set to a value its check never saw."""
        state = new_cklms_state(complex_gaussian(1.0), 0.5, NoveltyConfig(0.1, 0.2))
        assert [f.name for f in dataclasses.fields(state)] == ["config", "dictionary", "iteration"]
        assert state.config == CklmsConfig(complex_gaussian(1.0), 0.5, NoveltyConfig(0.1, 0.2))
        for name, value in [("mu", math.nan), ("kernel", complex_gaussian(2.0)), ("novelty", None)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(state.config, name, value)
        assert state.config.mu == 0.5
        # the settings come as one checked object, not as the loose values they hold
        with pytest.raises(TypeError, match="^config must be a CklmsConfig, got KernelSpec$"):
            CklmsState(complex_gaussian(1.0), 0.5)
        # a linear state holds its LinearLmsConfig the same way
        state = new_linear_state(2, LinearLmsConfig(0.5, 1e-4), widely_linear=True)
        assert [f.name for f in dataclasses.fields(state)] == ["config", "w", "g"]
        assert state.config == LinearLmsConfig(0.5, 1e-4)
        for name, value in [("mu", math.nan), ("epsilon", -5.0)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(state.config, name, value)
        assert state.config.epsilon == 1e-4
        # a stray attribute is no setting: the step reads only the config
        state.epsilon = -5.0
        _, record = nclms_step(state, [0.1, 0.1], 1.0)
        _, expected = nclms_step(new_linear_state(2, state.config, True), [0.1, 0.1], 1.0)
        assert record == expected
        # weights passed where the settings go: the old LinearFilterState(w, g) call
        with pytest.raises(TypeError, match="^config must be a LinearLmsConfig, got ndarray$"):
            LinearFilterState(np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize(
        "state, step",
        [
            (new_cklms_state(complex_gaussian(1.0), 0.5), cklms_step),
            (new_linear_state(2, LinearLmsConfig(0.5)), nclms_step),
        ],
        ids=["CklmsState", "LinearFilterState"],
    )
    def test_config_assignment_is_checked(self, state, step):
        """Assigning settings that are not the state's config type is refused by the
        constructor's check, and the state keeps stepping and snapshotting with its own."""
        config = state.config
        kind = type(config).__name__
        with pytest.raises(TypeError, match=f"^config must be a {kind}, got float$"):
            state.config = 0.5
        assert state.config is config
        _, record = step(state, [0.1 + 0.2j, -0.3j], 1j)
        assert record.squared_error == 1.0
        assert snapshot_state(state)["mu"] == 0.5

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 6),
        sigma=st.floats(0.5, 6.0),
        mu=st.floats(0.05, 2.0),
        imag_scale=st.floats(0.0, 1.5),
        delta1=st.sampled_from([0.0, 0.01, 0.1]),
        delta2=st.sampled_from([0.0, 0.01, 0.1]),
        n=st.just(150),
    )
    # thresholds 0 admit all 150 samples, across the buffer doublings at 64 and 128 centers
    @example(seed=7, dim=5, sigma=5.0, mu=1.0, imag_scale=1.0, delta1=0.0, delta2=0.0, n=150)
    # diverges: errors grow past 1e308 in modulus, then to inf and NaN; finite errors that
    # mu = 1.5 overflows are not admitted
    @example(seed=3, dim=5, sigma=1.0, mu=1.5, imag_scale=1.2, delta1=0.0, delta2=0.0, n=150)
    # thresholds 0 admit all 1100 samples, across the GEMV in pieces from 820 centers of 5
    # components, the switch to the GEMM row at _GEMV_ROWS and the buffer doubling that
    # admits center 1025
    @example(seed=13, dim=5, sigma=5.0, mu=0.5, imag_scale=0.7, delta1=0.0, delta2=0.0, n=1100)
    # thresholds 0 admit all 2100 samples, across the GEMV in pieces from 683 centers of 6
    # components and the buffer doubling that admits center 2049
    @example(seed=11, dim=6, sigma=5.0, mu=0.5, imag_scale=0.5, delta1=0.0, delta2=0.0, n=2100)
    def test_step_bits_match_numpy_scalar_step(
        self, seed, dim, sigma, mu, imag_scale, delta1, delta2, n
    ):
        """Predictions and errors equal the numpy-scalar step's as raw bytes, diverged runs
        included, and admissions and dictionary sizes are equal."""
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, dim)) + 1j * imag_scale * rng.standard_normal((n, dim))
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        samples = list(zip(z, d))
        spec = complex_gaussian(sigma)
        state = new_cklms_state(spec, mu, NoveltyConfig(delta1, delta2))
        with np.errstate(all="ignore"):
            expected = numpy_scalar_cklms(samples, spec, mu, delta1, delta2)
            records = [cklms_step(state, zi, di)[1] for zi, di in samples]
        got = np.array([r.prediction for r in records])
        assert got.tobytes() == np.array([e[0] for e in expected]).tobytes()
        got = np.array([r.error for r in records])
        assert got.tobytes() == np.array([e[1] for e in expected]).tobytes()
        assert [r.admitted for r in records] == [e[2] for e in expected]
        assert [r.dict_size for r in records] == [e[3] for e in expected]
        if delta1 == delta2 == 0.0:  # every finite coefficient is admitted
            assert state.dictionary.size == sum(cmath.isfinite(mu * r.error) for r in records)
        if n > 1000:
            assert state.dictionary.size >= GEMV_ROWS, "the run must reach the GEMM row"

    def test_error_modulus_beyond_float_range(self):
        """A finite error whose modulus exceeds the float range compares as |e| = inf."""
        state = new_cklms_state(complex_gaussian(1.0), 0.5, NoveltyConfig(0.1, 1.0))
        state, _ = cklms_step(state, [0.1 + 0j], 1 + 0j)
        state, record = cklms_step(state, [3.0 + 0j], 1.5e308 + 1.5e308j)
        assert record.admitted
        assert cmath.isfinite(record.error) and record.squared_error == math.inf

    def test_real_inputs_match_numpy_scalar_step(self):
        """On real inputs, where an exactly zero imaginary part may change sign, every value
        equals the numpy-scalar step's."""
        rng = np.random.default_rng(90)
        samples = list(zip(rng.standard_normal((150, 4)) + 0j, rng.standard_normal(150) + 0j))
        spec = complex_gaussian(2.0)
        state = new_cklms_state(spec, 0.5, NoveltyConfig(0.05, 0.01))
        expected = numpy_scalar_cklms(samples, spec, 0.5, 0.05, 0.01)
        records = [cklms_step(state, z, d)[1] for z, d in samples]
        assert np.array_equal([r.prediction for r in records], [e[0] for e in expected])
        assert np.array_equal([r.error for r in records], [e[1] for e in expected])
        assert [(r.admitted, r.dict_size) for r in records] == [e[2:] for e in expected]

    def test_kernel_calls_resolved_per_step(self, monkeypatch):
        """Each step calls the module globals self_kernel once and, on a non-empty
        dictionary, kernel_vector once, looked up at call time; a tracer that wraps
        these two names counts every kernel evaluation."""
        calls = {"self_kernel": 0, "kernel_vector": 0}

        def counting(name):
            original = getattr(ckaf.filters, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        state = new_cklms_state(complex_gaussian(2.0), 0.5, NoveltyConfig(0.1, 0.01))
        samples = random_samples(np.random.default_rng(91), 40, 3)
        for name in calls:
            monkeypatch.setattr(ckaf.filters, name, counting(name))
        for z, d in samples:
            state, _ = cklms_step(state, z, d)
        assert calls == {"self_kernel": 40, "kernel_vector": 39}


class TestNclmsStep:
    def test_zero_weights_predict_zero(self):
        """With w = 0 the error equals the target."""
        state = new_linear_state(3, LinearLmsConfig(0.5))
        state, record = nclms_step(state, [1 + 1j, 0j, 0.5j], 2 - 1j)
        assert record.prediction == 0j
        assert record.error == 2 - 1j

    def test_one_step_exact_fit_on_basis_vector(self):
        """A unit basis input with eps = 0 is fit exactly in one step."""
        state = new_linear_state(2, LinearLmsConfig(1.0, epsilon=0.0))
        z = np.array([1 + 0j, 0j])
        state, _ = nclms_step(state, z, 1 + 0j)
        assert np.array_equal(state.w, z), f"expected w = e1, got {state.w}"
        _, record = nclms_step(state, z, 1 + 0j)
        assert record.prediction == 1 + 0j

    def test_ten_step_trace_matches_reference(self):
        """Predictions agree with a scripted normalized LMS recursion."""
        rng = np.random.default_rng(21)
        samples = random_samples(rng, 10, 4)
        mu, eps = 0.3, 1e-6
        w = np.zeros(4, dtype=np.complex128)
        reference = []
        for z, d in samples:
            pred = np.vdot(w, z)
            err = d - pred
            w = w + (mu / (eps + np.vdot(z, z).real)) * np.conj(err) * z
            reference.append(pred)
        state = new_linear_state(4, LinearLmsConfig(mu, eps))
        for (z, d), expected in zip(samples, reference):
            state, record = nclms_step(state, z, d)
            assert abs(record.prediction - expected) < 1e-13

    @pytest.mark.parametrize("epsilon", [-1e-6, math.nan, math.inf])
    def test_bad_epsilon_rejected(self, epsilon):
        """epsilon must be nonnegative and finite; NaN, which passes every < test, is refused too.
        LinearLmsConfig is its only check: a state holds it, frozen, so no step sees another."""
        message = f"^epsilon must be nonnegative and finite, got {epsilon}$"
        with pytest.raises(ValueError, match=message):
            LinearLmsConfig(mu=0.1, epsilon=epsilon)
        state = new_linear_state(2, LinearLmsConfig(0.1))
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(state.config, epsilon=epsilon)

    def test_weights_must_be_a_non_empty_vector(self):
        """A weight vector no input could step, or one whose predictions would be non-finite,
        is refused when the state is built."""
        message = "weights must be a 1-D vector with at least one component"
        config = LinearLmsConfig(0.1)
        with pytest.raises(ValueError, match=message):
            new_linear_state(0, config)
        with pytest.raises(ValueError, match=message):
            LinearFilterState(config, np.zeros((2, 2), dtype=complex))
        for value in (np.nan + 0j, complex(0.0, np.inf)):
            with pytest.raises(ValueError, match="^weights have non-finite components$"):
                LinearFilterState(config, np.array([value]))
            with pytest.raises(ValueError, match="^weights have non-finite components$"):
                LinearFilterState(config, np.array([1 + 0j, value]), np.zeros(2, dtype=complex))
            message = "^conjugate weights have non-finite components$"
            with pytest.raises(ValueError, match=message):
                LinearFilterState(config, np.zeros(2, dtype=complex), np.array([value, 0j]))

    @pytest.mark.parametrize("w", [np.zeros(2), [0j, 0j]], ids=["real-array", "list"])
    def test_weights_are_stored_as_complex_arrays(self, w):
        """Real or list weights are converted, so the first step runs as on zero complex weights."""
        config = LinearLmsConfig(0.5)
        state, record = nclms_step(LinearFilterState(config, w), [1 + 1j, 1], 1j)
        _, expected = nclms_step(new_linear_state(2, config), [1 + 1j, 1], 1j)
        assert state.w.dtype == np.complex128
        assert record == expected

    def test_complex_weights_are_kept_not_copied(self):
        """A complex128 weight array is the state's own, so steps update it in place."""
        w, g = np.zeros(2, dtype=np.complex128), np.zeros(2, dtype=np.complex128)
        state = LinearFilterState(LinearLmsConfig(0.5), w, g)
        assert state.w is w and state.g is g
        nclms_step(state, [1 + 1j, 1], 1j)
        assert w.any() and g.any()

    @pytest.mark.parametrize("algorithm", ["nclms", "wl_nclms"])
    def test_run_sized_by_an_empty_first_input_rejected(self, algorithm):
        """The first input sizes the weights, so it is refused as any step refuses it."""
        with pytest.raises(FilterStepError, match="^step 0: input must be a 1-D vector"):
            run_filter([(np.zeros(0, dtype=complex), 0j)], algorithm, LinearLmsConfig(mu=0.1))

    @pytest.mark.parametrize("widely_linear", [False, True], ids=["nclms", "wl_nclms"])
    @pytest.mark.parametrize("mu", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_mu_rejected_before_the_state_changes(self, mu, widely_linear):
        """A step size that is not positive and finite is refused by LinearLmsConfig, its only
        check: NaN or inf would turn the weights into NaN, 0 never learns, -1 steps away. The
        state holds its config frozen, so no step can see such a value."""
        with pytest.raises(ValueError, match=f"^mu must be positive and finite, got {mu}$"):
            LinearLmsConfig(mu)
        state = new_linear_state(2, LinearLmsConfig(0.5), widely_linear=widely_linear)
        nclms_step(state, [1 + 1j, 0.5], 1)
        with pytest.raises(ValueError, match=f"^mu must be positive and finite, got {mu}$"):
            dataclasses.replace(state.config, mu=mu)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.config.mu = mu
        assert state.config.mu == 0.5

    def test_dimension_mismatch_rejected(self):
        """Input length must match the weight vector."""
        state = new_linear_state(3, LinearLmsConfig(0.1))
        with pytest.raises(ValueError):
            nclms_step(state, [1 + 0j], 0j)


class TestWlNclmsStep:
    def test_zero_weights_predict_zero(self):
        """With w = g = 0 the output is 0."""
        state = new_linear_state(2, LinearLmsConfig(0.5), widely_linear=True)
        _, record = nclms_step(state, [1j, 2 + 0j], 1 + 0j)
        assert record.prediction == 0j

    def test_real_inputs_degenerate_to_doubled_linear_predictor(self):
        """On a real input stream w and g stay equal and the output is 2<z, w>."""
        rng = np.random.default_rng(31)
        state = new_linear_state(3, LinearLmsConfig(0.4), widely_linear=True)
        for _ in range(15):
            z = rng.standard_normal(3).astype(np.complex128)
            d = complex(rng.standard_normal() + 1j * rng.standard_normal())
            w_before = state.w.copy()
            state, record = nclms_step(state, z, d)
            linear_part = np.sum(z * np.conj(w_before))
            assert record.prediction == complex(2.0 * linear_part)
            assert np.array_equal(state.w, state.g)

    def test_ten_step_trace_matches_augmented_reference(self):
        """The recursion equals plain normalized LMS on the stacked (z, conj z)."""
        rng = np.random.default_rng(41)
        samples = random_samples(rng, 10, 3)
        mu, eps = 0.25, 1e-6
        big_w = np.zeros(6, dtype=np.complex128)
        reference = []
        for z, d in samples:
            u = np.concatenate([z, np.conj(z)])
            pred = np.vdot(big_w, u)
            err = d - pred
            big_w = big_w + (mu / (eps + np.vdot(u, u).real)) * np.conj(err) * u
            reference.append(pred)
        state = new_linear_state(3, LinearLmsConfig(mu, eps), widely_linear=True)
        for (z, d), expected in zip(samples, reference):
            state, record = nclms_step(state, z, d)
            assert abs(record.prediction - expected) < 1e-13



def bits(a) -> np.ndarray:
    """Raw 64-bit patterns, so equality also compares the signs of zeros and NaNs."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestLinearBlock:
    @settings(max_examples=60, deadline=None)
    @given(
        runs=st.sampled_from([1, 2, 3, 17]),
        dim=st.sampled_from([1, 6]),
        algorithm=st.sampled_from(["cklms", "nclms", "wl_nclms"]),
        n=st.integers(1, 25),
        mu=st.floats(0.01, 1.5),
        epsilon=st.sampled_from([0.0, 1e-6, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_rows_equal_serial_steps_bit_for_bit(
        self, runs, dim, algorithm, n, mu, epsilon, seed
    ):
        """run_block's predictions, squared errors, dictionary sizes and weights equal R
        serial step loops, as raw bits."""
        rng = np.random.default_rng(seed)
        scale = rng.choice([1e-3, 1.0, 30.0], size=(runs, n, 1))
        shape = (runs, n, dim)
        inputs = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        inputs[rng.random((runs, n)) < 0.1] = 0  # zero inputs, gain 0 when epsilon is 0
        targets = rng.standard_normal((runs, n)) + 1j * rng.standard_normal((runs, n))
        if algorithm == "cklms":
            # epsilon picks the thresholds; inputs of scale 30 make the kernel overflow
            novelty = NoveltyConfig(epsilon, 2 * epsilon)
            config = CklmsConfig(complex_gaussian(2.0), mu, novelty)
        else:
            config = LinearLmsConfig(mu=mu, epsilon=epsilon)
        with np.errstate(all="ignore"):
            block = run_block(inputs, targets, algorithm, config)
        for r in range(runs):
            if algorithm == "cklms":
                state = new_cklms_state(config.kernel, mu, config.novelty)
                with np.errstate(all="ignore"):
                    records = [cklms_step(state, z, d)[1] for z, d in zip(inputs[r], targets[r])]
            else:
                widely_linear = algorithm == "wl_nclms"
                state = new_linear_state(dim, config, widely_linear)
                records = [nclms_step(state, z, d)[1] for z, d in zip(inputs[r], targets[r])]
            predictions = np.array([rec.prediction for rec in records])
            squared_errors = np.array([rec.squared_error for rec in records])
            assert np.array_equal(bits(block.predictions[r]), bits(predictions))
            assert np.array_equal(bits(block.squared_errors[r]), bits(squared_errors))
            if algorithm == "cklms":
                assert block.dict_sizes[r].tolist() == [rec.dict_size for rec in records]
                assert block.w is None and block.g is None
                continue
            assert block.dict_sizes is None
            assert np.array_equal(bits(block.w[r]), bits(state.w))
            if algorithm == "wl_nclms":
                assert np.array_equal(bits(block.g[r]), bits(state.g))
            else:
                assert block.g is None

    def test_zero_input_without_regularization_leaves_weights(self):
        """eps = 0 and z = 0 has no normalized step: the gain is 0, not a division by zero."""
        state = new_linear_state(2, LinearLmsConfig(0.5, epsilon=0.0))
        state.w[:] = [1 + 1j, 2 - 1j]
        state, record = nclms_step(state, [0j, 0j], 1 + 0j)
        assert record.prediction == 0j and record.error == 1 + 0j
        assert np.array_equal(state.w, [1 + 1j, 2 - 1j])

    @pytest.mark.parametrize(
        "field, message", [("inputs", "input vector has non-finite"), ("targets", "target value")]
    )
    def test_first_non_finite_sample_names_run_and_step(self, field, message):
        """Validation happens per realization; the error carries the row and the step."""
        rng = np.random.default_rng(90)
        data = {
            "inputs": rng.standard_normal((3, 8, 2)) + 0j,
            "targets": rng.standard_normal((3, 8)) + 0j,
        }
        data[field][2, 6] = np.nan
        data[field][2, 7] = np.inf
        with pytest.raises(FilterStepError, match=f"^step 6: {message}") as info:
            run_block(data["inputs"], data["targets"], "wl_nclms", LinearLmsConfig(mu=0.1))
        assert (info.value.run, info.value.iteration) == (2, 6)

    def test_cklms_step_failure_carries_its_run(self, monkeypatch):
        """A cklms step that fails inside run_block names the row as well as the step."""
        step = ckaf.filters.cklms_step
        calls = iter(range(15))

        def failing(state, z, d):  # run 2, step 3 is the 14th call over 3 runs of 5 steps
            if next(calls) == 2 * 5 + 3:
                raise MemoryError("no room for a center")
            return step(state, z, d)

        monkeypatch.setattr(ckaf.filters, "cklms_step", failing)
        config = CklmsConfig(KernelSpec("real-gaussian", 1.0), 0.5)
        inputs = np.full((3, 5, 2), 0.5 + 0.25j)
        with pytest.raises(FilterStepError, match="^step 3: no room for a center$") as info:
            run_block(inputs, np.ones((3, 5), dtype=np.complex128), "cklms", config)
        assert (info.value.run, info.value.iteration) == (2, 3)

    def test_shapes_and_algorithm_checked(self):
        """Inputs are (R, N, L), targets (R, N); the config must match the algorithm."""
        config = LinearLmsConfig(mu=0.1)
        inputs = np.zeros((2, 4, 3), dtype=np.complex128)
        with pytest.raises(ValueError, match="expected non-empty inputs"):
            run_block(inputs, np.zeros((2, 3)), "nclms", config)
        with pytest.raises(ValueError, match="expected non-empty inputs"):
            run_block(inputs[0], np.zeros(4), "nclms", config)
        with pytest.raises(TypeError, match="cklms requires a CklmsConfig"):
            run_block(inputs, np.zeros((2, 4)), "cklms", config)
        with pytest.raises(TypeError, match="nclms requires a LinearLmsConfig"):
            kernel_config = CklmsConfig(complex_gaussian(1.0), 1.0)
            run_block(inputs, np.zeros((2, 4)), "nclms", kernel_config)


class TestRunFilter:
    def test_single_sample_gives_one_record(self):
        """A one-sample sequence yields exactly one record."""
        config = CklmsConfig(kernel=complex_gaussian(1.0), mu=1.0)
        run = run_filter([(np.array([0.1 + 0.2j]), 1 + 0j)], "cklms", config)
        assert len(run.records) == 1

    def test_deterministic_reruns(self):
        """The same samples and config produce bit-identical records."""
        rng = np.random.default_rng(55)
        samples = random_samples(rng, 50, 3)
        config = CklmsConfig(kernel=complex_gaussian(2.0), mu=0.5, novelty=NoveltyConfig(0.2, 0.05))
        first = run_filter(samples, "cklms", config)
        second = run_filter(samples, "cklms", config)
        assert first.records == second.records

    def test_sparsification_disabled_admits_everything(self):
        """delta1 = delta2 = 0 grows the dictionary by one per sample."""
        rng = np.random.default_rng(60)
        samples = random_samples(rng, 100, 2)
        config = CklmsConfig(kernel=complex_gaussian(1.5), mu=0.2)
        run = run_filter(samples, "cklms", config)
        assert run.state.dictionary.size == 100
        assert [r.dict_size for r in run.records] == list(range(1, 101))

    def test_dictionary_sizes_monotone(self):
        """dict_size never decreases and grows by at most one per step."""
        rng = np.random.default_rng(61)
        samples = random_samples(rng, 120, 2, scale=0.3)
        config = CklmsConfig(kernel=complex_gaussian(1.0), mu=0.5, novelty=NoveltyConfig(0.35, 0.05))
        run = run_filter(samples, "cklms", config)
        sizes = run.dict_sizes()
        assert np.all(np.diff(sizes) >= 0)
        assert np.all(np.diff(sizes) <= 1)
        assert sizes[-1] < len(samples), "thresholds this coarse must reject something"

    def test_linear_kernel_matches_explicit_weight_lms(self):
        """With the linear kernel the expansion equals explicit-weight LMS."""
        rng = np.random.default_rng(70)
        samples = random_samples(rng, 40, 3)
        mu = 0.3
        w = np.zeros(3, dtype=np.complex128)
        reference = []
        for z, d in samples:
            pred = np.vdot(w, z)
            err = d - pred
            w = w + mu * np.conj(err) * z
            reference.append(pred)
        run = run_filter(samples, "cklms", CklmsConfig(kernel=linear_kernel(), mu=mu))
        for record, expected in zip(run.records, reference):
            assert abs(record.prediction - expected) < 1e-10, (
                f"kernel trick diverged from explicit weights: {record.prediction} vs {expected}"
            )

    def test_expansion_closed_form(self):
        """After n steps the output is mu * sum of e(k) kappa(z, z(k))."""
        rng = np.random.default_rng(71)
        samples = random_samples(rng, 30, 2)
        mu, sigma = 0.6, 1.8
        run = run_filter(samples, "cklms", CklmsConfig(kernel=complex_gaussian(sigma), mu=mu))
        errors = np.array([r.error for r in run.records])
        coeffs = run.state.dictionary.coefficients
        assert np.array_equal(coeffs, mu * errors), "coefficients must be exactly mu * e(k)"
        z = np.array([0.15 - 0.4j, 0.3 + 0.2j])
        centers = run.state.dictionary.centers
        closed_form = mu * np.sum(
            errors * np.exp(-np.sum((z[None, :] - np.conj(centers)) ** 2, axis=1) / sigma**2)
        )
        assert abs(cklms_predict(run.state, z) - closed_form) < 1e-12

    def test_converged_trajectory_matches_difference_form(self):
        """On a converged run, admissions and sizes equal the reference loop's; errors to 1e-10."""
        s = generate_input(SignalConfig(rho=0.1, n_samples=1005, seed=5, amplitude=0.25))
        r = apply_channel(s, ChannelConfig(noise_stddev=0.14, seed=6))
        dataset = build_dataset(r, s, EmbeddingConfig(filter_length=5, delay=2))
        samples = list(zip(dataset.inputs, dataset.targets))
        sigma, mu, d1, d2 = 5.0, 1.0, 0.3, 0.05
        config = CklmsConfig(kernel=complex_gaussian(sigma), mu=mu, novelty=NoveltyConfig(d1, d2))
        run = run_filter(samples, "cklms", config)
        expected = brute_force_cklms(samples, sigma, mu, d1, d2)
        assert [(rec.admitted, rec.dict_size) for rec in run.records] == [
            (admitted, size) for _, _, admitted, size in expected
        ]
        final = run.state.dictionary.size
        assert 10 < final < len(samples) // 2, f"setup: final size {final} is not a sparse run"
        for i, (rec, (_, e, _, _)) in enumerate(zip(run.records, expected)):
            assert abs(rec.error - e) <= 1e-10 * abs(e), f"step {i}: {rec.error} vs {e}"

    def test_nclms_scale_invariance(self):
        """Scaling inputs by a positive constant leaves predictions unchanged at eps = 0."""
        rng = np.random.default_rng(72)
        samples = random_samples(rng, 25, 3)
        # power-of-two factor so both runs round identically
        scaled = [(4.0 * z, d) for z, d in samples]
        config = LinearLmsConfig(mu=0.5, epsilon=0.0)
        base = run_filter(samples, "nclms", config)
        big = run_filter(scaled, "nclms", config)
        for a, b in zip(base.records, big.records):
            assert a.prediction == b.prediction

    def test_empty_sequence_rejected(self):
        """An empty sample sequence is a usage error."""
        with pytest.raises(ValueError):
            run_filter([], "nclms", LinearLmsConfig(mu=0.1))

    def test_unknown_algorithm_rejected(self):
        """Algorithm names outside the supported set are rejected."""
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_filter([(np.array([0j]), 0j)], "klms", LinearLmsConfig(mu=0.1))

    def test_mismatched_config_type_rejected(self):
        """Config object must match the algorithm choice."""
        with pytest.raises(TypeError):
            run_filter([(np.array([0j]), 0j)], "cklms", LinearLmsConfig(mu=0.1))

    def test_step_errors_carry_iteration_index(self):
        """Failures are wrapped with the zero-based sample index, and so is an item that is not
        an (input, target) pair: a number, a 1-tuple or a 3-tuple."""
        samples = [(np.array([0.1 + 0j]), 1 + 0j), (np.array([np.inf + 0j]), 0j)]
        with pytest.raises(FilterStepError, match="step 1"):
            run_filter(samples, "cklms", CklmsConfig(kernel=complex_gaussian(1.0), mu=1.0))
        pair = (np.array([0.1 + 0j]), 1 + 0j)
        configs = {
            "cklms": CklmsConfig(kernel=complex_gaussian(1.0), mu=1.0),
            "nclms": LinearLmsConfig(0.1),
            "wl_nclms": LinearLmsConfig(0.1),
        }
        for item, message in [
            (1, "cannot unpack non-iterable int object"),
            ((np.ones(1),), "not enough values to unpack"),
            ((np.ones(1), 0j, 0j), "too many values to unpack"),
        ]:
            for algorithm, config in configs.items():
                for index in (0, 2):
                    samples = [pair] * index + [item, pair]
                    with pytest.raises(FilterStepError, match=f"^step {index}: {message}") as info:
                        run_filter(samples, algorithm, config)
                    assert info.value.iteration == index and info.value.run is None
        with pytest.raises(FilterStepError, match="^step 0: cannot unpack non-iterable int"):
            run_filter([1, 2], "nclms", LinearLmsConfig(0.1))

    @pytest.mark.parametrize("algorithm", ["nclms", "wl_nclms"])
    @pytest.mark.parametrize(
        "fault, message",
        [
            (np.array([np.nan + 0j, 0j]), "input vector has non-finite components"),
            (np.array([0.5 + 0j]), "input has 1 components, filter expects 2"),
            (np.array([[0.5 + 0j, 0j]]), "input must be a 1-D vector"),
            (np.array(["0.5", "0"]), "input must be numeric"),
        ],
        ids=["non-finite", "wrong-length", "2-D", "string"],
    )
    def test_linear_step_errors_carry_iteration_index(self, algorithm, fault, message):
        """A bad input vector at sample k raises FilterStepError("step k") for nclms/wl_nclms."""
        rng = np.random.default_rng(73)
        samples = random_samples(rng, 9, 2)
        samples[4] = (fault, 1 + 0j)
        samples[7] = (np.array([np.inf + 0j, 0j]), 0j)
        with pytest.raises(FilterStepError, match=f"^step 4: {message}") as info:
            run_filter(samples, algorithm, LinearLmsConfig(mu=0.1))
        assert info.value.iteration == 4 and info.value.run is None

    @pytest.mark.parametrize("algorithm", ["nclms", "wl_nclms"])
    def test_linear_run_matches_step_loop(self, algorithm):
        """run_filter returns the step loop's records and state."""
        rng = np.random.default_rng(74)
        samples = random_samples(rng, 40, 3)
        config = LinearLmsConfig(mu=0.3, epsilon=1e-4)
        state = new_linear_state(3, config, widely_linear=algorithm == "wl_nclms")
        expected = [nclms_step(state, z, d)[1] for z, d in samples]
        run = run_filter(iter(samples), algorithm, config)
        assert run.records == expected
        assert run.state.config is config
        assert snapshot_state(run.state) == snapshot_state(state)


class TestSnapshots:
    def test_cklms_round_trip_continues_identically(self):
        """Restoring a snapshot reproduces the remaining trace bit for bit."""
        rng = np.random.default_rng(80)
        samples = random_samples(rng, 30, 2)
        state = new_cklms_state(complex_gaussian(1.4), mu=0.7, novelty=NoveltyConfig(0.15, 0.02))
        for z, d in samples[:20]:
            state, _ = cklms_step(state, z, d)
        doc = json.loads(json.dumps(snapshot_state(state)))
        restored = restore_state(doc)
        assert isinstance(restored, CklmsState)
        assert restored.iteration == state.iteration
        assert np.array_equal(restored.dictionary.centers, state.dictionary.centers)
        for z, d in samples[20:]:
            state, rec_a = cklms_step(state, z, d)
            restored, rec_b = cklms_step(restored, z, d)
            assert rec_a == rec_b, f"post-restore trace diverged: {rec_a} vs {rec_b}"

    def test_linear_round_trip(self):
        """Linear snapshots restore weights, step size and epsilon exactly."""
        rng = np.random.default_rng(81)
        state = new_linear_state(3, LinearLmsConfig(0.4, 1e-5), widely_linear=True)
        for z, d in random_samples(rng, 10, 3):
            state, _ = nclms_step(state, z, d)
        doc = json.loads(json.dumps(snapshot_state(state)))
        restored = restore_state(doc)
        assert np.array_equal(restored.w, state.w)
        assert np.array_equal(restored.g, state.g)
        assert restored.config == state.config

    def test_snapshot_field_names_are_stable(self):
        """The documented snapshot keys are present."""
        state = new_cklms_state(KernelSpec("complex-gaussian", 5.0), mu=1.0)
        doc = snapshot_state(state)
        assert set(doc) == {"algorithm", "kernel", "mu", "novelty", "iteration", "centers", "coefficients"}
        lin = snapshot_state(new_linear_state(2, LinearLmsConfig(0.1)))
        assert set(lin) == {"algorithm", "mu", "epsilon", "w", "g"}

    def test_mismatched_dictionary_lengths_rejected(self):
        """A snapshot with more centers than coefficients is refused, not truncated."""
        state = new_cklms_state(complex_gaussian(1.0), mu=0.5)
        rng = np.random.default_rng(82)
        for z, d in random_samples(rng, 3, 2):
            state, _ = cklms_step(state, z, d)
        doc = snapshot_state(state)
        assert len(doc["centers"]) == 3
        doc["coefficients"] = doc["coefficients"][:2]
        with pytest.raises(ValueError, match="3 centers but 2 coefficients"):
            restore_state(doc)

    def test_linear_weight_lengths_must_match(self):
        """A widely linear snapshot whose w and g differ in length is refused."""
        state = new_linear_state(3, LinearLmsConfig(0.1), widely_linear=True)
        doc = snapshot_state(state)
        doc["g"] = doc["g"][:2]
        message = "^snapshot: dimension mismatch: 3 components in weights, 2 in conjugate weights$"
        with pytest.raises(ValueError, match=message):
            restore_state(doc)

    def test_non_finite_center_rejected(self):
        """A center cklms_step could never have admitted is refused, not restored."""
        state = new_cklms_state(complex_gaussian(1.0), mu=0.5)
        rng = np.random.default_rng(83)
        for z, d in random_samples(rng, 3, 2):
            state, _ = cklms_step(state, z, d)
        for value in (math.nan, math.inf):
            doc = snapshot_state(state)
            doc["centers"][1][0] = [0.5, value]
            with pytest.raises(ValueError, match="snapshot center 1 has non-finite components"):
                restore_state(doc)

    def test_center_of_another_width_names_its_path(self):
        """A center narrower than the first is refused at its path in the document."""
        doc = snapshot_state(new_cklms_state(complex_gaussian(1.0), mu=0.5))
        doc["centers"] = [[[1.0, 0.0], [0.5, 0.5]], [[0.2, -0.1]]]
        doc["coefficients"] = [[1.0, 0.0], [0.5, 0.0]]
        message = r"^snapshot\.centers\[1\]: center has 1 components, dictionary stores 2$"
        with pytest.raises(ValueError, match=message):
            restore_state(doc)

    def test_non_finite_coefficient_rejected(self):
        """A NaN or infinite coefficient would make every later prediction non-finite."""
        state = new_cklms_state(complex_gaussian(1.0), mu=0.5)
        for z, d in random_samples(np.random.default_rng(84), 3, 2):
            state, _ = cklms_step(state, z, d)
        for value in (math.nan, math.inf, -math.inf):
            doc = snapshot_state(state)
            doc["coefficients"][2] = [value, 0.0]
            with pytest.raises(ValueError, match="snapshot coefficient 2 is not finite"):
                restore_state(doc)

    @pytest.mark.parametrize("name, field", [("w", "weights"), ("g", "conjugate weights")], ids=["w", "g"])
    def test_non_finite_linear_weight_rejected(self, name, field):
        """A non-finite weight would make every later prediction non-finite."""
        doc = snapshot_state(new_linear_state(3, LinearLmsConfig(0.1), widely_linear=True))
        doc[name][1] = [0.0, math.inf]
        with pytest.raises(ValueError, match=f"^snapshot: {field} have non-finite components$"):
            restore_state(doc)

    @pytest.mark.parametrize("iteration", ["7", -5, 2.0, True, None])
    def test_iteration_must_be_a_non_negative_integer(self, iteration):
        """The iteration counter is refused unless it is a non-negative int."""
        doc = snapshot_state(new_cklms_state(complex_gaussian(1.0), mu=0.5))
        doc["iteration"] = iteration
        if iteration == -5:  # refused by the state, at the snapshot's path
            message = r"^snapshot: iteration must be nonnegative and finite, got -5$"
        else:  # a wrong type is refused by the document parser, at the field's path
            message = r"^snapshot\.iteration: expected int"
        with pytest.raises(ValueError, match=message):
            restore_state(doc)

    @pytest.mark.parametrize(
        "algorithm, g, message",
        [
            ("wl_nclms", None, "snapshot algorithm 'wl_nclms' needs conjugate weights g"),
            ("nclms", [[1.0, 0.0], [0.5, 0.0]], "snapshot algorithm 'nclms' has conjugate weights g"),
        ],
        ids=["wl_nclms-without-g", "nclms-with-g"],
    )
    def test_linear_algorithm_must_match_conjugate_weights(self, algorithm, g, message):
        """The declared algorithm, not the presence of g, decides the filter; a mismatch is refused."""
        doc = snapshot_state(new_linear_state(2, LinearLmsConfig(0.1)))
        doc["algorithm"], doc["g"] = algorithm, g
        with pytest.raises(ValueError, match=message):
            restore_state(doc)

    def test_empty_linear_weights_rejected(self):
        """A snapshot with no weights would build a filter that no input can step."""
        doc = snapshot_state(new_linear_state(2, LinearLmsConfig(0.1), widely_linear=True))
        doc["w"], doc["g"] = [], []
        with pytest.raises(ValueError, match="weights must be a 1-D vector with at least one component"):
            restore_state(doc)

    @pytest.mark.parametrize(
        "pair",
        [[0.5], [0.5, 0.0, 1.0], [], 0.5, "ab", [True, 0.0], [0.5, None]],
        ids=["one-number", "three-numbers", "empty", "number", "string", "bool", "null"],
    )
    @pytest.mark.parametrize(
        "field, where",
        [("centers", "centers[1][0]"), ("coefficients", "coefficients[1]"), ("w", "w[1]"), ("g", "g[1]")],
    )
    def test_malformed_pair_rejected(self, field, where, pair):
        """Every stored complex value must be a [real, imag] pair of numbers; the error names it."""
        if field in ("w", "g"):
            doc = snapshot_state(new_linear_state(2, LinearLmsConfig(0.1), widely_linear=True))
            doc[field][1] = pair
        else:
            state = new_cklms_state(complex_gaussian(1.0), mu=0.5)
            for z, d in random_samples(np.random.default_rng(85), 3, 2):
                state, _ = cklms_step(state, z, d)
            doc = json.loads(json.dumps(snapshot_state(state)))
            if field == "centers":
                doc["centers"][1][0] = pair
            else:
                doc["coefficients"][1] = pair
        with pytest.raises(ValueError, match=rf"^snapshot\.{re.escape(where)}: expected a \[real, imag\] pair"):
            restore_state(doc)

    @pytest.mark.parametrize("doc", [[1, 2], "x", None], ids=["list", "string", "null"])
    def test_non_object_snapshot_rejected(self, doc):
        """A document that is not a JSON object is refused at the document's path."""
        with pytest.raises(ValueError, match=r"^snapshot: must be an object$"):
            restore_state(doc)

    @pytest.mark.parametrize(
        "algorithm, path",
        [
            ("cklms", "algorithm"),
            ("cklms", "mu"),
            ("cklms", "iteration"),
            ("cklms", "centers"),
            ("cklms", "coefficients"),
            ("cklms", "kernel.family"),
            ("nclms", "w"),
            ("nclms", "mu"),
            ("wl_nclms", "epsilon"),
        ],
    )
    def test_missing_field_rejected(self, algorithm, path):
        """A missing required field is refused with its dotted path, not a bare KeyError."""
        doc = fresh_snapshot(algorithm)
        *parents, name = path.split(".")
        section = doc
        for parent in parents:
            section = section[parent]
        del section[name]
        with pytest.raises(ValueError, match=rf"^snapshot\.{re.escape(path)}: missing required field$"):
            restore_state(doc)

    @pytest.mark.parametrize("algorithm", ["nclms", "wl_nclms"])
    @pytest.mark.parametrize("mu", [-1, 0])
    def test_linear_step_size_is_checked_by_its_config(self, algorithm, mu):
        """A linear state steps with its own mu, so a document whose mu LinearLmsConfig refuses
        is not restored; one without mu, as written before snapshots carried it, is refused
        by test_missing_field_rejected."""
        doc = fresh_snapshot(algorithm)
        doc["mu"] = mu
        with pytest.raises(ValueError, match=f"^snapshot: mu must be positive and finite, got {mu}$"):
            restore_state(doc)

    @pytest.mark.parametrize("algorithm", ["cklms", "nclms", "wl_nclms"])
    def test_unknown_field_rejected(self, algorithm):
        """A key that is not a snapshot field is refused, not ignored."""
        doc = fresh_snapshot(algorithm)
        doc["dictionary"] = []
        with pytest.raises(ValueError, match=r"^snapshot\.dictionary: unknown field$"):
            restore_state(doc)

    def test_fields_with_defaults_may_be_omitted(self):
        """As in configs, an omitted field takes its default: novelty 0/0, sigma 1.0, g null."""
        doc = {
            "algorithm": "cklms",
            "kernel": {"family": "linear"},
            "mu": 0.5,
            "iteration": 0,
            "centers": [],
            "coefficients": [],
        }
        state = restore_state(doc)
        assert state.config == CklmsConfig(KernelSpec("linear", 1.0), 0.5, NoveltyConfig(0.0, 0.0))
        state = restore_state({"algorithm": "nclms", "mu": 0.5, "epsilon": 0.0, "w": [[1.0, 0.0]]})
        assert state.g is None and state.w.tolist() == [1 + 0j]
        assert state.config == LinearLmsConfig(0.5, 0.0)

    def test_unknown_snapshot_rejected(self):
        """Restoring an unrecognized document is a usage error."""
        with pytest.raises(ValueError):
            restore_state({"algorithm": "rls"})

    @pytest.mark.parametrize("algorithm", [5, None, ["cklms"], "x"], ids=repr)
    def test_unknown_algorithm_names_its_path(self, algorithm):
        """An algorithm of the wrong type or an unknown name is refused at its path, as a
        mistyped value of any other field is."""
        doc = fresh_snapshot("cklms")
        doc["algorithm"] = algorithm
        message = f"snapshot.algorithm: unknown algorithm {algorithm!r}; expected one of "
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            restore_state(doc)

    @settings(max_examples=60, deadline=None)
    @given(
        algorithm=st.sampled_from(["complex-gaussian", "real-gaussian", "linear", "nclms", "wl_nclms"]),
        dim=st.integers(1, 4),
        steps=st.integers(0, 30),
        mu=st.floats(0.01, 1.0),
        sigma=st.floats(1.0, 5.0),
        delta1=st.floats(0.0, 0.5),
        delta2=st.floats(0.0, 0.5),
        epsilon=st.sampled_from([0.0, 1e-6, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_snapshot_json_restore_round_trip(
        self, algorithm, dim, steps, mu, sigma, delta1, delta2, epsilon, seed
    ):
        """snapshot -> JSON text -> restore gives an equal snapshot and the same next 5 steps,
        each from the restored state's own settings."""
        samples = random_samples(np.random.default_rng(seed), steps + 5, dim)
        if algorithm in ("nclms", "wl_nclms"):
            config = LinearLmsConfig(mu, epsilon)
            state = new_linear_state(dim, config, widely_linear=algorithm == "wl_nclms")
            step = nclms_step
        else:
            spec = KernelSpec(algorithm, sigma)
            state = new_cklms_state(spec, mu, NoveltyConfig(delta1, delta2))
            step = cklms_step
        for z, d in samples[:steps]:
            state, _ = step(state, z, d)
        snapshot = snapshot_state(state)
        restored = restore_state(json.loads(json.dumps(snapshot)))
        assert snapshot_state(restored) == snapshot
        for z, d in samples[steps:]:
            state, expected = step(state, z, d)
            restored, record = step(restored, z, d)
            assert record == expected
