"""Step-level and run-level tests for the adaptive filters."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    FilterStepError,
    LinearLmsConfig,
    NoveltyConfig,
    cklms_predict,
    cklms_step,
    nclms_step,
    new_cklms_state,
    new_linear_state,
    restore_state,
    run_filter,
    snapshot_state,
    wl_nclms_step,
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
            admitted = True
        else:
            dis_sq = min(selfk(z) + selfk(c) - 2.0 * kappa(z, c).real for c in centers)
            dis = math.sqrt(max(dis_sq, 0.0))
            admitted = cmath.isfinite(e) and dis >= delta1 and abs(e) >= delta2
        if admitted:
            centers.append(z)
            coeffs.append(mu * e)
        trace.append((pred, e, admitted, len(centers)))
    return trace


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
        with pytest.raises(ValueError, match=r"centers must have shape \(m, 1\), got \(1, 2\)"):
            cklms_predict(state, [1 + 0j])

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


class TestKernelRow:
    @pytest.mark.parametrize("family", ["complex-gaussian", "real-gaussian", "linear"])
    @settings(max_examples=20, deadline=None)
    @given(
        # sizes on both sides of the buffer doublings at 64 and 128 centers
        m=st.sampled_from([1, 63, 64, 65, 128, 129]),
        dim=st.integers(1, 6),
        sigma=st.floats(1.0, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cached_squares_match_difference_form_and_survive_snapshot(
        self, family, m, dim, sigma, seed
    ):
        """The row over the dictionary's cached squares is kernel_matrix's row to 1e-13,
        and a restored snapshot gives it bit for bit."""
        spec = KernelSpec(family, sigma)
        rng = np.random.default_rng(seed)
        # components in [-1, 1] with dim <= 6 and sigma >= 1 keep every value finite
        points = rng.uniform(-1, 1, (m + 1, dim)) + 1j * rng.uniform(-1, 1, (m + 1, dim))
        if family == "real-gaussian":
            points = points.real.astype(np.complex128)
        z, centers = points[0], points[1:]
        state = new_cklms_state(spec, mu=1.0)
        for c in centers:
            state.dictionary.append(c, 1 + 0j, self_kernel(c, spec))
        dictionary = state.dictionary
        row = kernel_vector(z, dictionary.centers, spec, dictionary.squares)
        expected = kernel_matrix(z[None], centers, spec)[0]
        assert row.dtype == np.complex128
        if family == "linear":
            # linear values can cancel to near zero, so the scale is the size of the terms
            scale = np.linalg.norm(z) * np.linalg.norm(centers, axis=1)
        else:
            scale = np.abs(expected)
        assert np.all(np.abs(row - expected) <= 1e-13 * scale)
        restored = restore_state(json.loads(json.dumps(snapshot_state(state)))).dictionary
        assert kernel_vector(z, restored.centers, spec, restored.squares).tobytes() == row.tobytes()


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

    def test_invalid_parameters_rejected(self):
        """Nonpositive mu and negative thresholds are usage errors."""
        with pytest.raises(ValueError):
            new_cklms_state(complex_gaussian(1.0), mu=0.0)
        with pytest.raises(ValueError):
            NoveltyConfig(-0.1, 0.0)


class TestNclmsStep:
    def test_zero_weights_predict_zero(self):
        """With w = 0 the error equals the target."""
        state = new_linear_state(3)
        state, record = nclms_step(state, [1 + 1j, 0j, 0.5j], 2 - 1j, mu=0.5)
        assert record.prediction == 0j
        assert record.error == 2 - 1j

    def test_one_step_exact_fit_on_basis_vector(self):
        """A unit basis input with eps = 0 is fit exactly in one step."""
        state = new_linear_state(2, epsilon=0.0)
        z = np.array([1 + 0j, 0j])
        state, _ = nclms_step(state, z, 1 + 0j, mu=1.0)
        assert np.array_equal(state.w, z), f"expected w = e1, got {state.w}"
        _, record = nclms_step(state, z, 1 + 0j, mu=1.0)
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
        state = new_linear_state(4, epsilon=eps)
        for (z, d), expected in zip(samples, reference):
            state, record = nclms_step(state, z, d, mu=mu)
            assert abs(record.prediction - expected) < 1e-13

    def test_dimension_mismatch_rejected(self):
        """Input length must match the weight vector."""
        state = new_linear_state(3)
        with pytest.raises(ValueError):
            nclms_step(state, [1 + 0j], 0j, mu=0.1)


class TestWlNclmsStep:
    def test_zero_weights_predict_zero(self):
        """With w = g = 0 the output is 0."""
        state = new_linear_state(2, widely_linear=True)
        _, record = wl_nclms_step(state, [1j, 2 + 0j], 1 + 0j, mu=0.5)
        assert record.prediction == 0j

    def test_real_inputs_degenerate_to_doubled_linear_predictor(self):
        """On a real input stream w and g stay equal and the output is 2<z, w>."""
        rng = np.random.default_rng(31)
        state = new_linear_state(3, widely_linear=True)
        for _ in range(15):
            z = rng.standard_normal(3).astype(np.complex128)
            d = complex(rng.standard_normal() + 1j * rng.standard_normal())
            w_before = state.w.copy()
            state, record = wl_nclms_step(state, z, d, mu=0.4)
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
        state = new_linear_state(3, widely_linear=True, epsilon=eps)
        for (z, d), expected in zip(samples, reference):
            state, record = wl_nclms_step(state, z, d, mu=mu)
            assert abs(record.prediction - expected) < 1e-13

    def test_requires_conjugate_weights(self):
        """A strictly linear state cannot run the widely linear update."""
        state = new_linear_state(2, widely_linear=False)
        with pytest.raises(ValueError):
            wl_nclms_step(state, [1 + 0j, 0j], 0j, mu=0.1)

    def test_strictly_linear_update_refuses_conjugate_weights(self):
        """A widely linear state cannot run the strictly linear update."""
        state = new_linear_state(2, widely_linear=True)
        with pytest.raises(ValueError, match="conjugate weight vector"):
            nclms_step(state, [1 + 0j, 0j], 1 + 0j, mu=0.1)
        assert not state.w.any() and not state.g.any()


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
        """Failures are wrapped with the zero-based sample index."""
        samples = [(np.array([0.1 + 0j]), 1 + 0j), (np.array([np.inf + 0j]), 0j)]
        with pytest.raises(FilterStepError, match="step 1"):
            run_filter(samples, "cklms", CklmsConfig(kernel=complex_gaussian(1.0), mu=1.0))


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
        """Linear snapshots restore weights and epsilon exactly."""
        rng = np.random.default_rng(81)
        state = new_linear_state(3, widely_linear=True, epsilon=1e-5)
        for z, d in random_samples(rng, 10, 3):
            state, _ = wl_nclms_step(state, z, d, mu=0.4)
        doc = json.loads(json.dumps(snapshot_state(state)))
        restored = restore_state(doc)
        assert np.array_equal(restored.w, state.w)
        assert np.array_equal(restored.g, state.g)
        assert restored.epsilon == state.epsilon

    def test_snapshot_field_names_are_stable(self):
        """The documented snapshot keys are present."""
        state = new_cklms_state(KernelSpec("complex-gaussian", 5.0), mu=1.0)
        doc = snapshot_state(state)
        assert set(doc) == {"algorithm", "kernel", "mu", "novelty", "iteration", "centers", "coefficients"}
        lin = snapshot_state(new_linear_state(2))
        assert set(lin) == {"algorithm", "epsilon", "w", "g"}

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

    def test_unknown_snapshot_rejected(self):
        """Restoring an unrecognized document is a usage error."""
        with pytest.raises(ValueError):
            restore_state({"algorithm": "rls"})
