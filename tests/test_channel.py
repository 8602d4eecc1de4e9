"""Source, channel, and delay-embedding tests."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckaf.channel import (
    ChannelConfig,
    EmbeddingConfig,
    SignalConfig,
    _channel_pass,
    apply_channel,
    build_dataset,
    generate_input,
    write_dataset_csv,
)

# Frozen from exact decimal expansion of t + (0.1+0.15i)t^2 + (0.06+0.05i)t^3
# at t = -0.9+0.8i (t^2 = 0.17-1.44i, t^3 = 0.999+1.432i).
IMPULSE_RESPONSE_0 = -0.67866 + 0.81737j


class TestGenerateInput:
    def test_rho_zero_is_purely_real(self):
        """rho = 0 removes the imaginary component entirely."""
        s = generate_input(SignalConfig(rho=0.0, n_samples=500, seed=1))
        assert np.all(s.imag == 0.0)
        assert np.any(s.real != 0.0)

    def test_rho_one_is_purely_imaginary(self):
        """rho = 1 removes the real component entirely."""
        s = generate_input(SignalConfig(rho=1.0, n_samples=500, seed=1))
        assert np.all(s.real == 0.0)

    def test_seed_reproducibility(self):
        """Identical configs generate bitwise-identical sequences."""
        cfg = SignalConfig(rho=0.3, n_samples=1000, seed=42)
        assert np.array_equal(generate_input(cfg), generate_input(cfg))

    def test_circular_point_second_order_statistics(self):
        """At rho = sqrt(2)/2 the pseudo-variance vanishes and power is 0.49."""
        cfg = SignalConfig(rho=np.sqrt(2.0) / 2.0, n_samples=100_000, seed=7)
        s = generate_input(cfg)
        pseudo = np.mean(s**2)
        power = np.mean(np.abs(s) ** 2)
        assert abs(pseudo) <= 0.01, f"pseudo-variance {pseudo} should vanish"
        assert abs(power - 0.49) <= 0.01, f"power {power} should be 0.49"

    def test_noncircular_pseudo_variance(self):
        """Pseudo-variance tracks amplitude^2 (1 - 2 rho^2) away from the circular point."""
        rho = 0.1
        cfg = SignalConfig(rho=rho, n_samples=100_000, seed=8)
        s = generate_input(cfg)
        expected = 0.49 * (1.0 - 2.0 * rho**2)
        assert abs(np.mean(s**2) - expected) <= 0.01

    def test_invalid_parameters_rejected(self):
        """rho outside [0, 1] and empty sequences are usage errors."""
        with pytest.raises(ValueError):
            SignalConfig(rho=1.2, n_samples=10, seed=0)
        with pytest.raises(ValueError):
            SignalConfig(rho=0.5, n_samples=0, seed=0)

    @pytest.mark.parametrize("n_samples", [True, 10.0, 2.5, "10", None])
    def test_non_integer_length_refused_by_name(self, n_samples):
        """A bool or non-integer n_samples is a TypeError naming the field, not a later numpy error."""
        with pytest.raises(TypeError, match=r"^n_samples must be an int, got "):
            SignalConfig(rho=0.5, n_samples=n_samples)

    def test_numpy_integer_length_accepted(self):
        """numpy integers are integers."""
        cfg = SignalConfig(rho=0.5, n_samples=np.int64(12), seed=3)
        assert generate_input(cfg).shape == (12,)


class TestApplyChannel:
    def test_impulse_reveals_linear_taps(self):
        """With the nonlinearity disabled, the impulse response is the tap vector."""
        cfg = ChannelConfig(noise_stddev=0.0, seed=0, poly_coeffs=())
        out = apply_channel([1, 0, 0, 0], cfg)
        assert out[0] == -0.9 + 0.8j
        assert out[1] == 0.6 - 0.7j
        assert np.all(out[2:] == 0)

    def test_zero_input_gives_zero_output(self):
        """The noise-free channel maps zero to zero."""
        cfg = ChannelConfig(noise_stddev=0.0, seed=0)
        assert np.all(apply_channel(np.zeros(16), cfg) == 0)

    def test_polynomial_against_frozen_oracle(self):
        """The full nonlinearity on an impulse matches the frozen evaluation."""
        cfg = ChannelConfig(noise_stddev=0.0, seed=0)
        out = apply_channel([1, 0, 0], cfg)
        assert abs(out[0] - IMPULSE_RESPONSE_0) < 1e-12, f"q(0) = {out[0]}"

    def test_causality(self):
        """Changing a sample never affects earlier outputs."""
        rng = np.random.default_rng(5)
        s = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        cfg = ChannelConfig(noise_stddev=0.0, seed=0)
        base = apply_channel(s, cfg)
        bumped = s.copy()
        bumped[40] += 1.0 - 2.0j
        out = apply_channel(bumped, cfg)
        assert np.array_equal(out[:40], base[:40])
        assert not np.array_equal(out[40:], base[40:])

    def test_noise_free_channel_is_deterministic(self):
        """Applying the noise-free channel twice gives identical output."""
        rng = np.random.default_rng(6)
        s = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        cfg = ChannelConfig(noise_stddev=0.0, seed=123)
        assert np.array_equal(apply_channel(s, cfg), apply_channel(s, cfg))

    def test_noise_seed_reproducibility(self):
        """Noisy outputs are bitwise-reproducible per seed and differ across seeds."""
        s = np.ones(200, dtype=np.complex128)
        a = apply_channel(s, ChannelConfig(noise_stddev=0.1, seed=9))
        b = apply_channel(s, ChannelConfig(noise_stddev=0.1, seed=9))
        c = apply_channel(s, ChannelConfig(noise_stddev=0.1, seed=10))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_noise_power_matches_stddev(self):
        """Measured noise power approaches 2 stddev^2 per sample."""
        s = np.zeros(20_000, dtype=np.complex128)
        cfg = ChannelConfig(noise_stddev=0.3, seed=11)
        r = apply_channel(s, cfg)
        measured = np.mean(np.abs(r) ** 2)
        assert abs(measured - 2 * 0.3**2) < 0.01, f"noise power {measured}"

    @pytest.mark.parametrize("noise_stddev", [0.0, 0.3])
    def test_one_pass_gives_both_channel_outputs(self, noise_stddev):
        """The one-pass pair is the noiseless and the noisy ``apply_channel`` output, byte for
        byte; without noise the two are one array."""
        rng = np.random.default_rng(12)
        s = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        cfg = ChannelConfig(noise_stddev=noise_stddev, seed=31)
        clean, received = _channel_pass(s, cfg)
        assert clean.tobytes() == apply_channel(s, ChannelConfig(0.0, seed=31)).tobytes()
        assert received.tobytes() == apply_channel(s, cfg).tobytes()
        assert (received is clean) == (noise_stddev == 0.0)

    def test_invalid_inputs_rejected(self):
        """Empty sequences, negative noise, and missing taps are usage errors."""
        with pytest.raises(ValueError):
            apply_channel([], ChannelConfig(noise_stddev=0.0, seed=0))
        with pytest.raises(ValueError):
            ChannelConfig(noise_stddev=-0.1, seed=0)
        with pytest.raises(ValueError):
            ChannelConfig(noise_stddev=0.0, seed=0, linear_taps=())


def _explicit_grid(r, s, length, delay):
    """The embedding written out index by index: rows r(n + D - j) for j = 0..L, targets s(n)."""
    ns = range(max(0, length - delay), r.size - delay)
    inputs = np.array([[r[n + delay - j] for j in range(length + 1)] for n in ns], np.complex128)
    return inputs, np.array([s[n] for n in ns], np.complex128)


def _random_pair(seed, n):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return r, s


class TestBuildDataset:
    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(0, 6),
        delay=st.integers(0, 9),
        extra=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(length=2, delay=7, extra=5, seed=0)  # D > L
    @example(length=0, delay=3, extra=4, seed=1)  # L = 0
    @example(length=5, delay=2, extra=0, seed=2)  # N = L + D + 1: one pair
    @example(length=0, delay=0, extra=0, seed=3)  # N = 1
    def test_window_equals_explicit_index_grid(self, length, delay, extra, seed):
        """Every row and target equals the embedding written out index by index."""
        r, s = _random_pair(seed, length + delay + 1 + extra)
        ds = build_dataset(r, s, EmbeddingConfig(filter_length=length, delay=delay))
        inputs, targets = _explicit_grid(r, s, length, delay)
        assert ds.start == max(0, length - delay)
        assert ds.inputs.shape == inputs.shape and ds.targets.shape == targets.shape
        assert ds.inputs.dtype == ds.targets.dtype == np.complex128
        assert np.array_equal(ds.inputs, inputs) and np.array_equal(ds.targets, targets)

    def test_inputs_are_read_only(self):
        """The window over the received sequence refuses assignment; a copy of it does not."""
        r, s = _random_pair(20, 30)
        ds = build_dataset(r, s, EmbeddingConfig(filter_length=3, delay=1))
        with pytest.raises(ValueError):
            ds.inputs[0, 0] = 0
        with pytest.raises(ValueError):
            ds.inputs[:] = 0
        copy = np.array(ds.inputs)
        copy[0, 0] = 0
        assert copy.flags.writeable and copy.flags.c_contiguous

    def test_later_writes_to_the_callers_arrays_do_not_reach_the_dataset(self):
        """The dataset keeps its own copies of r and s."""
        r, s = _random_pair(21, 30)
        ds = build_dataset(r, s, EmbeddingConfig(filter_length=3, delay=1))
        inputs, targets = np.array(ds.inputs), ds.targets.copy()
        r[:] = np.nan
        s[:] = np.nan
        assert np.array_equal(ds.inputs, inputs) and np.array_equal(ds.targets, targets)

    def test_build_allocates_no_grid(self):
        """A 40 000-sample dataset at L = 5 peaks below three sequences' worth of memory.

        The dataset holds one copy of r and one of the targets, 2N complex
        values; an (N, L+1) copy of the rows alone would be 6N.
        """
        n = 40_000
        r, s = _random_pair(22, n)
        tracemalloc.start()
        try:
            ds = build_dataset(r, s, EmbeddingConfig(filter_length=5, delay=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.inputs.shape == (n - 5, 6)  # n runs from L - D = 3 through N - 1 - D
        assert peak <= 3 * n * 16, f"building peaked at {peak} bytes"

    def test_default_embedding_width(self):
        """filter_length = 5 yields six-component regression vectors."""
        r = np.arange(20, dtype=np.complex128)
        ds = build_dataset(r, r, EmbeddingConfig(filter_length=5, delay=2))
        assert ds.inputs.shape[1] == 6

    def test_identity_embedding(self):
        """L = D = 0 pairs each received sample with its own target."""
        rng = np.random.default_rng(12)
        r = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        s = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        ds = build_dataset(r, s, EmbeddingConfig(filter_length=0, delay=0))
        assert ds.start == 0
        assert np.array_equal(ds.inputs[:, 0], r)
        assert np.array_equal(ds.targets, s)

    def test_hand_enumerated_indices(self):
        """N = 10, L = 2, D = 1 emits n = 1..8 with vectors (r(n+1), r(n), r(n-1))."""
        r = np.arange(10, dtype=np.complex128)
        s = 100 + np.arange(10, dtype=np.complex128)
        ds = build_dataset(r, s, EmbeddingConfig(filter_length=2, delay=1))
        assert ds.start == 1
        assert ds.inputs.shape == (8, 3)
        for k in range(8):
            n = 1 + k
            assert np.array_equal(ds.inputs[k], [n + 1, n, n - 1]), f"row {k}: {ds.inputs[k]}"
            assert ds.targets[k] == 100 + n

    def test_alignment_reconstruction(self):
        """Re-reading the raw arrays at (n, L, D) indices reproduces each vector."""
        rng = np.random.default_rng(13)
        r = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        s = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        length, delay = 4, 2
        ds = build_dataset(r, s, EmbeddingConfig(filter_length=length, delay=delay))
        for k in range(ds.inputs.shape[0]):
            n = ds.start + k
            expected = np.array([r[n + delay - j] for j in range(length + 1)])
            assert np.array_equal(ds.inputs[k], expected)
            assert ds.targets[k] == s[n]

    def test_too_short_sequence_rejected(self):
        """N must exceed filter_length + delay."""
        r = np.zeros(7, dtype=np.complex128)
        with pytest.raises(ValueError):
            build_dataset(r, r, EmbeddingConfig(filter_length=5, delay=2))

    def test_minimal_length_accepted(self):
        """N = L + D + 1 is accepted; valid n then runs from L-D through N-1-D."""
        r = np.arange(8, dtype=np.complex128)
        ds = build_dataset(r, r, EmbeddingConfig(filter_length=5, delay=2))
        assert ds.start == 3
        assert ds.inputs.shape[0] == 3

    def test_mismatched_lengths_rejected(self):
        """Received and source sequences must be equally long."""
        with pytest.raises(ValueError):
            build_dataset(np.zeros(10, complex), np.zeros(9, complex), EmbeddingConfig())

    def test_negative_embedding_parameters_rejected(self):
        """Negative lengths and delays are usage errors."""
        with pytest.raises(ValueError):
            EmbeddingConfig(filter_length=-1)
        with pytest.raises(ValueError):
            EmbeddingConfig(delay=-1)

    @pytest.mark.parametrize("field", ["filter_length", "delay"])
    @pytest.mark.parametrize("value", [True, False, 2.0, 1.5, "2", None])
    def test_non_integer_embedding_parameters_refused_by_name(self, field, value):
        """A bool would embed as 0 or 1 and a float fails deep inside numpy; both are refused."""
        with pytest.raises(TypeError, match=rf"^{field} must be an int, got "):
            EmbeddingConfig(**{field: value})

    def test_numpy_integer_embedding_parameters_accepted(self):
        """numpy integers are integers; the dataset is the one of the equal Python ints."""
        r, s = _random_pair(23, 20)
        ds = build_dataset(r, s, EmbeddingConfig(np.int64(3), np.int32(1)))
        expected = build_dataset(r, s, EmbeddingConfig(3, 1))
        assert ds.start == expected.start
        assert np.array_equal(ds.inputs, expected.inputs)


class TestWriteDatasetCsv:
    def test_round_trip(self, tmp_path):
        """The CSV header is documented and values parse back exactly."""
        rng = np.random.default_rng(14)
        r = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        s = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        ds = build_dataset(r, s, EmbeddingConfig(filter_length=2, delay=1))
        path = tmp_path / "pairs.csv"
        write_dataset_csv(ds, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "n",
            "z0_re", "z0_im", "z1_re", "z1_im", "z2_re", "z2_im",
            "target_re", "target_im",
        ]
        assert len(rows) == 1 + ds.inputs.shape[0]
        first = rows[1]
        assert int(first[0]) == ds.start
        parsed = [float(v) for v in first[1:]]
        expected = []
        for value in ds.inputs[0]:
            expected += [value.real, value.imag]
        expected += [ds.targets[0].real, ds.targets[0].imag]
        assert parsed == expected, "repr formatting must round-trip exactly"
