"""Synthetic data for nonlinear channel equalization benchmarks.

The generator produces a complex Gaussian source signal with tunable
circularity, passes it through a short linear filter followed by a
memoryless polynomial nonlinearity, adds circular complex Gaussian noise,
and packages the received sequence into delay-embedded regression vectors
paired with the clean source samples.

Source model: ``s(n) = amplitude * (sqrt(1 - rho^2) X(n) + 1j rho Y(n))``
with X, Y independent standard Gaussians. ``rho`` sweeps the signal from
purely real (0) to purely imaginary (1); at ``rho = sqrt(2)/2`` the signal
is circular (its pseudo-variance ``E[s^2] = amplitude^2 (1 - 2 rho^2)``
vanishes).

Channel model: ``t(n) = sum_k taps[k] s(n - k)`` with zero pre-history,
then ``q(n) = t + c2 t^2 + c3 t^3`` and ``r(n) = q(n) + noise(n)`` where
noise has independent real and imaginary parts of equal standard deviation.

Indexing is 0-based throughout: the regression vector for target s(n) is
(r(n+D), r(n+D-1), ..., r(n+D-L)), emitted for every n whose indices all
fall inside the observed sequence.
"""

from __future__ import annotations

import cmath
import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ckaf.kernels import _as_pair, _as_vector, _complex_array, _nonnegative_finite

DEFAULT_LINEAR_TAPS = (-0.9 + 0.8j, 0.6 - 0.7j)
DEFAULT_POLY_COEFFS = (0.1 + 0.15j, 0.06 + 0.05j)


def _require_int(value, name: str) -> None:
    """Refuse ``value`` unless it is an integer (numpy's included), never a bool.

    A bool would embed silently as 0 or 1, and a float fails only later,
    inside numpy, with an error that names no setting.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class SignalConfig:
    """Source signal parameters: circularity rho, scale, length, seed."""

    rho: float
    n_samples: int
    seed: int = 0
    amplitude: float = 0.70

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        _require_int(self.n_samples, "n_samples")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")


@dataclass(frozen=True)
class ChannelConfig:
    """Linear taps, polynomial coefficients (t^2 term first), noise level, seed."""

    noise_stddev: float = 0.0
    seed: int = 0
    linear_taps: tuple[complex, ...] = DEFAULT_LINEAR_TAPS
    poly_coeffs: tuple[complex, ...] = DEFAULT_POLY_COEFFS

    def __post_init__(self):
        # infinite noise makes every received sample non-finite
        _nonnegative_finite(self.noise_stddev, "noise_stddev")
        if len(self.linear_taps) == 0:
            raise ValueError("at least one linear tap is required")
        # a non-finite coefficient makes every received sample non-finite
        for name in ("linear_taps", "poly_coeffs"):
            for k, value in enumerate(getattr(self, name)):
                if not cmath.isfinite(value):
                    raise ValueError(f"{name}[{k}] must be finite, got {[value.real, value.imag]}")


@dataclass(frozen=True)
class EmbeddingConfig:
    """Delay embedding: regression vectors have filter_length + 1 components."""

    filter_length: int = 5
    delay: int = 2

    def __post_init__(self):
        _require_int(self.filter_length, "filter_length")
        _require_int(self.delay, "delay")
        if self.filter_length < 0:
            raise ValueError("filter_length must be nonnegative")
        if self.delay < 0:
            raise ValueError("delay must be nonnegative")


@dataclass(frozen=True)
class Dataset:
    """Aligned regression pairs: inputs[k] predicts targets[k] = s(start + k).

    ``inputs`` (K, L+1) is a read-only window with a negative column stride
    over a private copy of the received sequence: its K rows overlap and
    share that copy's N values. ``np.array(ds.inputs)`` gives a writable
    C-contiguous copy. ``targets`` (K,) is a private copy of
    s(start), ..., s(N-1-D).
    """

    inputs: np.ndarray
    targets: np.ndarray
    start: int


def generate_input(cfg: SignalConfig) -> np.ndarray:
    """Draw the source sequence; deterministic for a fixed seed.

    The real-part and imaginary-part Gaussians are drawn as two consecutive
    blocks from one generator, so sequences for different rho share the same
    underlying randomness at the same seed.
    """
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal(cfg.n_samples)
    y = rng.standard_normal(cfg.n_samples)
    return cfg.amplitude * (np.sqrt(1.0 - cfg.rho**2) * x + 1j * cfg.rho * y)


def apply_channel(s, cfg: ChannelConfig) -> np.ndarray:
    """Filter, distort, and add noise to the source sequence.

    Causal: output n depends only on s(0..n) and the noise at n. Samples
    before the start of the sequence are treated as zero. With
    ``noise_stddev = 0`` the map is a pure deterministic function.
    """
    return _channel_pass(s, cfg)[1]


def _channel_pass(s, cfg: ChannelConfig) -> tuple:
    """``(q, r)``: the noiseless channel output and the received sequence, from one pass.

    ``r`` is ``apply_channel(s, cfg)`` and ``q`` is ``apply_channel(s, cfg)``
    with ``noise_stddev = 0``, bit for bit; without noise both are one array.
    """
    sv = _as_vector(s, "s")
    taps = _complex_array(cfg.linear_taps, "linear_taps")
    t = np.convolve(sv, taps)[: sv.size]
    q = t.copy()
    power = t
    for coeff in cfg.poly_coeffs:
        power = power * t
        q += coeff * power
    if cfg.noise_stddev == 0:
        return q, q
    rng = np.random.default_rng(cfg.seed)
    noise = rng.standard_normal(sv.size) + 1j * rng.standard_normal(sv.size)
    return q, q + cfg.noise_stddev * noise


def build_dataset(r, s, cfg: EmbeddingConfig) -> Dataset:
    """Assemble (regression vector, target) pairs for every in-range index.

    The pair for target index n is ((r(n+D), ..., r(n+D-L)), s(n)); n runs
    from max(0, L-D) through N-1-D so that every referenced sample exists.

    Row n is the window r(n+D-L ... n+D) read backwards, so ``inputs`` is a
    read-only ``sliding_window_view`` of one private copy of ``r`` with a
    negative column stride, not a (K, L+1) copy: the dataset holds 2N
    complex values whatever L is, and later writes to the caller's ``r`` and
    ``s`` do not reach it. ``np.array(ds.inputs)`` gives a writable
    contiguous copy.
    """
    rv, sv = _as_pair(r, s, names=("r", "s"))
    n_total = rv.size
    length, delay = cfg.filter_length, cfg.delay
    if n_total <= length + delay:
        raise ValueError(
            f"need more than filter_length + delay = {length + delay} samples, got {n_total}"
        )
    start = max(0, length - delay)
    windows = sliding_window_view(np.array(rv), length + 1)[:, ::-1]  # row k: r(k+L), ..., r(k)
    inputs = windows[start + delay - length :]  # row n + D - L for n = start ... N-1-D
    return Dataset(inputs=inputs, targets=np.array(sv[start : n_total - delay]), start=start)


def write_dataset_csv(dataset: Dataset, path):
    """Dump pairs as CSV: n, z0_re, z0_im, ..., zL_re, zL_im, target_re, target_im.

    z0 is the most recent regressor r(n+D); floats are written with repr
    precision so parsing the file back reproduces the exact values.
    """
    width = dataset.inputs.shape[1]
    header = ["n"]
    for j in range(width):
        header += [f"z{j}_re", f"z{j}_im"]
    header += ["target_re", "target_im"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(dataset.inputs.shape[0]):
            row = [dataset.start + k]
            for value in dataset.inputs[k]:
                row += [repr(float(value.real)), repr(float(value.imag))]
            target = dataset.targets[k]
            row += [repr(float(target.real)), repr(float(target.imag))]
            writer.writerow(row)
