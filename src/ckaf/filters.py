"""Online complex adaptive filters: kernel LMS and normalized linear baselines.

Three algorithms share one step-record interface:

``cklms``
    Complex kernel LMS. The filter maintains a growing dictionary of centers
    z(k) with complex coefficients a(k) and predicts with the kernel
    expansion ``d_hat = sum_k a(k) * kappa(z, z(k))``. After computing the
    error ``e = d - d_hat`` the candidate coefficient is ``a = mu * e``; the
    novelty criterion decides whether (center, coefficient) is admitted. The
    update is deliberately not normalized by the self-kernel kappa(z, z),
    so with the complex Gaussian kernel the effective step along a sample
    direction is mu * kappa(z, z) >= mu, which can exceed the stability
    range when inputs have large imaginary parts. See the benchmark notes
    in the README for where this bites.

``nclms``
    Normalized complex LMS on the raw input vector: ``d_hat = <z, w>`` with
    the first-slot-linear inner product, ``w <- w + mu/(eps + ||z||^2)
    * conj(e) * z``.

``wl_nclms``
    Widely linear variant filtering the augmented vector (z, conj(z)) with
    two weight vectors and the shared normalization ``eps + 2 ||z||^2``.
    This is exactly nclms run on the augmented vector with the stacked
    weight (w, g): ``<(z, conj z), (w, g)> = <z, w> + <conj z, g>`` and
    ``||(z, conj z)||^2 = 2 ||z||^2`` because ``|conj z_i| = |z_i|``. Both
    algorithms therefore share one step, ``nclms_step``, and the state
    decides which one runs: a state with conjugate weights ``g`` (from
    ``new_linear_state(dim, widely_linear=True)``) is widely linear.

Runs
----
``run_filter`` drives one algorithm over a sequence of (input, target)
pairs, one step function call per pair, and returns a StepRecord per
sample plus the final state. ``run_block`` runs one algorithm over a block
of R realizations and returns (R, N) arrays. The normalized LMS update works
on ``(..., L)`` arrays, so ``run_block`` advances the R runs of nclms or
wl_nclms in lockstep: at step i one numpy expression updates the (R, L)
weights of every run, and each run's predictions and weights equal, bit for
bit, those of a serial ``nclms_step`` loop over it. The gains
``mu / (eps + h ||z||^2)`` (h = 1 for nclms, 2 for wl_nclms) depend only on
the inputs, so ``run_block`` computes them once per realization. A zero
input with ``eps = 0`` has no defined normalized step; its gain is 0 and
the weights stay as they are. cklms runs the rows of a block one after
another, each from ``CklmsState(config)``, one ``cklms_step`` call per
sample, and writes each row's predictions and dictionary sizes straight
into the block's arrays.

Novelty criterion
-----------------
A candidate center is admitted only when its coefficient is finite, it is
far from the dictionary in RKHS norm AND its prediction error is large:
with ``dis = min_k ||phi(z) - phi(z(k))||``, admit when ``a = mu * e`` is
finite, ``dis >= delta1`` and ``|e| >= delta2``. A non-finite coefficient (a
diverged prediction, or a finite error that ``mu > 1`` overflows) is never
written into the dictionary. An empty dictionary admits any finite
coefficient. Rejected samples still consume an iteration and
still produce a StepRecord, so learning curves include their errors.
Setting ``delta1 = delta2 = 0`` disables sparsification entirely.

State objects are mutable and updated in place; the step functions return
``(state, record)`` so call sites can also be written in a functional style.
A state carries its settings: ``CklmsState`` holds its frozen ``CklmsConfig``,
so only the data passes through ``cklms_step``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from ckaf.documents import ConfigError, echo, parse
from ckaf.kernels import (
    REAL_GAUSSIAN, KernelSpec, _as_pair, _as_vector, _complex_array, _complex_scalar,
    _nonnegative_finite, _positive_finite, _require_real, kernel_vector, self_kernel,
)

ALGORITHMS = ("cklms", "nclms", "wl_nclms")

_INITIAL_CAPACITY = 64


class StepRecord(NamedTuple):
    """Outcome of one filtering step.

    ``admitted`` is the novelty decision for cklms; the linear filters update
    unconditionally and always report True. ``dict_size`` is the number of
    stored centers after the step (0 for the linear filters, which keep
    explicit weights instead of a dictionary).
    """

    prediction: complex
    error: complex
    squared_error: float
    admitted: bool
    dict_size: int


class FilterStepError(RuntimeError):
    """A step failed; ``iteration`` carries the zero-based sample index.

    ``run`` is the failing realization's row in a ``run_block`` call, and
    None for a single-run failure.
    """

    def __init__(self, iteration: int, message: str, run: Optional[int] = None):
        super().__init__(f"step {iteration}: {message}")
        self.iteration = iteration
        self.run = run


@dataclass(frozen=True)
class NoveltyConfig:
    """Sparsification thresholds: RKHS distance delta1, error magnitude delta2."""

    delta1: float = 0.0
    delta2: float = 0.0

    def __post_init__(self):
        # an infinite threshold admits nothing after the first center
        _nonnegative_finite(self.delta1, "delta1")
        _nonnegative_finite(self.delta2, "delta2")


class Dictionary:
    """Append-only center/coefficient store with amortized growth.

    Entries are never removed or mutated after admission. The four per-center
    arrays (centers, coefficients, kappa(c, c) and ``sum_i c_i**2``) live in
    one tuple of buffers that doubles in capacity as the dictionary grows.
    ``views`` holds read-only views of their live prefixes, in that order, and
    ``append``, the only method that changes the contents, rebuilds it; the
    ``centers``, ``coefficients``, ``self_kernels`` and ``squares`` properties
    read it. With the cached squares ``kernel_vector`` evaluates the kernel
    against every center with one matrix-vector product.

    The centers are stored row by row at every size, so ``centers`` is a
    read-only C-contiguous (size, dim) view, whose float64 view the kernel
    row of a large dictionary multiplies in one real GEMM.
    """

    def __init__(self):
        self._size = 0
        self._keep(_new_buffers(0, 0))  # the first append allocates them at its width
        self.views = self._read_only

    @property
    def size(self) -> int:
        return self._size

    @property
    def centers(self) -> np.ndarray:
        """Read-only (size, dim) view of the admitted centers; (0, 0) while empty."""
        return self.views[0]

    @property
    def coefficients(self) -> np.ndarray:
        """Read-only (size,) view of the coefficients a(k)."""
        return self.views[1]

    @property
    def self_kernels(self) -> np.ndarray:
        """Read-only (size,) view of cached kappa(c, c) values."""
        return self.views[2]

    @property
    def squares(self) -> np.ndarray:
        """Read-only (size,) view of cached ``sum_i c_i**2`` values."""
        return self.views[3]

    def _keep(self, buffers: tuple):
        """Hold ``buffers`` and a read-only view of each, whose slices are read-only too."""
        self._buffers = buffers
        self._read_only = tuple(buffer.view() for buffer in buffers)
        for view in self._read_only:
            view.setflags(write=False)

    def append(self, center: np.ndarray, coefficient: complex, self_k: float):
        n = self._size
        width = self._buffers[0].shape[1]
        if n == 0:
            self._keep(_new_buffers(_INITIAL_CAPACITY, center.shape[0]))
        elif center.shape[0] != width:
            raise ValueError(f"center has {center.shape[0]} components, dictionary stores {width}")
        elif n == len(self._buffers[1]):
            grown = _new_buffers(2 * n, width)
            for new, old in zip(grown, self._buffers):
                new[:n] = old
            self._keep(grown)
        centers, coefficients, self_kernels, squares = self._buffers
        stored = centers[n]
        stored[:] = center
        coefficients[n] = coefficient
        self_kernels[n] = self_k
        squares[n] = np.add.reduce(stored * stored)
        self._size = n = n + 1
        # slicing the read-only views costs less than a setflags call per view
        centers, coefficients, self_kernels, squares = self._read_only
        self.views = (centers[:n], coefficients[:n], self_kernels[:n], squares[:n])


def _new_buffers(capacity: int, dim: int) -> tuple:
    """Uninitialized (centers, coefficients, self_kernels, squares) buffers; centers row-major."""
    return (
        np.empty((capacity, dim), dtype=np.complex128),
        np.empty(capacity, dtype=np.complex128),
        np.empty(capacity, dtype=np.float64),
        np.empty(capacity, dtype=np.complex128),
    )


@dataclass(frozen=True)
class CklmsConfig:
    """Kernel LMS settings: kernel, step size, thresholds; also run_filter's and run_block's."""

    kernel: KernelSpec
    mu: float
    novelty: NoveltyConfig = field(default_factory=NoveltyConfig)

    def __post_init__(self):
        _positive_finite(self.mu, "mu")  # an infinite step makes every coefficient non-finite


@dataclass
class CklmsState:
    """Kernel LMS filter state: its frozen settings, the dictionary, the iteration count."""

    config: CklmsConfig
    dictionary: Dictionary = field(default_factory=Dictionary)
    iteration: int = 0

    def __post_init__(self):
        # only a CklmsConfig has checked mu; CklmsState(kernel, mu) would bind mu to the dictionary
        if not isinstance(self.config, CklmsConfig):
            raise TypeError(f"config must be a CklmsConfig, got {type(self.config).__name__}")
        # what a snapshot can hold: an int, never a bool
        if not isinstance(self.iteration, int) or isinstance(self.iteration, bool):
            raise TypeError(f"iteration must be an int, got {self.iteration!r}")
        _nonnegative_finite(self.iteration, "iteration")  # a negative count breaks the next step


@dataclass
class LinearFilterState:
    """Explicit-weight state for nclms (g is None) and wl_nclms (g is set).

    ``w`` and ``g`` are stored as complex128 arrays. One that already is
    such an array is kept, not copied, so the steps' in-place updates reach
    the caller's array; anything else (a list, a real array) is converted.
    """

    w: np.ndarray
    g: Optional[np.ndarray] = None
    epsilon: float = 1e-6

    def __post_init__(self):
        _nonnegative_finite(self.epsilon, "epsilon")  # an infinite regularizer makes every gain 0
        # no input could step an empty or 2-D filter
        if self.g is None:
            self.w = _as_vector(self.w, "weights")
        else:
            self.w, self.g = _as_pair(self.w, self.g, names=("weights", "conjugate weights"))
        # a non-finite weight makes every later prediction inf or NaN
        for name, weights in (("weights", self.w), ("conjugate weights", self.g)):
            if weights is not None and not np.isfinite(weights).all():
                raise ValueError(f"{name} have non-finite components")


def new_cklms_state(kernel: KernelSpec, mu: float, novelty: NoveltyConfig = None) -> CklmsState:
    """Fresh kernel LMS state with an empty dictionary."""
    return CklmsState(CklmsConfig(kernel, mu, novelty or NoveltyConfig()))


def new_linear_state(dim: int, widely_linear: bool = False, epsilon: float = 1e-6) -> LinearFilterState:
    """Fresh zero-weight linear state of the given input dimension."""
    w = np.zeros(dim, dtype=np.complex128)
    g = np.zeros(dim, dtype=np.complex128) if widely_linear else None
    return LinearFilterState(w=w, g=g, epsilon=epsilon)


def _as_sample_vector(z) -> np.ndarray:
    zv = _as_vector(z, "input")
    # counting is cheaper than any reduction of the bool array (.all(), np.logical_and.reduce)
    if np.count_nonzero(np.isfinite(zv)) != zv.size:
        raise ArithmeticError("input vector has non-finite components")
    return zv


def _as_target(d) -> complex:
    dv = _complex_scalar(d, "target")
    if not cmath.isfinite(dv):
        raise ArithmeticError(f"target value {dv} is not finite")
    return dv


def cklms_predict(state: CklmsState, z) -> complex:
    """Kernel expansion output sum_k a(k) kappa(z, z(k)); 0 for an empty dictionary.

    The query is validated as in ``cklms_step`` even when the dictionary is
    empty. Raises ArithmeticError on non-finite components, and ValueError on
    a shape that does not match the stored centers or, for the real kernel,
    on nonzero imaginary parts.
    """
    zv = _as_sample_vector(z)
    dictionary = state.dictionary
    if dictionary.size == 0:
        if state.config.kernel.family == REAL_GAUSSIAN:
            _require_real(zv, "z")
        return 0j
    centers, coefficients, _, squares = dictionary.views
    return complex(np.dot(coefficients, kernel_vector(zv, centers, state.config.kernel, squares)))


def cklms_step(state: CklmsState, z, d) -> tuple:
    """One kernel LMS iteration: predict, compute error, apply novelty gating.

    Mutates ``state`` (iteration counter, possibly the dictionary) and
    returns ``(state, StepRecord)``. Rejected samples change nothing but the
    iteration counter. Raises ArithmeticError on non-finite inputs and
    TypeError on non-numeric ones, before the state changes.
    """
    zv = _as_sample_vector(z)
    dv = _as_target(d)
    dictionary = state.dictionary
    config = state.config
    kzz = self_kernel(zv, config.kernel)
    # scalars are Python complex and float from here on: the same IEEE operations as on
    # numpy scalars, without numpy's per-operation dispatch
    if dictionary._size == 0:
        prediction = 0j
        error = dv
        novel = True
    else:
        centers, coefficients, self_kernels, squares = dictionary.views
        kvec = kernel_vector(zv, centers, config.kernel, squares)
        prediction = complex(np.dot(coefficients, kvec))
        error = dv - prediction
        # the squared distance to center k is kzz + (self_kernels[k] - 2 Re kvec[k]); rounding
        # is monotone, so kzz is added once, to the minimum, in three passes over the row
        distance_sq = np.multiply(kvec.real, -2.0)
        distance_sq += self_kernels
        dis = math.sqrt(max(kzz + float(np.minimum.reduce(distance_sq)), 0.0))
        novel = dis >= config.novelty.delta1 and _modulus(error) >= config.novelty.delta2
    coefficient = config.mu * error
    # novelty criterion; finiteness is tested explicitly because every comparison with NaN
    # is false and |nan + inf j| is inf
    admitted = novel and cmath.isfinite(coefficient)
    if admitted:
        dictionary.append(zv, coefficient, kzz)  # append copies zv into its buffer
    state.iteration += 1
    squared_error = error.real * error.real + error.imag * error.imag
    return state, StepRecord(prediction, error, squared_error, admitted, dictionary._size)


def _modulus(e: complex) -> float:
    """|e| by libm ``hypot``, as ``np.abs`` computes it."""
    try:
        return abs(e)
    except OverflowError:  # finite parts whose modulus exceeds the float range; numpy gives inf
        return math.inf


def nclms_step(state: LinearFilterState, z, d, mu: float) -> tuple:
    """One normalized LMS iteration; widely linear when the state has conjugate weights ``g``.

    Strictly linear, ``d_hat = <z, w> = sum_i z_i conj(w_i)`` and the weight
    update is ``w <- w + mu / (eps + ||z||^2) * conj(e) * z``. Widely linear,
    ``d_hat = <z, w> + <conj(z), g>`` and both weight vectors are updated with
    the shared normalization ``eps + 2 ||z||^2``: the same step on the stacked
    input (z, conj(z)) and weight (w, g). Mutates and returns the state
    together with the step record. Raises ValueError on a ``mu`` that is not
    positive and finite, and ArithmeticError on non-finite inputs, before the
    state changes.
    """
    _positive_finite(mu, "mu")  # NaN or inf turns every weight into NaN; mu <= 0 never learns
    zv = _as_sample_vector(z)
    dv = _as_target(d)
    if zv.shape[0] != state.w.shape[0]:
        raise ValueError(f"input has {zv.shape[0]} components, filter expects {state.w.shape[0]}")
    gain = _gains(zv, mu, state.epsilon, state.g is not None)
    prediction, error = _normalized_lms_step(zv, dv, gain, state.w, state.g)
    squared_error = float(error.real * error.real + error.imag * error.imag)
    return state, StepRecord(complex(prediction), complex(error), squared_error, True, 0)


def _gains(z: np.ndarray, mu: float, epsilon: float, widely_linear: bool) -> np.ndarray:
    """``mu / (eps + h ||z||^2)`` over the last axis of ``z``; h = 2 for (z, conj z).

    A zero normalization (a zero input with eps = 0) gets gain 0: the
    update direction is the zero vector, so the weights are left alone.
    """
    # np.add.reduce is what np.sum calls (same bits), without its Python dispatch.
    squares = z.real**2
    squares += z.imag**2
    norm_sq = np.add.reduce(squares, axis=-1)
    denominator = epsilon + (2 if widely_linear else 1) * norm_sq
    return np.divide(mu, denominator, out=np.zeros_like(denominator), where=denominator > 0)


def _normalized_lms_step(z, d, gain, w: np.ndarray, g: Optional[np.ndarray]) -> tuple:
    """The normalized LMS update on ``(..., L)`` inputs; returns (prediction, error).

    ``d`` and ``gain`` (from ``_gains``) have the leading shape of ``z``. The
    weights ``w`` (and, widely linear, the conjugate weights ``g``) have the
    shape of ``z`` and are updated in place. With ``g`` this is the update
    of the stacked input (z, conj z) against the stacked weight (w, g).
    """
    prediction = np.add.reduce(z * np.conj(w), axis=-1)
    if g is not None:
        z_conj = np.conj(z)
        prediction = prediction + np.add.reduce(z_conj * np.conj(g), axis=-1)
    error = d - prediction
    step = (gain * np.conj(error))[..., None]
    w += step * z
    if g is not None:
        g += step * z_conj
    return prediction, error


@dataclass(frozen=True)
class LinearLmsConfig:
    """run_filter and run_block configuration for the nclms and wl_nclms algorithms."""

    mu: float
    epsilon: float = 1e-6

    def __post_init__(self):
        _positive_finite(self.mu, "mu")  # an infinite step turns every weight into NaN
        _nonnegative_finite(self.epsilon, "epsilon")  # an infinite regularizer makes every gain 0


class FilterRun(NamedTuple):
    """Result of driving one filter over a sample sequence."""

    records: list
    state: object

    def squared_errors(self) -> np.ndarray:
        return np.array([r.squared_error for r in self.records])

    def dict_sizes(self) -> np.ndarray:
        return np.array([r.dict_size for r in self.records], dtype=np.int64)


class BlockRun(NamedTuple):
    """Result of ``run_block`` over R realizations of N samples."""

    predictions: np.ndarray  # (R, N) complex
    squared_errors: np.ndarray  # (R, N) float
    dict_sizes: Optional[np.ndarray]  # (R, N) dictionary sizes (cklms), else None
    w: Optional[np.ndarray]  # (R, L) final weights (nclms, wl_nclms), else None
    g: Optional[np.ndarray]  # (R, L) final conjugate weights (wl_nclms), else None


def _check_algorithm(algorithm: str, config) -> None:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    expected = CklmsConfig if algorithm == "cklms" else LinearLmsConfig
    if not isinstance(config, expected):
        raise TypeError(f"{algorithm} requires a {expected.__name__}")


def run_filter(samples, algorithm: str, config) -> FilterRun:
    """Drive one algorithm over (input, target) pairs in order, one step per pair.

    Each pair goes through ``cklms_step`` or ``nclms_step``, so every sample
    is validated by its step. A linear filter starts from zero weights sized
    by the first input, with conjugate weights for wl_nclms.

    Parameters
    ----------
    samples : iterable of (array_like, complex)
        Processed strictly in sequence; must yield at least one pair.
    algorithm : str
        One of "cklms", "nclms", "wl_nclms".
    config : CklmsConfig or LinearLmsConfig
        Matching the algorithm choice.

    Returns
    -------
    FilterRun
        One StepRecord per sample plus the final filter state.

    Raises
    ------
    FilterStepError
        Wrapping any step failure with its zero-based iteration index.
    """
    _check_algorithm(algorithm, config)
    state = CklmsState(config) if algorithm == "cklms" else None
    records = []
    for i, (z, d) in enumerate(samples):
        try:
            if algorithm == "cklms":
                state, record = cklms_step(state, z, d)
            else:
                if state is None:  # zero weights sized by the first input
                    dim = _as_sample_vector(z).shape[0]
                    state = new_linear_state(dim, algorithm == "wl_nclms", config.epsilon)
                state, record = nclms_step(state, z, d, config.mu)
        except Exception as exc:
            raise FilterStepError(i, str(exc)) from exc
        records.append(record)
    if not records:
        raise ValueError("sample sequence is empty")
    return FilterRun(records=records, state=state)


def run_block(inputs, targets, algorithm: str, config) -> BlockRun:
    """Run one algorithm over R independent realizations, each from a fresh state.

    ``inputs`` is (R, N, L) and ``targets`` (R, N). Each realization is
    validated once, before any step. nclms and wl_nclms advance all R runs in
    lockstep: at step i one call of ``_normalized_lms_step`` updates the
    (R, L) weights, so the Python and numpy dispatch cost is paid once per
    step, not once per run, and each run's predictions, squared errors and
    final weights equal, bit for bit, those of a serial ``nclms_step`` loop
    over its samples, from ``new_linear_state``. cklms runs the
    rows one after another, calling ``cklms_step`` once per sample, and keeps
    each row's predictions and dictionary sizes, not its state or its step
    records, so a block never holds R dictionaries.

    Raises FilterStepError, with ``run`` set to the row, at the first sample
    whose input or target is not finite, or at a failing cklms step.
    Non-numeric inputs or targets raise TypeError before any step.
    """
    _check_algorithm(algorithm, config)
    inputs = _complex_array(inputs, "inputs")
    targets = _complex_array(targets, "targets")
    if inputs.ndim != 3 or 0 in inputs.shape or targets.shape != inputs.shape[:2]:
        raise ValueError(
            "expected non-empty inputs (runs, N, L) and targets (runs, N), "
            f"got {inputs.shape} and {targets.shape}"
        )
    runs, n, dim = inputs.shape
    for r in range(runs):
        _check_realization(inputs[r], targets[r], r)
    predictions = np.empty((runs, n), dtype=np.complex128)
    dict_sizes = w = g = None
    if algorithm == "cklms":
        dict_sizes = np.empty((runs, n), dtype=np.int64)
        for r in range(runs):
            state = CklmsState(config)
            run_predictions, run_sizes = [], []
            for i, (z, d) in enumerate(zip(inputs[r], targets[r])):
                try:
                    state, record = cklms_step(state, z, d)
                except Exception as exc:
                    raise FilterStepError(i, str(exc), run=r) from exc
                run_predictions.append(record.prediction)
                run_sizes.append(record.dict_size)
            predictions[r] = run_predictions
            dict_sizes[r] = run_sizes
    else:
        widely_linear = algorithm == "wl_nclms"
        gains = np.empty((runs, n))
        for r in range(runs):
            gains[r] = _gains(inputs[r], config.mu, config.epsilon, widely_linear)
        w = np.zeros((runs, dim), dtype=np.complex128)
        g = np.zeros_like(w) if widely_linear else None
        for i in range(n):
            predictions[:, i] = _normalized_lms_step(inputs[:, i], targets[:, i], gains[:, i], w, g)[0]
    squared_errors = np.empty((runs, n))
    for r in range(runs):  # row by row, so the temporaries stay O(N)
        errors = targets[r] - predictions[r]
        squared_errors[r] = errors.real * errors.real + errors.imag * errors.imag
    return BlockRun(predictions, squared_errors, dict_sizes, w, g)


def _check_realization(inputs: np.ndarray, targets: np.ndarray, run: int) -> None:
    """Raise FilterStepError at the first sample of one realization that is not finite.

    The error carries the message of the step's own sample check.
    """
    bad = ~(np.isfinite(inputs).all(axis=-1) & np.isfinite(targets))
    if bad.any():
        i = int(np.argmax(bad))
        try:
            _as_sample_vector(inputs[i])
            _as_target(targets[i])
        except ArithmeticError as exc:
            raise FilterStepError(i, str(exc), run=run) from exc


@dataclass(frozen=True)
class _CklmsSnapshot:
    """The cklms snapshot document; field order is the document's key order."""

    algorithm: str
    kernel: KernelSpec
    mu: float
    novelty: NoveltyConfig
    iteration: int
    centers: tuple[tuple[complex, ...], ...]
    coefficients: tuple[complex, ...]


@dataclass(frozen=True)
class _LinearSnapshot:
    """The nclms and wl_nclms snapshot document; ``g`` is null for nclms."""

    algorithm: str
    epsilon: float
    w: tuple[complex, ...]
    g: Optional[tuple[complex, ...]] = None


def snapshot_state(state) -> dict:
    """JSON-ready snapshot of a filter state.

    The exact field layout is part of the public interface (see the README):
    cklms snapshots carry the kernel, step size, novelty thresholds,
    iteration counter, centers, and coefficients; linear snapshots carry the
    weight vector(s) and epsilon. Complex values are stored as [real, imag].
    """
    if isinstance(state, CklmsState):
        config, dictionary = state.config, state.dictionary
        snapshot = _CklmsSnapshot(
            "cklms", config.kernel, config.mu, config.novelty, state.iteration,
            dictionary.centers, dictionary.coefficients,
        )
    elif isinstance(state, LinearFilterState):
        algorithm = "nclms" if state.g is None else "wl_nclms"
        snapshot = _LinearSnapshot(algorithm, state.epsilon, state.w, state.g)
    else:
        raise TypeError(f"cannot snapshot object of type {type(state).__name__}")
    return echo(type(snapshot), snapshot)


def restore_state(doc):
    """Rebuild a filter state from a snapshot_state document.

    The document is parsed by ``ckaf.documents.parse`` at path ``snapshot``,
    so a missing, unknown or mistyped field raises a ValueError naming its
    dotted path. The state constructors refuse what they refuse anywhere,
    such as a negative iteration or non-finite weights, as a ValueError at
    path ``snapshot``. States that no run of the filter could reach are
    refused too: a linear algorithm that disagrees with ``g``, unequal center
    and coefficient counts, non-finite centers or coefficients, centers of
    unequal widths and, for the real kernel, centers with nonzero imaginary
    parts. The last two name the center's path, as in
    ``snapshot.centers[1]: ...``.
    """
    # a document that is not an object is refused by parse
    algorithm = doc.get("algorithm") if isinstance(doc, dict) else "cklms"
    if algorithm not in ALGORITHMS:
        raise ValueError(f"snapshot has unknown algorithm {algorithm!r}")
    snap = parse(_CklmsSnapshot if algorithm == "cklms" else _LinearSnapshot, doc, "snapshot")
    if algorithm != "cklms" and (snap.g is not None) != (algorithm == "wl_nclms"):
        verb = "has" if snap.g is not None else "needs"
        raise ValueError(f"snapshot algorithm {algorithm!r} {verb} conjugate weights g")
    try:
        if algorithm != "cklms":
            return LinearFilterState(w=snap.w, g=snap.g, epsilon=snap.epsilon)
        config = CklmsConfig(snap.kernel, snap.mu, snap.novelty)
        state = CklmsState(config, iteration=snap.iteration)
    except ValueError as exc:
        raise ConfigError("snapshot", str(exc)) from exc
    if len(snap.centers) != len(snap.coefficients):
        raise ValueError(
            f"snapshot has {len(snap.centers)} centers but {len(snap.coefficients)} coefficients"
        )
    # cklms_step never admits a non-finite center or coefficient
    for k, (center, coefficient) in enumerate(zip(snap.centers, snap.coefficients)):
        center = _complex_array(center, "center")
        if not np.isfinite(center).all():
            raise ValueError(f"snapshot center {k} has non-finite components")
        if not cmath.isfinite(coefficient):
            raise ValueError(f"snapshot coefficient {k} is not finite")
        try:  # a center of another width, or a complex center for the real kernel
            state.dictionary.append(center, coefficient, self_kernel(center, config.kernel))
        except ValueError as exc:
            raise ValueError(f"snapshot.centers[{k}]: {exc}") from exc
    return state
