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
    algorithms therefore share one update, written over a tuple of
    (input, weight) halves.

Novelty criterion
-----------------
A candidate center is admitted only when its error is finite, it is far
from the dictionary in RKHS norm AND its prediction error is large: with
``dis = min_k ||phi(z) - phi(z(k))||``, admit when ``e`` is finite,
``dis >= delta1`` and ``|e| >= delta2``. A non-finite error (a diverged
prediction) is never written into the dictionary. An empty dictionary
always admits. Rejected samples still consume an iteration and
still produce a StepRecord, so learning curves include their errors.
Setting ``delta1 = delta2 = 0`` disables sparsification entirely.

State objects are mutable and updated in place; the step functions return
``(state, record)`` so call sites can also be written in a functional style.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from ckaf.kernels import KernelSpec, kernel_vector, self_kernel

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
    """A step failed; ``iteration`` carries the zero-based sample index."""

    def __init__(self, iteration: int, message: str):
        super().__init__(f"step {iteration}: {message}")
        self.iteration = iteration


@dataclass(frozen=True)
class NoveltyConfig:
    """Sparsification thresholds: RKHS distance delta1, error magnitude delta2."""

    delta1: float = 0.0
    delta2: float = 0.0

    def __post_init__(self):
        if self.delta1 < 0 or self.delta2 < 0:
            raise ValueError("novelty thresholds must be nonnegative")


class Dictionary:
    """Append-only center/coefficient store with amortized growth.

    Entries are never removed or mutated after admission. ``centers`` and
    ``coefficients`` expose read-only views of the live prefix; internal
    buffers double in capacity as the dictionary grows. Besides kappa(c, c),
    each entry caches ``sum_i c_i**2``, with which ``kernel_vector``
    evaluates the kernel against every center with one matrix-vector product.
    """

    def __init__(self):
        self._centers = None
        self._coefficients = np.empty(_INITIAL_CAPACITY, dtype=np.complex128)
        self._self_kernels = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._squares = np.empty(_INITIAL_CAPACITY, dtype=np.complex128)
        self._size = 0

    def __len__(self):
        return self._size

    @property
    def size(self) -> int:
        return self._size

    @property
    def dim(self) -> Optional[int]:
        """Component count of stored centers, or None while empty."""
        return None if self._centers is None else self._centers.shape[1]

    @property
    def centers(self) -> np.ndarray:
        """Read-only (size, dim) view of the admitted centers."""
        if self._centers is None:
            return np.empty((0, 0), dtype=np.complex128)
        view = self._centers[: self._size]
        view.setflags(write=False)
        return view

    @property
    def coefficients(self) -> np.ndarray:
        """Read-only (size,) view of the coefficients a(k)."""
        view = self._coefficients[: self._size]
        view.setflags(write=False)
        return view

    @property
    def self_kernels(self) -> np.ndarray:
        """Read-only (size,) view of cached kappa(c, c) values."""
        view = self._self_kernels[: self._size]
        view.setflags(write=False)
        return view

    @property
    def squares(self) -> np.ndarray:
        """Read-only (size,) view of cached ``sum_i c_i**2`` values."""
        view = self._squares[: self._size]
        view.setflags(write=False)
        return view

    def append(self, center: np.ndarray, coefficient: complex, self_k: float):
        if self._centers is None:
            self._centers = np.empty(
                (_INITIAL_CAPACITY, center.shape[0]), dtype=np.complex128
            )
        elif center.shape[0] != self._centers.shape[1]:
            raise ValueError(
                f"center has {center.shape[0]} components, dictionary stores "
                f"{self._centers.shape[1]}"
            )
        if self._size == self._centers.shape[0]:
            self._centers = np.concatenate([self._centers, np.empty_like(self._centers)])
            self._coefficients = np.concatenate(
                [self._coefficients, np.empty_like(self._coefficients)]
            )
            self._self_kernels = np.concatenate(
                [self._self_kernels, np.empty_like(self._self_kernels)]
            )
            self._squares = np.concatenate([self._squares, np.empty_like(self._squares)])
        stored = self._centers[self._size]
        stored[:] = center
        self._coefficients[self._size] = coefficient
        self._self_kernels[self._size] = self_k
        self._squares[self._size] = np.add.reduce(stored * stored)
        self._size += 1


@dataclass
class CklmsState:
    """Kernel LMS filter state: kernel, step size, thresholds, dictionary."""

    kernel: KernelSpec
    mu: float
    novelty: NoveltyConfig = field(default_factory=NoveltyConfig)
    dictionary: Dictionary = field(default_factory=Dictionary)
    iteration: int = 0

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")


@dataclass
class LinearFilterState:
    """Explicit-weight state for nclms (g is None) and wl_nclms (g is set)."""

    w: np.ndarray
    g: Optional[np.ndarray] = None
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


def new_cklms_state(kernel: KernelSpec, mu: float, novelty: NoveltyConfig = None) -> CklmsState:
    """Fresh kernel LMS state with an empty dictionary."""
    return CklmsState(kernel=kernel, mu=mu, novelty=novelty or NoveltyConfig())


def new_linear_state(dim: int, widely_linear: bool = False, epsilon: float = 1e-6) -> LinearFilterState:
    """Fresh zero-weight linear state of the given input dimension."""
    w = np.zeros(dim, dtype=np.complex128)
    g = np.zeros(dim, dtype=np.complex128) if widely_linear else None
    return LinearFilterState(w=w, g=g, epsilon=epsilon)


def _as_sample_vector(z) -> np.ndarray:
    zv = np.asarray(z, dtype=np.complex128)
    if zv.ndim != 1 or zv.size == 0:
        raise ValueError("input must be a 1-D vector with at least one component")
    if not np.all(np.isfinite(zv)):
        raise ArithmeticError("input vector has non-finite components")
    return zv


def _as_target(d) -> np.complex128:
    dv = np.complex128(d)
    if not np.isfinite(dv):
        raise ArithmeticError(f"target value {dv} is not finite")
    return dv


def cklms_predict(state: CklmsState, z) -> complex:
    """Kernel expansion output sum_k a(k) kappa(z, z(k)); 0 for an empty dictionary.

    The query is validated as in ``cklms_step`` even when the dictionary is
    empty. Raises ArithmeticError on non-finite components and ValueError on
    a shape that does not match the stored centers.
    """
    zv = _as_sample_vector(z)
    dictionary = state.dictionary
    if dictionary.size == 0:
        return 0j
    kvec = kernel_vector(zv, dictionary.centers, state.kernel, dictionary.squares)
    return complex(np.dot(dictionary.coefficients, kvec))


def cklms_step(state: CklmsState, z, d) -> tuple:
    """One kernel LMS iteration: predict, compute error, apply novelty gating.

    Mutates ``state`` (iteration counter, possibly the dictionary) and
    returns ``(state, StepRecord)``. Rejected samples change nothing but the
    iteration counter. Raises ArithmeticError on non-finite inputs.
    """
    zv = _as_sample_vector(z)
    dv = _as_target(d)
    dictionary = state.dictionary
    m = dictionary.size
    kzz = self_kernel(zv, state.kernel)
    if m == 0:
        prediction = np.complex128(0)
        error = dv
        admitted = True
    else:
        kvec = kernel_vector(zv, dictionary.centers, state.kernel, dictionary.squares)
        prediction = np.dot(dictionary.coefficients, kvec)
        error = dv - prediction
        distance_sq = kzz + dictionary.self_kernels - 2.0 * kvec.real
        dis = np.sqrt(max(float(distance_sq.min()), 0.0))
        # novelty criterion; finiteness is tested explicitly because every
        # comparison with NaN is false and |nan + inf j| is inf
        admitted = bool(
            cmath.isfinite(error)
            and dis >= state.novelty.delta1
            and np.abs(error) >= state.novelty.delta2
        )
    if admitted:
        dictionary.append(zv.copy(), state.mu * error, kzz)
    state.iteration += 1
    return state, _step_record(prediction, error, admitted, dictionary.size)


def nclms_step(state: LinearFilterState, z, d, mu: float) -> tuple:
    """One normalized complex LMS iteration on the raw input vector.

    ``d_hat = <z, w> = sum_i z_i conj(w_i)`` and the weight update is
    ``w <- w + mu / (eps + ||z||^2) * conj(e) * z``. Mutates and returns the
    state together with the step record. Raises ValueError on a widely
    linear state (``g`` set), which belongs to ``wl_nclms_step``.
    """
    zv = _as_sample_vector(z)
    dv = _as_target(d)
    if state.g is not None:
        raise ValueError("state has a conjugate weight vector; use wl_nclms_step")
    return _normalized_lms_step(state, ((zv, state.w),), dv, mu)


def wl_nclms_step(state: LinearFilterState, z, d, mu: float) -> tuple:
    """One widely linear normalized LMS iteration on the augmented vector.

    Prediction uses both weight vectors, ``d_hat = <z, w> + <conj(z), g>``,
    and both are updated with the shared normalization ``eps + 2 ||z||^2``,
    which is the plain normalized LMS step written for the stacked vector
    (z, conj(z)).
    """
    zv = _as_sample_vector(z)
    dv = _as_target(d)
    if state.g is None:
        raise ValueError("state has no conjugate weight vector; use new_linear_state(dim, widely_linear=True)")
    return _normalized_lms_step(state, ((zv, state.w), (np.conj(zv), state.g)), dv, mu)


def _normalized_lms_step(state: LinearFilterState, halves: tuple, dv, mu: float) -> tuple:
    """Normalized LMS on the stacked input of ``halves``, a tuple of (x, w) pairs.

    The first half is the raw input ``z``; a second half, if present, is
    ``conj(z)``. Every half has the norm of ``z``, so the stacked squared
    norm is ``len(halves) * ||z||^2``. Weights are updated in place.
    """
    (z, w), *rest = halves
    if z.shape != w.shape:
        raise ValueError(f"input has {z.shape[0]} components, filter expects {w.shape[0]}")
    # np.add.reduce is what np.sum calls (same bits), without its Python dispatch.
    prediction = np.add.reduce(z * np.conj(w))
    for x, v in rest:
        prediction = prediction + np.add.reduce(x * np.conj(v))
    error = dv - prediction
    norm_sq = float(np.add.reduce(z.real**2 + z.imag**2))
    gain = mu / (state.epsilon + len(halves) * norm_sq)
    for x, v in halves:
        v += gain * np.conj(error) * x
    return state, _step_record(prediction, error, True, 0)


def _step_record(prediction, error, admitted: bool, dict_size: int) -> StepRecord:
    return StepRecord(
        prediction=complex(prediction),
        error=complex(error),
        squared_error=float(error.real * error.real + error.imag * error.imag),
        admitted=admitted,
        dict_size=dict_size,
    )


@dataclass(frozen=True)
class CklmsConfig:
    """run_filter configuration for the cklms algorithm."""

    kernel: KernelSpec
    mu: float
    novelty: NoveltyConfig = field(default_factory=NoveltyConfig)

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")


@dataclass(frozen=True)
class LinearLmsConfig:
    """run_filter configuration for the nclms and wl_nclms algorithms."""

    mu: float
    epsilon: float = 1e-6

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")


class FilterRun(NamedTuple):
    """Result of driving one filter over a sample sequence."""

    records: list
    state: object

    def squared_errors(self) -> np.ndarray:
        return np.array([r.squared_error for r in self.records])

    def dict_sizes(self) -> np.ndarray:
        return np.array([r.dict_size for r in self.records], dtype=np.int64)


def run_filter(samples, algorithm: str, config) -> FilterRun:
    """Drive one algorithm over (input, target) pairs in order.

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
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if algorithm == "cklms":
        if not isinstance(config, CklmsConfig):
            raise TypeError("cklms requires a CklmsConfig")
    elif not isinstance(config, LinearLmsConfig):
        raise TypeError(f"{algorithm} requires a LinearLmsConfig")
    records = []
    state = None
    for i, (z, d) in enumerate(samples):
        try:
            if state is None:
                state = _initial_state(algorithm, config, z)
            if algorithm == "cklms":
                state, record = cklms_step(state, z, d)
            elif algorithm == "nclms":
                state, record = nclms_step(state, z, d, config.mu)
            else:
                state, record = wl_nclms_step(state, z, d, config.mu)
        except Exception as exc:
            raise FilterStepError(i, str(exc)) from exc
        records.append(record)
    if not records:
        raise ValueError("sample sequence is empty")
    return FilterRun(records=records, state=state)


def _initial_state(algorithm, config, first_input):
    if algorithm == "cklms":
        return new_cklms_state(config.kernel, config.mu, config.novelty)
    dim = np.asarray(first_input).shape[0]
    return new_linear_state(dim, widely_linear=(algorithm == "wl_nclms"), epsilon=config.epsilon)


def snapshot_state(state) -> dict:
    """JSON-ready snapshot of a filter state.

    The exact field layout is part of the public interface (see the README):
    cklms snapshots carry the kernel, step size, novelty thresholds,
    iteration counter, centers, and coefficients; linear snapshots carry the
    weight vector(s) and epsilon. Complex values are stored as [real, imag].
    """
    if isinstance(state, CklmsState):
        return {
            "algorithm": "cklms",
            "kernel": {"family": state.kernel.family, "sigma": state.kernel.sigma},
            "mu": state.mu,
            "novelty": {"delta1": state.novelty.delta1, "delta2": state.novelty.delta2},
            "iteration": state.iteration,
            "centers": [[_pair(c) for c in row] for row in state.dictionary.centers],
            "coefficients": [_pair(a) for a in state.dictionary.coefficients],
        }
    if isinstance(state, LinearFilterState):
        return {
            "algorithm": "nclms" if state.g is None else "wl_nclms",
            "epsilon": state.epsilon,
            "w": [_pair(c) for c in state.w],
            "g": None if state.g is None else [_pair(c) for c in state.g],
        }
    raise TypeError(f"cannot snapshot object of type {type(state).__name__}")


def restore_state(doc: dict):
    """Rebuild a filter state from a snapshot_state document."""
    algorithm = doc.get("algorithm")
    if algorithm == "cklms":
        state = new_cklms_state(
            KernelSpec(doc["kernel"]["family"], doc["kernel"]["sigma"]),
            doc["mu"],
            NoveltyConfig(doc["novelty"]["delta1"], doc["novelty"]["delta2"]),
        )
        if len(doc["centers"]) != len(doc["coefficients"]):
            raise ValueError(
                f"snapshot has {len(doc['centers'])} centers but "
                f"{len(doc['coefficients'])} coefficients"
            )
        for center_pairs, coeff_pair in zip(doc["centers"], doc["coefficients"]):
            center = np.array([complex(re, im) for re, im in center_pairs])
            state.dictionary.append(
                center, complex(*coeff_pair), self_kernel(center, state.kernel)
            )
        state.iteration = doc["iteration"]
        return state
    if algorithm in ("nclms", "wl_nclms"):
        w = np.array([complex(re, im) for re, im in doc["w"]], dtype=np.complex128)
        g = None
        if doc.get("g") is not None:
            g = np.array([complex(re, im) for re, im in doc["g"]], dtype=np.complex128)
        return LinearFilterState(w=w, g=g, epsilon=doc["epsilon"])
    raise ValueError(f"snapshot has unknown algorithm {algorithm!r}")


def _pair(c) -> list:
    return [float(np.real(c)), float(np.imag(c))]
