"""Monte-Carlo equalization experiments with CSV/JSON learning-curve output.

An experiment runs one synthetic equalization setup (source, channel, delay
embedding) through a list of adaptive filters, repeats it over independent
Monte-Carlo realizations, and averages the squared-error trajectories
pointwise. Within a run every algorithm consumes the identical dataset
realization, so curves are directly comparable.

Seeding contract: run r draws its signal and noise seeds from
``numpy.random.SeedSequence((master_seed, r))``, making runs independent,
order-insensitive, and reproducible bit for bit. The seeds carried inside
the signal/channel sub-configs are placeholders that the runner overrides
per run.

Config contract: the config dataclasses declare every setting once, its
name, JSON type and default. ``config_from_dict`` and ``config_to_dict``
walk their fields, so a setting added to a dataclass is parsed, validated
and echoed without further code.

Output contract: CSV files have the header ``iteration,<label>_mse_db,...``
with 1-based iteration numbers and %.12e values. JSON documents carry three
top-level keys, ``config`` (the fully resolved configuration), ``curves``
(per-algorithm MSE, dB, and dictionary-size data), and ``metadata``
(measured SNR, run counts, wall-clock). Every field except
``metadata.wall_clock_seconds`` is deterministic for a fixed config. MSE
values of 0 are clamped to 1e-12 (-120 dB) before the dB transform.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import MISSING, dataclass, replace
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from ckaf.channel import (
    ChannelConfig,
    EmbeddingConfig,
    SignalConfig,
    apply_channel,
    build_dataset,
    generate_input,
)
from ckaf.filters import ALGORITHMS, CklmsConfig, LinearLmsConfig, NoveltyConfig, run_filter
from ckaf.kernels import KernelSpec

MSE_FLOOR = 1e-12


class ConfigError(ValueError):
    """A configuration document failed validation; names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class AlgorithmConfig:
    """One filter entry: algorithm id, step size, and algorithm parameters.

    ``label`` names the output column and defaults to the algorithm id; give
    explicit labels to run the same algorithm at several settings. ``kernel``,
    ``sigma``, ``delta1``, ``delta2`` apply to cklms; ``epsilon`` to the
    linear filters.
    """

    algorithm: str
    mu: float
    label: Optional[str] = None
    kernel: str = "complex-gaussian"
    sigma: float = 5.0
    delta1: float = 0.0
    delta2: float = 0.0
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.label is None:
            object.__setattr__(self, "label", self.algorithm)

    def filter_config(self):
        if self.algorithm == "cklms":
            return CklmsConfig(
                kernel=KernelSpec(self.kernel, self.sigma),
                mu=self.mu,
                novelty=NoveltyConfig(self.delta1, self.delta2),
            )
        return LinearLmsConfig(mu=self.mu, epsilon=self.epsilon)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one Monte-Carlo experiment."""

    name: str
    signal: SignalConfig
    channel: ChannelConfig
    embedding: EmbeddingConfig
    algorithms: tuple[AlgorithmConfig, ...]
    mc_runs: int
    master_seed: int
    moving_average: int = 0

    def __post_init__(self):
        if self.mc_runs < 1:
            raise ValueError("mc_runs must be at least 1")
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        labels = [a.label for a in self.algorithms]
        if len(set(labels)) != len(labels):
            raise ValueError(f"algorithm labels must be unique, got {labels}")
        if self.moving_average < 0:
            raise ValueError("moving_average must be nonnegative")


@dataclass
class LearningCurve:
    """Per-iteration ensemble-averaged squared error for one algorithm."""

    algorithm: str
    mse: np.ndarray
    dict_size_curve: Optional[np.ndarray] = None
    final_dict_sizes: Optional[np.ndarray] = None

    @property
    def mse_db(self) -> np.ndarray:
        """10 log10 of the MSE with zeros clamped to the 1e-12 floor."""
        return 10.0 * np.log10(np.maximum(self.mse, MSE_FLOOR))


@dataclass
class ExperimentResult:
    """Curves keyed by algorithm label plus the resolved config and metadata."""

    config: ExperimentConfig
    curves: dict
    metadata: dict


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute all Monte-Carlo runs and average learning curves pointwise.

    Runs execute serially in run-index order; each run seeds itself from
    ``(master_seed, run_index)``, so results do not depend on that order.
    Failures are re-raised with the run index and algorithm label attached.
    """
    started = time.perf_counter()
    per_run = (_single_run(cfg, r) for r in range(cfg.mc_runs))
    curves, signal_power, noise_power = _aggregate(cfg, per_run)

    snr_db = None
    if cfg.channel.noise_stddev > 0 and noise_power > 0:
        snr_db = float(10.0 * np.log10(signal_power / noise_power))
    wall = time.perf_counter() - started
    n_samples = next(iter(curves.values())).mse.shape[0]
    metadata = {
        "mc_runs": cfg.mc_runs,
        "curve_length": int(n_samples),
        "measured_snr_db": snr_db,
        "wall_clock_seconds": wall,
    }
    return ExperimentResult(config=cfg, curves=curves, metadata=metadata)


def _single_run(cfg: ExperimentConfig, run_index: int) -> tuple:
    """One Monte-Carlo realization: shared dataset, one trace per algorithm."""
    try:
        seeds = np.random.SeedSequence((cfg.master_seed, run_index)).generate_state(2)
        signal_cfg = replace(cfg.signal, seed=int(seeds[0]))
        channel_cfg = replace(cfg.channel, seed=int(seeds[1]))
        s = generate_input(signal_cfg)
        r = apply_channel(s, channel_cfg)
        if cfg.channel.noise_stddev > 0:
            clean = apply_channel(s, replace(channel_cfg, noise_stddev=0.0))
            signal_power = float(np.mean(np.abs(clean) ** 2))
            noise_power = float(np.mean(np.abs(r - clean) ** 2))
        else:
            signal_power = noise_power = 0.0
        dataset = build_dataset(r, s, cfg.embedding)
    except Exception as exc:
        raise RuntimeError(f"run {run_index}: {exc}") from exc
    samples = list(zip(dataset.inputs, dataset.targets))
    traces = {}
    for alg in cfg.algorithms:
        try:
            run = run_filter(samples, alg.algorithm, alg.filter_config())
        except Exception as exc:
            raise RuntimeError(f"run {run_index}, algorithm {alg.label}: {exc}") from exc
        dict_sizes = run.dict_sizes() if alg.algorithm == "cklms" else None
        traces[alg.label] = (run.squared_errors(), dict_sizes)
    return traces, signal_power, noise_power


def _aggregate(cfg: ExperimentConfig, per_run) -> tuple:
    mse_sums = {}
    dict_sums = {}
    final_sizes = {a.label: [] for a in cfg.algorithms if a.algorithm == "cklms"}
    signal_power = 0.0
    noise_power = 0.0
    count = 0
    for traces, sig_p, noi_p in per_run:
        for label, (squared, dict_sizes) in traces.items():
            if label not in mse_sums:
                mse_sums[label] = np.zeros_like(squared)
            mse_sums[label] += squared
            if dict_sizes is not None:
                if label not in dict_sums:
                    dict_sums[label] = np.zeros(dict_sizes.shape[0])
                dict_sums[label] += dict_sizes
                final_sizes[label].append(int(dict_sizes[-1]))
        signal_power += sig_p
        noise_power += noi_p
        count += 1
    curves = {}
    for alg in cfg.algorithms:
        mse = mse_sums[alg.label] / count
        if cfg.moving_average > 1:
            mse = _trailing_mean(mse, cfg.moving_average)
        curve = LearningCurve(algorithm=alg.label, mse=mse)
        if alg.label in dict_sums:
            curve.dict_size_curve = dict_sums[alg.label] / count
            curve.final_dict_sizes = np.array(final_sizes[alg.label], dtype=np.int64)
        curves[alg.label] = curve
    return curves, signal_power, noise_power


def _trailing_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Length-preserving trailing average; early points use shorter windows."""
    sums = np.cumsum(values)
    out = np.empty_like(values)
    out[:window] = sums[:window] / np.arange(1, window + 1)
    out[window:] = (sums[window:] - sums[:-window]) / window
    return out


def emit_results(result: ExperimentResult, fmt: str, path) -> None:
    """Write learning curves as CSV or a JSON document.

    CSV rows are ``iteration,<label>_mse_db,...`` with iteration starting at
    1 and values rendered as %.12e. JSON mirrors the curves alongside the
    resolved config and run metadata, serialized canonically (sorted keys,
    two-space indent) so identical results re-serialize to identical bytes.
    """
    if fmt == "csv":
        _emit_csv(result, path)
    elif fmt == "json":
        _emit_json(result, path)
    else:
        raise ValueError(f"unknown output format {fmt!r}; expected 'csv' or 'json'")


def _emit_csv(result: ExperimentResult, path) -> None:
    labels = list(result.curves)
    columns = [result.curves[label].mse_db for label in labels]
    n = columns[0].shape[0]
    lines = ["iteration," + ",".join(f"{label}_mse_db" for label in labels)]
    for i in range(n):
        lines.append(f"{i + 1}," + ",".join("%.12e" % col[i] for col in columns))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit_json(result: ExperimentResult, path) -> None:
    curves_doc = {}
    for label, curve in result.curves.items():
        entry = {
            "mse": [float(v) for v in curve.mse],
            "mse_db": [float(v) for v in curve.mse_db],
        }
        if curve.dict_size_curve is not None:
            entry["dict_size_curve"] = [float(v) for v in curve.dict_size_curve]
            entry["final_dict_sizes"] = [int(v) for v in curve.final_dict_sizes]
        curves_doc[label] = entry
    doc = {
        "config": config_to_dict(result.config),
        "curves": curves_doc,
        "metadata": result.metadata,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Full JSON-ready echo of a config, defaults resolved; inverse of config_from_dict."""
    return _echo(ExperimentConfig, cfg)


def config_from_dict(doc: dict, path: str = "experiment") -> ExperimentConfig:
    """Parse one experiment document, reporting bad fields by dotted path."""
    return _parse(ExperimentConfig, doc, path)


def load_config_file(path) -> list:
    """Read a config file holding one experiment or {"experiments": [...]}."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(str(path), f"not valid JSON ({exc})") from exc
    if isinstance(doc, dict) and "experiments" in doc:
        for key in doc:
            if key != "experiments":
                raise ConfigError(key, "unknown field")
        experiments = doc["experiments"]
        if not isinstance(experiments, list) or not experiments:
            raise ConfigError("experiments", "must be a non-empty list")
        configs = [
            config_from_dict(entry, f"experiments[{i}]") for i, entry in enumerate(experiments)
        ]
    else:
        configs = [config_from_dict(doc)]
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        raise ConfigError("experiments", f"experiment names must be unique, got {names}")
    return configs


def _config_fields(cls) -> list:
    # Per-run seeds derive from master_seed, so "seed" is not a config key.
    return [f for f in dataclasses.fields(cls) if f.name != "seed"]


def _parse(cls, doc, path: str):
    """Build config dataclass ``cls`` from a JSON object, checking every key."""
    if not isinstance(doc, dict):
        raise ConfigError(path, "must be an object")
    fields = _config_fields(cls)
    names = {f.name for f in fields}
    for key in doc:
        if key not in names:
            raise ConfigError(f"{path}.{key}", "unknown field")
    hints = get_type_hints(cls)
    values = {}
    for f in fields:
        tp = hints[f.name]
        if f.name in doc:
            values[f.name] = _parse_value(tp, doc[f.name], f"{path}.{f.name}")
        elif dataclasses.is_dataclass(tp) and all(
            g.default is not MISSING for g in dataclasses.fields(tp)
        ):
            values[f.name] = tp()  # a section whose fields all have defaults may be omitted
        elif f.default is MISSING:
            raise ConfigError(f"{path}.{f.name}", "missing required field")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_value(tp, value, path: str):
    if dataclasses.is_dataclass(tp):
        return _parse(tp, value, path)
    if get_origin(tp) is tuple:
        _check_type(list, value, path)
        return tuple(_parse_value(get_args(tp)[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if tp is complex:
        if not (isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value)):
            raise ConfigError(path, f"expected a [real, imag] pair, got {value!r}")
        return complex(value[0], value[1])
    if get_origin(tp) is Union:  # Optional[X]: null is not accepted, only X
        tp = get_args(tp)[0]
    return _check_type(tp, value, path)


def _check_type(tp, value, path: str):
    accepted, expected = ((int, float), "number") if tp is float else (tp, tp.__name__)
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise ConfigError(path, f"expected {expected}, got {value!r}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _echo(tp, value):
    """JSON form of ``value`` declared as ``tp``: objects, lists, [real, imag] pairs."""
    if dataclasses.is_dataclass(tp):
        hints = get_type_hints(tp)
        return {f.name: _echo(hints[f.name], getattr(value, f.name)) for f in _config_fields(tp)}
    if get_origin(tp) is tuple:
        return [_echo(get_args(tp)[0], v) for v in value]
    if tp is complex:
        return [float(np.real(value)), float(np.imag(value))]
    return value
