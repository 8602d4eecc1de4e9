"""Monte-Carlo equalization experiments with CSV/JSON learning-curve output.

An experiment runs one synthetic equalization setup (source, channel, delay
embedding) through a list of adaptive filters, repeats it over independent
Monte-Carlo realizations, and averages the squared-error trajectories
pointwise. ``run_experiment`` walks the runs in blocks of ``RUN_BLOCK``
realizations, so memory is bounded by the block, not by ``mc_runs``. Every
algorithm of a run consumes the identical dataset realization, so curves are
directly comparable. Once a block is generated, each algorithm runs over it
with one ``run_block`` call, in config order. Each run's squared errors and
dictionary sizes go into per-label running sums in run order, so the curves
do not depend on the block size.
``LearningCurve.steady_state_db`` is the one steady-state statistic: the dB
value of the mean MSE over the last ``STEADY_STATE_WINDOW`` (500)
iterations.

Seeding contract: run r draws its signal and noise seeds from
``numpy.random.SeedSequence((master_seed, r))``, making runs independent,
order-insensitive, and reproducible bit for bit. The seeds carried inside
the signal/channel sub-configs are placeholders that the runner overrides
per run.

Config contract: the config dataclasses declare every setting once, its
name, JSON type and default. ``config_from_dict`` and ``config_to_dict``
walk their fields with ``ckaf.documents.parse`` and ``echo``, so a setting
added to a dataclass is parsed, validated and echoed without further code.
That one module parses and writes both configs and filter snapshots
(``ckaf.filters.snapshot_state``/``restore_state``), so both report a bad
value by its dotted path, e.g. ``experiment.signal.rho``.

Output contract: CSV files have the header ``iteration,<label>_mse_db,...``
with 1-based iteration numbers and %.12e values. JSON documents carry three
top-level keys, ``config`` (the fully resolved configuration), ``curves``
(per-algorithm MSE, dB, and dictionary-size data), and ``metadata``
(measured SNR, run counts, wall-clock). Every field except
``metadata.wall_clock_seconds`` is deterministic for a fixed config. MSE
values of 0 are clamped to 1e-12 (-120 dB) before the dB transform.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

# apply_channel is not called here; it stays importable from this module, where
# benchmarks/workloads.py resolves the channel functions
from ckaf.channel import (
    ChannelConfig,
    EmbeddingConfig,
    SignalConfig,
    _channel_pass,
    _require_int,
    apply_channel,
    build_dataset,
    generate_input,
)
from ckaf.documents import ConfigError, echo, parse
from ckaf.filters import (
    ALGORITHMS,
    CklmsConfig,
    FilterStepError,
    LinearLmsConfig,
    NoveltyConfig,
    run_block,
)
from ckaf.kernels import KernelSpec

MSE_FLOOR = 1e-12
STEADY_STATE_WINDOW = 500
# Monte-Carlo runs per run_block call; bounds the (runs, N, L) block.
RUN_BLOCK = 16


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
        if not self.label or any(c in self.label for c in ',"\r\n'):  # it heads a CSV column
            raise ValueError(
                f"label must be non-empty, with no comma, quote or line break, got {self.label!r}"
            )
        self.filter_config()  # range checks of mu, kernel, sigma, thresholds, epsilon

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

    def __post_init__(self):
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\\0"):  # a file name
            raise ValueError(
                f"name must be a plain file name (no /, \\ or NUL, not . or ..), got {self.name!r}"
            )
        _require_int(self.mc_runs, "mc_runs")
        _require_int(self.master_seed, "master_seed")
        if self.mc_runs < 1:
            raise ValueError("mc_runs must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        labels = [a.label for a in self.algorithms]
        if len(set(labels)) != len(labels):
            raise ValueError(f"algorithm labels must be unique, got {labels}")


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

    @property
    def steady_state_db(self) -> float:
        """10 log10 of the mean MSE over the last STEADY_STATE_WINDOW iterations, floored."""
        tail = self.mse[-STEADY_STATE_WINDOW:]
        return float(10.0 * np.log10(np.maximum(np.mean(tail), MSE_FLOOR)))


@dataclass
class ExperimentResult:
    """Curves keyed by algorithm label plus the resolved config and metadata."""

    config: ExperimentConfig
    curves: dict
    metadata: dict


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute all Monte-Carlo runs and average learning curves pointwise.

    Runs are taken in blocks of ``RUN_BLOCK`` in run-index order, and every
    algorithm runs once per block, in config order, through ``run_block``,
    so each consumes the same datasets. Each run seeds itself
    from ``(master_seed, run_index)``, so results do not depend on that
    order. Per-label running sums, added in run order, keep memory
    independent of the run count. Failures are re-raised with the run index
    and algorithm label attached.
    """
    started = time.perf_counter()
    mse_sums = {}
    dict_sums = {}
    final_sizes = {}
    signal_power = noise_power = 0.0
    for first in range(0, cfg.mc_runs, RUN_BLOCK):
        runs = range(first, min(first + RUN_BLOCK, cfg.mc_runs))
        inputs = targets = None
        for j, r in enumerate(runs):
            run_inputs, run_targets, run_signal_power, run_noise_power = _realization(cfg, r)
            if inputs is None:
                inputs = np.empty((len(runs), *run_inputs.shape), dtype=np.complex128)
                targets = np.empty((len(runs), *run_targets.shape), dtype=np.complex128)
            inputs[j], targets[j] = run_inputs, run_targets
            del run_inputs, run_targets  # the block rows are the only copy kept
            signal_power += run_signal_power
            noise_power += run_noise_power
        for alg in cfg.algorithms:
            try:
                block = run_block(inputs, targets, alg.algorithm, alg.filter_config())
            except FilterStepError as exc:
                raise RuntimeError(f"run {first + exc.run}, algorithm {alg.label}: {exc}") from exc
            for j in range(len(runs)):
                mse_sums[alg.label] = mse_sums.get(alg.label, 0.0) + block.squared_errors[j]
                if block.dict_sizes is not None:
                    dict_sums[alg.label] = dict_sums.get(alg.label, 0.0) + block.dict_sizes[j]
                    final_sizes.setdefault(alg.label, []).append(int(block.dict_sizes[j, -1]))
            del block  # one algorithm's block at a time

    curves = {}
    for alg in cfg.algorithms:
        curve = LearningCurve(algorithm=alg.label, mse=mse_sums[alg.label] / cfg.mc_runs)
        if alg.label in final_sizes:
            curve.dict_size_curve = dict_sums[alg.label] / cfg.mc_runs
            curve.final_dict_sizes = np.array(final_sizes[alg.label], dtype=np.int64)
        curves[alg.label] = curve
    snr_db = None
    if cfg.channel.noise_stddev > 0 and noise_power > 0:
        snr_db = float(10.0 * np.log10(signal_power / noise_power))
    metadata = {
        "mc_runs": cfg.mc_runs,
        "curve_length": int(curves[cfg.algorithms[0].label].mse.shape[0]),
        "measured_snr_db": snr_db,
        "wall_clock_seconds": time.perf_counter() - started,
    }
    return ExperimentResult(config=cfg, curves=curves, metadata=metadata)


def _realization(cfg: ExperimentConfig, run_index: int) -> tuple:
    """Run ``run_index``'s (N, L) inputs and (N,) targets plus its signal and noise powers.

    The inputs are the dataset's read-only window over the received sequence;
    ``run_experiment`` copies them into its block.
    """
    try:
        seeds = np.random.SeedSequence((cfg.master_seed, run_index)).generate_state(2)
        signal_cfg = replace(cfg.signal, seed=int(seeds[0]))
        channel_cfg = replace(cfg.channel, seed=int(seeds[1]))
        s = generate_input(signal_cfg)
        clean, r = _channel_pass(s, channel_cfg)
        if cfg.channel.noise_stddev > 0:
            signal_power = float(np.mean(np.abs(clean) ** 2))
            noise_power = float(np.mean(np.abs(r - clean) ** 2))
        else:
            signal_power = noise_power = 0.0
        dataset = build_dataset(r, s, cfg.embedding)
    except Exception as exc:
        raise RuntimeError(f"run {run_index}: {exc}") from exc
    return dataset.inputs, dataset.targets, signal_power, noise_power


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
    columns = [result.curves[label].mse_db.tolist() for label in labels]
    row = "%d" + ",%.12e" * len(columns)  # one % call per row, on Python floats
    lines = ["iteration," + ",".join(f"{label}_mse_db" for label in labels)]
    lines += [row % values for values in zip(range(1, len(columns[0]) + 1), *columns)]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit_json(result: ExperimentResult, path) -> None:
    """Write ``json.dumps(doc, sort_keys=True, indent=2)`` of the result document.

    The curve lists hold nearly every number of the document, and ``json``
    renders an indented document in pure Python, one item at a time. They
    are rendered here instead, each list with one join over its ``tolist()``
    in the layout ``json`` gives it at its depth, and written as they are
    rendered, so that no copy of the whole text is held; ``config`` and
    ``metadata`` are rendered by ``json`` and indented one level (``json``
    escapes every newline inside a string).
    """
    config = json.dumps(config_to_dict(result.config), sort_keys=True, indent=2)
    metadata = json.dumps(result.metadata, sort_keys=True, indent=2)
    with open(path, "w") as fh:
        fh.write('{\n  "config": ' + config.replace("\n", "\n  ") + ',\n  "curves": {')
        for n, label in enumerate(sorted(result.curves)):
            curve = result.curves[label]
            lists = {"mse": curve.mse, "mse_db": curve.mse_db}
            if curve.dict_size_curve is not None:
                lists["dict_size_curve"] = curve.dict_size_curve
                lists["final_dict_sizes"] = curve.final_dict_sizes
            fh.write(("," if n else "") + "\n    " + json.dumps(label) + ": {")
            for k, key in enumerate(sorted(lists)):
                fh.write(("," if k else "") + f'\n      "{key}": ' + _json_list(lists[key].tolist()))
            fh.write("\n    }")
        fh.write(("\n  }" if result.curves else "}") + ',\n  "metadata": ')
        fh.write(metadata.replace("\n", "\n  ") + "\n}\n")


# json's spellings of the floats that Python's repr writes as nan, inf and -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_list(values: list) -> str:
    """A list of ints or floats as ``json.dumps(..., indent=2)`` writes it in a curve."""
    if not values:
        return "[]"
    items = map(repr, values)  # json writes ints and finite floats by their repr
    if not all(map(math.isfinite, values)):
        items = (_JSON_NONFINITE.get(item, item) for item in items)
    return "[\n        " + ",\n        ".join(items) + "\n      ]"


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Full JSON-ready echo of a config, defaults resolved; inverse of config_from_dict."""
    return echo(ExperimentConfig, cfg)


def config_from_dict(doc: dict, path: str = "experiment") -> ExperimentConfig:
    """Parse one experiment document, reporting bad fields by dotted path."""
    return parse(ExperimentConfig, doc, path)


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
