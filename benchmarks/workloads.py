"""The benchmark's workloads: their configs and the unit of work each one times.

``mc_*`` workloads time one in-process ``ckaf equalize`` call, from config file to written
output. ``stream_cklms`` times one pass of a closed loop that feeds a single caller's samples
one at a time through the public ``cklms_step``. Both go through the public API only, so the
benchmark keeps measuring the same work when the package's internals are restructured.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG_DIR = BENCH_DIR / "configs"
DEFAULT_SEED = 20240

# Why each workload exists is recorded in README.md; curve_db_tolerance is the cklms curve
# check (None where the regime diverges and the curve is chaotic); large_share weights the
# host index toward the large-dictionary calibration (calibration.py).
WORKLOADS = {
    "mc_bundled": {"kind": "mc", "format": "csv", "curve_db_tolerance": None, "large_share": 0.5},
    "mc_sparse": {"kind": "mc", "format": "json", "curve_db_tolerance": 0.5, "large_share": 0.0},
    "stream_cklms": {"kind": "stream", "large_share": 0.0},
}

# Untimed warm-up sizes. One full-length realization grows a dictionary to its full size
# once, so allocator growth is not charged to the first timed call.
WARMUP_MC = {"mc_runs": 1}
WARMUP_STREAM_STEPS = 2000


def use_source_tree() -> bool:
    """Put the checkout's ``src`` first on the import path; False when it is absent."""
    if not (SRC / "ckaf" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def workload_doc(name: str, seed: int, sizes: dict = None) -> dict:
    """The workload's experiment document with ``master_seed`` set to ``seed``.

    ``sizes`` may override ``n_samples`` and ``mc_runs`` (tests and warm-up use it).
    """
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    doc["master_seed"] = seed
    if sizes:
        doc["signal"]["n_samples"] = sizes.get("n_samples", doc["signal"]["n_samples"])
        doc["mc_runs"] = sizes.get("mc_runs", doc["mc_runs"])
    return doc


def write_doc(doc: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def equalize(config_path: Path, out_dir: Path, fmt: str, tracer=None) -> tuple:
    """One in-process ``ckaf equalize`` call: (exit code, wall seconds, printed summary)."""
    from ckaf import cli

    argv = ["equalize", "--config", str(config_path), "--out", str(out_dir), "--format", fmt]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        started = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span("cli.equalize"):
                code = cli.main(argv)
        wall = time.perf_counter() - started
    return code, wall, printed.getvalue()


def load_stream(config_path: Path, run: int = 0) -> tuple:
    """The stream's set-up: load and validate its config, then build the input sequence.

    Seeds follow run ``run`` of an experiment with the same master seed. The channel functions are
    resolved through ``ckaf.experiment`` at call time, the names a traced run patches.
    """
    from ckaf import experiment

    cfg = experiment.load_config_file(config_path)[0]
    signal_seed, channel_seed = np.random.SeedSequence((cfg.master_seed, run)).generate_state(2)
    s = experiment.generate_input(replace(cfg.signal, seed=int(signal_seed)))
    r = experiment.apply_channel(s, replace(cfg.channel, seed=int(channel_seed)))
    dataset = experiment.build_dataset(r, s, cfg.embedding)
    return cfg.algorithms[0].filter_config(), list(zip(dataset.inputs, dataset.targets))


def stream_pass(filter_config, samples, clock=None) -> dict:
    """Feed ``samples`` through ``cklms_step`` from an empty dictionary, timing every step.

    With a ``calibration.HostClock`` the loop stops about every ``clock.chunk_s`` seconds
    to calibrate, untimed, and scales that chunk's step latencies to reference-host time
    (``scaled_ns``, ``scaled_wall``).
    """
    from ckaf import filters

    step = filters.cklms_step  # resolved per pass, so a traced pass gets the wrapper
    state = filters.new_cklms_state(filter_config.kernel, filter_config.mu, filter_config.novelty)
    latency_ns = np.empty(len(samples), dtype=np.int64)
    scaled_ns = np.empty(len(samples))
    squared = np.empty(len(samples))
    clock_ns = time.perf_counter_ns
    chunk_ns = int(clock.chunk_s * 1e9) if clock is not None else 0
    chunk_start = 0
    previous = chunk_began = clock_ns()
    for i, (z, d) in enumerate(samples):
        state, record = step(state, z, d)
        now = clock_ns()
        latency_ns[i] = now - previous
        previous = now
        squared[i] = record.squared_error
        if clock is not None and (now - chunk_began >= chunk_ns or i + 1 == len(samples)):
            scaled_ns[chunk_start : i + 1] = latency_ns[chunk_start : i + 1] * clock.checkpoint()
            chunk_start = i + 1
            previous = chunk_began = clock_ns()
    result = {
        "wall": float(np.sum(latency_ns)) / 1e9,
        "latency_ns": latency_ns,
        "steps": len(samples),
        "dict_size": state.dictionary.size,
        "sse": float(np.sum(squared)),
    }
    if clock is not None:
        result.update(scaled_ns=scaled_ns, scaled_wall=float(np.sum(scaled_ns)) / 1e9)
    return result
