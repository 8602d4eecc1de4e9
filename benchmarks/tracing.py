"""Span recording around the public calls into each ckaf layer, and the per-layer metrics.

The traced run replaces the module attributes that callers look up at call time (for example
``ckaf.experiment.run_filter``, which ``ckaf.experiment`` resolves on every run) with wrappers
that record one span per call: name, start, end and parent. Nothing in ``ckaf`` changes, and
an untraced run installs none of this. A name that a later version of the package no longer
defines is skipped, and its metrics read 0.

Spans stay in memory while the workload runs and are written out at the end; self times are
derived from them as a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import cmath
import contextlib
import importlib
import os
import statistics
import time

# (module, attribute, span name). The filters module resolves the kernel and step functions
# per call, experiment resolves channel and run_filter per run, and cli resolves the
# experiment functions per command, so patching these names intercepts every call.
PATCH_POINTS = (
    ("ckaf.filters", "kernel_vector", "kernels.kernel_vector"),
    ("ckaf.filters", "self_kernel", "kernels.self_kernel"),
    ("ckaf.filters", "cklms_step", "filters.cklms_step"),
    ("ckaf.filters", "nclms_step", "filters.nclms_step"),
    ("ckaf.filters", "wl_nclms_step", "filters.wl_nclms_step"),
    ("ckaf.experiment", "run_filter", "filters.run_filter"),
    ("ckaf.experiment", "generate_input", "channel.generate_input"),
    ("ckaf.experiment", "apply_channel", "channel.apply_channel"),
    ("ckaf.experiment", "build_dataset", "channel.build_dataset"),
    ("ckaf.experiment", "load_config_file", "experiment.load_config_file"),
    ("ckaf.cli", "run_experiment", "experiment.run_experiment"),
    ("ckaf.cli", "emit_results", "experiment.emit_results"),
    ("ckaf.cli", "load_config_file", "experiment.load_config_file"),
)

COMPLEX_BYTES = 16
CHANNEL_SPANS = ("channel.generate_input", "channel.apply_channel", "channel.build_dataset")

# Every per-layer metric with its unit; BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "kernels.kernel_vector.calls": "count",
    "kernels.kernel_vector.s": "s",
    "kernels.kernel_vector.center_evals": "count",
    "kernels.kernel_vector.bytes_computed": "B",
    "kernels.kernel_vector.ns_per_center": "ns",
    "kernels.self_kernel.calls": "count",
    "kernels.self_kernel.s": "s",
    "filters.cklms_step.calls": "count",
    "filters.cklms_step.s": "s",
    "filters.cklms_step.self_s": "s",
    "filters.nclms_step.s": "s",
    "filters.wl_nclms_step.s": "s",
    "filters.run_filter.s": "s",
    "filters.run_filter.self_s": "s",
    "filters.admitted": "count",
    "filters.admission_ratio": "ratio",
    "filters.dict_size_final_mean": "count",
    "filters.nonfinite_errors": "count",
    "channel.calls": "count",
    "channel.s": "s",
    "experiment.run_experiment.s": "s",
    "experiment.run_experiment.self_s": "s",
    "experiment.emit_results.s": "s",
    "experiment.emit_results.bytes": "B",
    "experiment.load_config_file.s": "s",
    "cli.equalize.s": "s",
    "cli.equalize.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """In-memory span and counter store for one unit of traced work (a call or a pass)."""

    def __init__(self, workload_id: str):
        self.workload_id = workload_id
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.center_evals = 0
        self.center_bytes = 0
        self.admitted = 0
        self.nonfinite = 0
        self.emit_bytes = 0
        self.final_dict_sizes = []
        self._stack = []
        self._state = None
        self._state_size = 0

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter_ns()

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording a span per call; hooks run outside the span."""

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # hooks ---------------------------------------------------------------------------------

    def _count_centers(self, args):
        centers = args[1]
        self.center_evals += centers.shape[0]
        self.center_bytes += centers.shape[0] * centers.shape[1] * COMPLEX_BYTES

    def _after_step(self, args, result):
        record = result[1]
        if not cmath.isfinite(record.error):
            self.nonfinite += 1

    def _after_cklms_step(self, args, result):
        state, record = result
        self._after_step(args, result)
        self.admitted += bool(record.admitted)
        if state is not self._state:
            self.finish_state()
            self._state = state
        self._state_size = record.dict_size

    def _after_emit(self, args, result):
        self.emit_bytes += os.path.getsize(args[2])

    def finish_state(self):
        """Close the current cklms run, recording its final dictionary size."""
        if self._state is not None:
            self.final_dict_sizes.append(self._state_size)
            self._state = None

    # installation --------------------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every PATCH_POINTS name for the duration of the block."""
        hooks = {
            "kernels.kernel_vector": (self._count_centers, None),
            "filters.cklms_step": (None, self._after_cklms_step),
            "filters.nclms_step": (None, self._after_step),
            "filters.wl_nclms_step": (None, self._after_step),
            "experiment.emit_results": (None, self._after_emit),
        }
        saved = []
        try:
            for module_name, attr, name in PATCH_POINTS:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                before, after = hooks.get(name, (None, None))
                setattr(module, attr, self.wrap(name, original, before, after))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.finish_state()

    # output --------------------------------------------------------------------------------

    def write_spans(self, fh, unit: int):
        """Append this unit's spans as tab-separated rows."""
        for index, (name, start, end, parent) in enumerate(self.spans):
            fh.write(f"{self.workload_id}\t{unit}\t{index}\t{parent}\t{name}\t{start}\t{end}\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics of this unit, except ``trace.overhead_ratio``."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = {}, {}, {}
        for index, (name, start, end, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + (end - start)
            own[name] = own.get(name, 0) + (end - start - child[index])

        def seconds(table, name):
            return table.get(name, 0) / 1e9

        cklms_calls = calls.get("filters.cklms_step", 0)
        kernel_s = seconds(total, "kernels.kernel_vector")
        return {
            "kernels.kernel_vector.calls": calls.get("kernels.kernel_vector", 0),
            "kernels.kernel_vector.s": kernel_s,
            "kernels.kernel_vector.center_evals": self.center_evals,
            "kernels.kernel_vector.bytes_computed": self.center_bytes,
            "kernels.kernel_vector.ns_per_center": (
                kernel_s * 1e9 / self.center_evals if self.center_evals else 0.0
            ),
            "kernels.self_kernel.calls": calls.get("kernels.self_kernel", 0),
            "kernels.self_kernel.s": seconds(total, "kernels.self_kernel"),
            "filters.cklms_step.calls": cklms_calls,
            "filters.cklms_step.s": seconds(total, "filters.cklms_step"),
            "filters.cklms_step.self_s": seconds(own, "filters.cklms_step"),
            "filters.nclms_step.s": seconds(total, "filters.nclms_step"),
            "filters.wl_nclms_step.s": seconds(total, "filters.wl_nclms_step"),
            "filters.run_filter.s": seconds(total, "filters.run_filter"),
            "filters.run_filter.self_s": seconds(own, "filters.run_filter"),
            "filters.admitted": self.admitted,
            "filters.admission_ratio": self.admitted / cklms_calls if cklms_calls else 0.0,
            "filters.dict_size_final_mean": (
                statistics.fmean(self.final_dict_sizes) if self.final_dict_sizes else 0.0
            ),
            "filters.nonfinite_errors": self.nonfinite,
            "channel.calls": sum(calls.get(name, 0) for name in CHANNEL_SPANS),
            "channel.s": sum(seconds(total, name) for name in CHANNEL_SPANS),
            "experiment.run_experiment.s": seconds(total, "experiment.run_experiment"),
            "experiment.run_experiment.self_s": seconds(own, "experiment.run_experiment"),
            "experiment.emit_results.s": seconds(total, "experiment.emit_results"),
            "experiment.emit_results.bytes": self.emit_bytes,
            "experiment.load_config_file.s": seconds(total, "experiment.load_config_file"),
            "cli.equalize.s": seconds(total, "cli.equalize"),
            "cli.equalize.self_s": seconds(own, "cli.equalize"),
        }
