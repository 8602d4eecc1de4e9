"""Tests of the benchmark itself: tiny workloads, the output checks and the traced metrics.

Run with ``python3 -m pytest benchmarks/test_benchmark.py`` from the repository root.
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import calibration  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY = {
    "mc_bundled": {"n_samples": 300, "mc_runs": 2},
    "mc_sparse": {"n_samples": 300, "mc_runs": 2},
    "stream_cklms": {"n_samples": 800},
}
SECOND_SEED = 7
NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module", autouse=True)
def source_tree():
    assert workloads.use_source_tree()


def tiny_run(name, out_dir, trace=False, seed=workloads.DEFAULT_SEED, **kwargs):
    return run.run(name, seed, 0.2, trace, out_dir, sizes=TINY[name], probes=1, **kwargs)


def tiny_reference(name, seed=workloads.DEFAULT_SEED):
    doc = workloads.workload_doc(name, seed, TINY[name])
    spec = workloads.WORKLOADS[name]
    if spec["kind"] == "mc":
        return reference.mc_reference(doc, spec["format"])
    return reference.stream_reference(doc)


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, SECOND_SEED])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_workload_passes_its_checks(name, seed, tmp_path):
    report = tiny_run(name, tmp_path, seed=seed)
    line = report["line"]
    assert line["correct"], report["failures"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in line["metrics"].values())
    assert set(report["raw_metrics"]) == set(line["metrics"])
    if workloads.WORKLOADS[name]["kind"] == "mc":
        length = TINY[name]["n_samples"] - 5
        for label, curve in report["output_summary"].items():
            assert curve["length"] == length
            if curve["algorithm"] in reference.LINEAR:
                assert curve["finite"]
    else:
        assert all(unit["steps"] == TINY[name]["n_samples"] - 5 for unit in report["units"])


def test_host_clock_scales_each_chunk_by_the_calibrations_around_it(monkeypatch, tmp_path):
    clock = calibration.HostClock()
    factors = []
    real_checkpoint = clock.checkpoint

    def recording_checkpoint():
        before = clock._last
        factor = real_checkpoint()
        assert factor == 2.0 / (before + clock.calibrations[-1]["index"])
        factors.append(factor)
        return factor

    monkeypatch.setattr(clock, "checkpoint", recording_checkpoint)
    clock.chunk_s = 0.0  # calibrate after every step
    doc = workloads.workload_doc("stream_cklms", workloads.DEFAULT_SEED, {"n_samples": 40})
    filter_config, samples = workloads.load_stream(workloads.write_doc(doc, tmp_path / "config.json"))
    result = workloads.stream_pass(filter_config, samples, clock=clock)
    assert len(factors) == len(samples)
    assert result["scaled_ns"].tolist() == [
        latency * factor for latency, factor in zip(result["latency_ns"].tolist(), factors)
    ]
    assert result["scaled_wall"] == pytest.approx(sum(result["scaled_ns"]) / 1e9)


def test_sampled_block_is_calibrated_by_timer_and_excludes_calibrations():
    clock = calibration.HostClock(large_share=0.5)
    clock.chunk_s = 0.05
    before = len(clock.calibrations)
    started = time.perf_counter()
    with clock.sampled() as timing:
        while time.perf_counter() - started < 0.3:
            pass
    elapsed = time.perf_counter() - started
    calibrated = clock.calibrations[before:]
    assert len(calibrated) >= 3  # timer ticks plus the closing calibration
    assert all(c["large_kernel"] is not None for c in calibrated)
    calibrating = sum(c["steps"] + c["large_kernel"] for c in calibrated)
    assert timing["wall"] == pytest.approx(elapsed - calibrating, abs=0.02)
    assert timing["scaled_wall"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    report = tiny_run(name, tmp_path, trace=True)
    assert report["line"]["correct"], report["failures"]
    metrics = report["line"]["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["kernels.kernel_vector.calls"]["value"] > 0
    assert metrics["filters.cklms_step.calls"]["value"] > 0
    rows = (tmp_path / "spans.tsv").read_text().splitlines()
    assert len(rows) > metrics["filters.cklms_step.calls"]["value"]


def perturbed(name, want):
    want = copy.deepcopy(want)
    if workloads.WORKLOADS[name]["kind"] == "mc":
        want["nclms"]["digest"] = "0" * 64
    else:
        want["dict_size"] += 50
    return want


@pytest.mark.parametrize("name", NAMES)
def test_perturbed_reference_fails_the_check(name, tmp_path):
    report = tiny_run(name, tmp_path, reference_override=perturbed(name, tiny_reference(name)))
    line = report["line"]
    assert not line["correct"]
    assert 0 < line["failed"] <= line["attempted"]
    assert report["failures"]


def test_short_curve_fails_the_check():
    want = tiny_reference("mc_sparse")
    got = copy.deepcopy(want)
    got["cklms"]["length"] -= 1
    assert reference.compare_mc(got, want, 0.5)
    stream_want = tiny_reference("stream_cklms")
    assert reference.compare_stream({**stream_want, "steps": stream_want["steps"] - 1}, stream_want)


def test_failed_check_makes_the_command_exit_nonzero(tmp_path, monkeypatch, capsys):
    want = perturbed("mc_sparse", tiny_reference("mc_sparse"))
    real_run = run.run

    def small_run(name, seed, seconds, trace, out_dir):
        return real_run(name, seed, seconds, trace, out_dir, sizes=TINY[name], probes=1,
                        reference_override=want)

    monkeypatch.setattr(run, "run", small_run)
    monkeypatch.setattr(run, "OUT_ROOT", tmp_path)
    code = run.main(["--workload", "mc_sparse", "--seconds", "0.2"])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1 and last["correct"] is False and last["failed"] > 0


@pytest.mark.parametrize("entry", json.loads((BENCH_DIR / "refs" / "recorded.json").read_text())["entries"],
                         ids=lambda e: f"{e['workload']}-{e['seed']}")
def test_reference_reproduces_outputs_recorded_from_ckaf_0_1_0(entry):
    name, seed, recorded = entry["workload"], entry["seed"], entry["output"]
    doc = workloads.workload_doc(name, seed)
    spec = workloads.WORKLOADS[name]
    if spec["kind"] == "stream":
        assert reference.stream_reference(doc) == recorded
        return
    want = reference.mc_reference(doc, spec["format"])
    for label, curve in recorded.items():
        if curve["final_dict_sizes"] is None:  # the CSV output carries only the largest
            want[label]["final_dict_sizes"] = None
    assert want == recorded


def test_without_source_tree_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "mc_sparse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
