"""ckaf benchmark: Monte-Carlo throughput and online step latency.

Usage:
    python3 benchmarks/run.py --workload {mc_bundled,mc_sparse,stream_cklms}
                              [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the checkout's ``src``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the time untraced
and half with every layer wrapped, and reports the per-layer metrics (README.md lists both).
Every timing is scaled to reference-host seconds by a calibration timed next to it
(calibration.py); the unscaled figures are printed and kept in ``result.json``.
Every run checks the program's output against ``reference.py`` for its seed. Human-readable
lines come first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Full detail, the environment record
and, for traced runs, the spans go to ``.bench_out/<workload>-seed<N>-trace<T>/``.
Exit status: 0 when every check passed, 1 when one failed, 2 when the run could not start.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported anywhere in this process or its children

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from calibration import HostClock  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import BENCH_DIR, DEFAULT_SEED, ROOT, WORKLOADS  # noqa: E402

OUT_ROOT = ROOT / ".bench_out"
MIN_UNITS = 3
PASS_SHARE = 1 / 2  # mc_* runs follow each equalize call with passes for this share of its time
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "samples_per_s": "1/s",
    "step_us_p50": "us",
    "step_us_p99": "us",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


# --- environment --------------------------------------------------------------------------

def environment() -> dict:
    """Machine, interpreter, library and source versions of this run."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": commit,
    }


# --- timing -------------------------------------------------------------------------------

def timed_units(unit, seconds: float, min_units: int) -> list:
    """Run ``unit()`` at least ``min_units`` times and until ``seconds`` would be exceeded."""
    results = []
    started = time.perf_counter()
    while True:
        results.append(unit())
        elapsed = time.perf_counter() - started
        if len(results) >= min_units and elapsed + results[-1]["wall"] > seconds:
            return results


def measure_setup(name: str, config_path, probes: int, clock: HostClock) -> tuple:
    """Set-up seconds of ``probes`` fresh processes (see setup_probe.py): (raw, scaled)."""
    raw, scaled = [], []
    clock.reset()
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(config_path)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        factor = clock.checkpoint()
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        raw.append(float(proc.stdout.split()[-1]))
        scaled.append(raw[-1] * factor)
    return raw, scaled


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- workloads ----------------------------------------------------------------------------

def mc_unit(doc, config_path, out_dir, fmt, clock, tracer=None) -> dict:
    """One equalize call plus the summary of what it wrote; errors are recorded, not raised.

    An untraced call is calibrated from a timer signal as it runs; a traced one is timed
    between the previous calibration and one taken as it returns, so that no calibration
    falls inside its spans.
    """
    started = time.perf_counter()
    try:
        if tracer is None:
            with clock.sampled() as timing:
                code, _, printed = workloads.equalize(config_path, out_dir, fmt)
            wall, scaled_wall = timing["wall"], timing["scaled_wall"]
        else:
            code, wall, printed = workloads.equalize(config_path, out_dir, fmt, tracer)
            scaled_wall = wall * clock.checkpoint()
    except Exception:  # noqa: BLE001 - a failed call is counted, the run goes on
        return {"wall": time.perf_counter() - started, "error": traceback.format_exc()}
    if code != 0:
        return {"wall": wall, "error": f"equalize exited with status {code}"}
    output = out_dir / f"{doc['name']}.{fmt}"
    try:
        if fmt == "csv":
            algorithms = {reference.label_of(a): a["algorithm"] for a in doc["algorithms"]}
            summary = reference.read_csv_output(output, printed, algorithms)
        else:
            summary = reference.read_json_output(output)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return {"wall": wall, "error": f"unreadable output {output}: {exc}"}
    return {"wall": wall, "scaled_wall": scaled_wall, "summary": summary}


def pass_unit(config_path, realizations, index, clock, tracer=None) -> dict:
    """Closed-loop cklms pass number ``index``, over realization ``index % len(realizations)``.

    A traced pass (stream only) repeats the set-up of realization 0 under the tracer first.

    An untraced pass calibrates as it goes; a traced one is timed between the previous
    calibration and one taken as it ends, so no calibration falls inside its spans.
    """
    run_index = 0 if tracer is not None else index % len(realizations)
    started = time.perf_counter()
    try:
        if tracer is None:
            result = workloads.stream_pass(*realizations[run_index], clock=clock)
        else:
            with tracer.span("stream.unit"):
                result = workloads.stream_pass(*workloads.load_stream(config_path))
            result["scaled_wall"] = result["wall"] * clock.checkpoint()
    except Exception:  # noqa: BLE001 - a failed pass is counted, the run goes on
        result = {"wall": time.perf_counter() - started, "error": traceback.format_exc()}
    result["run"] = run_index
    return result


def run(name: str, seed: int, seconds: float, trace: bool, out_dir, sizes=None,
        probes: int = SETUP_PROBES, reference_override=None) -> dict:
    """Run one workload and return its full result (``result["line"]`` is the JSON line).

    ``mc_*`` workloads alternate equalize calls, for ``samples_per_s``, with closed-loop cklms
    passes over their realizations, for the step latencies; the stream times passes only.
    ``sizes`` shrinks the workload (tests); ``reference_override`` replaces the reference the
    calls (``mc_*``) or passes (stream) are checked against (tests of the check itself).
    """
    spec = WORKLOADS[name]
    mc = spec["kind"] == "mc"
    doc = workloads.workload_doc(name, seed, sizes)
    config_path = workloads.write_doc(doc, out_dir / "config.json")
    report = {"workload": name, "seed": seed, "trace": int(trace), "environment": environment()}
    clock = HostClock(spec["large_share"])
    if not trace:
        report["setup_s_raw"], report["setup_s_scaled"] = measure_setup(
            name, config_path, probes, clock
        )

    # Latency passes cycle through the workload's realizations, so their dictionary sizes
    # average over runs the way the equalize calls do.
    realizations = [workloads.load_stream(config_path, run) for run in range(doc["mc_runs"])]
    replays = itertools.count()
    replay = lambda tracer=None: pass_unit(  # noqa: E731
        config_path, realizations, next(replays), clock, tracer
    )
    if mc:
        fmt = spec["format"]
        warm_path = workloads.write_doc(
            workloads.workload_doc(name, seed, workloads.WARMUP_MC), out_dir / "warmup" / "config.json"
        )
        workloads.equalize(warm_path, out_dir / "warmup", fmt)
        call = lambda tracer=None: mc_unit(doc, config_path, out_dir, fmt, clock, tracer)  # noqa: E731
    else:
        filter_config, samples = realizations[0]
        workloads.stream_pass(filter_config, samples[: workloads.WARMUP_STREAM_STEPS])
    clock.reset()

    started = time.perf_counter()
    calls, passes, traced = [], [], []
    if trace:
        unit = call if mc else replay
        (calls if mc else passes).extend(timed_units(unit, seconds / 2, 1))
        spans_path = out_dir / "spans.tsv"
        with open(spans_path, "w") as spans:
            spans.write("workload\tunit\tspan\tparent\tname\tstart_ns\tend_ns\n")

            def traced_unit():
                tracer = Tracer(f"{name}/seed{seed}")
                clock.reset()
                with tracer.installed():
                    result = unit(tracer)
                tracer.write_spans(spans, len(traced))
                if "error" not in result:
                    factor = result["scaled_wall"] / result["wall"]
                    result["layers"] = {
                        key: value * factor if LAYER_METRICS[key] in ("s", "ns") else value
                        for key, value in tracer.layer_metrics().items()
                    }
                traced.append(result)
                return result

            timed_units(traced_unit, seconds - (time.perf_counter() - started), 1)
        report["spans_file"] = spans_path.name
    elif mc:
        # Calls and latency passes alternate, so both sample the machine over the whole run.
        def round_unit():
            round_started = time.perf_counter()
            calls.append(call())
            passes.extend(timed_units(replay, calls[-1]["wall"] * PASS_SHARE, 1))
            return {"wall": time.perf_counter() - round_started}

        timed_units(round_unit, seconds, MIN_UNITS)
    else:
        # At least MIN_UNITS passes per realization, for the per-step medians.
        passes = timed_units(replay, seconds, MIN_UNITS * len(realizations))
    report["peak_rss_mb"] = peak_rss_mib()

    # (results, reference, comparison, work per unit): a call is mc_runs realizations, a
    # latency pass on mc_* one realization, a stream pass its steps. Passes are checked
    # against the reference of the realization they ran over.
    checked = []
    compare_pass = lambda r, w: reference.compare_stream(r, w[r["run"]])  # noqa: E731
    runs_passed = sorted({r["run"] for r in (passes if mc else passes + traced)})
    if mc:
        want = reference_override or reference.mc_reference(doc, fmt)
        tolerance = spec["curve_db_tolerance"]
        checked.append((calls + traced, want,
                        lambda r, w: reference.compare_mc(r["summary"], w, tolerance), doc["mc_runs"]))
        if passes:
            pass_want = {run: reference.stream_reference(doc, run) for run in runs_passed}
            checked.append((passes, pass_want, compare_pass, 1))
    else:
        want = {
            run: reference_override or reference.stream_reference(doc, run) for run in runs_passed
        }
        checked.append((passes + traced, want, compare_pass, len(realizations[0][1])))
    attempted = failed = 0
    failures = []
    for results, expected, compare, work in checked:
        for result in results:
            problems = [result["error"]] if "error" in result else compare(result, expected)
            attempted += work
            if problems:
                failed += work
                failures.extend(problems)
    report.update(attempted=attempted, failed=failed, failures=failures, reference=want)
    if calls and "summary" in calls[0]:
        report["output_summary"] = calls[0]["summary"]

    completed_calls = [r for r in calls if "error" not in r]
    completed_passes = [r for r in passes if "error" not in r]
    if not (completed_calls if mc else completed_passes) or (not trace and not completed_passes):
        raise RuntimeError(f"no timed unit completed; first failure:\n{failures[0]}")
    if trace:
        metrics = layers(completed_calls if mc else completed_passes, traced)
    else:
        steps_per_call = doc["mc_runs"] * len(realizations[0][1]) * len(doc["algorithms"])
        metrics = end_to_end(completed_calls, completed_passes, steps_per_call, report)
        report["raw_metrics"] = end_to_end(
            completed_calls, completed_passes, steps_per_call, report, scaled=False
        )
    report["calibrations"] = clock.calibrations
    report["units"] = [
        {k: v for k, v in r.items() if k not in ("latency_ns", "scaled_ns", "summary", "layers")}
        for r in calls + passes + traced
    ]
    report["metrics"] = metrics
    report["line"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": END_TO_END.get(key) or LAYER_METRICS[key]}
            for key, value in metrics.items()
        },
    }
    return report


def end_to_end(calls, passes, steps_per_call, report, scaled=True) -> dict:
    """End-to-end metrics of one run from the reference-host (``scaled``) or raw timings.

    ``samples_per_s`` is the median over calls on ``mc_*``; on the stream it is the median
    over the passes of each realization, then the mean over realizations. The latencies come
    from each realization's step profile: every step's median latency over the passes of that
    realization, which repeat the same work step by step. A host stall that hits one pass
    therefore does not reach the tail. Their percentiles are then averaged over realizations,
    so that each realization weighs the same however the passes fell.
    """
    wall, latency, setup = (
        ("scaled_wall", "scaled_ns", "setup_s_scaled") if scaled else ("wall", "latency_ns", "setup_s_raw")
    )
    by_run = {}
    for r in passes:
        by_run.setdefault(r["run"], []).append(r)
    profiles = [np.median(np.stack([r[latency] for r in runs]), axis=0) for runs in by_run.values()]

    if calls:
        rate = statistics.median(steps_per_call / r[wall] for r in calls)
    else:
        rate = statistics.fmean(
            statistics.median(r["steps"] / r[wall] for r in runs) for runs in by_run.values()
        )
    report["sample_counts"] = {
        "rate_units": len(calls or passes), "latency_passes": len(passes),
        "steps_per_pass": passes[0]["steps"], "passes_per_realization": [len(v) for v in by_run.values()],
    }
    return {
        "samples_per_s": rate,
        "step_us_p50": statistics.fmean(float(np.percentile(p, 50)) for p in profiles) / 1e3,
        "step_us_p99": statistics.fmean(float(np.percentile(p, 99)) for p in profiles) / 1e3,
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": statistics.median(report[setup]),
    }


def layers(untraced, traced) -> dict:
    """Per-layer metrics: medians over the traced units, plus the tracing overhead."""
    traced = [r for r in traced if "error" not in r]
    metrics = {
        key: statistics.median(r["layers"][key] for r in traced)
        for key in LAYER_METRICS if key != "trace.overhead_ratio"
    }
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["scaled_wall"] for r in traced)
        / statistics.median(r["scaled_wall"] for r in untraced)
    )
    return metrics


def print_report(report: dict) -> None:
    line = report["line"]
    print(f"environment {json.dumps(report['environment'], sort_keys=True)}")
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"{len(report['units'])} timed units {json.dumps(report.get('sample_counts', {}))}")
    raw = report.get("raw_metrics", {})
    for key, entry in line["metrics"].items():
        unscaled = f"  (unscaled {raw[key]:.6g})" if key in raw else ""
        print(f"  {key} = {entry['value']:.6g} {entry['unit']}{unscaled}")
    host_index = statistics.median(c["index"] for c in report["calibrations"])
    print(f"  host index median {host_index:.4g} over {len(report['calibrations'])} calibrations "
          f"(1 = reference speed; times above are divided by it stretch by stretch)")
    print(f"  fail_ratio = {line['failed']}/{line['attempted']} failed/attempted")
    for problem in report["failures"][:20]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  output checks: {'PASS' if line['correct'] else 'FAIL'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not workloads.use_source_tree():
        print(f"error: no ckaf source tree at {workloads.SRC}; run from a ckaf checkout",
              file=sys.stderr)
        return 2
    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (out_dir / "result.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print_report(report)
    print(json.dumps(report["line"]))
    return 0 if report["line"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
