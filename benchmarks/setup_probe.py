"""Set-up time of one workload in a fresh process.

Times importing ckaf, loading and validating the workload's config and, for the stream,
building its input sequence, and prints the seconds taken. ``run.py`` starts this several
times per run and reports the median as ``setup_s``.

Usage: python3 benchmarks/setup_probe.py <workload> <config.json>
"""

import time

_STARTED = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402


def main(argv) -> int:
    name, config_path = argv
    if not workloads.use_source_tree():
        print(f"error: no ckaf source tree at {workloads.SRC}", file=sys.stderr)
        return 2
    import ckaf

    if workloads.WORKLOADS[name]["kind"] == "stream":
        workloads.load_stream(config_path)
    else:
        ckaf.load_config_file(config_path)
    print(repr(time.perf_counter() - _STARTED))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
