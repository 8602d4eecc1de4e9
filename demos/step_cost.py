"""Per-step cost of the kernel LMS filter in both dictionary layouts.

Run with ``python3 demos/step_cost.py`` after installing the package (about a
minute at the default sizes). For each dictionary size ``m`` the script fills
two dictionaries with the same ``m`` centers of dimension 6, one stored row by
row and one column by column, and times ``cklms_step`` against each. The
novelty threshold is set so high that no step admits, so every timed step
sees a dictionary of exactly ``m`` centers. The two layouts are timed in
alternating chunks and each cell is the median over chunks of the mean step
time in a chunk, so a drift in the host's speed reaches both columns alike.

The row-major step is the einsum product plus the complex ``exp``; the
column-major step is the column passes plus the split ``exp``. A dictionary
switches from the first to the second when it admits center 2049; the last
column says which one it uses at ``m``. ``OPENBLAS_NUM_THREADS`` (and the
OpenMP and MKL counts) are set to 1 in this process before numpy is imported,
so no BLAS thread runs beside the step.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import ckaf.filters  # noqa: E402
from ckaf.filters import NoveltyConfig, cklms_step, new_cklms_state  # noqa: E402
from ckaf.kernels import complex_gaussian, self_kernel  # noqa: E402

DIM = 6
SIGMA = 5.0  # the bundled configuration's kernel width and amplitude
AMPLITUDE = 0.7


def filled_state(points: np.ndarray, column_major: bool):
    """A state whose dictionary holds ``points`` in the chosen layout and admits nothing more."""
    spec = complex_gaussian(SIGMA)
    state = new_cklms_state(spec, mu=0.5, novelty=NoveltyConfig(delta1=1e300))
    switch = ckaf.filters._COLUMN_CAPACITY
    # the capacity at which the dictionary stores its centers column by column
    ckaf.filters._COLUMN_CAPACITY = 0 if column_major else 2**62
    try:
        for c in points:
            state.dictionary.append(c, 0.1 + 0.1j, self_kernel(c, spec))
    finally:
        ckaf.filters._COLUMN_CAPACITY = switch
    return state


def chunk_us(state, queries, targets) -> float:
    """Mean microseconds per ``cklms_step`` over one chunk of queries."""
    started = time.perf_counter()
    for z, d in zip(queries, targets):
        cklms_step(state, z, d)
    return (time.perf_counter() - started) * 1e6 / len(queries)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[200, 1000, 2500, 5000])
    parser.add_argument("--chunks", type=int, default=15, help="chunks per layout and size")
    parser.add_argument("--steps", type=int, default=200, help="steps per chunk")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(2024)
    print(f"cklms_step per step, dimension {DIM}, sigma {SIGMA}, one BLAS thread; "
          f"median over {args.chunks} alternating chunks of {args.steps} steps")
    print()
    print("| m | row-major | column-major | row-major / column-major | dictionary uses |")
    print("| --- | --- | --- | --- | --- |")
    for m in args.sizes:
        points = AMPLITUDE * (
            rng.standard_normal((m + args.steps, DIM)) + 1j * rng.standard_normal((m + args.steps, DIM))
        ) / np.sqrt(2.0)
        centers, queries = points[:m], points[m:]
        targets = AMPLITUDE * (rng.standard_normal(args.steps) + 1j * rng.standard_normal(args.steps))
        states = {layout: filled_state(centers, layout == "column") for layout in ("row", "column")}
        times = {layout: [] for layout in states}
        for k in range(args.chunks):
            # alternate which layout goes first, so neither always follows the other
            for layout in (("row", "column") if k % 2 == 0 else ("column", "row")):
                times[layout].append(chunk_us(states[layout], queries, targets))
        row = statistics.median(times["row"])
        column = statistics.median(times["column"])
        uses = "column-major" if m > ckaf.filters._COLUMN_CAPACITY // 2 else "row-major"
        print(f"| {m} | {row:.1f} µs | {column:.1f} µs | {row / column:.2f}x | {uses} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
