"""Per-step cost of the kernel LMS filter in both forms of the kernel row.

Run with ``python3 demos/step_cost.py`` after installing the package (a few
seconds at the default sizes). For each dictionary size ``m`` the script fills
a dictionary with ``m`` centers of dimension 6 and times ``cklms_step``
against it in each form of the row, forced through the size switch
``ckaf.kernels._GEMV_ENTRIES``. The novelty threshold is set so high that no step
admits, so every timed step sees a dictionary of exactly ``m`` centers. The
two forms are timed in alternating chunks and each cell is the median over
chunks of the mean step time in a chunk, so a drift in the host's speed
reaches both columns alike.

The GEMV form is one complex GEMV, ``centers @ v``, plus numpy's complex
``exp``. The GEMM form is one real GEMM on the float64 view of the row-major
centers plus the ``exp`` in the half-angle tangent form, a SIMD real ``exp``
and one SIMD ``tan`` per center (see ``ckaf.kernels._split_conj_exp``). A row
of fewer than ``_GEMV_ENTRIES`` entries (``m`` times the dimension) takes the
GEMV form and a larger one the GEMM form; the last column says which one a
dictionary of ``m`` centers uses. The switch sits where an unpinned OpenBLAS
starts a second zgemv thread, not at the speed crossover this table shows.
``OPENBLAS_NUM_THREADS`` (and the OpenMP and MKL counts) are set to 1 in this
process before numpy is imported, so no BLAS thread runs beside the step.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import ckaf.kernels  # noqa: E402
from ckaf.filters import NoveltyConfig, cklms_step, new_cklms_state  # noqa: E402
from ckaf.kernels import complex_gaussian, self_kernel  # noqa: E402

DIM = 6
SIGMA = 5.0  # the bundled configuration's kernel width and amplitude
AMPLITUDE = 0.7
# the switch value that forces each form: every row has fewer than 2**62 entries, none has
# fewer than 0
FORCING = {"GEMV": 2**62, "GEMM": 0}


def chunk_us(state, queries, targets, form: str) -> float:
    """Mean microseconds per ``cklms_step`` over one chunk of queries, in the given row form."""
    switch = ckaf.kernels._GEMV_ENTRIES
    ckaf.kernels._GEMV_ENTRIES = FORCING[form]
    try:
        started = time.perf_counter()
        for z, d in zip(queries, targets):
            cklms_step(state, z, d)
        return (time.perf_counter() - started) * 1e6 / len(queries)
    finally:
        ckaf.kernels._GEMV_ENTRIES = switch


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[200, 300, 400, 500, 600, 800, 1000, 2500, 5000]
    )
    parser.add_argument("--chunks", type=int, default=15, help="chunks per form and size")
    parser.add_argument("--steps", type=int, default=200, help="steps per chunk")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(2024)
    spec = complex_gaussian(SIGMA)
    print(f"cklms_step per step, dimension {DIM}, sigma {SIGMA}, one BLAS thread; "
          f"median over {args.chunks} alternating chunks of {args.steps} steps")
    print()
    print("| m | GEMV + complex exp | GEMM + tangent form | GEMV / GEMM | row uses |")
    print("| --- | --- | --- | --- | --- |")
    for m in args.sizes:
        points = AMPLITUDE * (
            rng.standard_normal((m + args.steps, DIM)) + 1j * rng.standard_normal((m + args.steps, DIM))
        ) / np.sqrt(2.0)
        centers, queries = points[:m], points[m:]
        targets = AMPLITUDE * (rng.standard_normal(args.steps) + 1j * rng.standard_normal(args.steps))
        state = new_cklms_state(spec, mu=0.5, novelty=NoveltyConfig(delta1=1e300))
        for c in centers:
            state.dictionary.append(c, 0.1 + 0.1j, self_kernel(c, spec))
        times = {form: [] for form in FORCING}
        for k in range(args.chunks):
            # alternate which form goes first, so neither always follows the other
            for form in (("GEMV", "GEMM") if k % 2 == 0 else ("GEMM", "GEMV")):
                times[form].append(chunk_us(state, queries, targets, form))
        small = statistics.median(times["GEMV"])
        large = statistics.median(times["GEMM"])
        uses = "GEMV" if m * DIM < ckaf.kernels._GEMV_ENTRIES else "GEMM"
        print(f"| {m} | {small:.1f} µs | {large:.1f} µs | {small / large:.2f}x | {uses} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
