"""Small-scale equalization benchmark, including the instability regime.

Run with ``python3 demos/equalization_benchmark.py`` (takes well under a
minute); ``--n-samples`` (default 2000) and ``--mc-runs`` (default 10) set
the length and the number of the runs. A complex source passes through a
nonlinear channel; three online filters then try to recover the source
from delay-embedded observations: the complex kernel LMS with novelty
sparsification and the two normalized linear baselines.

The script runs three configurations:

1. A low-amplitude source, where the kernel filter's self-kernel stays
   close to 1. The kernel filter converges and the nonlinear channel limits
   what the linear baselines can do.

2. The bundled benchmark's full-amplitude source at unit step size. Here
   kappa(z, z) is often much larger than 1, the effective step leaves the
   stable range, and the kernel filter's error grows without bound while
   the normalized baselines stay put. The numbers are printed as measured;
   see the README stability note for the analysis.

3. The same source at a step size of 1/16, where the kernel filter stays
   stable.
"""

import argparse

import numpy as np

from ckaf.channel import ChannelConfig, EmbeddingConfig, SignalConfig
from ckaf.experiment import (
    STEADY_STATE_WINDOW,
    AlgorithmConfig,
    ExperimentConfig,
    run_experiment,
)

CIRCULAR_RHO = float(np.sqrt(2.0) / 2.0)


def summarize(result, head=200):
    for label, curve in result.curves.items():
        start = 10.0 * np.log10(np.mean(curve.mse[:head]))
        end = curve.steady_state_db
        # a trend needs the first and the last window to cover different samples
        if curve.mse.shape[0] >= head + STEADY_STATE_WINDOW:
            trend = "improved" if end < start else "diverged"
        else:
            trend = "too short to judge a trend"
        line = (
            f"  {label:<9} first {head}: {start:+8.2f} dB   "
            f"last {STEADY_STATE_WINDOW}: {end:+8.2f} dB   {trend}"
        )
        if curve.final_dict_sizes is not None:
            line += f"   dictionary {int(np.max(curve.final_dict_sizes))}/{curve.mse.shape[0]}"
        print(line)


def experiment(name, amplitude, cklms_mu, n_samples, mc_runs):
    return ExperimentConfig(
        name=name,
        signal=SignalConfig(
            rho=CIRCULAR_RHO, n_samples=n_samples, seed=0, amplitude=amplitude
        ),
        channel=ChannelConfig(noise_stddev=0.0, seed=0),
        embedding=EmbeddingConfig(filter_length=5, delay=2),
        algorithms=(
            AlgorithmConfig(
                algorithm="cklms", mu=cklms_mu, sigma=5.0, delta1=0.02, delta2=0.01
            ),
            AlgorithmConfig(algorithm="nclms", mu=1.0 / 16.0),
            AlgorithmConfig(algorithm="wl_nclms", mu=1.0 / 16.0),
        ),
        mc_runs=mc_runs,
        master_seed=1234,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-samples", type=int, default=2000, help="source samples per run")
    parser.add_argument("--mc-runs", type=int, default=10, help="Monte-Carlo runs per regime")
    args = parser.parse_args(argv)
    size = {"n_samples": args.n_samples, "mc_runs": args.mc_runs}

    print("=== Stable regime: low-amplitude source (amplitude 0.25) ===")
    print("Self-kernel kappa(z, z) stays near 1, so a unit step is safe.")
    summarize(run_experiment(experiment("stable", amplitude=0.25, cklms_mu=1.0, **size)))

    print()
    print("=== Benchmark regime: full amplitude 0.70, unit step size ===")
    print("Imaginary parts are now large enough that kappa(z, z) frequently")
    print("exceeds 2, amplifying the kernel filter's update each step.")
    summarize(run_experiment(experiment("benchmark", amplitude=0.70, cklms_mu=1.0, **size)))

    print()
    print("=== Same amplitude with a reduced step (mu = 1/16) ===")
    print("A smaller step keeps the kernel filter stable. Measured over 10 runs")
    print("at the bundled length of 5000 samples (--n-samples 5000), its error")
    print("falls through about sample 3000 and then levels off near -10.3 dB,")
    print("about 1 dB below both linear baselines, with nearly every sample")
    print("admitted to the dictionary.")
    summarize(run_experiment(experiment("damped", amplitude=0.70, cklms_mu=1.0 / 16.0, **size)))

    print()
    print("The full benchmark (100 runs x 5000 samples, measured noise) is the")
    print("bundled config: run `ckaf equalize --format csv` and plot the CSV.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
