"""Small-scale equalization benchmark, including the instability regime.

Run with ``python3 demos/equalization_benchmark.py`` (takes well under a
minute). A complex source passes through a nonlinear channel; three online
filters then try to recover the source from delay-embedded observations:
the complex kernel LMS with novelty sparsification and the two normalized
linear baselines.

The script runs two configurations:

1. A low-amplitude source, where the kernel filter's self-kernel stays
   close to 1. The kernel filter converges and the nonlinear channel limits
   what the linear baselines can do.

2. The bundled benchmark's full-amplitude source at unit step size. Here
   kappa(z, z) is often much larger than 1, the effective step leaves the
   stable range, and the kernel filter's error grows without bound while
   the normalized baselines stay put. The numbers are printed as measured;
   see the README stability note for the analysis.
"""

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
        trend = "improved" if end < start else "diverged"
        line = (
            f"  {label:<9} first {head}: {start:+8.2f} dB   "
            f"last {STEADY_STATE_WINDOW}: {end:+8.2f} dB   {trend}"
        )
        if curve.final_dict_sizes is not None:
            line += f"   dictionary {int(np.max(curve.final_dict_sizes))}/{curve.mse.shape[0]}"
        print(line)


def experiment(name, amplitude, cklms_mu, n_samples=2000, mc_runs=10):
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


print("=== Stable regime: low-amplitude source (amplitude 0.25) ===")
print("Self-kernel kappa(z, z) stays near 1, so a unit step is safe.")
stable = run_experiment(experiment("stable", amplitude=0.25, cklms_mu=1.0))
summarize(stable)

print()
print("=== Benchmark regime: full amplitude 0.70, unit step size ===")
print("Imaginary parts are now large enough that kappa(z, z) frequently")
print("exceeds 2, amplifying the kernel filter's update each step.")
unstable = run_experiment(experiment("benchmark", amplitude=0.70, cklms_mu=1.0))
summarize(unstable)

print()
print("=== Same amplitude with a reduced step (mu = 1/16) ===")
print("A smaller step keeps the filter tracking over this short horizon,")
print("but the amplification compounds: at the bundled length of 5000")
print("samples the error curve turns upward again.")
damped = run_experiment(experiment("damped", amplitude=0.70, cklms_mu=1.0 / 16.0))
summarize(damped)

print()
print("The full benchmark (100 runs x 5000 samples, measured noise) is the")
print("bundled config: run `ckaf equalize --format csv` and plot the CSV.")
