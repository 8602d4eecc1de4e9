"""A differential oracle: random small experiments against the frozen reference implementation.

``benchmarks/reference.py`` transcribes the arithmetic of ckaf 0.1.0 without importing ckaf.
Each example draws a small experiment (source, channel, embedding and the three filters at
random settings) and checks every run of it:

* the inputs and targets equal the reference's, byte for byte, so the delay embedding is
  pinned against the reference's explicit index grid;
* nclms and wl_nclms squared errors from ``run_block`` equal the reference's byte for byte;
* cklms errors agree within ``CKLMS_RTOL`` (of the scale stated there) up to the reference's
  first non-finite error, and the final dictionary sizes are equal when the reference stays
  finite.

Past a non-finite error the two part by design: ckaf 0.1.0 admits a center whose coefficient
is not finite, and ckaf no longer does.
"""

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ckaf.experiment import _realization, config_from_dict, config_to_dict
from ckaf.filters import run_block

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import reference  # noqa: E402

# The cklms tolerance, stated once. The error magnitudes |e(n)|, the square roots of the
# squared errors, may differ by CKLMS_RTOL * (|d(n)| + max_{j <= n} |e(j)|): the target plus
# the largest error so far, which bounds every coefficient mu * e(j) of the prediction.
# ckaf computes the kernel row in the expanded form through BLAS, the reference in the
# difference form, so the predictions differ by rounding. Relative to the squared error itself
# that rounding is unbounded wherever e = d - y cancels; relative to this scale it stayed below
# 1.3e-13 in 99.9% of 8240 random runs, with a largest value of 2.4e-12 in runs whose squared
# error grew to 1e89 and beyond within 67 steps.
CKLMS_RTOL = 1e-11


def _unit(lo=-1.0, hi=1.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_pairs = st.tuples(_unit(), _unit()).map(list)
# A novelty decision is well posed only where the threshold lies outside the rounding noise of
# the distance, which is computed by cancellation (kappa(z, z) + kappa(c, c) - 2 Re kappa(z, c)).
# So delta1 is 0, which admits every sample, or at least 0.05, and the first tap is not tiny:
# tiny received samples put every true distance inside that noise.
_delta1 = st.just(0.0) | _unit(0.05, 0.5)
_first_tap = _pairs.filter(lambda p: abs(complex(*p)) >= 0.2)


@st.composite
def experiments(draw):
    """An experiment document of 40 to 600 samples, 1 to 3 runs and all three filters."""
    return {
        "name": "oracle",
        "signal": {
            "rho": draw(_unit(0.0, 1.0)),
            "n_samples": draw(st.integers(40, 600)),
            "amplitude": draw(_unit(0.05, 1.0)),
        },
        "channel": {
            "noise_stddev": draw(_unit(0.0, 0.3)),
            "linear_taps": [draw(_first_tap)] + draw(st.lists(_pairs, max_size=2)),
            "poly_coeffs": draw(st.lists(st.tuples(_unit(-0.2, 0.2), _unit(-0.2, 0.2)).map(list),
                                         max_size=2)),
        },
        "embedding": {"filter_length": draw(st.integers(0, 6)), "delay": draw(st.integers(0, 7))},
        "algorithms": [
            {
                "algorithm": "cklms",
                "mu": draw(_unit(0.01, 1.0)),
                "sigma": draw(_unit(0.5, 8.0)),
                "delta1": draw(_delta1),
                "delta2": draw(_unit(0.0, 0.2)),
            },
            {"algorithm": "nclms", "mu": draw(_unit(0.01, 1.0)), "epsilon": draw(_unit(1e-6, 0.01))},
            {"algorithm": "wl_nclms", "mu": draw(_unit(0.01, 1.0)),
             "epsilon": draw(_unit(1e-6, 0.01))},
        ],
        "mc_runs": draw(st.integers(1, 3)),
        "master_seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=50, deadline=None)
@given(doc=experiments())
def test_runs_match_the_reference(doc):
    """Data and linear errors are the reference's bits; cklms agrees while the reference is finite."""
    cfg = config_from_dict(doc)
    resolved = config_to_dict(cfg)  # every default written out, as the reference reads it
    runs = []
    for run in range(cfg.mc_runs):
        inputs, targets = _realization(cfg, run)[:2]
        want = reference.realization(resolved, *reference.run_seeds(cfg.master_seed, run))
        assert inputs.shape == want[0].shape and targets.shape == want[1].shape
        assert inputs.tobytes() == want[0].tobytes(), f"run {run}: inputs"
        assert targets.tobytes() == want[1].tobytes(), f"run {run}: targets"
        runs.append(want)
    block_inputs = np.stack([inputs for inputs, _ in runs])
    block_targets = np.stack([targets for _, targets in runs])
    for alg, alg_doc in zip(cfg.algorithms, resolved["algorithms"]):
        with np.errstate(over="ignore", invalid="ignore"):  # diverging draws overflow, both sides
            block = run_block(block_inputs, block_targets, alg.algorithm, alg.filter_config())
        for run, (inputs, targets) in enumerate(runs):
            got = block.squared_errors[run]
            where = f"run {run}, {alg.label}"
            if alg.algorithm != "cklms":
                want = reference.linear_errors(inputs, targets, alg_doc)
                assert got.tobytes() == want.tobytes(), where
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                want, size = reference.cklms_errors(inputs, targets, alg_doc)
            finite = np.isfinite(want)
            stop = want.size if finite.all() else int(np.argmin(finite))
            got_e, want_e = np.sqrt(got[:stop]), np.sqrt(want[:stop])
            scale = np.abs(targets[:stop]) + np.maximum.accumulate(want_e)
            worst = np.max(np.abs(got_e - want_e) / scale, initial=0.0)
            assert worst <= CKLMS_RTOL, f"{where}: |e| differs by {worst:.3g} of the scale"
            if stop == want.size:
                assert block.dict_sizes[run, -1] == size, where
