"""Host-speed calibration: reference-host seconds from wall seconds.

A shared virtual machine runs the same code at speeds that wander by up to a factor of
about 2, in regimes lasting from under a second to a minute, and a 30-second run can sit
entirely in one of them. Raw wall times then spread across runs by more than any useful
regression bound. So the benchmark times a frozen piece of work, the calibration, next to
every stretch of work it measures, and scales each stretch by the host's speed at that
moment:

    reference-host seconds = wall seconds / (host index around it)

The regimes change within a second, so a stretch lasts at most about ``CHUNK_S``: a timed
cklms pass stops to calibrate that often, and an equalize call, which cannot stop itself, is
interrupted by a timer signal whose handler calibrates. The calibrations are not timed.

The calibration has two parts, each timed on its own and divided by its time on the machine
the benchmark was defined on (``REFERENCE_S``), so each reads 1.0 at reference speed:

* ``steps``: ``reference.py``'s CKLMS (a dense dictionary growing to 300 centers) and
  WL-NCLMS over one fixed 300-sample realization, the same numpy calls in the same Python
  loops as ckaf's own steps;
* ``large_kernel``: the same Gaussian kernel expression against a fixed 4000-center
  dictionary (384 KiB), the memory-heavy step that dominates ``mc_bundled`` late in a
  realization and that the small dictionary never reaches.

Different code slows down differently when the host is busy, so the host index is the share
``large_share`` of ``large_kernel`` plus the rest of ``steps``. A workload sets
``large_share`` by where its time goes: 0.5 for ``mc_bundled``, whose dictionaries outgrow
the processor's L2 cache, 0 for the others, whose dictionaries stay near 200 and 1000
centers (README.md, "Host-speed calibration"). The calibration does not depend on ckaf or on
the workload seed, so a change to ckaf moves the scaled times and never the calibration.
``REFERENCE_S`` only sets the scale; both sides of a comparison use the same values.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

import reference

REFERENCE_S = {"steps": 0.0209, "large_kernel": 0.0181}
CHUNK_S = 0.25

_DOC = {
    "signal": {"rho": 0.7071067811865476, "n_samples": 305, "amplitude": 0.7},
    "channel": {
        "noise_stddev": 0.14,
        "linear_taps": [[-0.9, 0.8], [0.6, -0.7]],
        "poly_coeffs": [[0.1, 0.15], [0.06, 0.05]],
    },
    "embedding": {"filter_length": 5, "delay": 2},
}
_CKLMS = {"algorithm": "cklms", "mu": 1.0, "kernel": "complex-gaussian", "sigma": 5.0,
          "delta1": 0.1, "delta2": 0.2}
_WL_NCLMS = {"algorithm": "wl_nclms", "mu": 0.0625, "epsilon": 1e-6}
_LARGE_CENTERS = 4000
_LARGE_QUERIES = 40


class HostClock:
    """Times the calibration between measured stretches and hands out their scale factors.

    ``checkpoint()`` is called after each stretch; its factor uses the host index just before
    and just after it, so a regime change during the stretch is split evenly.
    """

    def __init__(self, large_share: float = 0.0):
        self.chunk_s = CHUNK_S
        self.large_share = large_share
        self._inputs, self._targets = reference.realization(_DOC, 1, 2)
        rng = np.random.default_rng(3)
        shape = (_LARGE_CENTERS, self._inputs.shape[1])
        self._centers = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self._coefficients = rng.standard_normal(_LARGE_CENTERS) + 1j * rng.standard_normal(_LARGE_CENTERS)
        self.calibrations = []  # {"steps": s, "large_kernel": s or None, "index": host index}
        self.calibrate()  # warm-up, not used
        self._last = self.calibrate()

    def calibrate(self) -> float:
        """Time the calibration once and return the host index (1.0 at reference speed)."""
        started = time.perf_counter()
        reference.cklms_errors(self._inputs, self._targets, _CKLMS)
        reference.linear_errors(self._inputs, self._targets, _WL_NCLMS)
        steps = time.perf_counter() - started
        index = steps / REFERENCE_S["steps"]
        large = None
        if self.large_share:
            sigma_sq = _CKLMS["sigma"] ** 2
            started = time.perf_counter()
            for z in self._inputs[:_LARGE_QUERIES]:
                diff = z[None, :] - np.conj(self._centers)
                np.dot(self._coefficients, np.exp(-np.sum(diff * diff, axis=1) / sigma_sq))
            large = time.perf_counter() - started
            index += self.large_share * (large / REFERENCE_S["large_kernel"] - index)
        self.calibrations.append({"steps": steps, "large_kernel": large, "index": index})
        return index

    def reset(self) -> None:
        """Calibrate now as the start of the next unit (after untimed work in between)."""
        self._last = self.calibrate()

    def checkpoint(self) -> float:
        """Factor from wall seconds to reference-host seconds for the stretch just ended."""
        now = self.calibrate()
        factor = 2.0 / (self._last + now)
        self._last = now
        return factor

    @contextlib.contextmanager
    def sampled(self):
        """Time a block that cannot stop itself, calibrating from a timer signal.

        Yields a dict that receives ``wall`` (seconds outside the calibrations) and
        ``scaled_wall`` (the same stretches in reference-host seconds) when the block ends.
        """
        timing = {"wall": 0.0, "scaled_wall": 0.0}
        began = time.perf_counter()

        def close_stretch():
            nonlocal began
            wall = time.perf_counter() - began
            timing["wall"] += wall
            timing["scaled_wall"] += wall * self.checkpoint()
            began = time.perf_counter()

        def on_timer(*_):
            if not active:  # delivered late, after the block ended
                return
            close_stretch()
            # One-shot, re-armed after the calibration, so a slow calibration never
            # re-enters the handler.
            signal.setitimer(signal.ITIMER_REAL, self.chunk_s)

        active = True
        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.chunk_s)
        try:
            yield timing
        finally:
            active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        close_stretch()
