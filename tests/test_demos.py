"""The demo scripts run to completion against the installed sources, slow ones at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("kernel_properties.py", []),
        ("wirtinger_gradients.py", []),
        # a tiny size: the timings mean nothing, the table's layout does
        ("step_cost.py", ["--sizes", "8", "--chunks", "2", "--steps", "3"]),
        # 30 source samples give 25 regression pairs per run
        ("equalization_benchmark.py", ["--n-samples", "30", "--mc-runs", "2"]),
    ],
    ids=["kernel_properties.py", "wirtinger_gradients.py", "step_cost.py",
         "equalization_benchmark.py"],
)
def test_demo_exits_cleanly(script, args):
    """Each demo exits 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    if script == "step_cost.py":
        assert "| 8 | " in result.stdout and result.stdout.rstrip().endswith("| GEMV |")
    if script == "equalization_benchmark.py":  # three regimes, each with a full dictionary
        assert result.stdout.count("dictionary 25/25") == 3
        # 25 pairs put the first-200 and last-500 windows over the same samples
        assert "diverged" not in result.stdout and "improved" not in result.stdout
        assert result.stdout.count("too short to judge a trend") == 9
