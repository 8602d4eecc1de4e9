"""The fast demo scripts run to completion against the installed sources."""

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
    ],
    ids=["kernel_properties.py", "wirtinger_gradients.py", "step_cost.py"],
)
def test_demo_exits_cleanly(script, args):
    """Each demo exits 0; equalization_benchmark.py is too slow for the unit suite."""
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
        assert "| 8 | " in result.stdout and result.stdout.rstrip().endswith("| row-major |")
