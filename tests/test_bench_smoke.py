"""The benchmark's smoke run passes on this checkout.

`perfbench/run.py --smoke` runs a tiny size of every workload in both modes,
checks every report against independent computations, and checks the printed
metric names and units against BENCHMARK.json. A change to the writer or the
kernels that those checks reject fails here first.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_passes():
    # the benchmark's deferred checks import sympy
    pytest.importorskip("sympy")
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
