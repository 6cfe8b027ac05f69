"""The benchmark scripts still run against the library they time."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_census_runs():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    argv = ["--nmax", "8", "--k", "3", "--repeats", "1"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_census.py"), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
