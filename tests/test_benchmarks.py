"""The benchmark scripts still run against the library they time."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_bench(script, argv):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / script), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bench_census_runs():
    _run_bench("bench_census.py", ["--nmax", "8", "--k", "3", "--repeats", "1"])


def test_bench_layers_runs():
    # kmax 50 passes theorem1's witness k = 48.
    out = _run_bench(
        "bench_layers.py", ["--n", "6", "--k", "2", "--kmax", "50", "--repeats", "1"]
    )
    assert out.split()[-1] == "48"
