"""The benchmark scripts still run against the library they time."""

import os
import subprocess
import sys
from pathlib import Path

from fdensity.forests import count_bb

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
        "bench_layers.py",
        ["--n", "6", "--k", "2", "--kmax", "50", "--series", "64:5", "--repeats", "1"],
    )
    assert out.split()[-1] == "48"
    lines = out.splitlines()
    # The series layer times the Phi chain, geometric() and S at n = 64, k = 5.
    header = next(i for i, line in enumerate(lines) if "chain (s)" in line)
    assert lines[header + 1].split()[:2] == ["64", "5"]
    # The embedding layer multiplies 6 |B(n, k)| times over n <= 6, k <= 2.
    # The BFS and the statistics pass are timed apart.
    header = next(i for i, line in enumerate(lines) if "embed (s)" in line)
    columns = [c.strip() for c in lines[header].split("  ") if c.strip()]
    row = dict(zip(columns, lines[header + 1].split()))
    assert (row["n <="], row["k <="]) == ("6", "2")
    assert float(row["embed (s)"]) > 0 and float(row["stats (s)"]) > 0
    assert int(row["multiplies"]) == 6 * sum(
        count_bb(n, k) for n in range(1, 7) for k in range(0, 3)
    )
