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


def _table_row(lines, marker, offset):
    """The row `offset` lines below the header that contains `marker`,
    keyed by the header's columns."""
    header = next(i for i, line in enumerate(lines) if marker in line)
    columns = [c.strip() for c in lines[header].split("  ") if c.strip()]
    return dict(zip(columns, lines[header + offset].split()))


def test_bench_census_runs():
    # The census layer of bench_layers.py walks B(n, 3) for n = 4..8; the
    # other layers run at their smallest sizes.
    out = _run_bench(
        "bench_layers.py",
        [
            "--n", "1", "--k", "0", "--kmax", "1", "--census", "8:3",
            "--series", "1:1", "--repeats", "1",
        ],
    )
    lines = out.splitlines()
    for offset, n in enumerate(range(4, 9), start=1):
        row = _table_row(lines, "walk (s)", offset)
        assert (row["n"], row["k"], row["|B(n,k)|"]) == (
            str(n), "3", str(count_bb(n, 3))
        )


def test_bench_layers_runs():
    # kmax 50 passes theorem1's witness k = 48.
    out = _run_bench(
        "bench_layers.py",
        [
            "--n", "6", "--k", "2", "--kmax", "50", "--census", "8:3",
            "--series", "64:5", "--repeats", "1",
        ],
    )
    assert out.split()[-1] == "48"
    lines = out.splitlines()
    # The series layer times the Phi chain, geometric() and S at n = 64, k = 5.
    header = next(i for i, line in enumerate(lines) if "chain (s)" in line)
    assert lines[header + 1].split()[:2] == ["64", "5"]
    # The embedding layer multiplies 6 |B(n, k)| times over n <= 6, k <= 2.
    # The BFS and the statistics pass are timed apart.
    row = _table_row(lines, "embed (s)", 1)
    assert (row["n <="], row["k <="]) == ("6", "2")
    assert float(row["embed (s)"]) > 0 and float(row["stats (s)"]) > 0
    assert int(row["multiplies"]) == 6 * sum(
        count_bb(n, k) for n in range(1, 7) for k in range(0, 3)
    )
    # The census layer walks B(n, 3) for n = 4..8; its fifth row is n = 8.
    row = _table_row(lines, "walk (s)", 5)
    assert (row["n"], row["k"], row["|B(n,k)|"]) == ("8", "3", str(count_bb(8, 3)))
