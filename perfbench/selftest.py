"""Self-tests of the benchmark harness.

Usage (from the repository root):
    python3 perfbench/selftest.py

Checks that the seeded custom words do not depend on the interpreter run,
that self time is span time minus child coverage (on a synthetic span tree
and on a traced round trip), and, as negative controls, that a perturbed
golden or a broken invariant makes the harness count a failure.  Runs one
real command twice (a few seconds).  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from array import array

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))


def test_seeded_words_repeat() -> None:
    seeds = list(range(6))
    code = ("import sys, json; sys.path.insert(0, 'perfbench'); import workloads;"
            f"print(json.dumps([workloads.custom_genset(s) for s in {seeds}]))")
    runs = []
    for hashseed in ("1", "2"):
        env = dict(run.child_env(), PYTHONHASHSEED=hashseed)
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=run.ROOT,
                             capture_output=True, text=True, check=True).stdout
        runs.append(json.loads(out))
    here = [workloads.custom_genset(s) for s in seeds]
    assert runs[0] == runs[1] == here, (runs, here)
    assert len(set(here)) == len(seeds), f"seeds collide: {here}"
    for genset in here:
        words = genset[len("custom:"):].split(",")
        assert len(words) == workloads.CUSTOM_WORDS, genset
        assert all(2 <= len(w.split()) <= 3 for w in words), genset


def test_self_time_arithmetic() -> None:
    # A [0,10] has children B [1,4] and C [3,6] (overlapping: union [1,6])
    # and D [8,12] (clipped to [8,10]); B has child E [2,3].  F [20,21] is a
    # second root.
    starts = array("d", [0, 1, 2, 3, 8, 20])
    ends = array("d", [10, 4, 3, 6, 12, 21])
    parents = array("i", [-1, 0, 1, 0, 0, -1])
    selfs, roots = tracer.self_times(starts, ends, parents)
    assert selfs == [3, 2, 1, 3, 4, 1], selfs
    assert roots == 11, roots


def test_trace_round_trip() -> None:
    t = tracer.Tracer("selftest")

    def inner(x):
        return [x] * x

    inner_w = t.wrap(inner, "inner", count=len)

    def outer(n):
        return sum(len(inner_w(i)) for i in range(n))

    outer_w = t.wrap(outer, "outer")
    assert outer_w(4) == 6
    path = run.OUT / "selftest.spans"
    t.dump(str(path))
    header, cols = tracer.load(str(path))
    summary = tracer.summarize(header, cols)
    layers = summary["layers"]
    assert layers["outer"]["calls"] == 1 and layers["inner"]["calls"] == 4
    assert layers["inner"]["items"] == 6
    assert list(cols["parent"]) == [-1, 0, 0, 0, 0]
    total = layers["outer"]["self_s"] + layers["inner"]["self_s"]
    assert abs(total - summary["root_s"]) < 1e-9, (total, summary["root_s"])


def test_negative_controls() -> None:
    goldens = workloads.load_goldens()
    argv = workloads.commands("claims", workloads.DEFAULT_SEED)[2]
    key = workloads.command_key(argv)
    assert key in goldens["stdout_sha256"], "default custom row has no golden"

    def fail_frac(g: dict) -> float:
        """Failed / attempted commands over one repetition of this command."""
        rep = run.run_rep([argv], g, run.Deadline(0), 0, False, [])
        return rep["failed"] / len([argv])

    assert fail_frac(goldens) == 0

    perturbed = json.loads(json.dumps(goldens))
    sha = perturbed["stdout_sha256"][key]
    perturbed["stdout_sha256"][key] = ("0" if sha[0] != "0" else "1") + sha[1:]
    assert fail_frac(perturbed) > 0

    # Invariants alone (as for a non-default seed): a broken one must fail.
    no_golden = json.loads(json.dumps(goldens))
    del no_golden["stdout_sha256"][key]
    stdout = (run.OUT / "rep0-cmd0-plain.out").read_bytes()
    assert workloads.check(argv, 0, stdout, no_golden) == []
    broken = no_golden["invariants"]["custom_row"]
    broken["isolated"] += 1
    assert workloads.check(argv, 0, stdout, no_golden)
    meta = json.dumps({"meta": {"first_k_bprime_above_3": 47}}).encode()
    assert workloads.check(["theorem1", "--kmax", "512", "--threads", "1"], 0,
                           meta, goldens)


def main() -> int:
    if not (run.SRC / "fdensity").is_dir():
        print("selftest: no fdensity sources under src/", file=sys.stderr)
        return 2
    run.OUT.mkdir(exist_ok=True)
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    os.chdir(run.ROOT)
    sys.exit(main())
