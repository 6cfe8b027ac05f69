"""fdensity benchmark: real CLI commands timed end to end, and traced by layer.

Usage (from the repository root):
    python3 perfbench/run.py --workload census-enum|series-dp|claims \\
        [--seed N] [--seconds S] [--trace 0|1]

Every command runs in a fresh interpreter with `--threads 1`, one at a
time, against `src/` of this checkout.  A repetition runs all of the
workload's commands once; another starts while it is expected to end
less than half a repetition past --seconds, and each metric is the median
over them.  Every stdout is checked
(see workloads.py) and any mismatch counts as a failed command.

--trace 0 prints the end-to-end metrics: wall_s, cpu_s, peak_rss_mb and
setup_s.  --trace 1 alternates untraced and traced repetitions and prints
the per-layer metrics (see README.md).  The last line of stdout is one
JSON object {correct, attempted, failed, metrics}; the full run record is
written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

HARD_LIMIT_S = 170.0      # the whole run must end within 180 s
SETUPS_PER_REP = 3
MIN_SETUPS = 9

CLI = "import sys; from fdensity.cli import main; sys.exit(main())"
SETUP = "from fdensity.cli import build_parser; build_parser()"
SUBCOMMANDS = ("density", "theorem1", "theorem2")

# (name, unit) in the order printed; BENCHMARK.json lists the same names.
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))
PER_LAYER = (
    ("kernels.calls", "count"), ("kernels.self_s", "s"),
    ("kernels.forests", "count"), ("kernels.forests_per_s", "1/s"),
    ("kernels.calls_per_key", "ratio"),
    ("series.calls", "count"), ("series.self_s", "s"),
    ("series.distinct_keys", "count"), ("series.coeffs", "count"),
    ("intervals.xi.calls", "count"), ("intervals.xi.self_s", "s"),
    ("intervals.limit_fractions.self_s", "s"),
    ("group.multiply.calls", "count"), ("group.multiply.self_s", "s"),
    ("group.multiply.us_per_call", "us"),
    ("census.embed.calls", "count"), ("census.embed.self_s", "s"),
    ("census.embed.calls_per_key", "ratio"),
    ("census.outer_boundary_exact.self_s", "s"),
    ("census.stats_elements.self_s", "s"),
    ("forests.enumerate_bb.calls", "count"), ("forests.enumerate_bb.self_s", "s"),
    ("forests.enumerate_bb.forests", "count"),
    ("cli.self_s", "s"),
) + tuple((f"cli.{c}.wall_s", "s") for c in SUBCOMMANDS) + (
    ("trace.traced_wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"), ("fail_frac", "ratio"),
)


class Deadline:
    def __init__(self, seconds: float):
        self.t0 = time.perf_counter()
        self.seconds = seconds
        self.last = 0.0
        self.step = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def another(self) -> bool:
        """Whether to start one more step: true while a step as long as the
        last one would end less than half a step past the deadline."""
        now = self.elapsed()
        self.step, self.last = now - self.last, now
        return now + self.step / 2 < self.seconds

    def timeout(self) -> float:
        return max(1.0, HARD_LIMIT_S - self.elapsed())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], deadline: Deadline, tag: str) -> dict:
    """Run one child; wall from spawn to reap, cpu and max RSS from wait4."""
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        timer = threading.Timer(deadline.timeout(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024,
        "rc": proc.returncode,
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_bytes().decode(errors="replace")[-2000:],
    }


def run_setup(deadline: Deadline) -> float:
    res = spawn([sys.executable, "-c", SETUP], deadline, "setup")
    if res["rc"] != 0:
        raise RuntimeError(f"setup failed ({res['rc']}): {res['stderr']}")
    return res["wall"]


def run_rep(cmds, goldens, deadline, rep: int, traced: bool, failures: list) -> dict:
    """One repetition of the workload's commands; checks every stdout."""
    rep_rec = {"wall": 0.0, "cpu": 0.0, "maxrss_mb": 0.0, "failed": 0,
               "per_cmd": {}, "traces": []}
    for j, argv in enumerate(cmds):
        tag = f"rep{rep}-cmd{j}-{'traced' if traced else 'plain'}"
        if traced:
            span_file = OUT / f"{tag}.spans"
            span_file.unlink(missing_ok=True)
            full = [sys.executable, str(Path(tracer.__file__)), str(span_file),
                    tag] + argv
        else:
            full = [sys.executable, "-c", CLI] + argv
        res = spawn(full, deadline, tag)
        problems = workloads.check(argv, res["rc"], res["stdout"], goldens)
        if problems:
            rep_rec["failed"] += 1
            failures.append({"command": workloads.command_key(argv), "rep": rep,
                             "traced": traced, "problems": problems,
                             "stderr": res["stderr"]})
        rep_rec["wall"] += res["wall"]
        rep_rec["cpu"] += res["cpu"]
        rep_rec["maxrss_mb"] = max(rep_rec["maxrss_mb"], res["maxrss_mb"])
        rep_rec["per_cmd"][argv[0]] = rep_rec["per_cmd"].get(argv[0], 0.0) + res["wall"]
        if traced and span_file.exists():
            summary = tracer.summarize(*tracer.load(str(span_file)))
            summary["wall"] = res["wall"]
            rep_rec["traces"].append(summary)
    return rep_rec


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (its commands summed).
    Distinct keys are counted per command: each runs in a fresh process."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    keys = {"kernels": 0, "series": 0, "census.embed": 0}
    for t in traces:
        layers = t["layers"]
        m["cli.self_s"] += t["wall"] - t["root_s"]
        for span, rec in layers.items():
            for field in ("calls", "self_s"):
                if f"{span}.{field}" in m:
                    m[f"{span}.{field}"] += rec[field]
            if span in keys:
                keys[span] += len(rec["keys"])
        kern = layers.get("kernels")
        if kern:
            m["kernels.forests"] += kern["items"]
        ser = layers.get("series")
        if ser:
            m["series.coeffs"] += sum(trunc + 1 for _, trunc in ser["keys"])
        enum = layers.get("forests.enumerate_bb")
        if enum:
            m["forests.enumerate_bb.forests"] += enum["items"]
    m["series.distinct_keys"] = keys["series"]
    m["kernels.forests_per_s"] = _ratio(m["kernels.forests"], m["kernels.self_s"])
    m["kernels.calls_per_key"] = _ratio(m["kernels.calls"], keys["kernels"])
    m["census.embed.calls_per_key"] = _ratio(m["census.embed.calls"],
                                             keys["census.embed"])
    m["group.multiply.us_per_call"] = _ratio(1e6 * m["group.multiply.self_s"],
                                             m["group.multiply.calls"])
    return m


def _ratio(a: float, b: float) -> float:
    """a / b, and 0 when the base is 0 (the layer did no work)."""
    return a / b if b else 0.0


def summarize_metric(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit,
            "samples": len(values), "values": values}


def measure_end_to_end(cmds, goldens, deadline, failures) -> tuple[dict, int]:
    setups, reps = [], []
    while deadline.another() or not reps:
        setups += [run_setup(deadline) for _ in range(SETUPS_PER_REP)]
        reps.append(run_rep(cmds, goldens, deadline, len(reps), False, failures))
    while len(setups) < MIN_SETUPS:
        setups.append(run_setup(deadline))
    units = dict(END_TO_END)
    metrics = {
        "wall_s": summarize_metric([r["wall"] for r in reps], units["wall_s"]),
        "cpu_s": summarize_metric([r["cpu"] for r in reps], units["cpu_s"]),
        "peak_rss_mb": summarize_metric([r["maxrss_mb"] for r in reps],
                                        units["peak_rss_mb"]),
        "setup_s": summarize_metric(setups, units["setup_s"]),
    }
    return metrics, len(reps)


def measure_per_layer(cmds, goldens, deadline, failures) -> tuple[dict, int, list]:
    plain, traced = [], []
    while deadline.another() or not traced:
        plain.append(run_rep(cmds, goldens, deadline, len(plain), False, failures))
        traced.append(run_rep(cmds, goldens, deadline, len(traced), True, failures))
    per_rep = [layer_metrics(r["traces"]) for r in traced]
    for m, p, t in zip(per_rep, plain, traced):
        for c in SUBCOMMANDS:
            m[f"cli.{c}.wall_s"] = p["per_cmd"].get(c, 0.0)
        m["trace.traced_wall_s"] = t["wall"]
        m["trace.untraced_wall_s"] = p["wall"]
    units = dict(PER_LAYER)
    metrics = {name: summarize_metric([m[name] for m in per_rep], units[name])
               for name, _ in PER_LAYER if name not in ("trace.overhead_frac",
                                                        "fail_frac")}
    metrics["trace.overhead_frac"] = {
        "value": metrics["trace.traced_wall_s"]["value"]
        / metrics["trace.untraced_wall_s"]["value"] - 1,
        "unit": "ratio", "samples": len(per_rep)}
    absent = sorted({a for r in traced for t in r["traces"] for a in t["absent"]})
    for span in tracer.untraced_spans(absent):
        for name in metrics:
            if name.startswith(span + "."):
                metrics[name] = {"value": None, "unit": units[name], "absent": True}
    return metrics, len(plain) + len(traced), absent


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "fdensity" / "__init__.py").is_file():
        print(f"perfbench: no fdensity sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fdensity

    OUT.mkdir(exist_ok=True)
    cmds = workloads.commands(args.workload, args.seed)
    goldens = workloads.load_goldens()
    run_setup(Deadline(args.seconds))  # warm-up: byte-compiles the package once
    deadline = Deadline(args.seconds)

    failures: list[dict] = []
    absent: list[str] = []
    if args.trace:
        metrics, reps, absent = measure_per_layer(cmds, goldens, deadline, failures)
    else:
        metrics, reps = measure_end_to_end(cmds, goldens, deadline, failures)
    attempted = reps * len(cmds)
    failed = len(failures)
    if args.trace:
        metrics["fail_frac"] = {"value": failed / attempted, "unit": "ratio",
                                "samples": attempted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "backend": getattr(fdensity, "BACKEND", "absent"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "commands": [workloads.command_key(c) for c in cmds],
        "repetitions": reps,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "absent": absent,
        "failures": failures,
        "metrics": metrics,
    }
    rec_path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    rec_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{reps} repetitions, {failed}/{attempted} commands failed, "
          f"backend {record['backend']}, python {record['python']}, "
          f"nproc {record['nproc']}, commit {record['commit']}")
    for f in failures:
        print(f"FAILED: {f['command']}: {'; '.join(f['problems'])}")
    for name, m in metrics.items():
        if m["value"] is None:
            print(f"  {name:36s} absent: its function could not be patched")
        else:
            print(f"  {name:36s} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    names = [n for n, _ in (PER_LAYER if args.trace else END_TO_END)]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in names},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
