"""Outside-in tracer: spans around calls into fdensity's layers.

The program itself is not changed.  In the traced child process this file
replaces the module attributes through which each layer's public functions
are looked up with timing wrappers, runs `fdensity.cli.main`, and writes
the spans out when the command ends.  Spans stay in memory until then, in
flat arrays (name, start, end, parent, key, items) sharing one run id.

The parent side (`load`, `self_times`, `summarize`) reads the span file
back and turns it into per-layer calls, self time and work counts.  Self
time is a span's duration minus the part of it that its child spans cover.

`forests.apply_within` cannot be traced from outside: `census.embed` binds
it as a default argument at definition time, so patching the module
attribute never reaches the calls.

Usage (child side):
    python3 perfbench/tracer.py SPAN_FILE RUN_ID <fdensity arguments...>
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Optional

# (module, attribute, span name).  census_counts is named per call by its
# mode: "kernels" for the enumerate route (the census walk), otherwise
# "census.census_counts.<mode>".  multiply is patched in both modules that
# look it up, under one span name.
TARGETS = (
    ("fdensity.census", "census_counts", "kernels"),
    ("fdensity.census", "count_series", "series"),
    ("fdensity.intervals", "xi", "intervals.xi"),
    ("fdensity.intervals", "limit_fractions", "intervals.limit_fractions"),
    ("fdensity.group", "multiply", "group.multiply"),
    ("fdensity.census", "multiply", "group.multiply"),
    ("fdensity.census", "embed", "census.embed"),
    ("fdensity.census", "outer_boundary_exact", "census.outer_boundary_exact"),
    ("fdensity.census", "stats_elements", "census.stats_elements"),
    ("fdensity.census", "enumerate_bb", "forests.enumerate_bb"),
)

_ARRAYS = (("name", "H"), ("parent", "i"), ("start", "d"), ("end", "d"),
           ("key", "i"), ("items", "q"))


class Tracer:
    """Span recorder for one process; `install` patches the layers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.keys: dict[tuple, int] = {}
        self.absent: list[str] = []
        self.cols = {field: array(code) for field, code in _ARRAYS}
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def key_id(self, key: tuple) -> int:
        return self.keys.setdefault(key, len(self.keys))

    def wrap(
        self,
        fn: Callable,
        name: str,
        describe: Optional[Callable] = None,
        count: Optional[Callable] = None,
    ) -> Callable:
        """Time every call of fn as a span.  describe(args, kwargs) gives
        (name id, key id) per call; count(result) gives a work count."""
        c = self.cols
        names, parents, starts, ends, keys, items = (
            c["name"], c["parent"], c["start"], c["end"], c["key"], c["items"])
        stack = self.stack
        clock = time.perf_counter
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            if describe is None:
                names.append(nid)
                keys.append(-1)
            else:
                span_name, key = describe(args, kwargs)
                names.append(span_name)
                keys.append(key)
            parents.append(stack[-1])
            items.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                items[i] = count(result)
            return result

        return wrapper

    def install(self) -> None:
        wrapped: dict[int, Callable] = {}
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap_target(fn, attr, name)
            setattr(module, attr, wrapped[id(fn)])

    def _wrap_target(self, fn: Callable, attr: str, name: str) -> Callable:
        if attr == "census_counts":
            return self.wrap(fn, name, self._keyed(fn, name, by_mode=True),
                             lambda r: r.total if r.mode == "enumerate" else 0)
        if attr in ("count_series", "embed"):
            return self.wrap(fn, name, self._keyed(fn, name))
        if attr == "enumerate_bb":
            return self.wrap(fn, name, count=len)
        return self.wrap(fn, name)

    def _keyed(self, fn: Callable, name: str, by_mode: bool = False) -> Callable:
        """Per-call (name id, key id) from fn's first two bound arguments:
        (n, k) for census_counts and embed, (k, trunc) for count_series.
        With by_mode, census_counts calls on a route other than enumerate
        are named census.census_counts.<mode>."""
        sig = inspect.signature(fn)
        first, second = list(sig.parameters)[:2]

        def describe(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            mode = a.get("mode", "enumerate")
            span = name if not by_mode or mode == "enumerate" else \
                f"census.census_counts.{mode}"
            return self.name_id(span), self.key_id((a[first], a[second]))

        return describe

    def dump(self, path: str) -> None:
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "keys": [list(k) for k in sorted(self.keys, key=self.keys.get)],
            "absent": self.absent,
            "spans": len(self.cols["name"]),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in _ARRAYS:
                self.cols[field].tofile(fh)


# ---------------------------------------------------------------------------
# parent side


def untraced_spans(absent: list[str]) -> list[str]:
    """Span names none of whose targets could be patched."""
    found = {name for module, attr, name in TARGETS
             if f"{module}.{attr}" not in absent}
    return sorted({name for _, _, name in TARGETS} - found)


def load(path: str) -> tuple[dict, dict[str, array]]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        cols = {}
        for field, code in _ARRAYS:
            col = array(code)
            col.fromfile(fh, n)
            cols[field] = col
    return header, cols


def coverage(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(starts, ends, parents) -> tuple[list[float], float]:
    """Per-span self time, and the time covered by the root spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, p in enumerate(parents):
        children[p].append((starts[i], ends[i]))
    out = [e - s for s, e in zip(starts, ends)]
    for p, spans in children.items():
        if p >= 0:
            out[p] -= coverage(spans, starts[p], ends[p])
    roots = coverage(children.get(-1, []), float("-inf"), float("inf"))
    return out, roots


def summarize(header: dict, cols: dict[str, array]) -> dict:
    """Per span name: calls, self seconds, items, distinct keys; plus the
    root coverage and the names that could not be patched."""
    selfs, roots = self_times(cols["start"], cols["end"], cols["parent"])
    names = header["names"]
    per: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "items": 0, "keys": set()})
    for i, nid in enumerate(cols["name"]):
        rec = per[names[nid]]
        rec["calls"] += 1
        rec["self_s"] += selfs[i]
        rec["items"] += cols["items"][i]
        if cols["key"][i] >= 0:
            rec["keys"].add(tuple(header["keys"][cols["key"][i]]))
    return {"layers": dict(per), "root_s": roots, "absent": header["absent"]}


def main(argv: list[str]) -> int:
    span_file, run_id, cli_args = argv[0], argv[1], argv[2:]
    from fdensity.cli import main as cli_main

    tracer = Tracer(run_id)
    tracer.install()
    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(span_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
