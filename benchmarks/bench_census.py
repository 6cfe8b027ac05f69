"""Time both counting routes of census_counts.

Usage: python benchmarks/bench_census.py [--nmax 14] [--k 4] [--repeats 3]

Walk: for each n in [nmax-4, nmax] the walk runs on the exact-height table
of B(n, k).  Series: census_counts(n, k, "dp") for n in 256, 512, 1024,
each repeat starting from empty series caches.  Both tables report the
per-call minimum over the repeats.  Every walk must visit exactly
|B(n, k)| forests and agree with the dp route; every series total must
equal |B(n, k)| from the sequence recursion.
"""

import argparse
import time

from fdensity import census, forests, series

SERIES_NS = (256, 512, 1024)


def _print_row(cells) -> None:
    print("  ".join(f"{c:>12}" for c in cells))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--nmax", type=int, default=14)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    _print_row(["n", "k", "|B(n,k)|", "walk (s)", "forests/s"])

    k = args.k
    for n in range(max(1, args.nmax - 4), args.nmax + 1):
        table = census._height_table(n, k)
        best = float("inf")
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            out = census._walk(n, k, table)
            best = min(best, time.perf_counter() - t0)
        total = out[0]
        assert total == forests.count_bb(n, k), "walk total != |B(n,k)|"
        walked = census.CensusCounts(n, k, "enumerate", *out[:7])
        assert walked == census.census_counts(n, k, "dp"), "walk != dp"
        _print_row([n, k, total, f"{best:.4f}", f"{total / best:.3g}"])

    print()
    _print_row(["n", "k", "log10|B|", "series (s)"])
    for n in SERIES_NS:
        best = float("inf")
        for _ in range(args.repeats):
            series.count_series.cache_clear()
            series._phi_chain.cache_clear()
            t0 = time.perf_counter()
            counts = census.census_counts(n, k, "dp")
            best = min(best, time.perf_counter() - t0)
        assert counts.total == forests.count_bb(n, k), "series total != |B(n,k)|"
        _print_row([n, k, len(str(counts.total)) - 1, f"{best:.4f}"])


if __name__ == "__main__":
    main()
