"""Time the census walk (the enumerate route of census_counts).

Usage: python benchmarks/bench_census.py [--nmax 14] [--k 4] [--repeats 3]

For each n in [nmax-4, nmax] the walk runs on the exact-height table of
B(n, k); the table reports the per-call minimum over the repeats.  Every
result must visit exactly |B(n, k)| forests and agree with the dp route.
"""

import argparse
import time

from fdensity import census, forests


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--nmax", type=int, default=14)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    header = ["n", "k", "|B(n,k)|", "walk (s)", "forests/s"]
    print("  ".join(f"{h:>12}" for h in header))

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
        assert walked.same_counts(census.census_counts(n, k, "dp")), "walk != dp"
        row = [str(n), str(k), str(total), f"{best:.4f}", f"{total / best:.3g}"]
        print("  ".join(f"{c:>12}" for c in row))


if __name__ == "__main__":
    main()
