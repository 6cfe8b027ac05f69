"""Time five layers: normal-form multiplication, the embedding/boundary
BFS, the census walk, series construction, and the xi_k bisection.

Usage: python benchmarks/bench_layers.py [--n 10] [--k 3] [--kmax 512]
       [--census 312:10] [--series 512:12 1024:24] [--repeats 3]

multiply: group.multiply over embed(n, k).image() x the six signed steps
of the extended set {x0, x1, x1bar}, in microseconds per call (minimum
over the repeats).  Every product must equal the word fold of the
normal-form letters, _fold(a.pos, a.neg, letters(b)).

embedding: for every n' <= n and k' <= k, the BFS census.embed(n', k')
and then the extended-set statistics pass stats_elements(image, extended)
that outer_boundary_exact makes, each in seconds (minimum over the
repeats), and the group.multiply calls of outer_boundary_exact, counted
in one more untimed pass.  The BFS multiplies each unblocked (forest,
label) pair and the statistics pass every pair, so the count must be
12 |B(n', k')| less the extended-set Cheeger count, summed over the grid;
every boundary must equal the doubling bound of theorem2.  Then outer_boundary_grid(n, k,
extended), which theorem2 runs: all those boundaries from the one
embedding of B(n, k), in seconds (minimum over the repeats), and its
group.multiply calls, counted in the untimed pass.  It must equal the
per-row boundaries and make 6 |B(n, k)| products.  The last column is
the tracemalloc peak of one more untimed statistics pass at (n, k)
itself, the embedding built before tracing starts, in MB.

census: for --census N:K, the whole walk route of census_counts at depth
N, in seconds (minimum over the repeats): the walk's tree counts
forests.count_trees(l, K) and count_trees(l, K - 1) for 2 <= l <= N, from
an empty cache, the walk census._walk(N, K) that reads them, and the one
recursion table forests._seq_counts(N, K) that checks it, from an empty
cache; then the route's total, the sum of the three.  The default 312:10
is the size of Theorem 2's finite witness.  The rows are n in [N-4, N],
all read from that one walk, each with the route's times.  Every row's
total and edge tally must equal the recursion table's slot n, its tallies
must equal those the series read count_series(K, N).at(n) gives, and its
x1^-1 blocked count must equal the series' trivial tally.

series: for each N:K in --series, the three steps of count_series(K, N),
each repeat starting from empty _phi_chain and count_series caches:
the Phi chain phi(K, N), G = geometric(phi(K, N)), and the S read _side
(one dot product s_m = g_m - [z^m] Phi_(K-1) G per coefficient), in seconds
(minimum over the repeats).  G and S must equal count_series(K, N), and
every chain level must equal z plus the full-length convolution
_conv(c, c, m) of the level c before, a kernel other than square()'s half
products.  `--series 312:10` times the dp route at the census layer's
default size.

xi: intervals.xi(k) for k = 1..kmax at the default tolerance, each repeat
starting from an empty cache; seconds (minimum over the repeats) and the
number of one-track loops (_phi_floor and _phi_ceil calls, two of them
per midpoint sign test that _phi_cmp_one cannot settle from the ceil
track), counted in one more untimed pass.
The certified B' limit density must first exceed 3 at k = 48, the witness
of theorem1, whenever kmax >= 48.
"""

import argparse
import time
import tracemalloc

from fdensity import census, forests, group, intervals, series

THEOREM1_WITNESS = 48


def _print_row(cells) -> None:
    print("  ".join(f"{c!s:>12}" for c in cells))


def bench_multiply(n: int, k: int, repeats: int) -> None:
    steps = [g for _, g in group.GenSetSpec.extended().signed()]
    pairs = [(y, s) for y in census.embed(n, k).image() for s in steps]
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        products = [group.multiply(y, s) for y, s in pairs]
        best = min(best, time.perf_counter() - t0)
    for (y, s), h in zip(pairs, products):
        assert h == group._fold(list(y.pos), list(y.neg), group.letters(s)), (
            "multiply != fold of letters"
        )
    _print_row(["n", "k", "products", "us/call"])
    _print_row([n, k, len(pairs), f"{best / len(pairs) * 1e6:.3f}"])


def bench_embedding(n: int, k: int, repeats: int) -> None:
    ext = group.GenSetSpec.extended()
    grid = [(nn, kk) for nn in range(1, n + 1) for kk in range(0, k + 1)]
    best_embed = best_stats = best_grid = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        embeddings = [census.embed(nn, kk) for nn, kk in grid]
        t1 = time.perf_counter()
        for emb in embeddings:
            census.stats_elements(emb.image(), ext)
        t2 = time.perf_counter()
        census.outer_boundary_grid(n, k, ext)
        t3 = time.perf_counter()
        best_embed = min(best_embed, t1 - t0)
        best_stats = min(best_stats, t2 - t1)
        best_grid = min(best_grid, t3 - t2)

    calls = 0
    real = census.multiply

    def counting(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    census.multiply = counting
    try:
        outer = [census.outer_boundary_exact(nn, kk, ext) for nn, kk in grid]
        row_calls, calls = calls, 0
        one_embedding = census.outer_boundary_grid(n, k, ext)
    finally:
        census.multiply = real
    counts = [census.census_counts(nn, kk) for nn, kk in grid]
    assert row_calls == sum(12 * c.total - c.stats(ext).cheeger_total for c in counts), (
        "multiply calls != 12 |B| - Cheeger"
    )
    assert all(o == c.doubling_bound() for o, c in zip(outer, counts)), (
        "outer boundary differs from the doubling bound"
    )
    assert one_embedding == dict(zip(grid, outer)), "grid != per-row boundaries"
    assert calls == 6 * forests.count_bb(n, k), "grid multiply calls != 6 |B|"

    emb = census.embed(n, k)
    tracemalloc.start()
    try:
        census.stats_elements(emb.image(), ext)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _print_row(["n <=", "k <=", "embed (s)", "stats (s)", "multiplies", "grid (s)",
                "grid mult.", "peak (MB)"])
    _print_row([n, k, f"{best_embed:.4f}", f"{best_stats:.4f}", row_calls,
                f"{best_grid:.4f}", calls, f"{peak / 1e6:.2f}"])


def bench_census(n: int, k: int, repeats: int) -> None:
    best = [float("inf")] * 3
    for _ in range(repeats):
        forests.count_trees.cache_clear()
        forests._seq_counts.cache_clear()
        t0 = time.perf_counter()
        for l in range(2, n + 1):
            forests.count_trees(l, k)
            forests.count_trees(l, k - 1)
        t1 = time.perf_counter()
        walked = census._walk(n, k)
        t2 = time.perf_counter()
        recursion = forests._seq_counts(n, k)
        t3 = time.perf_counter()
        best = [min(b, t) for b, t in zip(best, (t1 - t0, t2 - t1, t3 - t2))]
    fam = series.count_series(k, n)
    _print_row(["n", "k", "|B(n,k)|", "table (s)", "walk (s)", "recursion (s)",
                "route (s)"])
    for nn in range(max(1, n - 4), n + 1):
        tallies, merge_blocked = walked[nn]
        assert (tallies.edge, tallies.total) == recursion[nn], "walk != recursion"
        dp = fam.at(nn)
        assert tallies == dp and merge_blocked == dp.trivial, "walk != dp"
        _print_row([nn, k, tallies.total, *(f"{b:.4f}" for b in best),
                    f"{sum(best):.4f}"])


def bench_series(cases: list[tuple[int, int]], repeats: int) -> None:
    _print_row(["n", "k", "chain (s)", "geometric (s)", "S (s)"])
    for n, k in cases:
        best = [float("inf")] * 3
        for _ in range(repeats):
            series._phi_chain.cache_clear()
            series.count_series.cache_clear()
            t0 = time.perf_counter()
            p = series.phi(k, n)
            t1 = time.perf_counter()
            g = series.geometric(p)
            t2 = time.perf_counter()
            side = series._side(g, series.phi(k - 1, n))
            t3 = time.perf_counter()
            best = [min(b, t) for b, t in zip(best, (t1 - t0, t2 - t1, t3 - t2))]
        fam = series.count_series(k, n)
        assert (fam.g, fam.side) == (g, side), "count_series != timed steps"
        chain = series._phi_chain(n)
        for c, level in zip(chain[:k], chain[1:]):
            square = [series._conv(c, c, m) for m in range(n + 1)]
            square[1] += 1
            assert level == tuple(square), (
                "Phi chain level != z + convolution square of the level before"
            )
        _print_row([n, k, *(f"{b:.4f}" for b in best)])


def _case(text: str) -> tuple[int, int]:
    n, k = text.split(":")
    return int(n), int(k)


def bench_xi(kmax: int, repeats: int) -> None:
    ks = range(1, kmax + 1)
    best = float("inf")
    for _ in range(repeats):
        intervals.xi.cache_clear()
        t0 = time.perf_counter()
        for k in ks:
            intervals.xi(k)
        best = min(best, time.perf_counter() - t0)

    calls = 0
    tracks = {name: getattr(intervals, name) for name in ("_phi_floor", "_phi_ceil")}

    def counting(real):
        def track(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        return track

    intervals.xi.cache_clear()
    for name, real in tracks.items():
        setattr(intervals, name, counting(real))
    try:
        for k in ks:
            intervals.xi(k)
    finally:
        for name, real in tracks.items():
            setattr(intervals, name, real)

    witness = next(
        (k for k in ks if intervals.limit_fractions(k).bprime_density.lo > 3), None
    )
    expected = THEOREM1_WITNESS if kmax >= THEOREM1_WITNESS else None
    assert witness == expected, f"first k with B' density > 3 is {witness}"
    _print_row(["kmax", "xi (s)", "tracks", "witness k"])
    _print_row([kmax, f"{best:.4f}", calls, witness])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--kmax", type=int, default=512)
    ap.add_argument("--census", type=_case, default=(312, 10))
    ap.add_argument(
        "--series", type=_case, nargs="+", default=[(512, 12), (1024, 24)]
    )
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    bench_multiply(args.n, args.k, args.repeats)
    print()
    bench_embedding(args.n, args.k, args.repeats)
    print()
    bench_census(*args.census, args.repeats)
    print()
    bench_series(args.series, args.repeats)
    print()
    bench_xi(args.kmax, args.repeats)


if __name__ == "__main__":
    main()
