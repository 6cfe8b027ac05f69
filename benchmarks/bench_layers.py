"""Time five layers: normal-form multiplication, the embedding/boundary
BFS, the census walk, series construction, and the xi_k bisection.

Usage: python benchmarks/bench_layers.py [--n 10] [--k 3] [--kmax 512]
       [--census 14:4] [--series 512:12 1024:24] [--repeats 3]

multiply: group.multiply over embed(n, k).image() x the six signed steps
of the extended set {x0, x1, x1bar}, in microseconds per call (minimum
over the repeats).  Every product must equal the word fold of the
normal-form letters, _fold(a.pos, a.neg, letters(b)).

embedding: for every n' <= n and k' <= k, the BFS census.embed(n', k')
and then the extended-set statistics pass stats_elements(image, extended,
blocked) that outer_boundary_exact makes, each in seconds (minimum over
the repeats), and the group.multiply calls of outer_boundary_exact,
counted in one more untimed pass.  The BFS multiplies each unblocked
(forest, label) pair and the statistics pass each blocked one, so the
count must be 6 |B(n', k')| summed over the grid; every boundary must
equal the doubling bound of theorem2.  The last column is the tracemalloc
peak of one more untimed statistics pass at (n, k) itself, the embedding
built before tracing starts, in MB.

census: for --census N:K, one walk census._walk(N, K) on the exact-height
table _height_table(N, K), in seconds (minimum over the repeats), and the
forests it tallies per second, summed over every n <= N.  The rows are
n in [N-4, N], all read from that one walk, each with the walk's time and
rate.  Every row's total must equal |B(n, K)|, its tallies must equal
those the series read count_series(K, N).at(n) gives, and its x1^-1
blocked count must equal the series' trivial tally.

series: for each N:K in --series, the three steps of count_series(K, N),
each repeat starting from empty _phi_chain and count_series caches:
the Phi chain phi(K, N), G = geometric(), and the S read _side (one dot
product s_m = g_m - [z^m] Phi_(K-1) G per coefficient), in seconds
(minimum over the repeats).  G and S must equal count_series(K, N), and
every chain level must equal z plus the full-length convolution
_conv(c, c, m) of the level c before, a kernel other than square()'s half
products.  `--series 256:4 512:4 1024:4` times the dp route at the census
walk's default height.

xi: intervals.xi(k) for k = 1..kmax at the default tolerance, each repeat
starting from an empty cache; seconds (minimum over the repeats) and the
number of _phi_cmp_one sign tests, counted in one more untimed pass.
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
    best_embed = best_stats = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        embeddings = [census.embed(nn, kk) for nn, kk in grid]
        t1 = time.perf_counter()
        for emb in embeddings:
            census.stats_elements(emb.image(), ext, emb.blocked)
        t2 = time.perf_counter()
        best_embed = min(best_embed, t1 - t0)
        best_stats = min(best_stats, t2 - t1)

    calls = 0
    real = census.multiply

    def counting(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    census.multiply = counting
    try:
        outer = [census.outer_boundary_exact(nn, kk, ext) for nn, kk in grid]
    finally:
        census.multiply = real
    counts = [census.census_counts(nn, kk) for nn, kk in grid]
    assert calls == 6 * sum(c.total for c in counts), "multiply calls != 6 |B|"
    assert all(o == c.doubling_bound() for o, c in zip(outer, counts)), (
        "outer boundary differs from the doubling bound"
    )

    emb = census.embed(n, k)
    tracemalloc.start()
    try:
        census.stats_elements(emb.image(), ext, emb.blocked)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _print_row(["n <=", "k <=", "embed (s)", "stats (s)", "multiplies", "peak (MB)"])
    _print_row(
        [n, k, f"{best_embed:.4f}", f"{best_stats:.4f}", calls, f"{peak / 1e6:.2f}"]
    )


def bench_census(n: int, k: int, repeats: int) -> None:
    table = census._height_table(n, k)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        walked = census._walk(n, k, table)
        best = min(best, time.perf_counter() - t0)
    rate = sum(tallies.total for tallies, _ in walked) / best
    fam = series.count_series(k, n)
    _print_row(["n", "k", "|B(n,k)|", "walk (s)", "forests/s"])
    for nn in range(max(1, n - 4), n + 1):
        tallies, merge_blocked = walked[nn]
        assert tallies.total == forests.count_bb(nn, k), "walk total != |B(n,k)|"
        dp = fam.at(nn)
        assert tallies == dp and merge_blocked == dp.trivial, "walk != dp"
        _print_row([nn, k, tallies.total, f"{best:.4f}", f"{rate:.3g}"])


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
            g = p.geometric()
            t2 = time.perf_counter()
            side = series._side(g, series.phi(k - 1, n))
            t3 = time.perf_counter()
            best = [min(b, t) for b, t in zip(best, (t1 - t0, t2 - t1, t3 - t2))]
        fam = series.count_series(k, n)
        assert (fam.g, fam.side) == (g, side), "count_series != timed steps"
        chain = [level.coeffs for level in series._phi_chain(n)]
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
    real = intervals._phi_cmp_one

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    intervals.xi.cache_clear()
    intervals._phi_cmp_one = counting
    try:
        for k in ks:
            intervals.xi(k)
    finally:
        intervals._phi_cmp_one = real

    witness = next(
        (k for k in ks if intervals.limit_fractions(k).bprime_density.lo > 3), None
    )
    expected = THEOREM1_WITNESS if kmax >= THEOREM1_WITNESS else None
    assert witness == expected, f"first k with B' density > 3 is {witness}"
    _print_row(["kmax", "xi (s)", "sign tests", "witness k"])
    _print_row([kmax, f"{best:.4f}", calls, witness])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--kmax", type=int, default=512)
    ap.add_argument("--census", type=_case, default=(14, 4))
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
