"""Acceptance gate: ten certified claims, one verdict line each.

Each test prints `ACCEPTANCE Cn <label>: PASS/FAIL` on the real stdout so
the verdicts survive pytest capture, then asserts.  Tolerances are pinned
in the assertions; exact claims use exact integer/rational comparison.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from fdensity import census, cli, forests, group, intervals, series

F = Fraction

GRID_N = 14
GRID_K = 4

GENSETS = {
    "standard": group.GenSetSpec.standard(),
    "symmetric": group.GenSetSpec.symmetric(),
    "extended": group.GenSetSpec.extended(),
}

_CAP = None


@pytest.fixture(autouse=True)
def _live_verdicts(capfd):
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def _report(tag: str, ok: bool, detail: str, started: float) -> bool:
    verdict = "PASS" if ok else "FAIL"
    elapsed = time.monotonic() - started
    line = f"ACCEPTANCE {tag}: {verdict} ({detail}, {elapsed:.1f}s)"
    if _CAP is not None:
        with _CAP.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    return ok


def test_c01_presentation_suite():
    t0 = time.monotonic()
    checks = group.presentation_checks(mixed_max=3)
    failed = [name for name, ok in checks if not ok]
    ok = not failed and len(checks) >= 25 and (time.monotonic() - t0) < 5.0
    assert _report(
        "C1 presentation-suite", ok, f"{len(checks)} relations, 0 failures", t0
    )


def test_c02_dual_path_exactness():
    t0 = time.monotonic()
    cells = 0
    ok = True
    for n in range(1, GRID_N + 1):
        for k in range(0, GRID_K + 1):
            a = census.census_counts(n, k, "enumerate")
            b = census.census_counts(n, k, "dp")
            ok = ok and a == b
            cells += 1
    ok = ok and (time.monotonic() - t0) < 120.0
    assert _report(
        "C2 dual-path-exactness", ok, f"{cells} cells equal on n<=14 k<=4", t0
    )


def test_c03_per_label_pairing():
    t0 = time.monotonic()
    ok = True
    # On this grid the pairing of x0, x1 and x1bar is also the enumerate
    # route's own check: census_counts refuses a walk whose per-label
    # blocked counts break the series identities.
    for n in range(1, GRID_N + 1):
        for k in range(0, GRID_K + 1):
            for gs in GENSETS.values():
                blocked = census.census_counts(n, k).stats(gs).per_label_blocked()
                for lbl, _ in gs.gens:
                    ok = ok and blocked[lbl] == blocked[lbl + "^-1"]
    ball5 = sorted(group.ball(GENSETS["standard"], 5), key=group.format_nf)
    rng = random.Random(1729)
    subsets = 0
    for _ in range(50):
        size = rng.randrange(1, len(ball5) + 1)
        sub = set(rng.sample(ball5, size))
        for gs in GENSETS.values():
            counts = census.stats_elements(sub, gs).per_label_blocked()
            for lbl, _ in gs.gens:
                ok = ok and counts[lbl] == counts[lbl + "^-1"]
        subsets += 1
    ok = ok and (time.monotonic() - t0) < 60.0
    assert _report(
        "C3 per-label-pairing",
        ok,
        f"grid n<=14 k<=4 x3 gensets + {subsets} random subsets of ball(5)",
        t0,
    )


def test_c04_small_case_goldens():
    t0 = time.monotonic()
    ok = forests.count_bb(3, 1) == 7
    st = census.census_counts(2, 1).stats(GENSETS["symmetric"])
    ok = ok and st.density == F(4, 3) and st.cheeger_total == 8
    identity_cells = edge_cells = 0
    for n in range(1, 13):
        for k in range(0, GRID_K + 1):
            # The degree sum counted in the object model: (forest, label)
            # pairs whose action stays inside B(n, k).
            within = None
            if n <= 9:
                within = Counter(
                    label
                    for f in forests.iter_bb(n, k)
                    for label in forests.ACTION_LABELS
                    if forests.apply_within(label, f, k) is not None
                )
            for gs in GENSETS.values():
                s = census.census_counts(n, k).stats(gs)
                lhs = s.density + F(s.cheeger_total, s.vertices)
                ok = ok and lhs == 2 * s.m
                identity_cells += 1
                if within is not None:
                    edges = sum(within[lbl] for lbl, _ in gs.signed())
                    ok = ok and s.degree_sum == edges
                    edge_cells += 1
    assert _report(
        "C4 small-case-goldens",
        ok,
        f"beta(3,1)=7, B(2,1) sym 4/3 & 8, handshake identity x{identity_cells}, "
        f"object-model degree sum x{edge_cells}",
        t0,
    )


def test_c05_xi_certification():
    t0 = time.monotonic()
    x0 = intervals.xi(0)
    ok = x0.lo == 1 and x0.hi == 1
    x1 = intervals.xi(1)
    P = 10**18
    s = isqrt(5 * P * P)
    golden_lo, golden_hi = F(s - P, 2 * P), F(s + 1 - P, 2 * P)
    ok = ok and x1.lo <= golden_hi and golden_lo <= x1.hi
    ok = ok and x1.width <= F(1, 10**12)
    prev = x0
    for k in range(1, 65):
        cur = intervals.xi(k)
        ok = ok and cur.hi < prev.lo and cur.lo > F(1, 4)
        prev = cur
    quarter_ok = all(
        intervals.phi_at(k, F(1, 4)).hi < F(1, 2) for k in range(0, 201)
    )
    # Phi_k agrees with the Catalan numbers through z^(k+1): trees with at
    # most k+1 leaves have height at most k.
    catalan_ok = all(
        series.phi(k, k + 2)[n + 1] == series.catalan(n)
        for k in range(0, 13)
        for n in range(k + 1)
    )
    ok = ok and quarter_ok and catalan_ok and (time.monotonic() - t0) < 60.0
    assert _report(
        "C5 xi-certification",
        ok,
        "xi_0=1, xi_1 golden @1e-12, decreasing>1/4 k<=64, "
        "Phi_k(1/4)<1/2 k<=200, Catalan prefix k<=12",
        t0,
    )


def test_c06_density_limits():
    t0 = time.monotonic()
    n_big = 512
    lim3 = intervals.limit_fractions(3)
    counts = census.census_counts(n_big, 3, mode="dp")
    std = counts.stats(GENSETS["standard"]).density
    sym = counts.stats(GENSETS["symmetric"]).density
    gap_std = abs(std - lim3.density_standard.mid)
    gap_sym = abs(sym - lim3.density_symmetric.mid)
    ok = gap_std < F(5, 100) and gap_sym < F(5, 100)
    lim64 = intervals.limit_fractions(64)
    d2 = lim64.density_standard
    d4 = lim64.density_symmetric
    ok = ok and max(abs(d2.lo - F(7, 2)), abs(d2.hi - F(7, 2))) < F(1, 100)
    ok = ok and max(abs(d4.lo - 3), abs(d4.hi - 3)) < F(2, 100)
    ok = ok and (time.monotonic() - t0) < 180.0
    assert _report(
        "C6 density-limits",
        ok,
        f"n=512 k=3 gaps {float(gap_std):.4f}/{float(gap_sym):.4f} < 0.05; "
        "k=64 limits within 0.01/0.02 of 3.5/3",
        t0,
    )


def test_c07_isolated_vertex_argument():
    t0 = time.monotonic()
    sweep = {k: intervals.limit_fractions(k) for k in range(1, 257)}
    witness = next(
        (k for k in sorted(sweep) if k <= 64 and sweep[k].bprime_density.lo > 3),
        None,
    )
    ok = witness is not None
    # The closed form for the limiting isolated fraction matches exact
    # finite-n fractions long before the asymptotic regime.
    for k in (1, 2, 3):
        c = census.census_counts(512, k, "dp")
        exact = F(c.isolated, c.total)
        ok = ok and abs(exact - sweep[k].isolated_fraction.mid) < F(2, 100)
    swap_ok = True
    for k, lf in sweep.items():
        cube = lf.xi * lf.xi * lf.xi * F(1, 4)
        swap_ok = swap_ok and lf.isolated_fraction.lo >= cube.hi
    sup_k, sup_lo = max(
        ((k, lf.bprime_density.lo) for k, lf in sweep.items()), key=lambda t: t[1]
    )
    sup_ok = sup_lo > F(3011, 1000)
    tail = sweep[256].xi
    cube256 = tail * tail * tail * F(1, 4)
    cube_ok = (
        max(abs(cube256.lo - F(1, 256)), abs(cube256.hi - F(1, 256))) < F(1, 10**4)
    )
    ok = ok and swap_ok and sup_ok and cube_ok and (time.monotonic() - t0) < 120.0
    assert _report(
        "C7 isolated-vertex-argument",
        ok,
        f"witness k={witness}<=64, sup lo={float(sup_lo):.5f}@k={sup_k}>3.011, "
        "p_inf>=xi^3/4 for k<=256, xi^3/4 -> 1/256 @1e-4",
        t0,
    )


def test_c08_doubling_failure():
    t0 = time.monotonic()
    enclosures = {k: 3 * intervals.xi(k) for k in range(1, 65)}
    k0 = next((k for k in sorted(enclosures) if enclosures[k].hi < 1), None)
    ok = k0 is not None and k0 <= 16
    ok = ok and all(enclosures[k].hi < 1 for k in range(k0, 65))
    for n in range(1, 11):
        for k in range(0, 4):
            outer = census.outer_boundary_exact(n, k, GENSETS["extended"])
            ok = ok and outer <= census.census_counts(n, k).doubling_bound()
    prev = None
    for k in sorted(enclosures):
        iv = 1 + enclosures[k]
        if prev is not None:
            ok = ok and iv.hi < prev
        prev = iv.hi
    last = 1 + enclosures[64]
    ok = ok and max(abs(last.lo - F(7, 4)), abs(last.hi - F(7, 4))) < F(2, 100)
    ok = ok and (time.monotonic() - t0) < 120.0
    assert _report(
        "C8 doubling-failure",
        ok,
        f"3xi<1 from k0={k0}<=16 through 64; exact boundary <= bound on "
        "n<=10 k<=3; 1+3xi decreasing to 7/4 @0.02",
        t0,
    )


def test_c09_embedding_oracle():
    t0 = time.monotonic()
    ok = True
    cases = 0
    images = {}
    for n in range(1, 11):
        for k in range(0, 4):
            emb = census.embed(n, k)  # raises on any inconsistency
            images[n, k] = emb.image()
            ok = ok and len(images[n, k]) == len(emb.assignment)
            cases += 1
    for n in range(1, 8):
        for k in range(0, 4):
            elements = images[n, k]
            for gs in GENSETS.values():
                fs = census.census_counts(n, k).stats(gs)
                es = census.stats_elements(elements, gs)
                ok = (
                    ok
                    and fs.vertices == es.vertices
                    and fs.degree_sum == es.degree_sum
                    and fs.cheeger_total == es.cheeger_total
                    and fs.per_label_blocked() == es.per_label_blocked()
                )
    ok = ok and (time.monotonic() - t0) < 120.0
    assert _report(
        "C9 embedding-oracle",
        ok,
        f"{cases} cases injective+consistent; forest stats == element stats "
        "x3 gensets n<=7",
        t0,
    )


def test_c10_determinism(tmp_path):
    t0 = time.monotonic()
    suite = [
        ["group-verify"],
        ["xi", "--kmax", "16"],
        ["density", "--nmax", "8", "--kmax", "2", "--genset", "extended"],
        ["density", "--nmax", "8", "--kmax", "2", "--genset", "symmetric",
         "--mode", "both", "--format", "json"],
        ["isolated", "--nmax", "12", "--kmax", "3", "--mode", "both"],
        ["theorem1", "--kmax", "50"],
        ["theorem2", "--kmax", "16", "--n-small", "6"],
        ["embed-verify", "--nmax", "6", "--kmax", "2"],
        ["enumerate", "--n", "6", "--k", "2"],
    ]
    ok = True
    for i, argv in enumerate(suite):
        outputs = []
        for threads, tag in ((1, "a"), (2, "b")):
            path = tmp_path / f"{tag}{i}"
            rc = cli.main(argv + ["--threads", str(threads), "--out", str(path)])
            ok = ok and rc in (0, 2)
            outputs.append(path.read_bytes())
        ok = ok and outputs[0] == outputs[1] and len(outputs[0]) > 0
    ok = ok and (time.monotonic() - t0) < 600.0
    assert _report(
        "C10 determinism",
        ok,
        f"{len(suite)} commands byte-identical across --threads 1/2",
        t0,
    )
