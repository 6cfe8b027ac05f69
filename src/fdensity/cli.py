"""Command-line front end: every table and claim as deterministic CSV/JSON.

Subcommands: group-verify, xi, density, theorem1, theorem2, embed-verify,
enumerate, isolated.  Exit codes: 0 success / claims certified; 2 a claim
could not be certified within budget; 3 invalid configuration or an
unwritable --out; 4 any other (internal) fault, reported in one stderr
line without a traceback.

Output is byte-identical for a fixed configuration regardless of
--threads: work is distributed over rows and merged in input order, and
the thread count is never echoed into the output.  Rationals are printed
as exact numerator/denominator columns plus decimal strings (12 places;
interval endpoints are rounded outward, other values half-up).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import __version__
from . import census, forests, group, intervals
from .errors import CapExceeded, PrecisionExhausted

DECIMAL_PLACES = 12

TAG_ENUM = "[exact-enumeration]"
TAG_DP = "[exact-dp]"
TAG_INTERVAL = "[certified-interval]"
TAG_LIMIT = "[derived-limit-formula]"
TAG_NF = "[exact-normal-form]"

_PROVENANCE = {"enumerate": TAG_ENUM, "dp": TAG_DP, "both": f"{TAG_ENUM} {TAG_DP}"}


class UsageError(ValueError):
    pass


class OutputError(Exception):
    """--out could not be written."""


def _decimal(x: Fraction, places: int = DECIMAL_PLACES, mode: str = "nearest") -> str:
    """Exact decimal string; 'floor'/'ceil' for outward interval endpoints."""
    q = Fraction(x) * 10**places
    n, d = q.numerator, q.denominator
    if mode == "floor":
        v = n // d
    elif mode == "ceil":
        v = -((-n) // d)
    else:
        v = (2 * n + d) // (2 * d)
    sign = "-" if v < 0 else ""
    digits = str(abs(v)).zfill(places + 1)
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _iv_cols(iv: intervals.CertifiedInterval, name: str) -> dict[str, str]:
    return {
        f"{name}_lo": _decimal(iv.lo, mode="floor"),
        f"{name}_hi": _decimal(iv.hi, mode="ceil"),
    }


def _pmap(fn: Callable, items: Sequence, threads: int) -> list:
    """Map preserving order; distributes over a process pool if threads > 1."""
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor

    # Under fork the pool starts all its workers on the first submit, so
    # it gets no more of them than there are items.
    with ProcessPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def _emit(
    args: argparse.Namespace, command: str, rows: list[dict], columns: list[str], **meta
) -> None:
    """Write the listed columns of rows ("NA" where a row has none) as CSV,
    or as JSON under a config echo for reproducibility; the echo leaves out
    the thread count and paths so identical configurations give identical
    bytes."""
    cells = [{c: row.get(c, "NA") for c in columns} for row in rows]
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        w.writeheader()
        w.writerows(cells)
        text = buf.getvalue()
    else:
        config = {
            key: (str(v) if isinstance(v, Fraction) else v)
            for key, v in sorted(vars(args).items())
            if key not in {"out", "threads", "func"} and v is not None
        }
        meta = {
            "version": __version__,
            "command": command,
            "decimal_places": DECIMAL_PLACES,
            "config": config,
            **meta,
        }
        text = json.dumps({"meta": meta, "rows": cells}, indent=2, sort_keys=True)
        text += "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    # Write beside the target and rename over it, so the file at out is
    # either the old one or the whole new one, never a partial write.
    tmp = f"{args.out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, args.out)
    except OSError as exc:
        raise OutputError(
            f"cannot write --out {args.out}: {exc.strerror or exc}"
        ) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# group-verify


def cmd_group_verify(args: argparse.Namespace) -> int:
    checks = group.presentation_checks(mixed_max=args.mn)
    if args.inject_bad_relator:
        x0, x1 = group.X0, group.X1
        bad = group.conjugate(x1, group.power(x0, 2)) == group.conjugate(x1, x0)
        checks.append(("x1^(x0^2) = x1^(x0) [injected control]", bad))
    rows = [
        {"relation": name, "status": "pass" if ok else "FAIL", "provenance": TAG_NF}
        for name, ok in checks
    ]
    columns = ["relation", "status", "provenance"]
    _emit(args, "group-verify", rows, columns, checks_total=len(rows))
    for name, ok in checks:
        if not ok:
            print(f"group-verify: FAILED relation: {name}", file=sys.stderr)
            return 2
    return 0


# ---------------------------------------------------------------------------
# xi


def _xi_row(job: tuple[int, Fraction]) -> dict:
    k, tol = job
    x = intervals.xi(k, tol)
    row = {"k": k, "provenance": f"{TAG_INTERVAL} {TAG_LIMIT}"}
    row.update(_iv_cols(x, "xi"))
    row["density_standard"] = _decimal((4 - 2 * x).mid)
    row["density_symmetric"] = _decimal((4 - 4 * x).mid)
    row["doubling_ratio"] = _decimal((3 * x).mid)
    if k >= 1:
        lf = intervals.limit_fractions(k, tol)
        row["isolated_limit"] = _decimal(lf.isolated_fraction.mid)
        row["bprime_density"] = _decimal(lf.bprime_density.mid)
    else:
        # Phi_{-1} = 0: every vertex of B(n,0) is isolated and B' is empty.
        row["isolated_limit"] = _decimal(Fraction(1))
    return row


XI_COLUMNS = [
    "k",
    "xi_lo",
    "xi_hi",
    "density_standard",
    "density_symmetric",
    "isolated_limit",
    "bprime_density",
    "doubling_ratio",
    "provenance",
]


def cmd_xi(args: argparse.Namespace) -> int:
    jobs = [(k, args.tol) for k in _range_from(None, args.kmax, "k")]
    rows = _pmap(_xi_row, jobs, args.threads)
    _emit(
        args,
        "xi",
        rows,
        XI_COLUMNS,
        derived_columns="interval midpoints; certified enclosure width <= "
        "a few multiples of tol (xi endpoints rounded outward)",
    )
    return 0


# ---------------------------------------------------------------------------
# density


DENSITY_COLUMNS = [
    "n",
    "k",
    "genset",
    "vertices",
    "degree_sum",
    "density_num",
    "density_den",
    "density",
    "cheeger",
    "outer_boundary",
    "isolated",
    "bprime_density_num",
    "bprime_density_den",
    "doubling_upper_bound",
    "provenance",
]


def _density_row(job: tuple) -> dict:
    n, k, genset_name, mode, cap, boundary, order = job
    genset = group.by_name(genset_name)
    # A custom set is read on the embedded image, whose n <= 12 refusal
    # comes before the census' own input checks.
    emb = census.embed(n, k, cap=cap) if genset.name == "custom" else None
    counts = census.census_counts(n, k, mode, cap, order)
    if emb is None:
        st, prov = counts.stats(genset), _PROVENANCE[mode]
    else:
        st = census.stats_elements(emb.image(), genset, emb.blocked)
        prov = TAG_ENUM
    row = {
        "n": n,
        "k": k,
        "genset": genset_name,
        "vertices": st.vertices,
        "degree_sum": st.degree_sum,
        "density_num": st.density.numerator,
        "density_den": st.density.denominator,
        "density": _decimal(st.density),
        "cheeger": st.cheeger_total,
        "isolated": counts.isolated,
        "doubling_upper_bound": counts.doubling_bound(),
        "provenance": prov,
    }
    if counts.total > counts.isolated:
        bp = counts.bprime()
        row["bprime_density_num"] = bp.density.numerator
        row["bprime_density_den"] = bp.density.denominator
    compute_boundary = boundary == "always" or (
        boundary == "auto" and n <= 10 and mode != "dp"
    )
    if compute_boundary:
        row["outer_boundary"] = (
            census.outer_boundary_exact(n, k, genset, cap=cap)
            if st.outer_boundary is None
            else st.outer_boundary
        )
    return row


def cmd_density(args: argparse.Namespace) -> int:
    jobs = _grid(args, args.genset, args.mode, args.cap, args.boundary)
    rows = _pmap(_density_row, jobs, args.threads)
    _emit(args, "density", rows, DENSITY_COLUMNS)
    return 0


def _range_from(single: Optional[int], upto: Optional[int], name: str) -> list[int]:
    """[--<name>] or the range up to --<name>max (n from 1, k from 0)."""
    if single is not None and upto is not None:
        raise UsageError(f"--{name} and --{name}max are mutually exclusive")
    if single is not None:
        return [single]
    if upto is None:
        raise UsageError(f"one of --{name} / --{name}max is required")
    low = 1 if name == "n" else 0
    if upto < low:
        raise UsageError(f"--{name}max must be at least {low}")
    return list(range(low, upto + 1))


def _grid(args: argparse.Namespace, *fields) -> list[tuple]:
    """Jobs (n, k, *fields, order) of a density or isolated table.  Every
    row reads the dp series at the table's largest n, so each k builds its
    series once (the coefficients do not depend on the order)."""
    ns = _range_from(args.n, args.nmax, "n")
    ks = _range_from(args.k, args.kmax, "k")
    return [(n, k, *fields, max(ns)) for n in ns for k in ks]


# ---------------------------------------------------------------------------
# theorem1


def _theorem1_row(job: tuple[int, Fraction]) -> dict:
    k, tol = job
    lf = intervals.limit_fractions(k, tol)
    cube_quarter = lf.xi * lf.xi * lf.xi * Fraction(1, 4)
    row = {"k": k, "provenance": f"{TAG_INTERVAL} {TAG_LIMIT}"}
    row.update(_iv_cols(lf.xi, "xi"))
    row.update(_iv_cols(lf.isolated_fraction, "p_inf"))
    row.update(_iv_cols(lf.bprime_density, "bprime_density"))
    row.update(_iv_cols(cube_quarter, "xi_cubed_over_4"))
    row["p_inf_ge_xi3_over_4"] = (
        "certified" if lf.isolated_fraction.lo >= cube_quarter.hi else "UNDECIDED"
    )
    row["_bprime_lo"] = lf.bprime_density.lo
    row["_cube_mid"] = cube_quarter.mid
    return row


THEOREM1_COLUMNS = [
    "k",
    "xi_lo",
    "xi_hi",
    "p_inf_lo",
    "p_inf_hi",
    "bprime_density_lo",
    "bprime_density_hi",
    "xi_cubed_over_4_lo",
    "xi_cubed_over_4_hi",
    "p_inf_ge_xi3_over_4",
    "provenance",
]


def cmd_theorem1(args: argparse.Namespace) -> int:
    if args.kmax < 1:
        raise UsageError("--kmax must be at least 1")
    jobs = [(k, args.tol) for k in range(1, args.kmax + 1)]
    rows = _pmap(_theorem1_row, jobs, args.threads)
    first_witness = next((r["k"] for r in rows if r["_bprime_lo"] > 3), None)
    sup_row = max(rows, key=lambda r: r["_bprime_lo"])
    swap_ok = all(r["p_inf_ge_xi3_over_4"] == "certified" for r in rows)
    cube_gap = abs(rows[-1]["_cube_mid"] - Fraction(1, 256))
    _emit(
        args,
        "theorem1",
        rows,
        THEOREM1_COLUMNS,
        first_k_bprime_above_3=first_witness,
        sup_bprime_lo=_decimal(sup_row["_bprime_lo"], mode="floor"),
        sup_at_k=sup_row["k"],
        sup_exceeds_3_011=bool(sup_row["_bprime_lo"] > Fraction(3011, 1000)),
        swap_bound_certified_all_k=swap_ok,
        xi3_over_4_gap_to_1_256=_decimal(cube_gap, mode="ceil"),
    )
    if first_witness is None:
        print(
            f"theorem1: no k <= {args.kmax} certifies density(B') > 3", file=sys.stderr
        )
        return 2
    if not swap_ok:
        print("theorem1: swap bound p_inf >= xi^3/4 not certified", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# theorem2


def _theorem2_row(job: tuple[int, Fraction]) -> dict:
    k, tol = job
    x = intervals.xi(k, tol)
    t = 3 * x
    row = {"k": k, "provenance": f"{TAG_INTERVAL} {TAG_LIMIT}"}
    row.update(_iv_cols(t, "three_xi"))
    row.update(_iv_cols(1 + t, "one_plus_three_xi"))
    row["below_1"] = "certified" if t.hi < 1 else "no"
    return row


def _theorem2_check_row(job: tuple[int, int, int]) -> dict:
    n, k, cap = job
    bound = census.census_counts(n, k, cap=cap).doubling_bound()
    outer = census.outer_boundary_exact(
        n, k, group.GenSetSpec.extended(), cap=cap
    )
    return {
        "n": n,
        "k": k,
        "outer_boundary": outer,
        "upper_bound": bound,
        "within_bound": "yes" if outer <= bound else "NO",
        "provenance": TAG_ENUM,
    }


THEOREM2_COLUMNS = [
    "k",
    "three_xi_lo",
    "three_xi_hi",
    "one_plus_three_xi_lo",
    "one_plus_three_xi_hi",
    "below_1",
    "n",
    "outer_boundary",
    "upper_bound",
    "within_bound",
    "provenance",
]


def cmd_theorem2(args: argparse.Namespace) -> int:
    if args.kmax < 1:
        raise UsageError("--kmax must be at least 1")
    jobs = [(k, args.tol) for k in range(1, args.kmax + 1)]
    rows = _pmap(_theorem2_row, jobs, args.threads)
    k0 = next((r["k"] for r in rows if r["below_1"] == "certified"), None)
    tail_ok = k0 is not None and all(
        r["below_1"] == "certified" for r in rows if r["k"] >= k0
    )
    check_jobs = [
        (n, k, args.cap)
        for n in range(1, args.n_small + 1)
        for k in range(0, min(3, args.kmax) + 1)
    ]
    check_rows = _pmap(_theorem2_check_row, check_jobs, args.threads)
    bounds_ok = all(r["within_bound"] == "yes" for r in check_rows)
    gap = abs((1 + 3 * intervals.xi(args.kmax, args.tol)).mid - Fraction(7, 4))
    _emit(
        args,
        "theorem2",
        rows + check_rows,
        THEOREM2_COLUMNS,
        first_k_three_xi_below_1=k0,
        certified_for_all_larger_k=tail_ok,
        boundary_checks_pass=bounds_ok,
        one_plus_three_xi_gap_to_7_4=_decimal(gap, mode="ceil"),
    )
    if k0 is None or not tail_ok:
        print(f"theorem2: no certified k <= {args.kmax}", file=sys.stderr)
        return 2
    if not bounds_ok:
        print("theorem2: an exact boundary exceeded the bound", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# embed-verify


def _embed_summary(n: int, k: int, emb: census.Embedding) -> dict:
    return {
        "n": n,
        "k": k,
        "forests": len(emb.flat),
        "distinct_elements": len(emb.image()),
        "status": "consistent+injective",
        "provenance": TAG_ENUM,
    }


def _embed_row(job: tuple[int, int, int]) -> dict:
    n, k, cap = job
    return _embed_summary(n, k, census.embed(n, k, cap=cap))


EMBED_COLUMNS = ["n", "k", "forests", "distinct_elements", "status", "provenance"]


def cmd_embed_verify(args: argparse.Namespace) -> int:
    if args.perturb:
        try:
            census.embed(3, 1, _moves=forests.moves_x1bar_as_x1)
        except census.EmbeddingError as exc:
            status = f"broken as expected: {exc}"
            row = {"n": 3, "k": 1, "status": status, "provenance": TAG_ENUM}
            _emit(args, "embed-verify", [row], EMBED_COLUMNS, perturbed=True)
            return 0
        print("embed-verify: perturbed action did NOT break", file=sys.stderr)
        return 4
    if args.list:
        if args.n is None or args.k is None:
            raise UsageError("--list requires explicit --n and --k")
        n, k = args.n, args.k
        emb = census.embed(n, k, cap=args.cap)
        rows = [_embed_summary(n, k, emb)] + [
            {
                "n": n,
                "k": k,
                "forest": forests.encode_forest(f),
                "element": group.format_nf(e),
                "provenance": TAG_ENUM,
            }
            for f, e in sorted(
                emb.assignment, key=lambda fe: forests.encode_forest(fe[0])
            )
        ]
        _emit(args, "embed-verify", rows, EMBED_COLUMNS + ["forest", "element"])
        return 0
    # A lone --n or --k fixes that index; --nmax and --kmax have defaults.
    ns = [args.n] if args.n is not None else _range_from(None, args.nmax, "n")
    ks = [args.k] if args.k is not None else _range_from(None, args.kmax, "k")
    jobs = [(n, k, args.cap) for n in ns for k in ks]
    _emit(args, "embed-verify", _pmap(_embed_row, jobs, args.threads), EMBED_COLUMNS)
    return 0


# ---------------------------------------------------------------------------
# enumerate / isolated


def cmd_enumerate(args: argparse.Namespace) -> int:
    items = forests.enumerate_bb(args.n, args.k, cap=args.cap)
    rows = [
        {
            "index": i,
            "forest": forests.encode_forest(f),
            "isolated": "yes" if forests.is_isolated(f, args.k) else "no",
            "provenance": TAG_ENUM,
        }
        for i, f in enumerate(items)
    ]
    columns = ["index", "forest", "isolated", "provenance"]
    _emit(args, "enumerate", rows, columns, count=len(items))
    return 0


def _isolated_row(job: tuple) -> dict:
    n, k, mode, cap, order = job
    counts = census.census_counts(n, k, mode, cap, order)
    return {
        "n": n,
        "k": k,
        "beta": counts.total,
        "trivial_marked": counts.trivial,
        "x1inv_blocked": counts.trivial,
        "isolated": counts.isolated,
        "provenance": _PROVENANCE[mode],
    }


def cmd_isolated(args: argparse.Namespace) -> int:
    rows = _pmap(_isolated_row, _grid(args, args.mode, args.cap), args.threads)
    columns = ["n", "k", "beta", "trivial_marked", "x1inv_blocked", "isolated", "provenance"]
    _emit(args, "isolated", rows, columns)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _add_common(p: argparse.ArgumentParser, fmt_default: str) -> None:
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=fmt_default)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--cap", type=int, default=census.DEFAULT_CAP,
                   help="enumeration cap (refuse larger censuses)")


def _tol(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad tolerance {text!r}: {exc}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="fdensity")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group-verify", help="verify presentations and sigma")
    p.add_argument("--mn", type=int, default=3,
                   help="check alpha^(beta^m) <-> beta^(alpha^n) for m,n <= mn")
    p.add_argument("--inject-bad-relator", action="store_true",
                   help="negative control: append a false relation")
    _add_common(p, "json")
    p.set_defaults(func=cmd_group_verify)

    p = sub.add_parser("xi", help="certified xi_k enclosures and limit columns")
    p.add_argument("--kmax", type=int, default=64)
    p.add_argument("--tol", type=_tol, default=intervals.DEFAULT_TOL)
    _add_common(p, "csv")
    p.set_defaults(func=cmd_xi)

    p = sub.add_parser("density", help="exact B(n,k) statistics")
    for flag in ("--n", "--nmax", "--k", "--kmax"):
        p.add_argument(flag, type=int)
    p.add_argument("--genset", default="standard",
                   help="standard|symmetric|extended|custom:<words>")
    p.add_argument("--mode", choices=("enumerate", "dp", "both"), default="enumerate")
    p.add_argument("--boundary", choices=("auto", "always", "never"), default="auto",
                   help="compute exact outer boundary via the embedding")
    _add_common(p, "csv")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("theorem1", help="density of B' exceeds 3 (symmetric set)")
    p.add_argument("--kmax", type=int, default=256)
    p.add_argument("--tol", type=_tol, default=intervals.DEFAULT_TOL)
    _add_common(p, "json")
    p.set_defaults(func=cmd_theorem1)

    p = sub.add_parser("theorem2", help="doubling fails for the extended set")
    p.add_argument("--kmax", type=int, default=64)
    p.add_argument("--n-small", type=int, default=10, dest="n_small")
    p.add_argument("--tol", type=_tol, default=intervals.DEFAULT_TOL)
    _add_common(p, "json")
    p.set_defaults(func=cmd_theorem2)

    p = sub.add_parser("embed-verify", help="BFS embedding oracle")
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--list", action="store_true",
                   help="list the forest-to-element assignment (single n,k)")
    p.add_argument("--perturb", action="store_true",
                   help="negative control: break one action rule")
    _add_common(p, "json")
    p.set_defaults(func=cmd_embed_verify)

    p = sub.add_parser("enumerate", help="list B(n,k) in canonical order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p, "csv")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("isolated", help="exact count tables per (n,k)")
    for flag in ("--n", "--nmax", "--k", "--kmax"):
        p.add_argument(flag, type=int)
    p.add_argument("--mode", choices=("enumerate", "dp", "both"), default="enumerate")
    _add_common(p, "csv")
    p.set_defaults(func=cmd_isolated)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"fdensity: invalid configuration: {exc}", file=sys.stderr)
        return 3
    except OutputError as exc:
        print(f"fdensity: {exc}", file=sys.stderr)
        return 3
    except (CapExceeded, PrecisionExhausted) as exc:
        print(f"fdensity: not certified within budget: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"fdensity: internal invariant violated: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
