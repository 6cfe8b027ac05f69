"""Command-line front end: every table and claim as deterministic CSV/JSON.

Subcommands: group-verify, xi, density, theorem1, theorem2, embed-verify,
enumerate, isolated.  Exit codes: 0 success / claims certified; 2 a claim
could not be certified within budget; 3 invalid configuration (a
UsageError, raised here for every bad input) or an unwritable --out; 4
any other (internal) fault, reported in one stderr line without a
traceback.

Every command runs in one process: a table's rows are built in input
order by a plain loop, so they share the census, series and interval
caches.  --threads is still accepted (at least 1) but selects nothing,
and it is never echoed into the output.  Rationals are printed as exact
numerator/denominator columns plus decimal strings (12 places; interval
endpoints are rounded outward, other values half-up).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

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
    """The command line asks for something invalid (exit 3)."""


class OutputError(Exception):
    """--out could not be written."""


def _decimal(x: Fraction, mode: str = "nearest") -> str:
    """Exact decimal string; 'floor'/'ceil' for outward interval endpoints."""
    q = Fraction(x) * 10**DECIMAL_PLACES
    n, d = q.numerator, q.denominator
    if mode == "floor":
        v = n // d
    elif mode == "ceil":
        v = -((-n) // d)
    else:
        v = (2 * n + d) // (2 * d)
    sign = "-" if v < 0 else ""
    digits = str(abs(v)).zfill(DECIMAL_PLACES + 1)
    return f"{sign}{digits[:-DECIMAL_PLACES]}.{digits[-DECIMAL_PLACES:]}"


def _iv_cols(iv: intervals.CertifiedInterval, name: str) -> dict[str, str]:
    return {
        f"{name}_lo": _decimal(iv.lo, mode="floor"),
        f"{name}_hi": _decimal(iv.hi, mode="ceil"),
    }


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
    if args.mn < 1:
        raise UsageError("--mn must be at least 1")
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


def _xi_row(k: int, tol: Fraction) -> dict:
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
    rows = [_xi_row(k, args.tol) for k in _range_from(None, args.kmax, "k")]
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
    "n", "k", "genset", "vertices", "degree_sum", "density_num", "density_den",
    "density", "cheeger", "outer_boundary", "isolated", "bprime_density_num",
    "bprime_density_den", "doubling_upper_bound", "provenance",
]


def _density_row(
    n: int, k: int, genset: group.GenSetSpec, args: argparse.Namespace, order: int
) -> dict:
    """One row of the density table; args gives --genset's name, --mode,
    --boundary and --cap, which only a custom set's embedding reads."""
    mode = args.mode
    # A custom set is read on the embedded image, whose n <= 12 refusal
    # comes before the census' own input checks.
    emb = census.embed(n, k, cap=args.cap) if genset.name == "custom" else None
    counts = census.census_counts(n, k, mode, order)
    if emb is None:
        st, prov = counts.stats(genset), _PROVENANCE[mode]
    else:
        # The statistics are enumerated on the image; the isolated, B' and
        # doubling columns come from (or are checked against) the series
        # unless the mode is enumerate.
        st = census.stats_elements(emb.image(), genset)
        prov = _PROVENANCE["enumerate" if mode == "enumerate" else "both"]
    row = {
        "n": n,
        "k": k,
        "genset": args.genset,
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
    if args.boundary == "always" or (
        args.boundary == "auto" and n <= 10 and mode != "dp"
    ):
        row["outer_boundary"] = st.outer_boundary
    return row


def cmd_density(args: argparse.Namespace) -> int:
    try:
        genset = group.by_name(args.genset)
    except ValueError as exc:
        raise UsageError(f"bad --genset {args.genset!r}: {exc}") from None
    pairs, order = _grid(args)
    rows = [_density_row(n, k, genset, args, order) for n, k in pairs]
    _emit(args, "density", rows, DENSITY_COLUMNS)
    return 0


def _index(value: int, flag: str) -> int:
    """The value of an n flag (at least 1) or a k flag (at least 0)."""
    low = 1 if flag.startswith("--n") else 0
    if value < low:
        raise UsageError(f"{flag} must be at least {low}")
    return value


def _range_from(single: Optional[int], upto: Optional[int], name: str) -> list[int]:
    """[--<name>] or the range up to --<name>max (n from 1, k from 0)."""
    if single is not None and upto is not None:
        raise UsageError(f"--{name} and --{name}max are mutually exclusive")
    if single is not None:
        return [_index(single, f"--{name}")]
    if upto is None:
        raise UsageError(f"one of --{name} / --{name}max is required")
    return list(range(1 if name == "n" else 0, _index(upto, f"--{name}max") + 1))


def _grid(args: argparse.Namespace) -> tuple[list[tuple[int, int]], int]:
    """The (n, k) pairs of a density or isolated table, and its order.  Every
    row reads the dp series and the census walk at the table's largest n,
    so each k builds its series once and walks once (the coefficients do
    not depend on the order, and the walk tallies every smaller n on the
    way).  That walk is bounded by its own cost, not by --cap: if
    census.WALK_WORK_CAP refuses the largest n, the table's first
    enumerated row is refused, before any walk."""
    ns = _range_from(args.n, args.nmax, "n")
    ks = _range_from(args.k, args.kmax, "k")
    return [(n, k) for n in ns for k in ks], max(ns)


# ---------------------------------------------------------------------------
# theorem1


def _cube_quarter(lf: intervals.LimitFractions) -> intervals.CertifiedInterval:
    return lf.xi * lf.xi * lf.xi * Fraction(1, 4)


def _theorem1_row(k: int, lf: intervals.LimitFractions) -> dict:
    cube_quarter = _cube_quarter(lf)
    row = {"k": k, "provenance": f"{TAG_INTERVAL} {TAG_LIMIT}"}
    row.update(_iv_cols(lf.xi, "xi"))
    row.update(_iv_cols(lf.isolated_fraction, "p_inf"))
    row.update(_iv_cols(lf.bprime_density, "bprime_density"))
    row.update(_iv_cols(cube_quarter, "xi_cubed_over_4"))
    row["p_inf_ge_xi3_over_4"] = (
        "certified" if lf.isolated_fraction.lo >= cube_quarter.hi else "UNDECIDED"
    )
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
    ks = range(1, args.kmax + 1)
    limits = {k: intervals.limit_fractions(k, args.tol) for k in ks}
    rows = [_theorem1_row(k, lf) for k, lf in limits.items()]
    bprime_lo = {k: lf.bprime_density.lo for k, lf in limits.items()}
    first_witness = next((k for k, lo in bprime_lo.items() if lo > 3), None)
    sup_k = max(bprime_lo, key=bprime_lo.get)
    swap_ok = all(r["p_inf_ge_xi3_over_4"] == "certified" for r in rows)
    cube_gap = abs(_cube_quarter(limits[args.kmax]).mid - Fraction(1, 256))
    _emit(
        args,
        "theorem1",
        rows,
        THEOREM1_COLUMNS,
        first_k_bprime_above_3=first_witness,
        sup_bprime_lo=_decimal(bprime_lo[sup_k], mode="floor"),
        sup_at_k=sup_k,
        sup_exceeds_3_011=bool(bprime_lo[sup_k] > Fraction(3011, 1000)),
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


def _theorem2_row(k: int, tol: Fraction) -> dict:
    x = intervals.xi(k, tol)
    t = 3 * x
    row = {"k": k, "provenance": f"{TAG_INTERVAL} {TAG_LIMIT}"}
    row.update(_iv_cols(t, "three_xi"))
    row.update(_iv_cols(1 + t, "one_plus_three_xi"))
    row["below_1"] = "certified" if t.hi < 1 else "no"
    return row


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
    if args.n_small < 1:
        raise UsageError("--n-small must be at least 1")
    rows = [_theorem2_row(k, args.tol) for k in range(1, args.kmax + 1)]
    k0 = next((r["k"] for r in rows if r["below_1"] == "certified"), None)
    tail_ok = k0 is not None and all(
        r["below_1"] == "certified" for r in rows if r["k"] >= k0
    )
    # Each check row reads the one walk to --n-small per k, as in _grid, all
    # before the one embedding, which alone reads --cap.
    kmax = min(3, args.kmax)
    bounds = {
        (n, k): census.census_counts(n, k, trunc=args.n_small).doubling_bound()
        for n in range(1, args.n_small + 1)
        for k in range(kmax + 1)
    }
    outer = census.outer_boundary_grid(
        args.n_small, kmax, group.GenSetSpec.extended(), cap=args.cap
    )
    check_rows = [
        {"n": n, "k": k, "outer_boundary": outer[n, k], "upper_bound": bound,
         "within_bound": "yes" if outer[n, k] <= bound else "NO",
         "provenance": TAG_ENUM}
        for (n, k), bound in bounds.items()
    ]
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


def _embed_summary(emb: census.Embedding) -> dict:
    return {
        "n": emb.n,
        "k": emb.k,
        "forests": len(emb.flat),
        "distinct_elements": len(emb.image()),
        "status": "consistent+injective",
        "provenance": TAG_ENUM,
    }


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
        n, k = _index(args.n, "--n"), _index(args.k, "--k")
        emb = census.embed(n, k, cap=args.cap)
        rows = [_embed_summary(emb)] + [
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
    ns = _range_from(args.n, args.nmax if args.n is None else None, "n")
    ks = _range_from(args.k, args.kmax if args.k is None else None, "k")
    rows = [_embed_summary(census.embed(n, k, cap=args.cap)) for n in ns for k in ks]
    _emit(args, "embed-verify", rows, EMBED_COLUMNS)
    return 0


# ---------------------------------------------------------------------------
# enumerate / isolated


def cmd_enumerate(args: argparse.Namespace) -> int:
    k = _index(args.k, "--k")
    items = forests.enumerate_bb(_index(args.n, "--n"), k, cap=args.cap)
    rows = [
        {
            "index": i,
            "forest": forests.encode_forest(f),
            "isolated": "yes" if forests.is_isolated(f, k) else "no",
            "provenance": TAG_ENUM,
        }
        for i, f in enumerate(items)
    ]
    columns = ["index", "forest", "isolated", "provenance"]
    _emit(args, "enumerate", rows, columns, count=len(items))
    return 0


def _isolated_row(n: int, k: int, args: argparse.Namespace, order: int) -> dict:
    counts = census.census_counts(n, k, args.mode, order)
    return {
        "n": n,
        "k": k,
        "beta": counts.total,
        "trivial_marked": counts.trivial,
        "x1inv_blocked": counts.trivial,
        "isolated": counts.isolated,
        "provenance": _PROVENANCE[args.mode],
    }


def cmd_isolated(args: argparse.Namespace) -> int:
    pairs, order = _grid(args)
    rows = [_isolated_row(n, k, args, order) for n, k in pairs]
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
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility (at least 1); selects "
                   "nothing, every command runs in one process")
    p.add_argument("--cap", type=int, default=census.DEFAULT_CAP,
                   help="most forests an embedding or enumerate visits; "
                   "named-set density rows and the census walk visit none")


def _tol(text: str) -> Fraction:
    # argparse keeps an ArgumentTypeError's message in the UsageError its
    # parser raises; any other error here it reports by the value alone.
    try:
        tol = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}: {exc}") from None
    if tol <= 0:
        raise argparse.ArgumentTypeError(f"tolerance {text!r} is not positive")
    return tol


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
                   help="fill the outer-boundary column (auto: n <= 10, not dp)")
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
        # Every subcommand has --threads and --cap (_add_common).
        if args.threads < 1:
            raise UsageError("--threads must be at least 1")
        if args.cap < 1:
            raise UsageError("--cap must be at least 1")
        return args.func(args)
    except UsageError as exc:
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
