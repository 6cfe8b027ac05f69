"""The command-line interface: exit codes, schemas, determinism."""

import csv
import hashlib
import json
import pathlib
import re
import shlex
import time

import pytest

import fdensity
from fdensity import census, cli, forests, group, series


def run(argv, tmp_path, name="out"):
    path = tmp_path / name
    rc = cli.main(list(argv) + ["--out", str(path)])
    return rc, path.read_text() if path.exists() else ""


def test_group_verify_passes(tmp_path):
    rc, text = run(["group-verify", "--format", "csv"], tmp_path)
    assert rc == 0
    rows = list(csv.DictReader(text.splitlines()))
    assert all(r["status"] == "pass" for r in rows)
    assert any("beta^(alpha^3)" in r["relation"] for r in rows)


def test_group_verify_negative_control(tmp_path):
    rc, text = run(
        ["group-verify", "--inject-bad-relator", "--format", "csv"], tmp_path
    )
    assert rc == 2
    assert "FAIL" in text


def test_xi_csv_schema_and_values(tmp_path):
    rc, text = run(["xi", "--kmax", "2"], tmp_path)
    assert rc == 0
    header = text.splitlines()[0].split(",")
    assert header == [
        "k", "xi_lo", "xi_hi", "density_standard", "density_symmetric",
        "isolated_limit", "bprime_density", "doubling_ratio", "provenance",
    ]
    rows = list(csv.DictReader(text.splitlines()))
    assert [r["k"] for r in rows] == ["0", "1", "2"]
    assert rows[0]["xi_lo"] == "1.000000000000"
    assert rows[1]["xi_lo"].startswith("0.6180339887")
    assert rows[1]["density_standard"].startswith("2.7639320225")
    assert rows[0]["bprime_density"] == "NA"
    for r in rows:
        assert r["xi_lo"] <= r["xi_hi"]


def test_out_replaces_existing_file_whole(tmp_path, capsys):
    argv = ["density", "--n", "8", "--k", "3", "--mode", "dp"]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    path = tmp_path / "table.csv"
    path.write_text("stale\n" * 10_000)
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert path.read_text() == stdout
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_out_keeps_old_file_when_rename_fails(tmp_path, monkeypatch):
    path = tmp_path / "table.csv"
    path.write_text("old\n")

    def failing(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(cli.os, "replace", failing)
    argv = ["density", "--n", "8", "--k", "3", "--mode", "dp", "--out", str(path)]
    assert cli.main(argv) == 3
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


@pytest.mark.parametrize("target", ["missing/x.csv", "a_directory"])
def test_out_unwritable_exits_3(tmp_path, capsys, target):
    # A missing parent directory fails on the temp file, a directory as
    # target fails on the rename; both are one line on stderr and exit 3.
    (tmp_path / "a_directory").mkdir()
    out = tmp_path / target
    argv = ["density", "--n", "8", "--k", "3", "--mode", "dp", "--out", str(out)]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fdensity: cannot write --out {out}: " + (
        "No such file or directory\n" if target.startswith("missing")
        else "Is a directory\n"
    )
    assert "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a_directory"]


def test_pmap_pool_no_larger_than_items(monkeypatch):
    # A fake executor records the pool size; no process is started.
    import concurrent.futures

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    assert cli._pmap(abs, [-1, -2], 64) == [1, 2]
    assert cli._pmap(abs, [-1, -2, -3], 2) == [1, 2, 3]
    assert cli._pmap(abs, [-1], 64) == [1]
    assert sizes == [2, 2]


def test_density_csv_golden_row(tmp_path):
    rc, text = run(
        ["density", "--n", "2", "--k", "1", "--genset", "symmetric"], tmp_path
    )
    assert rc == 0
    (row,) = list(csv.DictReader(text.splitlines()))
    assert row["vertices"] == "3"
    assert row["density_num"] == "4" and row["density_den"] == "3"
    assert row["cheeger"] == "8"
    assert row["outer_boundary"] == "8"
    assert row["provenance"] == "[exact-enumeration]"


def test_density_mode_dp_skips_boundary(tmp_path):
    rc, text = run(
        ["density", "--n", "40", "--k", "2", "--mode", "dp", "--genset", "standard"],
        tmp_path,
    )
    assert rc == 0
    (row,) = list(csv.DictReader(text.splitlines()))
    assert row["outer_boundary"] == "NA"
    assert row["provenance"] == "[exact-dp]"


@pytest.mark.parametrize(
    "mode, trunc, walks, orders, genset",
    [
        ("enumerate", None, 1, [], "symmetric"),
        ("both", None, 1, [10], "symmetric"),
        ("both", 40, 1, [40], "symmetric"),
        ("dp", None, 0, [10], "symmetric"),
        ("dp", 40, 0, [40], "symmetric"),
        ("both", None, 1, [10], "custom:x0,x1,x2"),
    ],
    # The symmetric cases keep the ids pytest generates for four arguments.
    ids=[
        "enumerate-None-1-orders0",
        "both-None-1-orders1",
        "both-40-1-orders2",
        "dp-None-0-orders3",
        "dp-40-0-orders4",
        "custom-both-None-1-orders5",
    ],
)
def test_density_row_counts_once(monkeypatch, mode, trunc, walks, orders, genset):
    # One census per row: every column reads the same CensusCounts, and a
    # custom set's --mode both cross-checks the walk against the series too.
    walk, series = census._walk, census.count_series
    seen = {"walks": 0, "orders": []}

    def counting_walk(*args):
        seen["walks"] += 1
        return walk(*args)

    def counting_series(k, order):
        seen["orders"].append(order)
        return series(k, order)

    monkeypatch.setattr(census, "_walk", counting_walk)
    monkeypatch.setattr(census, "count_series", counting_series)
    row = cli._density_row((10, 3, genset, mode, census.DEFAULT_CAP, "never", trunc))
    assert row["vertices"] == 11932
    assert seen == {"walks": walks, "orders": orders}


def test_isolated_table_builds_one_series(monkeypatch, tmp_path):
    # Every row reads the series at the largest n.
    real = census.count_series
    orders = []

    def counting_series(k, order):
        orders.append((k, order))
        return real(k, order)

    monkeypatch.setattr(census, "count_series", counting_series)
    series.count_series.cache_clear()
    rc, text = run(["isolated", "--nmax", "30", "--k", "5", "--mode", "dp"], tmp_path)
    assert rc == 0 and len(text.splitlines()) == 31
    assert set(orders) == {(5, 30)}
    assert series.count_series.cache_info().misses == 1


def test_density_custom_row_embeds_once(monkeypatch, tmp_path):
    # One embedding, and one statistics pass for the statistics and the
    # boundary together.  x0 and x1 are action steps, so their four signed
    # generators multiply only the blocked elements (the standard set's
    # Cheeger count); x2 and x2^-1 multiply every element.
    real_embed, real_stats, real_multiply = (
        census.embed, census.stats_elements, census.multiply)
    calls = []
    seen = {"stats": 0, "multiply": 0, "embedding": False}

    def counting_embed(*args, **kwargs):
        calls.append(args[:2])
        seen["embedding"] = True
        try:
            return real_embed(*args, **kwargs)
        finally:
            seen["embedding"] = False

    def counting_stats(*args):
        seen["stats"] += 1
        return real_stats(*args)

    def counting_multiply(a, b):
        if not seen["embedding"]:
            seen["multiply"] += 1
        return real_multiply(a, b)

    monkeypatch.setattr(census, "embed", counting_embed)
    monkeypatch.setattr(census, "stats_elements", counting_stats)
    monkeypatch.setattr(census, "multiply", counting_multiply)
    argv = ["density", "--n", "4", "--k", "1", "--genset", "custom:x0,x1,x2"]
    rc, text = run(argv + ["--boundary", "always"], tmp_path)
    assert rc == 0
    assert calls == [(4, 1)]
    assert seen["stats"] == 1
    standard_blocked = census.census_counts(4, 1).stats(
        group.GenSetSpec.standard()).cheeger_total
    assert seen["multiply"] == standard_blocked + 2 * forests.count_bb(4, 1)
    (row,) = list(csv.DictReader(text.splitlines()))
    gs = group.by_name("custom:x0,x1,x2")
    assert row["outer_boundary"] == str(census.outer_boundary_exact(4, 1, gs))


def test_large_n_refused_by_cap(capsys):
    # |B(1000, 3)| is counted before the cap check, with no recursion limit.
    assert cli.main(["density", "--n", "1000", "--k", "3", "--boundary", "never"]) == 2
    assert "exceeds enumeration cap" in capsys.readouterr().err
    # The exact |B(1000, 1000)| takes O(n^3) steps; B(1000, 2), a subset
    # already over the cap, refuses it first.
    t0 = time.monotonic()
    argv = ["density", "--n", "1000", "--k", "1000", "--boundary", "never"]
    assert cli.main(argv) == 2
    assert time.monotonic() - t0 < 10
    assert "exceeds enumeration cap" in capsys.readouterr().err


def test_density_custom_genset(tmp_path):
    rc, text = run(
        ["density", "--n", "4", "--k", "1", "--genset", "custom:x0,x1,x2"], tmp_path
    )
    assert rc == 0
    (row,) = list(csv.DictReader(text.splitlines()))
    assert row["density_num"] == "12" and row["density_den"] == "5"


def test_isolated_table(tmp_path):
    rc, text = run(["isolated", "--nmax", "5", "--k", "1", "--mode", "both"], tmp_path)
    assert rc == 0
    rows = list(csv.DictReader(text.splitlines()))
    assert [r["beta"] for r in rows] == ["1", "3", "7", "15", "30"]
    assert [r["isolated"] for r in rows] == ["1", "0", "2", "2", "5"]
    assert rows[0]["provenance"] == "[exact-enumeration] [exact-dp]"


def test_isolated_large_k_matches_saturated_k(tmp_path):
    # B(20, k) is the same set for every k >= 19, and building Phi_1500
    # needs no recursion 1500 deep.
    base = ["isolated", "--n", "20", "--mode", "dp"]
    rc, deep = run(base + ["--k", "1500"], tmp_path, "deep")
    assert rc == 0
    _, flat = run(base + ["--k", "19"], tmp_path, "flat")
    ((deep_row,), (flat_row,)) = (
        list(csv.DictReader(t.splitlines())) for t in (deep, flat))
    assert deep_row.pop("k") == "1500" and flat_row.pop("k") == "19"
    assert deep_row == flat_row


def test_enumerate_listing(tmp_path):
    rc, text = run(["enumerate", "--n", "3", "--k", "1"], tmp_path)
    assert rc == 0
    rows = list(csv.DictReader(text.splitlines()))
    assert len(rows) == 7
    assert rows[0]["forest"] == "(..) *."
    assert sum(r["isolated"] == "yes" for r in rows) == 2


def test_theorem1_meta(tmp_path):
    rc, text = run(["theorem1", "--kmax", "48"], tmp_path)
    assert rc == 0
    payload = json.loads(text)
    assert payload["meta"]["first_k_bprime_above_3"] == 48
    assert payload["meta"]["swap_bound_certified_all_k"] is True
    assert "threads" not in payload["meta"]["config"]


def test_theorem1_no_witness_exit(tmp_path):
    rc, _ = run(["theorem1", "--kmax", "10"], tmp_path)
    assert rc == 2


def test_theorem2_meta(tmp_path):
    rc, text = run(["theorem2", "--kmax", "8", "--n-small", "5"], tmp_path)
    assert rc == 0
    payload = json.loads(text)
    assert payload["meta"]["first_k_three_xi_below_1"] == 6
    assert payload["meta"]["boundary_checks_pass"] is True


def test_embed_verify_and_controls(tmp_path):
    rc, text = run(["embed-verify", "--nmax", "4", "--kmax", "2"], tmp_path)
    assert rc == 0
    payload = json.loads(text)
    assert all(r["status"] == "consistent+injective" for r in payload["rows"])
    rc, text = run(["embed-verify", "--perturb"], tmp_path, "pert.json")
    assert rc == 0
    assert "broken as expected" in text


def test_embed_verify_lone_index_fixes_it(tmp_path):
    def pairs(argv):
        rc, text = run(["embed-verify", "--format", "csv"] + argv, tmp_path)
        assert rc == 0
        return [(int(r["n"]), int(r["k"])) for r in csv.DictReader(text.splitlines())]

    assert pairs(["--n", "3"]) == [(3, 0), (3, 1), (3, 2), (3, 3)]
    assert pairs(["--k", "1", "--nmax", "4"]) == [(1, 1), (2, 1), (3, 1), (4, 1)]


def test_embed_verify_list_requires_single_case(tmp_path):
    rc, _ = run(["embed-verify", "--list"], tmp_path)
    assert rc == 3
    rc, _ = run(["embed-verify", "--n", "3", "--list"], tmp_path)
    assert rc == 3
    rc, text = run(
        ["embed-verify", "--n", "2", "--k", "1", "--list", "--format", "csv"], tmp_path
    )
    assert rc == 0
    assert "*(..)" in text and "X1" in text


def test_embed_verify_list_embeds_once(monkeypatch, tmp_path):
    rc, before = run(["embed-verify", "--n", "3", "--k", "1", "--list"], tmp_path, "a")
    real_embed = census.embed
    calls = []

    def counting_embed(*args, **kwargs):
        calls.append(args[:2])
        return real_embed(*args, **kwargs)

    monkeypatch.setattr(census, "embed", counting_embed)
    rc2, after = run(["embed-verify", "--n", "3", "--k", "1", "--list"], tmp_path, "b")
    assert rc == rc2 == 0
    assert calls == [(3, 1)]
    assert after == before


# sha256 of the stdout of `embed-verify --n 4 --k 2 --list`, per format.
LIST_SHA256 = {
    "csv": "f04925afaf076886115e68bbe1f3a632653868ece4fd30a7ca90ae11e7e577ea",
    "json": "0ae01ae7b67bde8c5cc74a3a20dc448b68baf69935f172a3efb87103355400d2",
}


# sha256 of the stdout of `embed-verify --perturb`, per format: the
# EmbeddingError message names the same edge, forests and elements.
PERTURB_SHA256 = {
    "csv": "ad790e8c213d0db7839f5ee0065b35d048b94a7c0e4019a7e66be2b76f2291b3",
    "json": "f4450391e5fe94cf51c5983681c1a60596d7b50ef4c2a2fb9226a32c947c5065",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_embed_verify_perturb_bytes_pinned(capsys, fmt):
    assert cli.main(["embed-verify", "--perturb", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PERTURB_SHA256[fmt]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_embed_verify_list_bytes_pinned(capsys, fmt):
    argv = ["embed-verify", "--n", "4", "--k", "2", "--list", "--format", fmt]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LIST_SHA256[fmt]
    if fmt == "csv":
        rows = list(csv.DictReader(out.splitlines()))
    else:
        rows = json.loads(out)["rows"]
    listed = [r["forest"] for r in rows[1:]]
    assert len(listed) == forests.count_bb(4, 2)
    assert listed == sorted(listed)


def test_exit_codes(capsys):
    assert cli.main(["density", "--k", "1"]) == 3  # missing --n/--nmax
    assert cli.main(["density", "--n", "2", "--nmax", "3", "--k", "1"]) == 3
    assert cli.main(["enumerate", "--n", "20", "--k", "6", "--cap", "10"]) == 2
    assert cli.main(["nonsense"]) == 3
    assert cli.main(["density", "--n", "2", "--k", "1", "--genset", "custom:"]) == 3
    capsys.readouterr()
    for argv in (["theorem1"], ["theorem2"]):
        assert cli.main(argv + ["--kmax", "0"]) == 3
        assert "--kmax must be at least 1" in capsys.readouterr().err
    # embed-verify's default ranges follow the same rule as density's.
    for flag, value, low in (("--kmax", "-1", 0), ("--nmax", "0", 1)):
        assert cli.main(["embed-verify", flag, value]) == 3
        assert f"{flag} must be at least {low}" in capsys.readouterr().err
    assert cli.main(["density", "--nmax", "0", "--k", "1"]) == 3
    assert "--nmax must be at least 1" in capsys.readouterr().err
    # The series order is the table's largest n; no option sets it.
    assert cli.main(["density", "--n", "6", "--k", "2", "--trunc", "40"]) == 3
    argv = ["isolated", "--n", "6", "--k", "2", "--mode", "dp", "--trunc", "40"]
    assert cli.main(argv) == 3
    capsys.readouterr()
    for argv in (["density", "--n", "5"], ["isolated", "--n", "5"], ["xi"]):
        assert cli.main(argv + ["--kmax", "-1"]) == 3
        assert "--kmax must be at least 0" in capsys.readouterr().err
    # At tol 1 the enclosure of p_inf is too wide to bound 1 - p_inf away
    # from 0, so B' density cannot be certified.
    for argv in (["theorem1"], ["xi"]):
        assert cli.main(argv + ["--kmax", "3", "--tol", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not bounded away from 0" in err


def test_unclassified_fault_exits_4(monkeypatch, capsys):
    def broken(*args):
        raise KeyError("x")

    monkeypatch.setattr(census, "census_counts", broken)
    assert cli.main(["density", "--n", "5", "--k", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fdensity: internal invariant violated: KeyError('x')\n"


def test_readme_commands_parse():
    # Every `fdensity ...` line of the README's code blocks names only
    # subcommands and flags the parser accepts; nothing is run.
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", readme, re.S | re.M)
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("fdensity ")]
    assert len(lines) >= 7
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_package_exports_resolve():
    # A name deleted from a module but left in __all__ fails here, not
    # only at `from fdensity import *`.
    names = fdensity.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(fdensity, n)] == []


def test_thread_count_does_not_change_bytes(tmp_path):
    invocations = [
        ["xi", "--kmax", "6"],
        ["isolated", "--nmax", "6", "--kmax", "2", "--format", "json"],
        ["density", "--nmax", "5", "--kmax", "1", "--genset", "extended"],
    ]
    for i, argv in enumerate(invocations):
        _, a = run(argv + ["--threads", "1"], tmp_path, f"a{i}")
        _, b = run(argv + ["--threads", "2"], tmp_path, f"b{i}")
        assert a == b and a


def test_json_meta_shape(tmp_path):
    rc, text = run(["xi", "--kmax", "1", "--format", "json"], tmp_path)
    assert rc == 0
    payload = json.loads(text)
    assert set(payload) == {"meta", "rows"}
    meta = payload["meta"]
    assert meta["command"] == "xi"
    assert meta["version"]
    assert meta["config"]["kmax"] == 1
    assert "out" not in meta["config"] and "threads" not in meta["config"]
