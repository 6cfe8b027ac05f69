"""The command-line interface: exit codes, schemas, determinism."""

import argparse
import ast
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
from fdensity.errors import CapExceeded

import oracles


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


ONE_PROCESS_COMMANDS = [
    ["xi", "--kmax", "6"],
    ["isolated", "--nmax", "6", "--kmax", "2"],
    ["density", "--nmax", "5", "--kmax", "1", "--genset", "extended"],
    ["density", "--nmax", "3", "--k", "1", "--genset", "custom:x0,x1,x2"],
    ["theorem1", "--kmax", "50"],
    ["theorem2", "--kmax", "8", "--n-small", "5"],
    ["embed-verify", "--nmax", "4", "--kmax", "2"],
]


@pytest.mark.parametrize("argv", ONE_PROCESS_COMMANDS, ids=lambda a: " ".join(a))
def test_no_subcommand_starts_a_process(monkeypatch, capsys, argv):
    # Every command runs in one process, so --threads 2 exits and prints
    # as --threads 1 does even when no process can be started.
    import concurrent.futures
    import multiprocessing.process

    def refuse(*args, **kwargs):
        raise RuntimeError("a subcommand tried to start a process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    # multiprocessing.Process and the pool's worker classes all start
    # through BaseProcess.start.
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    results = []
    for threads in ("1", "2"):
        rc = cli.main(argv + ["--threads", threads])
        results.append((rc, capsys.readouterr()))
    (rc1, one), (rc2, two) = results
    assert rc1 == rc2 == 0, one.err + two.err
    assert (one.out, one.err) == (two.out, two.err)


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
        ("both", 12, 1, [12], "symmetric"),
        ("dp", None, 0, [10], "symmetric"),
        ("dp", 40, 0, [40], "symmetric"),
        ("both", None, 1, [10], "custom:x0,x1,x2"),
    ],
    # The symmetric cases keep the ids pytest generates for four arguments.
    ids=[
        "enumerate-None-1-orders0",
        "both-None-1-orders1",
        "both-12-1-orders2",
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
    census._walked.cache_clear()
    args = argparse.Namespace(
        genset=genset, mode=mode, cap=census.DEFAULT_CAP, boundary="never"
    )
    row = cli._density_row(10, 3, group.by_name(genset), args, trunc)
    assert row["vertices"] == 11932
    assert seen == {"walks": walks, "orders": orders}


def test_walk_depth_over_cap_is_refused(monkeypatch):
    # The walk bound reads the walk's depth, trunc, not n: one under
    # 40^2 * 3 refuses the walk to 40 before it runs, though the work at
    # n = 10 is far within it.
    depths = _record_walks(monkeypatch)
    monkeypatch.setattr(census, "WALK_WORK_CAP", 40 * 40 * 3 - 1)
    with pytest.raises(CapExceeded) as refused:
        census.census_counts(10, 3, "both", 40)
    assert str(refused.value) == (
        "census walk to depth 40 at k = 3: depth^2 max(1, min(k, depth)) = "
        "4800 exceeds walk bound 4799"
    )
    assert depths == []


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


def _record_walks(monkeypatch):
    """The (depth, k) of every walk from an empty walk cache on."""
    real = census._walk
    depths = []

    def counting_walk(n, k):
        depths.append((n, k))
        return real(n, k)

    monkeypatch.setattr(census, "_walk", counting_walk)
    census._walked.cache_clear()
    return depths


def test_density_table_walks_once(monkeypatch, capsys):
    # Every row reads the one walk to the table's largest n.
    depths = _record_walks(monkeypatch)
    argv = ["density", "--nmax", "10", "--k", "3", "--mode", "both",
            "--boundary", "never"]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 11
    assert depths == [(10, 3)]


def test_walk_depth_stays_within_cap(monkeypatch, capsys):
    # --cap bounds only what visits forests: far below |B(9,3)| = 4512, it
    # leaves the walk and the table's bytes as they are.
    argv = ["density", "--nmax", "9", "--k", "3", "--mode", "both",
            "--boundary", "never"]
    assert cli.main(argv) == 0
    table = capsys.readouterr().out
    depths = _record_walks(monkeypatch)
    assert cli.main(argv + ["--cap", "2000"]) == 0
    assert depths == [(9, 3)]
    assert capsys.readouterr().out == table


@pytest.mark.parametrize("bound, rc, walks", [(243, 0, [(9, 3)]), (242, 2, [])])
def test_walk_bound_refuses_the_table(monkeypatch, capsys, bound, rc, walks):
    # 9^2 * 3 = 243: at that bound the table walks once, to n = 9; one
    # below it, the table is refused on its first row, with no walk and
    # the table unwritten.
    depths = _record_walks(monkeypatch)
    monkeypatch.setattr(census, "WALK_WORK_CAP", bound)
    argv = ["density", "--nmax", "9", "--k", "3", "--mode", "both",
            "--boundary", "never"]
    assert cli.main(argv) == rc
    assert depths == walks
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == (10 if rc == 0 else 0)
    assert captured.err == ("" if rc == 0 else (
        "fdensity: not certified within budget: census walk to depth 9 at "
        "k = 3: depth^2 max(1, min(k, depth)) = 243 exceeds walk bound 242\n"
    ))


def test_table_over_default_cap_refused_before_walk(monkeypatch, capsys):
    # 512^2 * 200 is over the default walk bound: the table is refused on
    # its first row, before the walk and its tree counts, whose
    # O(n^2 min(k, n)) products the depth alone does not bound.
    depths = _record_walks(monkeypatch)
    forests.count_trees.cache_clear()
    t0 = time.monotonic()
    argv = ["density", "--nmax", "512", "--k", "200", "--mode", "both",
            "--boundary", "never"]
    assert cli.main(argv) == 2
    assert time.monotonic() - t0 < 1
    assert depths == [] and forests.count_trees.cache_info().currsize == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "fdensity: not certified within budget: census walk to depth 512 at "
        "k = 200: depth^2 max(1, min(k, depth)) = 52428800 exceeds walk "
        "bound 30000000\n"
    )


def test_table_over_enumeration_cap_walks_once(monkeypatch, capsys):
    # |B(21,4)| is far over --cap, which does not bound the walk: every
    # row reads the one walk to 21.
    depths = _record_walks(monkeypatch)
    argv = ["density", "--nmax", "21", "--k", "4", "--mode", "both",
            "--boundary", "never"]
    assert cli.main(argv) == 0
    assert depths == [(21, 4)]
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["n"] for r in rows] == [str(n) for n in range(1, 22)]
    assert rows[-1]["vertices"] == "1953042636"


def test_density_table_builds_one_recursion_table_per_k(monkeypatch, capsys):
    # Every row's recursion check reads slot n of the one _seq_counts
    # table to the table's largest n, as it reads the one walk.
    real = census._seq_counts
    calls = []
    monkeypatch.setattr(
        census, "_seq_counts", lambda n, k: calls.append((n, k)) or real(n, k)
    )
    real.cache_clear()
    argv = ["density", "--nmax", "10", "--kmax", "2", "--mode", "both",
            "--boundary", "never"]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 31
    assert len(calls) == 30 and set(calls) == {(10, 0), (10, 1), (10, 2)}
    assert real.cache_info().misses == 3


# |B(n, 10)| and its doubling bound 3 trivial + 3 edge, extended set.
_THEOREM2_WITNESS = {
    312: (
        "1263437874912190911015253387606809130901929908915352313553079107297149"
        "0194033089197039423640187829153352663499132284582295948949575299299006"
        "0472924440563148377616112544",
        "1263068821558789663169765945193811844234164604510261322580176215716146"
        "4265460802334462905387386747848361413573828124962346924399980099249591"
        "3740455922746143285134828032",
    ),
    311: (
        "3682453426285616091415262770035132744569206907875626154160560185795159"
        "7548929721427377890390019289515215097499497415355304633720300356091815"
        "091701322404543285698489816",
        "3682774562820761797213574832563228566300887038900326263257150775754817"
        "5851101907951022875220329505565895515545749270791146821734673874261378"
        "522489459927716826367355696",
    ),
}


@pytest.mark.parametrize("n", [312, 311])
def test_theorem2_witness_through_both_routes(capsys, n):
    # The walk and the series agree on B(312, 10), the first n at k = 10
    # where the doubling bound on #dY is below |Y|; at 311 it is above.
    argv = ["density", "--n", str(n), "--k", "10", "--genset", "extended",
            "--mode", "both", "--boundary", "never"]
    assert cli.main(argv) == 0
    (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
    assert (row["vertices"], row["doubling_upper_bound"]) == _THEOREM2_WITNESS[n]
    assert row["provenance"] == "[exact-enumeration] [exact-dp]"
    below = int(row["doubling_upper_bound"]) < int(row["vertices"])
    assert below == (n == 312)


@pytest.mark.parametrize(
    "mode, provenance",
    [
        ("enumerate", "[exact-enumeration]"),
        ("dp", "[exact-enumeration] [exact-dp]"),
        ("both", "[exact-enumeration] [exact-dp]"),
    ],
)
def test_custom_row_provenance(tmp_path, mode, provenance):
    # A custom set's statistics are enumerated on the embedded image; its
    # isolated, B' and doubling columns come from the chosen route.
    rc, text = run(["density", "--n", "4", "--k", "2", "--genset", "custom:x0,x1",
                    "--mode", mode, "--boundary", "never"], tmp_path)
    assert rc == 0
    (row,) = csv.DictReader(text.splitlines())
    assert row["provenance"] == provenance


def test_density_custom_row_embeds_once(monkeypatch, tmp_path):
    # One embedding, and one statistics pass for the statistics and the
    # boundary together.  The pass multiplies every element by each of the
    # six signed generators, action steps (x0, x1) or not (x2).
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
    assert seen["multiply"] == 6 * forests.count_bb(4, 1)
    (row,) = list(csv.DictReader(text.splitlines()))
    gs = group.by_name("custom:x0,x1,x2")
    assert row["outer_boundary"] == str(census.outer_boundary_exact(4, 1, gs))


@pytest.mark.parametrize("genset", ["standard", "symmetric", "extended"])
def test_named_density_rows_never_embed(monkeypatch, capsys, genset):
    # A named set's outer boundary is read from the census tallies: with
    # the embedding and the element-model boundary disabled, the column
    # still equals the element model's #dY.
    gs = group.by_name(genset)
    exact = {
        (str(n), str(k)): str(census.outer_boundary_exact(n, k, gs))
        for n in range(1, 11)
        for k in range(4)
    }

    def refuse(*args, **kwargs):
        raise AssertionError("a named-set row embedded")

    monkeypatch.setattr(census, "embed", refuse)
    monkeypatch.setattr(census, "outer_boundary_exact", refuse)
    argv = ["density", "--nmax", "10", "--kmax", "3", "--mode", "both",
            "--boundary", "always", "--genset", genset]
    assert cli.main(argv) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert {(r["n"], r["k"]): r["outer_boundary"] for r in rows} == exact


@pytest.mark.parametrize(
    "argv",
    [["--n", "13", "--k", "3", "--boundary", "always"],
     ["--n", "10", "--k", "3", "--cap", "100"]],
    ids=["past-embed-n-cap", "past-cap"],
)
def test_named_boundary_needs_no_embedding(capsys, argv):
    # A named set's row reads #dY from the tallies, so neither the
    # embedding's n <= 12 nor --cap 100 (|B(10, 3)| = 11932) refuses it; a
    # custom set's row embeds and is refused.
    c = census.census_counts(int(argv[1]), int(argv[3]))
    for genset, formula in oracles.BOUNDARY_FORMULAS.items():
        assert cli.main(["density", "--genset", genset] + argv) == 0
        (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
        assert row["outer_boundary"] == str(formula(c))
    assert cli.main(["density", "--genset", "custom:x0,x1"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fdensity: not certified within budget: ")


def test_large_n_refused_by_cap(capsys):
    # |B(1000, 3)| is over the enumeration cap, which bounds enumerate.
    assert cli.main(["enumerate", "--n", "1000", "--k", "3"]) == 2
    assert "exceeds enumeration cap" in capsys.readouterr().err
    # The walk's table to B(1000, 1000) takes O(n^3) products; its work,
    # over the walk bound, refuses it at once.
    t0 = time.monotonic()
    argv = ["density", "--n", "1000", "--k", "1000", "--boundary", "never"]
    assert cli.main(argv) == 2
    assert time.monotonic() - t0 < 1
    assert capsys.readouterr().err == (
        "fdensity: not certified within budget: census walk to depth 1000 at "
        "k = 1000: depth^2 max(1, min(k, depth)) = 1000000000 exceeds walk "
        "bound 30000000\n"
    )


def test_cap_refuses_from_bb2_without_exact_count(monkeypatch, capsys):
    # |B(600, 2)| is already over the default cap, and the exact
    # |B(600, 24)| costs n^2 min(k, n) steps, so it is never counted.
    asked = []
    real = forests._seq_counts

    def recording(n, k):
        asked.append((n, k))
        return real(n, k)

    monkeypatch.setattr(forests, "_seq_counts", recording)
    assert cli.main(["enumerate", "--n", "600", "--k", "24"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "|B(600,24)| >= |B(600,2)| = " in err
    assert (600, 2) in asked and (600, 24) not in asked


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


def test_theorem2_checks_walk_once_per_k(monkeypatch, tmp_path):
    # The check rows of each k read one walk to --n-small.
    depths = _record_walks(monkeypatch)
    rc, _ = run(["theorem2", "--kmax", "8", "--n-small", "5"], tmp_path)
    assert rc == 0
    assert depths == [(5, 0), (5, 1), (5, 2), (5, 3)]


def test_theorem2_embeds_once(monkeypatch, tmp_path):
    # Every check row reads one embedding at (--n-small, min(3, --kmax)).
    embeds, exact = [], []
    real_embed = census.embed

    def counting_embed(*args, **kwargs):
        embeds.append(args[:2])
        return real_embed(*args, **kwargs)

    monkeypatch.setattr(census, "embed", counting_embed)
    monkeypatch.setattr(
        census, "outer_boundary_exact", lambda *args, **kwargs: exact.append(args)
    )
    rc, _ = run(["theorem2", "--kmax", "8", "--n-small", "5"], tmp_path)
    assert rc == 0
    assert embeds == [(5, 3)]
    assert exact == []


def test_theorem2_refuses_n_small_over_embed_cap_before_multiplying(
    monkeypatch, capsys
):
    products = []
    real_multiply = census.multiply
    monkeypatch.setattr(
        census, "multiply", lambda a, b: products.append(b) or real_multiply(a, b)
    )
    assert cli.main(["theorem2", "--kmax", "8", "--n-small", "13"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "fdensity: not certified within budget: "
        "embed supports n <= 12 (got n = 13)\n"
    )
    assert products == []


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


# sha256 of the stdout of `enumerate --n N --k K`, per format: 1688 rows at
# (8, 3), and at (6, 0) six rows, every one isolated.
ENUMERATE_SHA256 = {
    (8, 3, "csv"): "3ee5f345e06cc18eeec758ee2957b59410606a6285a417a0ae599d1758a9aad0",
    (8, 3, "json"): "4cf7cb78f710a30dc1fa6d4bed35eb687bb3075dcba190ec60f8a063bedc9a21",
    (6, 0, "csv"): "02e4d1c80abd249fb4748527add1c295cd76195cbb7992349e53d24b906f3c8b",
    (6, 0, "json"): "2fb9e62ed7a4cb7486a54eaf033c95f994cf426770dae5d95602e50dd0d8efab",
}


@pytest.mark.parametrize("n,k,fmt", sorted(ENUMERATE_SHA256))
def test_enumerate_bytes_pinned(capsys, n, k, fmt):
    argv = ["enumerate", "--n", str(n), "--k", str(k), "--format", fmt]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[n, k, fmt]


# sha256 of the stdout of two walked census tables, per format: 12 x 5 rows
# of each.
TABLE_ARGV = {
    "density": ["density", "--nmax", "12", "--kmax", "4", "--genset", "symmetric",
                "--mode", "enumerate", "--boundary", "never"],
    "isolated": ["isolated", "--nmax", "12", "--kmax", "4", "--mode", "enumerate"],
    # The series route's tables, read from count_series.
    "density-dp": ["density", "--n", "300", "--kmax", "8", "--genset", "symmetric",
                   "--mode", "dp"],
    "isolated-dp": ["isolated", "--nmax", "64", "--kmax", "6", "--mode", "dp"],
}
TABLE_SHA256 = {
    ("density", "csv"): "ab33dee132d7f5f14ba5abb365ab114bff47458146d514eec30d2aa2f965f4d1",
    ("density", "json"): "de5846c3324b9ad554df42fbe312a540e755cdc9a6801529b65c86329ca43533",
    ("isolated", "csv"): "dacff0d726e35008d5b20c3c6376654a6a1a27670ecb641c8dd3f38340c4959f",
    ("isolated", "json"): "16124252e818c6c6fe1df5f9bf7ee1c7be1d86ed929ea81b6696c6650628db1a",
    ("density-dp", "csv"): "ac1881e809525e6538ac411d62fd2e69df04d475dcca8e4d8d408eba291b2cdb",
    ("density-dp", "json"): "04b4c33f5980fa5f81ce19aa63f0d57378610b3f5a0b7e9d339e9c944e210b60",
    ("isolated-dp", "csv"): "f589e51e67cb088192905251a1159714ca7504b0d01434392e726b218592bf81",
    ("isolated-dp", "json"): "d95a9f8b5fee3e48597920e661de53b108a4a4ce7108656a96181ecd1ebcebe5",
}


@pytest.mark.parametrize("command,fmt", sorted(TABLE_SHA256))
def test_table_bytes_pinned(capsys, command, fmt):
    assert cli.main(TABLE_ARGV[command] + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_SHA256[command, fmt]


def test_group_verify_mn_below_one_refused(capsys):
    # --mn 0 or below would run none of the alpha/beta mixed checks.
    for mn in ("0", "-3"):
        assert cli.main(["group-verify", "--mn", mn]) == 3
        assert "--mn must be at least 1" in capsys.readouterr().err
    assert cli.main(["group-verify", "--mn", "1"]) == 0


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
    assert cli.main(["theorem2", "--kmax", "8", "--n-small", "0"]) == 3
    assert "--n-small must be at least 1" in capsys.readouterr().err
    # embed-verify's default ranges follow the same rule as density's.
    for flag, value, low in (("--kmax", "-1", 0), ("--nmax", "0", 1)):
        assert cli.main(["embed-verify", flag, value]) == 3
        assert f"{flag} must be at least {low}" in capsys.readouterr().err
    assert cli.main(["density", "--nmax", "0", "--k", "1"]) == 3
    assert "--nmax must be at least 1" in capsys.readouterr().err
    for threads in ("0", "-2"):
        assert cli.main(["density", "--n", "3", "--k", "1", "--threads", threads]) == 3
        assert "--threads must be at least 1" in capsys.readouterr().err
    # The cap is a budget on every subcommand, also where dp ignores it.
    for argv in (["enumerate", "--n", "3", "--k", "1"],
                 ["density", "--n", "3", "--k", "1", "--mode", "dp"]):
        assert cli.main(argv + ["--cap", "-5"]) == 3
        assert "--cap must be at least 1" in capsys.readouterr().err
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
    # A tolerance past the precision budget is refused in one short line.
    assert cli.main(["xi", "--kmax", "3", "--tol", "1e-2000"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200 and "4096 bits" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["density", "--n", "0", "--k", "1"], "--n must be at least 1"),
        (["density", "--n", "3", "--k", "-1"], "--k must be at least 0"),
        (["density", "--n", "3", "--k", "1", "--genset", "bogus"],
         "unknown generating set 'bogus'"),
        (["density", "--n", "3", "--k", "1", "--genset", "custom:x0,x0"], "coincide"),
        (["density", "--n", "3", "--k", "1", "--genset", "custom:"], "empty word"),
        (["xi", "--tol", "0"], "--tol: tolerance '0' is not positive"),
        (["enumerate", "--n", "0", "--k", "1"], "--n must be at least 1"),
        (["embed-verify", "--n", "3", "--k", "-2"], "--k must be at least 0"),
    ],
)
def test_bad_input_exits_3(capsys, argv, message):
    # Each of these reached a library ValueError before the CLI checked it.
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fdensity: invalid configuration: ")
    assert message in captured.err and captured.err.count("\n") == 1


def test_internal_value_error_exits_4(monkeypatch, capsys):
    # Only a UsageError is bad input; a ValueError from the library is a
    # fault.
    def broken(*args):
        raise ValueError("internal")

    monkeypatch.setattr(census, "census_counts", broken)
    assert cli.main(["density", "--n", "5", "--k", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "fdensity: internal invariant violated: ValueError('internal')\n"
    )


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


def test_readme_library_snippet_runs():
    # The README's python block runs as written against the package.
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_package_exports_resolve():
    # A name deleted from a module but left in __all__ fails here, not
    # only at `from fdensity import *`.
    names = fdensity.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(fdensity, n)] == []


def _names_without_callers(sources, exported=()):
    """The top-level defs and classes of `sources` (module name -> text)
    that no name, attribute or import alias outside their own definition
    refers to, less those named in `exported`."""

    def refs(top):
        found = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
        return found

    bodies = {name: ast.parse(text).body for name, text in sources.items()}
    refs_of = {name: [refs(top) for top in body] for name, body in bodies.items()}
    unused = []
    for name, body in bodies.items():
        for i, node in enumerate(body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in exported:
                continue
            # Every top-level statement of every module but this definition,
            # whose decorators and docstring go with it.
            seen = set().union(*(
                r for other, rs in refs_of.items() for j, r in enumerate(rs)
                if (other, j) != (name, i)
            ))
            if node.name not in seen:
                unused.append(f"{name}:{node.name}")
    return unused


def test_src_names_have_src_callers():
    # Every top-level def and class in the package is used by the package
    # itself or exported in fdensity.__all__; code that only the tests call
    # belongs in tests/oracles.py.  Docstrings and comments are no callers.
    sources = {
        path.name: path.read_text()
        for path in pathlib.Path(fdensity.__file__).parent.glob("*.py")
        if path.name != "__init__.py"
    }
    assert _names_without_callers(sources, fdensity.__all__) == []


def test_names_without_callers_sees_through_docstrings():
    # Negative control: a def named only in another def's docstring or in
    # its own body is reported; one called, one exported and one imported
    # elsewhere are not.
    sources = {
        "a.py": (
            "def used():\n"
            "    \"\"\"Leans on helper() and on lonely.\"\"\"\n"
            "    return imported()\n\n\n"
            "def helper():\n"
            "    return helper()\n\n\n"
            "def main():\n"
            "    return used()\n"
        ),
        "b.py": "from .c import imported\n",
        "c.py": "def imported():\n    pass\n\n\nclass lonely:\n    pass\n",
    }
    assert _names_without_callers(sources, ["main"]) == ["a.py:helper", "c.py:lonely"]


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
