"""Workload definitions, seeded inputs and the correctness gate.

Each workload is a list of `fdensity` CLI commands.  The only seeded input
is the custom generating set of the `claims` workload: four words drawn
from the seed and redrawn until `GenSetSpec.custom` accepts them.  The
program receives only the generated `custom:<words>` string.

Every command's stdout is checked: fixed commands against a stored sha256
golden, the seeded custom row by exact invariants (and by its golden too
when the seed is the default one).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from pathlib import Path

DEFAULT_SEED = 0
GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

CUSTOM_N, CUSTOM_K = 10, 3
CUSTOM_WORDS = 4
_LETTERS = [f"{c}{i}" for c in "xX" for i in range(3)]

WORKLOADS = ("census-enum", "series-dp", "claims")


def custom_genset(seed: int) -> str:
    """The seeded `custom:` generating set: 4 words of 2-3 letters over
    x0..x2 / X0..X2, redrawn until the program's own validator accepts the
    whole set (no identity, no two words equal in F)."""
    from fdensity.group import GenSetSpec

    rng = random.Random(seed)
    while True:
        words = [
            " ".join(rng.choice(_LETTERS) for _ in range(rng.randint(2, 3)))
            for _ in range(CUSTOM_WORDS)
        ]
        try:
            GenSetSpec.custom(words)
        except ValueError:
            continue
        return "custom:" + ",".join(words)


def commands(workload: str, seed: int) -> list[list[str]]:
    """CLI argument lists (without the program name) for one repetition."""
    if workload == "census-enum":
        cmds = [["density", "--nmax", "14", "--k", "4", "--genset", "symmetric",
                 "--mode", "both", "--boundary", "never"]]
    elif workload == "series-dp":
        cmds = [["density", "--n", "512", "--kmax", "12", "--genset", "symmetric",
                 "--mode", "dp"]]
    elif workload == "claims":
        cmds = [
            ["theorem1", "--kmax", "512"],
            ["theorem2", "--kmax", "64", "--n-small", "10"],
            ["density", "--n", str(CUSTOM_N), "--k", str(CUSTOM_K),
             "--genset", custom_genset(seed)],
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return [c + ["--threads", "1"] for c in cmds]


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


def check(argv: list[str], returncode: int, stdout: bytes, goldens: dict) -> list[str]:
    """Every reason this command's result is wrong; empty when it is right."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    golden = goldens["stdout_sha256"].get(command_key(argv))
    if golden is not None and hashlib.sha256(stdout).hexdigest() != golden:
        problems.append("stdout differs from its golden")
    if argv[0] == "theorem1":
        problems += _check_meta(stdout, "first_k_bprime_above_3",
                                goldens["invariants"]["first_k_bprime_above_3"])
    elif argv[0] == "theorem2":
        problems += _check_meta(stdout, "first_k_three_xi_below_1",
                                goldens["invariants"]["first_k_three_xi_below_1"])
    elif any(a.startswith("custom:") for a in argv):
        problems += _check_custom_row(stdout, goldens["invariants"]["custom_row"])
    elif golden is None:
        problems.append("no golden for this command")
    return problems


def _check_meta(stdout: bytes, key: str, expected: int) -> list[str]:
    try:
        got = json.loads(stdout)["meta"][key]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"cannot read meta {key}: {exc!r}"]
    return [] if got == expected else [f"{key} = {got}, expected {expected}"]


def _check_custom_row(stdout: bytes, inv: dict) -> list[str]:
    """Invariants of `density --n 10 --k 3 --genset custom:<4 words>` that
    hold for any accepted set of 4 words."""
    try:
        rows = list(csv.DictReader(io.StringIO(stdout.decode())))
        (row,) = rows
        vertices = int(row["vertices"])
        degree_sum = int(row["degree_sum"])
        cheeger = int(row["cheeger"])
        num, den = int(row["density_num"]), int(row["density_den"])
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        return [f"cannot parse custom row: {exc!r}"]
    problems = []
    if vertices != inv["vertices"]:
        problems.append(f"vertices = {vertices}, expected {inv['vertices']}")
    if degree_sum + cheeger != 2 * CUSTOM_WORDS * vertices:
        problems.append("degree_sum + cheeger != 8 * vertices")
    if num * vertices != degree_sum * den:
        problems.append("density_num/density_den != degree_sum/vertices")
    for col in ("isolated", "doubling_upper_bound", "bprime_density_num",
                "bprime_density_den"):
        if row.get(col) != str(inv[col]):
            problems.append(f"{col} = {row.get(col)}, expected {inv[col]}")
    return problems
