"""Record what the holofield command line prints on a fixed set of runs.

    python3 tools/cli_snapshot.py ROOT OUT

runs every command of the set below as ``python -m holofield.cli`` with
``PYTHONPATH=ROOT/src`` and writes a JSON list of ``{argv, exit, stdout,
stderr}`` records to OUT.  Two checkouts behave alike on the set when
their snapshots are byte-identical (``cmp A.json B.json``).

The set: for seeds 201 and 202 and each of S3, Q8 and D4, the benchmark's
16 cli commands (``bench/cli_jobs._commands``) on the input files its
``write_inputs`` writes, three verify suites with ``--format csv`` and
``verify surgery --time 0``: 120 runs.  Then, on seed 201's files and
the files this tool writes itself, 2 ``cover enumerate`` runs over the
constrained Moebius bands of ``COVER_INPUTS`` (S4 and Q8), 1 ``cover
verify-holo-mono`` run on the S3 torus with ``--map map_small.json`` and
``--tail-tol 1e-10``, and 35 error runs on ``BAD_INPUTS``: rejected
options, missing, malformed and invalid input files, non-finite numbers
in flags and files, a negative twist count, a sample count below 1, a
map that disagrees with its surface, inadmissible jump measures (exit 2),
cap exits (exit 3), a failing verification (exit 1), and then repeated
keys, an unreadable map file, a float table entry, repeated labels and a
zero-padded Levy key (exit 2): 158 runs.  New runs are appended, so the
records of an older snapshot stay a prefix of a newer one.  The input
files are written with this checkout's ``holofield``, so every snapshot
reads the same files.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(HERE, "src"), os.path.join(HERE, "bench")]

from cli_jobs import CLI_GROUPS, _commands, write_inputs  # noqa: E402
from jobs import GroupData, job_rng  # noqa: E402

SEEDS = (201, 202)
CSV_SUITES = ("semigroup", "kappa-eta", "tame")


def commands(seed: int) -> list[list[str]]:
    """The runs on the input files of one seed; the seed also draws the
    ``--time`` of the timed ones and is the sampler's ``--seed``."""
    t = f"{job_rng('cli', seed, 0).uniform(0.3, 2.0):.6f}"
    out = []
    for g in CLI_GROUPS:
        common = ["--group", f"group_{g}.json", "--levy", f"levy_{g}.json"]
        out += _commands(g, t, str(seed))
        out += [["verify", suite, "--format", "csv", "--time", t] + common
                for suite in CSV_SUITES]
        out.append(["verify", "surgery", "--time", "0"] + common)
    return out


# Files no run may accept: one that is not JSON, and JSON that describes
# no group, Levy measure, surface or map
BAD_INPUTS = {
    "malformed.json": '{"kind": "builtin"',
    "group_unknown.json": {"kind": "builtin", "name": "S7"},
    "group_table.json": {"kind": "table", "order": 2,
                         "table": [[0, 1], [0, 1]]},
    "levy_label.json": {"rates": {"(0 1)": 1.0}},
    "levy_nonadmissible.json": {"rates": {"120": 1.0}},
    "levy_zero.json": {"rates": {}},
    "surface_odd.json": {"orientable": True, "genus": 1, "area": 1.0},
    "surface_inf.json": {"orientable": True, "genus": 2,
                         "area": float("inf")},
    "map_invalid.json": {"darts": 4, "alpha": [[0, 1], [2, 2]],
                         "sigma": {"0": [0, 1, 2, 3]}},
    # an object that repeats a key, in each kind of file
    "group_repeated.json": '{"kind": "builtin", "name": "S3", "name": "Z2"}',
    "levy_repeated.json": '{"rates": {"021": 1.0, "021": 5.0}}',
    "surface_repeated.json":
        '{"orientable": true, "genus": 2, "genus": 4, "area": 1.0}',
    "map_repeated.json": '{"darts": 2, "darts": 2, "alpha": [[0, 1]], '
                         '"sigma": {"0": [0], "1": [1]}}',
    # a float table entry, labels that are not distinct, and a Levy key
    # that int() reads as class 1 but str(1) does not write
    "group_float.json": {"kind": "table", "table": [[0, 1.9], [1, 0]]},
    "group_labels.json": {"kind": "table",
                          "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                          "labels": ["e", "x", "x"]},
    "levy_padded.json": {"rates": {"01": 1.0}},
}

# Constrained non-orientable surfaces, where cover enumerate meets boundary
# classes and squares in the surface word: Moebius bands with a class of
# size 3 in S4 and of size 2 in Q8
COVER_INPUTS = {
    "group_S4.json": {"kind": "builtin", "name": "S4"},
    "mobius_S4.json": {"orientable": False, "genus": 1, "boundaries": 1,
                       "area": 1.0, "constraints": [3]},
    "mobius_Q8.json": {"orientable": False, "genus": 1, "boundaries": 1,
                       "area": 1.0, "constraints": [2]},
}
COVER_RUNS = [
    ["cover", "enumerate", "--k", "2", "--group", "group_S4.json",
     "--surface", "mobius_S4.json"],
    ["cover", "enumerate", "--k", "2", "--group", "group_Q8.json",
     "--levy", "levy_Q8.json", "--surface", "mobius_Q8.json"],
    # a file map, whose series kernel carries a tail tolerance other than
    # the default
    ["cover", "verify-holo-mono", "--group", "group_S3.json",
     "--levy", "levy_S3.json", "--surface", "torus.json",
     "--map", "map_small.json", "--tail-tol", "1e-10"],
]

_S3 = ["--group", "group_S3.json", "--levy", "levy_S3.json"]
_TORUS = _S3 + ["--surface", "torus.json"]
ERROR_RUNS = [
    # argparse rejects the option or the suite
    ["partition", "--via", "fast"] + _TORUS,
    ["verify", "semigroup", "--format", "xml"] + _S3,
    ["verify", "nope"] + _S3,
    # a missing option or input file
    ["partition", "--levy", "levy_S3.json", "--surface", "torus.json"],
    ["partition", "--group", "group_S3.json", "--surface", "torus.json"],
    ["group-info", "--group", "missing.json"],
    # malformed and invalid input files
    ["group-info", "--group", "malformed.json"],
    ["group-info", "--group", "group_unknown.json"],
    ["group-info", "--group", "group_table.json"],
    ["partition", "--group", "group_S3.json", "--levy", "malformed.json",
     "--surface", "torus.json"],
    ["partition", "--group", "group_S3.json", "--levy", "levy_label.json",
     "--surface", "torus.json"],
    ["partition", "--surface", "malformed.json"] + _S3,
    ["partition", "--surface", "surface_odd.json"] + _S3,
    ["faces", "--map", "malformed.json"],
    ["faces", "--map", "map_invalid.json"],
    # non-finite numbers
    ["verify", "semigroup", "--time", "inf"] + _S3,
    ["partition", "--time", "inf"] + _TORUS,
    ["verify", "semigroup", "--tol", "nan"] + _S3,
    ["partition", "--surface", "surface_inf.json"] + _S3,
    # a negative twist count, a sample count below 1, and a map whose face
    # areas (1 in all) do not sum to the surface area at --time
    ["cover", "enumerate", "--k", "-1"] + _TORUS,
    ["cover", "sample", "--count", "0"] + _TORUS,
    ["partition", "--via", "graph", "--map", "map_small.json",
     "--time", "2.0"] + _TORUS,
    # a jump measure whose support does not generate S3, and a zero one
    ["verify", "semigroup", "--group", "group_S3.json",
     "--levy", "levy_nonadmissible.json"],
    ["verify", "semigroup", "--group", "group_S3.json",
     "--levy", "levy_zero.json"],
    # over the cap (exit 3), and a tolerance no float check meets (exit 1)
    ["partition", "--via", "graph", "--cap", "10"] + _TORUS,
    ["cover", "enumerate", "--k", "3", "--cap", "10"] + _TORUS,
    ["verify", "semigroup", "--tol", "1e-300"] + _S3,
    # appended after the runs above, which keep their order: a repeated
    # key in each kind of file, an unreadable map file, strict group
    # tables and Levy index keys
    ["group-info", "--group", "group_repeated.json"],
    ["partition", "--group", "group_S3.json", "--levy", "levy_repeated.json",
     "--surface", "torus.json"],
    ["partition", "--surface", "surface_repeated.json"] + _S3,
    ["faces", "--map", "map_repeated.json"],
    ["faces", "--map", "missing.json"],
    ["group-info", "--group", "group_float.json"],
    ["group-info", "--group", "group_labels.json"],
    ["partition", "--group", "group_S3.json", "--levy", "levy_padded.json",
     "--surface", "torus.json"],
]


def write_extra_inputs(workdir: str) -> None:
    """COVER_INPUTS and BAD_INPUTS into workdir: strings as they are, the
    rest as JSON."""
    for name, content in {**COVER_INPUTS, **BAD_INPUTS}.items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(content if isinstance(content, str)
                     else json.dumps(content))


def snapshot(root: str, workdir: str, argvs: list[list[str]]) -> list[dict]:
    """One record per argv, run in workdir against ROOT/src."""
    # argparse wraps its usage message to COLUMNS
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    out = []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "holofield.cli", *argv],
                              cwd=workdir, env=env, capture_output=True,
                              text=True, timeout=600)
        out.append({"argv": argv, "exit": proc.returncode,
                    "stdout": proc.stdout, "stderr": proc.stderr})
    return out


def main(root: str, out_path: str) -> None:
    records = []
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as workdir:
            write_inputs(workdir, seed, GroupData())
            records += snapshot(root, workdir, commands(seed))
    with tempfile.TemporaryDirectory() as workdir:
        write_inputs(workdir, SEEDS[0], GroupData())
        write_extra_inputs(workdir)
        records += snapshot(root, workdir, COVER_RUNS + ERROR_RUNS)
    with open(out_path, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    codes = sorted({r["exit"] for r in records})
    print(f"{len(records)} runs, exit codes "
          + ", ".join(f"{c}: {sum(r['exit'] == c for r in records)}"
                      for c in codes))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
