"""Record what the holofield command line prints on a fixed set of runs.

    python3 tools/cli_snapshot.py ROOT OUT

runs every command of the set below as ``python -m holofield.cli`` with
``PYTHONPATH=ROOT/src`` and writes a JSON list of ``{argv, exit, stdout,
stderr}`` records to OUT.  Two checkouts behave alike on the set when
their snapshots are byte-identical (``cmp A.json B.json``).

The set: for seeds 201 and 202 and each of S3, Q8 and D4, the benchmark's
16 cli commands (``bench/cli_jobs._commands``) on the input files its
``write_inputs`` writes, three verify suites with ``--format csv`` and
``verify surgery --time 0``: 120 runs.  The input files are written with
this checkout's ``holofield``, so every snapshot reads the same files.
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


def snapshot(root: str, workdir: str, argvs: list[list[str]]) -> list[dict]:
    """One record per argv, run in workdir against ROOT/src."""
    env = dict(os.environ,
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
