"""The cli workload: whole ``holofield`` processes, started through the
benchmark's launcher on small input files written during set-up.

Commands come from a fixed rotation over every subcommand, every verify
suite and each ``partition --via`` (one of them on a refined map whose
graph sum takes about 0.1 s).  The group cycles through S3, Q8 and D4
independently of the command.  The seed draws the class rates in the
Levy files, each job's ``--time`` and the sampler ``--seed``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from holofield.surface import SurfaceSpec, map_to_json, split_face, \
    standard_map, subdivide_edge

from jobs import GroupData, job_rng
from record import clock

CLI_GROUPS = ("S3", "Q8", "D4")
SUITES = ("semigroup", "kappa-eta", "surgery", "subdivision", "tame",
          "holo-mono", "counting")
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "launcher.py")
BIG_MAP_AREA = 1.0


def _commands(g: str, t: str, seed: str) -> list[list[str]]:
    common = ["--group", f"group_{g}.json", "--levy", f"levy_{g}.json"]
    torus = common + ["--surface", "torus.json", "--time", t]
    return [
        ["group-info", "--group", f"group_{g}.json"],
        ["faces", "--map", "map_small.json"],
        ["partition", "--via", "formula"] + torus,
        ["partition", "--via", "graph"] + torus,
        ["partition", "--via", "graph", "--group", "group_Q8.json",
         "--levy", "levy_Q8.json", "--surface", "torus_big.json",
         "--map", "map_big.json"],
        *(["verify", suite] + common + ["--time", t] for suite in SUITES),
        ["cover", "enumerate", "--k", "2"] + torus,
        ["cover", "mass"] + torus,
        ["cover", "sample", "--count", "5", "--seed", seed] + torus,
        ["cover", "verify-holo-mono"] + torus,
    ]


N_COMMANDS = len(_commands("S3", "1", "0"))


def make_cli(seed: int, count: int, data: GroupData) -> list[dict]:
    jobs = []
    for i in range(count):
        rng = job_rng("cli", seed, i)
        argv = _commands(CLI_GROUPS[i % len(CLI_GROUPS)],
                         f"{rng.uniform(0.3, 2.0):.6f}",
                         str(rng.randrange(2 ** 32)))[i % N_COMMANDS]
        jobs.append({"argv": argv})
    return jobs


def write_inputs(workdir: str, seed: int, data: GroupData) -> None:
    """Group, Levy, surface and map files the rotation refers to."""
    rng = job_rng("cli-inputs", seed, 0)
    files = {}
    for g in CLI_GROUPS:
        cl = data.classes[g]
        rates = data.rates(rng, g, rng.uniform(0.5, 3.0), True)
        files[f"group_{g}.json"] = {"kind": "builtin", "name": g}
        files[f"levy_{g}.json"] = {"rates": {
            cl.rep_label(c): r for c, r in enumerate(rates) if r > 0}}
    files["torus.json"] = {"orientable": True, "genus": 2, "area": 1.0}
    files["torus_big.json"] = {"orientable": True, "genus": 2,
                               "area": BIG_MAP_AREA}
    torus = standard_map(SurfaceSpec(True, 2, 0, BIG_MAP_AREA))
    small, _ = split_face(torus, 0, 0, 2, (0.4 * BIG_MAP_AREA,
                                           0.6 * BIG_MAP_AREA))
    big, _ = subdivide_edge(small, 0)
    for name, content in files.items():
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(content, fh)
    for name, m in (("map_small.json", small), ("map_big.json", big)):
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(map_to_json(m))


def _verdict(proc) -> str | None:
    """None when the command exited 0 and it and every case passed.  A
    pass flag that is not a JSON boolean is a failure of its own kind."""
    if proc.returncode != 0:
        return f"exit{proc.returncode}"
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return "bad-json"
    flags = [report.get("pass")] + [c["pass"] for c in
                                    report.get("cases", []) if "pass" in c]
    if any(f is False or f is None for f in flags):
        return "case-fail"
    if any(not isinstance(f, bool) for f in flags):
        return "pass-not-bool"
    return None


def cli_known_defect(job: dict, failure) -> bool:
    # HoloMonoReport.passed is a numpy bool, which the JSON emitter writes
    # as the string "True".
    return failure[1] in ("verify holo-mono", "cover verify-holo-mono") \
        and failure[2] == "pass-not-bool"


def run_cli(job: dict, rec, workdir: str, env: dict) -> None:
    t0 = clock()
    proc = subprocess.run([sys.executable, LAUNCHER, *job["argv"]],
                          cwd=workdir, env=env, capture_output=True,
                          text=True, timeout=120)
    t1 = clock()
    last = proc.stderr.rstrip("\n").rpartition("\n")[2]
    name = " ".join(job["argv"][:2] if job["argv"][0] in ("verify", "cover")
                    else job["argv"][:1])
    verdict = _verdict(proc)
    pid = rec.span("cli", "process", t0, t1, error=verdict)
    if last.startswith("bench-spans "):
        stamps = json.loads(last[len("bench-spans "):])
        for part in ("import", "run"):
            rec.span("cli", part, *stamps[part], parent=pid)
    elif verdict is None:
        verdict = "no-spans"
    if verdict is not None:
        rec.failures.append(("cli", name, verdict))
