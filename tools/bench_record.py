"""Record this checkout's benchmark metrics in one BENCH_<n>.json file.

    python3 tools/bench_record.py OUT [--seconds S]

runs the unchanged ``bench/run.py`` in this checkout, at its default
seed, on every workload of BENCHMARK.json twice, once untraced
(``--trace 0``: the end-to-end metrics) and once with ``--trace 1`` (the
per-layer metrics), and writes OUT: per workload and run, the metrics
with their units and the attempted, failed and correct counts, beside
the machine (``nproc``, the Python and numpy versions), the commit
measured and whether the tree differed from it.  It exits 1, after
writing OUT, when a workload lacks a metric that BENCHMARK.json names,
or when a run is not correct or has a failed job.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys

from bench_ab import ROOT, run_bench


def machine() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}


def commit(root: str) -> dict:
    """The commit checked out at root, and whether the tree differs from
    it in a tracked or untracked file."""
    def git(*argv):
        return subprocess.run(["git", *argv], cwd=root, check=True,
                              capture_output=True, text=True).stdout.strip()
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain"))}


def problems(doc: dict, spec: dict) -> list[str]:
    """Each metric of spec that a workload of doc does not report, and
    each run of doc that is not correct or has a failed job."""
    groups = {"untraced": "end_to_end", "traced": "per_layer"}
    out = [f"missing: {w['name']} {run} {m['name']}"
           for w in spec["workloads"] for run, group in groups.items()
           for m in spec[group]
           if m["name"] not in doc["workloads"][w["name"]][run]["metrics"]]
    return out + [f"failed: {w} {run} correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}"
                  for w, runs in doc["workloads"].items()
                  for run, r in runs.items()
                  if not r["correct"] or r["failed"]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("out")
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    doc = {**commit(ROOT), "machine": machine(), "seconds": args.seconds,
           "workloads": {}}
    for w in spec["workloads"]:
        doc["workloads"][w["name"]] = {
            run: run_bench(ROOT, w["name"], args.seconds, trace)
            for run, trace in (("untraced", 0), ("traced", 1))}
        print(f"{w['name']}: done", flush=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for line in problems(doc, spec):
        print(line)
    return 1 if problems(doc, spec) else 0


if __name__ == "__main__":
    sys.exit(main())
