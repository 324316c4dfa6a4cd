"""Interleaved benchmark pairs: a base commit against this checkout.

    python3 tools/bench_ab.py BASE --workload W --pairs N --seconds S

exports BASE with ``git archive`` to ``base`` in a temporary directory
and copies this checkout's working tree as it stands, uncommitted edits
and untracked files included and ignored files left out, to ``head``
beside it, both through ``tar``, so both sides run from trees of one
layout written alike: a run's ``peak_rss_mb`` depends on the directory
it starts in, not only on its code.  It then runs the unchanged
``bench/run.py --workload W --seconds S`` N times in each tree, one base
run and one head run per pair.  The base runs first in even pairs and
second in odd ones, so drift over the session falls on both sides alike.

Every run's five end-to-end metrics are printed as it finishes.  The
summary gives, per metric, both sides' medians, the base's interquartile
range, the median of the per-pair ratios head / base, and how many pairs
favour the head in the metric's better direction (BENCHMARK.json).  It
ends with two verdicts: whether a claimed gain is shown (the head better
in at least 9/10 of the pairs and the medians apart by more than the
base's interquartile range) and whether the head's median is within the
metric's BENCHMARK.json bound, a fraction of the base's median that it
may be worse by.  Both trees are removed afterwards, also when a run
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end(root: str, key: str = "better") -> dict:
    """The end-to-end metric names of BENCHMARK.json, each with its better
    direction (or another field, such as its "bound"), in the file's
    order."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m[key] for m in spec["end_to_end"]}


def export_commit(root: str, commit: str, dest: str) -> None:
    """The files of commit in the repository at root, as git archive writes
    them, under dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=root, check=True, capture_output=True)
    untar(archive.stdout, dest)


def copy_worktree(root: str, dest: str) -> None:
    """The working tree of the repository at root as it stands under dest:
    tracked files with their uncommitted edits and untracked files, but no
    file git ignores and no tracked file deleted from the tree."""
    listing = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, capture_output=True).stdout
    names = [name for name in os.fsdecode(listing).split("\0")
             if name and os.path.isfile(os.path.join(root, name))]
    archive = subprocess.run(["tar", "-c", "--null", "-T", "-"], cwd=root,
                             input=os.fsencode("\0".join(names)),
                             check=True, capture_output=True)
    untar(archive.stdout, dest)


def untar(archive: bytes, dest: str) -> None:
    """Extract archive under dest.  Both trees are written this way: with
    the head copied by shutil.copy2 instead, the cli workload read about
    10% fewer jobs/s on the head than on the base in 4 of 4 pairs of one
    commit against itself on a 2-core VM, against 1 of 4 with both
    written by tar."""
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_bench(tree: str, workload: str, seconds: float,
              trace: int = 0) -> dict:
    """One bench/run.py run in tree; its last stdout line as an object."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench/run.py exited {proc.returncode} in {tree}")
    return json.loads(proc.stdout.strip().rpartition("\n")[2])


def run_line(pair: int, side: str, result: dict, names) -> str:
    values = " ".join(f"{name}={result['metrics'][name]['value']:.6g}"
                      for name in names)
    return (f"pair {pair} {side:4s} {values} correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']}")


def summary(pairs: list[tuple[dict, dict]], better: dict[str, str],
            bounds: dict[str, float]) -> list[str]:
    """One line per metric over (base, head) result pairs: medians, the
    base's interquartile range, the median ratio head / base, the pairs
    where the head is better, whether that shows a gain and whether the
    head is within the metric's bound."""
    lines = []
    for name, direction in better.items():
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        head = [h["metrics"][name]["value"] for _, h in pairs]
        ratios = [h / b for b, h in zip(base, head)]
        wins = sum(h > b if direction == "higher" else h < b
                   for b, h in zip(base, head))
        q = statistics.quantiles(base, n=4) if len(base) > 1 else base * 3
        mid_base, mid_head = statistics.median(base), statistics.median(head)
        # the head's median gain in the better direction: negative if worse
        gain = (mid_head - mid_base) * (1 if direction == "higher" else -1)
        shown = wins >= 0.9 * len(pairs) and gain > q[2] - q[0]
        within = -gain <= bounds[name] * mid_base
        lines.append(
            f"{name:12s} base {mid_base:.6g} "
            f"(IQR {q[2] - q[0]:.3g})  head {mid_head:.6g}  "
            f"median ratio {statistics.median(ratios):.3f}  "
            f"head better in {wins}/{len(pairs)} pairs ({direction} is "
            f"better)  claim shown: {'yes' if shown else 'no'}  "
            f"within bound {bounds[name]:g}: {'yes' if within else 'no'}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", help="the commit to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args()
    better = end_to_end(ROOT)
    # a terminated run still removes its trees
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = tempfile.mkdtemp(prefix="bench_ab_")
    base_tree = os.path.join(scratch, "base")
    head_tree = os.path.join(scratch, "head")
    pairs = []
    try:
        export_commit(ROOT, args.base, base_tree)
        copy_worktree(ROOT, head_tree)
        for i in range(args.pairs):
            order = [("base", base_tree), ("head", head_tree)]
            result = {}
            for side, tree in order if i % 2 == 0 else order[::-1]:
                result[side] = run_bench(tree, args.workload, args.seconds)
                print(run_line(i, side, result[side], better), flush=True)
            pairs.append((result["base"], result["head"]))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{args.workload}: {len(pairs)} pairs of {args.seconds:g} s runs, "
          f"base {args.base}")
    for line in summary(pairs, better, end_to_end(ROOT, "bound")):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
