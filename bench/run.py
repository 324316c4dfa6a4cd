"""holofield benchmark: one workload per invocation, one closed-loop client.

    python3 bench/run.py --workload field --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Runs from the root of a source checkout.  Each workload runs in worker
processes (bench/worker.py) with PYTHONPATH=src and BLAS threads pinned
to one.  With --trace 0 it prints the end-to-end metrics, with --trace 1
the per-layer metrics of a separate traced run.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A job
that fails one of its identities counts as failed; ``correct`` is false
when a job fails in a way that is not one of the documented known
defects, or when executions of one job disagree.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

from record import clock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("field", "bundle", "kernel", "cli")
SETUP_SAMPLES = 5   # set-up is measured this many times; the median counts
WORKER_TIMEOUT = 170


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], timeout: float) -> tuple[float, dict]:
    """Start one worker; return its set-up time and its result object.
    The worker runs in its own process group, so a timeout also stops the
    cli children it started."""
    start = clock()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker {' '.join(args)} timed out")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker {' '.join(args)} exited "
                         f"{proc.returncode}")
    result = json.loads(out.strip().rpartition("\n")[2])
    return result["setup_end"] - start, result


def measure(workload: str, seed: int, seconds: float, trace: int,
            jobs: int = 0) -> dict:
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    if jobs:
        base += ["--jobs", str(jobs)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(base + ["--setup-only"], 60)[0])
    setup, result = run_worker(base + ["--trace", str(trace)],
                               WORKER_TIMEOUT)
    setups.append(setup)
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
        result["setup_samples"] = setups
    return result


def report(result: dict) -> dict:
    """Print the human-readable lines; return the contract's object."""
    info = {k: v for k, v in result.items() if k != "metrics"}
    print("info " + json.dumps(info, sort_keys=True))
    for name, m in sorted(result["metrics"].items()):
        print(f"{result['workload']:7s} {name:24s} {m['value']:.6g} "
              f"{m['unit']}")
    if "tail_percentile" in result:
        print(f"job_s.tail is p{result['tail_percentile']} of "
              f"{result['verified']} verified jobs "
              f"({result['tail_beyond']} beyond it)")
    return {
        "correct": result["unknown_failures"] == 0
        and result["nondeterministic"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def smoke() -> int:
    """A few jobs per workload, untraced and traced: every metric in
    BENCHMARK.json must come out by name and unit, and every job must get
    a verdict."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            out = report(measure(workload, 1, 1, trace, jobs=3))
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: m["unit"] for k, m in out["metrics"].items()}
            for name in sorted(set(want) | set(got)):
                if want.get(name) != got.get(name):
                    problems.append(f"{workload}: {name} is in "
                                    f"{got.get(name)}, expected in "
                                    f"{want.get(name)}")
            if out["attempted"] < 3 or not 0 <= out["failed"] <= \
                    out["attempted"]:
                problems.append(f"{workload}: verdicts not recorded")
    for p in problems:
        print("smoke: " + p)
    print("smoke " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "holofield")):
        sys.stderr.write("bench: src/holofield not found; run from the "
                         "root of a holofield source checkout\n")
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    out = report(measure(args.workload, args.seed, args.seconds, args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
