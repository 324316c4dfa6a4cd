"""One workload process: set-up, then the timed loop or the traced loop.
Started by run.py; prints one JSON object on its last stdout line.

Set-up is everything before the first timed job: imports, job-list
generation, the cli input files and one untimed warm-up job (which also
pays numpy's lazy linalg init on the first character table).

Timed loop: a closed loop, one job at a time, in passes over the whole
fixed-length job list until the time is spent.  Each job is timed as the
median of its executions, one per pass; every execution rebuilds every
program object, so face and heat-kernel caches start cold as they do for
a user.  gc.collect() runs before each execution, outside the timed
region.  The verdicts are those of the list's jobs, so the attempted and
failed counts are the same on every run.

Traced loop: passes over a fixed prefix of the job list, each job run
once untraced and once traced, so the per-layer figures and the tracing
overhead come from the same jobs.  Counts are taken from the first pass
and so repeat exactly for a given seed.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys

import numpy as np

from jobs import (
    GroupData,
    bundle_known_defect,
    field_known_defect,
    kernel_known_defect,
    kernel_poisson_terms,
    make_bundle,
    make_field,
    make_kernel,
    run_bundle,
    run_field,
    run_kernel,
)
from cli_jobs import cli_known_defect, make_cli, run_cli, write_inputs
from record import LAYERS, Recorder, Tracer, clock, self_times, \
    tail_percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name: (make, run, known defect, list length, traced prefix).  A pass
# over the list takes about a fifth of a 30-second run (a third for cli).
WORKLOADS = {
    "field": (make_field, run_field, field_known_defect, 70, 14),
    "bundle": (make_bundle, run_bundle, bundle_known_defect, 48, 12),
    "kernel": (make_kernel, run_kernel, kernel_known_defect, 500, 60),
    "cli": (make_cli, None, cli_known_defect, 32, 16),
}
ENUMERATING = {"partition_graph", "marginal_generators", "sample_df"}


def digest(jobs) -> str:
    return hashlib.sha256(json.dumps(jobs, sort_keys=True).encode()) \
        .hexdigest()[:16]


def run_one(run, job, i, rec):
    """One execution; returns (seconds, failures, counts)."""
    rec.begin(i)
    t0 = clock()
    if rec.traced:
        rec.open_root(t0)
    try:
        run(job, rec)
    except Exception as exc:  # a fault in the benchmark, not a layer
        rec.failures.append(("bench", "job", type(exc).__name__))
    t1 = clock()
    if rec.traced:
        rec.close_root(t1)
    return t1 - t0, tuple(rec.failures), dict(rec.counts)


def passes_until(deadline, passes, one_pass) -> int:
    """Run one_pass() at least once and at most passes times, starting
    another only while it would end by the deadline."""
    p = 0
    while p < passes:
        t_pass = clock()
        one_pass(p)
        p += 1
        if clock() + (clock() - t_pass) > deadline:
            break
    return p


def timed_loop(run, jobs, seconds, passes):
    """Per job: (median seconds, failures, executions disagreed)."""
    rec = Recorder()
    execs = [[] for _ in jobs]

    def one_pass(_):
        for i, job in enumerate(jobs):
            gc.collect()
            execs[i].append(run_one(run, job, i, rec))

    n = passes_until(clock() + seconds, passes, one_pass)
    return [(statistics.median(e[0] for e in ex), ex[0][1],
             len({e[1] for e in ex}) > 1) for ex in execs], n


def traced_loop(run, jobs, seconds, passes):
    """Returns the tracer, execution table and untraced/traced seconds."""
    rec, tracer = Recorder(), Tracer()
    execs = []  # per traced execution: (pass, job index, failures, counts)
    plain = traced = 0.0

    def one_pass(p):
        nonlocal plain, traced
        for i, job in enumerate(jobs):
            gc.collect()
            plain += run_one(run, job, i, rec)[0]
            dt, fails, counts = run_one(run, job, len(execs), tracer)
            traced += dt
            execs.append((p, i, fails, counts))

    passes_until(clock() + seconds, passes, one_pass)
    return tracer, execs, plain, traced


def first_executions(execs) -> list[int]:
    """Index of the first traced execution of each job in the first pass."""
    seen, out = set(), []
    for k, (p, i, _, _) in enumerate(execs):
        if p == 0 and i not in seen:
            seen.add(i)
            out.append(k)
    return out


def layer_metrics(tracer, execs, jobs, plain, traced, terms_of):
    """Per-layer metrics from the spans; terms_of(job) gives the Poisson
    terms of a job's series calls."""
    spans = tracer.spans
    selfs = self_times(spans)
    first_once = first_executions(execs)
    firsts = set(first_once)
    n_jobs = len(first_once)
    verified = sum(1 for e in execs if not e[2])
    job_time = sum(s[6] - s[5] for s in spans if s[3] == "bench")

    def per(x, n):
        return x / n if n else 0.0

    m = {}
    for layer in LAYERS:
        own = [k for k, s in enumerate(spans) if s[3] == layer]
        total = sum(selfs[k] for k in own)
        m[f"{layer}.self_s"] = (per(total, verified), "s")
        m[f"{layer}.share"] = (per(total, job_time), "fraction")
        m[f"{layer}.calls"] = (per(sum(
            1 for k in own if spans[k][0] in firsts), n_jobs), "count")
        m[f"{layer}.failed"] = (sum(
            1 for k in first_once for f in execs[k][2] if f[0] == layer),
            "count")
    # work counts: configurations, tuples, draws, Poisson terms
    configs = [0] * len(execs)
    enum_time = 0.0
    terms = [0] * len(execs)
    series_time = 0.0
    draws = 0
    draw_time = count_time = 0.0
    for s in spans:
        k, dur = s[0], s[6] - s[5]
        if s[3] == "holonomy" and s[4] in ENUMERATING:
            configs[k] += jobs[execs[k][1]].get("configs", 0)
            enum_time += dur
        elif s[4] == "heat_kernel_series":
            terms[k] += terms_of(jobs[execs[k][1]])
            series_time += dur
        elif s[4] == "sample_covering" and s[7] is None:
            draws += 1
            draw_time += dur
        elif s[4] == "counting_check":
            count_time += dur
    tuples = [e[3].get("tuples", 0) for e in execs]
    m["holonomy.configs"] = (per(sum(configs[k] for k in first_once), n_jobs),
                             "count")
    m["holonomy.configs_per_s"] = (per(sum(configs), enum_time), "1/s")
    m["covering.tuples"] = (per(sum(tuples[k] for k in first_once), n_jobs),
                            "count")
    m["covering.tuples_per_s"] = (per(sum(tuples), count_time), "1/s")
    m["covering.draws_per_s"] = (per(draws, draw_time), "1/s")
    m["levy.poisson_terms"] = (per(sum(terms[k] for k in first_once), n_jobs),
                               "count")
    m["levy.terms_per_s"] = (per(sum(terms), series_time), "1/s")
    for part in ("import", "run", "process"):
        total = sum(selfs[k] for k, s in enumerate(spans)
                    if s[3] == "cli" and s[4] == part)
        m[f"cli.{part}_s"] = (per(total, verified), "s")
    m["trace.overhead"] = (per(traced, plain) - 1.0, "fraction")
    return m


def tally(jobs, outcomes, known) -> dict:
    """Verdict counts over (job index, failures) pairs."""
    failures = {}
    unknown = 0
    for i, fails in outcomes:
        for f in fails:
            key = "/".join(f)
            failures[key] = failures.get(key, 0) + 1
            unknown += not known(jobs[i % len(jobs)], f)
    failed = sum(1 for _, fails in outcomes if fails)
    return {"attempted": len(outcomes), "verified": len(outcomes) - failed,
            "failed": failed, "failures": failures,
            "unknown_failures": unknown}


def summarise(results):
    """End-to-end metrics of a timed loop, and the tail's percentile."""
    ok_times = [t for t, fails, _ in results if not fails]
    total = sum(t for t, _, _ in results)
    pct = tail_percentile(len(ok_times))
    tail = float(np.percentile(ok_times, pct)) if ok_times else 0.0
    info = {"timed_s": total, "tail_percentile": pct,
            "tail_beyond": sum(1 for t in ok_times if t > tail)}
    metrics = {
        "jobs_per_s": (len(ok_times) / total if total else 0.0, "1/s"),
        "job_s.p50": (statistics.median(ok_times) if ok_times else 0.0, "s"),
        "job_s.tail": (tail, "s"),
    }
    return metrics, info


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--jobs", type=int, default=0,
                    help="run exactly this many jobs once (smoke mode)")
    args = ap.parse_args()

    make, run, known, list_len, trace_len = WORKLOADS[args.workload]
    smoke = args.jobs > 0
    passes = 1 if smoke else float("inf")
    data = GroupData()
    jobs = make(args.seed, args.jobs or list_len, data)
    workdir = None
    try:
        if args.workload == "cli":
            workdir = os.path.join(ROOT, ".bench_tmp", f"cli-{os.getpid()}")
            os.makedirs(workdir)
            write_inputs(workdir, args.seed, data)
            env = dict(os.environ)

            def run(job, rec):
                run_cli(job, rec, workdir, env)

        run_one(run, jobs[0], 0, Recorder())  # warm-up
        # Set-up objects (modules, the job list) never become garbage;
        # frozen, they stay out of every collection the jobs trigger.
        gc.collect()
        gc.freeze()
        setup_end = clock()
        if args.setup_only:
            print(json.dumps({"setup_end": setup_end}))
            return 0

        result = {
            "setup_end": setup_end, "workload": args.workload,
            "seed": args.seed, "digest": digest(jobs),
            "jobs_in_list": len(jobs),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        }
        if args.trace:
            tracer, execs, plain, traced = traced_loop(
                run, jobs if smoke else jobs[:trace_len], args.seconds,
                passes)
            out = os.path.join(ROOT, ".bench_out")
            os.makedirs(out, exist_ok=True)
            path = os.path.join(out, f"trace-{args.workload}-{args.seed}.jsonl")
            tracer.write(path)
            metrics = layer_metrics(tracer, execs, jobs, plain, traced,
                                    kernel_poisson_terms)
            seen = {}
            for _, i, fails, _ in execs:
                seen.setdefault(i, set()).add(fails)
            result.update(tally(jobs, [(execs[k][1], execs[k][2]) for k in
                                       first_executions(execs)], known))
            result.update(spans=path, passes=execs[-1][0] + 1,
                          nondeterministic=sum(len(v) > 1
                                               for v in seen.values()))
        else:
            results, n = timed_loop(run, jobs, args.seconds, passes)
            metrics, info = summarise(results)
            info["passes"] = n
            info.update(tally(jobs, [(i, r[1]) for i, r in
                                     enumerate(results)], known))
            info["nondeterministic"] = sum(r[2] for r in results)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" \
                else resource.RUSAGE_SELF
            metrics["peak_rss_mb"] = (
                resource.getrusage(who).ru_maxrss / 1024.0, "MB")
            result.update(info)
        result["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in metrics.items()}
        print(json.dumps(result))
        return 0
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
