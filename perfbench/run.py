#!/usr/bin/env python3
"""Benchmark of the crossed_poisson engine: one workload in one process.

Run from the repository root:

    python3 perfbench/run.py --workload solve-b --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

A run sets the workload up three times (fresh import of the package, the
first round's inputs built, one warm-up job per job kind) and reports the
median set-up time.  It then runs rounds of jobs, one job at a time (a closed
loop with a single client), until the jobs have taken ``--seconds`` seconds,
finishing the round it is in.  Outputs are checked after the timed phase.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from a
run with every layer wrapped (see tracer.py), whose spans are written to
``perfbench/traces/``.  Diagnostics go to stderr.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave the checkout as it was found

import argparse
import importlib
import json
import math
import random
import resource
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

from workloads import FAILED, WORKLOADS, WRONG, CliOutput

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = "crossed_poisson"
MODULES = ("scalars", "groups", "linalg", "polyvec", "pbw", "catalog",
           "qmoyal", "cohom", "cli")
SETUP_REPEATS = 3
# the one fault the workloads keep on purpose: check-bg accepts a generator
# with no inverse and returns a verdict instead of refusing the input
KNOWN_FAULT_KINDS = {"non-invertible"}


class JobError:
    """Output of a job whose entry point raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


def load_package():
    """Import the package afresh, as a new worker process would."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    return SimpleNamespace(package=sys.modules[PACKAGE], **mods)


def set_up(workload, params):
    """Import, build the round's inputs and warm up once per job kind."""
    t0 = time.perf_counter()
    cp = load_package()
    jobs = WORKLOADS[workload][1](cp, params)
    kinds = set()
    for job in jobs:
        if job.kind not in kinds:
            kinds.add(job.kind)
            try:
                job.run()
            except Exception:  # the timed copy of this job records the fault
                pass
    return cp, jobs, time.perf_counter() - t0


def checked(job, kept):
    """The job's verdict; output its check cannot even read is wrong."""
    try:
        return job.check(kept)
    except Exception:
        return WRONG


def round_params(workload, seed, r, probe):
    return WORKLOADS[workload][0](random.Random(f"{workload}:{seed}:{r}"), probe)


def measure(cp, workload, seed, jobs, seconds, tracer):
    """Run rounds until the jobs have taken ``seconds``; check the outputs.

    Round 0 was built in set-up; each later round is drawn and built between
    rounds, outside the timed intervals."""
    clock = time.perf_counter
    times, kept = [], []
    timed = 0.0
    out_bytes = 0
    mono = getattr(cp.qmoyal, "_mono_star", None)
    cache0 = mono.cache_info() if hasattr(mono, "cache_info") else None
    rounds = 0
    while True:
        if rounds:
            jobs = WORKLOADS[workload][1](
                cp, round_params(workload, seed, rounds, cp))
        round_start = clock()
        outs = []
        for job in jobs:
            if tracer is not None:
                tracer.begin_job(len(times))
            t0 = clock()
            try:
                out = job.run()
            except Exception as exc:
                out = JobError(exc)
            t1 = clock()
            if tracer is not None:
                tracer.end_job()
            times.append(t1 - t0)
            outs.append(out)
        timed += clock() - round_start
        rounds += 1
        for job, out in zip(jobs, outs):
            if isinstance(out, CliOutput):
                out_bytes += len(out.out.encode())
            kept.append((job, out if isinstance(out, JobError) else job.keep(out)))
        if timed >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cache1 = mono.cache_info() if cache0 is not None else None
    if tracer is not None:
        tracer.uninstall()
    status = [FAILED if isinstance(k, JobError) else checked(job, k)
              for job, k in kept]
    return SimpleNamespace(
        times=times, kinds=[job.kind for job, _ in kept], status=status,
        timed=timed, rounds=rounds, peak_rss_mb=peak_rss_mb,
        out_bytes=out_bytes, cache=(cache0, cache1),
        errors=[(job.what, k.text) for job, k in kept if isinstance(k, JobError)])


def end_to_end(run, setups):
    failed = [s == FAILED for s in run.status]
    wait = [math.inf if f else t for t, f in zip(run.times, failed)]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "job_s_p50": {"value": statistics.median(wait), "unit": "s"},
        "jobs_per_s": {"value": (len(failed) - sum(failed)) / run.timed,
                       "unit": "1/s"},
        "peak_rss_mb": {"value": run.peak_rss_mb, "unit": "MB"},
    }


def run_workload(workload, seed, seconds, trace):
    params = round_params(workload, seed, 0, load_package())
    setups = []
    for _ in range(SETUP_REPEATS):
        cp, jobs, took = set_up(workload, params)
        setups.append(took)
    tracer = None
    if trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install(cp.package)
    run = measure(cp, workload, seed, jobs, seconds, tracer)
    if trace:
        metrics, absent = tracer_mod.per_layer(tracer, len(run.times),
                                               run.out_bytes, run.cache)
        out_dir = HERE / "traces"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{workload}-seed{seed}.tsv.gz")
    else:
        metrics, absent = end_to_end(run, setups), []
    wrong = [k for k, s in zip(run.kinds, run.status) if s == WRONG]
    failed = [k for k, s in zip(run.kinds, run.status) if s == FAILED]
    return SimpleNamespace(
        result={"correct": not wrong, "attempted": len(run.status),
                "failed": len(failed), "metrics": metrics},
        run=run, setups=setups, wrong=wrong, failed=failed, absent=absent)


def report(workload, seed, trace, res):
    run = res.run
    log = sys.stderr
    print(f"# {workload} seed={seed} trace={trace} rounds={run.rounds} "
          f"jobs={len(run.times)} timed_s={run.timed:.3f} set-ups_s="
          + ",".join(f"{s:.3f}" for s in res.setups), file=log)
    for kind in sorted(set(res.failed)):
        print(f"# failed: {res.failed.count(kind)} {kind} jobs", file=log)
    for kind in sorted(set(res.wrong)):
        print(f"# WRONG: {res.wrong.count(kind)} {kind} jobs", file=log)
    for what, text in run.errors:
        print(f"# raised: {what}: {text}", file=log)
    for name, reason in res.absent:
        print(f"# per-layer absent: {name}: {reason}", file=log)


def self_check():
    """One round of every workload, untraced and traced, through every check."""
    good = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.perf_counter()
            res = run_workload(workload, 1, 0, trace)
            report(workload, 1, trace, res)
            unexpected = set(res.failed) - KNOWN_FAULT_KINDS
            ok = res.result["correct"] and not unexpected
            good &= ok
            print(f"{workload} trace={trace}: {'pass' if ok else 'FAIL'} "
                  f"({res.result['attempted']} jobs, {res.result['failed']} "
                  f"failed, {time.perf_counter() - t0:.1f} s)")
    return 0 if good else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload briefly through its checks")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / PACKAGE} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(args.workload, args.seed, args.trace, res)
    print(json.dumps(res.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
