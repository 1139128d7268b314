"""The job process of one benchmark run: set-up, timed passes, checks, spans.

run.py starts it with one BLAS thread and reads the JSON object it prints as
its last line.  One client sends one job at a time (a closed loop).  A pass
runs every job of the corpus once; passes repeat while another one is
expected to end within --seconds, and there is always at least one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 25
SETUP_TARGET_S = 1.0  # fast set-ups repeat until they add up to this
SETUP_BATCH_S = 0.2  # a repetition of a faster set-up builds it this long
MAX_PASSES = 1000
WORST = {"sep_size_cal": max, "embed_spread_ratio": min}  # over a pass's jobs


@contextmanager
def phase(tracer, name):
    """Trace the block as a top-level span named `name`, if tracing."""
    if tracer is None:
        yield
        return
    tracer.active = True
    try:
        with tracer.span(name):
            yield
    finally:
        tracer.active = False


def set_up(wl, seed, workdir, size, tracer):
    """Generate and write the inputs several times (once when tracing); returns
    the corpus, the time per set-up of each repetition, and an error if they
    disagreed.

    A set-up shorter than SETUP_BATCH_S is built that long in each repetition,
    after one untimed build, and timed per build: a single build of a few
    milliseconds reads the machine's speed of that instant, which flips
    between two levels far apart several times a second.
    """
    if tracer is not None:
        with phase(tracer, "setup"):
            t0 = time.perf_counter()
            corpus = wl.build(seed, workdir, size)
            return corpus, [time.perf_counter() - t0], None
    t0 = time.perf_counter()
    corpus = wl.build(seed, workdir, size)
    first = time.perf_counter() - t0
    batch = max(1, int(SETUP_BATCH_S / first))
    times, error = ([first] if batch == 1 else []), None
    while len(times) < SETUP_MIN_REPS or (
        sum(times) * batch < SETUP_TARGET_S and len(times) < SETUP_MAX_REPS
    ):
        t0 = time.perf_counter()
        for _ in range(batch):
            again = wl.build(seed, workdir, size)
        times.append((time.perf_counter() - t0) / batch)
        if again.inputs != corpus.inputs:
            error = "set-up is not deterministic: inputs differ between repetitions"
        corpus = again
    return corpus, times, error


def judge(job, raw) -> workloads.Verdict:
    if isinstance(raw, Exception):
        return workloads.Verdict("", f"raised {type(raw).__name__}: {raw}")
    try:
        return job.check(raw)
    except Exception as exc:  # a malformed output must count as a failure, not stop the run
        return workloads.Verdict("", f"check raised {type(exc).__name__}: {exc}")


def run_pass(jobs):
    """Run every job once; returns the pass's wall time, each job's time, and
    what each job returned."""
    raws, times = [], []
    t0 = time.perf_counter()
    for job in jobs:
        t = time.perf_counter()
        try:
            raws.append(job.run())
        except Exception as exc:  # recorded and counted as a failed job
            raws.append(exc)
        times.append(time.perf_counter() - t)
    return time.perf_counter() - t0, times, raws


def measure(corpus, seconds, tracer) -> dict:
    """Timed passes in a closed loop, each checked outside the timed region.

    With more than one job, the first runs once untimed before the passes:
    it warms lazy imports and caches, and its output must repeat byte for
    byte in the first pass.
    """
    jobs = corpus.jobs
    passes, job_s, errors, first = [], [], [], None
    attempted = failed = 0
    quality, peak_rss_mb = [], None
    warm = None
    if len(jobs) > 1:
        _, _, raws = run_pass(jobs[:1])
        warm = judge(jobs[0], raws[0])
        attempted += 1
        if warm.error is not None:
            failed += 1
            errors.append(f"{jobs[0].name}: warm-up: {warm.error}")
    start = time.perf_counter()
    while not passes or (
        time.perf_counter() - start + statistics.median(passes) <= seconds and len(passes) < MAX_PASSES
    ):
        with phase(tracer, "pass"):
            wall, times, raws = run_pass(jobs)
        passes.append(wall)
        job_s.extend(times)
        if peak_rss_mb is None:  # before the checks allocate anything
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdicts = [judge(job, raw) for job, raw in zip(jobs, raws)]
        if first is None:
            first = verdicts
            quality = [v.quality for v in verdicts if v.quality is not None]
            if warm is not None and warm.error is None and verdicts[0].digest != warm.digest:
                failed += 1
                errors.append(f"{jobs[0].name}: output differs from the warm-up run")
        for job, v, v0 in zip(jobs, verdicts, first):
            attempted += 1
            error = v.error
            if error is None and v.digest != v0.digest:
                error = "output differs from the first pass"
            if error is not None:
                failed += 1
                errors.append(f"{job.name}: {error}")
    return {
        "pass_s": passes,
        "job_s": job_s,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "outputs": {job.name: v.digest for job, v in zip(jobs, first)},
        "quality": quality,
        "peak_rss_mb": peak_rss_mb,
    }


def layer_report(tracer, spans_expected, n_passes) -> dict:
    """Per-layer metrics with their status: ok, missing (an expected span never
    fired) or n/a (the workload does not use that layer)."""
    values = tracing.layer_values(tracer.spans, {"setup": 1, "pass": n_passes})
    out = {}
    for metric, (calls, value) in values.items():
        _, _, names = tracing.LAYER_METRICS[metric]
        expected = any(n in spans_expected for n in names)
        status = "ok" if calls else "missing" if expected else "n/a"
        out[metric] = {"status": status, "calls": calls, "value": value}
    fired = {s.name for s in tracer.spans if s.parent is not None}
    return {"layers": out, "unexpected_spans": sorted(fired - spans_expected - {"setup", "pass"})}


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build report varies between versions
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def run(name, seed, seconds, traced, toy=False, workroot=None) -> dict:
    wl = workloads.WORKLOADS[name]
    size = wl.toy if toy else wl.full
    tracer = tracing.Tracer() if traced else None
    undo = tracing.install(tracer) if traced else []
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workroot))
    try:
        corpus, setup_times, setup_error = set_up(wl, seed, workdir, size, tracer)
        result = measure(corpus, seconds, tracer)
    finally:
        tracing.uninstall(undo)
        shutil.rmtree(workdir, ignore_errors=True)
    if setup_error is not None:
        result["errors"].insert(0, setup_error)
    result.update(
        workload=name,
        seed=seed,
        traced=traced,
        setup_s=setup_times,
        setup_ok=setup_error is None,
        inputs=corpus.inputs,
        quality_name=wl.quality,
        quality=WORST[wl.quality](result["quality"]) if wl.quality and result["quality"] else None,
        env=environment(),
    )
    if traced:
        result.update(layer_report(tracer, wl.spans, len(result["pass_s"])))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workroot", required=True, help="directory for the run's inputs and outputs")
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), workroot=args.workroot)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
