"""Benchmark of the stringsep separator, embedding and congestion paths.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each run starts a job process
(perfbench/worker.py) with one BLAS thread, which generates the workload's
inputs from the seed, times closed-loop passes over its jobs for about
--seconds, and checks every output outside the timed region.  The
second-to-last line printed is a JSON report (environment, corpus and output
digests, samples, errors); the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 runs an untraced job
process and then a traced one, each for half of --seconds, and reports the
per-layer metrics, including the tracing overhead.  Exits 1 without a result
when the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
RUN_LIMIT_S = 170  # the whole run, both job processes included
# one BLAS thread; a fixed string-hash seed, so runs differ only by their inputs
JOB_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONHASHSEED": "0"}
QUALITY_METRICS = ("sep_size_cal", "embed_spread_ratio")


class RunError(Exception):
    pass


def spawn(args, traced: bool, seconds: float, workroot: Path, deadline: float) -> dict:
    """Run one job process that measures for `seconds`; returns the JSON
    object it prints last."""
    env = dict(os.environ, **JOB_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(int(traced)), "--workroot", str(workroot)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"job process exceeded the {RUN_LIMIT_S} s limit") from None
    if proc.returncode != 0:
        raise RunError(f"job process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError("job process printed no result")
    return json.loads(lines[-1])


def check_corpus(res: dict) -> str:
    """Compare the inputs' SHA-256 with the stored fingerprints of the default seed."""
    if res["seed"] != DEFAULT_SEED:
        return "not stored for this seed"
    stored = json.loads((HERE / "fingerprints.json").read_text(encoding="utf-8"))
    return "match" if stored.get(res["workload"]) == res["inputs"] else "mismatch"


def tail(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    for p in (99, 90):
        if len(samples) * (100 - p) >= 1000:
            out[f"p{p}"] = statistics.quantiles(samples, n=100)[p - 1]
            break
    return out


def summary(res: dict) -> dict:
    return {
        "job_s": tail(res["job_s"]),
        "wall_s": {"median": statistics.median(res["pass_s"]), "n": len(res["pass_s"]),
                   "samples": res["pass_s"]},
        "setup_s": {"median": statistics.median(res["setup_s"]), "n": len(res["setup_s"]),
                    "samples": res["setup_s"]},
        "peak_rss_mb": res["peak_rss_mb"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "fail_ratio": res["failed"] / res["attempted"],
        "errors": res["errors"][:10],
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_layer(untraced: dict, traced: dict) -> tuple[dict, dict]:
    """The per-layer result metrics and their report.  A metric whose expected
    span never fired is missing: left out of the result, never reported as 0.
    One of a layer the workload does not use is n/a, reported as 0."""
    out, report = {}, {}
    for name, rec in traced["layers"].items():
        unit = tracing.LAYER_METRICS[name][0]
        report[name] = rec["value"] if rec["status"] == "ok" else rec["status"]
        if rec["status"] != "missing":
            out[name] = metric(rec["value"] if rec["status"] == "ok" else 0.0, unit)
    for name in QUALITY_METRICS:
        applies = traced["quality_name"] == name
        if applies and traced["quality"] is None:
            report[name] = "missing"
            continue
        report[name] = traced["quality"] if applies else "n/a"
        out[name] = metric(traced["quality"] if applies else 0.0, "ratio")
    wall = statistics.median(traced["pass_s"])
    overhead = wall / statistics.median(untraced["pass_s"]) - 1.0
    out["trace.overhead"] = metric(overhead, "ratio")
    report["trace.overhead"] = overhead
    shares = {name: report[name] / wall for name in ("cuts.maxflow_s", "lp.solve_s")
              if isinstance(report[name], float)}
    if all(isinstance(report[n], float) for n in ("metrics.apsp_s", "embedding.best_s")):
        shares["metrics.apsp_s+embedding.best_s"] = (report["metrics.apsp_s"] + report["embedding.best_s"]) / wall
    return out, {"layers": report, "share_of_traced_wall": shares,
                 "unexpected_spans": traced["unexpected_spans"], "traced_wall_s": wall}


def result(workload: str, seed: int, seconds: float, runs: list[dict]) -> tuple[dict, dict]:
    """The report and the result line from the job processes' outputs: the
    untraced one, then the traced one if there is one."""
    untraced = runs[0]
    corpus = check_corpus(untraced)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if corpus == "mismatch":  # a different workload: nothing measured counts
        failed = attempted
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "env": untraced["env"],
        "corpus": {"fingerprints": corpus, "inputs": untraced["inputs"]},
        "outputs": untraced["outputs"],
        **summary(untraced),
        "quality": {untraced["quality_name"]: untraced["quality"]} if untraced["quality_name"] else {},
    }
    if len(runs) > 1:
        metrics, report["trace"] = per_layer(untraced, runs[1])
        report["trace"]["run"] = summary(runs[1])
    else:
        metrics = {
            "wall_s": metric(report["wall_s"]["median"], "s"),
            "setup_s": metric(report["setup_s"]["median"], "s"),
            "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
        }
    report["fail_ratio"] = failed / attempted
    correct = failed == 0 and all(r["setup_ok"] for r in runs)
    return report, {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run raises SystemExit, so that subprocess.run kills and
    # reaps the job process and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "stringsep").is_dir():
        sys.stderr.write(f"error: no stringsep sources under {ROOT / 'src'}\n")
        return 1

    deadline = time.monotonic() + RUN_LIMIT_S
    workroot = ROOT / "perfbench" / "_work"
    workroot.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=workroot) as tmp:
            seconds = args.seconds / 2 if args.trace else args.seconds
            runs = [spawn(args, False, seconds, Path(tmp), deadline)]
            if args.trace:
                runs.append(spawn(args, True, seconds, Path(tmp), deadline))
    except RunError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    report, line = result(args.workload, args.seed, args.seconds, runs)
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
