"""Self-test of the benchmark at toy size:  python3 perfbench/selftest.py

Runs every workload untraced and traced, and checks that the result carries
every metric BENCHMARK.json names, that each expected span fired and no
other layer's did, and that planted bad outputs (a separator with an A-B
edge, a congestion value off by 1e-6) are counted as failures.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from stringsep import geometry  # noqa: E402

SEED = 7  # not the default seed, whose stored fingerprints are of the full corpus


def require(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def check_metrics(workroot: Path) -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in workloads.WORKLOADS:
        plain = worker.run(name, SEED, 0.0, traced=False, toy=True, workroot=workroot)
        traced = worker.run(name, SEED, 0.0, traced=True, toy=True, workroot=workroot)
        for runs, key in (([plain], "end_to_end"), ([plain, traced], "per_layer")):
            report, line = run.result(name, SEED, 0.0, runs)
            require(line["correct"] and line["failed"] == 0, f"{name}: {report['errors']}")
            missing = [m["name"] for m in spec[key] if m["name"] not in line["metrics"]]
            require(not missing, f"{name}: {key} metrics missing: {missing}")
            for m in spec[key]:
                require(line["metrics"][m["name"]]["unit"] == m["unit"], f"{name}: unit of {m['name']}")
        layers = report["trace"]["layers"]
        require("missing" not in layers.values(), f"{name}: missing spans: {layers}")
        require(not report["trace"]["unexpected_spans"],
                f"{name}: unexpected spans {report['trace']['unexpected_spans']}")
        print(f"ok  {name}: all metrics present")


def tampered(job, spoil):
    """The job with its output spoiled after it runs."""
    def run_and_spoil():
        return spoil(job.run())
    return workloads.Job(job.name, run_and_spoil, job.check)


def check_planted_separator(workroot: Path) -> None:
    wl = workloads.WORKLOADS["sep_dense"]
    workdir = Path(tempfile.mkdtemp(dir=workroot))
    corpus = wl.build(SEED, workdir, wl.toy)
    src = workdir / "sep000.strings"
    out = workdir / "sep000.json"
    g, _ = geometry.intersection_graph(geometry.parse_strings_file(src.read_text(encoding="utf-8")))

    def add_ab_edge(rc):
        cut = json.loads(out.read_text(encoding="utf-8"))
        a, s = set(cut["A"]), set(cut["S"])
        v = next(v for v in sorted(s) if g.adjacency[v] & a)  # an S vertex next to A
        cut["S"].remove(v)
        cut["B"] = sorted(cut["B"] + [v])
        cut["size"] -= 1
        out.write_text(json.dumps(cut), encoding="utf-8")
        return rc

    corpus.jobs[0] = tampered(corpus.jobs[0], add_ab_edge)
    res = worker.measure(corpus, 0.0, None)
    require(res["failed"] / res["attempted"] > 0 and any("joins A and B" in e for e in res["errors"]),
            f"planted A-B edge not counted: {res['errors']}")
    print(f"ok  planted A-B edge counted: fail_ratio {res['failed']}/{res['attempted']}")


def check_planted_congestion(workroot: Path) -> None:
    wl = workloads.WORKLOADS["congestion_lp"]
    corpus = wl.build(SEED, Path(tempfile.mkdtemp(dir=workroot)), wl.toy)

    def nudge(res):
        res[0].congestion += 1e-6
        return res

    corpus.jobs[0] = tampered(corpus.jobs[0], nudge)
    res = worker.measure(corpus, 0.0, None)
    require(res["failed"] / res["attempted"] > 0, f"congestion off by 1e-6 not counted: {res['errors']}")
    print(f"ok  planted congestion error counted: fail_ratio {res['failed']}/{res['attempted']} "
          f"({res['errors'][0]})")


def main() -> int:
    workroot = HERE / "_work"
    workroot.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workroot) as tmp:
        check_planted_separator(Path(tmp))
        check_planted_congestion(Path(tmp))
        check_metrics(Path(tmp))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
