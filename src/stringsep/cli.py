"""Command-line front end: reproducible batch runs over the library.

Every source of randomness derives from the single --seed flag, and outputs
are serialized with sorted keys and repr'd floats, so identical invocations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import numpy as np

from . import congestion, cuts, embedding, experiments, geometry, metrics, topology
from .errors import ContractViolation, GenerationError, NoVertexCut, ParseError, SizeCapExceeded, StandardnessError
from .graphs import Graph, parse_graph

USAGE_ERRORS = (ParseError, ContractViolation, SizeCapExceeded, NoVertexCut,
                GenerationError, StandardnessError)


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:  # name the first bad byte's line as the parsers count
        line = len((data[: exc.start].decode() + ".").splitlines())
        raise ParseError("not UTF-8 text", line) from None


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _jdump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _load_graph_arg(args) -> Graph:
    if args.graph and args.strings:
        raise ContractViolation("give one of --graph or --strings, not both")
    if args.graph:
        return parse_graph(_read(args.graph))
    if args.strings:
        rep = geometry.parse_strings_file(_read(args.strings))
        g, _ = geometry.intersection_graph(rep)
        return g
    raise ContractViolation("one of --graph or --strings is required")


def _flow_json(sol: congestion.FlowSolution) -> dict:
    # JSON has no infinity: a disconnected graph's congestion is written as null
    return {
        "mode": sol.mode,
        "congestion": sol.congestion if sol.is_finite() else None,
        "commodities": [
            {
                "pair": list(pair),
                "flows": {f"{a}->{b}": w for (a, b), w in sorted(fl.items())},
            }
            for pair, fl in sorted(sol.commodities.items())
        ],
    }


def _cut_json(a, b, s, extra=None) -> dict:
    out = {"A": sorted(a), "B": sorted(b), "S": sorted(s)}
    if extra:
        out.update(extra)
    return out


def cmd_build_ig(args) -> int:
    rep = geometry.parse_strings_file(_read(args.strings))
    g, counts = geometry.intersection_graph(rep)
    payload = {
        "n": g.n,
        "edges": [list(e) for e in g.edges],
        "intersection_counts": [[i, j, c] for (i, j), c in sorted(counts.items())],
    }
    _write_out(args.out, _jdump(payload))
    return 0


def cmd_separator(args) -> int:
    g = _load_graph_arg(args)
    res = cuts.find_separator(g, seed=args.seed, trials=args.trials)
    payload = _cut_json(
        res.cut.A,
        res.cut.B,
        res.cut.S,
        {
            "size": res.size,
            "balance": list(res.balance),
            "sparsity_trace": [[sz, sp] for sz, sp in res.trace],
        },
    )
    _write_out(args.out, _jdump(payload))
    return 0


def cmd_congestion(args, mode: str) -> int:
    g = _load_graph_arg(args)
    sol = congestion.edge_congestion(g) if mode == "edge" else congestion.vertex_congestion(g)
    _write_out(args.out, _jdump(_flow_json(sol)))
    return 0


def cmd_sparsity(args) -> int:
    g = _load_graph_arg(args)
    val, cut = metrics.sparsity_exact(g, args.mode)
    if args.mode == "edge":
        payload = {
            "mode": "edge",
            "sparsity": f"{val.numerator}/{val.denominator}",
            "A": sorted(cut.A),
        }
    else:
        payload = {
            "mode": "vertex",
            "sparsity": f"{val.numerator}/{val.denominator}",
        }
        payload.update(_cut_json(cut.A, cut.B, cut.S))
    _write_out(args.out, _jdump(payload))
    return 0


def cmd_embed(args) -> int:
    g = _load_graph_arg(args)
    d = metrics.shortest_path_metric(g)
    trials = embedding.default_trials(g.n) if args.trials is None else args.trials
    emb = embedding.best_embedding(d, trials, args.seed)
    payload = {
        "f": list(emb.values),
        "anchors": sorted(emb.anchors),
        "scale_index": emb.scale_index,
        "spread": emb.spread(),
        "non_constant": not emb.is_constant,
    }
    _write_out(args.out, _jdump(payload))
    return 0


def cmd_sweep(args) -> int:
    g = _load_graph_arg(args)
    f = cuts._embed_or_fallback(g, args.seed, args.trials)
    res = cuts.fhl_sweep(g, np.ones(g.n), f)
    payload = _cut_json(
        res.A,
        res.B,
        res.S,
        {
            "sparsity": f"{res.sparsity.numerator}/{res.sparsity.denominator}",
            "bound": res.bound,
        },
    )
    _write_out(args.out, _jdump(payload))
    return 0


def cmd_expo(args) -> int:
    fam = topology.expo_family(args.k)
    text = topology.write_realization_file(fam.realization)
    if args.out:
        _write_out(args.out, text)
    counts = [
        topology.crossing_count(fam.realization, e, fam.spine) for e in fam.added
    ]
    summary = {
        "k": args.k,
        "spine_crossings": counts,
        "violations": len(topology.validate_weak_realization(fam.realization)),
    }
    sys.stdout.write(_jdump(summary))
    return 0


def cmd_weak2str(args) -> int:
    w = topology.parse_realization_file(_read(args.realization))
    rep, predicted = topology.weak_to_strings(w)
    _write_out(args.out, geometry.write_strings_file(rep))
    summary = {
        "curves": len(rep.curves),
        "predicted_graph": {"n": predicted.n, "edges": [list(e) for e in predicted.edges]},
    }
    sys.stdout.write(_jdump(summary))
    return 0


def cmd_evensub(args) -> int:
    res = experiments.even_subword(args.word)
    if res is None:
        sys.stdout.write("none\n")
    else:
        i, j = res
        sys.stdout.write(f"{i} {j} {args.word[i:j]}\n")
    return 0


def cmd_pcr_bound(args) -> int:
    val = experiments.pcr_lower_bound(args.n)
    if val.denominator == 1:
        sys.stdout.write(f"{val.numerator}\n")
    else:
        sys.stdout.write(f"{val.numerator}/{val.denominator}\n")
    return 0


def cmd_conflicts(args) -> int:
    g = _load_graph_arg(args)
    trials = 100 if args.trials is None else args.trials
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    sol = congestion.vertex_congestion(g)
    phi = congestion.decompose_to_paths(g, sol)
    stats = experiments.drawing_conflict_experiment(
        g, phi, trials=trials, seed=args.seed, vcong=sol.congestion
    )
    payload = {
        "trials": stats.trials,
        "mean": stats.mean,
        "variance": stats.variance,
        "upper_bound": stats.upper_bound,
        "lower_bound": None if stats.lower_bound is None else float(stats.lower_bound),
        "vcong": stats.vcong,
        "counts_head": list(stats.counts[:20]),
    }
    _write_out(args.out, _jdump(payload))
    return 0


def cmd_report(args) -> int:
    g = _load_graph_arg(args)
    name = args.name or (args.graph or args.strings or "graph")
    row = experiments.duality_report(g, name=name, seed=args.seed)
    _write_out(args.out, experiments.report_csv([row]))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stringsep",
        description="string-graph separators, congestion LPs, and curve geometry",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, graph=True, strings=True, out=True, seed=True, trials=False):
        if graph:
            p.add_argument("--graph", help="graph file: 'n m' then edge lines")
        if strings:
            p.add_argument("--strings", help="strings file: 'id: x0 y0 x1 y1 ...'")
        if out:
            p.add_argument("--out", help="output path (default: stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
        if trials:
            p.add_argument("--trials", type=int, default=None)

    p = sub.add_parser("build-ig", help="intersection graph of a strings file")
    common(p, graph=False, seed=False)
    p.set_defaults(fn=cmd_build_ig)

    p = sub.add_parser("separator", help="balanced separator via embed-and-sweep")
    common(p, trials=True)
    p.set_defaults(fn=cmd_separator)

    p = sub.add_parser("econg", help="exact edge congestion (LP)")
    common(p, seed=False)
    p.set_defaults(fn=lambda a: cmd_congestion(a, "edge"))

    p = sub.add_parser("vcong", help="exact vertex congestion (LP)")
    common(p, seed=False)
    p.set_defaults(fn=lambda a: cmd_congestion(a, "vertex"))

    p = sub.add_parser("sparsity", help="exact edge/vertex sparsity by enumeration")
    common(p, seed=False)
    p.add_argument("--mode", choices=("edge", "vertex"), default="edge")
    p.set_defaults(fn=cmd_sparsity)

    p = sub.add_parser("embed", help="best random line embedding of the hop metric")
    common(p, trials=True)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("sweep", help="embedding sweep for a sparse vertex cut")
    common(p, trials=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("expo", help="exponential-crossing family realization")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", help="write the weak-realization file here")
    p.set_defaults(fn=cmd_expo)

    p = sub.add_parser("weak2str", help="strings from a weak realization")
    p.add_argument("--realization", required=True)
    p.add_argument("--out", help="output strings file (default: stdout)")
    p.set_defaults(fn=cmd_weak2str)

    p = sub.add_parser("evensub", help="first all-even nonempty subword")
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_evensub)

    p = sub.add_parser("pcr-bound", help="pair-crossing lower bound C(n,5)/(n-4)")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_pcr_bound)

    p = sub.add_parser("conflicts", help="random-drawing conflict experiment")
    common(p, trials=True)
    p.set_defaults(fn=cmd_conflicts)

    p = sub.add_parser("report", help="duality report CSV row")
    common(p)
    p.add_argument("--name", help="label for the CSV row")
    p.set_defaults(fn=cmd_report)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (*USAGE_ERRORS, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:  # e.g. the n x n metric of a large graph
        sys.stderr.write(f"error: out of memory{': ' if str(exc) else ''}{exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
