"""Spans around the public functions of each stringsep module.

The wrappers are installed from the benchmark's own files; no line of the
package changes.  A function is replaced under every name a caller can look
it up by: each ``stringsep.*`` module attribute bound to it (both
``stringsep.metrics.shortest_path_metric`` and
``stringsep.cuts.shortest_path_metric``), or the class attribute for a
method.  Each span records its name, start, end and parent; per-layer
metrics are computed from the spans after the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Tracer.spans
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory while `active`; calls pass straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = Span(name, 0.0, parent=self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, note, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        with self.span(name) as rec:
            result = fn(*args, **kwargs)
        if note is not None:
            rec.attrs.update(note(args, result))
        return result


def _note_cut(args, cert):
    return {"cut": len(cert.cut)}


def _note_sweep(args, res):
    return {"slack": float(res.sparsity) / res.bound}


def _note_trials(args, emb):
    return {"trials": args[1]}


def _note_lp(args, sol):
    problem = args[0]
    # lp_solve's tableau: structural columns, one slack per inequality and one
    # artificial per "=" or ">=" row after rows with rhs < 0 are negated, and
    # the right-hand side
    flip = {"<=": ">=", ">=": "<=", "=": "="}
    rels = [rel if rhs >= 0 else flip[rel] for _, rel, rhs in problem.rows]
    cols = problem.n_vars + sum(r != "=" for r in rels) + sum(r != "<=" for r in rels) + 1
    rows = len(rels)
    return {
        "rows": rows,
        "cols": cols,
        "tableau_mb": rows * cols * 8 / 2**20,
        "iterations": sol.iterations,
    }


# (module, attribute, note): the span is named "<module>.<attribute>"
TARGETS = (
    ("geometry", "random_segment_instance", None),
    ("geometry", "parse_strings_file", None),
    ("geometry", "validate_standardness", None),
    ("geometry", "intersection_graph", None),
    ("graphs", "Graph.induced", None),
    ("graphs", "Graph.components", None),
    ("graphs", "check_separator", None),
    ("graphs", "parse_graph", None),
    ("metrics", "shortest_path_metric", None),
    ("embedding", "best_embedding", _note_trials),
    ("cuts", "find_separator", None),
    ("cuts", "fhl_sweep", _note_sweep),
    ("cuts", "min_vertex_cut", _note_cut),
    ("lp", "lp_solve", _note_lp),
    ("congestion", "edge_congestion", None),
    ("congestion", "vertex_congestion", None),
    ("congestion", "decompose_to_paths", None),
    ("cli", "main", None),
)


def install(tracer: Tracer) -> list:
    """Wrap every target under every name it is bound to; returns the undo list."""
    for mod in {m for m, _, _ in TARGETS}:
        importlib.import_module(f"stringsep.{mod}")
    modules = [m for k, m in sys.modules.items() if k == "stringsep" or k.startswith("stringsep.")]
    undo = []
    for mod, attr, note in TARGETS:
        name = f"{mod}.{attr}"
        owner = sys.modules[f"stringsep.{mod}"]
        if "." in attr:  # a method: patch the class attribute
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, _wrapper(tracer, name, original, note))
            continue
        original = getattr(owner, attr)
        wrapper = _wrapper(tracer, name, original, note)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def _wrapper(tracer, name, fn, note):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, note, args, kwargs)

    return traced


# Per-layer metric: (unit, how, span names).  "total" sums the duration of
# the outermost spans of those names, "self" their duration minus the time
# their child spans cover, "calls" counts them, "sum:<attr>" and
# "max:<attr>" aggregate a recorded attribute.
LAYER_METRICS = {
    "cuts.maxflow_s": ("s", "total", ("cuts.min_vertex_cut",)),
    "cuts.maxflow_calls": ("count", "calls", ("cuts.min_vertex_cut",)),
    "cuts.cut_units": ("count", "sum:cut", ("cuts.min_vertex_cut",)),
    "cuts.sweep_s": ("s", "total", ("cuts.fhl_sweep",)),
    "cuts.rounds": ("count", "calls", ("cuts.fhl_sweep",)),
    "cuts.self_s": ("s", "self", ("cuts.find_separator",)),
    "cuts.sweep_slack_max": ("ratio", "max:slack", ("cuts.fhl_sweep",)),
    "embedding.best_s": ("s", "total", ("embedding.best_embedding",)),
    "embedding.trials": ("count", "sum:trials", ("embedding.best_embedding",)),
    "metrics.apsp_s": ("s", "total", ("metrics.shortest_path_metric",)),
    "metrics.apsp_calls": ("count", "calls", ("metrics.shortest_path_metric",)),
    "lp.solve_s": ("s", "total", ("lp.lp_solve",)),
    "lp.iterations": ("count", "sum:iterations", ("lp.lp_solve",)),
    "lp.rows": ("count", "max:rows", ("lp.lp_solve",)),
    "lp.cols": ("count", "max:cols", ("lp.lp_solve",)),
    "lp.tableau_mb": ("MB", "max:tableau_mb", ("lp.lp_solve",)),
    "congestion.self_s": ("s", "self", ("congestion.edge_congestion", "congestion.vertex_congestion")),
    "congestion.decompose_s": ("s", "total", ("congestion.decompose_to_paths",)),
    "geometry.gen_s": ("s", "total", ("geometry.random_segment_instance",)),
    "geometry.ig_s": ("s", "total", ("geometry.intersection_graph",)),
    "geometry.standardness_s": ("s", "total", ("geometry.validate_standardness",)),
    "geometry.parse_s": ("s", "total", ("geometry.parse_strings_file",)),
    "graphs.induced_s": ("s", "total", ("graphs.Graph.induced",)),
    "graphs.components_s": ("s", "total", ("graphs.Graph.components",)),
    "graphs.check_separator_s": ("s", "total", ("graphs.check_separator",)),
    "cli.self_s": ("s", "self", ("cli.main",)),
}


def layer_values(spans: list[Span], phase_counts: dict[str, int]) -> dict[str, tuple[int, float]]:
    """Per metric, (calls, value) over the spans under the phase spans.

    Spans under a phase named "pass" are averaged over the passes; spans
    under "setup" are taken as they are.  Values are per set-up plus per pass.
    """
    phase_of: list[str | None] = []
    for s in spans:
        if s.parent is None:
            phase_of.append(s.name if s.name in phase_counts else None)
        else:
            phase_of.append(phase_of[s.parent])
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    out = {}
    for metric, (_, how, names) in LAYER_METRICS.items():
        calls, value = 0, 0.0
        for i, s in enumerate(spans):
            phase = phase_of[i]
            if s.name not in names or phase is None:
                continue
            calls += 1
            share = 1.0 / phase_counts[phase]
            if how == "total":
                if not _nested_in_same(spans, i):
                    value += s.duration * share
            elif how == "self":
                value += (s.duration - child_time[i]) * share
            elif how == "calls":
                value += share
            elif how.startswith("sum:"):
                value += s.attrs[how[4:]] * share
            else:
                value = max(value, s.attrs[how[4:]])
        out[metric] = (calls, value)
    return out


def _nested_in_same(spans: list[Span], i: int) -> bool:
    name, p = spans[i].name, spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
