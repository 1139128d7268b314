"""The option inventory of the public API: the parameters, with their
defaults, of every callable that `stringsep` exports, the fields of its
exported dataclasses and the members of its exported enum.  A parameter,
default or field added to the API fails this test until it is listed here
too, so a change that adds an option shows it in this list."""

import dataclasses
import enum
import inspect
import types

import stringsep


def _params(fn) -> str:
    return "(" + ", ".join(
        name if p.default is inspect.Parameter.empty else f"{name}={p.default!r}"
        for name, p in inspect.signature(fn).parameters.items()
    ) + ")"


def _fields(cls) -> str:
    out = []
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            out.append(f"{f.name}={f.default!r}")
        elif f.default_factory is not dataclasses.MISSING:
            out.append(f"{f.name}={f.default_factory.__name__}()")
        else:
            out.append(f.name)
    return ", ".join(out)


# name: parameters (callables, methods) or fields (dataclasses) or members (enum)
SURFACE = {
    "AbstractTopologicalGraph": "graph, allowed",
    "AbstractTopologicalGraph.permits": "(self, e1, e2)",
    "EdgeCut": "A",
    "Embedding": "values, seed, scale_index, anchors",
    "Embedding.spread": "(self)",
    "FlowSolution": "mode, congestion, commodities, load_duals=dict()",
    "FlowSolution.is_finite": "(self)",
    "Graph": "n, edges",
    "Graph.has_edge": "(self, u, v)",
    "Graph.vertices": "(self)",
    "Graph.induced": "(self, keep)",
    "Graph.components": "(self, removed=frozenset())",
    "Graph.is_connected": "(self)",
    "LpProblem": "objective",
    "LpProblem.add_rows": "(self, matrix, rel, rhs)",
    "LpSolution": "status, value, x, iterations, duals",
    "MengerCertificate": "cut, paths",
    "PathFlow": "paths",
    "PolylineCurve": "id, points",
    "PolylineCurve.validate": "(self)",
    "SegmentRelation": "DISJOINT, PROPER_CROSSING, TOUCHING, OVERLAPPING",
    "SeparatorResult": "cut, size, balance, trace",
    "StringRepresentation": "curves",
    "StringRepresentation.sorted_curves": "(self)",
    "VertexCut": "A, B, S",
    "WeakRealization": "atg, vertex_points, edge_curves",
    "WeakRealization.curve": "(self, e)",
    "balanced_edge_cut": "(g, beta)",
    "best_embedding": "(d, trials, seed)",
    "bourgain_sample": "(d, seed)",
    "check_separator": "(g, cut)",
    "crossing_count": "(w, e1, e2)",
    "decompose_to_paths": "(g, flows)",
    "derived_edge_weights": "(g, s)",
    "drawing_conflict_experiment": "(g, phi, trials, seed, vcong=None)",
    "duality_report": "(g, name='graph', seed=0)",
    "edge_congestion": "(g, allow_large=False)",
    "even_subword": "(word)",
    "expo_family": "(k)",
    "fhl_sweep": "(g, s, f)",
    "find_separator": "(g, seed=0, trials=None)",
    "generate": "(kind, params, seed=None)",
    "intersection_graph": "(rep)",
    "line_to_cut_sweep": "(g, f)",
    "lp_solve": "(problem)",
    "min_separator_exact": "(g)",
    "min_vertex_cut": "(g, xs, ys)",
    "parse_graph": "(text)",
    "pcr_lower_bound": "(n)",
    "random_segment_instance": "(count, seed, span=None)",
    "ratio_functional": "(g, mode, weights)",
    "segments_intersect": "(p, q, r, s)",
    "serialize_graph": "(g)",
    "shortest_path_metric": "(g, weights=None)",
    "sparsity_exact": "(g, mode)",
    "validate_weak_realization": "(w)",
    "vertex_congestion": "(g, allow_large=False)",
    "weak_to_strings": "(w)",
}


def surface() -> dict[str, str]:
    """Each exported callable's parameters, each exported dataclass's fields
    and public methods' parameters, and the exported enum's members."""
    out = {}
    for name, obj in sorted(vars(stringsep).items()):
        if name.startswith("_") or isinstance(obj, types.ModuleType) or not callable(obj):
            continue
        if isinstance(obj, enum.EnumMeta):
            out[name] = ", ".join(obj.__members__)
        elif dataclasses.is_dataclass(obj):
            out[name] = _fields(obj)
            for attr, fn in vars(obj).items():
                if inspect.isfunction(fn) and not attr.startswith("_"):
                    out[f"{name}.{attr}"] = _params(fn)
        else:
            out[name] = _params(obj)
    return out


def test_the_public_api_has_exactly_the_pinned_parameters_and_fields():
    assert surface() == SURFACE
