"""What the traced run wraps, and the per-layer metrics it reports.

A layer is one library module.  The traced functions of a layer are its
public module-level functions (generator functions excepted: their work
runs in the caller that consumes them) plus the methods listed below.
``_bits`` is not a layer; its helpers run inside their callers' spans.
"""
from __future__ import annotations

import inspect

from tracer import aggregate

LAYERS = ("f2", "blocks", "gadget", "lemmalab", "tseitin", "dtfooling", "pdt", "resproof", "cnf")

METHODS = {
    "tseitin": ("Graph.incident", "Graph.components", "EdgePartialAssignment.extend"),
    "pdt": ("GreedyCutStrategy.next_edge", "RandomEdgeStrategy.next_edge"),
}

# Hot leaf helpers whose calls are counted without a span; their time stays
# in the calling span.
COUNT_ONLY = {"f2.reduce_against", "gadget.count_preimages"}


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _rows_in(stats, args, kwargs, result, exc):
    stats["rows_in"] += len(_arg(args, kwargs, 1, "pairs"))


def _points_out(stats, args, kwargs, result, exc):
    if exc is None:
        stats["points_out"] += len(result)


def _blocks_in(stats, args, kwargs, result, exc):
    stats["blocks_in"] += _arg(args, kwargs, 1, "layout").n


def _points_swept(stats, args, kwargs, result, exc):
    stats["points_swept"] += 1 << _arg(args, kwargs, 0, "layout").width


def _inconsistent(stats, args, kwargs, result, exc):
    from resoplus.dtfooling import InconsistentConditionError

    stats["inconsistent"] += isinstance(exc, InconsistentConditionError)


def _queries(stats, args, kwargs, result, exc):
    if exc is None:
        rho = _arg(args, kwargs, 0, "rho")
        stats["queries"] += len(result[1].entries) - len(rho.entries)


def _steps(stats, args, kwargs, result, exc):
    if exc is None:
        stats["steps"] += len(result.steps)


def _nodes_out(stats, args, kwargs, result, exc):
    if exc is None:
        stats["nodes_out"] += len(result.nodes)


def _checked(stats, args, kwargs, result, exc):
    stats["nodes_checked"] += len(_arg(args, kwargs, 0, "dag").nodes)
    if exc is None:
        stats["rejected"] += not result.ok


PROBES = {
    "f2.space_from_pairs": _rows_in,
    "f2.points_array": _points_out,
    "blocks.closure": _blocks_in,
    "lemmalab.cube_counts": _points_swept,
    "dtfooling.exact_root_distribution": _inconsistent,
    "pdt.run_unlifted_game": _queries,
    "pdt.coin_game": _steps,
    "resproof.pdt_refute": _nodes_out,
    "resproof.check": _checked,
}

# Per-function metrics named in the benchmark: function -> stats it reports.
FUNCTION_METRICS = {
    "f2.space_from_pairs": ("calls", "self_s", "rows_in"),
    "f2.intersect": ("calls", "self_s"),
    "f2.is_subspace": ("calls", "self_s"),
    "f2.rank_of_rows": ("calls", "self_s"),
    "f2.reduce_against": ("calls",),
    "f2.points_array": ("calls", "points_out"),
    "blocks.is_safe": ("calls", "self_s"),
    "blocks.amortized_closure": ("calls", "self_s"),
    "blocks.closure": ("calls", "self_s", "blocks_in"),
    "gadget.count_in_space": ("calls", "self_s", "calls_per_item"),
    "gadget.sample_lifted": ("calls", "self_s"),
    "gadget.sample_in_space": ("calls", "self_s"),
    "gadget.walsh_spectrum": ("calls", "self_s"),
    "gadget.count_preimages": ("calls",),
    "lemmalab.cube_counts": ("calls", "self_s", "points_swept", "points_per_s"),
    "tseitin.analyze_partial": ("calls", "self_s"),
    "tseitin.tseitin_cnf": ("calls", "self_s"),
    "tseitin.Graph.incident": ("calls", "self_s"),
    "tseitin.Graph.components": ("calls", "self_s"),
    "tseitin.EdgePartialAssignment.extend": ("calls", "self_s"),
    "dtfooling.sample": ("calls", "self_s"),
    "dtfooling.root_of": ("calls", "self_s"),
    "dtfooling.exact_root_distribution": ("calls", "self_s", "inconsistent"),
    "pdt.run_unlifted_game": ("calls", "self_s", "queries"),
    "pdt.GreedyCutStrategy.next_edge": ("calls", "self_s"),
    "pdt.RandomEdgeStrategy.next_edge": ("calls", "self_s"),
    "pdt.block_complete": ("calls", "self_s"),
    "pdt.coin_game": ("calls", "self_s", "steps"),
    "pdt.lifted_dtfooling_distribution": ("calls", "self_s"),
    "pdt.exact_lifted_root_law": ("calls", "self_s"),
    "resproof.pdt_refute": ("calls", "self_s", "nodes_out"),
    "resproof.check": ("calls", "self_s", "nodes_checked", "rejected"),
    "cnf.find_model": ("calls", "self_s"),
}

UNITS = {
    "calls": "count", "self_s": "s", "share": "fraction", "errors": "count",
    "calls_per_item": "calls/item", "points_per_s": "1/s",
}
HIGHER_IS_BETTER = {"points_per_s", "rejected", "split_holds"}

# The layers meant to carry each workload: their summed share of item time
# must be at least SPLIT_SHARE for the intended split to hold.
INTENDED_SPLIT = {
    "lemma-b12": ("lemmalab",),
    "hardness-51": ("tseitin", "dtfooling", "pdt"),
    "lifted-game": ("blocks",),
    "tseitin-certify": ("gadget", "resproof", "f2"),
}
SPLIT_SHARE = 0.5


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        for stat in ("calls", "self_s", "share", "errors"):
            out.append((f"{layer}.{stat}", UNITS[stat], "lower"))
    for fn, stats in FUNCTION_METRICS.items():
        for stat in stats:
            out.append((f"{fn}.{stat}", UNITS.get(stat, "count"), "higher" if stat in HIGHER_IS_BETTER else "lower"))
    out.append(("trace.overhead_frac", "fraction", "lower"))
    out.append(("trace.split_holds", "bool", "higher"))
    return out


def targets(modules: dict) -> list[tuple]:
    """(name, owner, attribute, probe, count_only) for every traced callable."""
    out = []
    for layer in LAYERS:
        mod = modules[layer]
        for attr, obj in sorted(vars(mod).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__
                or inspect.isgeneratorfunction(obj)
            ):
                continue
            name = f"{layer}.{attr}"
            out.append((name, mod, attr, PROBES.get(name), name in COUNT_ONLY))
        for qual in METHODS.get(layer, ()):
            cls_name, meth = qual.split(".")
            name = f"{layer}.{qual}"
            out.append((name, getattr(mod, cls_name), meth, PROBES.get(name), False))
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer_metrics(tracer, declared, n_items: int, item_seconds: float) -> dict[str, float]:
    """Every per-layer metric from a traced run's spans and probe stats."""
    per_fn, per_layer = aggregate(tracer, layer_of, declared)
    values: dict[str, float] = {}
    for name, count in tracer.counts.items():
        per_fn[name]["calls"] += count
        per_layer[layer_of(name)]["calls"] += count
    for layer in LAYERS:
        agg = per_layer.get(layer, {"calls": 0, "self_s": 0.0, "errors": 0})
        values[f"{layer}.calls"] = agg["calls"]
        values[f"{layer}.self_s"] = agg["self_s"]
        values[f"{layer}.share"] = agg["self_s"] / item_seconds
        values[f"{layer}.errors"] = agg["errors"]
    for fn, stats in FUNCTION_METRICS.items():
        agg = per_fn.get(fn, {"calls": 0, "self_s": 0.0})
        probe = tracer.stats.get(fn, {})
        for stat in stats:
            if stat in ("calls", "self_s"):
                values[f"{fn}.{stat}"] = agg[stat]
            elif stat == "calls_per_item":
                values[f"{fn}.{stat}"] = agg["calls"] / n_items
            elif stat == "points_per_s":
                values[f"{fn}.{stat}"] = probe.get("points_swept", 0) / agg["self_s"] if agg["self_s"] else 0.0
            else:
                values[f"{fn}.{stat}"] = probe.get(stat, 0)
    return values


def split_holds(workload: str, values: dict[str, float]) -> tuple[bool, float]:
    share = sum(values[f"{layer}.share"] for layer in INTENDED_SPLIT[workload])
    return share >= SPLIT_SHARE, share
