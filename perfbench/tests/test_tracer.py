import random
import sys

import pytest

import layers
from tracer import NO_PARENT, Tracer, aggregate

import resoplus
from resoplus import dtfooling, pdt, tseitin


def _span(tracer, name, start, end, parent, item=0, error=0):
    tracer.name_id.append(tracer._intern(name))
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.parent.append(parent)
    tracer.item_of.append(item)
    tracer.error.append(error)
    return len(tracer.start) - 1


def test_self_time_on_a_nested_span_tree():
    t = Tracer()
    root = _span(t, "pdt.coin_game", 0.0, 10.0, NO_PARENT)
    mid = _span(t, "blocks.closure", 1.0, 5.0, root)
    _span(t, "f2.rank_of_rows", 2.0, 3.0, mid)
    _span(t, "f2.rank_of_rows", 3.5, 4.0, mid)
    _span(t, "gadget.sample_lifted", 6.0, 9.0, root)
    _span(t, "blocks.closure", 20.0, 30.0, NO_PARENT, item=-1)  # set-up: not counted
    assert t.self_times() == [3.0, 2.5, 1.0, 0.5, 3.0, 10.0]
    per_fn, per_layer = aggregate(t, layers.layer_of)
    assert per_fn["f2.rank_of_rows"] == {"calls": 2, "self_s": 1.5}
    assert per_fn["blocks.closure"] == {"calls": 1, "self_s": 2.5}
    assert per_layer["pdt"]["self_s"] == 3.0
    assert per_layer["gadget"]["self_s"] == 3.0
    total = sum(v["self_s"] for v in per_layer.values())
    assert total == 10.0  # self times partition the root span


def test_errors_count_where_they_leave_a_layer():
    t = Tracer()
    t.error_types = [ValueError, dtfooling.InconsistentConditionError]
    root = _span(t, "pdt.coin_game", 0.0, 4.0, NO_PARENT, error=1)
    inner = _span(t, "pdt.block_complete", 1.0, 3.0, root, error=1)
    _span(t, "blocks.closure", 1.5, 2.0, inner, error=1)
    _span(t, "dtfooling.exact_root_distribution", 5.0, 6.0, NO_PARENT, error=2)
    _, per_layer = aggregate(t, layers.layer_of, declared=(dtfooling.InconsistentConditionError,))
    assert per_layer["blocks"]["errors"] == 1
    assert per_layer["pdt"]["errors"] == 1  # raised inside pdt, left pdt once
    assert per_layer["dtfooling"]["errors"] == 0  # a declared outcome


def test_wrapper_returns_the_same_results_and_raises_the_same_exceptions():
    t = Tracer()
    t.item = 0

    def divide(a, b=1):
        """Docstring survives."""
        return a / b

    traced = t.span_wrapper("f2.divide", divide)
    assert traced(6, b=3) == divide(6, b=3)
    with pytest.raises(ZeroDivisionError) as raised:
        traced(1, 0)
    assert type(raised.value) is ZeroDivisionError
    assert traced.__name__ == "divide" and traced.__doc__ == "Docstring survives."
    assert t.error_types == [ZeroDivisionError]
    assert list(t.error) == [0, 1]
    counted = t.count_wrapper("f2.divide_count", divide)
    assert counted(8, 2) == 4.0
    assert t.counts["f2.divide_count"] == 1


def _bindings():
    """Every (owner, name) -> object binding the tracer may patch."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if mod is not None and (key == "resoplus" or key.startswith("resoplus.")):
            for name, value in vars(mod).items():
                if callable(value):
                    out[(key, name)] = value
    for cls in (tseitin.Graph, tseitin.EdgePartialAssignment, pdt.GreedyCutStrategy, pdt.RandomEdgeStrategy):
        for name, value in vars(cls).items():
            out[(cls.__qualname__, name)] = value
    return out


def _targets():
    return layers.targets({name: getattr(resoplus, name) for name in layers.LAYERS})


def test_install_patches_every_alias_and_uninstall_restores_them():
    before = _bindings()
    t = Tracer()
    t.install(_targets())
    try:
        assert pdt.dtf_sample is dtfooling.sample  # the alias follows the patch
        assert pdt.dtf_sample is not before[("resoplus.pdt", "dtf_sample")]
        assert resoplus.check is resoplus.resproof.check
        assert getattr(tseitin.Graph.incident, "__wrapped_by_tracer__", False)
        patched = {(owner, attr) for owner, attr, _ in t._patches}
        assert (pdt, "dtf_sample") in patched and (resoplus, "pdt_refute") in patched
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_library_calls_match_untraced_ones():
    graph = tseitin.complete_graph(5)
    rho = tseitin.EdgePartialAssignment.empty(graph)

    def work():
        drawn = dtfooling.sample(rho, random.Random(3))
        transcript, final = pdt.run_unlifted_game(
            rho, pdt.GreedyCutStrategy(), drawn.assignment, 3, 1, random.Random(4))
        try:
            dtfooling.exact_root_distribution(rho, {0: 1, 1: 1, 2: 1, 3: 1})
            raised = None
        except Exception as exc:  # compare what the library raises
            raised = type(exc)
        return drawn, transcript, final, raised

    plain = work()
    t = Tracer()
    t.install(_targets())
    t.item = 0
    try:
        traced = work()
    finally:
        t.uninstall()
    assert traced == plain
    per_fn, _ = aggregate(t, layers.layer_of)
    assert per_fn["dtfooling.sample"]["calls"] == 1
    assert per_fn["tseitin.Graph.incident"]["calls"] > 0
    assert per_fn["pdt.GreedyCutStrategy.next_edge"]["calls"] > 0
