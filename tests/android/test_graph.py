"""The in-repo directed graph against ``networkx.DiGraph``.

The APG and the taint flow graph are stored in
:class:`repro.android.graph.DiGraph`.  networkx, a test-only
dependency, is the oracle: built over every app of the paper window,
both containers must hold the same nodes, edges and attributes in the
same successor and predecessor order (the taint DFS, and so each
path's ``hops``, follows that order).
"""

from __future__ import annotations

import pytest

import repro.android.callgraph
import repro.android.taint
from repro.android.apg import build_apg
from repro.android.graph import DiGraph
from repro.android.packer import unpack
from repro.android.taint import build_flow_graph, find_taint_paths
from repro.corpus.appstore import CorpusSpec


class TestDiGraph:
    def test_attributes_merge_on_repeat(self):
        graph = DiGraph()
        graph.add_node("a", internal=False, method="m")
        graph.add_node("a", internal=True)
        graph.add_edge("a", "b", kind="call")
        graph.add_edge("a", "b", weight=2)
        assert graph.nodes["a"] == {"internal": True, "method": "m"}
        assert graph.nodes["b"] == {}
        assert graph.get_edge_data("a", "b") == {"kind": "call",
                                                 "weight": 2}

    def test_order_is_insertion_order(self):
        graph = DiGraph()
        for v in ("c", "a", "b"):
            graph.add_edge("s", v)
            graph.add_edge(v, "t")
        assert list(graph.successors("s")) == ["c", "a", "b"]
        assert list(graph.predecessors("t")) == ["c", "a", "b"]
        assert list(graph.nodes()) == ["s", "c", "t", "a", "b"]
        assert [n for n, _ in graph.nodes(data=True)] == list(graph.nodes())

    def test_absent_nodes_and_edges(self):
        graph = DiGraph()
        graph.add_edge("a", "b")
        assert "a" in graph and "z" not in graph
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("b", "a")
        assert not graph.has_edge("z", "a")
        assert graph.get_edge_data("z", "a") is None
        assert graph.get_edge_data("b", "a", default=0) == 0
        with pytest.raises(KeyError):
            list(graph.successors("z"))


def graph_layout(graph) -> list:
    """Every node with its attributes, its successors with edge
    attributes, and its predecessors -- all in iteration order."""
    return [
        (node, attrs,
         [(v, graph.get_edge_data(node, v)) for v in graph.successors(node)],
         list(graph.predecessors(node)))
        for node, attrs in graph.nodes(data=True)
    ]


def paper_window_apks():
    for app in CorpusSpec().iter_apps():
        apk = app.bundle.apk
        if apk.packed:
            unpack(apk)
        yield apk


def test_same_graphs_as_networkx_over_paper_window(monkeypatch):
    nx = pytest.importorskip("networkx")
    compared = 0
    for apk in paper_window_apks():
        ours = (build_apg(apk).graph, build_flow_graph(apk.dex),
                find_taint_paths(apk.dex))
        with monkeypatch.context() as mp:
            mp.setattr(repro.android.callgraph, "DiGraph", nx.DiGraph)
            mp.setattr(repro.android.taint, "DiGraph", nx.DiGraph)
            oracle = (build_apg(apk).graph, build_flow_graph(apk.dex),
                      find_taint_paths(apk.dex))
        assert isinstance(oracle[0], nx.DiGraph)
        assert graph_layout(ours[0]) == graph_layout(oracle[0]), apk.package
        assert graph_layout(ours[1]) == graph_layout(oracle[1]), apk.package
        assert ours[2] == oracle[2], apk.package
        compared += 1
    assert compared == len(CorpusSpec())
