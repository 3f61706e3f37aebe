"""Method call graph (MCG) construction.

Nodes are method signatures; a directed edge caller -> callee exists
for every ``invoke`` instruction.  Invocations of framework methods
(not present in the dex) become *external* nodes so sensitive-API call
sites stay visible in the graph.
"""

from __future__ import annotations

from repro.android.dex import DexFile, Method
from repro.android.graph import DiGraph

EDGE_CALL = "call"


def build_call_graph(dex: DexFile) -> DiGraph:
    """The MCG as a :class:`~repro.android.graph.DiGraph`.

    Node attributes: ``internal`` (bool), ``class_name``, ``method``.
    Edge attributes: ``kind`` = "call".
    """
    graph = DiGraph()
    for method in dex.all_methods():
        _ensure_node(graph, method.signature, method)
        for ins in method.invocations():
            callee = ins.target
            if callee not in graph:
                resolved = dex.resolve(callee)
                _ensure_node(graph, callee, resolved)
            graph.add_edge(method.signature, callee, kind=EDGE_CALL)
    return graph


def _ensure_node(graph: DiGraph, signature: str,
                 method: Method | None) -> None:
    if signature in graph:
        if method is not None and not graph.nodes[signature]["internal"]:
            graph.nodes[signature].update(
                internal=True, class_name=method.class_name,
                method=method.name,
            )
        return
    if method is not None:
        graph.add_node(signature, internal=True,
                       class_name=method.class_name, method=method.name)
    else:
        class_name = signature.split("->", 1)[0]
        name = signature.split("->", 1)[1].split("(", 1)[0] \
            if "->" in signature else signature
        graph.add_node(signature, internal=False, class_name=class_name,
                       method=name)


def callers_of(graph: DiGraph, signature: str) -> list[str]:
    if signature not in graph:
        return []
    return sorted(graph.predecessors(signature))


def callees_of(graph: DiGraph, signature: str) -> list[str]:
    if signature not in graph:
        return []
    return sorted(graph.successors(signature))


__all__ = ["build_call_graph", "callers_of", "callees_of", "EDGE_CALL"]
