"""The directed graph behind the APG and the taint flow graph.

Insertion-ordered successor, predecessor and node-attribute dicts --
the layout of ``networkx.DiGraph``, cut down to the calls the analyses
make.  Every traversal over it is written out in the analyses
themselves; this class only stores.  Successor and predecessor order
is insertion order, which the taint DFS (and so each path's ``hops``)
depends on.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator


class NodeView:
    """``graph.nodes[n]`` is the attribute dict of *n*;
    ``graph.nodes(data=True)`` iterates ``(node, attrs)`` pairs."""

    __slots__ = ("_attrs",)

    def __init__(self, attrs: dict[Hashable, dict[str, Any]]) -> None:
        self._attrs = attrs

    def __getitem__(self, node: Hashable) -> dict[str, Any]:
        return self._attrs[node]

    def __call__(self, data: bool = False) -> Iterator[Any]:
        return iter(self._attrs.items()) if data else iter(self._attrs)


class DiGraph:
    """Directed graph with attribute dicts on nodes and edges."""

    __slots__ = ("_succ", "_pred", "_attrs", "nodes")

    def __init__(self) -> None:
        self._succ: dict[Hashable, dict[Hashable, dict[str, Any]]] = {}
        self._pred: dict[Hashable, dict[Hashable, dict[str, Any]]] = {}
        self._attrs: dict[Hashable, dict[str, Any]] = {}
        self.nodes = NodeView(self._attrs)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._succ

    def add_node(self, node: Hashable, **attrs: Any) -> None:
        """Add *node*; on an existing node, merge *attrs* into its own."""
        if node in self._succ:
            self._attrs[node].update(attrs)
        else:
            self._succ[node] = {}
            self._pred[node] = {}
            self._attrs[node] = attrs

    def add_edge(self, u: Hashable, v: Hashable, **attrs: Any) -> None:
        """Add *u* -> *v* (and either end if new); on an existing edge,
        merge *attrs* into its own."""
        if u not in self._succ:
            self.add_node(u)
        if v not in self._succ:
            self.add_node(v)
        data = self._succ[u].get(v)
        if data is None:
            self._succ[u][v] = self._pred[v][u] = attrs
        else:
            data.update(attrs)

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return v in self._succ.get(u, ())

    def get_edge_data(self, u: Hashable, v: Hashable,
                      default: Any = None) -> Any:
        return self._succ.get(u, {}).get(v, default)

    def successors(self, node: Hashable) -> Iterator[Hashable]:
        return iter(self._succ[node])

    def predecessors(self, node: Hashable) -> Iterator[Hashable]:
        return iter(self._pred[node])


__all__ = ["DiGraph", "NodeView"]
