"""Static taint analysis: source-to-sink paths (FlowDroid substitute).

Sources are the sensitive APIs (and content-provider queries of
sensitive URIs); sinks write to log/file or send over
network/SMS/Bluetooth.  The analysis builds a data-flow graph whose
nodes are (method, register) pairs plus per-method RETURN nodes and
per-field global nodes, with edges for

- register moves,
- invoke argument -> callee parameter (internal calls),
- callee return -> caller result register,
- external call results (conservatively: arguments taint the result,
  modelling ``StringBuilder.append`` and friends),
- field stores/loads (``iput`` / ``iget``).

A sensitive invoke's result register seeds taint; any sink-argument
node reachable in the flow graph yields a
:class:`TaintPath`.  The analysis is flow-insensitive within a method
(instruction order is ignored), which is sound for the retention facts
PPChecker consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.android.api_db import QUERY_APIS, SENSITIVE_APIS, SINK_APIS
from repro.android.dex import DexFile
from repro.android.graph import DiGraph
from repro.android.uris import find_uri_accesses
from repro.semantics.resources import InfoType


@dataclass(frozen=True)
class TaintPath:
    """An information-retention fact: source API -> ... -> sink API."""

    info: InfoType
    source_api: str
    source_method: str
    sink_api: str
    sink_method: str
    sink_kind: str
    hops: tuple[str, ...] = ()

    def describe(self) -> str:
        return (
            f"{self.info}: {self.source_api} ({self.source_method}) -> "
            f"{self.sink_api} ({self.sink_method}) [{self.sink_kind}]"
        )


def _reg(method_sig: str, register: str) -> tuple[str, str]:
    return (method_sig, register)


def _ret(method_sig: str) -> tuple[str, str]:
    return (method_sig, "<RET>")


def _field(literal: str) -> tuple[str, str]:
    return ("<FIELD>", literal)


def build_flow_graph(dex: DexFile) -> DiGraph:
    """The interprocedural data-flow graph over registers."""
    flow = DiGraph()
    for method in dex.all_methods():
        sig = method.signature
        for ins in method.instructions:
            if ins.op == "move" and ins.args and ins.dest:
                flow.add_edge(_reg(sig, ins.args[0]), _reg(sig, ins.dest))
            elif ins.op == "return" and ins.args:
                flow.add_edge(_reg(sig, ins.args[0]), _ret(sig))
            elif ins.op == "iput" and ins.args:
                flow.add_edge(_reg(sig, ins.args[0]), _field(ins.literal))
            elif ins.op == "iget" and ins.dest:
                flow.add_edge(_field(ins.literal), _reg(sig, ins.dest))
            elif ins.op == "invoke":
                callee = dex.resolve(ins.target)
                if callee is not None:
                    for position, arg in enumerate(ins.args):
                        if position < len(callee.params):
                            flow.add_edge(
                                _reg(sig, arg),
                                _reg(callee.signature,
                                     callee.params[position]),
                            )
                    if ins.dest:
                        flow.add_edge(_ret(callee.signature),
                                      _reg(sig, ins.dest))
                elif ins.dest and ins.target not in SINK_APIS:
                    # external call: arguments conservatively taint the
                    # result (string building, formatting, boxing)
                    for arg in ins.args:
                        flow.add_edge(_reg(sig, arg), _reg(sig, ins.dest))
    return flow


def _source_seeds(dex: DexFile) -> dict[tuple[str, str], tuple[str, InfoType]]:
    """Flow-graph nodes seeded by sensitive API results."""
    seeds: dict[tuple[str, str], tuple[str, InfoType]] = {}
    for method in dex.all_methods():
        for ins in method.invocations():
            info = SENSITIVE_APIS.get(ins.target)
            if info is not None and ins.dest:
                seeds[_reg(method.signature, ins.dest)] = (ins.target, info)
    # content-provider queries of sensitive URIs are sources too
    uri_info = {
        (access.method, access.uri): access.info
        for access in find_uri_accesses(dex)
    }
    if uri_info:
        for method in dex.all_methods():
            local_uris = _local_uris(method)
            for ins in method.invocations():
                if ins.target in QUERY_APIS and ins.dest:
                    for reg in ins.args:
                        literal = local_uris.get(reg)
                        if literal is None:
                            continue
                        info = uri_info.get((method.signature, literal))
                        if info is not None:
                            seeds[_reg(method.signature, ins.dest)] = (
                                literal, info
                            )
    return seeds


def _local_uris(method) -> dict[str, str]:
    from repro.android.uris import _uri_registers
    return _uri_registers(method)


def _sink_args(dex: DexFile) -> list[tuple[tuple[str, str], str, str, str]]:
    """(flow node, sink api, sink method, kind) for each sink argument."""
    out = []
    for method in dex.all_methods():
        for ins in method.invocations():
            kind = SINK_APIS.get(ins.target)
            if kind is None:
                continue
            for arg in ins.args:
                out.append((
                    _reg(method.signature, arg), ins.target,
                    method.signature, kind,
                ))
    return out


def find_taint_paths(dex: DexFile) -> list[TaintPath]:
    """All source-to-sink retention facts in the app."""
    flow = build_flow_graph(dex)
    seeds = _source_seeds(dex)
    sinks = _sink_args(dex)
    if not seeds or not sinks:
        return []

    paths: list[TaintPath] = []
    seen: set[tuple] = set()
    for seed_node, (source_api, info) in seeds.items():
        if seed_node not in flow:
            reachable = {seed_node}
            parents: dict = {}
        else:
            parents = {}
            reachable = {seed_node}
            stack = [seed_node]
            while stack:
                node = stack.pop()
                for nxt in flow.successors(node):
                    if nxt not in reachable:
                        reachable.add(nxt)
                        parents[nxt] = node
                        stack.append(nxt)
        for node, sink_api, sink_method, kind in sinks:
            if node not in reachable:
                continue
            hops: list[str] = []
            cursor = node
            while cursor in parents:
                hops.append(f"{cursor[0]}::{cursor[1]}")
                cursor = parents[cursor]
            hops.append(f"{seed_node[0]}::{seed_node[1]}")
            key = (info, source_api, sink_api, sink_method)
            if key in seen:
                continue
            seen.add(key)
            paths.append(TaintPath(
                info=info,
                source_api=source_api,
                source_method=seed_node[0],
                sink_api=sink_api,
                sink_method=sink_method,
                sink_kind=kind,
                hops=tuple(reversed(hops)),
            ))
    return paths


__all__ = ["TaintPath", "build_flow_graph", "find_taint_paths"]
