"""Intent source/target resolution (IccTA substitute).

IccTA [35] connects inter-component control flow: an
``startActivity`` / ``startService`` / ``sendBroadcast`` call site is
linked to the lifecycle entry method of the target component.  We
resolve explicit intents through the class literal flowing into the
Intent constructor and implicit intents through the manifest's intent
filters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.android.dex import DexFile, Method
from repro.android.graph import DiGraph
from repro.android.manifest import AndroidManifest

EDGE_ICC = "icc"

_LAUNCH_METHODS: dict[str, str] = {
    "startActivity": "onCreate",
    "startActivityForResult": "onCreate",
    "startService": "onStartCommand",
    "bindService": "onBind",
    "sendBroadcast": "onReceive",
    "sendOrderedBroadcast": "onReceive",
}

_INTENT_INIT = "android.content.Intent-><init>"


@dataclass(frozen=True)
class IccLink:
    """A resolved inter-component edge."""

    source_method: str
    target_component: str
    target_method: str
    explicit: bool


def _intent_targets(method: Method) -> dict[str, tuple[str, bool]]:
    """register -> (component class or action, explicit?) map."""
    targets: dict[str, tuple[str, bool]] = {}
    last_string: dict[str, str] = {}
    for ins in method.instructions:
        if ins.op == "const-string" and ins.dest:
            last_string[ins.dest] = ins.literal
        elif ins.op == "invoke" and ins.target.startswith(_INTENT_INIT):
            if ins.dest:
                # explicit: class literal; implicit: action string
                if ins.literal:
                    targets[ins.dest] = (ins.literal, True)
                elif ins.args:
                    action = last_string.get(ins.args[-1], "")
                    if action:
                        targets[ins.dest] = (action, False)
        elif ins.op == "move" and ins.args and ins.args[0] in targets:
            targets[ins.dest] = targets[ins.args[0]]
    return targets


def resolve_icc_links(dex: DexFile,
                      manifest: AndroidManifest) -> list[IccLink]:
    """All inter-component links in the app."""
    links: list[IccLink] = []
    for method in dex.all_methods():
        intents = _intent_targets(method)
        for ins in method.invocations():
            name = ins.target.split("->", 1)[-1].split("(", 1)[0]
            entry = _LAUNCH_METHODS.get(name)
            if entry is None:
                continue
            for reg in ins.args:
                resolved = intents.get(reg)
                if resolved is None:
                    continue
                target, explicit = resolved
                if explicit:
                    components = [manifest.component_by_name(target)]
                else:
                    components = manifest.resolve_implicit_intent(target)
                for component in components:
                    if component is None:
                        continue
                    links.append(IccLink(
                        source_method=method.signature,
                        target_component=component.name,
                        target_method=entry,
                        explicit=explicit,
                    ))
    return links


def add_icc_edges(graph: DiGraph, dex: DexFile,
                  manifest: AndroidManifest) -> int:
    """Add ICC edges source method -> target lifecycle method."""
    added = 0
    for link in resolve_icc_links(dex, manifest):
        cls = dex.get_class(link.target_component)
        if cls is None:
            continue
        target = cls.method(link.target_method)
        if target is None:
            continue
        if target.signature not in graph:
            graph.add_node(target.signature, internal=True,
                           class_name=cls.name,
                           method=link.target_method)
        if not graph.has_edge(link.source_method, target.signature):
            graph.add_edge(link.source_method, target.signature,
                           kind=EDGE_ICC)
            added += 1
    return added


__all__ = ["IccLink", "resolve_icc_links", "add_icc_edges", "EDGE_ICC"]
