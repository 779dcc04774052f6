"""Directed capacitated network model, scenario I/O, and flow utilities.

Capacities are exact rationals (bits per source symbol). `Network` and
`FlowPath` are immutable after construction and safe to share across
concurrent readers; all functions here are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ScenarioError, SearchSizeError
from .rationals import parse_rational


@dataclass(frozen=True)
class Edge:
    """A directed edge with a nonnegative rational capacity.

    Parallel edges are permitted; edges are kept distinct by `id`.
    """

    id: str
    tail: str
    head: str
    capacity: Fraction


@dataclass(frozen=True)
class FlowPath:
    """An ordered sequence of edge ids forming one source-to-sink route.

    Consecutive edges must be head-to-tail contiguous, the first tail must be
    a source, the last head a sink, and no edge may repeat (edge-simple).
    Validation happens against a `Network` via `Network.validate_path`.
    """

    edges: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))


@dataclass(frozen=True)
class Network:
    """A directed graph with capacities, source set S and ordered sink set T.

    The sink tuple order is stable and defines the index order of every
    per-sink vector derived from this network.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    sources: tuple[str, ...]
    sinks: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "sinks", tuple(self.sinks))

        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ScenarioError("duplicate node identifiers")
        by_id: dict[str, Edge] = {}
        for edge in self.edges:
            if edge.id in by_id:
                raise ScenarioError(f"edge '{edge.id}': duplicate edge id")
            if edge.tail not in node_set:
                raise ScenarioError(f"edge '{edge.id}': tail '{edge.tail}' is not a declared node")
            if edge.head not in node_set:
                raise ScenarioError(f"edge '{edge.id}': head '{edge.head}' is not a declared node")
            if edge.capacity < 0:
                raise ScenarioError(f"edge '{edge.id}': negative capacity {edge.capacity}")
            by_id[edge.id] = edge
        for label, group in (("sources", self.sources), ("sinks", self.sinks)):
            if not group:
                raise ScenarioError(f"{label} must be nonempty")
            if len(set(group)) != len(group):
                raise ScenarioError(f"duplicate node in {label}")
            for node in group:
                if node not in node_set:
                    raise ScenarioError(f"{label[:-1]} '{node}' is not a declared node")

        out: dict[str, list[Edge]] = {node: [] for node in self.nodes}
        for edge in self.edges:
            out[edge.tail].append(edge)
        for adjacency in out.values():
            adjacency.sort(key=lambda e: e.id)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_out", {n: tuple(a) for n, a in out.items()})

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._by_id[edge_id]
        except KeyError:
            raise ValueError(f"unknown edge id '{edge_id}'") from None

    def has_node(self, node: str) -> bool:
        return node in self._out

    def out_edges(self, node: str) -> tuple[Edge, ...]:
        return self._out.get(node, ())

    def validate_path(self, edge_ids: Sequence[str]) -> FlowPath:
        """Check contiguity, endpoints and edge-simplicity; return the path."""
        if not edge_ids:
            raise ValueError("a flow path needs at least one edge")
        if len(set(edge_ids)) != len(edge_ids):
            raise ValueError(f"path repeats an edge: {list(edge_ids)}")
        edges = [self.edge(eid) for eid in edge_ids]
        for prev, nxt in zip(edges, edges[1:]):
            if prev.head != nxt.tail:
                raise ValueError(
                    f"path edges '{prev.id}' and '{nxt.id}' are not head-to-tail contiguous"
                )
        if edges[0].tail not in self.sources:
            raise ValueError(f"path must start at a source, starts at '{edges[0].tail}'")
        if edges[-1].head not in self.sinks:
            raise ValueError(f"path must end at a sink, ends at '{edges[-1].head}'")
        return FlowPath(tuple(edge_ids))

    def path_nodes(self, path: FlowPath) -> tuple[str, ...]:
        """All nodes a path touches, in visit order (tails then final head)."""
        edges = [self.edge(eid) for eid in path.edges]
        return tuple(e.tail for e in edges) + (edges[-1].head,)


def load_scenario(text: str) -> Network:
    """Parse and validate a scenario document.

    The document is JSON with fields ``nodes: [str]``,
    ``edges: [{id, tail, head, capacity}]`` (capacity a decimal or ``p/q``
    string, parsed exactly), ``sources: [str]`` and ``sinks: [str]``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"scenario parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ScenarioError("scenario document is nested too deeply to parse") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    for key in ("nodes", "edges", "sources", "sinks"):
        if key not in doc:
            raise ScenarioError(f"scenario missing field '{key}'")
        if not isinstance(doc[key], list):
            raise ScenarioError(f"scenario field '{key}' must be a list")
    nodes = [str(n) for n in doc["nodes"]]
    edges = []
    for position, entry in enumerate(doc["edges"]):
        if not isinstance(entry, dict):
            raise ScenarioError(f"edge #{position}: must be an object")
        missing = [k for k in ("id", "tail", "head", "capacity") if k not in entry]
        if missing:
            raise ScenarioError(f"edge #{position}: missing field(s) {', '.join(missing)}")
        try:
            capacity = parse_rational(entry["capacity"], what=f"edge '{entry['id']}' capacity")
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        edges.append(Edge(str(entry["id"]), str(entry["tail"]), str(entry["head"]), capacity))
    return Network(
        nodes=tuple(nodes),
        edges=tuple(edges),
        sources=tuple(str(s) for s in doc["sources"]),
        sinks=tuple(str(t) for t in doc["sinks"]),
    )


def max_flow(net: Network, sink: str):
    """Value of a maximum flow from the source set to `sink`, exact.

    Uses BFS augmenting paths on a residual graph with Fraction arithmetic,
    so the result is exact for rational capacities. A sink that is itself a
    source observes the source directly and gets ``math.inf``.
    """
    if sink not in net.sinks:
        raise ValueError(f"'{sink}' is not a sink of this network")
    if sink in net.sources:
        return math.inf

    heads: list[str] = []
    caps: list[Fraction] = []
    adjacency: dict[object, list[int]] = {node: [] for node in net.nodes}

    def add_arc(tail, head, capacity):
        adjacency.setdefault(tail, [])
        adjacency.setdefault(head, [])
        adjacency[tail].append(len(heads))
        heads.append(head)
        caps.append(capacity)
        adjacency[head].append(len(heads))
        heads.append(tail)
        caps.append(Fraction(0))

    for edge in net.edges:
        add_arc(edge.tail, edge.head, edge.capacity)
    super_source = object()
    bound = sum((e.capacity for e in net.edges), Fraction(1))
    for source in net.sources:
        add_arc(super_source, source, bound)

    total = Fraction(0)
    while True:
        parent_arc: dict[object, int] = {super_source: -1}
        queue = [super_source]
        while queue and sink not in parent_arc:
            frontier = []
            for node in queue:
                for arc in adjacency[node]:
                    head = heads[arc]
                    if caps[arc] > 0 and head not in parent_arc:
                        parent_arc[head] = arc
                        frontier.append(head)
            queue = frontier
        if sink not in parent_arc:
            return total
        bottleneck = None
        node = sink
        while node is not super_source:
            arc = parent_arc[node]
            bottleneck = caps[arc] if bottleneck is None else min(bottleneck, caps[arc])
            node = heads[arc ^ 1]
        node = sink
        while node is not super_source:
            arc = parent_arc[node]
            caps[arc] -= bottleneck
            caps[arc ^ 1] += bottleneck
            node = heads[arc ^ 1]
        total += bottleneck


# Edge-simple paths grow exponentially with their length bound on dense
# graphs (about x2.7 per step on a 12-node, 43-edge graph); past this many
# the enumeration stops instead of running for hours. The walk counts every
# partial path it extends, not only those ending at sinks, so a dense part
# of the graph that leads to no sink is bounded too.
MAX_PATHS = 100_000


def enumerate_paths(net: Network, max_len: int) -> list[FlowPath]:
    """All edge-simple source-to-sink paths of length <= max_len.

    A path is emitted every time the walk stands on a sink, so prefixes that
    already end at sinks are included. Output order is lexicographic by the
    edge-id sequence and duplicate-free. Raises SearchSizeError once the
    walk has visited more than MAX_PATHS source-rooted partial paths.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    sink_set = set(net.sinks)
    found: list[FlowPath] = []
    visited = 0

    def visit(node: str, trail: list[str]):
        """Count `trail`, record it if `node` is a sink, and return the edges extending it."""
        nonlocal visited
        visited += 1
        if visited > MAX_PATHS:
            raise SearchSizeError(
                f"path enumeration exceeded {MAX_PATHS} partial paths of length <= {max_len}; "
                "reduce max_path_len"
            )
        if trail and node in sink_set:
            found.append(FlowPath(tuple(trail)))
        return iter(() if len(trail) == max_len else net.out_edges(node))

    # depth first with an explicit stack of out-edge iterators, one per
    # trail node, so path length is not bounded by the recursion limit
    for source in sorted(set(net.sources)):
        trail: list[str] = []
        used: set[str] = set()
        stack = [visit(source, trail)]
        while stack:
            edge = next(stack[-1], None)
            if edge is None:
                stack.pop()
                if trail:
                    used.remove(trail.pop())
            elif edge.id not in used:
                used.add(edge.id)
                trail.append(edge.id)
                stack.append(visit(edge.head, trail))
    found.sort(key=lambda p: p.edges)
    return found
