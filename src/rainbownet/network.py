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


def max_flow(net: Network, sink: str, capacities=None, limit=None):
    """Value of a maximum flow from the source set to `sink`, exact.

    Uses BFS augmenting paths on a residual graph, with the edges' own
    capacities (exact rationals) or, when given, `capacities[edge.id]` (say,
    integers), so the value is exact in their arithmetic. With a `limit`
    the search stops once the value reaches it and returns at most the
    limit: on integer capacities that is at most `limit` augmenting paths.
    A sink that is itself a source observes the source directly and gets
    ``math.inf``, or the limit.
    """
    if sink not in net.sinks:
        raise ValueError(f"'{sink}' is not a sink of this network")
    if sink in net.sources:
        return math.inf if limit is None else limit

    # nodes by position; arcs come in pairs, an edge then its reverse (arc ^ 1)
    position = {node: i for i, node in enumerate(net.nodes)}
    heads: list[int] = []
    caps: list = []
    adjacency: list[list[int]] = [[] for _ in net.nodes]
    for edge in net.edges:
        capacity = edge.capacity if capacities is None else capacities[edge.id]
        if capacity <= 0:
            continue  # never carries flow, so neither does its reverse
        tail, head = position[edge.tail], position[edge.head]
        adjacency[tail].append(len(heads))
        heads.append(head)
        caps.append(capacity)
        adjacency[head].append(len(heads))
        heads.append(tail)
        caps.append(0)
    target = position[sink]
    sources = [position[source] for source in net.sources]

    total = 0
    while limit is None or total < limit:
        # the arc into each reached node, -1 at the sources (one BFS from all)
        parent_arc: list[int | None] = [None] * len(net.nodes)
        for source in sources:
            parent_arc[source] = -1
        queue = sources
        while queue and parent_arc[target] is None:
            frontier = []
            for node in queue:
                for arc in adjacency[node]:
                    head = heads[arc]
                    if parent_arc[head] is None and caps[arc] > 0:
                        parent_arc[head] = arc
                        frontier.append(head)
            queue = frontier
        if parent_arc[target] is None:
            break
        path = []
        node = target
        while (arc := parent_arc[node]) != -1:
            path.append(arc)
            node = heads[arc ^ 1]
        bottleneck = min(caps[arc] for arc in path)
        for arc in path:
            caps[arc] -= bottleneck
            caps[arc ^ 1] += bottleneck
        total += bottleneck
    return total if limit is None else min(total, limit)


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
    return [FlowPath(edges) for edges, _, _ in enumerate_path_masks(net, max_len)]


def enumerate_path_masks(net: Network, max_len: int) -> list[tuple[tuple[str, ...], int, int]]:
    """The paths of `enumerate_paths`, in its order, as (edge ids, edge mask, sink mask).

    Bit i of an edge mask stands for net.edges[i] and bit t of a sink mask
    for net.sinks[t]; a path's sinks are the sinks among its nodes (the
    tail of its first edge and the head of every edge). The walk keeps
    both masks per trail node, so it tests edge-simplicity on the edge mask
    and builds no path object.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    edge_bit = {edge.id: 1 << i for i, edge in enumerate(net.edges)}
    sink_bit = {sink: 1 << t for t, sink in enumerate(net.sinks)}
    # per node, its out-edges in id order as (id, head, edge bit, head's sink bit)
    arcs = {
        node: tuple((e.id, e.head, edge_bit[e.id], sink_bit.get(e.head, 0)) for e in edges)
        for node, edges in net._out.items()
    }
    sources = sorted(set(net.sources))
    found: list[tuple[tuple[str, ...], int, int]] = []
    visited = 0

    # depth first with an explicit stack of out-edge iterators, one per
    # trail node that may still grow, so path length is not bounded by the
    # recursion limit; a full-length path is counted but never pushed
    for source in sources:
        trail: list[str] = []
        masks = [(0, sink_bit.get(source, 0))]
        stack = [iter(arcs[source])]
        visited += 1
        while stack:
            if visited > MAX_PATHS:
                raise SearchSizeError(
                    f"path enumeration exceeded {MAX_PATHS} partial paths of length <= {max_len}; "
                    "reduce max_path_len"
                )
            arc = next(stack[-1], None)
            if arc is None:
                stack.pop()
                masks.pop()
                if trail:
                    trail.pop()
                continue
            edge_id, head, bit, sink = arc
            edge_mask, sink_mask = masks[-1]
            if edge_mask & bit:
                continue
            visited += 1
            edge_mask |= bit
            sink_mask |= sink
            if sink:
                found.append(((*trail, edge_id), edge_mask, sink_mask))
            if len(stack) < max_len:
                trail.append(edge_id)
                masks.append((edge_mask, sink_mask))
                stack.append(iter(arcs[head]))
    if len(sources) > 1:
        # one source's walk is already in order: out-edges go in id order
        # and a trail is recorded before its extensions
        found.sort(key=lambda row: row[0])
    return found
