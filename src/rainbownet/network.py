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
# partial path it visits, not only those ending at sinks, but visits only
# partial paths that can still reach a sink within the length bound, so a
# part of the graph that leads to no sink costs nothing. Each counted path
# costs at most its head's out-degree in arc tests.
MAX_PATHS = 100_000


def _sink_distances(net: Network, limit: int) -> dict[str, int]:
    """Fewest edges from each node to any sink, for the nodes within `limit` of one.

    One breadth-first search backwards from all sinks at once.
    """
    into: dict[str, list[str]] = {node: [] for node in net.nodes}
    for edge in net.edges:
        into[edge.head].append(edge.tail)
    distance = dict.fromkeys(net.sinks, 0)
    frontier = list(net.sinks)
    steps = 0
    while frontier and steps < limit:
        steps += 1
        reached = []
        for node in frontier:
            for tail in into[node]:
                if tail not in distance:
                    distance[tail] = steps
                    reached.append(tail)
        frontier = reached
    return distance


def trail_ids(trail) -> tuple[str, ...]:
    """The edge ids of a walk row's trail, first edge first.

    A trail is () or a pair (the trail one edge shorter, the last edge id).
    """
    ids = []
    while trail:
        trail, edge_id = trail
        ids.append(edge_id)
    return tuple(reversed(ids))


def enumerate_path_masks(net: Network, max_len: int) -> list[tuple[int, int, tuple]]:
    """Edge-simple source-to-sink paths of length <= max_len as (edge mask, sink mask, trail).

    A path is emitted every time the walk stands on a sink, so prefixes that
    already end at sinks are included. Output order is lexicographic by the
    edge-id sequence and duplicate-free. Bit i of an edge mask stands for
    the i-th edge id in string order and bit t of a sink mask for
    net.sinks[t]; a path's sinks are the sinks among its nodes (the tail of
    its first edge and the head of every edge). `trail_ids(trail)` rebuilds
    the edge ids, so a caller builds them only for the paths it uses.

    The walk extends a partial path by an edge only when the edge's head
    is close enough to a sink for the extended path to reach one within
    `max_len` edges. That distance ignores edge-simplicity, so no path is
    lost. Raises SearchSizeError once the walk has visited more than
    MAX_PATHS such partial paths.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    distance = _sink_distances(net, max_len)
    edge_bit = {edge_id: 1 << i for i, edge_id in enumerate(sorted(net._by_id))}
    sink_bit = {sink: 1 << t for t, sink in enumerate(net.sinks)}
    # per node within reach of a sink: its out-edges in id order whose head
    # is too, as (id, edge bit, head's sink bit, head's distance, head's
    # entry), and the ones of those whose head is a sink
    entry: dict[str, list[tuple]] = {node: [] for node in distance}
    for node, arcs in entry.items():
        arcs.append(tuple(
            (e.id, edge_bit[e.id], sink_bit.get(e.head, 0), distance[e.head], entry[e.head])
            for e in net._out[node]
            if e.head in distance
        ))
        arcs.append(tuple(arc for arc in arcs[0] if arc[2]))
    # one walk per first edge, in id order across the sources, so the rows
    # need no sort: a walk records a path before its extensions, in id order
    firsts = sorted(
        (arc[0], sink_bit.get(source, 0), arc)
        for source in set(net.sources) & distance.keys()
        for arc in entry[source][0]
    )
    found: list[tuple[int, int, tuple]] = []
    visited = 0

    # depth first with an explicit stack, so path length is not bounded by
    # the recursion limit. A stack entry holds the out-edge iterator of a
    # partial path, its masks and trail, and `reach`: the most edges from a
    # head to a sink that still fit. A path one edge short of the bound can
    # only end at a sink, so its extensions are recorded at once
    for _, source_sink, first in firsts:
        stack = [(iter((first,)), 0, source_sink, (), max_len - 1)]
        while stack:
            arcs, edge_mask, sink_mask, trail, reach = stack[-1]
            arc = next(arcs, None)
            if arc is None:
                stack.pop()
                continue
            edge_id, bit, sink, steps, head = arc
            if edge_mask & bit or steps > reach:
                continue
            visited += 1
            edge_mask |= bit
            sink_mask |= sink
            trail = (trail, edge_id)
            if sink:
                found.append((edge_mask, sink_mask, trail))
            if reach == 1:
                for last_id, last_bit, last_sink, _, _ in head[1]:
                    if not edge_mask & last_bit:
                        visited += 1
                        found.append(
                            (edge_mask | last_bit, sink_mask | last_sink, (trail, last_id))
                        )
            elif reach and head[0]:
                stack.append((iter(head[0]), edge_mask, sink_mask, trail, reach - 1))
            if visited > MAX_PATHS:
                raise SearchSizeError(
                    f"path enumeration exceeded {MAX_PATHS} partial paths of length <= {max_len}; "
                    "reduce max_path_len"
                )
    return found
