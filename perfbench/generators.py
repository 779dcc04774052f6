"""Seeded instance generators for the benchmark.

Every generator is a pure function of its arguments: the same seed gives
the same scenario document, byte for byte. Scenarios use the JSON format
that ``rainbow-net`` reads (capacities as exact decimal strings).
"""

from __future__ import annotations

import json
import random

CAPACITIES = ("1/2", "1", "3/2", "2")


def _document(nodes, edges, sources, sinks) -> dict:
    return {
        "nodes": list(nodes),
        "edges": [
            {"id": f"e{i}", "tail": tail, "head": head, "capacity": capacity}
            for i, (tail, head, capacity) in enumerate(edges)
        ],
        "sources": list(sources),
        "sinks": list(sinks),
    }


def scenario_bytes(document: dict) -> bytes:
    """Canonical serialization, so equal documents give equal files."""
    return (json.dumps(document, indent=1, sort_keys=True) + "\n").encode()


def layered(width: int, depth: int, seed: int, fanout: int = 2) -> dict:
    """A layered DAG: a source, `depth` layers of `width` relays.

    The source feeds every node of the first layer, and each relay feeds
    `fanout` distinct nodes of the next layer, so the number of
    source-to-last-layer paths is fixed at width * fanout**(depth-1) and
    only the wiring, the capacities and one extra mid-layer sink vary with
    the seed. Keeping the path count fixed keeps exact-search cost in a
    narrow band across seeds.
    """
    rng = random.Random(f"layered:{width}:{depth}:{fanout}:{seed}")
    layers = [[f"l{d}n{w}" for w in range(width)] for d in range(depth)]
    edges = [("s", node, rng.choice(CAPACITIES)) for node in layers[0]]
    for upper, lower in zip(layers, layers[1:]):
        for node in upper:
            for head in sorted(rng.sample(lower, fanout)):
                edges.append((node, head, rng.choice(CAPACITIES)))
    sinks = list(layers[-1])
    if depth > 1:
        sinks.insert(0, rng.choice(layers[max(depth // 2 - 1, 0)]))
    nodes = ["s"] + [n for layer in layers for n in layer]
    return _document(nodes, edges, ["s"], sinks)


def dense_random(num_nodes: int, num_edges: int, num_sinks: int, seed: int) -> dict:
    """A dense directed graph on `num_nodes` nodes with `num_edges` edges.

    Node 0 is the source; `num_sinks` other nodes are sinks. Edges are
    drawn uniformly among ordered pairs (cycles allowed), so path
    enumeration, not exact search, sets the cost.
    """
    rng = random.Random(f"dense:{num_nodes}:{num_edges}:{num_sinks}:{seed}")
    nodes = [f"v{i}" for i in range(num_nodes)]
    pairs = [(a, b) for a in nodes for b in nodes if a != b and b != "v0"]
    chosen = sorted(rng.sample(pairs, num_edges))
    edges = [(tail, head, rng.choice(CAPACITIES)) for tail, head in chosen]
    sinks = sorted(rng.sample(nodes[1:], num_sinks))
    return _document(nodes, edges, ["v0"], sinks)


def fanout(num_sinks: int, num_relays: int, seed: int) -> dict:
    """A multi-sink distribution tree: source -> relays -> sinks.

    Sink i hears relay i mod num_relays, every relay gets capacity 1, and
    the relay-to-sink capacities are a seeded permutation of a fixed
    half-"1/2", half-"1" multiset. Fixing the multiset keeps the number of
    admissible colorings, and so the exact-search cost, in a narrow band
    across seeds; free capacity draws spread it several-fold.
    """
    rng = random.Random(f"fanout:{num_sinks}:{num_relays}:{seed}")
    relays = [f"r{i}" for i in range(num_relays)]
    sinks = [f"t{i}" for i in range(num_sinks)]
    edges = [("s", relay, "1") for relay in relays]
    capacities = ["1/2", "1"] * (num_sinks // 2) + ["1"] * (num_sinks % 2)
    rng.shuffle(capacities)
    for i, (sink, capacity) in enumerate(zip(sinks, capacities)):
        edges.append((relays[i % num_relays], sink, capacity))
    return _document(["s"] + relays + sinks, edges, ["s"], sinks)


def payload(num_bytes: int, seed: int) -> bytes:
    """Seeded random payload bytes."""
    return random.Random(f"payload:{num_bytes}:{seed}").randbytes(num_bytes)
