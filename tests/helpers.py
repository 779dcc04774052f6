"""Shared fixtures: bundled scenarios and seeded random instances."""

from __future__ import annotations

import json
import random
from fractions import Fraction

from rainbownet import (
    DiscreteRnf,
    Edge,
    Network,
    is_admissible,
    load_flow,
    load_scenario,
    optimize_pet_profile,
)
from rainbownet.data import bundled_text
from oracles import enumerate_paths

CAPACITY_CHOICES = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


def fig1_network() -> Network:
    return load_scenario(bundled_text("fig1"))


def fig1_flow(net: Network | None = None) -> DiscreteRnf:
    net = net or fig1_network()
    return load_flow(bundled_text("fig1_flow"), net)


def fig2_network() -> Network:
    return load_scenario(bundled_text("fig2"))


def fig2_flow(net: Network | None = None):
    net = net or fig2_network()
    return load_flow(bundled_text("fig2_flow"), net)


def random_network(rng: random.Random, max_nodes: int = 7) -> Network:
    """A small random directed network: one source, 2-3 sinks, mostly connected."""
    count = rng.randint(4, max_nodes)
    names = [str(i + 1) for i in range(count)]
    source = names[0]
    sink_count = min(rng.randint(2, 3), count - 1)
    sinks = rng.sample(names[1:], sink_count)

    edges: list[Edge] = []
    seen_pairs: set[tuple[str, str]] = set()

    def add(tail: str, head: str):
        if tail == head or (tail, head) in seen_pairs:
            return
        seen_pairs.add((tail, head))
        edges.append(
            Edge(f"e{tail}-{head}", tail, head, rng.choice(CAPACITY_CHOICES))
        )

    # spine: every node reachable-ish from the source
    for position in range(1, count):
        add(names[rng.randrange(position)], names[position])
    for _ in range(count + rng.randint(0, count)):
        add(rng.choice(names), rng.choice(names))

    return Network(
        nodes=tuple(names),
        edges=tuple(edges),
        sources=(source,),
        sinks=tuple(sorted(sinks)),
    )


def walk_networks():
    """Random networks with cycles and shuffled edge ids, some with a
    second source and some with a source that is also a sink.

    The `x??` ids are shuffled against the edge order, so the string order
    of the edge ids (the order of their bits in the walk's edge masks) is
    not the order of `net.edges`.
    """
    rng = random.Random(41)
    for index in range(36):
        net = random_network(rng)
        labels = rng.sample(range(100), len(net.edges))
        edges = tuple(
            Edge(f"x{i:02d}", e.tail, e.head, e.capacity) for i, e in zip(labels, net.edges)
        )
        net = Network(net.nodes, edges, net.sources, net.sinks)
        if index % 3 == 1:
            extra = rng.choice([n for n in net.nodes if n not in net.sources])
            net = Network(net.nodes, net.edges, (extra, *net.sources), net.sinks)
        elif index % 3 == 2:
            net = Network(net.nodes, net.edges, net.sources, (*net.sinks, net.sources[0]))
        yield net


def layered_network(rng: random.Random, width: int, depth: int) -> Network:
    """A layered DAG: the source feeds layer 0, each relay two nodes below.

    Sinks are the last layer plus one relay of an earlier layer, so path
    unions reach many distinct sink sets.
    """
    layers = [[f"l{d}n{w}" for w in range(width)] for d in range(depth)]
    pairs = [("s", node) for node in layers[0]]
    for upper, lower in zip(layers, layers[1:]):
        pairs += [(node, head) for node in upper for head in rng.sample(lower, min(2, width))]
    edges = tuple(
        Edge(f"{tail}-{head}", tail, head, rng.choice(CAPACITY_CHOICES)) for tail, head in pairs
    )
    sinks = (rng.choice(layers[max(depth // 2 - 1, 0)]),) if depth > 1 else ()
    return Network(
        nodes=("s",) + tuple(n for layer in layers for n in layer),
        edges=edges,
        sources=("s",),
        sinks=sinks + tuple(layers[-1]),
    )


def random_admissible_flow(
    rng: random.Random,
    net: Network,
    num_colors: int,
    rate: Fraction,
    max_len: int = 3,
) -> DiscreteRnf:
    """Grow a random admissible flow by accept/reject over shuffled paths."""
    universe = enumerate_paths(net, max_len)
    order = list(range(len(universe)))
    rng.shuffle(order)
    paths: list = []
    colors: list[int] = []
    for index in order:
        color = rng.randint(1, num_colors)
        candidate = DiscreteRnf(
            net,
            tuple(paths + [universe[index]]),
            tuple(colors + [color]),
            num_colors,
            rate,
        )
        if is_admissible(candidate):
            paths.append(universe[index])
            colors.append(color)
    return DiscreteRnf(net, tuple(paths), tuple(colors), num_colors, rate)


# The benchmark's seeded scenario families (perfbench/generators.py), as
# scenario documents: the same seed gives the same network there and here.
BENCHMARK_CAPACITIES = ("1/2", "1", "3/2", "2")


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


def layered_document(width: int, depth: int, seed: int, fanout: int = 2) -> dict:
    """The benchmark's layered DAG: each relay feeds `fanout` nodes below."""
    rng = random.Random(f"layered:{width}:{depth}:{fanout}:{seed}")
    layers = [[f"l{d}n{w}" for w in range(width)] for d in range(depth)]
    edges = [("s", node, rng.choice(BENCHMARK_CAPACITIES)) for node in layers[0]]
    for upper, lower in zip(layers, layers[1:]):
        for node in upper:
            for head in sorted(rng.sample(lower, fanout)):
                edges.append((node, head, rng.choice(BENCHMARK_CAPACITIES)))
    sinks = list(layers[-1])
    if depth > 1:
        sinks.insert(0, rng.choice(layers[max(depth // 2 - 1, 0)]))
    nodes = ["s"] + [n for layer in layers for n in layer]
    return _document(nodes, edges, ["s"], sinks)


def dense_document(num_nodes: int, num_edges: int, num_sinks: int, seed: int) -> dict:
    """The benchmark's dense random digraph: node v0 is the source."""
    rng = random.Random(f"dense:{num_nodes}:{num_edges}:{num_sinks}:{seed}")
    nodes = [f"v{i}" for i in range(num_nodes)]
    pairs = [(a, b) for a in nodes for b in nodes if a != b and b != "v0"]
    chosen = sorted(rng.sample(pairs, num_edges))
    edges = [(tail, head, rng.choice(BENCHMARK_CAPACITIES)) for tail, head in chosen]
    sinks = sorted(rng.sample(nodes[1:], num_sinks))
    return _document(nodes, edges, ["v0"], sinks)


def fanout_document(num_sinks: int, num_relays: int, seed: int) -> dict:
    """The benchmark's distribution tree: source -> relays -> sinks."""
    rng = random.Random(f"fanout:{num_sinks}:{num_relays}:{seed}")
    relays = [f"r{i}" for i in range(num_relays)]
    sinks = [f"t{i}" for i in range(num_sinks)]
    edges = [("s", relay, "1") for relay in relays]
    capacities = ["1/2", "1"] * (num_sinks // 2) + ["1"] * (num_sinks % 2)
    rng.shuffle(capacities)
    for i, (sink, capacity) in enumerate(zip(sinks, capacities)):
        edges.append((relays[i % num_relays], sink, capacity))
    return _document(["s"] + relays + sinks, edges, ["s"], sinks)


def document_network(document: dict) -> Network:
    return load_scenario(json.dumps(document))


def profile_objectives(q, weights, shapes) -> list[float]:
    """Optimal weighted distortion of flow vector `q` at each (K, rate) shape."""
    return [optimize_pet_profile(q, weights, k, rate).objective for k, rate in shapes]


def halvings(num_descriptions: int, rate: Fraction, steps: int) -> list[tuple[int, Fraction]]:
    """The refinement sweep's shapes (2**n * K, rate / 2**n), n = 0..steps-1."""
    return [(num_descriptions * 2**n, Fraction(rate) / 2**n) for n in range(steps)]
