import json
import math
import random
from fractions import Fraction

import pytest

import helpers
import oracles
from rainbownet import (
    Edge,
    FlowPath,
    Network,
    ScenarioError,
    SearchSizeError,
    load_scenario,
    max_flow,
    network,
)
from rainbownet.network import enumerate_path_masks, trail_ids
from oracles import enumerate_paths


class TestLoadScenario:
    def test_fig1_topology(self):
        net = helpers.fig1_network()
        assert net.nodes == ("1", "2", "3", "4", "5")
        assert len(net.edges) == 6
        assert all(e.capacity == 1 for e in net.edges)
        assert net.sources == ("1",)
        assert net.sinks == ("2", "3", "4", "5")

    def test_sink_order_is_document_order(self):
        doc = helpers.bundled_text("fig1").replace(
            '"sinks": ["2", "3", "4", "5"]', '"sinks": ["5", "2", "4", "3"]'
        )
        assert load_scenario(doc).sinks == ("5", "2", "4", "3")

    def test_degenerate_single_node(self):
        net = load_scenario(
            json.dumps({"nodes": ["v"], "edges": [], "sources": ["v"], "sinks": ["v"]})
        )
        assert net.nodes == ("v",)
        assert net.edges == ()

    def test_dangling_edge_rejected(self):
        doc = {
            "nodes": ["a", "b"],
            "edges": [{"id": "e1", "tail": "a", "head": "ghost", "capacity": "1"}],
            "sources": ["a"],
            "sinks": ["b"],
        }
        with pytest.raises(ScenarioError, match="ghost"):
            load_scenario(json.dumps(doc))

    def test_negative_capacity_rejected(self):
        doc = {
            "nodes": ["a", "b"],
            "edges": [{"id": "e1", "tail": "a", "head": "b", "capacity": "-1"}],
            "sources": ["a"],
            "sinks": ["b"],
        }
        with pytest.raises(ScenarioError, match="e1"):
            load_scenario(json.dumps(doc))

    def test_empty_sinks_rejected(self):
        doc = {"nodes": ["a"], "edges": [], "sources": ["a"], "sinks": []}
        with pytest.raises(ScenarioError, match="sinks"):
            load_scenario(json.dumps(doc))

    def test_duplicate_edge_id_rejected(self):
        doc = {
            "nodes": ["a", "b"],
            "edges": [
                {"id": "e1", "tail": "a", "head": "b", "capacity": "1"},
                {"id": "e1", "tail": "a", "head": "b", "capacity": "2"},
            ],
            "sources": ["a"],
            "sinks": ["b"],
        }
        with pytest.raises(ScenarioError, match="duplicate"):
            load_scenario(json.dumps(doc))

    def test_parse_error_reports_position(self):
        with pytest.raises(ScenarioError, match="line 1"):
            load_scenario("{not json")

    def test_exact_decimal_capacity(self):
        doc = {
            "nodes": ["a", "b"],
            "edges": [{"id": "e1", "tail": "a", "head": "b", "capacity": "0.1"}],
            "sources": ["a"],
            "sinks": ["b"],
        }
        net = load_scenario(json.dumps(doc))
        assert net.edges[0].capacity == Fraction(1, 10)


class TestMaxFlow:
    @pytest.mark.parametrize("sink,value", [("2", 1), ("3", 1), ("4", 2), ("5", 2)])
    def test_fig1_values(self, sink, value):
        assert max_flow(helpers.fig1_network(), sink) == Fraction(value)

    def test_rejects_non_sink(self):
        with pytest.raises(ValueError, match="not a sink"):
            max_flow(helpers.fig1_network(), "1")

    def test_disconnected_sink_is_zero(self):
        net = Network(
            nodes=("a", "b", "c"),
            edges=(Edge("e1", "a", "b", Fraction(1)),),
            sources=("a",),
            sinks=("b", "c"),
        )
        assert max_flow(net, "c") == 0

    def test_sink_that_is_a_source_is_unbounded(self):
        net = Network(nodes=("v",), edges=(), sources=("v",), sinks=("v",))
        assert max_flow(net, "v") == math.inf

    def test_parallel_edges_add_capacity(self):
        net = Network(
            nodes=("a", "b"),
            edges=(
                Edge("e1", "a", "b", Fraction(1, 2)),
                Edge("e2", "a", "b", Fraction(3, 2)),
            ),
            sources=("a",),
            sinks=("b",),
        )
        assert max_flow(net, "b") == 2

    def test_monotone_in_capacity(self):
        rng = random.Random(11)
        for _ in range(6):
            net = helpers.random_network(rng)
            bumped_edges = tuple(
                Edge(e.id, e.tail, e.head, e.capacity + rng.choice((0, 1)))
                for e in net.edges
            )
            bumped = Network(net.nodes, bumped_edges, net.sources, net.sinks)
            for sink in net.sinks:
                assert max_flow(bumped, sink) >= max_flow(net, sink)

    def test_equals_brute_force_min_cut(self):
        rng = random.Random(7)
        checked = 0
        while checked < 12:
            net = helpers.random_network(rng, max_nodes=8)
            for sink in net.sinks:
                if sink in net.sources:
                    continue
                assert max_flow(net, sink) == oracles.brute_min_cut(net, sink)
                checked += 1


class TestEnumeratePaths:
    def test_fig1_two_hop_universe(self):
        net = helpers.fig1_network()
        paths = [p.edges for p in enumerate_paths(net, 2)]
        assert paths == [
            ("e12",),
            ("e12", "e24"),
            ("e12", "e25"),
            ("e13",),
            ("e13", "e34"),
            ("e13", "e35"),
        ]

    def test_fig1_one_hop(self):
        net = helpers.fig1_network()
        assert [p.edges for p in enumerate_paths(net, 1)] == [("e12",), ("e13",)]

    def test_paths_are_unique_and_valid(self):
        rng = random.Random(23)
        for _ in range(8):
            net = helpers.random_network(rng)
            paths = enumerate_paths(net, 4)
            assert len({p.edges for p in paths}) == len(paths)
            for path in paths:
                net.validate_path(path.edges)

    def test_disconnected_sink_has_no_paths(self):
        net = Network(
            nodes=("a", "b", "c"),
            edges=(Edge("e1", "a", "b", Fraction(1)),),
            sources=("a",),
            sinks=("c",),
        )
        assert enumerate_paths(net, 5) == []

    def test_rejects_zero_max_len(self):
        with pytest.raises(ValueError):
            enumerate_paths(helpers.fig1_network(), 0)

    def test_matches_the_reference_walk(self):
        # cyclic graphs with shuffled ids, a second source in a third of
        # them and a source that is also a sink in another third
        for net in helpers.walk_networks():
            for max_len in range(1, 9):
                assert enumerate_paths(net, max_len) == oracles.reference_enumerate_paths(
                    net, max_len
                )

    @pytest.mark.parametrize("shape", [(12, 43, 4), (14, 48, 5)])
    def test_matches_the_reference_walk_on_the_dense_family(self, shape):
        # the benchmark's dense greedy instances and one length past them
        for seed in (1144964661, 1654615998, 5):
            net = helpers.document_network(helpers.dense_document(*shape, seed))
            for max_len in (6, 7, 8):
                assert enumerate_paths(net, max_len) == oracles.reference_enumerate_paths(
                    net, max_len
                )

    def test_masks_are_the_edges_and_sinks_of_each_path(self):
        # bit i of an edge mask is the i-th edge id in string order, which
        # the walk networks' shuffled ids keep apart from the edges' order
        for net in helpers.walk_networks():
            ids = sorted(edge.id for edge in net.edges)
            edge_position = {edge_id: i for i, edge_id in enumerate(ids)}
            rows = enumerate_path_masks(net, 5)
            assert [trail_ids(trail) for _, _, trail in rows] == [
                p.edges for p in oracles.reference_enumerate_paths(net, 5)
            ]
            for edge_mask, sink_mask, trail in rows:
                nodes = net.path_nodes(FlowPath(trail_ids(trail)))
                assert edge_mask == sum(1 << edge_position[e] for e in trail_ids(trail))
                assert sink_mask == sum(1 << t for t, s in enumerate(net.sinks) if s in nodes)

    def test_guard_counts_the_partial_paths_the_pruned_walk_visits(self, monkeypatch):
        # the guard counts every partial path that can still reach a sink in
        # the length left, full-length ones included: a limit of exactly
        # that count passes and one less raises
        raised = 0
        for net in list(helpers.walk_networks())[:18]:
            for max_len in (1, 2, 4, 5):
                rows = enumerate_path_masks(net, max_len)
                count = oracles.reference_walk_count(net, max_len)
                monkeypatch.setattr(network, "MAX_PATHS", count)
                assert enumerate_path_masks(net, max_len) == rows
                if count:
                    monkeypatch.setattr(network, "MAX_PATHS", count - 1)
                    with pytest.raises(SearchSizeError, match="path enumeration exceeded"):
                        enumerate_path_masks(net, max_len)
                    raised += 1
                monkeypatch.undo()
        assert raised > 50

    def test_a_part_that_reaches_no_sink_is_not_walked(self):
        # a complete digraph on 8 nodes hangs off the source, and no edge
        # leads back: its billions of paths of length <= 20 are never visited
        nodes = [f"v{i}" for i in range(9)]
        edges = [Edge("v0-t", "v0", "t", Fraction(1))] + [
            Edge(f"{a}-{b}", a, b, Fraction(1)) for a in nodes for b in nodes[1:] if a != b
        ]
        net = Network((*nodes, "t"), tuple(edges), ("v0",), ("t",))
        assert [trail_ids(trail) for _, _, trail in enumerate_path_masks(net, 20)] == [("v0-t",)]
        assert oracles.reference_walk_count(net, 2) == 1


class TestPathValidation:
    def test_non_contiguous_rejected(self):
        net = helpers.fig1_network()
        with pytest.raises(ValueError, match="contiguous"):
            net.validate_path(("e12", "e34"))

    def test_repeated_edge_rejected(self):
        net = helpers.fig1_network()
        with pytest.raises(ValueError, match="repeats"):
            net.validate_path(("e12", "e12"))

    def test_must_start_at_source_and_end_at_sink(self):
        net = helpers.fig1_network()
        with pytest.raises(ValueError, match="start"):
            net.validate_path(("e24",))
        # e12 ends at node 2, which is a sink, so a one-hop path is fine
        assert net.validate_path(("e12",)).edges == ("e12",)

    def test_path_nodes(self):
        net = helpers.fig1_network()
        path = net.validate_path(("e12", "e24"))
        assert net.path_nodes(path) == ("1", "2", "4")
