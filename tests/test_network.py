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
    enumerate_paths,
    load_scenario,
    max_flow,
    network,
)
from rainbownet.network import enumerate_path_masks


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
        for net in helpers.walk_networks():
            for max_len in (1, 2, 4, 6):
                assert enumerate_paths(net, max_len) == oracles.reference_enumerate_paths(
                    net, max_len
                )

    def test_masks_are_the_edges_and_sinks_of_each_path(self):
        for net in helpers.walk_networks():
            edge_position = {edge.id: i for i, edge in enumerate(net.edges)}
            rows = enumerate_path_masks(net, 5)
            assert [edges for edges, _, _ in rows] == [p.edges for p in enumerate_paths(net, 5)]
            for edges, edge_mask, sink_mask in rows:
                nodes = net.path_nodes(FlowPath(edges))
                assert edge_mask == sum(1 << edge_position[e] for e in edges)
                assert sink_mask == sum(1 << t for t, s in enumerate(net.sinks) if s in nodes)

    def test_guard_counts_partial_paths_like_the_reference(self, monkeypatch):
        # the guard counts every partial path the walk extends, full-length
        # ones included, so each limit raises exactly where the reference does
        raised = 0
        for net in list(helpers.walk_networks())[:12]:
            for limit in (1, 3, 8, 20, 60):
                monkeypatch.setattr(network, "MAX_PATHS", limit)
                outcomes = []
                for walk in (enumerate_paths, oracles.reference_enumerate_paths):
                    try:
                        outcomes.append([p.edges for p in walk(net, 4)])
                    except SearchSizeError:
                        outcomes.append("raised")
                assert outcomes[0] == outcomes[1]
                raised += outcomes[0] == "raised"
        assert raised > 0


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
