import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from oracles import enumerate_paths, reference_edge_spectrum, reference_node_spectrum
from rainbownet import (
    ContinuousRnf,
    DiscreteRnf,
    FlowDocumentError,
    FlowPath,
    IntervalSet,
    check_admissibility,
    edge_spectrum,
    flow_to_document,
    is_admissible,
    load_flow,
    node_spectrum,
    rainbow_flow_vector,
    refine,
    spectrum_measure,
    total_rainbow_flow,
)
from rainbownet.flows import sink_spectra


class TestSpectra:
    def test_fig1_edge_spectra(self):
        flow = helpers.fig1_flow()
        for edge in ("e12", "e24", "e25"):
            assert edge_spectrum(flow, edge) == frozenset({1})
        for edge in ("e13", "e34", "e35"):
            assert edge_spectrum(flow, edge) == frozenset({2})

    def test_unused_edge_has_empty_spectrum(self):
        net = helpers.fig1_network()
        flow = DiscreteRnf(net, (FlowPath(("e12",)),), (1,), 2, Fraction(1))
        assert edge_spectrum(flow, "e35") == frozenset()

    def test_fig1_node_spectra(self):
        flow = helpers.fig1_flow()
        assert node_spectrum(flow, "4") == frozenset({1, 2})
        assert node_spectrum(flow, "5") == frozenset({1, 2})
        assert node_spectrum(flow, "2") == frozenset({1})
        assert node_spectrum(flow, "3") == frozenset({2})

    def test_node_on_no_path_is_empty(self):
        net = helpers.fig1_network()
        flow = DiscreteRnf(net, (FlowPath(("e12",)),), (1,), 2, Fraction(1))
        assert node_spectrum(flow, "4") == frozenset()

    def test_unknown_identifiers_rejected(self):
        flow = helpers.fig1_flow()
        with pytest.raises(ValueError):
            edge_spectrum(flow, "nope")
        with pytest.raises(ValueError):
            node_spectrum(flow, "nope")

    def test_interval_spectra_union(self):
        net = helpers.fig1_network()
        flow = ContinuousRnf(
            net,
            (FlowPath(("e12", "e24")), FlowPath(("e12", "e25"))),
            (IntervalSet.from_pairs([[0, 1]]), IntervalSet.from_pairs([["0.5", 2]])),
        )
        spectrum = edge_spectrum(flow, "e12")
        assert spectrum == IntervalSet.from_pairs([[0, 2]])
        assert spectrum_measure(flow, spectrum) == 2

    def test_union_never_exceeds_sum_of_path_measures(self):
        flow = helpers.fig2_flow()
        for edge in flow.net.edges:
            union = edge_spectrum(flow, edge.id)
            total = sum(
                (s.measure for p, s in zip(flow.paths, flow.spectra) if edge.id in p.edges),
                Fraction(0),
            )
            assert union.measure <= total

    def test_sink_spectrum_matches_incoming_edges(self):
        for flow in (helpers.fig1_flow(), helpers.fig2_flow()):
            net = flow.net
            for sink in net.sinks:
                incoming = [e.id for e in net.edges if e.head == sink]
                combined = None
                for eid in incoming:
                    spectrum = edge_spectrum(flow, eid)
                    combined = spectrum if combined is None else (
                        combined | spectrum
                        if isinstance(spectrum, IntervalSet)
                        else combined.union(spectrum)
                    )
                assert combined == node_spectrum(flow, sink)


def _spectra_network(choice: int):
    """fig1, fig2, or a seeded layered DAG whose sinks include a relay."""
    if choice == 0:
        return helpers.fig1_network()
    if choice == 1:
        return helpers.fig2_network()
    rng = random.Random(choice)
    return helpers.layered_network(rng, rng.randint(2, 3), rng.randint(2, 4))


@st.composite
def _any_flows(draw):
    """A discrete or continuous flow on `_spectra_network`, admissible or not.

    Paths repeat and colors run past 8, so frozensets hold colors that
    share hash slots and their iteration order depends on insertion order.
    """
    net = _spectra_network(draw(st.integers(0, 40)))
    universe = enumerate_paths(net, 4)
    paths = draw(st.lists(st.sampled_from(universe), max_size=12))
    if draw(st.booleans()):
        colors = draw(st.lists(st.integers(1, 40), min_size=len(paths), max_size=len(paths)))
        return DiscreteRnf(net, paths, colors, 40, Fraction(1, 2))
    ends = st.fractions(0, 4, max_denominator=6)
    pairs = st.lists(st.tuples(ends, ends).map(sorted), min_size=1, max_size=2)
    spectra = [IntervalSet(tuple(draw(pairs))) for _ in paths]
    return ContinuousRnf(net, paths, spectra)


class TestSinkSpectra:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_any_flows())
    def test_one_pass_matches_each_sinks_node_spectrum(self, flow):
        net = flow.net
        edges = {edge.id: reference_edge_spectrum(flow, edge.id) for edge in net.edges}
        assert {edge_id: edge_spectrum(flow, edge_id) for edge_id in edges} == edges
        for node in net.nodes:
            assert node_spectrum(flow, node) == reference_node_spectrum(flow, node)
        expected = [reference_node_spectrum(flow, sink) for sink in net.sinks]
        spectra = sink_spectra(flow)
        assert list(spectra) == expected
        if isinstance(flow, DiscreteRnf):
            # the pipeline's held colors, in the order it decodes them
            assert [tuple(s) for s in spectra] == [tuple(s) for s in expected]
        assert rainbow_flow_vector(flow).values == tuple(
            spectrum_measure(flow, spectrum) for spectrum in expected
        )
        rows = check_admissibility(flow).rows
        assert [(row.edge_id, row.measure) for row in rows] == [
            (edge_id, spectrum_measure(flow, edges[edge_id])) for edge_id in sorted(edges)
        ]


class TestAdmissibility:
    def test_fig1_flow_saturates_every_edge(self):
        report = check_admissibility(helpers.fig1_flow())
        assert report.admissible
        assert all(row.slack == 0 for row in report.rows)

    def test_fig1_flow_fails_strict_comparison(self):
        assert not is_admissible(helpers.fig1_flow(), strict=True)

    def test_recoloring_overloads_shared_edge(self):
        net = helpers.fig1_network()
        doc = json.loads(helpers.bundled_text("fig1_flow"))
        doc["paths"][0]["color"] = 2
        flow = load_flow(doc, net)
        report = check_admissibility(flow)
        assert not report.admissible
        bad = {row.edge_id for row in report.rows if not row.ok}
        assert bad == {"e12"}
        assert report.rows[0].measure == 2  # rows sorted by edge id, e12 first

    def test_empty_flow_is_admissible(self):
        net = helpers.fig1_network()
        flow = DiscreteRnf(net, (), (), 2, Fraction(1))
        assert is_admissible(flow)
        assert rainbow_flow_vector(flow).values == (Fraction(0),) * 4

    def test_strict_empty_flow_on_zero_capacity_edge(self):
        net = helpers.fig1_network()
        zeroed = net.edges[0]
        edges = (type(zeroed)(zeroed.id, zeroed.tail, zeroed.head, Fraction(0)),) + net.edges[1:]
        from rainbownet import Network

        zero_net = Network(net.nodes, edges, net.sources, net.sinks)
        flow = DiscreteRnf(zero_net, (), (), 1, Fraction(1))
        assert is_admissible(flow)  # 0 <= 0
        assert not is_admissible(flow, strict=True)  # 0 < 0 fails

    def test_continuous_admissibility(self):
        flow = helpers.fig2_flow()
        report = check_admissibility(flow)
        assert report.admissible
        saturated = {row.edge_id for row in report.rows if row.slack == 0}
        assert saturated == {"e25", "e36", "e47", "e48", "e58"}


class TestFlowVector:
    def test_fig1_vector(self):
        rfv = rainbow_flow_vector(helpers.fig1_flow())
        assert rfv.sinks == ("2", "3", "4", "5")
        assert rfv.values == (Fraction(1), Fraction(1), Fraction(2), Fraction(2))

    def test_vector_scales_with_rate(self):
        net = helpers.fig1_network()
        doc = json.loads(helpers.bundled_text("fig1_flow"))
        doc["rate"] = "0.5"
        rfv = rainbow_flow_vector(load_flow(doc, net))
        assert rfv.values == (Fraction(1, 2),) * 2 + (Fraction(1),) * 2

    def test_fig2_vector_is_the_measure_of_the_spectra(self):
        # the three sink spectra measure 1.5+1, 0.5, and 0.5+0.5; the flow
        # vector is defined as exactly those measures
        rfv = rainbow_flow_vector(helpers.fig2_flow())
        assert rfv.values == (Fraction(5, 2), Fraction(1, 2), Fraction(1))

    def test_total_flow_fig1(self):
        assert total_rainbow_flow(helpers.fig1_flow()) == 6

    def test_total_flow_single_path(self):
        net = helpers.fig1_network()
        flow = DiscreteRnf(net, (FlowPath(("e12",)),), (1,), 3, Fraction(1, 4))
        assert total_rainbow_flow(flow) == Fraction(1, 4)


class TestRefine:
    def test_fig1_split_in_two(self):
        refined = refine(helpers.fig1_flow(), 2)
        assert len(refined.paths) == 8
        assert refined.num_colors == 4
        assert refined.rate == Fraction(1, 2)
        assert rainbow_flow_vector(refined).values == (
            Fraction(1),
            Fraction(1),
            Fraction(2),
            Fraction(2),
        )
        assert is_admissible(refined)

    def test_identity_split(self):
        flow = helpers.fig1_flow()
        assert refine(flow, 1) is flow

    def test_empty_flow(self):
        net = helpers.fig1_network()
        flow = DiscreteRnf(net, (), (), 2, Fraction(1))
        refined = refine(flow, 3)
        assert refined.paths == ()
        assert refined.num_colors == 6

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            refine(helpers.fig1_flow(), 0)

    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_random_flows_preserve_vector_and_admissibility(self, factor):
        rng = random.Random(500 + factor)
        for _ in range(5):
            net = helpers.random_network(rng)
            flow = helpers.random_admissible_flow(rng, net, 2, Fraction(1, 2))
            refined = refine(flow, factor)
            assert rainbow_flow_vector(refined).values == rainbow_flow_vector(flow).values
            assert is_admissible(refined) == is_admissible(flow)
            for edge in net.edges:
                before = spectrum_measure(flow, edge_spectrum(flow, edge.id))
                after = spectrum_measure(refined, edge_spectrum(refined, edge.id))
                assert before == after


class TestFlowDocuments:
    def test_round_trip_discrete(self):
        net = helpers.fig1_network()
        flow = helpers.fig1_flow(net)
        again = load_flow(flow_to_document(flow), net)
        assert again == flow

    def test_round_trip_continuous(self):
        net = helpers.fig2_network()
        flow = helpers.fig2_flow(net)
        again = load_flow(flow_to_document(flow), net)
        assert again == flow

    def test_color_out_of_range_rejected(self):
        net = helpers.fig1_network()
        doc = json.loads(helpers.bundled_text("fig1_flow"))
        doc["paths"][0]["color"] = 3
        with pytest.raises(FlowDocumentError, match="color"):
            load_flow(doc, net)

    @pytest.mark.parametrize("value", [2.9, True, None, float("inf"), "two"])
    def test_non_integral_K_rejected(self, value):
        doc = json.loads(helpers.bundled_text("fig1_flow"))
        doc["K"] = value
        with pytest.raises(FlowDocumentError, match=r"^K must be a whole number"):
            load_flow(doc, helpers.fig1_network())

    @pytest.mark.parametrize("value", [1.7, False, [1]])
    def test_non_integral_color_rejected(self, value):
        doc = json.loads(helpers.bundled_text("fig1_flow"))
        doc["paths"][1]["color"] = value
        with pytest.raises(FlowDocumentError, match=r"^path #1: color must be a whole number"):
            load_flow(doc, helpers.fig1_network())

    def test_integral_floats_and_numerals_read_as_integers(self):
        net = helpers.fig1_network()
        doc = json.loads(helpers.bundled_text("fig1_flow"))
        doc["K"] = "2"
        doc["paths"][0]["color"] = 1.0
        assert load_flow(doc, net) == helpers.fig1_flow(net)

    @pytest.mark.parametrize(
        "colors, num_colors, message",
        [((1.7, 1, 2, 2), 2, "color"), ((1, 1, 2, 2), 2.5, "num_colors"),
         ((1, True, 2, 2), 2, "color"), ((1, 1, 2, Fraction(5, 2)), 2, "color")],
    )
    def test_library_flows_refuse_non_integral_colors(self, colors, num_colors, message):
        # int() would read colour 1.7 as 1 and build the flow with K = 2.5
        flow = helpers.fig1_flow(helpers.fig1_network())
        with pytest.raises(FlowDocumentError, match=rf"^{message} must be a whole number"):
            DiscreteRnf(flow.net, flow.paths, colors, num_colors, flow.rate)

    def test_library_flows_read_integral_numbers_as_integers(self):
        flow = helpers.fig1_flow(helpers.fig1_network())
        colors = (1.0, Fraction(1), 2, 2)
        again = DiscreteRnf(flow.net, flow.paths, colors, 2.0, flow.rate)
        assert again == flow
        assert [type(c) for c in again.colors] == [int] * 4 and type(again.num_colors) is int

    def test_unknown_edge_rejected(self):
        net = helpers.fig1_network()
        doc = {"rate": "1", "K": 1, "paths": [{"edges": ["zz"], "color": 1}]}
        with pytest.raises(FlowDocumentError, match="zz"):
            load_flow(doc, net)

    def test_broken_json_reports_position(self):
        with pytest.raises(FlowDocumentError, match="line"):
            load_flow("{", helpers.fig1_network())

    def test_missing_rate_key(self):
        net = helpers.fig1_network()
        with pytest.raises(FlowDocumentError, match="rate"):
            load_flow({"K": 2, "paths": []}, net)
