import hashlib
import json
import logging
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from rainbownet import (
    Edge,
    Network,
    SearchConfig,
    SearchSizeError,
    alternating_search,
    drnf_distortion,
    exact_search,
    greedy_search,
    is_admissible,
    max_flow,
    optimize_pet_profile,
    route,
    separate_coding_baseline,
    weighted_distortion,
)
from rainbownet import search
from rainbownet.distortion import MAX_LAYERS, GAUSSIAN, DistortionModel, description_rates
from rainbownet.network import enumerate_path_masks
from rainbownet.search import _candidates
from oracles import enumerate_paths


def _cfg(num_colors, rate, **kw):
    return SearchConfig(num_colors=num_colors, rate=Fraction(rate), **kw)


class TestExactSearch:
    def test_fig1_two_colors(self):
        result = exact_search(helpers.fig1_network(), _cfg(2, 1, max_path_len=2))
        assert result.objective == 6
        assert result.rfv.values == (Fraction(1), Fraction(1), Fraction(2), Fraction(2))
        assert is_admissible(result.flow)

    def test_fig1_single_color(self):
        result = exact_search(helpers.fig1_network(), _cfg(1, 1, max_path_len=2))
        assert result.objective == 4

    def test_zero_capacity_network_returns_empty_flow(self):
        net = Network(
            nodes=("a", "b"),
            edges=(Edge("e1", "a", "b", Fraction(0)),),
            sources=("a",),
            sinks=("b",),
        )
        result = exact_search(net, _cfg(2, 1))
        assert result.objective == 0
        assert result.flow.paths == ()

    def test_guard_rejects_large_instances(self, monkeypatch):
        # fig1 at length 2 builds 24 unions, past a guard of 5
        monkeypatch.setattr(search, "MAX_SEARCH_STEPS", 5)
        with pytest.raises(SearchSizeError, match="closure exceeded 5 entries"):
            exact_search(helpers.fig1_network(), _cfg(2, 1, max_path_len=2))

    def test_scan_guard_bounds_work_not_multisets(self):
        # one edge of 4000 colors, K=8000: only 8001 multisets, but the
        # depth-first scan reaches the 4000 ones only after O(K^2) steps
        net = Network(
            nodes=("s", "t"),
            edges=(Edge("e0", "s", "t", Fraction(1)),),
            sources=("s",),
            sinks=("t",),
        )
        with pytest.raises(SearchSizeError, match="coloring scan exceeded its guard"):
            exact_search(net, _cfg(8000, Fraction(1, 4000), max_path_len=1))

    def test_scan_guard_counts_the_candidates_it_skips(self, monkeypatch):
        # 40 paths to t share e0, which holds one color; a bypass longer than
        # max_path_len puts the cut bound out of reach. The closure builds 41
        # unions and the scan pushes about as many, but after each first push
        # it skips every later candidate on the full e0: 864 steps in all
        mids = [f"m{i:02d}" for i in range(40)]
        bypass = (("s", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "t"))
        net = Network(
            nodes=("s", "a", *mids, "b1", "b2", "b3", "t"),
            edges=(
                Edge("e0", "s", "a", Fraction(1, 2)),
                *(Edge(f"a{m}", "a", m, Fraction(1)) for m in mids),
                *(Edge(f"t{m}", m, "t", Fraction(1)) for m in mids),
                *(Edge(f"b{i}", u, v, Fraction(1)) for i, (u, v) in enumerate(bypass)),
            ),
            sources=("s",),
            sinks=("t",),
        )
        cfg = _cfg(2, Fraction(1, 2), max_path_len=3)
        result = exact_search(net, cfg)
        assert (result.objective, result.bound) == (Fraction(1, 2), 1)
        monkeypatch.setattr(search, "MAX_SEARCH_STEPS", 300)
        with pytest.raises(SearchSizeError, match="coloring scan exceeded its guard of 300"):
            exact_search(net, cfg)

    def test_many_multisets_and_few_steps_are_searched(self):
        # fanout(8, 4) at K=4 has about 1.8e8 K-multisets of candidates;
        # the bounded scan takes 724 steps and meets the cut bound
        net = helpers.document_network(helpers.fanout_document(8, 4, 0))
        result = exact_search(net, _cfg(4, Fraction(1, 2), max_path_len=4))
        assert result.objective == result.bound == 6
        assert is_admissible(result.flow)

    def test_scan_guard_trips_on_the_step_past_it(self, monkeypatch):
        # fig1 at K=4, length 4: 24 unions, and the scan visits 2079 candidates
        net, cfg = helpers.fig1_network(), _cfg(4, Fraction(1, 2), max_path_len=4)
        unpatched = exact_search(net, cfg)
        monkeypatch.setattr(search, "MAX_SEARCH_STEPS", 2079)
        assert exact_search(net, cfg) == unpatched
        monkeypatch.setattr(search, "MAX_SEARCH_STEPS", 2078)
        with pytest.raises(SearchSizeError, match="coloring scan exceeded its guard of 2078 steps"):
            exact_search(net, cfg)

    def test_matches_brute_force_on_fig1(self):
        net = helpers.fig1_network()
        for colors in (1, 2):
            result = exact_search(net, _cfg(colors, 1, max_path_len=2))
            assert result.objective == oracles.brute_best_total_flow(
                net, colors, Fraction(1), 2
            )

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(99)
        checked = 0
        while checked < 4:
            net = helpers.random_network(rng, max_nodes=5)
            if len(list(enumerate_paths(net, 2))) > 7:
                continue
            result = exact_search(net, _cfg(2, Fraction(1, 2), max_path_len=2))
            assert result.objective == oracles.brute_best_total_flow(
                net, 2, Fraction(1, 2), 2
            )
            checked += 1

    def test_output_always_admissible(self):
        rng = random.Random(5)
        for _ in range(6):
            net = helpers.random_network(rng)
            result = exact_search(net, _cfg(2, Fraction(1, 2), max_path_len=3))
            assert is_admissible(result.flow)

    def test_objective_bounded_by_sum_of_max_flows(self):
        rng = random.Random(31)
        for _ in range(6):
            net = helpers.random_network(rng)
            result = exact_search(net, _cfg(2, Fraction(1, 2), max_path_len=3))
            bound = sum(max_flow(net, t) for t in net.sinks)
            assert result.objective <= bound

    def test_unused_colors_are_fine(self):
        result = exact_search(helpers.fig1_network(), _cfg(8, 1, max_path_len=2))
        assert result.objective == 6

    def test_deterministic(self):
        net = helpers.fig1_network()
        first = exact_search(net, _cfg(2, 1, max_path_len=2))
        second = exact_search(net, _cfg(2, 1, max_path_len=2))
        assert first == second


class TestGreedySearch:
    def test_fig1_between_bounds(self):
        net = helpers.fig1_network()
        greedy = greedy_search(net, _cfg(2, 1, max_path_len=2))
        exact = exact_search(net, _cfg(2, 1, max_path_len=2))
        assert 4 <= greedy.objective <= exact.objective

    def test_single_color_matches_exact(self):
        rng = random.Random(77)
        nets = [helpers.fig1_network(), helpers.fig2_network()]
        nets += [helpers.random_network(rng) for _ in range(5)]
        for net in nets:
            cfg = _cfg(1, Fraction(1, 2), max_path_len=3)
            assert greedy_search(net, cfg).objective == exact_search(net, cfg).objective

    def test_never_beats_exact(self):
        rng = random.Random(13)
        nets = [helpers.fig1_network(), helpers.fig2_network()]
        nets += [helpers.random_network(rng) for _ in range(8)]
        for net in nets:
            cfg = _cfg(2, Fraction(1, 2), max_path_len=3)
            assert greedy_search(net, cfg).objective <= exact_search(net, cfg).objective

    @pytest.mark.parametrize(
        "family", ["layered", "fanout", "figures", "random", "dense", "walk"]
    )
    def test_matches_the_reference_greedy(self, family):
        rng = random.Random(43)
        runs = 0
        for net, K, max_len in _scan_instances(family):
            raw = [rng.choice((0, 1, 3)) for _ in net.sinks]
            raw[rng.randrange(len(raw))] += 1
            weights = tuple(w / sum(raw) for w in raw)
            for objective in ("trf", "wd"):
                for strict in (False, True):
                    cfg = _cfg(
                        K, Fraction(1, 2), max_path_len=max_len, objective=objective,
                        weights=weights, strict=strict,
                    )
                    result = greedy_search(net, cfg)
                    reference = oracles.reference_greedy_search(net, cfg)
                    assert (result.flow, result.objective) == (reference.flow, reference.objective)
                    runs += 1
        assert runs >= 24

    @pytest.mark.parametrize("objective", ["trf", "wd"])
    def test_idle_colors_stop_like_the_reference_greedy(self, objective):
        # K=10**6 runs through the stop at the first unused color that places
        # nothing; test_work_is_bounded_by_the_colors_in_use counts its work
        for net in (helpers.fig1_network(), helpers.fig2_network()):
            weights = tuple(1 / len(net.sinks) for _ in net.sinks)
            for strict in (False, True):
                cfg = _cfg(10**6, Fraction(1, 2), objective=objective, weights=weights, strict=strict)
                result = greedy_search(net, cfg)
                reference = oracles.reference_greedy_search(net, cfg)
                assert (result.flow, result.objective) == (reference.flow, reference.objective)

    def test_empty_universe(self):
        net = Network(
            nodes=("a", "b", "c"),
            edges=(Edge("e1", "a", "b", Fraction(1)),),
            sources=("a",),
            sinks=("c",),
        )
        result = greedy_search(net, _cfg(2, 1))
        assert result.objective == 0
        assert result.flow.paths == ()

    def test_work_is_bounded_by_the_colors_in_use(self, monkeypatch):
        # at rate 1/2 at most 6 colors carry a path on fig1; a round stops at
        # the first unused color that places nothing, so K=10**5 searches
        # for paths as often as K=8 and routes the same flow
        calls = []
        shortest_paths = search._shortest_paths

        def counted(*args):
            calls.append(1)
            return shortest_paths(*args)

        monkeypatch.setattr(search, "_shortest_paths", counted)
        net = helpers.fig1_network()
        small = greedy_search(net, _cfg(8, Fraction(1, 2)))
        small_calls, calls[:] = len(calls), []
        large = greedy_search(net, _cfg(10**5, Fraction(1, 2)))
        assert len(calls) == small_calls
        assert (large.flow.paths, large.flow.colors) == (small.flow.paths, small.flow.colors)
        assert large.objective == small.objective

    def test_a_sink_that_is_a_source_is_gained_by_a_path_leaving_it(self):
        # s is a source and a sink; the one path out of it reaches t, and
        # both sinks gain the color
        net = Network(
            nodes=("s", "t"),
            edges=(Edge("e1", "s", "t", Fraction(1)),),
            sources=("s",),
            sinks=("s", "t"),
        )
        result = greedy_search(net, _cfg(1, 1, max_path_len=1))
        assert [path.edges for path in result.flow.paths] == [("e1",)]
        assert result.rfv.values == (Fraction(1), Fraction(1))

    def test_gains_within_1e_15_tie(self):
        # sink a weighs 4e-16 more than sink b, so its path gains a few 1e-16
        # more: a tie, which b's path wins by its lesser edge id
        net = Network(
            nodes=("s", "a", "b"),
            edges=(Edge("e2", "s", "a", Fraction(1)), Edge("e1", "s", "b", Fraction(1))),
            sources=("s",),
            sinks=("a", "b"),
        )
        weights = (0.5000000000000002, 0.4999999999999998)
        result = greedy_search(net, _cfg(1, 1, max_path_len=1, objective="wd", weights=weights))
        assert [path.edges for path in result.flow.paths] == [("e1",), ("e2",)]

    def test_a_huge_length_bound_costs_nothing(self):
        # the search stops at the first layer that reaches no new node
        net = helpers.document_network(helpers.dense_document(12, 43, 4, 1144964661))
        start = time.perf_counter()
        huge = greedy_search(net, _cfg(3, Fraction(1, 2), max_path_len=100_000_000))
        assert time.perf_counter() - start < 1.0
        assert huge == greedy_search(net, _cfg(3, Fraction(1, 2), max_path_len=len(net.nodes)))


class TestWeightedObjective:
    def test_exact_wd_prefers_covered_sinks(self):
        net = helpers.fig1_network()
        cfg = _cfg(
            2,
            1,
            max_path_len=2,
            objective="wd",
            weights=(0.25, 0.25, 0.25, 0.25),
            profile=(0.5, 0.5),
        )
        result = exact_search(net, cfg)
        expected = drnf_distortion(result.rfv.values, (0.5, 0.5), Fraction(1))
        assert result.objective == pytest.approx(sum(expected) / 4)
        assert result.rfv.values == (Fraction(1), Fraction(1), Fraction(2), Fraction(2))

    def test_greedy_wd_runs_and_is_admissible(self):
        net = helpers.fig2_network()
        cfg = _cfg(
            2,
            Fraction(1, 2),
            max_path_len=3,
            objective="wd",
            weights=(0.5, 0.25, 0.25),
        )
        result = greedy_search(net, cfg)
        assert is_admissible(result.flow)

    def test_wd_requires_weights(self):
        with pytest.raises(ValueError, match="weight"):
            exact_search(helpers.fig1_network(), _cfg(2, 1, objective="wd"))

    @staticmethod
    def _wd_instances():
        yield helpers.fig1_network(), 2, Fraction(1), (0.1, 0.2, 0.3, 0.4), None
        yield helpers.fig1_network(), 2, Fraction(1), (0.25,) * 4, (0.7, 0.3)
        yield helpers.fig2_network(), 3, Fraction(1, 2), (0.5, 0.3, 0.2), None
        yield helpers.fig2_network(), 2, Fraction(1, 2), (0.2, 0.2, 0.6), (0.4, 0.6)
        rng = random.Random(17)
        for _ in range(6):
            net = helpers.random_network(rng, max_nodes=6)
            raw = [rng.random() + 0.05 for _ in net.sinks]
            weights = tuple(v / sum(raw) for v in raw)
            yield net, 2, Fraction(1, 2), weights, (0.6, 0.4)

    @pytest.mark.parametrize("search", [exact_search, greedy_search])
    def test_objective_is_the_weighted_distortion_of_the_flow_vector(self, search):
        # bit for bit: the objective evaluates the same per-sink distortion
        # as drnf_distortion on the flow vector it returns
        for net, colors, rate, weights, profile in self._wd_instances():
            cfg = _cfg(
                colors, rate, max_path_len=3, objective="wd", weights=weights, profile=profile
            )
            result = search(net, cfg)
            layers = profile or tuple(1.0 / colors for _ in range(colors))
            expected = drnf_distortion(result.rfv.values, layers, rate)
            assert result.objective == weighted_distortion(expected, weights)

    @pytest.mark.parametrize("search", [exact_search, greedy_search])
    def test_weight_count_must_match_the_sinks(self, search):
        cfg = _cfg(2, 1, max_path_len=2, objective="wd", weights=(0.5, 0.5))
        with pytest.raises(ValueError, match="expected 4 weights"):
            search(helpers.fig1_network(), cfg)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("weights", (math.nan, 0.5, 0.25, 0.25)),
            ("weights", (math.inf, 0.0, 0.0, 0.0)),
            ("profile", (math.nan, 1.0)),
            ("profile", (math.inf, 1.0)),
            ("profile", (-0.5, 1.5)),
        ],
    )
    def test_config_rejects_non_finite_or_negative_entries(self, field, value):
        kw = {"weights": (0.25,) * 4, field: value}
        with pytest.raises(ValueError, match=field.rstrip("s")):
            _cfg(2, 1, objective="wd", **kw)

    @pytest.mark.parametrize("profile", [(1.0, 1.0), (0.0, 0.0), (0.5, 0.4)])
    def test_config_rejects_a_profile_off_the_simplex(self, profile):
        # a profile summing to 2 would price the flow below the reachable optimum
        with pytest.raises(ValueError, match="profile must sum to 1"):
            _cfg(2, 1, objective="wd", weights=(0.25,) * 4, profile=profile)

    def test_config_rejects_a_wd_search_over_too_many_layers(self):
        # the level table has K + 1 entries
        with pytest.raises(ValueError, match="limit of"):
            _cfg(MAX_LAYERS + 1, 1, objective="wd", weights=(0.25,) * 4)
        _cfg(MAX_LAYERS, 1, objective="wd", weights=(0.25,) * 4)

    def test_config_rejects_a_trf_search_over_too_many_layers(self):
        # the exact scan's stack holds K candidates, and route's cut bound
        # builds up to K + 1 levels
        with pytest.raises(ValueError, match="limit of"):
            _cfg(MAX_LAYERS + 1, 1)
        _cfg(MAX_LAYERS, 1)

    def test_levels_equal_the_per_entry_distortions(self):
        # bit for bit against one scalar model call per level, on seeded
        # normalized profiles (and the uniform default) of up to 64 layers;
        # so are the first levels alone, which greedy and route build
        rng = random.Random(41)
        net = helpers.fig1_network()
        for trial in range(200):
            colors = rng.randint(1, 64)
            raw = [rng.random() for _ in range(colors)]
            profile = None if trial % 4 == 0 else tuple(v / sum(raw) for v in raw)
            rate = Fraction(rng.randint(1, 24), rng.randint(1, 8))
            cfg = _cfg(colors, rate, objective="wd", weights=(0.25,) * 4, profile=profile)
            levels, _ = search._objective(cfg, net)
            layers = profile or tuple(1.0 / colors for _ in range(colors))
            expected = [GAUSSIAN.distortion(r) for r in description_rates(layers, rate)]
            assert [level.hex() for level in levels] == [level.hex() for level in expected]
            most = rng.randint(0, colors)
            prefix, _ = search._objective(cfg, net, most)
            assert [level.hex() for level in prefix] == [
                level.hex() for level in expected[: most + 1]
            ]

    def test_levels_take_one_model_call(self, monkeypatch):
        calls = []
        evaluate = DistortionModel.distortion_array

        def counted(model, rates):
            calls.append(len(rates))
            return evaluate(model, rates)

        monkeypatch.setattr(DistortionModel, "distortion_array", counted)
        cfg = _cfg(1000, Fraction(1, 2), objective="wd", weights=(0.25,) * 4)
        levels, _ = search._objective(cfg, helpers.fig1_network())
        assert calls == [1001]
        assert len(levels) == 1001

    def test_greedy_builds_the_levels_of_the_colors_it_can_use(self, monkeypatch):
        # fig1 at rate 1/2: its edges hold 12 colors in all, so no sink
        # holds more than 12 descriptions, and greedy reads one level past
        # a count: K=10**6 builds the 14 levels of counts 0-13, not 10**6 + 1
        calls = []
        evaluate = DistortionModel.distortion_array

        def counted(model, rates):
            calls.append(len(rates))
            return evaluate(model, rates)

        monkeypatch.setattr(DistortionModel, "distortion_array", counted)
        net = helpers.fig1_network()
        cfg = _cfg(10**6, Fraction(1, 2), objective="wd", weights=(0.25,) * 4)
        greedy_search(net, cfg)
        assert calls == [sum(search._color_capacities(net, cfg).values()) + 2] == [14]

    def test_exact_builds_the_levels_of_the_colors_it_can_use(self, monkeypatch):
        # the exact search sizes its levels by greedy's rule, and its bounds
        # read the last level for any count past it: K=10**6 builds at most
        # the edges' total room + 2 levels and still stops at the scan guard
        calls = []
        evaluate = DistortionModel.distortion_array

        def counted(model, rates):
            calls.append(len(rates))
            return evaluate(model, rates)

        monkeypatch.setattr(DistortionModel, "distortion_array", counted)
        net = helpers.fig1_network()
        cfg = _cfg(10**6, Fraction(1, 2), objective="wd", weights=(0.25,) * 4)
        with pytest.raises(SearchSizeError, match="coloring scan exceeded its guard"):
            exact_search(net, cfg)
        room = sum(search._color_capacities(net, cfg).values())
        assert len(calls) == 1 and calls[0] <= room + 2


def _signature_keyed(unions, infos):
    """The closure re-keyed by (edges, sinks), the sinks those of the rep paths."""
    return {
        (edges, frozenset().union(*(infos[i][1] for i in rep))): rep
        for edges, rep in unions.items()
    }


def _members(mask):
    """The positions of the set bits of `mask`, ascending."""
    return [t for t in range(mask.bit_length()) if mask >> t & 1]


def _decoded(net, candidates):
    """Mask candidates as ((edge ids, sink positions), rep), the reference's form.

    Bit i of an edge mask stands for the i-th edge id in string order.
    """
    ids = sorted(edge.id for edge in net.edges)
    return [
        ((frozenset(ids[i] for i in _members(edges)), frozenset(_members(sinks))), rep)
        for edges, sinks, rep in candidates
    ]


def _reference_candidates(net, max_len, limit=search.MAX_SEARCH_STEPS):
    """The frozenset closure's candidates over the walk's paths."""
    paths = enumerate_paths(net, max_len)
    return oracles.reference_candidates(oracles.reference_path_signatures(net, paths), limit)


def _cost_score(levels, weights):
    """The search cost as a score on a {sink position: count} dict, minimized."""
    positions = range(len(weights))
    return lambda counts: search._cost(levels, weights, [counts.get(t, 0) for t in positions])


class TestPruning:
    @staticmethod
    def _path_universes():
        rng = random.Random(23)
        for _ in range(30):
            yield helpers.random_network(rng, max_nodes=6), 3
        for width, depth in ((2, 3), (3, 2), (2, 4), (3, 3)):
            yield helpers.layered_network(rng, width, depth), depth + 1
        for family in ("layered", "fanout", "figures", "random"):
            for net, _, max_len in _scan_instances(family):
                yield net, max_len

    def test_matches_the_all_pairs_prune(self):
        # the full closure builds every union of every path subset; growing
        # a union only by a path that reaches a new sink keeps the same
        # undominated unions, with the same reps
        for net, max_len in self._path_universes():
            infos = oracles.reference_path_signatures(net, enumerate_paths(net, max_len))
            closure = _signature_keyed(oracles.signature_closure(infos, 200_000), infos)
            candidates = _candidates(enumerate_path_masks(net, max_len), 200_000)
            assert _decoded(net, candidates) == oracles.all_pairs_prune(closure)

    def test_matches_the_reference_candidates(self):
        # the same order, edge sets, sink sets and reps as the frozenset
        # closure wherever neither raises. That closure builds every
        # sink-adding union (283 on layered(3, 3, 0) at length 4) and the
        # pass only those grown from minimal ones (213), so their guards
        # trip at different points. The walk networks' shuffled x?? ids
        # tell a sort by edge ids from a sort by edge bits
        universes = list(self._path_universes())
        universes += [(net, 4) for net in helpers.walk_networks()]
        compared = raised = 0
        for net, max_len in universes:
            rows = enumerate_path_masks(net, max_len)
            for limit in (1, 5, 50, 212, 213, 214, 282, 283, 284, search.MAX_SEARCH_STEPS):
                outcomes = []
                for build in (
                    lambda: _decoded(net, _candidates(rows, limit)),
                    lambda: _reference_candidates(net, max_len, limit),
                ):
                    try:
                        outcomes.append(build())
                    except SearchSizeError:
                        outcomes.append(None)
                if None not in outcomes:
                    assert outcomes[0] == outcomes[1]
                    compared += 1
                raised += outcomes[0] is None
        assert compared > len(universes) and raised > 0

    def test_matches_the_breadth_first_closure(self):
        # the one pass against the breadth-first closure over every
        # sink-adding union plus a separate minimality pass, as
        # (edges, sinks, rep) in the same order, wherever neither raises
        instances = list(self._path_universes())
        instances += [(net, 4) for net in helpers.walk_networks()]
        for seed in range(8):
            for shape in ((7, 14, 3), (8, 20, 4)):
                net = helpers.document_network(helpers.dense_document(*shape, seed))
                instances += [(net, max_len) for max_len in range(2, 6)]
            for width, depth in ((3, 3), (2, 4)):
                net = helpers.document_network(helpers.layered_document(width, depth, seed))
                instances += [(net, max_len) for max_len in range(3, 7)]
            for shape in ((6, 3), (8, 4)):
                net = helpers.document_network(helpers.fanout_document(*shape, seed))
                instances.append((net, 4))
        for net in (helpers.fig1_network(), helpers.fig2_network()):
            instances += [(net, max_len) for max_len in range(2, 6)]
        # 4,918 candidates of 16,839 unions built, 17.2M subset tests
        instances.append((helpers.document_network(helpers.dense_document(40, 144, 4, 10)), 4))
        compared = 0
        for net, max_len in instances:
            rows = enumerate_path_masks(net, max_len)
            try:
                reference = oracles.breadth_first_candidates(rows, search.MAX_SEARCH_STEPS)
                candidates = _candidates(rows, search.MAX_SEARCH_STEPS)
            except SearchSizeError:
                continue
            assert candidates == reference
            compared += 1
        assert compared == len(instances)

    def test_closure_guard_trips_on_the_union_past_it(self):
        # layered(3, 3, 0) at length 4: the pass builds 213 unions
        rows = enumerate_path_masks(helpers.document_network(helpers.layered_document(3, 3, 0)), 4)
        assert _candidates(rows, 213) == _candidates(rows, search.MAX_SEARCH_STEPS)
        with pytest.raises(SearchSizeError, match="signature closure exceeded 212 entries"):
            _candidates(rows, 212)

    def test_subset_test_guard_trips_on_the_test_past_it(self, monkeypatch):
        # layered(3, 3, 0) at length 4: its 213 unions are tested against
        # 2,468 kept masks of their sink sets in all
        rows = enumerate_path_masks(helpers.document_network(helpers.layered_document(3, 3, 0)), 4)
        unpatched = _candidates(rows, search.MAX_SEARCH_STEPS)
        monkeypatch.setattr(search, "SUBSET_TESTS_PER_UNION", 1)
        assert _candidates(rows, 2468) == unpatched
        with pytest.raises(SearchSizeError, match="subset tests exceeded their guard of 2467;"):
            _candidates(rows, 2467)

    def test_subset_tests_bound_the_closure(self):
        # dense(12, 43, 4, 19) at length 4: the breadth-first closure
        # overflowed 200,000 unions; the pass builds 78,740 of them, but
        # their 138M subset tests pass the guard of 60M after about 0.5 s
        net = helpers.document_network(helpers.dense_document(12, 43, 4, 19))
        cfg = _cfg(3, Fraction(1, 2), max_path_len=4)
        with pytest.raises(SearchSizeError, match="subset tests exceeded their guard of 60000000"):
            exact_search(net, cfg)

    def test_guard_counts_only_the_unions_it_builds(self, monkeypatch):
        # layered(3, 3, 0) at length 4: the full closure has 1,040 unions,
        # the pass builds 213, so a guard of 500 does not trip
        net = helpers.document_network(helpers.layered_document(3, 3, 0))
        cfg = _cfg(2, Fraction(1, 2), max_path_len=4)
        unpatched = exact_search(net, cfg)
        monkeypatch.setattr(search, "MAX_SEARCH_STEPS", 500)
        patched = exact_search(net, cfg)
        assert (patched.flow, patched.objective) == (unpatched.flow, unpatched.objective)

    def test_closure_walks_the_rows_once_per_sink_set(self):
        # a union grows only by the rows that reach a sink outside its sink
        # set, listed on the set's first visit: layered(3, 3, 0) at length 4
        # builds 213 unions over 16 sink sets. The candidates' order ranks
        # edge ids from the network, not from the rows
        class CountedRows(list):
            walks = 0

            def __iter__(self):
                self.walks += 1
                return super().__iter__()

        for net, max_len in self._path_universes():
            rows = enumerate_path_masks(net, max_len)
            counted = CountedRows(rows)
            candidates = _candidates(counted, search.MAX_SEARCH_STEPS)
            assert candidates == _candidates(rows, search.MAX_SEARCH_STEPS)
            assert counted.walks == len({sinks for _, sinks, _ in candidates})

    def test_packed_subset_test_matches_the_pairwise_one(self):
        # random rows over up to 90 edges, each edge's head one of a few
        # sinks or none, so a row that adds a sink adds an edge: kept masks
        # pack into ints of many machine words, and the highest field
        # borrows past the top of the packed int when it is a subset. The
        # pass keeps exactly the unions of the sink-adding closure that no
        # other of equal sinks is a subset of
        rng = random.Random(43)
        for _ in range(200):
            num_edges = rng.choice((1, 3, 8, 30, 90))
            heads = [rng.choice((0, 0, 1, 2, 4, 8)) for _ in range(num_edges)]
            rows = []
            for _ in range(rng.randint(1, 12)):
                edges = sum(1 << e for e in range(num_edges) if rng.random() < 0.3)
                sinks = 0
                for e in range(num_edges):
                    sinks |= heads[e] if edges >> e & 1 else 0
                if sinks:
                    rows.append((edges, sinks, None))
            closure = {0: 0}  # every sink-adding union -> its sinks
            frontier = [0]
            while frontier:
                added = []
                for edges in frontier:
                    for path_edges, path_sinks, _ in rows:
                        union = edges | path_edges
                        if path_sinks & ~closure[edges] and union not in closure:
                            closure[union] = closure[edges] | path_sinks
                            added.append(union)
                frontier = added
            kept = {
                (edges, sinks) for edges, sinks in closure.items()
                if not any(
                    other != edges and other & ~edges == 0 and closure[other] == sinks
                    for other in closure
                )
            }
            candidates = _candidates(rows, search.MAX_SEARCH_STEPS)
            assert {(edges, sinks) for edges, sinks, _ in candidates} == kept

    def test_candidates_are_pinned(self):
        # sorted edges, sorted sink names and rep of every pruned candidate on
        # the layered scan family, fanout(6, 3, s) and fig1/fig2 at lengths 3-4;
        # flows print reps, so this pins every flow the exact search can write
        instances = [(net, max_len) for net, _, max_len in _scan_instances("layered")]
        instances += [(net, max_len) for net, _, max_len in _scan_instances("fanout")]
        instances += [
            (net, max_len)
            for net in (helpers.fig1_network(), helpers.fig2_network())
            for max_len in (3, 4)
        ]
        rows = []
        for net, max_len in instances:
            candidates = _candidates(enumerate_path_masks(net, max_len), search.MAX_SEARCH_STEPS)
            rows.append(
                [[sorted(edges), sorted(net.sinks[t] for t in sinks), list(rep)]
                 for (edges, sinks), rep in _decoded(net, candidates)]
            )
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "1ac61d3456b870ecab64e21df8dd60708913c98e2d09a269d1f99592c18f6917"
        )


def _scan_instances(family):
    """(network, K, max_path_len) of one differential-scan family.

    The coloring scan is checked on the first four families; "dense" and
    "walk" (second sources, sources that are sinks) serve greedy's check.
    """
    if family == "layered":
        for width, depth in ((3, 3), (2, 4)):
            for seed in range(24):
                document = helpers.layered_document(width, depth, seed)
                yield helpers.document_network(document), 2, depth + 1
    elif family == "fanout":
        for seed in range(10):
            yield helpers.document_network(helpers.fanout_document(6, 3, seed)), 3, 4
    elif family == "figures":
        for net in (helpers.fig1_network(), helpers.fig2_network()):
            for K in (2, 3, 4):
                yield net, K, 4
    elif family == "dense":
        for shape in ((12, 43, 4), (14, 48, 5)):
            for seed in range(8):
                yield helpers.document_network(helpers.dense_document(*shape, seed)), 3, 5
    elif family == "walk":
        for net in helpers.walk_networks():
            yield net, 2, 4
    else:
        rng = random.Random(31)
        for _ in range(30):
            yield helpers.random_network(rng), rng.randint(1, 3), 3


class TestColoringScan:
    @pytest.mark.parametrize("family", ["layered", "fanout", "figures", "random"])
    def test_matches_the_reference_scan(self, family):
        scans = 0
        for net, K, max_len in _scan_instances(family):
            candidates = _candidates(enumerate_path_masks(net, max_len), search.MAX_SEARCH_STEPS)
            reference = _reference_candidates(net, max_len)
            weights = tuple(1 / len(net.sinks) for _ in net.sinks)
            for objective in ("trf", "wd"):
                for strict in (False, True):
                    cfg = _cfg(
                        K, Fraction(1, 2), max_path_len=max_len, objective=objective,
                        weights=weights, strict=strict,
                    )
                    if search._nothing_admissible(net, cfg):
                        continue
                    levels, cost_weights = search._objective(cfg, net)
                    capacity_for = search._color_capacities(net, cfg)
                    score = _cost_score(levels, cost_weights)
                    # the same multiset (so the same tie-break) and objective
                    assert search._scan_colorings(
                        candidates, capacity_for, K, levels, cost_weights
                    ) == oracles.reference_coloring_scan(reference, capacity_for, K, score, True)
                    scans += 1
        assert scans >= 20

    def test_scores_only_feasible_multisets(self, monkeypatch):
        # fanout(6, 3, 0) at K=3: 45,760 multisets of 64 candidates, 2,667
        # fit, and the completion bound leaves 327 of those to cost; the
        # ninth reaches the cut bound, which ends the scan there
        calls = []
        cost = search._cost

        def counted(levels, weights, counts):
            calls.append(1)
            return cost(levels, weights, counts)

        net = helpers.document_network(helpers.fanout_document(6, 3, 0))
        cfg = _cfg(3, Fraction(1, 2))
        candidates = _candidates(enumerate_path_masks(net, 4), search.MAX_SEARCH_STEPS)
        levels, weights = search._objective(cfg, net)
        capacity_for = search._color_capacities(net, cfg)
        bound = search._cut_bound(levels, weights, search._sink_caps(net, cfg))
        monkeypatch.setattr(search, "_cost", counted)
        full = search._scan_colorings(candidates, capacity_for, 3, levels, weights)
        assert len(calls) == 327
        calls.clear()
        stopped = search._scan_colorings(candidates, capacity_for, 3, levels, weights, bound)
        assert len(calls) == 9
        assert stopped == full == (full[0], bound)
        result = exact_search(net, cfg)
        assert is_admissible(result.flow)
        assert result.objective == result.bound == Fraction(9, 2)

    def test_builds_scan_state_only_for_pushed_candidates(self, monkeypatch):
        # layered(2, 4, 0) at K=2, length 5: the bound ends the scan after
        # pushes of 3 of the 83 candidates, and each gets its edge bits and
        # sink positions once, on its first push
        masks = []
        bits = search._bits

        def counted(mask):
            masks.append(mask)
            return bits(mask)

        net = helpers.document_network(helpers.layered_document(2, 4, 0))
        candidates = _candidates(enumerate_path_masks(net, 5), search.MAX_SEARCH_STEPS)
        cfg = _cfg(2, Fraction(1, 2), max_path_len=5)
        levels, weights = search._objective(cfg, net)
        capacity_for = search._color_capacities(net, cfg)
        monkeypatch.setattr(search, "_bits", counted)
        best_key, _ = search._scan_colorings(candidates, capacity_for, 2, levels, weights)
        assert len(candidates) == 83
        position = {(edges, sinks): index for index, (edges, sinks, _) in enumerate(candidates)}
        pushed = [position[pair] for pair in zip(masks[::2], masks[1::2])]
        assert len(pushed) == len(set(pushed)) == 3
        assert set(best_key) <= set(pushed)

    def test_bound_prunes_the_layered_boundary_instance(self, monkeypatch):
        # layered(4, 4, 1) at K=2, length 5: the unbounded scan costed
        # 2,242,564 feasible pairs (about 18 s); the third costed pair is
        # optimal, meets the cut bound, and ends the scan. The first call
        # costs the cut bound itself.
        calls = []
        cost = search._cost

        def counted(levels, weights, counts):
            calls.append(1)
            return cost(levels, weights, counts)

        monkeypatch.setattr(search, "_cost", counted)
        net = helpers.document_network(helpers.layered_document(4, 4, 1))
        result = exact_search(net, _cfg(2, Fraction(1, 2), max_path_len=5))
        assert len(calls) == 4
        assert result.objective == result.bound == 5
        assert [path.edges for path in result.flow.paths] == [
            ("e0", "e4", "e12", "e20"),
            ("e0", "e4", "e13", "e26"),
            ("e1", "e7", "e17", "e25"),
            ("e3", "e10"),
            ("e3", "e11", "e18", "e23"),
            ("e0", "e5", "e17", "e25"),
            ("e2", "e9", "e18", "e23"),
            ("e3", "e10", "e14", "e20"),
            ("e3", "e10", "e15", "e26"),
        ]
        assert result.flow.colors == (1, 1, 1, 1, 1, 2, 2, 2, 2)

    @pytest.mark.parametrize("family", ["layered", "fanout", "figures", "random"])
    def test_ties_match_the_reference_scan(self, family, monkeypatch):
        # "wd" profiles with zero-mass layers give `levels` flat runs, and
        # uneven (sometimes zero) weights make more multisets cost the same,
        # so the bound often equals the best cost; a prune must then keep
        # the first of the tied multisets, as the full scan does
        rng = random.Random(41)
        cost, bound = search._cost, search._completion_bound
        best = [None]
        equal_prunes = []

        def counted_cost(levels, weights, counts):
            value = cost(levels, weights, counts)
            if best[0] is None or value < best[0]:
                best[0] = value
            return value

        def counted_bound(*args):
            value = bound(*args)
            if value == best[0]:
                equal_prunes.append(1)  # the scan drops the prefix: value >= best
            return value

        monkeypatch.setattr(search, "_cost", counted_cost)
        monkeypatch.setattr(search, "_completion_bound", counted_bound)
        scans = 0
        for net, K, max_len in _scan_instances(family):
            candidates = _candidates(enumerate_path_masks(net, max_len), search.MAX_SEARCH_STEPS)
            reference = _reference_candidates(net, max_len)
            raw = [rng.choice((0, 1, 2, 5)) for _ in net.sinks]
            raw[rng.randrange(len(raw))] += 1
            weights = tuple(w / sum(raw) for w in raw)
            for zeros in (rng.sample(range(K), K // 2), list(range(K - 1))):
                mass = [0.0 if layer in zeros else rng.uniform(0.5, 2) for layer in range(K)]
                cfg = _cfg(
                    K, Fraction(1, 2), max_path_len=max_len, objective="wd",
                    weights=weights, profile=tuple(m / sum(mass) for m in mass),
                    strict=scans % 2 == 1,
                )
                levels, cost_weights = search._objective(cfg, net)
                capacity_for = search._color_capacities(net, cfg)
                positions = range(len(cost_weights))
                expected = oracles.reference_coloring_scan(
                    reference,
                    capacity_for,
                    K,
                    lambda counts: cost(levels, cost_weights, [counts.get(t, 0) for t in positions]),
                    True,
                )
                best[0] = None
                assert search._scan_colorings(
                    candidates, capacity_for, K, levels, cost_weights
                ) == expected
                scans += 1
        assert scans >= 12
        assert equal_prunes

    @pytest.mark.parametrize("family", ["layered", "fanout", "figures", "random"])
    def test_root_stop_matches_the_reference_scan(self, family):
        # the scan ends once its best cost reaches the cut bound; no later
        # multiset is strictly cheaper, so the first least-cost one stands,
        # under trf and under wd profiles with zero-mass layers too
        rng = random.Random(43)
        scans = stops = 0
        for net, K, max_len in _scan_instances(family):
            candidates = _candidates(enumerate_path_masks(net, max_len), search.MAX_SEARCH_STEPS)
            reference = _reference_candidates(net, max_len)
            weights = tuple(1 / len(net.sinks) for _ in net.sinks)
            mass = [0.0 if layer % 2 else rng.uniform(0.5, 2) for layer in range(K)]
            zero_mass = tuple(m / sum(mass) for m in mass)
            for objective, profile in (("trf", None), ("wd", None), ("wd", zero_mass)):
                cfg = _cfg(
                    K, Fraction(1, 2), max_path_len=max_len, objective=objective,
                    weights=weights, profile=profile, strict=scans % 2 == 1,
                )
                if search._nothing_admissible(net, cfg):
                    continue
                levels, cost_weights = search._objective(cfg, net)
                capacity_for = search._color_capacities(net, cfg)
                bound = search._cut_bound(levels, cost_weights, search._sink_caps(net, cfg))
                found = search._scan_colorings(
                    candidates, capacity_for, K, levels, cost_weights, bound
                )
                score = _cost_score(levels, cost_weights)
                assert found == oracles.reference_coloring_scan(
                    reference, capacity_for, K, score, True
                )
                assert found[1] >= bound
                scans += 1
                stops += found[1] == bound
        assert scans >= 15
        assert stops

    def test_root_stop_ends_the_layered_scan(self, monkeypatch):
        # layered(3, 3, 0) at K=2, length 4: the completion bound leaves 357
        # feasible pairs to cost; the third meets the cut bound and ends it
        calls = []
        cost = search._cost

        def counted(levels, weights, counts):
            calls.append(1)
            return cost(levels, weights, counts)

        net = helpers.document_network(helpers.layered_document(3, 3, 0))
        cfg = _cfg(2, Fraction(1, 2), max_path_len=4)
        candidates = _candidates(enumerate_path_masks(net, 4), search.MAX_SEARCH_STEPS)
        levels, weights = search._objective(cfg, net)
        capacity_for = search._color_capacities(net, cfg)
        bound = search._cut_bound(levels, weights, search._sink_caps(net, cfg))
        monkeypatch.setattr(search, "_cost", counted)
        full = search._scan_colorings(candidates, capacity_for, 2, levels, weights)
        assert len(calls) == 357
        calls.clear()
        assert search._scan_colorings(candidates, capacity_for, 2, levels, weights, bound) == full
        assert len(calls) == 3
        assert full[1] == bound == -7

    @pytest.mark.parametrize("width,depth", [(3, 3), (2, 4)])
    def test_layered_optimum_meets_the_cut_bound(self, width, depth):
        # on every layered family instance the exact optimum is the cut
        # bound, so every one of these scans ends at the root bound
        for seed in range(24):
            net = helpers.document_network(helpers.layered_document(width, depth, seed))
            result = exact_search(net, _cfg(2, Fraction(1, 2), max_path_len=depth + 1))
            assert result.objective == result.bound

    def test_never_extends_an_overloaded_prefix(self, monkeypatch):
        # the empty union and 200 single-edge unions, of which only e0 has
        # room (for one color): of the ~1e53 multisets at K=50 two fit;
        # levels[c] = 2 - c costs a multiset 2 minus its description count
        candidates = [(0, 0, ())] + [(1 << i, 1, (i,)) for i in range(200)]
        capacity_for = {f"e{i}": int(i == 0) for i in range(200)}
        scored = []
        cost = search._cost

        def counted(levels, weights, counts):
            scored.append(dict(enumerate(counts)))
            return cost(levels, weights, counts)

        monkeypatch.setattr(search, "_cost", counted)
        best = search._scan_colorings(candidates, capacity_for, 50, range(2, -49, -1), (1,))
        assert best == ((0,) * 49 + (1,), 1)
        assert [sum(counts.values()) for counts in scored] == [0, 1]


def _color_network(net, cfg):
    """`net` with each edge's capacity replaced by its color capacity (at least 0)."""
    capacity_for = search._color_capacities(net, cfg)
    edges = tuple(
        Edge(e.id, e.tail, e.head, Fraction(max(capacity_for[e.id], 0))) for e in net.edges
    )
    return Network(net.nodes, edges, net.sources, net.sinks)


def _search_cost(cfg, result):
    """A result's objective back in the search's cost units."""
    return -result.objective / cfg.rate if cfg.objective == "trf" else result.objective


class TestCutBound:
    def test_integer_max_flow_matches_the_brute_min_cut(self):
        # color capacities of the walk networks (a second source in a third
        # of them, a sink that is also a source in another third), strict
        # and not: the integer max-flow is the min cut, and a limit caps it
        checked = sources_as_sinks = 0
        for index, net in enumerate(helpers.walk_networks()):
            cases = ((Fraction(1, 2), False), (Fraction(1), True), (Fraction(3, 2), index % 2 == 0))
            for rate, strict in cases:
                cfg = _cfg(2, rate, strict=strict)
                capacity_for = search._color_capacities(net, cfg)
                color_net = _color_network(net, cfg)
                caps = search._sink_caps(net, cfg)
                for sink, cap in zip(net.sinks, caps):
                    if sink in net.sources:
                        assert max_flow(net, sink, capacity_for) == math.inf
                        assert max_flow(net, sink, capacity_for, 2) == cap == 2
                        sources_as_sinks += 1
                        continue
                    value = max_flow(net, sink, capacity_for)
                    assert isinstance(value, int)
                    assert value == oracles.brute_min_cut(color_net, sink)
                    for limit in (1, 2, 3):
                        assert max_flow(net, sink, capacity_for, limit) == min(limit, value)
                    assert cap == min(2, value)
                    checked += 1
        assert checked >= 150
        assert sources_as_sinks >= 12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_colors=st.integers(1, 3),
        max_len=st.integers(1, 3),
        objective=st.sampled_from(["trf", "wd"]),
        zeros=st.lists(st.booleans(), min_size=3, max_size=3),
        strict=st.booleans(),
        rate=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]),
    )
    def test_no_search_costs_less_than_the_bound(
        self, seed, num_colors, max_len, objective, zeros, strict, rate
    ):
        rng = random.Random(seed)
        net = helpers.random_network(rng)
        weights = profile = None
        if objective == "wd":
            raw = [rng.choice((0, 1, 2, 5)) for _ in net.sinks]
            raw[0] += 1
            weights = tuple(w / sum(raw) for w in raw)
            # layers flagged in `zeros` carry no mass; the last always carries some
            mass = [0.0 if zero else rng.uniform(0.5, 2) for zero in zeros[:num_colors]]
            mass[-1] = mass[-1] or 1.0
            profile = tuple(m / sum(mass) for m in mass)
        cfg = _cfg(
            num_colors, rate, max_path_len=max_len, objective=objective,
            weights=weights, profile=profile, strict=strict,
        )
        levels, cost_weights = search._objective(cfg, net)
        bound = search._cut_bound(levels, cost_weights, search._sink_caps(net, cfg))
        exact = exact_search(net, cfg)
        routed = route(net, cfg)
        for result in (exact, greedy_search(net, cfg), routed):
            assert _search_cost(cfg, result) >= bound
        # a certified greedy flow is optimal, so route always meets exact
        assert routed.objective == exact.objective


    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_colors=st.integers(1, 3),
        max_len=st.integers(1, 4),
        objective=st.sampled_from(["trf", "wd"]),
        strict=st.booleans(),
        rate=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]),
    )
    def test_no_search_gives_a_sink_more_than_its_cap(
        self, seed, num_colors, max_len, objective, strict, rate
    ):
        # c_t <= min(K, lambda_t): the colors whose paths touch sink t, in
        # every flow the searches return
        net = helpers.random_network(random.Random(seed))
        weights = tuple(1 / len(net.sinks) for _ in net.sinks) if objective == "wd" else None
        cfg = _cfg(
            num_colors, rate, max_path_len=max_len, objective=objective,
            weights=weights, strict=strict,
        )
        caps = search._sink_caps(net, cfg)
        for result in (exact_search(net, cfg), greedy_search(net, cfg), route(net, cfg)):
            flow = result.flow
            touched = [set(net.path_nodes(path)) for path in flow.paths]
            for sink, cap in zip(net.sinks, caps):
                colors = {color for nodes, color in zip(touched, flow.colors) if sink in nodes}
                assert len(colors) <= cap


class TestBaseline:
    def test_fig1(self):
        baseline = separate_coding_baseline(helpers.fig1_network())
        assert baseline.rate == 1
        assert baseline.distortions == (0.25, 0.25, 0.25, 0.25)

    def test_disconnected_sink(self):
        net = Network(
            nodes=("a", "b", "c"),
            edges=(Edge("e1", "a", "b", Fraction(1)),),
            sources=("a",),
            sinks=("b", "c"),
        )
        baseline = separate_coding_baseline(net)
        assert baseline.rate == 0
        assert baseline.distortions == (1.0, 1.0)

    def test_fig1_without_node4_edges_keeps_rate(self):
        net = helpers.fig1_network()
        pruned = Network(
            net.nodes,
            tuple(e for e in net.edges if e.head != "4"),
            net.sources,
            ("2", "3", "5"),
        )
        assert separate_coding_baseline(pruned).rate == 1

    def test_baseline_dominated_by_optimized_flow(self):
        # with uniform weights the optimized layered design matches the
        # baseline's 0.25 everywhere: dominance holds componentwise
        net = helpers.fig1_network()
        baseline = separate_coding_baseline(net)
        result = exact_search(net, _cfg(2, 1, max_path_len=2))
        optimum = optimize_pet_profile(
            list(result.rfv.values), (0.25,) * 4, 2, Fraction(1)
        )
        optimized = drnf_distortion(result.rfv.values, optimum.y, Fraction(1))
        assert all(b >= o - 1e-12 for b, o in zip(baseline.distortions, optimized))


def _uncertifiable():
    """layered(3, 3, 11) at K=2, length 4: greedy is one description short of
    the cut bound, which the exact search meets with another flow."""
    net = helpers.document_network(helpers.layered_document(3, 3, 11))
    return net, _cfg(2, Fraction(1, 2), max_path_len=4)


class TestRoute:
    def test_guard_overflow_falls_back_to_greedy(self, monkeypatch):
        # the closure builds 214 unions, past a guard of 5
        monkeypatch.setattr(search, "MAX_SEARCH_STEPS", 5)
        net, cfg = _uncertifiable()
        with pytest.raises(SearchSizeError, match="closure"):
            exact_search(net, cfg)
        routed = route(net, cfg)
        greedy = greedy_search(net, cfg)
        assert routed.flow == greedy.flow
        assert routed.objective == greedy.objective
        assert (routed.mode, routed.bound) == ("guard-greedy", Fraction(7, 2))

    def test_guard_overflow_is_logged_and_greedy_runs_once(self, monkeypatch, caplog):
        # the closure builds 214 unions and the scan takes 1384 steps, so a
        # guard of 1000 trips in the scan
        monkeypatch.setattr(search, "MAX_SEARCH_STEPS", 1000)
        net, cfg = _uncertifiable()
        with pytest.raises(SearchSizeError, match="coloring scan") as guard:
            exact_search(net, cfg)
        greedy_runs = []

        def greedy(*args):
            greedy_runs.append(1)
            return greedy_search(*args)

        monkeypatch.setattr(search, "greedy_search", greedy)
        with caplog.at_level(logging.DEBUG, logger="rainbownet"):
            routed = route(net, cfg)
        assert len(greedy_runs) == 1
        assert [(r.name, r.levelno) for r in caplog.records] == [("rainbownet", logging.DEBUG)]
        assert str(guard.value) in caplog.records[0].getMessage()
        assert routed == greedy_search(net, cfg)
        assert routed.mode == "guard-greedy"

    @pytest.mark.parametrize("objective", ["trf", "wd"])
    def test_strict_zero_capacity_edge_gives_every_search_the_empty_flow(self, objective):
        # strict comparison fails the unused s->u edge (0 < 0), so no flow
        # is admissible, not even the empty one; without --strict one fits
        net = Network(
            nodes=("s", "t", "u"),
            edges=(Edge("e1", "s", "t", Fraction(2)), Edge("e2", "s", "u", Fraction(0))),
            sources=("s",),
            sinks=("t",),
        )
        weights = (1.0,) if objective == "wd" else None
        cfg = _cfg(1, 1, strict=True, objective=objective, weights=weights)
        empty = exact_search(net, cfg)
        assert empty.flow.paths == ()
        assert not is_admissible(empty.flow, strict=True)
        for search in (greedy_search, route):
            result = search(net, cfg)
            assert (result.flow, result.objective) == (empty.flow, empty.objective)
        lenient = greedy_search(net, _cfg(1, 1, objective=objective, weights=weights))
        assert [path.edges for path in lenient.flow.paths] == [("e1",)]

    def test_fitting_instance_is_exact(self):
        # greedy misses the cut bound here and finds another flow, so this
        # pins the exact branch
        net, cfg = _uncertifiable()
        routed = route(net, cfg)
        exact = exact_search(net, cfg)
        greedy = greedy_search(net, cfg)
        assert routed.flow == exact.flow != greedy.flow
        assert routed.objective == exact.objective == routed.bound == Fraction(7, 2)
        assert greedy.objective == 3
        assert routed.mode == "exact"

    def test_certified_greedy_skips_the_exact_search(self, monkeypatch):
        # fig1 at K=2, length 2: greedy meets the cut bound with a flow
        # other than the exact search's, of equal objective
        net = helpers.fig1_network()
        cfg = _cfg(2, 1, max_path_len=2)
        exact = exact_search(net, cfg)

        def refused(*args):
            raise AssertionError("a certified route ran the exact search")

        monkeypatch.setattr(search, "exact_search", refused)
        routed = route(net, cfg)
        greedy = greedy_search(net, cfg)
        assert routed == greedy
        assert routed.flow != exact.flow
        assert routed.objective == routed.bound == exact.objective
        assert routed.mode == "certified-greedy"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_large_layered_instance_is_certified_without_a_closure(self, seed, monkeypatch):
        # layered(5, 4, 0) and (5, 4, 1) at K=2, length 5: the exact search
        # spends most of a second or more building the candidate closure;
        # greedy meets the cut bound in milliseconds
        net = helpers.document_network(helpers.layered_document(5, 4, seed))
        cfg = _cfg(2, Fraction(1, 2), max_path_len=5)

        def refused(*args):
            raise AssertionError("a certified route ran the exact search")

        monkeypatch.setattr(search, "exact_search", refused)
        routed = route(net, cfg)
        assert routed.mode == "certified-greedy"
        assert routed.objective == routed.bound == Fraction(11, 2)
        assert is_admissible(routed.flow)


class TestAlternation:
    def test_fig1_uniform_weights(self):
        net = helpers.fig1_network()
        cfg = _cfg(2, 1, max_path_len=2, weights=(0.25,) * 4)
        result, profile, objective = alternating_search(net, cfg, rounds=2)
        assert is_admissible(result.flow)
        assert objective == pytest.approx(0.25)
        assert profile[0] == pytest.approx(1.0)

    def test_first_round_searches_under_the_callers_objective(self):
        # all weight on one sink: a wd search would serve that sink only,
        # while the trf optimum serves every sink
        net = helpers.fig1_network()
        weights = (1.0, 0.0, 0.0, 0.0)
        cfg = _cfg(2, 1, max_path_len=2, objective="trf", weights=weights)
        result, profile, objective = alternating_search(net, cfg, rounds=1)
        assert result == route(net, cfg)
        # a certified trf flow gives every sink its cut cap, as exact's does
        assert result.rfv == exact_search(net, cfg).rfv
        assert result.rfv != route(net, replace(cfg, objective="wd")).rfv
        optimum = optimize_pet_profile(list(result.rfv.values), weights, 2, Fraction(1))
        assert profile == optimum.y
        assert objective == optimum.objective


def _dense_alternation(seed, num_colors=3, max_path_len=4):
    """dense_random(7, 14, 3, seed) at rate 1/2 under weights (0.6, 0.3, 0.1)."""
    net = helpers.document_network(helpers.dense_document(7, 14, 3, seed))
    cfg = _cfg(num_colors, Fraction(1, 2), max_path_len=max_path_len, weights=(0.6, 0.3, 0.1))
    return net, cfg


def _fanout_alternation(sinks, relays, num_colors, seed):
    """A fanout-pipeline tree at rate 1/2 under uniform weights."""
    net = helpers.document_network(helpers.fanout_document(sinks, relays, seed))
    return net, _cfg(num_colors, Fraction(1, 2), weights=(1 / sinks,) * sinks)


@pytest.fixture
def calls(monkeypatch):
    """The `route` and `optimize_pet_profile` calls alternating_search makes, by name."""
    made = {"route": 0, "optimize_pet_profile": 0}
    for name in made:
        real = getattr(search, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            made[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(search, name, counting)
    return made


class TestFloorStop:
    def test_floor_bounds_the_joint_optimum(self, calls):
        stops = 0
        for seed in range(60):
            net, cfg = _dense_alternation(seed)
            calls["route"] = 0
            _, _, objective = alternating_search(net, cfg, rounds=3)
            floor = oracles.cut_cap_floor(net, cfg)
            optimum = oracles.joint_optimum(net, cfg)
            assert floor <= optimum <= objective
            if calls["route"] < 3:
                stops += 1
                assert floor == optimum == objective
        assert stops == 56

    @pytest.mark.parametrize("family", ["dense", "fanout"])
    @pytest.mark.parametrize("rounds", [2, 3])
    def test_stop_matches_the_old_loop(self, calls, family, rounds):
        if family == "dense":
            instances = [_dense_alternation(seed) for seed in range(60)]
        else:
            instances = [_fanout_alternation(6, 3, 3, seed) for seed in range(6)]
            instances += [_fanout_alternation(8, 4, 4, seed) for seed in range(6)]
        for net, cfg in instances:
            calls["route"] = 0
            result, profile, objective = alternating_search(net, cfg, rounds=rounds)
            reference = oracles.reference_alternation(net, cfg, rounds=rounds)
            assert objective == reference[2]
            assert calls["route"] <= rounds
            if calls["route"] == rounds:
                assert (result, profile, objective) == reference

    def test_fanout_tree_routes_and_solves_once(self, calls):
        # round 1's trf flow gives every sink its cut cap: the floor is its own optimum
        net, cfg = _fanout_alternation(6, 3, 3, 0)
        result, profile, objective = alternating_search(net, cfg, rounds=3)
        assert calls == {"route": 1, "optimize_pet_profile": 1}
        caps = search._sink_caps(net, cfg)
        assert list(result.rfv) == [cfg.rate * cap for cap in caps]
        assert result == route(net, cfg)
        # the old loop's round 3 has equal distortion on another flow vector
        reference = oracles.reference_alternation(net, cfg, rounds=3)
        assert (profile, objective) == reference[1:]
        assert result.rfv != reference[0].rfv

    def test_missed_caps_cost_one_more_solve(self, calls):
        # K=4: round 1 leaves some sink below its cap, on layers the
        # profile leaves empty, so its optimum still meets the floor
        net, cfg = _dense_alternation(3, num_colors=4, max_path_len=3)
        result, _, objective = alternating_search(net, cfg, rounds=3)
        assert calls == {"route": 1, "optimize_pet_profile": 2}
        assert list(result.rfv) != [cfg.rate * cap for cap in search._sink_caps(net, cfg)]
        assert objective == oracles.cut_cap_floor(net, cfg)

    def test_stall_runs_every_round(self, calls):
        # the floor is missed on every round, and the alternation stalls
        # above the joint optimum
        net, cfg = _dense_alternation(15)
        outputs = alternating_search(net, cfg, rounds=3)
        assert calls["route"] == 3
        assert outputs == oracles.reference_alternation(net, cfg, rounds=3)
        assert outputs[2] > oracles.joint_optimum(net, cfg) > oracles.cut_cap_floor(net, cfg)

    def test_one_round_computes_no_floor(self, calls):
        for net, cfg in (_dense_alternation(15), _dense_alternation(3, 4, 3)):
            calls.update(route=0, optimize_pet_profile=0)
            alternating_search(net, cfg, rounds=1)
            assert calls == {"route": 1, "optimize_pet_profile": 1}

    def test_joint_oracle_guards_its_multiset_count(self):
        net, cfg = _dense_alternation(0)
        with pytest.raises(SearchSizeError, match="multisets"):
            oracles.reachable_counts(net, cfg, limit=5)
