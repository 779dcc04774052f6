import hashlib
import json
import logging
import math
import random
from fractions import Fraction

import pytest

import helpers
import oracles
from rainbownet import (
    Edge,
    Network,
    SearchConfig,
    SearchSizeError,
    alternating_search,
    drnf_distortion,
    enumerate_paths,
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
        monkeypatch.setattr(search, "MAX_COLORINGS", 5)
        with pytest.raises(SearchSizeError, match="171 candidate colorings"):
            exact_search(helpers.fig1_network(), _cfg(2, 1, max_path_len=2))

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
            if len(list(__import__("rainbownet").enumerate_paths(net, 2))) > 7:
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

    @pytest.mark.parametrize("family", ["layered", "fanout", "figures", "random"])
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
        # the first unused color that places nothing, so K=10**5 visits the
        # path list as often as K=8 and routes the same flow
        visits = []
        best_path = search._best_path

        def counted(table, *args):
            visits.extend(table)  # one visit per path the color scans
            return best_path(table, *args)

        monkeypatch.setattr(search, "_best_path", counted)
        net = helpers.fig1_network()
        small = greedy_search(net, _cfg(8, Fraction(1, 2)))
        small_visits, visits[:] = len(visits), []
        large = greedy_search(net, _cfg(10**5, Fraction(1, 2)))
        assert len(visits) == small_visits
        assert (large.flow.paths, large.flow.colors) == (small.flow.paths, small.flow.colors)
        assert large.objective == small.objective


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
        # the exact scan's level floor has K + 1 entries and its stack K
        with pytest.raises(ValueError, match="limit of"):
            _cfg(MAX_LAYERS + 1, 1)
        _cfg(MAX_LAYERS, 1)

    def test_levels_equal_the_per_entry_distortions(self):
        # bit for bit against one scalar model call per level, on seeded
        # normalized profiles (and the uniform default) of up to 64 layers
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
    """Mask candidates as ((edge ids, sink positions), rep), the reference's form."""
    return [
        ((frozenset(net.edges[i].id for i in _members(edges)), frozenset(_members(sinks))), rep)
        for edges, sinks, rep in candidates
    ]


def _reference_candidates(net, max_len, limit=search.MAX_SIGNATURES):
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
        # closure, and the same raise point under a small guard: layered
        # (3, 3, 0) at length 4 builds 283 unions. The walk networks'
        # shuffled x?? ids tell a sort by edge ids from a sort by edge bits
        universes = list(self._path_universes())
        universes += [(net, 4) for net in helpers.walk_networks()]
        raised = 0
        for net, max_len in universes:
            rows = enumerate_path_masks(net, max_len)
            for limit in (1, 5, 50, 282, 283, 284, search.MAX_SIGNATURES):
                outcomes = []
                for build in (
                    lambda: _decoded(net, _candidates(rows, limit)),
                    lambda: _reference_candidates(net, max_len, limit),
                ):
                    try:
                        outcomes.append(build())
                    except SearchSizeError:
                        outcomes.append("raised")
                assert outcomes[0] == outcomes[1]
                raised += outcomes[0] == "raised"
        assert raised > 0

    def test_guard_counts_only_the_unions_it_builds(self, monkeypatch):
        # layered(3, 3, 0) at length 4: the full closure has 1,040 unions,
        # the sink-adding pass builds 283, so a guard of 500 no longer trips
        net = helpers.document_network(helpers.layered_document(3, 3, 0))
        cfg = _cfg(2, Fraction(1, 2), max_path_len=4)
        unpatched = exact_search(net, cfg)
        monkeypatch.setattr(search, "MAX_SIGNATURES", 500)
        patched = exact_search(net, cfg)
        assert (patched.flow, patched.objective) == (unpatched.flow, unpatched.objective)

    def test_closure_walks_the_rows_once_per_sink_set(self):
        # a union grows only by the rows that reach a sink outside its sink
        # set, listed on the set's first visit: layered(3, 3, 0) at length 4
        # builds 283 unions over 16 sink sets. One more walk ranks the edge
        # ids for the candidates' order
        class CountedRows(list):
            walks = 0

            def __iter__(self):
                self.walks += 1
                return super().__iter__()

        for net, max_len in self._path_universes():
            rows = enumerate_path_masks(net, max_len)
            counted = CountedRows(rows)
            candidates = _candidates(counted, search.MAX_SIGNATURES)
            assert candidates == _candidates(rows, search.MAX_SIGNATURES)
            assert counted.walks == len({sinks for _, sinks, _ in candidates}) + 1

    def test_packed_subset_test_matches_the_pairwise_one(self):
        # random unions of up to 90 edges over a few sink sets: kept masks
        # pack into ints of many machine words, and the highest field borrows
        # past the top of the packed int when it is a subset
        rng = random.Random(43)
        for _ in range(200):
            num_edges = rng.choice((1, 3, 8, 30, 90))
            unions = {0: (0, ())}
            for _ in range(rng.randint(1, 60)):
                edges = sum(1 << e for e in range(num_edges) if rng.random() < 0.3)
                unions.setdefault(edges, (rng.randint(0, 3), ()))
            kept = [
                edges for edges, (sinks, _) in unions.items()
                if not any(
                    other != edges and other & ~edges == 0 and unions[other][0] == sinks
                    for other in unions
                )
            ]
            assert sorted(search._minimal(unions)) == sorted(kept)

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
            candidates = _candidates(enumerate_path_masks(net, max_len), search.MAX_SIGNATURES)
            rows.append(
                [[sorted(edges), sorted(net.sinks[t] for t in sinks), list(rep)]
                 for (edges, sinks), rep in _decoded(net, candidates)]
            )
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "1ac61d3456b870ecab64e21df8dd60708913c98e2d09a269d1f99592c18f6917"
        )


def _scan_instances(family):
    """(network, K, max_path_len) of one differential-scan family."""
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
    else:
        rng = random.Random(31)
        for _ in range(30):
            yield helpers.random_network(rng), rng.randint(1, 3), 3


class TestColoringScan:
    @pytest.mark.parametrize("family", ["layered", "fanout", "figures", "random"])
    def test_matches_the_reference_scan(self, family):
        scans = 0
        for net, K, max_len in _scan_instances(family):
            candidates = _candidates(enumerate_path_masks(net, max_len), search.MAX_SIGNATURES)
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
        # fit, and the completion bound leaves 327 of those to cost
        calls = []
        cost = search._cost

        def counted(levels, weights, counts):
            calls.append(1)
            return cost(levels, weights, counts)

        monkeypatch.setattr(search, "_cost", counted)
        net = helpers.document_network(helpers.fanout_document(6, 3, 0))
        result = exact_search(net, _cfg(3, Fraction(1, 2)))
        assert len(calls) == 327
        assert is_admissible(result.flow)

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
        candidates = _candidates(enumerate_path_masks(net, 5), search.MAX_SIGNATURES)
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
        # 2,242,564 feasible pairs (about 18 s); the first costed pair is
        # already optimal, and the bound then drops every other prefix
        calls = []
        cost = search._cost

        def counted(levels, weights, counts):
            calls.append(1)
            return cost(levels, weights, counts)

        monkeypatch.setattr(search, "_cost", counted)
        net = helpers.document_network(helpers.layered_document(4, 4, 1))
        result = exact_search(net, _cfg(2, Fraction(1, 2), max_path_len=5))
        assert len(calls) == 3
        assert result.objective == 5
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
            candidates = _candidates(enumerate_path_masks(net, max_len), search.MAX_SIGNATURES)
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


class TestRoute:
    def test_guard_overflow_falls_back_to_greedy(self, monkeypatch):
        monkeypatch.setattr(search, "MAX_COLORINGS", 5)
        net = helpers.fig1_network()
        cfg = _cfg(2, 1, max_path_len=2)
        with pytest.raises(SearchSizeError):
            exact_search(net, cfg)
        routed = route(net, cfg)
        greedy = greedy_search(net, cfg)
        assert routed.flow == greedy.flow
        assert routed.objective == greedy.objective

    def test_guard_overflow_is_logged_before_greedy_runs(self, monkeypatch, caplog):
        monkeypatch.setattr(search, "MAX_COLORINGS", 5)
        net = helpers.fig1_network()
        cfg = _cfg(2, 1, max_path_len=2)
        with pytest.raises(SearchSizeError) as guard:
            exact_search(net, cfg)
        logged_before_greedy = []

        def greedy(*args):
            logged_before_greedy.append([record.getMessage() for record in caplog.records])
            return greedy_search(*args)

        monkeypatch.setattr(search, "greedy_search", greedy)
        with caplog.at_level(logging.DEBUG, logger="rainbownet"):
            route(net, cfg)
        assert len(logged_before_greedy) == 1
        assert [(r.name, r.levelno) for r in caplog.records] == [("rainbownet", logging.DEBUG)]
        assert logged_before_greedy[0] == [caplog.records[0].getMessage()]
        assert str(guard.value) in caplog.records[0].getMessage()

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
        # greedy finds a different flow here, so this pins the exact branch
        net = helpers.fig1_network()
        cfg = _cfg(2, 1, max_path_len=2)
        routed = route(net, cfg)
        exact = exact_search(net, cfg)
        assert routed.flow == exact.flow
        assert routed.objective == exact.objective


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
        exact = exact_search(net, cfg)
        assert result == exact
        optimum = optimize_pet_profile(list(exact.rfv.values), weights, 2, Fraction(1))
        assert profile == optimum.y
        assert objective == optimum.objective
