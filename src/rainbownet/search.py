"""Routing search: exact on small instances, greedy at scale, baselines.

The exact search exploits that only two things about a color's path set
matter: the union of edges it occupies (for admissibility) and the set of
sinks it touches (for the objective). It therefore enumerates distinct
(edge-union, sink-set) signatures realizable as unions of enumerated
paths, prunes dominated signatures, and scans multisets of K signatures.
Candidate order and tie-breaking are fixed, so results are reproducible
regardless of scheduling; a guard refuses instances whose candidate count
would exceed the configured bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

from .distortion import (
    GAUSSIAN,
    DistortionModel,
    description_rate,
    drnf_distortion,
    optimize_pet_profile,
    weighted_distortion,
)
from .errors import SearchSizeError
from .flows import DiscreteRnf, RainbowFlowVector, rainbow_flow_vector
from .network import FlowPath, Network, enumerate_paths, max_flow


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the flow search.

    `objective` is "trf" (total rainbow flow, maximized) or "wd" (weighted
    distortion under a caller-fixed layer profile, minimized). For "wd",
    `weights` must be a simplex vector over the sinks and `profile` an
    optional layer profile (uniform when omitted).
    """

    num_colors: int
    rate: Fraction
    max_path_len: int = 4
    objective: str = "trf"
    weights: tuple[float, ...] | None = None
    profile: tuple[float, ...] | None = None
    model: DistortionModel = field(default_factory=DistortionModel.gaussian)
    strict: bool = False
    candidate_limit: int = 10_000_000

    def __post_init__(self):
        object.__setattr__(self, "rate", Fraction(self.rate))
        if self.num_colors < 1:
            raise ValueError("num_colors must be at least 1")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.max_path_len < 1:
            raise ValueError("max_path_len must be at least 1")
        if self.objective not in ("trf", "wd"):
            raise ValueError(f"unknown objective '{self.objective}'")
        if self.profile is not None and len(self.profile) != self.num_colors:
            raise ValueError("profile length must equal num_colors")
        if self.weights is not None:
            if any(w < 0 for w in self.weights):
                raise ValueError("weights must be nonnegative")
            if abs(sum(self.weights) - 1.0) > 1e-9:
                raise ValueError("weights must sum to 1")


@dataclass(frozen=True)
class SearchResult:
    flow: DiscreteRnf
    objective: object  # Fraction for "trf", float for "wd"
    rfv: RainbowFlowVector


def _color_capacity(capacity: Fraction, rate: Fraction, strict: bool) -> int:
    """Distinct colors an edge can carry: floor(capacity/rate), strict < variant."""
    ratio = capacity / rate
    if strict:
        return int(ratio) - 1 if ratio.denominator == 1 else int(ratio)
    return int(ratio)


def _path_signatures(net: Network, paths: Sequence[FlowPath]):
    sinks = set(net.sinks)
    out = []
    for path in paths:
        nodes = net.path_nodes(path)
        out.append((frozenset(path.edges), frozenset(n for n in nodes if n in sinks)))
    return out


def _signature_closure(infos, limit: int):
    """All distinct unions of path subsets, as signature -> generating paths."""
    signatures: dict[tuple[frozenset, frozenset], tuple[int, ...]] = {
        (frozenset(), frozenset()): ()
    }
    frontier = [(frozenset(), frozenset())]
    while frontier:
        added = []
        for edges, sinks in frontier:
            rep = signatures[(edges, sinks)]
            rep_set = set(rep)
            for index, (path_edges, path_sinks) in enumerate(infos):
                if index in rep_set:
                    continue
                candidate = (edges | path_edges, sinks | path_sinks)
                if candidate in signatures:
                    continue
                signatures[candidate] = rep + (index,)
                added.append(candidate)
                if len(signatures) > limit:
                    raise SearchSizeError(
                        f"signature closure exceeded {limit} entries; "
                        "reduce max_path_len or use greedy mode"
                    )
        frontier = added
    return signatures


def _prune_dominated(signatures):
    """Drop signatures that use more edges to reach no more sinks."""
    items = sorted(
        signatures.items(), key=lambda kv: (sorted(kv[0][0]), sorted(kv[0][1]))
    )
    kept = []
    for (edges, sinks), rep in items:
        dominated = False
        for (other_edges, other_sinks), _ in items:
            if (other_edges, other_sinks) == (edges, sinks):
                continue
            if other_edges <= edges and other_sinks >= sinks:
                dominated = True
                break
        if not dominated:
            kept.append(((edges, sinks), rep))
    return kept


def _wd_score(sink_counts, cfg: SearchConfig, net: Network) -> float:
    rate = cfg.rate
    profile = cfg.profile or tuple(
        1.0 / cfg.num_colors for _ in range(cfg.num_colors)
    )
    q = [rate * sink_counts.get(t, 0) for t in net.sinks]
    d = drnf_distortion(q, profile, rate, cfg.model)
    return weighted_distortion(d, cfg.weights)


def exact_search(net: Network, cfg: SearchConfig) -> SearchResult:
    """Globally optimal admissible flow within the enumerated path universe.

    Maximizes total rainbow flow (or minimizes weighted distortion) over
    every assignment of path-set unions to the K colors. Returns an empty
    flow with objective 0 when nothing admissible exists. Raises
    SearchSizeError when the post-pruning candidate count would exceed
    ``cfg.candidate_limit``.
    """
    if cfg.objective == "wd" and cfg.weights is None:
        raise ValueError("weighted-distortion search needs a weight vector")
    paths = enumerate_paths(net, cfg.max_path_len)
    infos = _path_signatures(net, paths)

    strict_blocked = cfg.strict and any(e.capacity <= 0 for e in net.edges)
    if strict_blocked:
        candidates = [((frozenset(), frozenset()), ())]
    else:
        closure = _signature_closure(infos, min(cfg.candidate_limit, 200_000))
        candidates = _prune_dominated(closure)

    count = math.comb(len(candidates) + cfg.num_colors - 1, cfg.num_colors)
    if count > cfg.candidate_limit:
        raise SearchSizeError(
            f"{count} candidate colorings exceed the guard of {cfg.candidate_limit}"
        )

    capacity_for = {
        e.id: _color_capacity(e.capacity, cfg.rate, cfg.strict) for e in net.edges
    }
    best_key = None
    best_score = None
    for combo in combinations_with_replacement(range(len(candidates)), cfg.num_colors):
        edge_load: dict[str, int] = {}
        feasible = True
        for index in combo:
            for edge_id in candidates[index][0][0]:
                load = edge_load.get(edge_id, 0) + 1
                if load > capacity_for[edge_id]:
                    feasible = False
                    break
                edge_load[edge_id] = load
            if not feasible:
                break
        if not feasible:
            continue
        if cfg.objective == "trf":
            score = cfg.rate * sum(len(candidates[index][0][1]) for index in combo)
        else:
            sink_counts: dict[str, int] = {}
            for index in combo:
                for sink in candidates[index][0][1]:
                    sink_counts[sink] = sink_counts.get(sink, 0) + 1
            score = -_wd_score(sink_counts, cfg, net)
        if best_score is None or score > best_score:
            best_score = score
            best_key = combo

    flow_paths: list[FlowPath] = []
    colors: list[int] = []
    for color, index in enumerate(best_key, start=1):
        for path_index in candidates[index][1]:
            flow_paths.append(paths[path_index])
            colors.append(color)
    flow = DiscreteRnf(net, tuple(flow_paths), tuple(colors), cfg.num_colors, cfg.rate)
    objective = best_score if cfg.objective == "trf" else -best_score
    return SearchResult(flow=flow, objective=objective, rfv=rainbow_flow_vector(flow))


def greedy_search(net: Network, cfg: SearchConfig) -> SearchResult:
    """Deterministic greedy flow: grow each color's forwarding tree in turn.

    Round-robin over colors, each round adding the path with the best
    marginal objective gain that fits the residual per-edge color budget;
    stops when a full round adds nothing.
    """
    if cfg.objective == "wd" and cfg.weights is None:
        raise ValueError("weighted-distortion search needs a weight vector")
    paths = enumerate_paths(net, cfg.max_path_len)
    infos = _path_signatures(net, paths)
    residual = {e.id: _color_capacity(e.capacity, cfg.rate, cfg.strict) for e in net.edges}
    color_edges: list[set[str]] = [set() for _ in range(cfg.num_colors)]
    color_sinks: list[set[str]] = [set() for _ in range(cfg.num_colors)]
    chosen: list[tuple[int, int]] = []  # (path index, color)
    sink_counts: dict[str, int] = {}

    profile = cfg.profile or tuple(1.0 / cfg.num_colors for _ in range(cfg.num_colors))

    def marginal(color: int, new_sinks: set[str]) -> float:
        if cfg.objective == "trf":
            return float(len(new_sinks))
        gain = 0.0
        for sink, weight in zip(net.sinks, cfg.weights):
            if sink not in new_sinks:
                continue
            count = sink_counts.get(sink, 0)
            before = cfg.model.distortion(description_rate(profile, cfg.rate, count))
            after = cfg.model.distortion(description_rate(profile, cfg.rate, count + 1))
            gain += weight * (before - after)
        return gain

    progress = True
    while progress:
        progress = False
        for color in range(cfg.num_colors):
            best_index = None
            best_gain = 0.0
            for index, (path_edges, path_sinks) in enumerate(infos):
                fresh_edges = [e for e in path_edges if e not in color_edges[color]]
                if any(residual[e] < 1 for e in fresh_edges):
                    continue
                new_sinks = path_sinks - color_sinks[color]
                if not new_sinks:
                    continue
                gain = marginal(color, new_sinks)
                if gain > best_gain + 1e-15:
                    best_gain = gain
                    best_index = index
            if best_index is None:
                continue
            path_edges, path_sinks = infos[best_index]
            for edge_id in path_edges:
                if edge_id not in color_edges[color]:
                    residual[edge_id] -= 1
                    color_edges[color].add(edge_id)
            for sink in path_sinks - color_sinks[color]:
                sink_counts[sink] = sink_counts.get(sink, 0) + 1
            color_sinks[color] |= path_sinks
            chosen.append((best_index, color + 1))
            progress = True

    flow = DiscreteRnf(
        net,
        tuple(paths[i] for i, _ in chosen),
        tuple(c for _, c in chosen),
        cfg.num_colors,
        cfg.rate,
    )
    if cfg.objective == "trf":
        objective = cfg.rate * sum(len(s) for s in color_sinks)
    else:
        objective = _wd_score(sink_counts, cfg, net)
    return SearchResult(flow=flow, objective=objective, rfv=rainbow_flow_vector(flow))


@dataclass(frozen=True)
class BaselineResult:
    rate: Fraction | float  # math.inf when some sink observes the source directly
    distortions: tuple[float, ...]


def separate_coding_baseline(net: Network, model: DistortionModel = GAUSSIAN) -> BaselineResult:
    """Separate source and network coding: one common stream for all sinks.

    The common rate is the minimum over sinks of the max-flow value, and
    every sink reconstructs at the same distortion D(rate).
    """
    rate = min(max_flow(net, sink) for sink in net.sinks)
    return BaselineResult(rate=rate, distortions=tuple(model.distortion(rate) for _ in net.sinks))


def route(net: Network, cfg: SearchConfig) -> SearchResult:
    """The package's routing policy: exact search, greedy past its guard.

    Returns ``exact_search(net, cfg)``, or ``greedy_search(net, cfg)`` when
    the instance overflows the exact search's guard (SearchSizeError). The
    fallback is silent: the result does not say which search produced it.
    """
    try:
        return exact_search(net, cfg)
    except SearchSizeError:
        return greedy_search(net, cfg)


def alternating_search(net: Network, cfg: SearchConfig, rounds: int = 1):
    """Alternate flow search and layer-profile optimization.

    Round 1 routes under `cfg` as given (its objective and profile); every
    later round routes for weighted distortion ("wd") under the profile the
    previous round optimized. Each round routes through `route` and then
    re-optimizes the profile for the flow vector it found, under
    `cfg.weights`. At least one round runs. Returns the final
    (SearchResult, profile, weighted objective).
    """
    if cfg.weights is None:
        raise ValueError("alternating search needs a weight vector")
    round_cfg = cfg
    for _ in range(max(1, rounds)):
        result = route(net, round_cfg)
        optimum = optimize_pet_profile(
            list(result.rfv), cfg.weights, cfg.num_colors, cfg.rate, cfg.model
        )
        round_cfg = replace(cfg, objective="wd", profile=optimum.y)
    return result, optimum.y, optimum.objective
