"""Routing search: exact on small instances, greedy at scale, baselines.

A color's sink set follows from its edge union (the sinks among the edges'
endpoints), and both searches score a flow by its per-sink description
counts, through one objective. The exact search enumerates the distinct
(edge-union, sink-set) signatures of unions of enumerated paths, prunes
dominated ones (dominance compares unions with equal sink sets), and
scans multisets of K signatures depth first, skipping every extension of
a prefix that already overloads an edge. Candidate order and tie-breaking
are fixed, so results are reproducible regardless of scheduling; guards
refuse instances whose path, signature or coloring count would exceed its
bound, and the coloring guard counts every multiset, skipped or not.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .distortion import (
    GAUSSIAN,
    DistortionModel,
    description_rates,
    optimize_pet_profile,
    weighted_distortion,
)
from .errors import SearchSizeError
from .flows import DiscreteRnf, RainbowFlowVector, rainbow_flow_vector
from .network import FlowPath, Network, enumerate_paths, max_flow

# Guards of the exact search: distinct path unions in the closure, and
# K-multisets of pruned candidates scanned.
MAX_SIGNATURES = 200_000
MAX_COLORINGS = 10_000_000


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the flow search.

    `objective` is "trf" (total rainbow flow, maximized) or "wd" (weighted
    distortion under a caller-fixed layer profile, minimized). "wd" needs
    `weights`, a finite simplex vector over the sinks, at construction, and
    takes an optional nonnegative `profile` (uniform when omitted).
    """

    num_colors: int
    rate: Fraction
    max_path_len: int = 4
    objective: str = "trf"
    weights: tuple[float, ...] | None = None
    profile: tuple[float, ...] | None = None
    strict: bool = False

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
        if self.objective == "wd" and self.weights is None:
            raise ValueError("weighted-distortion search needs a weight vector")
        if self.profile is not None:
            if len(self.profile) != self.num_colors:
                raise ValueError("profile length must equal num_colors")
            if not all(math.isfinite(v) and v >= 0 for v in self.profile):
                raise ValueError("profile entries must be finite and nonnegative")
        if self.weights is not None:
            if not all(math.isfinite(w) and w >= 0 for w in self.weights):
                raise ValueError("weights must be finite and nonnegative")
            if abs(sum(self.weights) - 1.0) > 1e-9:
                raise ValueError("weights must sum to 1")


@dataclass(frozen=True)
class SearchResult:
    flow: DiscreteRnf
    objective: object  # Fraction for "trf", float for "wd"
    rfv: RainbowFlowVector


def _objective(cfg: SearchConfig, net: Network):
    """The search objective on per-sink description counts.

    Returns (score, levels, weights). `score` maps sink -> descriptions held
    to rate * their sum for "trf" (maximized) or to the weighted distortion
    for "wd" (minimized). One more description at a sink t holding c gains
    weights[t] * (levels[c] - levels[c + 1]): levels[c] is -c under unit
    weights for "trf", D(rate of the first c profile layers) for "wd".
    """
    if cfg.objective == "trf":
        weights = tuple(1.0 for _ in net.sinks)
        levels = [-c for c in range(cfg.num_colors + 1)]
        return (lambda counts: cfg.rate * sum(counts.values())), levels, weights

    if len(cfg.weights) != len(net.sinks):
        raise ValueError(f"expected {len(net.sinks)} weights, got {len(cfg.weights)}")
    profile = cfg.profile or tuple(1.0 / cfg.num_colors for _ in range(cfg.num_colors))
    levels = [GAUSSIAN.distortion(rate) for rate in description_rates(profile, cfg.rate)]

    def score(counts) -> float:
        return weighted_distortion([levels[counts.get(t, 0)] for t in net.sinks], cfg.weights)

    return score, levels, cfg.weights


def _color_capacities(net: Network, cfg: SearchConfig) -> dict[str, int]:
    """Distinct colors each edge can carry: floor(capacity/rate), strict < variant."""
    out = {}
    for edge in net.edges:
        ratio = edge.capacity / cfg.rate
        out[edge.id] = int(ratio) - 1 if cfg.strict and ratio.denominator == 1 else int(ratio)
    return out


def _nothing_admissible(net: Network, cfg: SearchConfig) -> bool:
    """Strict comparison fails every flow, even the empty one, on a zero-capacity edge."""
    return cfg.strict and any(edge.capacity <= 0 for edge in net.edges)


def _result(net: Network, cfg: SearchConfig, chosen, objective) -> SearchResult:
    """Assemble a search result from (path, color) pairs in flow order."""
    paths, colors = tuple(p for p, _ in chosen), tuple(c for _, c in chosen)
    flow = DiscreteRnf(net, paths, colors, cfg.num_colors, cfg.rate)
    return SearchResult(flow=flow, objective=objective, rfv=rainbow_flow_vector(flow))


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
    """Drop unions that reach the same sinks as a strict subset of their edges.

    Fewer edges never reach more sinks, so only unions with equal sink sets
    are compared. Kept (signature, rep) pairs keep the (edges, sinks) order.
    """
    groups: dict[frozenset, list[frozenset]] = {}
    for edges, sinks in signatures:
        groups.setdefault(sinks, []).append(edges)
    dominated = set()
    for sinks, unions in groups.items():
        minimal: list[frozenset] = []
        for edges in sorted(unions, key=len):
            if any(other < edges for other in minimal):
                dominated.add((edges, sinks))
            else:
                minimal.append(edges)
    items = sorted(
        signatures.items(), key=lambda kv: (sorted(kv[0][0]), sorted(kv[0][1]))
    )
    return [item for item in items if item[0] not in dominated]


def _scan_colorings(candidates, capacity_for, num_colors: int, score, minimize: bool):
    """The first best-scoring feasible K-multiset of candidates: (indices, score).

    An iterative depth-first walk over nondecreasing candidate indices. It
    keeps the edges at their color capacity and the per-sink description
    counts as it pushes and pops a candidate, drops a prefix as soon as a
    candidate would overload an edge (loads only grow, so no extension
    fits), and scores complete multisets only. Feasible multisets come in
    the lexicographic order of `combinations_with_replacement`, so a tie
    keeps the first. The empty union is always a candidate, so at least
    one multiset is feasible.
    """
    bits = {edge_id: 1 << position for position, edge_id in enumerate(capacity_for)}
    room = {bits[edge_id]: capacity for edge_id, capacity in capacity_for.items()}
    edge_bits = [tuple(bits[edge_id] for edge_id in edges) for (edges, _), _ in candidates]
    masks = [sum(members) for members in edge_bits]
    reached = [tuple(sinks) for (_, sinks), _ in candidates]
    full = sum(bit for bit, left in room.items() if left <= 0)
    counts: dict[str, int] = {}
    combo: list[int] = []
    best_key = best_score = None
    index, size = 0, len(candidates)
    while True:
        if index < size:
            if masks[index] & full:
                index += 1
                continue
            for bit in edge_bits[index]:
                room[bit] -= 1
                if not room[bit]:
                    full |= bit
            for sink in reached[index]:
                counts[sink] = counts.get(sink, 0) + 1
            combo.append(index)
            if len(combo) < num_colors:
                continue  # the next color may take the same candidate
            value = score(counts)
            if best_score is None or (value < best_score if minimize else value > best_score):
                best_score, best_key = value, tuple(combo)
        elif not combo:
            return best_key, best_score
        index = combo.pop()
        for bit in edge_bits[index]:
            room[bit] += 1
            full &= ~bit
        for sink in reached[index]:
            counts[sink] -= 1
        index += 1


def exact_search(net: Network, cfg: SearchConfig) -> SearchResult:
    """Globally optimal admissible flow within the enumerated path universe.

    Maximizes total rainbow flow (or minimizes weighted distortion) over
    every assignment of path-set unions to the K colors; the scan skips the
    extensions of a prefix that overloads an edge and scores only feasible
    multisets. Returns an empty flow with objective 0 when nothing
    admissible exists. Raises SearchSizeError when the closure exceeds
    `MAX_SIGNATURES` unions or the post-pruning coloring count, every
    K-multiset of candidates whether feasible or not, exceeds
    `MAX_COLORINGS`.
    """
    score, _, _ = _objective(cfg, net)
    if _nothing_admissible(net, cfg):
        return _result(net, cfg, [], score({}))
    paths = enumerate_paths(net, cfg.max_path_len)
    infos = _path_signatures(net, paths)
    closure = _signature_closure(infos, MAX_SIGNATURES)
    candidates = _prune_dominated(closure)

    count = math.comb(len(candidates) + cfg.num_colors - 1, cfg.num_colors)
    if count > MAX_COLORINGS:
        raise SearchSizeError(f"{count} candidate colorings exceed the guard of {MAX_COLORINGS}")

    best_key, best_score = _scan_colorings(
        candidates, _color_capacities(net, cfg), cfg.num_colors, score, cfg.objective == "wd"
    )
    chosen = [
        (paths[path_index], color)
        for color, index in enumerate(best_key, start=1)
        for path_index in candidates[index][1]
    ]
    return _result(net, cfg, chosen, best_score)


def greedy_search(net: Network, cfg: SearchConfig) -> SearchResult:
    """Deterministic greedy flow: grow each color's forwarding tree in turn.

    Round-robin over colors, each round adding the path with the best
    marginal objective gain that fits the residual per-edge color budget;
    stops when a full round adds nothing.
    """
    score, levels, weights = _objective(cfg, net)
    if _nothing_admissible(net, cfg):
        return _result(net, cfg, [], score({}))
    paths = enumerate_paths(net, cfg.max_path_len)
    infos = _path_signatures(net, paths)
    residual = _color_capacities(net, cfg)
    color_edges: list[set[str]] = [set() for _ in range(cfg.num_colors)]
    color_sinks: list[set[str]] = [set() for _ in range(cfg.num_colors)]
    chosen: list[tuple[FlowPath, int]] = []
    sink_counts: Counter[str] = Counter()

    def marginal(new_sinks: set[str]) -> float:
        gain = 0.0
        for sink, weight in zip(net.sinks, weights):
            if sink in new_sinks:
                count = sink_counts[sink]
                gain += weight * (levels[count] - levels[count + 1])
        return gain

    progress = True
    while progress:
        progress = False
        for color in range(cfg.num_colors):
            best_index = None
            best_gain = 0.0
            for index, (path_edges, path_sinks) in enumerate(infos):
                if any(residual[e] < 1 for e in path_edges - color_edges[color]):
                    continue
                new_sinks = path_sinks - color_sinks[color]
                if not new_sinks:
                    continue
                gain = marginal(new_sinks)
                if gain > best_gain + 1e-15:
                    best_gain = gain
                    best_index = index
            if best_index is None:
                continue
            path_edges, path_sinks = infos[best_index]
            for edge_id in path_edges - color_edges[color]:
                residual[edge_id] -= 1
            color_edges[color] |= path_edges
            sink_counts.update(path_sinks - color_sinks[color])
            color_sinks[color] |= path_sinks
            chosen.append((paths[best_index], color + 1))
            progress = True

    return _result(net, cfg, chosen, score(sink_counts))


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
            list(result.rfv), cfg.weights, cfg.num_colors, cfg.rate
        )
        round_cfg = replace(cfg, objective="wd", profile=optimum.y)
    return result, optimum.y, optimum.objective
