"""Routing search: exact on small instances, greedy at scale, baselines.

Both searches read the path walk's rows (`enumerate_path_masks`): each
path as its edge ids, a bit mask over `net.edges` and a bit mask over
`net.sinks`. A color is keyed by its edge union; its sinks (the sinks
among the edges' endpoints) follow from it. A flow whose sink t holds c_t
descriptions costs sum_t w_t * levels[c_t] (minus the description count
for "trf", the weighted distortion for "wd"), and both searches minimize
that one cost. Both grow a color only by a path that reaches a sink the
color lacks, and both test an edge's room on the edge masks. The exact
search builds the path unions that grow this way as OR-ed masks, reading
for each union only the paths listed once for its sink set, keeps the
minimal ones of each sink set (tested against all smaller kept unions at
once, packed into one int), and scans multisets of K unions depth first
(branch and bound). It skips every extension of a prefix that already
overloads an edge, and every extension whose lower bound is no less than
the best cost found: each sink that a later candidate reaches is costed as
if it gained all the colors left, every other sink at its current count.
A candidate's edge bits and sink positions are built on its first push.
Candidate order and tie-breaking are fixed, so results are reproducible
regardless of scheduling; guards refuse instances whose path, union or
coloring count would exceed its bound, and the coloring guard counts every
multiset, skipped or not. Both build a `FlowPath` only for the paths of
the flow they return.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .distortion import (
    GAUSSIAN,
    MAX_LAYERS,
    DistortionModel,
    _check_weights,
    description_rates,
    optimize_pet_profile,
)
from .errors import SearchSizeError
from .flows import DiscreteRnf, RainbowFlowVector, rainbow_flow_vector
from .network import FlowPath, Network, enumerate_path_masks, max_flow

# Guards of the exact search: distinct path unions the closure builds, and
# K-multisets of minimal candidates scanned.
MAX_SIGNATURES = 200_000
MAX_COLORINGS = 10_000_000


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the flow search.

    `objective` is "trf" (total rainbow flow, maximized) or "wd" (weighted
    distortion under a caller-fixed layer profile, minimized). "wd" needs
    `weights`, a finite simplex vector over the sinks, at construction, and
    takes an optional simplex `profile` over the K layers (uniform when
    omitted). K is at most `MAX_LAYERS` under either objective: the exact
    scan's level floor has K + 1 entries, and it pushes up to K candidates.
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
        if self.num_colors > MAX_LAYERS:
            raise ValueError(
                f"a search over {self.num_colors} descriptions "
                f"exceeds the limit of {MAX_LAYERS} layers"
            )
        if self.profile is not None:
            _check_weights(self.profile, self.num_colors, "profile")
        if self.weights is not None:
            # their count is checked against the network's sinks at search time
            _check_weights(self.weights, len(self.weights), "weights")


@dataclass(frozen=True)
class SearchResult:
    flow: DiscreteRnf
    objective: object  # Fraction for "trf", float for "wd"
    rfv: RainbowFlowVector


def _objective(cfg: SearchConfig, net: Network):
    """The search cost on per-sink description counts, as (levels, weights).

    A flow whose sink at position t holds c_t descriptions costs
    sum_t weights[t] * levels[c_t], and both searches minimize it. For
    "trf" levels[c] is -c under unit weights, so the cost is minus the
    description count; for "wd" it is D(rate of the first c profile layers)
    under the caller's weights, so the cost is the weighted distortion.
    """
    if cfg.objective == "trf":
        return range(0, -cfg.num_colors - 1, -1), (1,) * len(net.sinks)

    if len(cfg.weights) != len(net.sinks):
        raise ValueError(f"expected {len(net.sinks)} weights, got {len(cfg.weights)}")
    profile = cfg.profile or tuple(1.0 / cfg.num_colors for _ in range(cfg.num_colors))
    levels = GAUSSIAN.distortion_array(description_rates(profile, cfg.rate)).tolist()
    return levels, cfg.weights


def _cost(levels, weights, counts):
    """sum_t weights[t] * levels[counts[t]], in sink order."""
    return sum(w * levels[c] for w, c in zip(weights, counts))


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


def _result(net: Network, cfg: SearchConfig, chosen, cost) -> SearchResult:
    """A search result from (path, color) pairs in flow order and their cost."""
    paths, colors = tuple(p for p, _ in chosen), tuple(c for _, c in chosen)
    flow = DiscreteRnf(net, paths, colors, cfg.num_colors, cfg.rate)
    objective = cfg.rate * -cost if cfg.objective == "trf" else float(cost)
    return SearchResult(flow=flow, objective=objective, rfv=rainbow_flow_vector(flow))


def _candidates(rows, limit: int):
    """Each minimal path union for the sinks it reaches, as (edges, sinks, rep).

    `rows` are the walk's (edge ids, edge mask, sink mask) paths; a union's
    edges and sinks are the ORs of its paths' masks. A breadth-first
    closure from the empty union grows a union by a path only when the path
    reaches a sink the union lacks, so the unions of one sink set share
    their growers: the rows reaching a sink outside it, listed in row order
    on the set's first visit. `rep` is the first path tuple that builds the
    union, and its sinks travel with it. A minimal generating set has no
    path whose sinks the others cover, so every union with no strict subset
    of equal sinks is built, by the same rep as in the closure over all path
    subsets. Of each sink set the minimal unions are kept, sorted by their
    sorted edge ids (as strings, not by bit order).
    """
    unions: dict[int, tuple[int, tuple[int, ...]]] = {0: (0, ())}
    # sink set -> (row index, edge mask, grown sink set) of its growers
    growers: dict[int, list[tuple[int, int, int]]] = {}
    frontier = [0]
    while frontier:
        added = []
        for edges in frontier:
            sinks, rep = unions[edges]
            grow = growers.get(sinks)
            if grow is None:
                grow = growers[sinks] = [
                    (index, path_edges, sinks | path_sinks)
                    for index, (_, path_edges, path_sinks) in enumerate(rows)
                    if path_sinks & ~sinks
                ]
            for index, path_edges, grown in grow:
                candidate = edges | path_edges
                if candidate in unions:
                    continue
                unions[candidate] = (grown, rep + (index,))
                added.append(candidate)
                if len(unions) > limit:
                    raise SearchSizeError(
                        f"signature closure exceeded {limit} entries; "
                        "reduce max_path_len or use greedy mode"
                    )
        frontier = added
    kept = _minimal(unions)
    kept.sort(key=_id_order(rows, unions))
    return [(edges, *unions[edges]) for edges in kept]


def _minimal(unions):
    """The unions with no strict subset of equal sinks among `unions`.

    Unions are visited by popcount, so a subset of a union comes before it.
    Each sink set's kept masks are packed into one int, one field of
    `width` bits each with a clear top bit, and a union is tested against
    all of them at once: a kept mask is a subset exactly when its field of
    `packed & ~union` is zero, and the lowest zero field borrows into its
    top bit when one is subtracted from every field.
    """
    width = max(unions).bit_length() + 1
    everything = (1 << width - 1) - 1
    # sink set -> (packed kept masks, a 1 at the bottom of each field)
    groups: dict[int, tuple[int, int]] = {}
    kept = []
    for edges in sorted(unions, key=int.bit_count):
        sinks = unions[edges][0]
        packed, ones = groups.get(sinks, (0, 0))
        outside = packed & (everything ^ edges) * ones
        if (outside - ones) & ones << width - 1:
            continue
        groups[sinks] = (packed << width | edges, ones << width | 1)
        kept.append(edges)
    return kept


_MEMBERS_FIRST = str.maketrans("01", "10")


def _id_order(rows, unions):
    """A sort key that orders unions by their sorted edge ids.

    Bit r of a row's rank mask stands for the r-th edge id in string order,
    and a union's rank mask is the OR over its rep. Read from bit 0 up to
    its last member, with members as "0" and the others as "1", it compares
    as the sorted edge ids do: the first rank where two unions differ is a
    member of the one that sorts first, unless the other has no later
    member, and then the other is a prefix and ends first.
    """
    paths = [path[0] for path in rows]
    rank = {edge: 1 << position for position, edge in enumerate(sorted(set().union(*paths)))}
    row_ranks = [sum(map(rank.__getitem__, path)) for path in paths]

    def key(edges):
        ranks = 0
        for index in unions[edges][1]:
            ranks |= row_ranks[index]
        return f"{ranks:b}"[::-1].translate(_MEMBERS_FIRST) if ranks else ""

    return key


def _edge_bits(capacity_for):
    """Each edge as one bit of an int, in `capacity_for` order: (room by bit, full).

    `room` holds each edge's color capacity, and the mask `full` has the
    bits of the edges with no room left.
    """
    room = {1 << position: capacity for position, capacity in enumerate(capacity_for.values())}
    return room, sum(bit for bit, left in room.items() if left <= 0)


def _completion_bound(floor, weights, counts, reach, left):
    """A lower bound on the cost of any completion of a prefix.

    `counts` are the prefix's per-sink description counts and `left` the
    colors still to place; `reach` flags (0 or 1, per sink) the sinks that
    some candidate still to come reaches, and only those can gain up to
    `left` descriptions. `floor` is the running minimum of the levels, so
    each term is at most the completion's, and the terms add in `_cost`'s
    sink order, so the float sum is at most the completion's cost too.
    """
    return sum(w * floor[c + left * r] for w, c, r in zip(weights, counts, reach))


def _scan_colorings(candidates, capacity_for, num_colors: int, levels, weights):
    """The first least-cost feasible K-multiset of candidates: (indices, cost).

    Candidates are `_candidates`' (edge mask, sink mask, rep) triples, with
    bit i of an edge mask for the i-th edge of `capacity_for`. A
    candidate's edge bits and sink positions are built on its first push:
    the bound often ends the scan after pushing a few of them.

    An iterative depth-first walk over nondecreasing candidate indices. It
    keeps the edges at their color capacity and the per-sink description
    counts as it pushes and pops a candidate, drops a prefix as soon as a
    candidate would overload an edge (loads only grow, so no extension
    fits), and costs complete multisets only. It also drops a candidate,
    and every later one at its depth, once the completion bound of the
    prefix over the sinks that candidates from there on reach is no less
    than the best cost so far: later candidates reach no more sinks, and
    no multiset in a dropped subtree is strictly cheaper. Feasible
    multisets come in the lexicographic order of
    `combinations_with_replacement`, so a tie keeps the first. The empty
    union is always a candidate, so at least one multiset is feasible.
    """
    room, full = _edge_bits(capacity_for)
    masks = [edges for edges, _, _ in candidates]
    # a candidate's edge bits and sink positions, built on its first push
    edge_bits = [None] * len(candidates)
    reached = [None] * len(candidates)
    floor = list(itertools.accumulate(levels, min))
    # suffix[i] flags the sinks candidates i.. reach, one shared tuple per set
    suffix = [None] * len(candidates)
    reach, flags = 0, (0,) * len(weights)
    for index in range(len(candidates) - 1, -1, -1):
        sinks = candidates[index][1]
        if sinks & ~reach:
            reach |= sinks
            flags = tuple(reach >> t & 1 for t in range(len(weights)))
        suffix[index] = flags
    # per depth: the suffix flags its bound was taken over, and the bound
    bound_flags = [None] * (num_colors + 1)
    bound = [None] * (num_colors + 1)
    counts = [0] * len(weights)
    combo: list[int] = []
    best_key = best_cost = None
    index, size = 0, len(candidates)
    while True:
        if index < size:
            if masks[index] & full:
                index += 1
                continue
            depth = len(combo)
            if best_cost is not None:
                if bound_flags[depth] is not suffix[index]:
                    bound_flags[depth] = suffix[index]
                    bound[depth] = _completion_bound(
                        floor, weights, counts, suffix[index], num_colors - depth
                    )
                if bound[depth] >= best_cost:
                    index = size
                    continue
            bits = edge_bits[index]
            if bits is None:
                bits = edge_bits[index] = tuple(_bits(masks[index]))
                reached[index] = tuple(
                    bit.bit_length() - 1 for bit in _bits(candidates[index][1])
                )
            for bit in bits:
                room[bit] -= 1
                if not room[bit]:
                    full |= bit
            for sink in reached[index]:
                counts[sink] += 1
            combo.append(index)
            bound_flags[depth + 1] = None  # a new prefix for the next depth
            if len(combo) < num_colors:
                continue  # the next color may take the same candidate
            cost = _cost(levels, weights, counts)
            if best_cost is None or cost < best_cost:
                best_cost, best_key = cost, tuple(combo)
        elif not combo:
            return best_key, best_cost
        index = combo.pop()
        for bit in edge_bits[index]:
            room[bit] += 1
            full &= ~bit
        for sink in reached[index]:
            counts[sink] -= 1
        index += 1


def exact_search(net: Network, cfg: SearchConfig) -> SearchResult:
    """Globally optimal admissible flow within the enumerated path universe.

    Minimizes the search cost (minus total rainbow flow, or the weighted
    distortion) over every assignment of path-set unions to the K colors;
    only the minimal union of each sink set can be optimal, and the scan
    skips the extensions of a prefix that overloads an edge or whose
    completion bound cannot beat the best cost so far, so it costs only
    feasible multisets that might. Returns an empty flow with objective 0 when nothing
    admissible exists. Raises SearchSizeError when the sink-adding closure
    builds more than `MAX_SIGNATURES` unions or the coloring count, every
    K-multiset of candidates whether feasible or not, exceeds
    `MAX_COLORINGS`.
    """
    levels, weights = _objective(cfg, net)
    if _nothing_admissible(net, cfg):
        return _result(net, cfg, [], _cost(levels, weights, [0] * len(weights)))
    rows = enumerate_path_masks(net, cfg.max_path_len)
    candidates = _candidates(rows, MAX_SIGNATURES)

    count = math.comb(len(candidates) + cfg.num_colors - 1, cfg.num_colors)
    if count > MAX_COLORINGS:
        raise SearchSizeError(f"{count} candidate colorings exceed the guard of {MAX_COLORINGS}")

    best_key, best_cost = _scan_colorings(
        candidates, _color_capacities(net, cfg), cfg.num_colors, levels, weights
    )
    chosen = [
        (FlowPath(rows[path_index][0]), color)
        for color, index in enumerate(best_key, start=1)
        for path_index in candidates[index][2]
    ]
    return _result(net, cfg, chosen, best_cost)


def _best_path(table, color_mask, sink_mask, full, counts, levels, weights):
    """The path in `table` whose addition to a color lowers the cost most.

    Rows are (edge ids, edge mask, sink mask). A path fits when none of the
    edges it adds to the color is full, and it must reach a sink the color
    lacks; its gain adds the marginal cost decreases of those sinks in
    ascending order, once per distinct set of them. A later path wins only
    by more than 1e-15, so ties keep the first. Returns its index, or None
    when no path gains.
    """
    lacking, blocked = ~sink_mask, full & ~color_mask
    # a sink that every color reaches is never new, and has no next level
    drops = [
        w * (levels[c] - levels[c + 1]) if c + 1 < len(levels) else None
        for w, c in zip(weights, counts)
    ]
    gains: dict[int, float] = {}
    best_index, best_gain = None, 0.0
    for index, (_, mask, path_sink_mask) in enumerate(table):
        new = path_sink_mask & lacking
        if not new or mask & blocked:
            continue
        gain = gains.get(new)
        if gain is None:
            gain = gains[new] = sum(drops[t] for t in range(new.bit_length()) if new >> t & 1)
        if gain > best_gain + 1e-15:
            best_gain = gain
            best_index = index
    return best_index


def _bits(mask: int):
    """The set bits of `mask`, lowest first, each as an int with that one bit."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def greedy_search(net: Network, cfg: SearchConfig) -> SearchResult:
    """Deterministic greedy flow: grow each color's forwarding tree in turn.

    Round-robin over colors, each round adding the path with the best
    marginal cost decrease that fits the residual per-edge color budget;
    stops when a full round adds nothing. Used colors form a prefix, and a
    round ends at the first unused color that places nothing, since every
    later color would see the same state.
    """
    levels, weights = _objective(cfg, net)
    counts = [0] * len(weights)
    if _nothing_admissible(net, cfg):
        return _result(net, cfg, [], _cost(levels, weights, counts))
    # the walk and _edge_bits both give bit i to net.edges[i]
    table = enumerate_path_masks(net, cfg.max_path_len)
    room, full = _edge_bits(_color_capacities(net, cfg))
    color_masks: list[int] = []
    color_sinks: list[int] = []
    chosen: list[tuple[FlowPath, int]] = []

    progress = True
    while progress:
        progress = False
        for color in range(cfg.num_colors):
            if color == len(color_masks):
                color_masks.append(0)
                color_sinks.append(0)
            color_mask, sink_mask = color_masks[color], color_sinks[color]
            best_index = _best_path(table, color_mask, sink_mask, full, counts, levels, weights)
            if best_index is None:
                if not color_mask:
                    break  # an unused color: every later one sees this same state
                continue
            edges, mask, path_sink_mask = table[best_index]
            for bit in _bits(mask & ~color_mask):
                room[bit] -= 1
                if not room[bit]:
                    full |= bit
            for bit in _bits(path_sink_mask & ~sink_mask):
                counts[bit.bit_length() - 1] += 1
            color_masks[color] = color_mask | mask
            color_sinks[color] = sink_mask | path_sink_mask
            chosen.append((FlowPath(edges), color + 1))
            progress = True

    return _result(net, cfg, chosen, _cost(levels, weights, counts))


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
    result does not say which search produced it; the fallback is logged as
    a DEBUG record of the "rainbownet" logger that carries the guard's
    message.
    """
    try:
        return exact_search(net, cfg)
    except SearchSizeError as exc:
        # imported here: nothing else in the package logs, and the import
        # would add about 5 ms to every one-shot run
        import logging

        logging.getLogger("rainbownet").debug(
            "exact search overflowed its guard, routing greedily: %s", exc
        )
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
