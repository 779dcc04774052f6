"""Routing search: exact on small instances, greedy at scale, baselines.

The exact search reads the path walk's rows (`enumerate_path_masks`):
each path as a bit mask over the edges in id order, a bit mask over
`net.sinks` and a trail that rebuilds its edge ids. A color is keyed by
its edge union; its sinks (the sinks among the edges' endpoints) follow
from it. A flow whose sink t holds c_t descriptions costs sum_t w_t *
levels[c_t] (minus the description count for "trf", the weighted
distortion for "wd"), and both searches minimize that one cost. Both
grow a color only by a path that reaches a sink the color lacks. Greedy
walks no path list: each color and round takes its paths from one
breadth-first search (`_shortest_paths`). The exact search builds the
path unions that grow this way as OR-ed masks, reading for each union
only the paths listed once for its sink set. It takes them in popcount
order and grows only the minimal ones of each sink set (tested against
all of its kept unions at once, packed into one int): a union holding a
smaller one of equal sinks grows into nothing minimal that the smaller
one does not, and every union with fewer edges is built before the test.
It then scans multisets of K unions depth first (branch and
bound), testing an edge's room on the edge masks. It skips every
extension of a prefix that already overloads an edge, and every
extension whose lower bound is no less than the best cost found: each
sink that a later candidate reaches is costed as if it gained all the
colors left, every other sink at its current count. A candidate's edge
bits and sink positions are built on its first push. Candidate order and
tie-breaking are fixed, so results are reproducible regardless of
scheduling. Guards bound the exact search's work: the walk's partial
paths, and the unions the closure builds and the candidates the scan
visits, at most `MAX_SEARCH_STEPS` each, and the closure's subset tests,
at most `SUBSET_TESTS_PER_UNION` times as many. It builds edge ids only
for the paths of the flow it returns.

The cut bound: sink t holds at most cap_t = min(K, λ_t) descriptions in
any flow, where λ_t is the integer max-flow to t on the edges' color
capacities, so no flow costs less than sum_t w_t * floor[cap_t], with
`floor` the running minimum of the levels. The exact scan ends once its
best cost reaches it, and `route` returns greedy's flow, without an exact
search, when greedy's cost meets it: that flow is then optimal, though it
may differ from the exact search's flow of equal cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
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
from .network import FlowPath, Network, enumerate_path_masks, max_flow, trail_ids

# The exact search's guard: the most unions its closure builds, and candidates its scan visits.
MAX_SEARCH_STEPS = 200_000
# The closure's subset tests per union its guard allows, a union charged with
# the kept masks of its sink set it is tested against: 60M at the guard,
# reached after 0.4-1.9 s on dense random graphs of 30-144 edges (Python
# 3.11 on one core of a 2-vCPU x86 VM), where every closure that passes
# it takes at most 47M tests and 0.6 s
SUBSET_TESTS_PER_UNION = 300


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the flow search.

    `objective` is "trf" (total rainbow flow, maximized) or "wd" (weighted
    distortion under a caller-fixed layer profile, minimized). "wd" needs
    `weights`, a finite simplex vector over the sinks, at construction, and
    takes an optional simplex `profile` over the K layers (uniform when
    omitted). K is at most `MAX_LAYERS` under either objective: the exact
    scan pushes up to K candidates, and `route`'s cut bound builds a level
    per description a sink can hold, up to K + 1 of them.
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
    """A flow, its objective and flow vector, and how the search found it.

    `mode` names the branch that produced the flow: "exact", "greedy",
    "certified-greedy" (`route`'s greedy flow, whose cost meets the cut
    bound) or "guard-greedy" (`route`'s greedy flow after the exact search
    overflowed its guard). `bound` is the cut bound in the objective's
    units (no total rainbow flow is above it, no weighted distortion below
    it), or None when the search did not compute it. Neither field takes
    part in equality.
    """

    flow: DiscreteRnf
    objective: object  # Fraction for "trf", float for "wd"
    rfv: RainbowFlowVector
    mode: str | None = field(default=None, compare=False)
    bound: object = field(default=None, compare=False)


def _objective(cfg: SearchConfig, net: Network, most: int | None = None):
    """The search cost on per-sink description counts, as (levels, weights).

    A flow whose sink at position t holds c_t descriptions costs
    sum_t weights[t] * levels[c_t], and both searches minimize it. For
    "trf" levels[c] is -c under unit weights, so the cost is minus the
    description count; for "wd" it is D(rate of the first c profile layers)
    under the caller's weights, so the cost is the weighted distortion.
    Only levels[0..most] are built (most = K when not given): the rates are
    a running sum over the layers, so each level is the same float however
    many follow it.
    """
    most = cfg.num_colors if most is None else most
    if cfg.objective == "trf":
        return range(0, -most - 1, -1), (1,) * len(net.sinks)

    if len(cfg.weights) != len(net.sinks):
        raise ValueError(f"expected {len(net.sinks)} weights, got {len(cfg.weights)}")
    profile = cfg.profile[:most] if cfg.profile else (1.0 / cfg.num_colors,) * most
    levels = GAUSSIAN.distortion_array(description_rates(profile, cfg.rate)).tolist()
    return levels, cfg.weights


def _last_level(cfg: SearchConfig, room) -> int:
    """The last level a search reads: min(K, total color room + 1).

    A color that reaches a sink uses an edge, so no sink holds more
    descriptions than the edges' color room (`_color_capacities`) in all;
    greedy reads one level past a sink's count.
    """
    return min(cfg.num_colors, max(sum(room.values()), 0) + 1)


def _cost(levels, weights, counts):
    """sum_t weights[t] * levels[counts[t]], in sink order."""
    return sum(w * levels[c] for w, c in zip(weights, counts))


def _color_capacities(net: Network, cfg: SearchConfig) -> dict[str, int]:
    """Distinct colors each edge can carry: floor(capacity/rate), strict < variant.

    Keyed by edge id, in id order: the order of the walk's edge bits. The
    quotient is taken on the numerators and denominators, as integers.
    """
    out = {}
    num, den = cfg.rate.numerator, cfg.rate.denominator
    for edge in sorted(net.edges, key=lambda e: e.id):
        colors, rest = divmod(edge.capacity.numerator * den, edge.capacity.denominator * num)
        out[edge.id] = colors - 1 if cfg.strict and not rest else colors
    return out


def _sink_caps(net: Network, cfg: SearchConfig) -> tuple[int, ...]:
    """min(K, λ_t) per sink, in sink order: the most descriptions sink t can hold.

    λ_t is the integer max-flow to t on the color capacities: a color that
    reaches t carries one source-to-t path, and an edge carries at most its
    color capacity of them. It ignores `max_path_len`, so the cap holds for
    every path universe.
    """
    capacities = _color_capacities(net, cfg)
    return tuple(max_flow(net, sink, capacities, cfg.num_colors) for sink in net.sinks)


def _cut_bound(levels, weights, caps):
    """The least cost any flow can have when sink t holds at most caps[t] descriptions.

    Each term weights[t] * floor[caps[t]], with `floor` the running minimum
    of `levels`, is at most the flow's own term, and the terms add in
    `_cost`'s sink order, so the float sum is at most the flow's cost too.
    A cap past the last level reads the last one: `levels` end past the
    most descriptions any sink can hold (`_last_level`).
    """
    floor = list(itertools.accumulate(levels[: max(caps, default=0) + 1], min))
    return _cost(floor, weights, [min(cap, len(floor) - 1) for cap in caps])


def _value(cfg: SearchConfig, cost):
    """A cost in the objective's units: total rainbow flow or weighted distortion."""
    return cfg.rate * -cost if cfg.objective == "trf" else float(cost)


def _nothing_admissible(net: Network, cfg: SearchConfig) -> bool:
    """Strict comparison fails every flow, even the empty one, on a zero-capacity edge."""
    return cfg.strict and any(edge.capacity <= 0 for edge in net.edges)


def _result(net: Network, cfg: SearchConfig, chosen, cost, mode=None, bound=None) -> SearchResult:
    """A search result from (path, color) pairs in flow order, their cost and the cut bound."""
    paths, colors = tuple(p for p, _ in chosen), tuple(c for _, c in chosen)
    flow = DiscreteRnf(net, paths, colors, cfg.num_colors, cfg.rate)
    return SearchResult(
        flow=flow,
        objective=_value(cfg, cost),
        rfv=rainbow_flow_vector(flow),
        mode=mode,
        bound=None if bound is None else _value(cfg, bound),
    )


def _growers(rows, sinks: int):
    """The rows reaching a sink outside `sinks`, as (row index, edge mask, grown sink set)."""
    return [
        (index, path_edges, sinks | path_sinks)
        for index, (path_edges, path_sinks, _) in enumerate(rows)
        if path_sinks & ~sinks
    ]


def _candidates(rows, limit: int):
    """Each minimal path union for the sinks it reaches, as (edges, sinks, rep).

    `rows` are the walk's (edge mask, sink mask, trail) paths; a union's
    edges and sinks are the ORs of its paths' masks. A union grows by a
    path only when the path reaches a sink the union lacks, so the unions
    of one sink set share their growers: the rows reaching a sink outside
    it, listed in row order on the set's first visit. Only the minimal
    unions (no strict subset of equal sinks) grow: when V is a strict
    subset of U with U's sinks, V | p is a subset of U | p with its sinks,
    so U | p is either not minimal or V | p itself. So every minimal union
    of the closure over all path subsets is built.

    Unions are taken in popcount order, one bucket per edge count. A path
    that adds a sink adds an edge, so when a union is taken every union
    with fewer edges has been built and tested, and a strict subset of
    equal sinks would contain a kept one: the test against its sink set's
    kept unions decides minimality exactly. They are packed into one int,
    one field of `width` bits each with a clear top bit: a kept mask is a
    subset exactly when its field of `packed & ~union` is zero, and the
    lowest zero field borrows into its top bit when one is subtracted from
    every field. `rep` is the least (length, row indices) tuple that a kept
    union's rep and one of its growers make (a later shorter or
    lexicographically smaller one replaces the first), which is the rep the
    breadth-first closure over every sink-adding union records first; its
    sinks travel with it. Of each sink set the minimal unions are kept,
    sorted by their sorted edge ids (as strings, not by bit order).

    Raises SearchSizeError once more than `limit` unions are built, or once
    the subset tests, each charged with the kept masks it is tested
    against, pass `SUBSET_TESTS_PER_UNION` times `limit`.
    """
    # sink set -> its growers; the empty union grows by every row, so the
    # widest union is their OR
    growers = {0: _growers(rows, 0)}
    width = max((path_edges.bit_length() for _, path_edges, _ in growers[0]), default=0) + 1
    everything = (1 << width - 1) - 1
    # edge count -> {union: (sinks, rep)}
    buckets: list[dict[int, tuple[int, tuple[int, ...]]]] = [{} for _ in range(width)]
    buckets[0][0] = (0, ())
    # sink set -> (packed kept masks, a 1 at the bottom of each field, their count)
    groups: dict[int, tuple[int, int, int]] = {}
    kept = []
    built, tests, budget = 1, 0, SUBSET_TESTS_PER_UNION * limit
    for bucket in buckets:
        for edges, (sinks, rep) in bucket.items():
            packed, ones, size = groups.get(sinks, (0, 0, 0))
            tests += size
            if tests > budget:
                raise SearchSizeError(
                    f"signature closure's subset tests exceeded their guard of {budget}; "
                    "reduce max_path_len or use greedy mode"
                )
            if (packed & (everything ^ edges) * ones) - ones & ones << width - 1:
                continue
            groups[sinks] = (packed << width | edges, ones << width | 1, size + 1)
            kept.append((edges, sinks, rep))
            if sinks not in growers:
                growers[sinks] = _growers(rows, sinks)
            for index, path_edges, grown in growers[sinks]:
                union = edges | path_edges
                larger = buckets[union.bit_count()]
                known = larger.get(union)
                if known is None:
                    built += 1
                    if built > limit:
                        raise SearchSizeError(
                            f"signature closure exceeded {limit} entries; "
                            "reduce max_path_len or use greedy mode"
                        )
                elif (len(known[1]), known[1]) <= (len(rep) + 1, rep + (index,)):
                    continue
                larger[union] = (grown, rep + (index,))
    kept.sort(key=lambda candidate: _id_order(candidate[0]))
    return kept


_MEMBERS_FIRST = str.maketrans("01", "10")


def _id_order(edges: int) -> str:
    """A sort key that orders edge masks by their sorted edge ids.

    Bit r of an edge mask stands for the r-th edge id in string order. Read
    from bit 0 up to its last member, with members as "0" and the others as
    "1", a mask compares as the sorted edge ids do: the first bit where two
    masks differ is a member of the one that sorts first, unless the other
    has no later member, and then the other is a prefix and ends first.
    """
    return f"{edges:b}"[::-1].translate(_MEMBERS_FIRST) if edges else ""


def _edge_bits(capacity_for):
    """Each edge as one bit of an int, in `capacity_for` order: (room by bit, full).

    `room` holds each edge's color capacity, and the mask `full` has the
    bits of the edges with no room left.
    """
    room = {1 << position: capacity for position, capacity in enumerate(capacity_for.values())}
    return room, sum(bit for bit, left in room.items() if left <= 0)


def _bits(mask: int):
    """The set bits of `mask`, lowest first, each as an int with that one bit."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def _completion_bound(floor, weights, counts, reach, left):
    """A lower bound on the cost of any completion of a prefix.

    `counts` are the prefix's per-sink description counts and `left` the
    colors still to place; `reach` flags (0 or 1, per sink) the sinks that
    some candidate still to come reaches, and only those can gain up to
    `left` descriptions. `floor` is the running minimum of the levels, so
    each term is at most the completion's, and the terms add in `_cost`'s
    sink order, so the float sum is at most the completion's cost too. An
    index past the last level reads the last one, which ends past the most
    descriptions any sink can hold (`_last_level`).
    """
    last = len(floor) - 1
    return sum(w * floor[min(c + left * r, last)] for w, c, r in zip(weights, counts, reach))


def _scan_colorings(candidates, capacity_for, num_colors: int, levels, weights, cut_bound=None):
    """The first least-cost feasible K-multiset of candidates: (indices, cost).

    Candidates are `_candidates`' (edge mask, sink mask, rep) triples, with
    bit i of an edge mask for the i-th edge of `capacity_for`. A
    candidate's edge bits and sink positions are built on its first push:
    the bound often ends the scan after pushing a few of them. `cut_bound`,
    when given, is a cost no multiset is below (the cut bound); the scan ends
    once the best cost reaches it, since no later multiset is strictly
    cheaper. The scan raises SearchSizeError on its visit past
    `MAX_SEARCH_STEPS`: every candidate it looks at counts, pushed or not.

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
    index, size, steps = 0, len(candidates), 0
    while True:
        if index < size:
            steps += 1
            if steps > MAX_SEARCH_STEPS:
                raise SearchSizeError(
                    f"coloring scan exceeded its guard of {MAX_SEARCH_STEPS} steps; "
                    "reduce K or max_path_len, or use greedy mode"
                )
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
                if cut_bound is not None and cost <= cut_bound:
                    return best_key, best_cost
        elif not combo:
            return best_key, best_cost
        index = combo.pop()
        for bit in edge_bits[index]:
            room[bit] += 1
            full &= ~bit
        for sink in reached[index]:
            counts[sink] -= 1
        index += 1


def exact_search(net: Network, cfg: SearchConfig, caps=None) -> SearchResult:
    """Globally optimal admissible flow within the enumerated path universe.

    Minimizes the search cost (minus total rainbow flow, or the weighted
    distortion) over every assignment of path-set unions to the K colors;
    only the minimal union of each sink set can be optimal, and the scan
    skips the extensions of a prefix that overloads an edge or whose
    completion bound cannot beat the best cost so far, so it costs only
    feasible multisets that might. It ends once the best cost reaches the
    cut bound of `caps` (`_sink_caps`, computed when not given). Returns an
    empty flow with objective 0 when nothing admissible exists. Raises
    SearchSizeError, mid-run, when the sink-adding closure builds more than
    `MAX_SEARCH_STEPS` unions or tests them against more than
    `SUBSET_TESTS_PER_UNION` times as many kept unions, or when the scan
    visits more than `MAX_SEARCH_STEPS` candidates, pushed or skipped; each
    pop undoes a push, so the guard bounds the work done, however many
    multisets exist.
    """
    room = _color_capacities(net, cfg)
    levels, weights = _objective(cfg, net, _last_level(cfg, room))
    if _nothing_admissible(net, cfg):
        return _result(net, cfg, [], _cost(levels, weights, [0] * len(weights)), "exact")
    rows = enumerate_path_masks(net, cfg.max_path_len)
    candidates = _candidates(rows, MAX_SEARCH_STEPS)
    bound = _cut_bound(levels, weights, _sink_caps(net, cfg) if caps is None else caps)
    best_key, best_cost = _scan_colorings(candidates, room, cfg.num_colors, levels, weights, bound)
    chosen = [
        (FlowPath(trail_ids(rows[path_index][2])), color)
        for color, index in enumerate(best_key, start=1)
        for path_index in candidates[index][2]
    ]
    return _result(net, cfg, chosen, best_cost, "exact", bound)


def _shortest_paths(arcs, starts, color_edges, room, max_len: int):
    """The best allowed path to each node: {node: (new edges, edge ids, sink mask)}.

    One breadth-first search from `starts` (source -> sink bit) over `arcs`
    (node -> out-edges as (id, head, head's sink bit)), at most `max_len`
    layers deep, that stops at the first layer reaching no new node. An
    edge is allowed when the color holds it or it has room. A node keeps a
    path with the fewest edges, then fewest new edges, then least edge ids:
    it extends the best path to a predecessor, so one search serves all.
    """
    best = {source: (0, (), bit) for source, bit in starts.items()}
    frontier = starts
    for _ in range(max_len):
        reached = {}
        for node in frontier:
            new, ids, sinks = best[node]
            for edge_id, head, bit in arcs[node]:
                if head in best:
                    continue
                held = edge_id in color_edges
                if held or room[edge_id] > 0:
                    path = (new + (not held), ids + (edge_id,), sinks | bit)
                    if head not in reached or path < reached[head]:
                        reached[head] = path
        if not reached:
            break
        best.update(reached)
        frontier = reached
    return best


def greedy_search(net: Network, cfg: SearchConfig) -> SearchResult:
    """Deterministic greedy flow: grow each color's forwarding tree in turn.

    Round-robin over colors, each round adding, of the color's best paths
    to the sinks (`_shortest_paths`), the one whose new sinks (its first
    tail included) lower the cost most; paths are scanned by new edges,
    then edge ids, and a later one wins only by more than 1e-15. Stops when
    a full round adds nothing. Used colors form a prefix, and a round ends
    at the first unused color that places nothing, since every later color
    would see the same state.
    """
    room = _color_capacities(net, cfg)
    levels, weights = _objective(cfg, net, _last_level(cfg, room))
    counts = [0] * len(weights)
    if _nothing_admissible(net, cfg):
        return _result(net, cfg, [], _cost(levels, weights, counts), "greedy")
    sink_bit = {sink: 1 << t for t, sink in enumerate(net.sinks)}
    arcs = {
        node: [(edge.id, edge.head, sink_bit.get(edge.head, 0)) for edge in net.out_edges(node)]
        for node in net.nodes
    }
    starts = {source: sink_bit.get(source, 0) for source in net.sources}
    # each sink's cost decrease on its next description (kept while it has one)
    drops = [w * (levels[0] - levels[1]) for w in weights]
    color_edges: list[set[str]] = []
    color_sinks: list[int] = []
    chosen: list[tuple[FlowPath, int]] = []

    progress = True
    while progress:
        progress = False
        for color in range(cfg.num_colors):
            if color == len(color_edges):
                color_edges.append(set())
                color_sinks.append(0)
            edges, lacking = color_edges[color], ~color_sinks[color]
            paths = _shortest_paths(arcs, starts, edges, room, cfg.max_path_len)
            offers = sorted(
                path for path in map(paths.get, net.sinks) if path and path[1] and path[2] & lacking
            )
            best = None
            best_gain = 0.0
            for path in offers:
                gain = sum(drops[bit.bit_length() - 1] for bit in _bits(path[2] & lacking))
                if gain > best_gain + 1e-15:
                    best, best_gain = path, gain
            if best is None:
                if not edges:
                    break  # an unused color: every later one sees this same state
                continue
            _, ids, sinks = best
            for edge_id in set(ids) - edges:
                room[edge_id] -= 1
            edges.update(ids)
            for bit in _bits(sinks & lacking):
                t = bit.bit_length() - 1
                counts[t] += 1
                if counts[t] < cfg.num_colors:
                    drops[t] = weights[t] * (levels[counts[t]] - levels[counts[t] + 1])
            color_sinks[color] |= sinks
            chosen.append((FlowPath(ids), color + 1))
            progress = True

    return _result(net, cfg, chosen, _cost(levels, weights, counts), "greedy")


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


def route(net: Network, cfg: SearchConfig, caps=None) -> SearchResult:
    """The package's routing policy: greedy when the cut bound certifies it, else exact.

    Runs ``greedy_search(net, cfg)`` first. When its cost meets the cut
    bound of `caps` (`_sink_caps`, computed when not given) no flow in any
    path universe costs less, so it is returned as "certified-greedy".
    Otherwise returns ``exact_search(net, cfg, caps)``, or, when the
    instance overflows one of the exact search's guards (SearchSizeError),
    its path walk's included, the greedy result already in hand as
    "guard-greedy": greedy walks no path list, so no guard stops it. That
    fallback is also logged as a DEBUG record of the "rainbownet" logger
    that carries the guard's message. A certified flow may differ from the exact search's,
    at equal cost.
    """
    if caps is None:
        caps = _sink_caps(net, cfg)
    greedy = greedy_search(net, cfg)
    bound = _value(cfg, _cut_bound(*_objective(cfg, net, max(caps, default=0)), caps))
    if greedy.objective == bound:
        return replace(greedy, mode="certified-greedy", bound=bound)
    try:
        return exact_search(net, cfg, caps)
    except SearchSizeError as exc:
        # imported here: nothing else in the package logs, and the import
        # would add about 5 ms to every one-shot run
        import logging

        logging.getLogger("rainbownet").debug(
            "exact search overflowed its guard, routing greedily: %s", exc
        )
        return replace(greedy, mode="guard-greedy", bound=bound)


def alternating_search(net: Network, cfg: SearchConfig, rounds: int = 1):
    """Alternate flow search and layer-profile optimization, for at most `rounds` rounds.

    Round 1 routes under `cfg` as given (its objective and profile); every
    later round routes for weighted distortion ("wd") under the profile the
    previous round optimized. Each round routes through `route`, with the
    per-sink cut caps computed once (they depend on the rate, K and
    strictness, which every round shares), and then re-optimizes the
    profile for the flow vector it found, under `cfg.weights`. At least one
    round runs. Returns the final (SearchResult, profile, weighted
    objective).

    The cut-cap floor, the profile optimum for the flow vector rate * caps,
    bounds every (flow, profile) pair: no sink holds more than its cap, and
    a sink never loses by holding more. So the first round whose weighted
    distortion meets it is returned, before any later round. The floor is
    computed only when another round is pending, and it is that round's
    own optimum when its flow vector is rate * caps.
    """
    if cfg.weights is None:
        raise ValueError("alternating search needs a weight vector")
    caps = _sink_caps(net, cfg)
    floor = None
    round_cfg = cfg
    for left in range(max(1, rounds) - 1, -1, -1):
        result = route(net, round_cfg, caps)
        q = list(result.rfv)
        optimum = optimize_pet_profile(q, cfg.weights, cfg.num_colors, cfg.rate)
        if not left:
            break
        if floor is None:
            capped = [cfg.rate * cap for cap in caps]
            floor = optimum if q == capped else optimize_pet_profile(
                capped, cfg.weights, cfg.num_colors, cfg.rate
            )
        if optimum.objective <= floor.objective:
            break
        round_cfg = replace(cfg, objective="wd", profile=optimum.y)
    return result, optimum.y, optimum.objective
