"""Independent reference implementations the tests check against.

Everything here recomputes results by brute force or dense scanning,
deliberately avoiding the code paths under test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from rainbownet import (
    DiscreteRnf,
    FlowPath,
    IntervalSet,
    Network,
    SearchConfig,
    SearchResult,
    is_admissible,
    optimize_pet_profile,
    route,
    total_rainbow_flow,
)
from rainbownet import network
from rainbownet.errors import SearchSizeError
from rainbownet.gf256 import EXP, LOG, gf_mul
from rainbownet.network import enumerate_path_masks, trail_ids
from rainbownet.progressive import _FIRST_THRESHOLD, _TOP, _normal_interval_mean
from rainbownet.search import (
    MAX_SEARCH_STEPS,
    _candidates,
    _color_capacities,
    _cost,
    _id_order,
    _nothing_admissible,
    _objective,
    _result,
    _sink_caps,
)


def enumerate_paths(net: Network, max_len: int) -> list[FlowPath]:
    """The walk's paths (`enumerate_path_masks`) as `FlowPath`s, in its order."""
    return [FlowPath(trail_ids(trail)) for _, _, trail in enumerate_path_masks(net, max_len)]


def brute_min_cut(net: Network, sink: str, capacities=None) -> Fraction:
    """Minimum source-side cut by explicit subset enumeration.

    Edges weigh their own capacities or, when given, `capacities[edge.id]`.
    """
    sources = set(net.sources)
    assert sink not in sources
    free = [n for n in net.nodes if n not in sources and n != sink]
    best = None
    for mask in range(2 ** len(free)):
        side = set(sources)
        for position, node in enumerate(free):
            if mask >> position & 1:
                side.add(node)
        value = sum(
            (
                e.capacity if capacities is None else capacities[e.id]
                for e in net.edges
                if e.tail in side and e.head not in side
            ),
            Fraction(0),
        )
        if best is None or value < best:
            best = value
    return best


def brute_best_total_flow(net: Network, num_colors: int, rate: Fraction, max_len: int):
    """Best total rainbow flow over every path subset and every coloring."""
    universe = enumerate_paths(net, max_len)
    assert len(universe) <= 8, "oracle is exponential; keep instances tiny"
    best = Fraction(0)
    for size in range(len(universe) + 1):
        for subset in itertools.combinations(range(len(universe)), size):
            for coloring in itertools.product(range(1, num_colors + 1), repeat=size):
                flow = DiscreteRnf(
                    net,
                    tuple(universe[i] for i in subset),
                    coloring,
                    num_colors,
                    rate,
                )
                if is_admissible(flow):
                    best = max(best, total_rainbow_flow(flow))
    return best


def reference_edge_spectrum(rnf, edge_id: str):
    """The union of the spectra of the paths on an edge, by one scan per edge.

    `flows.edge_spectrum` as it was before the flow layer grouped paths in
    one pass; unknown edges raise `Network.edge`'s ValueError.
    """
    rnf.net.edge(edge_id)
    return _reference_union(rnf, [i for i, path in enumerate(rnf.paths) if edge_id in path.edges])


def reference_node_spectrum(rnf, node: str):
    """The union of the spectra of the paths through a node, by one scan per node."""
    if not rnf.net.has_node(node):
        raise ValueError(f"unknown node '{node}'")
    indices = [i for i, path in enumerate(rnf.paths) if node in rnf.net.path_nodes(path)]
    return _reference_union(rnf, indices)


def _reference_union(rnf, indices):
    """The union of the listed paths' spectra, interval sets one pair at a time.

    A discrete flow's colors go into one frozenset in path order.
    """
    if isinstance(rnf, DiscreteRnf):
        return frozenset(rnf.colors[i] for i in indices)
    spectrum = IntervalSet.empty()
    for i in indices:
        spectrum = spectrum | rnf.spectra[i]
    return spectrum


def _path_sinks(net: Network, paths: Sequence[FlowPath]) -> list[list[int]]:
    """The positions in net.sinks of the sinks each path visits, ascending.

    A path visits the tail of its first edge and the head of every edge.
    """
    position = {sink: t for t, sink in enumerate(net.sinks)}
    at_head = {edge.id: position.get(edge.head) for edge in net.edges}
    out = []
    for path in paths:
        sinks = {at_head[edge_id] for edge_id in path.edges}
        sinks.add(position.get(net.edge(path.edges[0]).tail))
        sinks.discard(None)
        out.append(sorted(sinks))
    return out


def reference_path_signatures(net: Network, paths: Sequence[FlowPath]):
    """(edge set, positions in net.sinks of the sinks it visits) per path.

    The frozenset path representation `search.exact_search` read before it
    moved to the walk's bit-mask rows.
    """
    return [
        (frozenset(path.edges), frozenset(sinks))
        for path, sinks in zip(paths, _path_sinks(net, paths))
    ]


def reference_candidates(infos, limit: int):
    """Each minimal path union for the sinks it reaches, as ((edges, sinks), rep).

    `search._candidates` on frozensets, as it was before it grew int masks:
    `infos` are `reference_path_signatures` of the walk's paths.

    A breadth-first closure from the empty union that grows a union by a
    path only when the path reaches a sink the union lacks; `rep` is the
    first path tuple that builds the union, and its sinks travel with it.
    A minimal generating set has no path whose sinks the others cover, so
    every union with no strict subset of equal sinks is built, by the same
    rep as in the closure over all path subsets. Of each sink set the
    minimal unions are kept, sorted by their sorted edges.
    """
    unions: dict[frozenset, tuple[frozenset, tuple[int, ...]]] = {frozenset(): (frozenset(), ())}
    frontier = [frozenset()]
    while frontier:
        added = []
        for edges in frontier:
            sinks, rep = unions[edges]
            for index, (path_edges, path_sinks) in enumerate(infos):
                candidate = edges | path_edges
                if path_sinks <= sinks or candidate in unions:
                    continue
                unions[candidate] = (sinks | path_sinks, rep + (index,))
                added.append(candidate)
                if len(unions) > limit:
                    raise SearchSizeError(
                        f"signature closure exceeded {limit} entries; "
                        "reduce max_path_len or use greedy mode"
                    )
        frontier = added
    minimal: dict[frozenset, list[frozenset]] = {}
    for edges in sorted(unions, key=len):
        group = minimal.setdefault(unions[edges][0], [])
        if not any(other < edges for other in group):
            group.append(edges)
    kept = sorted((edges for group in minimal.values() for edges in group), key=sorted)
    return [((edges, unions[edges][0]), unions[edges][1]) for edges in kept]


def breadth_first_candidates(rows, limit: int):
    """`search._candidates` as a breadth-first closure and a separate minimality pass.

    The closure grows every sink-adding union, minimal or not, level by
    level from the empty union, each union by the rows that reach a sink it
    lacks in row order; `rep` is the first row-index tuple that builds a
    union. It raises SearchSizeError once it holds more than `limit`
    unions. Then each union is tested, in popcount order, against the kept
    unions of its sink set packed into one int, and the kept unions are
    sorted by their sorted edge ids.
    """
    unions: dict[int, tuple[int, tuple[int, ...]]] = {0: (0, ())}
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
                    for index, (path_edges, path_sinks, _) in enumerate(rows)
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
    # by popcount, so a subset of a union comes first; each sink set's kept
    # masks packed into one int, as in `search._candidates`
    width = max(unions).bit_length() + 1
    everything = (1 << width - 1) - 1
    groups: dict[int, tuple[int, int]] = {}
    kept = []
    for edges in sorted(unions, key=int.bit_count):
        packed, ones = groups.get(unions[edges][0], (0, 0))
        if (packed & (everything ^ edges) * ones) - ones & ones << width - 1:
            continue
        groups[unions[edges][0]] = (packed << width | edges, ones << width | 1)
        kept.append(edges)
    kept.sort(key=_id_order)
    return [(edges, *unions[edges]) for edges in kept]


def signature_closure(infos, limit: int):
    """All distinct edge unions of path subsets, as union -> generating paths."""
    unions: dict[frozenset, tuple[int, ...]] = {frozenset(): ()}
    frontier = [frozenset()]
    while frontier:
        added = []
        for edges in frontier:
            rep = unions[edges]
            for index, (path_edges, _) in enumerate(infos):
                candidate = edges | path_edges
                if candidate in unions:
                    continue
                unions[candidate] = rep + (index,)
                added.append(candidate)
                if len(unions) > limit:
                    raise SearchSizeError(
                        f"signature closure exceeded {limit} entries; "
                        "reduce max_path_len or use greedy mode"
                    )
        frontier = added
    return unions


def all_pairs_prune(signatures):
    """Dominance pruning by comparing every pair of (edge-union, sink-set).

    A signature is dropped when another uses a subset of its edges to reach
    a superset of its sinks. Kept (signature, rep) pairs are sorted by
    (sorted edges, sorted sinks).
    """
    items = sorted(signatures.items(), key=lambda kv: (sorted(kv[0][0]), sorted(kv[0][1])))
    kept = []
    for (edges, sinks), rep in items:
        if not any(
            other_edges <= edges
            and other_sinks >= sinks
            and (other_edges, other_sinks) != (edges, sinks)
            for (other_edges, other_sinks), _ in items
        ):
            kept.append(((edges, sinks), rep))
    return kept


def reference_coloring_scan(candidates, capacity_for, K, score, minimize):
    """The first best-scoring feasible K-multiset, by testing every multiset.

    Checks each multiset from `combinations_with_replacement` on its own,
    load by load, so an over-capacity prefix is re-tested for each of its
    extensions. Returns (indices, score).
    """
    best_key = best_score = None
    for combo in itertools.combinations_with_replacement(range(len(candidates)), K):
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
        sink_counts: dict[str, int] = {}
        for index in combo:
            for sink in candidates[index][0][1]:
                sink_counts[sink] = sink_counts.get(sink, 0) + 1
        value = score(sink_counts)
        if best_score is None or (value < best_score if minimize else value > best_score):
            best_score, best_key = value, combo
    return best_key, best_score


def reference_enumerate_paths(net: Network, max_len: int) -> list[FlowPath]:
    """The path walk before it skipped partial paths that reach no sink: a
    set of used edge ids, a FlowPath per sink visit, and one sort at the end.

    Counts every partial path it visits against `network.MAX_PATHS`, read
    at call time.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    sink_set = set(net.sinks)
    found: list[FlowPath] = []
    visited = 0

    def visit(node: str, trail: list[str]):
        nonlocal visited
        visited += 1
        if visited > network.MAX_PATHS:
            raise SearchSizeError(f"path enumeration exceeded {network.MAX_PATHS} partial paths")
        if trail and node in sink_set:
            found.append(FlowPath(tuple(trail)))
        return iter(() if len(trail) == max_len else net.out_edges(node))

    for source in sorted(set(net.sources)):
        trail: list[str] = []
        used: set[str] = set()
        stack = [visit(source, trail)]
        while stack:
            edge = next(stack[-1], None)
            if edge is None:
                stack.pop()
                if trail:
                    used.remove(trail.pop())
            elif edge.id not in used:
                used.add(edge.id)
                trail.append(edge.id)
                stack.append(visit(edge.head, trail))
    found.sort(key=lambda p: p.edges)
    return found


def reference_walk_count(net: Network, max_len: int) -> int:
    """The partial paths the pruned walk visits, by brute force.

    Those are the nonempty edge-simple paths from a source, of length n <=
    max_len, whose last head is at most max_len - n edges from a sink.
    Sink distances come from relaxing every edge |nodes| times, and the
    paths from an unpruned recursive walk.
    """
    distance = {node: 0 if node in net.sinks else math.inf for node in net.nodes}
    for _ in net.nodes:
        for edge in net.edges:
            distance[edge.tail] = min(distance[edge.tail], distance[edge.head] + 1)

    def count(node: str, used: frozenset, length: int) -> int:
        if length == max_len:
            return 0
        total = 0
        for edge in net.out_edges(node):
            if edge.id not in used:
                total += length + 1 + distance[edge.head] <= max_len
                total += count(edge.head, used | {edge.id}, length + 1)
        return total

    return sum(count(source, frozenset(), 0) for source in net.sources)


def reference_greedy_search(net: Network, cfg: SearchConfig) -> SearchResult:
    """The greedy search by brute force over every path of the walk.

    Each step offers a color, per sink, the allowed path among
    `enumerate_paths` that ends there with the least (length, new edges,
    edge ids); a path is allowed when each edge the color lacks has
    `residual[e] >= 1`, and a sink that is a source has the empty path as
    its least, so it is offered none. A path gains the cost decreases of
    `sorted(new_sinks)`, the sinks it visits that the color lacks. The
    offers are scanned by (new edges, edge ids), and a later one wins only
    by more than 1e-15.
    """
    residual = _color_capacities(net, cfg)
    # every color that gains a sink holds an edge: levels past the room of
    # all edges are never read
    levels, weights = _objective(
        cfg, net, min(cfg.num_colors, sum(max(room, 0) for room in residual.values()) + 1)
    )
    counts = [0] * len(weights)
    if _nothing_admissible(net, cfg):
        return _result(net, cfg, [], _cost(levels, weights, counts))
    paths = enumerate_paths(net, cfg.max_path_len)
    infos = [
        (path, frozenset(path.edges), frozenset(sinks), net.edge(path.edges[-1]).head)
        for path, sinks in zip(paths, _path_sinks(net, paths))
    ]
    color_edges: list[frozenset] = []
    color_sinks: list[frozenset] = []
    chosen: list[tuple[FlowPath, int]] = []

    progress = True
    while progress:
        progress = False
        for color in range(cfg.num_colors):
            if color == len(color_edges):
                color_edges.append(frozenset())
                color_sinks.append(frozenset())
            least = {}
            for path, path_edges, path_sinks, end in infos:
                new_edges = path_edges - color_edges[color]
                if end in net.sources or any(residual[e] < 1 for e in new_edges):
                    continue
                key = (len(path.edges), len(new_edges), path.edges)
                if end not in least or key < least[end][0]:
                    least[end] = (key, path, path_edges, path_sinks)
            best, best_gain = None, 0.0
            for offer in sorted(least.values(), key=lambda offer: offer[0][1:]):
                new_sinks = offer[3] - color_sinks[color]
                gain = sum(
                    weights[t] * (levels[counts[t]] - levels[counts[t] + 1])
                    for t in sorted(new_sinks)
                )
                if gain > best_gain + 1e-15:
                    best_gain = gain
                    best = offer
            if best is None:
                if not color_edges[color]:
                    break  # an unused color: every later one sees this same state
                continue
            _, path, path_edges, path_sinks = best
            for edge_id in path_edges - color_edges[color]:
                residual[edge_id] -= 1
            for t in path_sinks - color_sinks[color]:
                counts[t] += 1
            color_edges[color] |= path_edges
            color_sinks[color] |= path_sinks
            chosen.append((path, color + 1))
            progress = True

    return _result(net, cfg, chosen, _cost(levels, weights, counts))


def reference_alternation(net: Network, cfg: SearchConfig, rounds: int = 1):
    """`search.alternating_search` as it was before its floor stop: every round runs.

    Round 1 routes under `cfg`, every later round for weighted distortion
    under the previous round's profile; each re-optimizes the profile for
    its flow vector. Returns the last (SearchResult, profile, objective).
    """
    caps = _sink_caps(net, cfg)
    round_cfg = cfg
    for _ in range(max(1, rounds)):
        result = route(net, round_cfg, caps)
        optimum = optimize_pet_profile(list(result.rfv), cfg.weights, cfg.num_colors, cfg.rate)
        round_cfg = replace(cfg, objective="wd", profile=optimum.y)
    return result, optimum.y, optimum.objective


def cut_cap_floor(net: Network, cfg: SearchConfig) -> float:
    """The profile optimum when each sink holds min(K, its color min cut) descriptions.

    The cut is found by subset enumeration over the color capacities
    (`brute_min_cut`), so keep networks to a dozen nodes or so.
    """
    capacities = _color_capacities(net, cfg)
    caps = [min(cfg.num_colors, brute_min_cut(net, sink, capacities)) for sink in net.sinks]
    return optimize_pet_profile(
        [cfg.rate * cap for cap in caps], cfg.weights, cfg.num_colors, cfg.rate
    ).objective


def reachable_counts(net: Network, cfg: SearchConfig, limit: int = 200_000) -> set[tuple[int, ...]]:
    """Every per-sink description count vector of a flow in the path universe.

    Walks the exact search's candidates (`_candidates`, the minimal path
    union of each sink set) depth first over nondecreasing K-multisets that
    fit the color capacities. For any flow's color some candidate reaches
    the same sinks on a subset of the color's edges, so every flow's
    counts are reached, and each multiset is a flow. Raises SearchSizeError once more
    than `limit` multiset prefixes are visited (and, as the exact search
    does, when the closure builds more than `MAX_SEARCH_STEPS` unions).
    """
    if _nothing_admissible(net, cfg):
        return {(0,) * len(net.sinks)}
    candidates = _candidates(enumerate_path_masks(net, cfg.max_path_len), MAX_SEARCH_STEPS)
    room = list(_color_capacities(net, cfg).values())  # in edge-bit order
    edges = [[b for b in range(len(room)) if mask >> b & 1] for mask, _, _ in candidates]
    sinks = [[t for t in range(len(net.sinks)) if mask >> t & 1] for _, mask, _ in candidates]
    counts = [0] * len(net.sinks)
    reached = set()
    visited = 0

    def walk(start: int, left: int):
        nonlocal visited
        if not left:
            reached.add(tuple(counts))
            return
        for index in range(start, len(candidates)):
            if any(room[b] < 1 for b in edges[index]):
                continue
            visited += 1
            if visited > limit:
                raise SearchSizeError(f"more than {limit} multisets of candidates")
            for b in edges[index]:
                room[b] -= 1
            for t in sinks[index]:
                counts[t] += 1
            walk(index, left - 1)
            for b in edges[index]:
                room[b] += 1
            for t in sinks[index]:
                counts[t] -= 1

    walk(0, cfg.num_colors)
    return reached


def joint_optimum(net: Network, cfg: SearchConfig, limit: int = 200_000) -> float:
    """The least weighted distortion over every flow in the path universe and every profile.

    The least profile optimum over `reachable_counts`, each count vector
    given as the flow vector rate * counts, under `cfg.weights`.
    """
    return min(
        optimize_pet_profile(
            [cfg.rate * c for c in counts], cfg.weights, cfg.num_colors, cfg.rate
        ).objective
        for counts in reachable_counts(net, cfg, limit)
    )


def balanced_pair_bound(side: float, rate: float) -> float:
    """Joint-distortion floor of the balanced two-description region, inline."""
    floor = 2.0 ** (-4.0 * rate)
    root = math.sqrt(max(side * side - floor, 0.0))
    return floor / ((side + root) * (2.0 - side - root))


def balanced_average_grid_min(rate: float, step: float = 1e-4):
    """Dense scan of (side + joint)/2 over the admissible side range."""
    lo = 2.0 ** (-2.0 * rate)
    sides = np.arange(lo, 1.0 + step, step)
    sides = sides[sides <= 1.0]
    best_value = math.inf
    best_side = lo
    for side in sides:
        value = 0.5 * (side + balanced_pair_bound(float(side), rate))
        if value < best_value:
            best_value = value
            best_side = float(side)
    return best_side, best_value


def profile_grid_min(q, weights, num_descriptions: int, rate, step: float = 1e-3) -> float:
    """Dense simplex scan of the layered-code objective (Gaussian model).

    Only supports K <= 3, which is all the oracle is ever asked for.
    """
    counts = [int(Fraction(v) / Fraction(rate)) for v in q]
    p = np.asarray(weights, dtype=float)
    rate_f = float(rate)
    m = int(round(1.0 / step))
    axis = np.arange(m + 1) / m
    if num_descriptions == 1:
        grid = np.array([[1.0]])
    elif num_descriptions == 2:
        grid = np.stack([axis, 1.0 - axis], axis=1)
    elif num_descriptions == 3:
        a, b = np.meshgrid(axis, axis, indexing="ij")
        mask = a + b <= 1.0 + 1e-12
        y1, y2 = a[mask], b[mask]
        grid = np.stack([y1, y2, 1.0 - y1 - y2], axis=1)
    else:
        raise ValueError("grid oracle supports K <= 3 only")
    values = np.zeros(len(grid))
    for count, weight in zip(counts, p):
        coeff = np.zeros(num_descriptions)
        coeff[:count] = np.arange(1, count + 1)
        values += weight * np.exp2(-2.0 * rate_f * (grid @ coeff))
    return float(values.min())


def distortion_slopes(model, rates) -> np.ndarray:
    """D'(R) at each rate, written out apart from the model's own code.

    Gaussian: d/dR 2**(-2R) = -2 ln 2 * 2**(-2R). Tabulated: the slope of
    the knot segment [x_j, x_j+1) holding R, and zero at or past the last
    knot, where D is flat.
    """
    rates = np.asarray(rates, dtype=float)
    if model.kind == "gaussian":
        return -2.0 * math.log(2.0) * np.exp2(-2.0 * rates)
    xs, ds = model._xs, model._ds
    out = np.zeros_like(rates)
    for j in range(len(xs) - 1):
        inside = (xs[j] <= rates) & (rates < xs[j + 1])
        out[inside] = (ds[j + 1] - ds[j]) / (xs[j + 1] - xs[j])
    return out


def matrix_profile_functions(q, weights, num_descriptions: int, rate, model):
    """Weighted distortion of a layer profile and its gradient, by a dense matrix.

    Row t of the matrix holds 1, 2, ..., c_t in its first c_t columns, so
    matrix @ y is each sink's sum of i * y_i; the gradient is its transpose
    applied to the weighted slopes of `distortion_slopes`.
    """
    counts = [int(Fraction(v) / Fraction(rate)) for v in q]
    matrix = np.zeros((len(counts), num_descriptions))
    for row, count in enumerate(counts):
        matrix[row, :count] = np.arange(1, count + 1)
    p = np.asarray(weights, dtype=float)
    rf = float(rate)

    def objective(y) -> float:
        return float(p @ model.distortion_array(rf * (matrix @ np.asarray(y, dtype=float))))

    def gradient(y) -> np.ndarray:
        weighted = p * distortion_slopes(model, rf * (matrix @ np.asarray(y, dtype=float)))
        return rf * (matrix.T @ weighted)

    return objective, gradient


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort method)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    rho = np.nonzero(u + (1.0 - css) / ks > 0)[0][-1]
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def projected_gradient_profile(
    q, weights, num_descriptions: int, rate, model, *, tol: float = 1e-12, max_iter: int = 10_000
):
    """Layer profile by projected-gradient descent on the full K-layer simplex.

    Starts from the uniform profile and takes Armijo-backtracked steps
    until one improves the objective by less than the absolute `tol`.
    Returns (y, objective): a feasible profile, not always the optimum.
    """
    objective, gradient = matrix_profile_functions(q, weights, num_descriptions, rate, model)
    y = np.full(num_descriptions, 1.0 / num_descriptions)
    value = objective(y)
    step = 1.0
    for _ in range(max_iter):
        grad = gradient(y)
        while step >= 1e-18:
            candidate = project_to_simplex(y - step * grad)
            cand_value = objective(candidate)
            if cand_value <= value - 1e-4 * float(grad @ (y - candidate)) + 1e-18:
                break
            step *= 0.5
        else:
            break
        improvement = value - cand_value
        y, value = candidate, cand_value
        step = min(step * 2.0, 1e8)
        if improvement < tol:
            break
    return y, value


def central_difference_gradient(fn, y, h: float = 1e-6) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    for i in range(y.size):
        up = y.copy()
        down = y.copy()
        up[i] += h
        down[i] -= h
        out[i] = (fn(up) - fn(down)) / (2.0 * h)
    return out


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return EXP[255 - LOG[a]]


def _gf_mul_row(scalar: int, row: np.ndarray) -> np.ndarray:
    """Every byte of `row` times one field element, through the log tables."""
    if scalar == 0:
        return np.zeros_like(row)
    out = np.array(EXP, dtype=np.uint8)[(np.array(LOG)[row] + LOG[scalar]) % 255]
    out[row == 0] = 0
    return out


def lagrange_value(sources, rows, target: int) -> np.ndarray:
    """Value at `target` of the polynomial through (sources[u], rows[u]).

    One scalar Lagrange coefficient per source row, one row multiply each.
    """
    acc = np.zeros_like(rows[0])
    for u, row in zip(sources, rows):
        numer = denom = 1
        for v in sources:
            if v != u:
                numer = gf_mul(numer, target ^ v)
                denom = gf_mul(denom, u ^ v)
        acc ^= _gf_mul_row(gf_mul(numer, gf_inv(denom)), row)
    return acc


def reference_encode_block(data: np.ndarray, total: int) -> np.ndarray:
    """Systematic (k, total) codeword rows: the data, then one parity row per point."""
    k = len(data)
    parity = [lagrange_value(range(k), list(data), point) for point in range(k, total)]
    return np.array(list(data) + parity, dtype=np.uint8).reshape(total, -1)


def reference_recover_block(shares: dict, k: int) -> np.ndarray:
    """Data rows from the k lowest shares; ValueError names the first bad extra share."""
    chosen = sorted(shares)[:k]
    rows = [shares[point] for point in chosen]
    data = np.array([lagrange_value(chosen, rows, point) for point in range(k)])
    for point, row in shares.items():
        if point not in chosen and not np.array_equal(
            lagrange_value(range(k), list(data), point), row
        ):
            raise ValueError(f"parity row {point} is inconsistent with the recovered data")
    return data


# The rate-distortion reference for the progressive stream: the same plane
# scan coded by an adaptive binary arithmetic coder (a model, one coder
# object per direction, and one scan that drives either).
_MASK = (1 << 32) - 1
_HALF = 1 << 31
_QUARTER = 1 << 30
_THREE_QUARTERS = 3 << 30
_COUNT_CAP = 1024


class _Model:
    """Adaptive binary model: counts with halving to track nonstationarity."""

    __slots__ = ("zero", "one")

    def __init__(self):
        self.zero = 1
        self.one = 1

    def update(self, bit: int):
        if bit:
            self.one += 1
        else:
            self.zero += 1
        if self.zero + self.one > _COUNT_CAP:
            self.zero = (self.zero + 1) >> 1
            self.one = (self.one + 1) >> 1


class _Encoder:
    """Binary arithmetic encoder; flags overrun once `limit_bits` bits are out."""

    def __init__(self, limit_bits: int):
        self._bits: list[int] = []
        self._limit = limit_bits
        self._low = 0
        self._high = _MASK
        self._pending = 0
        self.overrun = limit_bits <= 0

    def _emit(self, bit: int):
        bits = self._bits
        bits.append(bit)
        if self._pending:
            bits.extend([1 - bit] * self._pending)
            self._pending = 0
        if len(bits) >= self._limit:
            self.overrun = True

    def code(self, bit: int, model: _Model | None) -> int:
        zero = model.zero if model else 1
        one = model.one if model else 1
        span = self._high - self._low + 1
        split = self._low + span * zero // (zero + one) - 1
        if bit:
            self._low = split + 1
        else:
            self._high = split
        while True:
            if self._high < _HALF:
                self._emit(0)
            elif self._low >= _HALF:
                self._emit(1)
                self._low -= _HALF
                self._high -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_QUARTERS:
                self._pending += 1
                self._low -= _QUARTER
                self._high -= _QUARTER
            else:
                break
            self._low = (self._low << 1) & _MASK
            self._high = ((self._high << 1) | 1) & _MASK
        if model:
            model.update(bit)
        return bit

    @property
    def position(self) -> int:
        """The bits coded so far, counting the deferred ones."""
        return len(self._bits) + self._pending

    def finish(self) -> bytes:
        """Flush the interval and return the bits, zero-padded to whole bytes."""
        self._pending += 1
        self._emit(0 if self._low < _QUARTER else 1)
        return np.packbits(np.array(self._bits, dtype=np.uint8)).tobytes()


class _Decoder:
    """Binary arithmetic decoder over the first `limit_bits` bits of `data`.

    Past that prefix it reads zeros and flags overrun.
    """

    def __init__(self, data: bytes, limit_bits: int):
        prefix = np.frombuffer(data[: (limit_bits + 7) // 8], dtype=np.uint8)
        self._bits = np.unpackbits(prefix)[:limit_bits].tolist()
        self._limit = len(self._bits)
        self._position = 0
        self.overrun = False
        self._low = 0
        self._high = _MASK
        self._value = 0
        for _ in range(32):
            self._value = (self._value << 1) | self._read()

    def _read(self) -> int:
        position = self._position
        if position >= self._limit:
            self.overrun = True
            return 0
        self._position = position + 1
        return self._bits[position]

    def code(self, _bit: int, model: _Model | None) -> int:
        """Read one decision; the bit argument keeps the encoder's call shape."""
        zero = model.zero if model else 1
        one = model.one if model else 1
        span = self._high - self._low + 1
        split = self._low + span * zero // (zero + one) - 1
        bit = 0 if self._value <= split else 1
        if bit:
            self._low = split + 1
        else:
            self._high = split
        while True:
            if self._high < _HALF:
                pass
            elif self._low >= _HALF:
                self._low -= _HALF
                self._high -= _HALF
                self._value -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_QUARTERS:
                self._low -= _QUARTER
                self._high -= _QUARTER
                self._value -= _QUARTER
            else:
                break
            self._low = (self._low << 1) & _MASK
            self._high = ((self._high << 1) | 1) & _MASK
            self._value = ((self._value << 1) | self._read()) & _MASK
        if model:
            model.update(bit)
        return bit


def _scan(coder, magnitudes, signs, plane_ends=None):
    """The plane scan shared by the encoder and the decoder.

    Every decision is `coder.code(bit, model) -> bit`: the encoder writes
    the bit computed from `magnitudes`/`signs` and returns it, the decoder
    ignores it and returns the bit it read (decoding passes zero magnitudes
    and signs). The scan stops before the first decision made once
    `coder.overrun` is set. Returns per-sample (significant, sign, lower,
    width) state from which reconstructions are formed. An encoder that
    never overruns appends its position after each plane to `plane_ends`.
    """
    code = coder.code
    n = len(magnitudes)
    significant = bytearray(n)
    sign = bytearray(n)
    lower = [0.0] * n
    width = [0.0] * n
    threshold = _FIRST_THRESHOLD
    while not coder.overrun and threshold > 1e-12:
        significance_model = _Model()
        refinement_model = _Model()
        newly = bytearray(n)
        for i in range(n):
            if significant[i]:
                continue
            if coder.overrun:
                break
            if code(1 if magnitudes[i] >= threshold else 0, significance_model):
                sign[i] = code(signs[i], None)
                significant[i] = 1
                newly[i] = 1
                lower[i] = threshold
                width[i] = threshold
        for i in range(n):
            if not significant[i] or newly[i]:
                continue
            if coder.overrun:
                break
            midpoint = lower[i] + threshold
            if code(1 if magnitudes[i] >= midpoint else 0, refinement_model):
                lower[i] = midpoint
            width[i] = threshold
        if plane_ends is not None and not coder.overrun:
            plane_ends.append(coder.position)
        threshold /= 2.0
    return significant, sign, lower, width


def reference_reconstruction(significant, sign, lower, width) -> np.ndarray:
    """Reconstruction from a decoded scan state, one sample at a time."""
    n = len(significant)
    reconstruction = np.zeros(n, dtype=float)
    cache: dict[tuple[float, float], float] = {}
    for i in range(n):
        if not significant[i]:
            continue
        a = lower[i]
        b = min(a + width[i], _TOP)
        key = (a, b)
        value = cache.get(key)
        if value is None:
            value = _normal_interval_mean(a, b)
            cache[key] = value
        reconstruction[i] = value if sign[i] == 0 else -value
    return reconstruction


# The progressive stream's Rice-coded format, one codeword at a time: the
# loop reference `rainbownet.progressive`'s numpy encoder and decoder are
# tested against.
def _rice_length(run: int, k: int) -> int:
    return (run >> k) + 1 + k


def _rice_codeword(run: int, k: int) -> list[int]:
    """run >> k ones, a zero, then the k low bits of run."""
    return [1] * (run >> k) + [0] + [(run >> shift) & 1 for shift in range(k - 1, -1, -1)]


def _cheapest_parameter(runs) -> tuple[int, int]:
    """(bits, k) of the Rice parameter that codes `runs` in the fewest
    bits, the smallest k on ties, over every 5-bit parameter."""
    return min((sum(_rice_length(run, k) for run in runs), k) for k in range(32))


def _pass_runs(hits) -> list[int]:
    """The run of misses before each hit, then the tail run if it is not 0."""
    runs, run = [], 0
    for hit in hits:
        if hit:
            runs.append(run)
            run = 0
        else:
            run += 1
    return runs + [run] if run else runs


def reference_rice_encode(
    magnitudes, signs, limit_bits: int, plane_ends=None, significance_ends=None
) -> bytes:
    """The progressive stream's whole planes until `limit_bits` bits are
    out or the planes end, zero-padded to whole bytes. Appends the bit
    count after each plane to `plane_ends`, and after each plane's
    significance pass to `significance_ends`."""
    n = len(magnitudes)
    significant = [False] * n
    lower = [0.0] * n
    bits: list[int] = []
    threshold = _FIRST_THRESHOLD
    while len(bits) < limit_bits and threshold > 1e-12:
        visited = [i for i in range(n) if not significant[i]]
        earlier = [i for i in range(n) if significant[i]]
        if visited:
            hits = [magnitudes[i] >= threshold for i in visited]
            runs = _pass_runs(hits)
            _, k = _cheapest_parameter(runs)
            bits += [(k >> shift) & 1 for shift in range(4, -1, -1)]
            newly = [i for i, hit in zip(visited, hits) if hit]
            for index, run in enumerate(runs):
                bits += _rice_codeword(run, k)
                if index < len(newly):
                    bits.append(int(signs[newly[index]]))
            for i in newly:
                significant[i] = True
                lower[i] = threshold
        if significance_ends is not None:
            significance_ends.append(len(bits))
        if earlier:
            refinement = []
            for i in earlier:
                bit = int(magnitudes[i] >= lower[i] + threshold)
                lower[i] += threshold * bit
                refinement.append(bit)
            rare = 1 if 2 * sum(refinement) <= len(refinement) else 0
            runs = _pass_runs([bit == rare for bit in refinement])
            cost, k = _cheapest_parameter(runs)
            if 1 + 1 + 5 + cost < 1 + len(refinement):
                bits += [1, rare] + [(k >> shift) & 1 for shift in range(4, -1, -1)]
                for run in runs:
                    bits += _rice_codeword(run, k)
            else:
                bits += [0] + refinement
        if plane_ends is not None:
            plane_ends.append(len(bits))
        threshold /= 2.0
    return np.packbits(np.array(bits, dtype=np.uint8)).tobytes()


class _Incomplete(Exception):
    """The prefix ends inside a codeword."""


def reference_rice_decode(data: bytes, limit_bits: int, n: int):
    """Per-sample (significant, sign, lower, width) after the codewords
    complete in the first `limit_bits` bits of `data`.

    Each codeword is read whole before it is applied, and a read past the
    prefix ends the decode.
    """
    prefix = np.frombuffer(data[: (limit_bits + 7) // 8], dtype=np.uint8)
    bits = np.unpackbits(prefix)[:limit_bits].tolist()
    position = 0

    def read(count: int) -> int:
        nonlocal position
        if position + count > len(bits):
            raise _Incomplete
        value = 0
        for bit in bits[position : position + count]:
            value = value << 1 | bit
        position += count
        return value

    def read_run(k: int) -> int:
        ones = 0
        while read(1):
            ones += 1
        return ones << k | read(k)

    significant = bytearray(n)
    sign = bytearray(n)
    lower = [0.0] * n
    width = [0.0] * n
    threshold = _FIRST_THRESHOLD
    try:
        while threshold > 1e-12:
            visited = [i for i in range(n) if not significant[i]]
            earlier = [i for i in range(n) if significant[i]]
            if visited:
                k = read(5)
                offset = 0
                while offset < len(visited):
                    run = read_run(k)
                    if offset + run >= len(visited):
                        break
                    negative = read(1)
                    i = visited[offset + run]
                    significant[i] = 1
                    sign[i] = negative
                    lower[i] = threshold
                    width[i] = threshold
                    offset += run + 1
            if earlier:
                if read(1):
                    rare = read(1)
                    k = read(5)
                    decided = 0
                    while decided < len(earlier):
                        run = read_run(k)
                        if decided + run >= len(earlier):
                            codeword = [1 - rare] * (len(earlier) - decided)
                        else:
                            codeword = [1 - rare] * run + [rare]
                        for i, bit in zip(earlier[decided:], codeword):
                            lower[i] += threshold * bit
                            width[i] = threshold
                        decided += len(codeword)
                else:
                    for i in earlier:
                        lower[i] += threshold * read(1)
                        width[i] = threshold
            threshold /= 2.0
    except _Incomplete:
        pass
    return significant, sign, lower, width
