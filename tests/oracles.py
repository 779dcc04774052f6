"""Independent reference implementations the tests check against.

Everything here recomputes results by brute force or dense scanning,
deliberately avoiding the code paths under test.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from rainbownet import DiscreteRnf, Network, enumerate_paths, is_admissible, total_rainbow_flow
from rainbownet.errors import SearchSizeError
from rainbownet.gf256 import EXP, LOG, gf_inv, gf_mul


def brute_min_cut(net: Network, sink: str) -> Fraction:
    """Minimum source-side cut by explicit subset enumeration."""
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
            (e.capacity for e in net.edges if e.tail in side and e.head not in side),
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


def matrix_profile_functions(q, weights, num_descriptions: int, rate, model):
    """Weighted distortion of a layer profile and its gradient, by a dense matrix.

    Row t of the matrix holds 1, 2, ..., c_t in its first c_t columns, so
    matrix @ y is each sink's sum of i * y_i; the gradient is its transpose
    applied to the weighted slopes.
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
        weighted = p * model.derivative_array(rf * (matrix @ np.asarray(y, dtype=float)))
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
