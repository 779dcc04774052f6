"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any assertion failure marks that criterion FAILED.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import helpers
import oracles
from rainbownet import (
    GAUSSIAN,
    IntervalSet,
    PetProfile,
    SearchConfig,
    SearchSizeError,
    check_admissibility,
    drnf_distortion,
    exact_search,
    greedy_search,
    minimize_balanced_average,
    more_descriptions_values,
    optimize_pet_profile,
    pet_decode,
    pet_encode,
    profile_gradient,
    profile_objective,
    rainbow_flow_vector,
    rate_split_values,
    refinement_sweep,
    separate_coding_baseline,
)

RATE_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


def _report(line: str):
    print(f"\n{line}")


def test_criterion_1_strict_improvement_over_separate_coding():
    started = time.perf_counter()
    for rate in RATE_GRID:
        design = minimize_balanced_average(rate)
        assert design.separate - design.average > 1e-6, rate
    design = minimize_balanced_average(1.0)
    _, grid_reference = oracles.balanced_average_grid_min(1.0, step=1e-4)
    assert design.average == pytest.approx(grid_reference, abs=1e-6)
    assert abs(design.average - 0.1862) <= 1e-3
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(
        "criterion 1: PASS - optimized two-description average beats separate "
        f"coding on all of {RATE_GRID} (margin > 1e-6); at C=1 average="
        f"{design.average:.6f} vs grid reference {grid_reference:.6f} ({elapsed:.2f}s)"
    )


def test_criterion_2_flow_vector_reproduction():
    flow = helpers.fig1_flow()
    rfv = rainbow_flow_vector(flow)
    assert rfv.values == (Fraction(1), Fraction(1), Fraction(2), Fraction(2))
    report = check_admissibility(flow)
    assert report.admissible
    used = {edge_id for path in flow.paths for edge_id in path.edges}
    for row in report.rows:
        if row.edge_id in used:
            assert row.slack == 0
    assert used == {row.edge_id for row in report.rows}
    _report(
        "criterion 2: PASS - bundled flow gives q=(1,1,2,2) exactly and "
        "saturates every used edge with zero slack"
    )


@pytest.fixture(scope="module")
def balance_runs():
    """Shared encode/decode sweep: K=1..5, 20 random profiles each, 4 KiB payloads."""
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    runs = []
    for num in range(1, 6):
        description_bytes = 4096 // num
        block_symbols = 8 * description_bytes  # rate 1 bit per symbol
        for _ in range(20):
            payload = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
            profile = PetProfile.quantize(
                rng.dirichlet(np.ones(num)).tolist(), Fraction(1), num, block_symbols
            )
            encoded = pet_encode(payload, profile)
            prefix_bits = {}
            for size in range(num + 1):
                expected = payload[: profile.prefix_bytes(size)]
                for subset in itertools.combinations(encoded.descriptions, size):
                    recovered = pet_decode(list(subset))
                    assert recovered == expected
                    assert 8 * len(recovered) == profile.prefix_bits(size)
                prefix_bits[size] = profile.prefix_bits(size)
            runs.append((profile, prefix_bits))
    return runs, time.perf_counter() - started


def test_criterion_3_pet_balance(balance_runs):
    runs, elapsed = balance_runs
    assert len(runs) == 100
    assert elapsed < 30.0
    _report(
        "criterion 3: PASS - 100 random profiles, K=1..5, every description "
        f"subset recovered a bit-exact prefix of the promised length ({elapsed:.1f}s)"
    )


def test_criterion_4_formula_matches_codec(balance_runs):
    runs, _ = balance_runs
    compared = 0
    for profile, prefix_bits in runs:
        num = profile.num_descriptions
        q = [Fraction(l) for l in range(num + 1)]
        analytic = drnf_distortion(q, profile.y, profile.rate)
        for size in range(num + 1):
            from_codec = GAUSSIAN.distortion(
                Fraction(prefix_bits[size], profile.block_symbols)
            )
            assert from_codec == analytic[size]  # 0 ulp: identical floats
            compared += 1
    _report(
        f"criterion 4: PASS - layered-code formula and codec prefix agree to "
        f"0 ulp in {compared} comparisons"
    )


def _lemma_instances():
    rng = random.Random(1234)
    nets = [("fig1", helpers.fig1_network()), ("fig2", helpers.fig2_network())]
    for index in range(25):
        nets.append((f"random-{index}", helpers.random_network(rng, max_nodes=7)))
    return nets


def test_criterion_5_lemma_suites():
    rate = Fraction(1, 2)
    for name, net in _lemma_instances():
        cfg = SearchConfig(num_colors=2, rate=rate, max_path_len=3)
        try:
            result = exact_search(net, cfg)
        except SearchSizeError:
            result = greedy_search(net, cfg)
        q = list(result.rfv.values)
        weights = tuple(1.0 / len(q) for _ in q)

        values = more_descriptions_values(q, weights, rate, [2, 3, 4])
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:])), name

        base, split_values = rate_split_values(q, weights, 2, rate, (2, 3))
        for split in split_values:
            assert split <= base + 1e-9, name

    fig1 = helpers.fig1_network()
    result = exact_search(fig1, SearchConfig(num_colors=2, rate=Fraction(1), max_path_len=2))
    trend = refinement_sweep(
        list(result.rfv.values), (0.25,) * 4, 2, Fraction(1), steps=7
    )
    assert all(b <= a + 1e-9 for a, b in zip(trend, trend[1:]))
    _report(
        "criterion 5: PASS - description-count and rate-splitting monotonicity "
        "hold on fig1, fig2 and 25 random graphs (1e-9 slack); the rate "
        "sweep 1..1/64 is nonincreasing"
    )


def test_criterion_6_routing_oracle():
    fig1 = helpers.fig1_network()
    exact2 = exact_search(fig1, SearchConfig(num_colors=2, rate=Fraction(1), max_path_len=2))
    assert exact2.objective == 6

    rng = random.Random(77)
    instances = [fig1, helpers.fig2_network()] + [
        helpers.random_network(rng) for _ in range(8)
    ]
    for net in instances:
        for num in (1, 2):
            cfg = SearchConfig(num_colors=num, rate=Fraction(1, 2), max_path_len=3)
            greedy = greedy_search(net, cfg)
            exact = exact_search(net, cfg)
            assert greedy.objective <= exact.objective
            if num == 1:
                assert greedy.objective == exact.objective

    baseline = separate_coding_baseline(fig1)
    assert baseline.rate == 1
    assert baseline.distortions == (0.25,) * 4
    _report(
        "criterion 6: PASS - exact search reproduces the optimum 6C on fig1, "
        "greedy never beats exact (and matches it at K=1) on 10 instances, "
        "baseline rate C with distortion 2^-2C everywhere"
    )


def test_criterion_7_optimizer_oracle():
    rng = random.Random(4321)
    checked = 0
    for _ in range(30):
        num = rng.randint(1, 3)
        sink_count = rng.randint(2, 5)
        q = [Fraction(rng.randint(0, num)) for _ in range(sink_count)]
        raw = [rng.random() + 0.01 for _ in range(sink_count)]
        weights = tuple(v / sum(raw) for v in raw)
        optimum = optimize_pet_profile(q, weights, num, Fraction(1))
        grid = oracles.profile_grid_min(q, weights, num, Fraction(1), step=1e-3)
        assert abs(optimum.objective - grid) <= 1e-4

        point = np.random.default_rng(rng.randint(0, 10**6)).dirichlet(np.ones(num))
        analytic = profile_gradient(point, q, weights, Fraction(1))
        numeric = oracles.central_difference_gradient(
            lambda y: profile_objective(y, q, weights, Fraction(1)), point
        )
        scale = max(1.0, float(np.max(np.abs(numeric))))
        assert float(np.max(np.abs(analytic - numeric))) / scale <= 1e-4
        checked += 1
    assert checked == 30
    _report(
        "criterion 7: PASS - the profile solve matches the 1e-3 simplex grid "
        "within 1e-4 and finite differences within relative 1e-4 on 30 instances"
    )


def test_criterion_8_interval_measure_algebra():
    spectrum = IntervalSet.from_pairs([["0.5", "2"], ["3", "4"]])
    assert spectrum.measure == Fraction(5, 2)

    # The three sink spectra of the bundled continuous flow measure
    # 1.5+1, 0.5, and 0.5+0.5; the flow vector is defined as exactly these
    # measures, so (2.5, 0.5, 1.0) is asserted (not any externally quoted
    # tuple for this topology).
    rfv = rainbow_flow_vector(helpers.fig2_flow())
    assert rfv.values == (Fraction(5, 2), Fraction(1, 2), Fraction(1))
    _report(
        "criterion 8: PASS - interval union measures 2.5 and the continuous "
        "flow vector is (2.5, 0.5, 1.0), the exact spectrum measures"
    )
