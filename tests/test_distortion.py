import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import helpers
import oracles
from rainbownet import (
    GAUSSIAN,
    DistortionModel,
    PetProfile,
    StepDensity,
    crnf_distortion,
    description_rate,
    description_rates,
    drnf_distortion,
    exact_search,
    minimize_balanced_average,
    more_descriptions_values,
    optimize_pet_profile,
    ozarow_joint_bound,
    pet_decode,
    pet_encode,
    profile_gradient,
    profile_objective,
    refinement_sweep,
    weighted_distortion,
    SearchConfig,
)


class TestModels:
    def test_gaussian_anchor_points(self):
        assert GAUSSIAN.distortion(0) == 1.0
        assert GAUSSIAN.distortion(1) == 0.25
        assert GAUSSIAN.distortion(math.inf) == 0.0

    def test_gaussian_decreasing_and_convex(self):
        rates = np.linspace(0.0, 6.0, 50)
        values = GAUSSIAN.distortion_array(rates)
        assert np.all(np.diff(values) < 0)
        assert np.all(np.diff(np.diff(values)) > -1e-12)

    def test_gaussian_derivative(self):
        for rate in (0.0, 0.5, 2.0):
            step = 1e-6
            numeric = (GAUSSIAN.distortion(rate + step) - GAUSSIAN.distortion(rate - step)) / (
                2 * step
            )
            assert GAUSSIAN.derivative(rate) == pytest.approx(numeric, rel=1e-6)

    def test_tabulated_interpolates_and_clamps(self):
        model = DistortionModel.tabulated([(0, 1.0), (1, 0.25), (2, 0.1)])
        assert model.distortion(0) == 1.0
        assert model.distortion(0.5) == pytest.approx(0.625)
        assert model.distortion(5.0) == pytest.approx(0.1)
        assert model.derivative(0.5) == pytest.approx(-0.75)
        assert model.derivative(5.0) == 0.0

    def test_tabulated_rejects_bad_knots(self):
        with pytest.raises(ValueError, match="decreasing"):
            DistortionModel.tabulated([(0, 1.0), (1, 1.1)])
        with pytest.raises(ValueError, match="convex"):
            DistortionModel.tabulated([(0, 1.0), (1, 0.2), (2, 0.19), (3, 0.01)])
        with pytest.raises(ValueError, match="increasing"):
            DistortionModel.tabulated([(1, 1.0), (1, 0.5)])

    def test_tabulated_rejects_a_first_knot_above_zero(self):
        # D would be flat up to that knot and then fall: not convex
        with pytest.raises(ValueError, match="first knot must be at rate 0, not 0.5"):
            DistortionModel.tabulated([(0.5, 1.0), (1, 0.5)])
        with pytest.raises(ValueError, match="increasing"):
            DistortionModel.tabulated([(1, 1.0), (1, 0.5)])


class TestDiscreteDistortion:
    def test_no_descriptions_means_unit_distortion(self):
        assert drnf_distortion([Fraction(0)], [1.0], Fraction(1)) == (1.0,)

    def test_two_half_rate_layers(self):
        d = drnf_distortion([Fraction(1)], [Fraction(1, 2), Fraction(1, 2)], Fraction(1, 2))
        assert d == (2.0 ** (-1.5),)

    def test_fig1_single_layer_matches_baseline(self):
        d = drnf_distortion(
            [Fraction(1), Fraction(1), Fraction(2), Fraction(2)], [1, 0], Fraction(1)
        )
        assert d == (0.25, 0.25, 0.25, 0.25)

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError, match="integer multiple"):
            drnf_distortion([Fraction(1, 3)], [1.0], Fraction(1, 2))

    def test_rejects_count_above_layers(self):
        with pytest.raises(ValueError, match="exceeds"):
            drnf_distortion([Fraction(3)], [0.5, 0.5], Fraction(1))

    def test_monotone_in_received_count(self):
        y = [0.3, 0.3, 0.4]
        values = [
            drnf_distortion([Fraction(i)], y, Fraction(1))[0] for i in range(4)
        ]
        assert all(b <= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("rate", [0, -1])
    def test_rejects_nonpositive_rate(self, rate):
        with pytest.raises(ValueError, match="rate must be positive"):
            drnf_distortion([1], (0.5, 0.5), rate)

    def test_mass_on_first_layer_helps_single_description(self):
        base = drnf_distortion([Fraction(1)], [0.4, 0.6], Fraction(1))[0]
        shifted = drnf_distortion([Fraction(1)], [0.6, 0.4], Fraction(1))[0]
        assert shifted <= base


class TestContinuousDistortion:
    def test_zero_flow(self):
        assert crnf_distortion([Fraction(0)], StepDensity.uniform(0, 2)) == (1.0,)

    def test_uniform_density_examples(self):
        density = StepDensity.uniform(0, 2)
        full, half = crnf_distortion([Fraction(2), Fraction(1)], density)
        assert full == pytest.approx(0.25)
        assert half == pytest.approx(2.0 ** (-0.5))

    def test_density_must_normalize(self):
        with pytest.raises(ValueError, match="integrate"):
            StepDensity(((Fraction(0), Fraction(2), Fraction(1)),))

    def test_density_pieces_must_be_ordered(self):
        with pytest.raises(ValueError, match="disjoint"):
            StepDensity(
                (
                    (Fraction(0), Fraction(1), Fraction(1, 2)),
                    (Fraction(1, 2), Fraction(3, 2), Fraction(1, 2)),
                )
            )

    def test_exact_first_moment(self):
        density = StepDensity(
            (
                (Fraction(0), Fraction(1), Fraction(1, 2)),
                (Fraction(2), Fraction(3), Fraction(1, 2)),
            )
        )
        assert density.first_moment(Fraction(5, 2)) == Fraction(1, 4) + Fraction(9, 16)


class TestWeightedDistortion:
    def test_uniform_average(self):
        assert weighted_distortion((0.25,) * 4, (0.25,) * 4) == pytest.approx(0.25)

    def test_selector(self):
        assert weighted_distortion((0.7, 0.1), (1.0, 0.0)) == pytest.approx(0.7)

    def test_two_description_average_form(self):
        side, joint = 0.3, 0.1
        value = weighted_distortion((side, side, joint, joint), (0.25,) * 4)
        assert value == pytest.approx((2 * joint + 2 * side) / 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            weighted_distortion((0.5,), (0.5, 0.5))


class TestBalancedPair:
    def test_joint_floor_at_boundary(self):
        assert ozarow_joint_bound(0.25, 1.0) == pytest.approx(0.25 / 1.75)

    def test_direct_evaluation(self):
        side, rate = 0.3, 1.0
        root = math.sqrt(side * side - 2.0 ** (-4 * rate))
        expected = 2.0 ** (-4 * rate) / ((side + root) * (2 - side - root))
        assert ozarow_joint_bound(side, rate) == pytest.approx(expected)
        assert ozarow_joint_bound(side, rate) == pytest.approx(0.08745, abs=5e-6)

    def test_unit_side_collapses_to_one(self):
        for rate in (0.5, 1.0, 3.0):
            assert ozarow_joint_bound(1.0, rate) == pytest.approx(1.0, abs=1e-9)

    def test_below_floor_rejected(self):
        with pytest.raises(ValueError, match="below"):
            ozarow_joint_bound(0.2, 1.0)

    def test_joint_strictly_below_side_at_floor(self):
        for rate in (0.25, 0.5, 1.0, 2.0, 4.0):
            floor = 2.0 ** (-2 * rate)
            assert ozarow_joint_bound(floor, rate) < floor

    def test_minimize_matches_grid_scan(self):
        design = minimize_balanced_average(1.0)
        grid_side, grid_value = oracles.balanced_average_grid_min(1.0)
        assert design.average == pytest.approx(grid_value, abs=1e-6)
        assert design.side == pytest.approx(grid_side, abs=2e-4)
        assert design.average == pytest.approx(0.1862, abs=1e-3)
        assert design.side == pytest.approx(0.265, abs=2e-3)

    def test_strict_improvement_across_rates(self):
        for rate in (0.25, 0.5, 1.0, 2.0, 4.0):
            design = minimize_balanced_average(rate)
            assert design.average < design.separate
            assert design.average / design.separate < 1.0

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            minimize_balanced_average(0.0)

    def test_near_zero_rate_degenerates_to_unit_distortion(self):
        design = minimize_balanced_average(1e-6)
        assert design.side == pytest.approx(1.0, abs=1e-3)
        assert design.average == pytest.approx(1.0, abs=1e-3)


class TestProfileOptimizer:
    def test_fig1_uniform_weights_picks_single_layer(self):
        q = [Fraction(1), Fraction(1), Fraction(2), Fraction(2)]
        optimum = optimize_pet_profile(q, (0.25,) * 4, 2, Fraction(1))
        assert optimum.y[0] == pytest.approx(1.0, abs=1e-9)
        assert optimum.objective == pytest.approx(0.25, abs=1e-9)

    def test_fig1_two_description_weights_pick_joint_layer(self):
        q = [Fraction(1), Fraction(1), Fraction(2), Fraction(2)]
        optimum = optimize_pet_profile(q, (0.0, 0.0, 0.5, 0.5), 2, Fraction(1))
        assert optimum.y[1] == pytest.approx(1.0, abs=1e-9)
        assert optimum.objective == pytest.approx(0.0625, abs=1e-9)

    def test_single_sink_takes_full_depth(self):
        optimum = optimize_pet_profile([Fraction(4)], (1.0,), 4, Fraction(1))
        assert optimum.y[3] == pytest.approx(1.0, abs=1e-9)
        assert optimum.objective == pytest.approx(2.0 ** (-8), abs=1e-9)

    def test_matches_grid_oracle(self):
        rng = random.Random(42)
        for _ in range(10):
            sink_count = rng.randint(2, 4)
            num = rng.randint(1, 3)
            q = [Fraction(rng.randint(0, num)) for _ in range(sink_count)]
            raw = [rng.random() for _ in range(sink_count)]
            total = sum(raw)
            weights = tuple(v / total for v in raw)
            optimum = optimize_pet_profile(q, weights, num, Fraction(1))
            grid = oracles.profile_grid_min(q, weights, num, Fraction(1))
            assert abs(optimum.objective - grid) <= 1e-4

    def test_no_worse_than_uniform_or_vertices(self):
        q = [Fraction(1), Fraction(2), Fraction(3)]
        weights = (0.2, 0.3, 0.5)
        optimum = optimize_pet_profile(q, weights, 3, Fraction(1))
        uniform = profile_objective((1 / 3,) * 3, q, weights, Fraction(1))
        assert optimum.objective <= uniform + 1e-12
        for vertex in np.eye(3):
            assert optimum.objective <= profile_objective(vertex, q, weights, Fraction(1)) + 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = random.Random(9)
        for _ in range(10):
            num = rng.randint(2, 4)
            sink_count = rng.randint(2, 4)
            q = [Fraction(rng.randint(0, num)) for _ in range(sink_count)]
            raw = [rng.random() + 0.05 for _ in range(sink_count)]
            weights = tuple(v / sum(raw) for v in raw)
            point = np.random.default_rng(rng.randint(0, 10**6)).dirichlet(np.ones(num))
            analytic = profile_gradient(point, q, weights, Fraction(1))
            numeric = oracles.central_difference_gradient(
                lambda y: profile_objective(y, q, weights, Fraction(1)), point
            )
            scale = max(1.0, float(np.max(np.abs(numeric))))
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-4

    def test_projection_properties(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            vec = rng.normal(size=rng.integers(1, 6))
            projected = oracles.project_to_simplex(vec)
            assert projected.min() >= 0
            assert projected.sum() == pytest.approx(1.0)
            inside = rng.dirichlet(np.ones(vec.size))
            assert np.allclose(oracles.project_to_simplex(inside), inside, atol=1e-12)

    def test_weights_must_be_a_simplex_vector(self):
        with pytest.raises(ValueError, match="sum to 1"):
            optimize_pet_profile([Fraction(1)], (0.4,), 1, Fraction(1))
        with pytest.raises(ValueError, match="nonnegative"):
            optimize_pet_profile([Fraction(1), Fraction(1)], (1.5, -0.5), 1, Fraction(1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_weights_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            optimize_pet_profile([Fraction(1), Fraction(1)], (bad, 0.5), 1, Fraction(1))

    @pytest.mark.parametrize("rate", [0, -1])
    def test_rate_must_be_positive(self, rate):
        with pytest.raises(ValueError, match="rate must be positive"):
            optimize_pet_profile([Fraction(1), Fraction(1)], (0.5, 0.5), 2, rate)

    def test_seeded_optima_are_pinned(self):
        # 80 optima (y, objective, iterations), Gaussian then tabulated, of
        # the direct solve on the sinks' distinct flow values
        tabulated = DistortionModel.tabulated([(0, 1.0), (0.5, 0.5), (1, 0.3), (3, 0.05)])
        rng = random.Random(23)
        optima = []
        for model in (GAUSSIAN, tabulated):
            for _ in range(40):
                num = rng.randint(1, 8)
                rate = rng.choice([Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3)])
                q = [rate * rng.randint(0, num) for _ in range(rng.randint(1, 8))]
                raw = [rng.random() for _ in q]
                weights = tuple(v / sum(raw) for v in raw)
                optima.append(optimize_pet_profile(q, weights, num, rate, model))
        assert hashlib.sha256(repr(optima).encode()).hexdigest() == (
            "3bd344ebc075aeb7749638fbafe8c6553f7c59c2842292b409e062437d92d10f"
        )

    @pytest.mark.parametrize(
        "model",
        [GAUSSIAN, DistortionModel.tabulated([(0, 1.0), (0.5, 0.5), (1, 0.3), (3, 0.05)])],
        ids=["gaussian", "tabulated"],
    )
    def test_objective_and_gradient_match_the_matrix_reference(self, model):
        rng = random.Random(11)
        for _ in range(200):
            num = rng.randint(1, 8)
            rate = rng.choice([Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3)])
            q = [rate * rng.randint(0, num) for _ in range(rng.randint(1, 8))]
            raw = [rng.random() for _ in q]
            weights = tuple(v / sum(raw) for v in raw)
            y = np.random.default_rng(rng.randrange(2**32)).dirichlet(np.ones(num))
            objective, gradient = oracles.matrix_profile_functions(q, weights, num, rate, model)
            # every term has one sign, so only the summation order differs
            assert profile_objective(y, q, weights, rate, model) == pytest.approx(
                objective(y), rel=1e-12
            )
            np.testing.assert_allclose(
                profile_gradient(y, q, weights, rate, model), gradient(y), rtol=1e-12, atol=0
            )


def _random_convex_knots(rng):
    """A tabulated model with 2-6 knots from rate 0, convex and decreasing."""
    steps = [rng.choice([0.25, 0.5, 1.0, rng.random() + 0.05]) for _ in range(rng.randint(1, 5))]
    drops = sorted((rng.random() + 0.01 for _ in steps), reverse=True)
    knots = [(0.0, sum(d * s for d, s in zip(drops, steps)) + rng.random() / 2 + 0.01)]
    for drop, step in zip(drops, steps):
        knots.append((knots[-1][0] + step, knots[-1][1] - drop * step))
    return DistortionModel.tabulated(knots)


def _random_instance(rng, max_descriptions=10):
    """(q, weights, K, rate): up to 8 sinks, some with zero weight or no description."""
    num = rng.randint(1, max_descriptions)
    rate = rng.choice([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3)])
    q = [rate * rng.randint(0, num) for _ in range(rng.randint(1, 8))]
    raw = [rng.random() if rng.random() < 0.85 else 0.0 for _ in q]
    raw[0] = raw[0] or 1.0
    return q, tuple(v / sum(raw) for v in raw), num, rate


class TestProfileSolveOracles:
    """The direct solve against the projected-gradient descent it replaced,
    the simplex grid, and the Frank-Wolfe optimality gap."""

    @pytest.mark.parametrize("kind", ["gaussian", "tabulated"])
    def test_never_worse_than_projected_gradient(self, kind):
        rng = random.Random({"gaussian": 1, "tabulated": 2}[kind])
        better = 0
        for _ in range(200):
            model = GAUSSIAN if kind == "gaussian" else _random_convex_knots(rng)
            q, weights, num, rate = _random_instance(rng)
            optimum = optimize_pet_profile(q, weights, num, rate, model)
            _, reference = oracles.projected_gradient_profile(q, weights, num, rate, model)
            assert optimum.objective <= reference * (1 + 1e-12)
            better += optimum.objective < reference * (1 - 1e-9)
        assert better > 0  # the descent stops short somewhere on every seed

    def test_no_worse_than_the_grid(self):
        rng = random.Random(5)
        for _ in range(100):
            q, weights, num, rate = _random_instance(rng, max_descriptions=3)
            optimum = optimize_pet_profile(q, weights, num, rate)
            grid = oracles.profile_grid_min(q, weights, num, rate, step=1e-2)
            assert optimum.objective <= grid * (1 + 1e-12)

    def test_frank_wolfe_gap_vanishes(self):
        # D is smooth, so g.y - min_i g_i is zero exactly at the optimum
        rng = random.Random(6)
        for _ in range(200):
            q, weights, num, rate = _random_instance(rng, max_descriptions=16)
            optimum = optimize_pet_profile(q, weights, num, rate)
            g = profile_gradient(optimum.y, q, weights, rate)
            gap = float(g @ np.asarray(optimum.y)) - float(g.min())
            assert gap <= 1e-12 * float(np.abs(g).max())

    @pytest.mark.parametrize("kind", ["gaussian", "tabulated"])
    def test_objective_is_the_profile_objective(self, kind):
        rng = random.Random(7)
        for _ in range(100):
            model = GAUSSIAN if kind == "gaussian" else _random_convex_knots(rng)
            q, weights, num, rate = _random_instance(rng)
            optimum = optimize_pet_profile(q, weights, num, rate, model)
            assert min(optimum.y) >= 0
            assert sum(optimum.y) == pytest.approx(1.0, abs=1e-14)
            assert optimum.objective == profile_objective(optimum.y, q, weights, rate, model)

    def test_no_weighted_description_gives_the_uniform_profile(self):
        optimum = optimize_pet_profile([Fraction(0), Fraction(2)], (1.0, 0.0), 4, Fraction(1))
        assert optimum.y == (0.25,) * 4
        assert optimum.objective == 1.0

    def test_refinement_sweep_is_one_reduced_problem(self):
        # 2**13 * K layers at the last step; the solve only sees the 4 sinks
        q = [Fraction(1), Fraction(2), Fraction(2), Fraction(1)]
        values = refinement_sweep(q, (0.1, 0.2, 0.3, 0.4), 2, Fraction(1), steps=14)
        assert max(values) - min(values) <= 1e-15


class TestLayeredCodeAgreement:
    def test_formula_matches_codec_prefix_exactly(self):
        rng = np.random.default_rng(21)
        block_symbols = 64 * 8
        for num in (1, 2, 3, 4):
            payload = rng.integers(0, 256, num * 64, dtype=np.uint8).tobytes()
            for _ in range(3):
                profile = PetProfile.quantize(
                    rng.dirichlet(np.ones(num)).tolist(), Fraction(1), num, block_symbols
                )
                encoded = pet_encode(payload, profile)
                q = [Fraction(l) for l in range(num + 1)]
                analytic = drnf_distortion(q, profile.y, Fraction(1))
                for received in range(num + 1):
                    prefix = pet_decode(encoded.descriptions[:received])
                    from_codec = GAUSSIAN.distortion(
                        Fraction(8 * len(prefix), block_symbols)
                    )
                    assert from_codec == analytic[received]  # bit-identical floats


class TestMonotonicitySuites:
    def test_more_descriptions_never_hurt(self):
        rng = random.Random(3)
        for _ in range(5):
            net = helpers.random_network(rng)
            flow = helpers.random_admissible_flow(rng, net, 2, Fraction(1, 2))
            from rainbownet import rainbow_flow_vector

            q = list(rainbow_flow_vector(flow).values)
            weights = tuple(1.0 / len(q) for _ in q)
            values = more_descriptions_values(q, weights, Fraction(1, 2), [2, 3, 4])
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_rate_splitting_never_hurts(self):
        net = helpers.fig1_network()
        result = exact_search(net, SearchConfig(num_colors=2, rate=Fraction(1), max_path_len=2))
        q = list(result.rfv.values)
        weights = (0.25,) * 4
        base = optimize_pet_profile(q, weights, 2, Fraction(1)).objective
        for factor in (2, 3):
            split = more_descriptions_values(q, weights, Fraction(1, factor), [2 * factor])[0]
            assert split <= base + 1e-9

    def test_refinement_sweep_nonincreasing(self):
        q = [Fraction(1), Fraction(1), Fraction(2), Fraction(2)]
        values = refinement_sweep(q, (0.25,) * 4, 2, Fraction(1), steps=7)
        assert len(values) == 7
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_refinement_sweep_decays_no_faster_than_the_rate(self):
        q = [Fraction(1), Fraction(2)]
        values = refinement_sweep(q, (0.7, 0.3), 2, Fraction(1), steps=7)
        drops = [a - b for a, b in zip(values, values[1:])]
        early = max(drops[:2]) if max(drops[:2]) > 0 else 1.0
        for step, drop in enumerate(drops[2:], start=2):
            assert drop <= 2.0 * early * 2.0 ** (-step) + 1e-9


def test_exact_rate_arithmetic_in_layered_formula():
    y = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert description_rate(y, Fraction(1, 2), 3) == Fraction(1, 2) * (
        Fraction(1, 3) + Fraction(2, 3) + Fraction(3, 3)
    )
    assert isinstance(description_rate(y, Fraction(1, 2), 2), Fraction)
    assert isinstance(description_rate((0.5, 0.5), Fraction(1), 2), float)


class TestRateTable:
    def test_rational_profiles_match_a_brute_force_sum(self):
        rng = random.Random(4)
        for _ in range(100):
            y = [Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 8))]
            rate = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            expected = [
                rate * sum((Fraction(i) * y[i - 1] for i in range(1, c + 1)), Fraction(0))
                for c in range(len(y) + 1)
            ]
            table = description_rates(y, rate)
            assert table == expected
            assert all(isinstance(entry, Fraction) for entry in table)

    def test_float_profiles_match_the_sequential_loop_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            y = rng.dirichlet(np.ones(rng.integers(1, 65)))
            rate = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            expected = [0.0]
            total = 0.0
            for i, value in enumerate(y.tolist(), start=1):
                total += i * value
                expected.append(float(rate) * total)
            for profile in (tuple(y.tolist()), y):
                assert description_rates(profile, rate).tolist() == expected

    def test_ints_in_give_ints_out(self):
        assert description_rates((3, 0, 2), 1) == [0, 3, 3, 9]
        assert all(type(entry) is int for entry in description_rates((3, 0, 2), 1))

    def test_prefix_bytes_is_the_weighted_segment_sum(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            num = int(rng.integers(1, 12))
            n = 8 * int(rng.integers(1, 200))
            profile = PetProfile.quantize(rng.dirichlet(np.ones(num)).tolist(), Fraction(1), num, n)
            sizes = profile.segment_bytes
            for received in range(num + 1):
                expected = sum(i * sizes[i - 1] for i in range(1, received + 1))
                assert profile.prefix_bytes(received) == expected
                assert type(profile.prefix_bytes(received)) is int
