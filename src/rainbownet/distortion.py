"""Distortion-rate models, per-sink distortion evaluation, and optimizers.

Rates stay exact rationals right up to the distortion-rate function call;
everything from there on is double precision. The two optimizers are a
golden-section search for the balanced two-description design and a
projected-gradient descent over the simplex of description-layer weights.
Both are deterministic and safe to run on many instances in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

import numpy as np

_LN2 = math.log(2.0)
# Largest layer count a refinement sweep may optimize (K=2 allows 14 steps).
MAX_REFINEMENT_LAYERS = 2**14


class DistortionModel:
    """A monotone decreasing, convex distortion-rate function D(R).

    The default model is the unit-variance Gaussian under squared error,
    D(R) = 2**(-2R), with D(0) = 1. A tabulated model interpolates convex
    decreasing knots piecewise-linearly and clamps outside the knot range,
    which keeps the derivative bounded.
    """

    def __init__(self, kind: str, knots=None):
        if kind not in ("gaussian", "tabulated"):
            raise ValueError(f"unknown distortion model kind '{kind}'")
        self.kind = kind
        self._xs = self._ds = None
        if kind == "tabulated":
            if knots is None or len(knots) < 2:
                raise ValueError("a tabulated model needs at least two knots")
            xs = np.array([float(r) for r, _ in knots], dtype=float)
            ds = np.array([float(d) for _, d in knots], dtype=float)
            if np.any(xs < 0) or np.any(np.diff(xs) <= 0):
                raise ValueError("knot rates must be nonnegative and strictly increasing")
            if np.any(ds <= 0) or np.any(np.diff(ds) >= 0):
                raise ValueError("knot distortions must be positive and strictly decreasing")
            slopes = np.diff(ds) / np.diff(xs)
            if np.any(np.diff(slopes) < -1e-12):
                raise ValueError("knots must describe a convex function")
            self._xs, self._ds = xs, ds

    @classmethod
    def gaussian(cls) -> "DistortionModel":
        return cls("gaussian")

    @classmethod
    def tabulated(cls, knots) -> "DistortionModel":
        return cls("tabulated", knots=knots)

    def distortion(self, rate) -> float:
        return float(self.distortion_array(np.array([float(rate)]))[0])

    def derivative(self, rate) -> float:
        return float(self.derivative_array(np.array([float(rate)]))[0])

    def distortion_array(self, rates: np.ndarray) -> np.ndarray:
        rates = np.asarray(rates, dtype=float)
        if self.kind == "gaussian":
            return np.exp2(-2.0 * rates)
        return np.interp(rates, self._xs, self._ds)

    def derivative_array(self, rates: np.ndarray) -> np.ndarray:
        rates = np.asarray(rates, dtype=float)
        if self.kind == "gaussian":
            return -2.0 * _LN2 * np.exp2(-2.0 * rates)
        slopes = np.diff(self._ds) / np.diff(self._xs)
        idx = np.clip(np.searchsorted(self._xs, rates, side="right") - 1, 0, len(slopes) - 1)
        out = slopes[idx]
        out = np.where(rates < self._xs[0], 0.0, out)
        out = np.where(rates >= self._xs[-1], 0.0, out)
        return out

    def __repr__(self):
        return f"DistortionModel({self.kind!r})"


GAUSSIAN = DistortionModel.gaussian()


@dataclass(frozen=True)
class StepDensity:
    """A nonnegative step-function density on (0, inf) integrating to one.

    Pieces are ``(start, end, height)`` with rational endpoints, pairwise
    disjoint and ascending, so first moments integrate exactly.
    """

    pieces: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def __post_init__(self):
        pieces = tuple(
            (Fraction(a), Fraction(b), Fraction(h)) for a, b, h in self.pieces
        )
        object.__setattr__(self, "pieces", pieces)
        previous_end = Fraction(0)
        total = Fraction(0)
        for a, b, h in pieces:
            if a < 0 or b <= a:
                raise ValueError(f"bad density piece [{a}, {b})")
            if a < previous_end:
                raise ValueError("density pieces must be disjoint and ascending")
            if h < 0:
                raise ValueError("density heights must be nonnegative")
            previous_end = b
            total += h * (b - a)
        if total != 1:
            raise ValueError(f"step density must integrate to exactly 1, got {total}")

    @classmethod
    def uniform(cls, a, b) -> "StepDensity":
        a, b = Fraction(a), Fraction(b)
        return cls(((a, b, Fraction(1, 1) / (b - a)),))

    def first_moment(self, upper: Fraction) -> Fraction:
        """Exact integral of x * y(x) over [0, upper]."""
        upper = Fraction(upper)
        total = Fraction(0)
        for a, b, h in self.pieces:
            if upper <= a:
                break
            hi = min(b, upper)
            total += h * (hi * hi - a * a) / 2
        return total


def _description_counts(q: Sequence, rate: Fraction, limit: int) -> list[int]:
    rate = Fraction(rate)
    if rate <= 0:
        raise ValueError("rate must be positive")
    counts = []
    for position, value in enumerate(q):
        value = Fraction(value)
        if value < 0:
            raise ValueError(f"q[{position}] is negative")
        ratio = value / rate
        if ratio.denominator != 1:
            raise ValueError(f"q[{position}] = {value} is not an integer multiple of rate {rate}")
        count = int(ratio)
        if count > limit:
            raise ValueError(f"q[{position}]/rate = {count} exceeds the {limit} descriptions")
        counts.append(count)
    return counts


def description_rates(y: Sequence, rate):
    """Source rate delivered by the first c description layers, c = 0..len(y).

    Entry c is rate * sum(i * y_i, i = 1..c), a running sum: exact when
    every y_i is rational (ints stay ints), otherwise float64 summed in
    layer order.
    """
    if not isinstance(y, np.ndarray) and all(isinstance(v, (Fraction, int)) for v in y):
        rate = rate if isinstance(rate, (Fraction, int)) else Fraction(rate)
        totals = accumulate((i * v for i, v in enumerate(y, start=1)), initial=0)
        return [rate * total for total in totals]
    terms = np.arange(1, len(y) + 1) * np.asarray(y, dtype=float)
    return float(rate) * np.concatenate(([0.0], terms.cumsum()))


def description_rate(y: Sequence, rate, count: int):
    """Source rate delivered by the first `count` layers: one entry of `description_rates`."""
    return description_rates(y[:count], rate)[count]


def drnf_distortion(q: Sequence, y: Sequence, rate, model: DistortionModel = GAUSSIAN):
    """Per-sink distortion of a discrete flow under a balanced layered code.

    Each q_t must be an integer multiple of `rate` not exceeding
    ``len(y) * rate``; sink t receives q_t/rate distinct descriptions and
    reconstructs at distortion D(rate * sum(i * y_i, i <= q_t/rate)).
    """
    counts = _description_counts(list(q), Fraction(rate), len(y))
    rates = description_rates(y, rate)
    return tuple(model.distortion(rates[c]) for c in counts)


def crnf_distortion(q: Sequence, density: StepDensity, model: DistortionModel = GAUSSIAN):
    """Per-sink distortion of a continuous flow under a layer density."""
    out = []
    for position, value in enumerate(q):
        value = Fraction(value)
        if value < 0:
            raise ValueError(f"q[{position}] is negative")
        out.append(model.distortion(density.first_moment(value)))
    return tuple(out)


def weighted_distortion(d: Sequence[float], p: Sequence[float]) -> float:
    """Inner product of a distortion vector with a weight vector."""
    if len(d) != len(p):
        raise ValueError(f"dimension mismatch: {len(d)} distortions, {len(p)} weights")
    return float(sum(float(w) * float(v) for w, v in zip(p, d)))


def ozarow_joint_bound(side: float, rate: float) -> float:
    """Smallest joint distortion compatible with balanced side distortion.

    Valid for 2**(-2*rate) <= side <= 1; below that the discriminant is
    negative and the point lies outside the balanced region.
    """
    side = float(side)
    rate = float(rate)
    single = 2.0 ** (-2.0 * rate)
    joint_floor = single * single
    if side > 1.0 + 1e-12:
        raise ValueError(f"side distortion {side} exceeds the unit-variance bound")
    discriminant = side * side - joint_floor
    if discriminant < 0:
        if discriminant < -1e-12:
            raise ValueError(
                f"side distortion {side} is below the single-description floor {single}"
            )
        discriminant = 0.0
    root = math.sqrt(discriminant)
    return joint_floor / ((side + root) * (2.0 - side - root))


@dataclass(frozen=True)
class BalancedDesign:
    """Optimal balanced two-description operating point for one rate."""

    side: float
    joint: float
    average: float
    separate: float


def minimize_balanced_average(rate: float, *, tol: float = 1e-10) -> BalancedDesign:
    """Minimize the four-sink average (side + joint)/2 over side distortion.

    Two sinks see one description and two see both, so with uniform weights
    the average is (2*side + 2*joint)/4. The objective is convex on
    [2**(-2*rate), 1]; a golden-section search shrinks the bracket below
    `tol`. The optimal average is strictly below the separate-coding
    distortion 2**(-2*rate) for every positive rate.
    """
    rate = float(rate)
    if rate <= 0:
        raise ValueError("rate must be positive")
    separate = 2.0 ** (-2.0 * rate)

    def average(side: float) -> float:
        return 0.5 * (side + ozarow_joint_bound(side, rate))

    lo, hi = separate, 1.0
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = invphi * invphi
    span = hi - lo
    c = lo + invphi2 * span
    d = lo + invphi * span
    fc, fd = average(c), average(d)
    while span > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            span = hi - lo
            c = lo + invphi2 * span
            fc = average(c)
        else:
            lo, c, fc = c, d, fd
            span = hi - lo
            d = lo + invphi * span
            fd = average(d)
    side = 0.5 * (lo + hi)
    joint = ozarow_joint_bound(side, rate)
    value = 0.5 * (side + joint)
    if not value < separate:
        raise ArithmeticError(
            f"balanced optimum {value} does not improve on separate coding {separate}"
        )
    return BalancedDesign(side=side, joint=joint, average=value, separate=separate)


def _check_weights(weights: Sequence[float], size: int) -> np.ndarray:
    p = np.array([float(w) for w in weights], dtype=float)
    if p.shape != (size,):
        raise ValueError(f"weight vector length {p.size} does not match {size} sinks")
    if not np.all(np.isfinite(p)):
        raise ValueError("weights must be finite")
    if np.any(p < 0):
        raise ValueError("weights must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {p.sum()!r}")
    return p


def _profile_functions(q: Sequence, weights: Sequence[float], num_descriptions: int, rate, model):
    """Per-sink rates of a layer profile, and the weighted distortion and its
    gradient as functions of those rates, for fixed q.

    The optimizer takes the gradient at the point whose objective it last
    accepted, so both read the rates computed once for that point.
    """
    counts = np.array(_description_counts(list(q), Fraction(rate), num_descriptions), dtype=int)
    p = _check_weights(weights, len(counts))
    layers = np.arange(1, num_descriptions + 1)
    rf = float(rate)

    def rates(vec: np.ndarray) -> np.ndarray:
        return description_rates(vec, rf)[counts]

    def objective(sink_rates: np.ndarray) -> float:
        return float(p @ model.distortion_array(sink_rates))

    def gradient(sink_rates: np.ndarray) -> np.ndarray:
        # layer i reaches every sink holding at least i descriptions
        weighted = p * model.derivative_array(sink_rates)
        per_count = np.bincount(counts, weights=weighted, minlength=num_descriptions + 1)
        return rf * (layers * per_count[::-1].cumsum()[::-1][1:])

    return rates, objective, gradient


def profile_objective(
    y: Sequence[float], q: Sequence, weights: Sequence[float], rate, model: DistortionModel = GAUSSIAN
) -> float:
    """Weighted distortion of a layer profile `y` for a fixed flow vector."""
    rates, objective, _ = _profile_functions(q, weights, len(y), rate, model)
    return objective(rates(np.asarray(y, dtype=float)))


def profile_gradient(
    y: Sequence[float], q: Sequence, weights: Sequence[float], rate, model: DistortionModel = GAUSSIAN
) -> np.ndarray:
    """Analytic gradient of `profile_objective` with respect to y."""
    rates, _, gradient = _profile_functions(q, weights, len(y), rate, model)
    return gradient(rates(np.asarray(y, dtype=float)))


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort method)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    rho = np.nonzero(u + (1.0 - css) / ks > 0)[0][-1]
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


@dataclass(frozen=True)
class ProfileOptimum:
    y: tuple[float, ...]
    objective: float
    iterations: int


def optimize_pet_profile(
    q: Sequence,
    weights: Sequence[float],
    num_descriptions: int,
    rate,
    model: DistortionModel = GAUSSIAN,
    *,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> ProfileOptimum:
    """Minimize the weighted distortion over layer profiles on the simplex.

    The objective sum_t p_t * D(rate * sum_{i<=q_t/rate} i*y_i) is convex
    (convex decreasing D composed with a linear map), so projected-gradient
    descent from the uniform profile with a backtracking step converges to
    the global optimum. Iteration stops when the improvement drops below
    `tol` or after `max_iter` steps; the run is fully deterministic.
    """
    if num_descriptions < 1:
        raise ValueError("num_descriptions must be at least 1")
    rates, objective, gradient = _profile_functions(q, weights, num_descriptions, rate, model)
    y = np.full(num_descriptions, 1.0 / num_descriptions)
    at_y = rates(y)
    value = objective(at_y)
    step = 1.0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = gradient(at_y)
        accepted = False
        while step >= 1e-18:
            candidate = project_to_simplex(y - step * grad)
            at_candidate = rates(candidate)
            cand_value = objective(at_candidate)
            decrease = float(grad @ (y - candidate))
            if cand_value <= value - 1e-4 * decrease + 1e-18:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        improvement = value - cand_value
        y, value, at_y = candidate, cand_value, at_candidate
        step = min(step * 2.0, 1e8)
        if improvement < tol:
            break
    return ProfileOptimum(y=tuple(float(v) for v in y), objective=value, iterations=iterations)


def _lift(y: Sequence[float], rate, count: int, new_rate) -> tuple[float, ...] | None:
    """Layer i at `rate` moved to layer i*rate/new_rate of `count` layers, or None.

    Every `description_rates` entry reappears at the matching count, so the
    lifted profile realizes the same per-sink rates at `new_rate`.
    """
    factor = Fraction(rate) / Fraction(new_rate)
    if factor.denominator != 1 or len(y) * factor > count:
        return None
    out = [0.0] * count
    for i, value in enumerate(y, start=1):
        out[factor.numerator * i - 1] = float(value)
    return tuple(out)


def _sweep(q, weights, shapes, model, warm=None) -> list[float]:
    """Optimal weighted distortion at each (K, rate) shape in turn.

    Each shape also tries the previous optimum (first `warm`, a (profile,
    rate) pair) lifted onto it, and keeps it if it does strictly better.
    """
    values: list[float] = []
    for count, rate in shapes:
        optimum = optimize_pet_profile(q, weights, count, rate, model)
        value, best = optimum.objective, optimum.y
        lifted = _lift(*warm, count, rate) if warm is not None else None
        if lifted is not None:
            lifted_value = profile_objective(lifted, q, weights, rate, model)
            if lifted_value < value:
                value, best = lifted_value, lifted
        values.append(value)
        warm = (best, rate)
    return values


def more_descriptions_values(
    q: Sequence,
    weights: Sequence[float],
    rate,
    description_counts: Sequence[int],
    model: DistortionModel = GAUSSIAN,
) -> list[float]:
    """Optimal weighted distortion for a fixed flow vector as K grows.

    Each step also evaluates the previous optimum padded with zero layers,
    which realizes the same distortion, so the returned sequence is
    nonincreasing up to float noise.
    """
    return _sweep(q, weights, [(count, rate) for count in description_counts], model)


def rate_split_values(
    q: Sequence,
    weights: Sequence[float],
    num_descriptions: int,
    rate,
    factors: Sequence[int],
    model: DistortionModel = GAUSSIAN,
) -> tuple[float, list[float]]:
    """Optimal weighted distortion before and after splitting the rate.

    Splitting by `i` turns K descriptions of rate r into i*K of rate r/i;
    the flow vector is unchanged. Returns (base value, per-factor values);
    each factor's optimization also tries the base optimum mapped onto
    every i-th layer, which achieves the base value exactly.
    """
    base = optimize_pet_profile(q, weights, num_descriptions, rate, model)
    shapes = [(num_descriptions * i, Fraction(rate) / i) for i in factors]
    return base.objective, [_sweep(q, weights, [s], model, (base.y, rate))[0] for s in shapes]


def refinement_sweep(
    q: Sequence,
    weights: Sequence[float],
    num_descriptions: int,
    rate,
    steps: int = 7,
    model: DistortionModel = GAUSSIAN,
) -> list[float]:
    """Optimal weighted distortion along rate halvings r, r/2, r/4, ...

    Step n optimizes the profile at (2**n * K, rate / 2**n); the previous
    optimum split onto even layers achieves the same value, so the sweep is
    nonincreasing up to float noise. The finest profile has
    K * 2**(steps - 1) layers, at most `MAX_REFINEMENT_LAYERS`.
    """
    # the exponent is clamped so a huge `steps` is never materialized;
    # 2**63 already exceeds the limit
    if steps > 0 and num_descriptions * 2 ** (min(steps, 64) - 1) > MAX_REFINEMENT_LAYERS:
        raise ValueError(
            f"a refinement sweep of {steps} steps at K={num_descriptions} needs "
            f"K * 2**(steps - 1) layers, more than the limit of {MAX_REFINEMENT_LAYERS}"
        )
    shapes = [(num_descriptions * 2**n, Fraction(rate) / 2**n) for n in range(steps)]
    return _sweep(q, weights, shapes, model)
