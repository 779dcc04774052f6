"""Seeded progressive Gaussian source: an embedded bit-plane coder.

Samples are i.i.d. unit-variance Gaussian. The coder scans magnitude
bit-planes from coarse to fine; per plane it first codes significance
(with an adaptive per-plane binary model and a raw sign bit on each new
significant sample) and then one refinement bit for every previously
significant sample. All decisions go through one binary arithmetic coder,
so every byte prefix of the stream is decodable: decoding simply stops
when the prefix is exhausted. One plane scan, `_scan`, drives both
directions: it hands each decision to the encoder, which writes the known
bit, or to the decoder, which reads it, and stops when the encoder's bit
budget or the decoder's prefix runs out. Reconstruction uses the
conditional mean of the standard normal on each sample's surviving
uncertainty interval.

The stream is prefix-significant but not rate-distortion optimal; the
measured gap against 2**(-2R) is pinned in the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TOP = 8.0  # magnitudes are clipped just below this; P(|N(0,1)| >= 8) ~ 1e-15
_FIRST_THRESHOLD = 4.0
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


def _scan(coder, magnitudes, signs):
    """The plane scan shared by the encoder and the decoder.

    Every decision is `coder.code(bit, model) -> bit`: the encoder writes
    the bit computed from `magnitudes`/`signs` and returns it, the decoder
    ignores it and returns the bit it read (decoding passes zero magnitudes
    and signs). The scan stops before the first decision made once
    `coder.overrun` is set. Returns per-sample (significant, sign, lower,
    width) state from which reconstructions are formed.
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
        threshold /= 2.0
    return significant, sign, lower, width


def _normal_interval_mean(a: float, b: float) -> float:
    """Conditional mean of |X| on [a, b) for X standard normal."""
    density_a = math.exp(-0.5 * a * a)
    density_b = math.exp(-0.5 * b * b)
    mass = math.sqrt(math.pi / 2.0) * (math.erf(b / math.sqrt(2.0)) - math.erf(a / math.sqrt(2.0)))
    if mass <= 0.0:
        return 0.5 * (a + b)
    return (density_a - density_b) / mass


@dataclass
class ProgressiveGaussianSource:
    """A seeded Gaussian block, its progressive bitstream, and decoders."""

    seed: int
    samples: np.ndarray
    bitstream: bytes
    max_rate_bits: int

    def decode_prefix(self, prefix_bits: int, data: bytes | None = None) -> np.ndarray:
        """Reconstruct the block from the first `prefix_bits` of the stream.

        `data` defaults to the source's own bitstream; pass recovered bytes
        to reconstruct from a transported prefix instead.
        """
        if prefix_bits < 0:
            raise ValueError("prefix_bits must be nonnegative")
        stream = self.bitstream if data is None else data
        n = len(self.samples)
        significant, sign, lower, width = _scan(
            _Decoder(stream, prefix_bits), [0.0] * n, bytes(n)
        )
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

    def empirical_mse(self, prefix_bits: int, data: bytes | None = None) -> float:
        """Mean squared error of the reconstruction from a stream prefix."""
        reconstruction = self.decode_prefix(prefix_bits, data=data)
        return float(np.mean((self.samples - reconstruction) ** 2))


def progressive_gaussian_source(seed: int, n: int, max_rate) -> ProgressiveGaussianSource:
    """Draw n unit-variance Gaussian samples and encode them progressively.

    `max_rate` is the stream budget in bits per sample; the returned
    bitstream has ceil(n * max_rate) bits in ceil(n * max_rate / 8) bytes
    (exact for a `Fraction`), and any prefix of it decodes to a
    reconstruction whose MSE shrinks as the prefix grows. A stream with a
    budget of B whole bytes is the first B bytes of any longer one.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    budget_bits = math.ceil(n * max_rate)
    if budget_bits < 1:
        raise ValueError("max_rate must be positive")
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(n)
    clipped = np.clip(samples, -(_TOP - 1e-9), _TOP - 1e-9)
    magnitudes = np.abs(clipped).tolist()
    signs = [0 if v >= 0 else 1 for v in clipped]
    encoder = _Encoder(budget_bits)
    _scan(encoder, magnitudes, signs)
    stream = encoder.finish()[: (budget_bits + 7) // 8]
    return ProgressiveGaussianSource(
        seed=seed, samples=samples, bitstream=stream, max_rate_bits=budget_bits
    )
