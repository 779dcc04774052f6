"""Seeded progressive Gaussian source: an embedded bit-plane coder.

Samples are i.i.d. unit-variance Gaussian. The coder scans magnitude
bit-planes from coarse to fine; per plane it first codes significance
(with an adaptive per-plane binary model and a raw sign bit on each new
significant sample) and then one refinement bit for every previously
significant sample. All decisions go through one binary arithmetic coder,
so every byte prefix of the stream is decodable: decoding simply stops
when the prefix is exhausted. One plane scan, `_scan`, drives both
directions: it hands each decision to the encoder, which writes the known
bit, or to the decoder, which reads it, and stops when the bit writer's
budget or the bit reader's prefix runs out. Reconstruction uses the
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


class _BitWriter:
    """Collects bits; flags overrun once `limit_bits` of them are written."""

    def __init__(self, limit_bits: int | None = None):
        self._buffer = bytearray()
        self._acc = 0
        self._filled = 0
        self._limit = limit_bits
        self.bit_count = 0
        self.overrun = limit_bits is not None and limit_bits <= 0

    def write(self, bit: int):
        self._acc = (self._acc << 1) | bit
        self._filled += 1
        self.bit_count += 1
        if self.bit_count == self._limit:
            self.overrun = True
        if self._filled == 8:
            self._buffer.append(self._acc)
            self._acc = 0
            self._filled = 0

    def getvalue(self) -> bytes:
        out = bytearray(self._buffer)
        if self._filled:
            out.append(self._acc << (8 - self._filled))
        return bytes(out)


class _BitReader:
    """Reads a bit prefix; past the limit it pads zeros and flags overrun."""

    def __init__(self, data: bytes, limit_bits: int | None = None):
        self._data = data
        self._position = 0
        available = len(data) * 8
        self._limit = available if limit_bits is None else min(limit_bits, available)
        self.overrun = False

    def read(self) -> int:
        if self._position >= self._limit:
            self.overrun = True
            return 0
        byte = self._data[self._position >> 3]
        bit = (byte >> (7 - (self._position & 7))) & 1
        self._position += 1
        return bit


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
    def __init__(self, writer: _BitWriter):
        self._writer = writer
        self._low = 0
        self._high = _MASK
        self._pending = 0

    def _emit(self, bit: int):
        self._writer.write(bit)
        opposite = 1 - bit
        while self._pending:
            self._writer.write(opposite)
            self._pending -= 1

    def encode(self, bit: int, model: _Model | None) -> int:
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

    def finish(self):
        self._pending += 1
        if self._low < _QUARTER:
            self._emit(0)
        else:
            self._emit(1)


class _Decoder:
    def __init__(self, reader: _BitReader):
        self._reader = reader
        self._low = 0
        self._high = _MASK
        self._value = 0
        for _ in range(32):
            self._value = (self._value << 1) | reader.read()

    def decode(self, _bit: int, model: _Model | None) -> int:
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
            self._value = ((self._value << 1) | self._reader.read()) & _MASK
        if model:
            model.update(bit)
        return bit


def _scan(code, stream, magnitudes, signs):
    """The plane scan shared by the encoder and the decoder.

    Every decision is `code(bit, model) -> bit`: the encoder writes the bit
    computed from `magnitudes`/`signs` and returns it, the decoder ignores
    it and returns the bit it read (decoding passes zero magnitudes and
    signs). The scan stops before the first decision made once
    `stream.overrun` is set. Returns per-sample (significant, sign, lower,
    width) state from which reconstructions are formed.
    """
    n = len(magnitudes)
    significant = bytearray(n)
    sign = bytearray(n)
    lower = [0.0] * n
    width = [0.0] * n
    threshold = _FIRST_THRESHOLD
    while not stream.overrun and threshold > 1e-12:
        significance_model = _Model()
        refinement_model = _Model()
        newly = bytearray(n)
        for i in range(n):
            if significant[i]:
                continue
            if stream.overrun:
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
            if stream.overrun:
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
        reader = _BitReader(stream, prefix_bits)
        significant, sign, lower, width = _scan(
            _Decoder(reader).decode, reader, [0.0] * n, bytes(n)
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
    writer = _BitWriter(budget_bits)
    encoder = _Encoder(writer)
    _scan(encoder.encode, writer, magnitudes, signs)
    encoder.finish()
    stream = writer.getvalue()[: (budget_bits + 7) // 8]
    return ProgressiveGaussianSource(
        seed=seed, samples=samples, bitstream=stream, max_rate_bits=budget_bits
    )
