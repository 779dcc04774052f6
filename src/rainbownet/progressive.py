"""Seeded progressive Gaussian source: an embedded bit-plane coder.

Samples are i.i.d. unit-variance Gaussian. The coder scans magnitude
bit-planes from coarse to fine; per plane it first codes significance
(with an adaptive per-plane binary model and a raw sign bit on each new
significant sample) and then one refinement bit for every previously
significant sample. All decisions go through one binary arithmetic coder,
so every byte prefix of the stream is decodable: decoding simply stops
when the prefix is exhausted. The encoder knows every decision up front:
`_plane_decisions` lists a plane's decisions in coding order with numpy,
and `_encode_scan` codes the lists in one loop, the encoder's only copy
of the arithmetic coder, until its bit budget runs out. The decoder
learns each decision only by reading it: `_decode_scan` is one scan with
the coder inlined, over index lists of the samples each pass visits,
until its prefix runs out. Reconstruction uses the conditional mean of
the standard normal on each sample's surviving uncertainty interval.

The encoder makes every decision the decoder will make, so for prefix
lengths marked in advance it also records where each such decoder stops:
the plane, and how far its two passes got. The decoder's state there
follows from the magnitudes, except for a sign read past the prefix,
which the encoder cannot know before the stream is final; it is read off
the final stream's bits in one step. `decode_prefix` reconstructs a
marked prefix of the source's own stream from its record and scans any
other input.

The stream is prefix-significant but not rate-distortion optimal; the
measured gap against 2**(-2R) is pinned in the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import length_hint

import numpy as np

_TOP = 8.0  # magnitudes are clipped just below this; P(|N(0,1)| >= 8) ~ 1e-15
_FIRST_THRESHOLD = 4.0
_MASK = (1 << 32) - 1
_HALF = 1 << 31
_QUARTER = 1 << 30
_THREE_QUARTERS = 3 << 30
_COUNT_CAP = 1024
# Largest block `progressive_gaussian_source` codes: 64 times the CLI's
# default n. The encoder keeps one plane's decisions and the coded bits in
# Python lists, so memory and time grow linearly with n: at this cap
# `pipeline fig1 --K 2 --rate 1` peaks near 110 MB and takes about 3 s on
# a 2-vCPU machine.
MAX_BLOCK_SYMBOLS = 1 << 20


def _clip(samples: np.ndarray) -> np.ndarray:
    """The values the coder codes: the samples clipped just inside +-_TOP."""
    return np.clip(samples, -(_TOP - 1e-9), _TOP - 1e-9)


def _scan_state(samples: np.ndarray, threshold: float, newly_below: int, refined_below: int, late):
    """The held samples' mask, lower ends, widths and signs at a record.

    The decoder stopped in the plane of `threshold`, its significance pass
    short of sample `newly_below` and its refinement pass short of sample
    `refined_below`. Samples of magnitude >= 2 * threshold were significant
    before this plane; those of magnitude >= threshold became so in it. A
    sample's width is the threshold of the last pass that coded it, and
    its lower end is its magnitude rounded down to a multiple of that width
    (every value is dyadic, so the rounding is exact). `late` is (sample,
    sign) for a sign the decoder read past its prefix, or None.
    """
    magnitude = _clip(samples)
    np.abs(magnitude, out=magnitude)
    earlier = magnitude >= 2.0 * threshold
    newly = (magnitude >= threshold) & ~earlier
    newly[newly_below:] = False
    coarse = earlier.copy()  # not refined in this plane yet
    coarse[:refined_below] = False
    held = earlier | newly
    width = np.where(coarse[held], 2.0 * threshold, threshold)
    lower = np.floor(magnitude[held] / width) * width
    negative = samples < 0
    if late is not None:
        negative[late[0]] = late[1]
    return held, lower, width, negative[held]


def _reach(reached: dict, waiting: list, shifts, record, unchecked) -> None:
    """Give `record` to each waiting mark whose decoder stops at `shifts`.

    `unchecked` is the last sign a mark's decoder may read past its prefix,
    as (sample, low, high, emitted bits, pending); it is kept with each mark
    whose decoder does, to be read once the stream is final.
    """
    while waiting and shifts >= waiting[-1] - 31:
        mark = waiting.pop()
        late = unchecked is not None and unchecked[3] + unchecked[4] >= mark - 31
        reached[mark] = (record, unchecked if late else None)


def _late_sign(stream: bytes, mark: int, low: int, high: int, emitted: int, pending: int) -> int:
    """The sign a decoder of the first `mark` bits of `stream` reads at an
    interval (low, high) the encoder left after `emitted` bits and `pending`
    deferred ones.

    Its register holds the first 32 + emitted + pending bits, zeros from
    `mark` on, less the encoder's offsets: the emitted bits, and
    2**31 * (2**pending - 1) from the deferred quarter shifts.
    """
    read = 32 + emitted + pending
    kept = min(read, mark)
    size = (kept + 7) // 8
    window = int.from_bytes(stream[:size].ljust(size, b"\0"), "big") >> (8 * size - kept)
    size = (emitted + 7) // 8
    out = int.from_bytes(stream[:size], "big") >> (8 * size - emitted)
    value = (window << (read - kept)) - (out << (32 + pending)) - (1 << (31 + pending)) + _HALF
    return int(value > low + ((high - low + 1) >> 1) - 1)


def _plane_decisions(magnitudes: np.ndarray, negative: np.ndarray, threshold: float):
    """The decisions of the plane of `threshold`, in coding order.

    Returns its significance pass and then its refinement pass, each as
    (refining, samples, decisions): an array of the sample each decision
    is about, and a list of the decisions. The significance pass visits
    the samples below 2 * threshold, in index order: each codes
    magnitude >= threshold (0 or 1), and each 1 is followed by its raw
    sign (2 positive, 3 negative). The refinement pass visits the others,
    in index order, and codes the threshold's bit of each magnitude; the
    threshold is a power of two, so the division is exact.
    """
    coarse = magnitudes < 2.0 * threshold
    visited = np.flatnonzero(coarse)
    significant = magnitudes[visited] >= threshold
    # a row per sample, its bit then its sign; the sign is kept after a 1
    rows = np.column_stack((significant, negative[visited].astype(np.int8) + 2))
    kept = np.column_stack((np.ones_like(significant), significant))
    refined = np.flatnonzero(~coarse)
    bit = (magnitudes[refined] / threshold).astype(np.int64) & 1
    return (
        (False, np.repeat(visited, 1 + significant), rows[kept].tolist()),
        (True, refined, bit.tolist()),
    )


def _encode_scan(magnitudes, signs, limit_bits: int, marks=()):
    """Encode the plane scan until `limit_bits` bits are out or the planes end.

    Returns the flushed stream, zero-padded to whole bytes (it may run past
    the limit by the bits of the last decision, its sign and the flush), and
    a dict that maps each of the prefix lengths `marks` the encoder reaches
    to a record (threshold, newly_below, refined_below, late) from which
    `_scan_state` builds the state `_decode_scan` returns for the first
    `mark` bits of the stream, zero-padded to hold them. That decoder stops
    before the first decision made once it has shifted 32 + shifts > mark
    bits into its register, where shifts = len(bits) + pending counts the
    encoder's renormalizations so far; a mark whose decoder would stop past
    the encoder's own stop is left out.
    """
    magnitudes = np.asarray(magnitudes, dtype=float)
    negative = np.asarray(signs, dtype=bool)
    n = len(magnitudes)
    bits: list[int] = []
    append = bits.append
    low, high, pending = 0, _MASK, 0
    threshold = _FIRST_THRESHOLD
    # Marks not reached yet, the next one last. One test before each
    # decision watches both the next mark and the limit; its slow branch
    # works out which of them it met.
    waiting = sorted(set(marks), reverse=True)
    watch = min(waiting[-1] - 31, limit_bits) if waiting else limit_bits
    reached: dict = {}
    unchecked = None
    while len(bits) < limit_bits and threshold > 1e-12:
        for refining, samples, decisions in _plane_decisions(magnitudes, negative, threshold):
            zero = one = 1
            left = iter(decisions)
            for decision in left:
                if len(bits) + pending >= watch:
                    shifts = len(bits) + pending
                    # the decision's sample, found from how many decisions
                    # the iterator has left, so the fast path counts none
                    i = int(samples[len(decisions) - length_hint(left) - 1])
                    if waiting and shifts >= waiting[-1] - 31:
                        if decision > 1:
                            # a sign, with no overrun check before it: the
                            # next mark's decoder reads it past its prefix,
                            # and stops before the decision after it
                            unchecked = (i, low, high, len(bits), pending)
                        else:
                            record = (threshold, n, i) if refining else (threshold, i, 0)
                            _reach(reached, waiting, shifts, record, unchecked)
                            watch = min(waiting[-1] - 31, limit_bits) if waiting else limit_bits
                    if decision < 2 and len(bits) >= limit_bits:
                        break
                if decision > 1:
                    # a raw sign: an even split, and no model to update
                    split = low + ((high - low + 1) >> 1) - 1
                    if decision == 3:
                        low = split + 1
                    else:
                        high = split
                else:
                    split = low + (high - low + 1) * zero // (zero + one) - 1
                    if decision:
                        low = split + 1
                        one += 1
                    else:
                        high = split
                        zero += 1
                    if zero + one > _COUNT_CAP:
                        zero = (zero + 1) >> 1
                        one = (one + 1) >> 1
                while True:
                    if high < _HALF:
                        append(0)
                        if pending:
                            bits += [1] * pending
                            pending = 0
                    elif low >= _HALF:
                        append(1)
                        if pending:
                            bits += [0] * pending
                            pending = 0
                        low -= _HALF
                        high -= _HALF
                    elif low >= _QUARTER and high < _THREE_QUARTERS:
                        pending += 1
                        low -= _QUARTER
                        high -= _QUARTER
                    else:
                        break
                    low <<= 1
                    high = high << 1 | 1
        threshold /= 2.0
    # Past the planes' end every decoder holds the end state; past the
    # limit, the decoders that stop before the next decision.
    shifts = len(bits) + pending if len(bits) >= limit_bits else math.inf
    if waiting and shifts >= waiting[-1] - 31:
        _reach(reached, waiting, shifts, (threshold, 0, 0), unchecked)
    # flush: one bit that selects a point inside the interval, plus pending
    append(0 if low < _QUARTER else 1)
    bits += [bits[-1] ^ 1] * (pending + 1)
    stream = np.packbits(np.array(bits, dtype=np.uint8)).tobytes()
    states = {}
    for mark, (record, late) in reached.items():
        if late is not None:
            i, *interval = late
            late = (i, _late_sign(stream, mark, *interval))
        states[mark] = (*record, late)
    return stream, states


def _decode_scan(data: bytes, limit_bits: int, n: int):
    """Decode the plane scan from the first `limit_bits` bits of `data`.

    Past that prefix the decoder reads zeros; the scan stops before the
    first significance or refinement decision made once it has read past
    the prefix. Returns per-sample (significant, sign, lower, width) state
    from which reconstructions are formed.
    """
    prefix = np.frombuffer(data[: (limit_bits + 7) // 8], dtype=np.uint8)
    bits = np.unpackbits(prefix)[:limit_bits].tolist()
    limit = len(bits)
    # One decision renormalizes at most 12 times (its interval keeps at
    # least 1/1024 of a span above 2**30), its sign at most 3, and the scan
    # stops after the decision that reads past the prefix: 32 zeros cover
    # every read past it, including the 32-bit start-up read.
    bits += [0] * 32
    value = 0
    for position in range(32):
        value = value << 1 | bits[position]
    position = 32
    low, high = 0, _MASK
    significant = bytearray(n)
    sign = bytearray(n)
    lower = [0.0] * n
    width = [0.0] * n
    insignificant = list(range(n))
    earlier: list[int] = []
    threshold = _FIRST_THRESHOLD
    while position <= limit and threshold > 1e-12:
        zero = one = 1
        newly: list[int] = []
        still: list[int] = []
        for i in insignificant:
            if position > limit:
                break
            split = low + (high - low + 1) * zero // (zero + one) - 1
            bit = value > split
            if bit:
                low = split + 1
                one += 1
            else:
                high = split
                zero += 1
            if zero + one > _COUNT_CAP:
                zero = (zero + 1) >> 1
                one = (one + 1) >> 1
            while True:
                if high < _HALF:
                    pass
                elif low >= _HALF:
                    low -= _HALF
                    high -= _HALF
                    value -= _HALF
                elif low >= _QUARTER and high < _THREE_QUARTERS:
                    low -= _QUARTER
                    high -= _QUARTER
                    value -= _QUARTER
                else:
                    break
                low <<= 1
                high = high << 1 | 1
                value = value << 1 | bits[position]
                position += 1
            if not bit:
                still.append(i)
                continue
            newly.append(i)
            # the sign: one raw decision, with no overrun check before it
            split = low + ((high - low + 1) >> 1) - 1
            if value > split:
                low = split + 1
                sign[i] = 1
            else:
                high = split
            significant[i] = 1
            lower[i] = threshold
            width[i] = threshold
            while True:
                if high < _HALF:
                    pass
                elif low >= _HALF:
                    low -= _HALF
                    high -= _HALF
                    value -= _HALF
                elif low >= _QUARTER and high < _THREE_QUARTERS:
                    low -= _QUARTER
                    high -= _QUARTER
                    value -= _QUARTER
                else:
                    break
                low <<= 1
                high = high << 1 | 1
                value = value << 1 | bits[position]
                position += 1
        zero = one = 1
        for i in earlier:
            if position > limit:
                break
            split = low + (high - low + 1) * zero // (zero + one) - 1
            if value > split:
                lower[i] += threshold
                low = split + 1
                one += 1
            else:
                high = split
                zero += 1
            width[i] = threshold
            if zero + one > _COUNT_CAP:
                zero = (zero + 1) >> 1
                one = (one + 1) >> 1
            while True:
                if high < _HALF:
                    pass
                elif low >= _HALF:
                    low -= _HALF
                    high -= _HALF
                    value -= _HALF
                elif low >= _QUARTER and high < _THREE_QUARTERS:
                    low -= _QUARTER
                    high -= _QUARTER
                    value -= _QUARTER
                else:
                    break
                low <<= 1
                high = high << 1 | 1
                value = value << 1 | bits[position]
                position += 1
        insignificant = still
        earlier = sorted(earlier + newly)
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
    """A seeded Gaussian block, its progressive bitstream, and decoders.

    `states` maps marked prefix lengths to the encoder's record of where
    their decoder stops, so decoding a marked prefix of the source's own
    stream runs no decoder scan.
    """

    seed: int
    samples: np.ndarray
    bitstream: bytes
    max_rate_bits: int
    states: dict = field(default_factory=dict, repr=False, compare=False)

    def decode_prefix(self, prefix_bits: int, data: bytes | None = None) -> np.ndarray:
        """Reconstruct the block from the first `prefix_bits` of the stream.

        `data` defaults to the source's own bitstream; pass recovered bytes
        to reconstruct from a transported prefix instead. The recorded state
        serves a marked prefix when `data` holds the stream's own bytes up
        to it; any other input is decoded.
        """
        if prefix_bits < 0:
            raise ValueError("prefix_bits must be nonnegative")
        n = len(self.samples)
        record = self.states.get(prefix_bits)
        size = (prefix_bits + 7) // 8
        if record is None or (data is not None and data[:size] != self.bitstream[:size]):
            stream = self.bitstream if data is None else data
            significant, sign, lower, width = _decode_scan(stream, prefix_bits, n)
            held = np.frombuffer(significant, dtype=np.uint8) == 1
            a = np.array(lower)[held]
            widths = np.array(width)[held]
            negative = np.frombuffer(sign, dtype=np.uint8)[held] == 1
        else:
            held, a, widths, negative = _scan_state(self.samples, *record)
        # (a, b) pairs as complex keys, so one sort finds the distinct ones
        keys = np.empty(len(a), dtype=np.complex128)
        keys.real = a
        keys.imag = np.minimum(a + widths, _TOP)
        pairs, inverse = np.unique(keys, return_inverse=True)
        means = np.array([_normal_interval_mean(p.real, p.imag) for p in pairs.tolist()])
        values = means[inverse]
        reconstruction = np.zeros(n, dtype=float)
        reconstruction[held] = np.where(negative, -values, values)
        return reconstruction

    def empirical_mse(self, prefix_bits: int, data: bytes | None = None) -> float:
        """Mean squared error of the reconstruction from a stream prefix."""
        reconstruction = self.decode_prefix(prefix_bits, data=data)
        return float(np.mean((self.samples - reconstruction) ** 2))


def _check_block_size(n: int) -> None:
    """Raise ValueError unless 1 <= n <= MAX_BLOCK_SYMBOLS."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_BLOCK_SYMBOLS:
        raise ValueError(f"n must be at most {MAX_BLOCK_SYMBOLS}, got {n}")


def progressive_gaussian_source(seed: int, n: int, max_rate, marks=()) -> ProgressiveGaussianSource:
    """Draw n unit-variance Gaussian samples and encode them progressively.

    `max_rate` is the stream budget in bits per sample; the returned
    bitstream has ceil(n * max_rate) bits in ceil(n * max_rate / 8) bytes
    (exact for a `Fraction`), and any prefix of it decodes to a
    reconstruction whose MSE shrinks as the prefix grows. A stream with a
    budget of B whole bytes is the first B bytes of any longer one. The
    encoder records the decoder state of each prefix length in `marks`
    that its stream holds.
    """
    _check_block_size(n)
    budget_bits = math.ceil(n * max_rate)
    if budget_bits < 1:
        raise ValueError("max_rate must be positive")
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(n)
    clipped = _clip(samples)
    stream, states = _encode_scan(np.abs(clipped), clipped < 0, budget_bits, marks)
    # Above about 41 bit/sample the planes end before the budget; the
    # decoder reads zeros past a stream's end, so padding changes no prefix.
    # Its scan stops at the end of the bytes it is given, so a state for a
    # prefix past the stream's end is dropped.
    size = (budget_bits + 7) // 8
    states = {mark: state for mark, state in states.items() if mark <= 8 * size}
    stream = stream[:size].ljust(size, b"\0")
    return ProgressiveGaussianSource(
        seed=seed, samples=samples, bitstream=stream, max_rate_bits=budget_bits, states=states
    )
