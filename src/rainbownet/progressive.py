"""Seeded progressive Gaussian source: an embedded bit-plane coder.

Samples are i.i.d. unit-variance Gaussian, clipped just inside +-8. The
coder scans magnitude bit-planes from coarse to fine, at thresholds
T = 4, 2, 1, ... while T > 1e-12. A plane has two passes, and a pass that
visits no sample codes nothing:

- Significance visits the samples below 2T, in index order. It opens
  with a 5-bit Rice parameter k and holds one codeword per sample that
  becomes significant (magnitude >= T): the run of insignificant samples
  before it in the Rice code of parameter k (Golomb 1966; Rice 1979), then
  its raw sign bit. A run that reaches the pass's end has no sign and
  ends the pass; it is coded only when insignificant samples follow the
  last significant one.
- Refinement visits the others, in index order, and codes the T bit of
  each magnitude. A flag bit of 0 is followed by the bits raw; a 1 by the
  value of the rarer bit, a 5-bit parameter, and the Rice-coded runs of
  the common bit before each rare one, with the tail run as above. The
  encoder picks the runs only where they are shorter.

A run r takes r >> k ones, a zero and the k low bits of r, and each pass
takes the k that codes it in the fewest bits. Codewords are prefix-free
and bit-aligned, so numpy builds a pass's bits without a per-decision
loop. The stream is the planes' bits until the budget is met, cut to
whole bytes, with zeros after a plane that ends inside the last byte. The
encoder builds a pass's codewords only up to the last kept byte (its runs
and parameter still come from the whole pass) and skips the passes after
it. It sorts the samples once, stably, by the plane in which each becomes
significant, so a plane's hits are one slice in index order. Both sides
hold the significant samples as one int32 list in index order and merge
each plane's hits into it with one stable sort of two runs: how many
listed samples precede a hit gives its offset among the visited samples,
or, in the decoder, the index of the p-th insignificant one.

The decoder applies every codeword that is complete in its bit prefix and
stops at the first that is not: an incomplete codeword is dropped, never
completed from padding. It parses a pass without a per-codeword loop
either. In a pass of parameter k, each codeword's unary part ends at a
zero followed by w = k (+1 for a sign) fixed bits, and a zero more than
w bits after the zero before it ends a unary part whichever codeword
came before. These anchors split the pass's zeros into independent
chains, which pointer doubling walks all at once; the runs, offsets and
signs follow by cumulative sums and gathers. Reconstruction uses the
conditional mean of the standard normal on each sample's surviving
uncertainty interval. Its width is a power of two, so one integer names
the interval; the decoder keeps only that integer per sample, and a table
indexed by it holds the distinct intervals' means (a sort finds them
where the integers range wider than they are many).

The stream is prefix-significant but not rate-distortion optimal; the
measured gap against 2**(-2R) is pinned in the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rationals import _whole_number

_TOP = 8.0  # magnitudes are clipped just below this; P(|N(0,1)| >= 8) ~ 1e-15
_FIRST_THRESHOLD = 4.0
_PARAMETER_BITS = 5  # a Rice parameter is 0..31
_LAST_PARAMETER = (1 << _PARAMETER_BITS) - 1
_PLANES = 42  # the thresholds 4, 2, ..., 2**-39 above 1e-12
# Largest block `progressive_gaussian_source` codes: 64 times the CLI's
# default n. Memory and time grow linearly with n: at this cap
# `pipeline fig1 --K 2 --rate 1` peaks near 83 MB and takes about 0.3 s on
# a 2-vCPU machine.
MAX_BLOCK_SYMBOLS = 1 << 20
# Largest stream budget `progressive_gaussian_source` pads to, in bits (128
# MiB): four times the 255 * 2**20 that a K=255, rate-1 pipeline at
# MAX_BLOCK_SYMBOLS can ask for.
MAX_STREAM_BITS = 1 << 30
# Zero bits the decoder keeps past a prefix, so a codeword's fields can be
# gathered before its end is checked against the prefix: more than a
# parameter's 31 bits and a sign.
_PAD_BITS = 64
# The widest window the decoder finds a pass's terminators in.
_WINDOW_BITS = 1 << 16


def _clip(samples: np.ndarray) -> np.ndarray:
    """The values the coder codes: the samples clipped just inside +-_TOP."""
    return np.clip(samples, -(_TOP - 1e-9), _TOP - 1e-9)


def _field(value: int, width: int) -> np.ndarray:
    """`value` as `width` bits, most significant first."""
    return ((value >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)


def _runs(at: np.ndarray, length: int) -> np.ndarray:
    """The run of misses before each hit of a pass over `length` samples,
    the hits at the ascending offsets `at`, then the tail run if it is not 0."""
    edges = np.concatenate(([-1], at, [length]))
    runs = edges[1:] - edges[:-1] - 1
    return runs if runs[-1] else runs[:-1]


def _rice_parameter(runs: np.ndarray) -> tuple[int, int]:
    """The smallest k that codes `runs` in the fewest bits, and that count.

    A run r takes (r >> k) + 1 + k bits. The total is convex in k, so a
    walk from about log2 of the mean run, down while the next k is no
    worse, or else up while it is better, ends at the smallest minimizer.
    """

    def cost(k: int) -> int:
        return int((runs >> k).sum()) + (1 + k) * len(runs)

    start = k = min(max(int(runs.sum()) // len(runs), 1).bit_length() - 1, _LAST_PARAMETER)
    cheapest = cost(k)
    while k > 0 and (below := cost(k - 1)) <= cheapest:
        k, cheapest = k - 1, below
    if k == start:
        while k < _LAST_PARAMETER and (above := cost(k + 1)) < cheapest:
            k, cheapest = k + 1, above
    return k, cheapest


def _rice_bits(runs: np.ndarray, k: int, room: int, signs: np.ndarray | None = None) -> np.ndarray:
    """The Rice codewords of `runs`, each hit's sign after its codeword, up
    to the first codeword that reaches `room` bits.

    `signs` holds one bit per hit; a run past them is the tail, unsigned.
    """
    # each codeword's bits after its unary part, and its end as if the
    # tail had a sign too
    width = 1 + k + (signs is not None)
    ends = np.cumsum((runs >> k) + width)
    count = min(int(np.searchsorted(ends, room)) + 1, len(runs))
    fields = runs[:count] & ((1 << k) - 1)
    if signs is not None:
        fields <<= 1
        fields[: len(signs)] |= signs[:count]
    # ones, and after each unary part a zero and the field; then the
    # tail's place for a sign is cut
    bits = np.ones(int(ends[count - 1]), dtype=np.uint8)
    at = ends[:count] - width + np.arange(width)[:, None]
    bits[at] = (fields >> np.arange(width - 1, -1, -1)[:, None] & 1).astype(np.uint8)
    return bits[:-1] if signs is not None and count > len(signs) else bits


def _merge(keys: np.ndarray, hits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """How many of the ascending `keys` precede each of the ascending
    `hits`, a key equal to a hit preceding it, and the permutation that
    sorts the keys and the hits concatenated. Numpy's stable sort merges
    the two runs in one pass."""
    order = np.argsort(np.concatenate((keys, hits)), kind="stable")
    return np.flatnonzero(order >= len(keys)) - np.arange(len(hits)), order


def _encode(magnitudes, negative, limit_bits: int) -> bytes:
    """The first ceil(limit_bits / 8) bytes of the stream of planes coded
    until `limit_bits` bits are out or the planes end, zero-padded to whole
    bytes: fewer only when the planes end first. Accepts array-likes.
    """
    magnitudes = np.asarray(magnitudes, dtype=float)
    negative = np.asarray(negative, dtype=bool)
    n = len(magnitudes)
    keep = 8 * ((limit_bits + 7) // 8)
    # the plane a sample becomes significant in: T = 2**(2 - plane) <=
    # magnitude < 2T, so frexp's exponent is 3 - plane; _PLANES for never
    planes = np.clip(3 - np.frexp(magnitudes)[1], 0, _PLANES).astype(np.int8)
    planes[magnitudes == 0] = _PLANES
    # sorted stably by that plane, each plane's hits are one slice, in
    # index order (n <= 2**20 fits int32)
    order = np.argsort(planes, kind="stable").astype(np.int32)
    bounds = np.searchsorted(planes[order], np.arange(_PLANES), "right").tolist()
    earlier = order[:0]  # the samples significant before the plane, in index order
    chunks = []
    length = 0
    threshold = _FIRST_THRESHOLD
    for plane in range(_PLANES):
        hits = order[bounds[plane - 1] if plane else 0 : bounds[plane]]
        # the significant samples before each hit: what sets its offset
        # among the samples the significance pass visits
        ranks, merge = _merge(earlier, hits)
        # the next plane's list, and the permutation freed before the passes
        later = np.concatenate((earlier, hits))[merge]
        del merge
        if len(earlier) < n:
            runs = _runs(hits - ranks, n - len(earlier))
            k, _ = _rice_parameter(runs)
            room = keep - length - _PARAMETER_BITS
            chunks += [_field(k, _PARAMETER_BITS), _rice_bits(runs, k, room, negative[hits])]
            length += _PARAMETER_BITS + len(chunks[-1])
        if len(earlier) and length < keep:
            # the T bit of each magnitude; the division by T is exact
            bits = ((magnitudes[earlier] / threshold).astype(np.int64) & 1).astype(np.uint8)
            rare = int(2 * int(bits.sum()) <= len(bits))
            runs = _runs(np.flatnonzero(bits == rare), len(bits))
            k, cost = _rice_parameter(runs)
            # the flag and the rarer bit, the parameter and the runs; or the
            # flag and the bits
            if 2 + _PARAMETER_BITS + cost < 1 + len(bits):
                chunks += [_field(2 | rare, 2), _field(k, _PARAMETER_BITS)]
                chunks.append(_rice_bits(runs, k, keep - length - 2 - _PARAMETER_BITS))
                length += 2 + _PARAMETER_BITS + len(chunks[-1])
            else:
                chunks += [_field(0, 1), bits[: keep - length - 1]]
                length += 1 + len(chunks[-1])
        if length >= limit_bits:
            break
        earlier = later
        threshold /= 2.0
    return np.packbits(np.concatenate(chunks))[: keep // 8].tobytes()


def _terminators(window: np.ndarray, width: int) -> np.ndarray:
    """The indices in `window` of the zeros that end a codeword's unary part.

    The codewords are chained from the window's start, and each has
    `width` bits after its zero. A zero more than `width` bits after the
    zero before it is such a terminator (an anchor): the chain from any
    terminator before it lands on it. So the anchors cut the zeros into
    independent segments, and pointer doubling from every anchor at once
    finds the terminators. In a segment of L zeros, a zero lies between
    any two terminators (the second is more than `width` bits past the
    first, and no gap in the segment is), so its chain holds at most
    ceil(L / 2) of them, and log2 of that many rounds reach them all.
    """
    is_zero = window == 0
    zeros = np.flatnonzero(is_zero)
    count = len(zeros)
    if not count:
        return zeros
    # jump[i]: how many zeros lie at most width bits past zero i, or
    # before, which is the index of the first zero further on; the index
    # count stands for "past the window"
    rank = np.cumsum(is_zero)
    jump = np.append(rank[np.minimum(zeros + width, len(window) - 1)], count)
    on = np.zeros(count + 1, dtype=bool)
    on[0] = on[count] = True
    np.greater(zeros[1:] - zeros[:-1], width, out=on[1:count])
    anchors = np.flatnonzero(on)
    longest = int((anchors[1:] - anchors[:-1]).max())
    # after round r, `on` holds every zero within 2**r jumps of an anchor
    for _ in range(((longest - 1) // 2).bit_length()):
        on[jump[np.flatnonzero(on)]] = True
        jump = jump[jump]
    return zeros[on[:count]]


def _read_runs(bits: np.ndarray, limit: int, position: int, k: int, length: int, signed: bool):
    """Read a pass's Rice codewords from the first `limit` of `bits`.

    Reads from `position` until the runs cover the pass's `length`
    samples or the next codeword is incomplete. Returns the offsets of
    the hits read, their signs (for a `signed` pass), how many samples the
    complete codewords decide and the position after them.

    The terminators are found in windows of the prefix, from an estimate
    of the pass's bits doubling up to `_WINDOW_BITS`, so the work and the
    memory stay near the pass's own bits. A window's chain starts at a
    codeword, so every terminator it finds is exact, and the next window
    starts at the codeword after the last one read; a window with no zero
    leaves that codeword open, and the next one searches on.
    """
    width = k + signed
    cap = (length >> k) + 1  # a quotient this large makes a run past the pass
    weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
    low = np.arange(1, k + 1)[:, None]  # a codeword's low bits after its zero
    hits, signs = [], []
    offset = 0
    scan = position
    # about one codeword per 2**k + 1 samples, of about k + 2 bits each
    span = min((length // ((1 << k) + 1) + 1) * (width + 2), _WINDOW_BITS)
    while True:
        end = min(scan + span, limit)
        terms = scan + _terminators(bits[scan:end], width)
        span = min(2 * span, _WINDOW_BITS)
        if not len(terms):
            if end == limit:
                break
            scan = end
            continue
        starts = terms + (1 + width)
        runs = np.minimum(terms - np.append(position, starts[:-1]), cap) << k
        runs |= weights @ bits[terms + low]
        # a run that reaches the pass's end ends it, so clipping it there
        # keeps the sums below from wrapping
        np.minimum(runs, length, out=runs)
        reach = np.cumsum(runs + 1) + (offset - 1)  # each codeword's hit
        ends = terms + (1 + k)
        # the first codeword that is not a hit: incomplete (a hit's sign
        # included), or reaching the pass's end
        stop = (ends > limit - signed) | (reach >= length)
        read = int(stop.argmax()) if stop.any() else len(terms)
        hits.append(reach[:read])
        if signed:
            signs.append(bits[ends[:read]])
        if read:
            offset = int(reach[read - 1]) + 1
            position = int(starts[read - 1])
        if read < len(terms):
            # a complete tail run (it has no sign) ends the pass; any other
            # codeword here is left unread, as the hit before it ended the
            # pass or as it is incomplete
            if offset < length and ends[read] <= limit and reach[read] >= length:
                offset, position = length, int(ends[read])
            break
        scan = position
        if offset == length or end == limit:
            break
    hits = np.concatenate(hits) if hits else np.zeros(0, dtype=np.intp)
    signs = np.concatenate(signs) if signs else np.zeros(0, dtype=np.uint8)
    return hits, signs.astype(bool), offset, position


def _read_field(bits: np.ndarray, position: int, width: int) -> int:
    """The `width` bits of `bits` from `position` as an unsigned integer."""
    value = 0
    for bit in bits[position : position + width].tolist():
        value = value << 1 | bit
    return value


def _decode(data: bytes, limit_bits: int, n: int):
    """Decode the codewords complete in the first `limit_bits` bits of `data`.

    Returns per-sample (interval, negative) arrays. `interval` is 0 until a
    sample is significant, then (lower + _TOP) / width of its interval
    [lower, lower + width): a hit in plane p opens [T, 2T) as 2**(p + 1) + 1,
    and a refinement bit b keeps a half, 2 * interval + b. So the width is
    2**(2 - p) for the last plane p that split the interval, and the
    integer has p + 2 bits.
    """
    limit = min(limit_bits, 8 * len(data))
    bits = np.zeros(limit + _PAD_BITS, dtype=np.uint8)
    prefix = np.frombuffer(data, dtype=np.uint8, count=(limit + 7) // 8)
    bits[:limit] = np.unpackbits(prefix)[:limit]
    interval = np.zeros(n, dtype=np.int64)
    negative = np.zeros(n, dtype=bool)
    earlier = np.zeros(0, dtype=np.int32)  # the significant samples, in index order
    position = 0
    for plane in range(_PLANES):
        visited = n - len(earlier)
        if visited:
            if position + _PARAMETER_BITS > limit:
                break
            k = _read_field(bits, position, _PARAMETER_BITS)
            hits, signs, decided, position = _read_runs(
                bits, limit, position + _PARAMETER_BITS, k, visited, True
            )
            # the p-th insignificant sample follows the significant ones
            # that at most p insignificant ones precede
            ranks, merge = _merge(earlier - np.arange(len(earlier), dtype=np.int32), hits)
            newly = hits + ranks
            interval[newly] = (1 << plane + 1) + 1
            negative[newly] = signs
            if decided < visited:
                break
        if len(earlier):
            if position == limit:
                break
            if bits[position]:
                if position + _PARAMETER_BITS + 2 > limit:
                    break
                rare = int(bits[position + 1])
                k = _read_field(bits, position + 2, _PARAMETER_BITS)
                hits, _, decided, position = _read_runs(
                    bits, limit, position + _PARAMETER_BITS + 2, k, len(earlier), False
                )
                refined = np.full(decided, 1 - rare, dtype=np.uint8)
                refined[hits] = rare
            else:
                decided = min(len(earlier), limit - position - 1)
                refined = bits[position + 1 : position + 1 + decided]
                position += 1 + decided
            split = earlier[:decided]
            interval[split] = 2 * interval[split] + refined
            if decided < len(earlier):
                break
        if visited:
            earlier = np.concatenate((earlier, newly), dtype=np.int32)[merge]
    return interval, negative


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
        try:
            whole = _whole_number(prefix_bits, "prefix_bits")
        except ValueError:
            raise ValueError(f"prefix_bits must be an integer, got {prefix_bits!r}") from None
        if whole < 0:
            raise ValueError("prefix_bits must be nonnegative")
        stream = self.bitstream if data is None else data
        interval, negative = _decode(stream, whole, len(self.samples))
        held = np.flatnonzero(interval)
        keys = interval[held]
        # the distinct keys and each key's place among them: by a count over
        # the keys' range, or by a sort where it is wider than they are many
        top = int(keys.max(initial=0))
        if top < len(keys):
            seen = np.bincount(keys) > 0
            distinct = np.flatnonzero(seen)
            keys = (np.cumsum(seen) - 1)[keys]
        else:
            distinct, keys = np.unique(keys, return_inverse=True)
        widths = np.ldexp(2 * _TOP, -np.frexp(distinct)[1])
        lows = distinct * widths - _TOP
        pairs = zip(lows.tolist(), widths.tolist())
        means = np.array([_normal_interval_mean(a, min(a + b, _TOP)) for a, b in pairs])
        # each mean, then its negation: the sign is the key's low bit
        keys <<= 1
        keys |= negative[held]
        reconstruction = np.zeros(len(interval))
        reconstruction[held] = np.column_stack((means, -means)).ravel()[keys]
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


def progressive_gaussian_source(seed: int, n: int, max_rate) -> ProgressiveGaussianSource:
    """Draw n unit-variance Gaussian samples and encode them progressively.

    `max_rate` is the stream budget in bits per sample; the returned
    bitstream has ceil(n * max_rate) bits in ceil(n * max_rate / 8) bytes
    (exact for a `Fraction`), and any prefix of it decodes to a
    reconstruction whose MSE shrinks as the prefix grows. A stream with a
    budget of B whole bytes is the first B bytes of any longer one. A
    budget above MAX_STREAM_BITS is refused.
    """
    _check_block_size(n)
    if not math.isfinite(max_rate):
        raise ValueError(f"max_rate must be finite, got {max_rate}")
    budget_bits = math.ceil(n * max_rate)
    if budget_bits < 1:
        raise ValueError("max_rate must be positive")
    if budget_bits > MAX_STREAM_BITS:
        raise ValueError(
            f"stream budget n * max_rate must be at most {MAX_STREAM_BITS} bits, got {budget_bits}"
        )
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(n)
    magnitudes = _clip(samples)
    negative = magnitudes < 0
    stream = _encode(np.abs(magnitudes, out=magnitudes), negative, budget_bits)
    # Above about 41 bit/sample the planes end before the budget; the
    # decoder stops at the planes' end, so padding changes no prefix.
    stream = stream.ljust((budget_bits + 7) // 8, b"\0")
    return ProgressiveGaussianSource(
        seed=seed, samples=samples, bitstream=stream, max_rate_bits=budget_bits
    )
