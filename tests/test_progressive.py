import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _cheapest_parameter,
    _Decoder,
    _Encoder,
    _Model,
    _scan,
    reference_reconstruction,
    reference_rice_decode,
    reference_rice_encode,
)
from rainbownet import PetProfile, pet_encode, progressive, progressive_gaussian_source
from rainbownet.progressive import (
    _PARAMETER_BITS,
    _PLANES,
    _TOP,
    MAX_BLOCK_SYMBOLS,
    MAX_STREAM_BITS,
    ProgressiveGaussianSource,
    _clip,
    _decode,
    _encode,
    _rice_parameter,
)


def _arithmetic_encode(bits, models, limit_bits=10**9) -> bytes:
    encoder = _Encoder(limit_bits)
    for bit, model in zip(bits, models):
        encoder.code(bit, model)
    return encoder.finish()


# TestBits and TestArithmeticCoder check the arithmetic coder in oracles.py,
# the rate-distortion reference the Rice-coded stream is measured against.
class TestBits:
    def test_writer_reader_round_trip(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 77).tolist()
        data = _arithmetic_encode(bits, [None] * len(bits))
        decoder = _Decoder(data, 8 * len(data))
        assert [decoder.code(0, None) for _ in bits] == bits

    def test_reader_limit_pads_zeros_and_flags(self):
        decoder = _Decoder(b"\xff\xff", 4)
        assert decoder._value == 0xF0000000
        assert decoder.overrun

    def test_encoder_flags_overrun_at_its_limit(self):
        encoder = _Encoder(8)
        written = 0
        while not encoder.overrun:
            encoder.code(1, None)
            written += 1
        # each raw decision emits one bit once the interval settles
        assert len(encoder._bits) == 8
        assert written == 8
        assert _Encoder(0).overrun


class TestArithmeticCoder:
    def test_round_trip_with_adaptive_and_raw_contexts(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            length = int(rng.integers(1, 1500))
            bits = rng.integers(0, 2, length).tolist()
            adaptive = rng.integers(0, 2, length).tolist()
            model = _Model()
            models = [model if use_model else None for use_model in adaptive]
            data = _arithmetic_encode(bits, models)
            decoder = _Decoder(data, 8 * len(data))
            model = _Model()
            decoded = [decoder.code(0, model if use_model else None) for use_model in adaptive]
            assert decoded == bits

    def test_skewed_source_compresses(self):
        rng = np.random.default_rng(4)
        bits = (rng.random(4000) < 0.03).astype(int).tolist()
        model = _Model()
        data = _arithmetic_encode(bits, [model] * len(bits))
        # ~0.19 bits of entropy per symbol; allow generous modeling overhead
        assert len(data) * 8 < 0.35 * len(bits)


class TestGaussianSource:
    def test_zero_prefix_reconstructs_zero(self):
        source = progressive_gaussian_source(5, 10_000, 1.0)
        mse = source.empirical_mse(0)
        # sample variance of n standard normals, 3 sigma band
        assert abs(mse - 1.0) < 3.0 * np.sqrt(2.0 / 10_000)
        assert np.all(source.decode_prefix(0) == 0.0)

    def test_mse_monotone_in_rate(self):
        source = progressive_gaussian_source(0, 8192, 8.0)
        values = [source.empirical_mse(int(rate * 8192)) for rate in (2, 4, 8)]
        assert values[0] > values[1] > values[2]

    def test_rate_two_gap_band(self):
        # measured envelope of this coder at 2 bits/sample: ratio 2.02-2.05
        # across seeds 0-3; the band below leaves margin while still proving
        # the stream is a working progressive code
        n = 100_000
        source = progressive_gaussian_source(0, n, 2.25)
        mse = source.empirical_mse(2 * n)
        ideal = 2.0 ** (-4)
        assert mse < 2.5 * ideal
        assert mse > ideal  # no coder beats the distortion-rate bound

    def test_stream_length_matches_budget(self):
        source = progressive_gaussian_source(1, 1000, 1.5)
        assert len(source.bitstream) == (1500 + 7) // 8

    def test_stream_length_matches_budget_past_the_last_plane(self):
        # the planes end near 41 bit/sample, before these budgets: the
        # stream is zero-padded to its documented length
        source = progressive_gaussian_source(0, 1000, 60)
        assert len(source.bitstream) == 7500
        shorter = progressive_gaussian_source(0, 1000, 45).bitstream
        assert len(shorter) == 5625
        assert source.bitstream[:5625] == shorter
        assert source.bitstream[5625:] == bytes(7500 - 5625)

    def test_fraction_budget_is_exact(self):
        # float(56/3000) * 3000 rounds up past 56, which cost a whole extra byte
        source = progressive_gaussian_source(0, 3000, Fraction(56, 3000))
        assert source.max_rate_bits == 56
        assert len(source.bitstream) == 7

    def test_deterministic_per_seed(self):
        a = progressive_gaussian_source(9, 2000, 2.0)
        b = progressive_gaussian_source(9, 2000, 2.0)
        assert a.bitstream == b.bitstream
        assert np.array_equal(a.samples, b.samples)
        c = progressive_gaussian_source(10, 2000, 2.0)
        assert c.bitstream != a.bitstream

    def test_decode_from_transported_bytes(self):
        source = progressive_gaussian_source(2, 4096, 2.0)
        prefix = source.bitstream[: len(source.bitstream) // 2]
        direct = source.decode_prefix(8 * len(prefix))
        transported = source.decode_prefix(8 * len(prefix), data=prefix)
        assert np.array_equal(direct, transported)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            progressive_gaussian_source(0, 0, 1.0)
        with pytest.raises(ValueError, match="at most"):
            progressive_gaussian_source(0, MAX_BLOCK_SYMBOLS + 1, 1.0)
        for rate in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="max_rate must be finite"):
                progressive_gaussian_source(0, 100, rate)
        source = progressive_gaussian_source(0, 100, 1.0)
        with pytest.raises(ValueError):
            source.decode_prefix(-1)

    def test_refuses_a_budget_over_the_stream_cap_before_encoding(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the encoder ran")

        monkeypatch.setattr(progressive, "_encode", refuse)
        assert MAX_STREAM_BITS == 1 << 30
        over = [(16384, 4_000_000), (1, Fraction(MAX_STREAM_BITS + 1)), (3, 2.0**30 / 3 + 1)]
        for n, rate in over:
            with pytest.raises(ValueError, match=f"at most {MAX_STREAM_BITS} bits"):
                progressive_gaussian_source(0, n, rate)


# sha256 of the bitstream and of the concatenated reconstructions over
# `_pinned_prefixes`. The grid covers n=1, budgets shorter than a plane's
# first pass, prefixes that end inside a header or a codeword, the full
# stream and a prefix past its end. The ids leave the digests out, so a
# format change re-pins a case without renaming it.
PINNED_STREAMS = [
    (0, 1, 0.5, "e52d9c508c502347344d8c07ad91cbd6068afc75ff6292f062a09ca381c89e71",
     "5b6fb58e61fa475939767d68a446f97f1bff02c0e5935a3ea8bb51e6515783d8"),
    (1, 7, 3, "03ce04c2fad5dc038e24ee77439545c712c37b7d095eecc085d886e0f0020ae9",
     "f9d54bbe3ccaf08564c2928c55218a3f696989a05dffc8edf057773751aae153"),
    (2, 100, 1, "071a97a955461efc8f1c653cee143c840c21e4e3cbe79acae8407c38d26a8f24",
     "d8f91da8cf2794571060f20e720b1b9247b24292a07398e8587a5654ce68d006"),
    (3, 1000, 2.25, "f992e1b7a3d9d902119183b5d215e7abb8cad1a41cc62e05ee05168a23067e12",
     "8394fd35c09e40f0135683a92db06244c42f205fb77df91fe5b04497cae46973"),
    (4, 4096, 2, "6cb0f34df93849e436400cc9dfefb6faec55f43a88b4a915c0f971b5058d3ba5",
     "38c577f1c5197d114c433258dc83ca41a196704246305de2e8b3840aa5ac6882"),
    (5, 3000, 6, "0af49b03b2346a952e46125010cda3f6dea483860c196341ebac3d7fe53101ba",
     "f2b2f9cf7a053a395e09c757e7f2d7bcb723e16372f077d6ed382fc815366fe5"),
]


def _pinned_prefixes(length: int) -> list[int]:
    return sorted(
        {0, 1, 5, 31, 32, 33, length // 3, length // 2 + 3, length - 1, length, length + 100}
    )


@pytest.mark.parametrize(
    "seed,n,rate,stream_sha,decode_sha",
    PINNED_STREAMS,
    ids=[f"{seed}-{n}-{rate}" for seed, n, rate, *_ in PINNED_STREAMS],
)
def test_pinned_stream_bytes(seed, n, rate, stream_sha, decode_sha):
    source = progressive_gaussian_source(seed, n, rate)
    assert hashlib.sha256(source.bitstream).hexdigest() == stream_sha
    digest = hashlib.sha256()
    for prefix in _pinned_prefixes(8 * len(source.bitstream)):
        digest.update(source.decode_prefix(prefix).tobytes())
    assert digest.hexdigest() == decode_sha


@pytest.mark.parametrize("n", [1000, 3000, 16384])
@pytest.mark.parametrize("seed", range(4))
def test_byte_budget_stream_is_a_prefix_of_the_full_stream(seed, n):
    full = progressive_gaussian_source(seed, n, 2).bitstream
    length = len(full)
    for budget in sorted({1, 3, 37, length // 2, length // 2 | 1, length - 1}):
        short = progressive_gaussian_source(seed, n, Fraction(8 * budget, n)).bitstream
        assert short == full[:budget], budget
    # a mixed K=4 profile whose descriptions fill a quarter of the full stream
    # each: PET reads the same bytes from the exact-budget stream
    K = 4
    profile = PetProfile.quantize(
        [0.4, 0.3, 0.2, 0.1], Fraction(8 * (length // K), n), K, n
    )
    exact = progressive_gaussian_source(seed, n, Fraction(profile.prefix_bits(K), n))
    assert len(exact.bitstream) == profile.source_bytes_required < length
    assert pet_encode(exact.bitstream, profile) == pet_encode(full, profile)


def _coded(samples):
    """The magnitudes and sign bits the coder codes, as lists."""
    clipped = _clip(samples)
    return np.abs(clipped).tolist(), (clipped < 0).astype(int).tolist()


def _lower_and_width(interval: np.ndarray):
    """The float (lower, width) each interval integer names, 0 and 0 where
    it is 0: the width is 2 * _TOP / 2**(its bit length) and the lower end
    interval * width - _TOP, both exact for integers of up to 43 bits."""
    width = np.where(interval > 0, np.ldexp(2 * _TOP, -np.frexp(interval)[1]), 0.0)
    lower = np.where(interval > 0, interval * width - _TOP, 0.0)
    return lower, width


def _state(data: bytes, prefix_bits: int, n: int):
    """The numpy decoder's state in the loop reference's types:
    (significant, sign, lower, width)."""
    interval, negative = _decode(data, prefix_bits, n)
    lower, width = _lower_and_width(interval)
    return bytearray(interval > 0), bytearray(negative), lower.tolist(), width.tolist()


# (n, budget bits): n=1, budgets shorter than a plane's first pass, and
# budgets that are not whole bytes
DIFFERENTIAL_SHAPES = [(1, 3), (1, 40), (7, 21), (50, 333), (300, 1201), (1000, 4000), (2000, 13001)]


def test_inlined_scans_match_the_reference_coder():
    # the numpy encoder and decoder against the per-codeword loops
    for seed in range(4):
        for n, budget in DIFFERENTIAL_SHAPES:
            source = progressive_gaussian_source(seed, n, Fraction(budget, n))
            magnitudes, signs = _coded(source.samples)
            stream = _encode(magnitudes, signs, budget)
            # the reference codes whole planes; the encoder stops at the budget's last byte
            whole = reference_rice_encode(magnitudes, signs, budget)
            assert stream == whole[: (budget + 7) // 8], (seed, n, budget)
            assert source.bitstream == stream[: len(source.bitstream)]
            # the decoder reads the whole planes, past the budget
            full = 8 * len(whole)
            # full // 3 | 1: an odd length that ends inside a codeword
            for prefix in sorted({0, 1, 5, 31, 32, 33, full // 3 | 1, full - 1, full, full + 100}):
                expected = reference_rice_decode(whole, prefix, n)
                assert _state(whole, prefix, n) == expected, (seed, n, budget, prefix)
                reconstruction = source.decode_prefix(prefix, data=whole)
                assert reconstruction.tobytes() == reference_reconstruction(*expected).tobytes()


def _record_rice_bits(monkeypatch):
    """Log, per `_rice_bits` call, the bits built and the longest codeword
    the call could have built."""
    built = []
    rice_bits = progressive._rice_bits

    def recording_rice_bits(runs, k, room, signs=None):
        bits = rice_bits(runs, k, room, signs)
        built.append((len(bits), (int(runs.max()) >> k) + 1 + k + (signs is not None)))
        return bits

    monkeypatch.setattr(progressive, "_rice_bits", recording_rice_bits)
    return built


@pytest.mark.parametrize("seed", range(3))
def test_encoder_stops_at_the_last_kept_byte(monkeypatch, seed):
    # budgets inside a significance pass, inside a refinement pass, at a
    # plane's end and a bit either side, and past the last plane; few are
    # whole bytes
    n = 300
    magnitudes, signs = _coded(np.random.default_rng(seed).standard_normal(n))
    plane_ends, significance_ends = [], []
    reference_rice_encode(magnitudes, signs, 64 * n, plane_ends, significance_ends)
    budgets = {plane_ends[-1] + 1, plane_ends[-1] + 100}
    for start, middle, end in zip(plane_ends, significance_ends[1:8], plane_ends[1:8]):
        budgets |= {(start + middle) // 2, (middle + end) // 2, end - 1, end, end + 1}
    built = _record_rice_bits(monkeypatch)
    padded = 0
    for budget in sorted(budgets):
        keep = (budget + 7) // 8
        built.clear()
        stream = _encode(magnitudes, signs, budget)
        # the reference's whole planes, zero-padded where a plane ends
        # inside the last byte
        assert stream == reference_rice_encode(magnitudes, signs, budget)[:keep], budget
        padded += budget in plane_ends and budget % 8 != 0
        # only the codeword that reaches the last kept byte, and the
        # header of its pass, may lie past it
        assert sum(bits for bits, _ in built) <= 8 * keep + built[-1][1] + 2 + _PARAMETER_BITS
    assert padded


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(0, 20).flatmap(lambda e: st.lists(st.integers(0, 2**e), min_size=1, max_size=40))
    | st.integers(0, 2**20).map(lambda run: [run])
    | st.integers(1, 40).map(lambda count: [0] * count)
)
def test_parameter_walk_finds_the_cheapest_parameter(runs):
    # random runs at every scale, single tail runs and all-zero runs,
    # against every 5-bit parameter
    k, bits = _rice_parameter(np.array(runs, dtype=np.int64))
    assert (bits, k) == _cheapest_parameter(runs)


def _assert_reconstructions_match_the_reference(stream: bytes, n: int, prefixes):
    source = ProgressiveGaussianSource(0, np.zeros(n), stream, 8 * len(stream))
    for prefix in prefixes:
        expected = reference_reconstruction(*reference_rice_decode(stream, prefix, n))
        assert source.decode_prefix(prefix).tobytes() == expected.tobytes(), prefix


def test_gaussian_reconstructions_match_the_reference(monkeypatch):
    # at each plane end, and inside each plane, from 0.25 to 45 bit/sample:
    # keys that a count finds and keys so sparse that a sort does, and
    # widths down to the last plane's 2**-39
    sorts = []
    unique = np.unique

    def recording_unique(*args, **kwargs):
        sorts.append(len(args[0]))
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", recording_unique)
    n = 400
    magnitudes, signs = _coded(np.random.default_rng(11).standard_normal(n))
    decodes = 0
    for rate in (0.25, 1, 2.5, 8, 45):
        plane_ends = []
        stream = reference_rice_encode(magnitudes, signs, int(rate * n), plane_ends)
        marks = {0, 8 * len(stream)} | set(plane_ends)
        marks |= {(start + end) // 2 for start, end in zip(plane_ends, plane_ends[1:])}
        _assert_reconstructions_match_the_reference(stream, n, sorted(marks))
        decodes += len(marks)
    assert 0 < len(sorts) < decodes
    _, width = _lower_and_width(_decode(stream, 8 * len(stream), n)[0])
    assert width[width > 0].min() == 2.0**-39


@pytest.mark.parametrize("seed", range(3))
def test_interval_integer_has_p_plus_2_bits_for_the_last_plane_p_that_touched_it(seed):
    n = 300
    magnitudes, signs = _coded(np.random.default_rng(seed).standard_normal(n))
    plane_ends = []
    stream = reference_rice_encode(magnitudes, signs, 45 * n, plane_ends)
    assert len(plane_ends) == _PLANES
    magnitudes = np.array(magnitudes)
    # at plane p's end every significant sample was hit or refined in p:
    # its interval is the multiple of T = 2**(2 - p) below its magnitude,
    # so the integer is floor(magnitude / T) + _TOP / T
    for plane, end in enumerate(plane_ends):
        interval, _ = _decode(stream, end, n)
        below = np.floor(np.ldexp(magnitudes, plane - 2)).astype(np.int64)
        assert np.array_equal(interval, np.where(below > 0, below + (1 << plane + 1), 0)), plane
        assert {value.bit_length() for value in interval[interval > 0].tolist()} <= {plane + 2}
    # inside a plane, the reference's width 2**(2 - p) names the last plane
    # p that touched each sample
    for start, end in zip(plane_ends, plane_ends[1:]):
        middle = (start + end) // 2
        interval, _ = _decode(stream, middle, n)
        significant, _, _, width = reference_rice_decode(stream, middle, n)
        lengths = [value.bit_length() for value in interval.tolist()]
        expected = [4 - int(math.log2(w)) if w else 0 for w in width]
        assert lengths == expected, middle
        assert bytearray(interval > 0) == significant


def _assert_every_prefix_matches_the_reference(stream: bytes, n: int):
    # up to a byte past the stream's end, which only repeats its state
    for prefix in range(8 * len(stream) + 9):
        state = _state(stream, prefix, n)
        assert state == reference_rice_decode(stream, prefix, n), prefix
        # the bits past the prefix, stream bits or ones, are never read
        kept = min(prefix, 8 * len(stream))
        filled = np.ones(8 * len(stream) + 8, dtype=np.uint8)
        filled[:kept] = np.unpackbits(np.frombuffer(stream, dtype=np.uint8))[:kept]
        assert _state(np.packbits(filled).tobytes(), kept, n) == state


@pytest.mark.parametrize("n", [1, 7, 50])
def test_every_bit_prefix_decodes_exactly_its_complete_codewords(n):
    # Gaussian blocks at a rate that reaches the refinement passes (n=1
    # past the last plane), and magnitudes in [4, 6), whose refinement pass
    # at T=2 is all zeros, so n=50 codes it as runs
    rng = np.random.default_rng(n)
    blocks = [np.random.default_rng(seed).standard_normal(n) for seed in range(3)]
    blocks.append(rng.uniform(4, 6, n) * rng.choice([-1, 1], n))
    for block in blocks:
        stream = _encode(*_coded(block), 45 * n if n == 1 else 6 * n)
        _assert_every_prefix_matches_the_reference(stream, n)


# Streams written bit by bit, each a list of fields: a pass's 5-bit
# parameter, then its codewords (unary ones, the terminating zero, the k
# low bits, and a hit's sign). Every bit prefix of each is checked, so
# the cuts fall inside every header, codeword and refinement flag. Each
# case gives n and the state after the whole stream: significant samples
# as {index: (sign, lower)}.
HAND_BUILT_STREAMS = {
    # k=0 and signed: a hit at run 0 with sign 0 is "00", so six hits are
    # a run of zeros where every other zero ends a unary part
    "k0-alternating-terminators": (6, [
        "00000", "00", "00", "00", "01", "00", "00",  # T=4, no tail run
        "0", "101100",  # T=2 refinement, raw
        "0", "011010",  # T=1 refinement, raw
    ], {0: (0, 6), 1: (0, 5), 2: (0, 7), 3: (1, 6), 4: (0, 5), 5: (0, 4)}),
    # k=31: runs of 0 and 2, then a tail run whose 40 unary ones put it
    # near 40 * 2**31 samples, far past the pass
    "k31": (5, [
        "11111", "0" + "0" * 31 + "1", "0" + format(2, "031b") + "0", "1" * 40 + "0" + "1" * 31,
        "00000", "01", "110",  # T=2 over samples 1, 2, 4: a hit, then the tail run 2
        "0", "10",  # T=2 refinement of samples 0 and 3, raw
    ], {0: (1, 6), 1: (1, 2), 3: (0, 4)}),
    # passes that end on a hit: significance at T=4 (k=1, runs 1 and 0)
    # and T=2, and a run-coded refinement (flag 1, rarer bit 1, k=0) whose
    # one run reaches its last sample
    "ends-on-a-hit": (3, [
        "00001", "010", "001",  # T=4
        "00000", "01",  # T=2 over sample 0
        "1", "1", "00000", "10",  # T=2 refinement of samples 1 and 2
        "0", "111",  # T=1 refinement, raw
    ], {0: (1, 3), 1: (0, 5), 2: (1, 7)}),
    # the tail codeword of a signed pass ends at bit 9: the 9-bit prefix
    # holds it whole, though a hit's codeword there would lack its sign
    "complete-tail-at-the-cut": (2, [
        "00000", "00", "10",  # T=4: a hit, then the tail run 1
        "00000", "01",  # T=2 over sample 1
        "0", "1",  # T=2 refinement of sample 0, raw
    ], {0: (0, 6), 1: (1, 2)}),
}


def _pack(fields) -> bytes:
    bits = [int(bit) for bit in "".join(fields)]
    return np.packbits(np.array(bits, dtype=np.uint8)).tobytes()


@pytest.mark.parametrize("name", HAND_BUILT_STREAMS)
def test_hand_built_streams_decode_like_the_reference_at_every_prefix(name):
    n, fields, significant = HAND_BUILT_STREAMS[name]
    stream = _pack(fields)
    _assert_every_prefix_matches_the_reference(stream, n)
    state = _state(stream, 8 * len(stream), n)
    assert {i: (state[1][i], state[2][i]) for i in range(n) if state[0][i]} == significant


@pytest.mark.parametrize("window_bits", [1, 6, 40])
def test_narrow_windows_parse_like_wide_ones(monkeypatch, window_bits):
    # a pass continues from window to window at the codeword after the
    # last one read, and across windows with no zero at all
    monkeypatch.setattr(progressive, "_WINDOW_BITS", window_bits)
    for n, fields, _ in HAND_BUILT_STREAMS.values():
        _assert_every_prefix_matches_the_reference(_pack(fields), n)
    block = np.random.default_rng(window_bits).standard_normal(20)
    _assert_every_prefix_matches_the_reference(_encode(*_coded(block), 120), 20)


def test_decode_prefix_reads_huge_prefixes_and_rejects_fractional_ones():
    source = progressive_gaussian_source(4, 300, 3)
    whole = source.decode_prefix(8 * len(source.bitstream))
    assert np.array_equal(source.decode_prefix(2**70), whole)
    assert np.array_equal(source.decode_prefix(np.int64(8 * len(source.bitstream))), whole)
    for bad in (10.5, Fraction(21, 2), float("nan"), float("inf"), "8", True):
        with pytest.raises(ValueError, match="integer"):
            source.decode_prefix(bad)


# Magnitudes on a dyadic grid: the plane thresholds 4, 2, ..., 2**-39
# exactly, the clip edge, and multiples of 2**-e for e up to two planes
# past the last, so a magnitude can land on any threshold or between the
# last planes. Gaussian samples never land on a threshold.
DYADIC_MAGNITUDES = (
    st.sampled_from([0.0, 8 - 1e-9] + [2.0**-e for e in range(-2, 40)])
    | st.integers(0, 41).flatmap(lambda e: st.integers(0, 2 ** (e + 3) - 1).map(lambda k: k / 2**e))
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(DYADIC_MAGNITUDES, st.booleans()), min_size=1, max_size=8),
    st.integers(1, 40) | st.integers(1, 1500),
)
def test_dyadic_magnitudes_match_the_reference_coder_at_every_mark(values, budget):
    magnitudes = [magnitude for magnitude, _ in values]
    signs = [int(negative) for _, negative in values]
    n = len(values)
    whole = reference_rice_encode(magnitudes, signs, budget)
    assert _encode(magnitudes, signs, budget) == whole[: (budget + 7) // 8]
    # every bit prefix of the reference's whole planes, and one past their end
    for prefix in range(8 * len(whole) + 2):
        assert _state(whole, prefix, n) == reference_rice_decode(whole, prefix, n), prefix


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(DYADIC_MAGNITUDES, st.booleans()), min_size=1, max_size=8),
    st.integers(1, 40) | st.integers(1, 1500),
)
def test_dyadic_reconstructions_match_the_reference_at_every_mark(values, budget):
    # few samples whose keys range wide: the sort finds their intervals,
    # down to widths of 2**-39
    magnitudes = [magnitude for magnitude, _ in values]
    signs = [int(negative) for _, negative in values]
    stream = reference_rice_encode(magnitudes, signs, budget)
    _assert_reconstructions_match_the_reference(stream, len(values), range(8 * len(stream) + 2))


@pytest.mark.parametrize("seed", range(2))
def test_bits_to_each_plane_end_within_one_percent_of_the_arithmetic_coder(seed):
    # Rice codes with one parameter per pass against the adaptive binary
    # model, at every plane end from 0.25 to 8 bit/sample. The first plane
    # ends near 0.004 bit/sample, where its 5-bit header is most of the
    # few bits it takes, so it is left out.
    n = 4096
    magnitudes, signs = _coded(np.random.default_rng(seed).standard_normal(n))
    rice_ends, arithmetic_ends = [], []
    reference_rice_encode(magnitudes, signs, 8 * n, rice_ends)
    _scan(_Encoder(10**12), magnitudes, signs, arithmetic_ends)
    checked = 0
    for rice, arithmetic in zip(rice_ends, arithmetic_ends):
        if 0.25 * n <= arithmetic <= 8 * n:
            assert rice <= 1.01 * arithmetic, (rice / n, arithmetic / n)
            checked += 1
    assert checked >= 7
