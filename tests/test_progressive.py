import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _Decoder, _Encoder, _Model, _scan, reference_reconstruction
from rainbownet import PetProfile, pet_encode, progressive, progressive_gaussian_source
from rainbownet.progressive import MAX_BLOCK_SYMBOLS, _decode_scan, _encode_scan


def _encode(bits, models, limit_bits=10**9) -> bytes:
    encoder = _Encoder(limit_bits)
    for bit, model in zip(bits, models):
        encoder.code(bit, model)
    return encoder.finish()


# TestBits and TestArithmeticCoder check the reference coder in oracles.py,
# which the inlined scans are differentially tested against below.
class TestBits:
    def test_writer_reader_round_trip(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 77).tolist()
        data = _encode(bits, [None] * len(bits))
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
            data = _encode(bits, [model if use_model else None for use_model in adaptive])
            decoder = _Decoder(data, 8 * len(data))
            model = _Model()
            decoded = [decoder.code(0, model if use_model else None) for use_model in adaptive]
            assert decoded == bits

    def test_skewed_source_compresses(self):
        rng = np.random.default_rng(4)
        bits = (rng.random(4000) < 0.03).astype(int).tolist()
        model = _Model()
        data = _encode(bits, [model] * len(bits))
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
        # measured envelope of this coder at 2 bits/sample: ratio 2.00-2.03
        # across seeds; the band below leaves margin while still proving the
        # stream is a working progressive code
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
        source = progressive_gaussian_source(0, 100, 1.0)
        with pytest.raises(ValueError):
            source.decode_prefix(-1)


# sha256 of the bitstream and of the concatenated reconstructions over
# `_pinned_prefixes`. The grid covers n=1, budgets under the decoder's
# 32-bit start-up read (the decoder overruns while initialising), prefixes
# around 32 bits, an odd prefix that ends inside a decision, the full
# stream and a prefix past its end.
PINNED_STREAMS = [
    (0, 1, 0.5, "36a9e7f1c95b82ffb99743e0c5c4ce95d83c9a430aac59f84ef3cbfab6145068",
     "5b6fb58e61fa475939767d68a446f97f1bff02c0e5935a3ea8bb51e6515783d8"),
    (1, 7, 3, "df2611ac1d954e549a7e15f14e3b7be07f715e85b90df5918446087532177527",
     "f9d54bbe3ccaf08564c2928c55218a3f696989a05dffc8edf057773751aae153"),
    (2, 100, 1, "2fd9168bdebd4de3427ba9d6eb26543b335074a57926829d4795de8bfe7d9a53",
     "c5f0bb09b379de5c5f6f9b45f03d71d7096228074faf643d6106273b86ae9065"),
    (3, 1000, 2.25, "0e2966330c51c6549ba29582de8778389c7415f79bb34e0550c6532f2e4b58df",
     "9776175fac9ed25da260a3501916513b522ce2b90cddde14f1da766689eafd49"),
    (4, 4096, 2, "d3ed8d124cf29f0d71c1286212ebb7fafed7699dd2d7ebb6c473cffcf59dbbe4",
     "1ba85b3dff98111af979abf46bf004c4ded385e787198bc7ef6810a619880189"),
    (5, 3000, 6, "3d44d2262014c74de9f7c8dc4979db2846e51baf31fa5db77338d5fb69f4bb4c",
     "bf3dfc650680e4e7e29827e65c18af8ffdc210141d8454e9d02379ee1ef14613"),
]


def _pinned_prefixes(length: int) -> list[int]:
    return sorted(
        {0, 1, 5, 31, 32, 33, length // 3, length // 2 + 3, length - 1, length, length + 100}
    )


@pytest.mark.parametrize("seed,n,rate,stream_sha,decode_sha", PINNED_STREAMS)
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


class _SignLookaheadCounter(_Decoder):
    """The reference decoder, counting sign decisions made after an overrun.

    The scan checks for overrun before every significance and refinement
    decision but not before the sign that follows a significance decision
    of 1, so such a sign is read with zeros past the prefix in its register.
    """

    def __init__(self, data: bytes, limit_bits: int):
        super().__init__(data, limit_bits)
        self.lookahead_signs = 0

    def code(self, bit: int, model):
        if model is None and self.overrun:
            self.lookahead_signs += 1
        return super().code(bit, model)


# (n, budget bits): n=1, budgets under the 32-bit start-up read, and
# budgets that are not whole bytes
DIFFERENTIAL_SHAPES = [(1, 3), (1, 40), (7, 21), (50, 333), (300, 1201), (1000, 4000), (2000, 13001)]


def test_inlined_scans_match_the_reference_coder():
    lookahead_signs = 0
    for seed in range(4):
        for n, budget in DIFFERENTIAL_SHAPES:
            source = progressive_gaussian_source(seed, n, Fraction(budget, n))
            clipped = np.clip(source.samples, -(8 - 1e-9), 8 - 1e-9)
            magnitudes = np.abs(clipped).tolist()
            signs = (clipped < 0).astype(int).tolist()
            encoder = _Encoder(budget)
            _scan(encoder, magnitudes, signs)
            stream, states = _encode_scan(magnitudes, signs, budget)
            assert stream == encoder.finish(), (seed, n, budget)
            assert states == {}
            full = 8 * len(stream)
            # full // 3 | 1: an odd length that ends inside a decision
            for prefix in sorted({0, 1, 5, 31, 32, 33, full // 3 | 1, full - 1, full, full + 100}):
                decoder = _SignLookaheadCounter(stream, prefix)
                expected = _scan(decoder, [0.0] * n, bytes(n))
                assert _decode_scan(stream, prefix, n) == expected, (seed, n, budget, prefix)
                reconstruction = source.decode_prefix(prefix, data=stream)
                assert reconstruction.tobytes() == reference_reconstruction(*expected).tobytes()
                lookahead_signs += decoder.lookahead_signs
    # the grid must reach the unchecked sign decision, not only agree
    assert lookahead_signs > 0


def _expanded(held, lower, width, negative):
    """A record's held-sample arrays as the decoder's per-sample state."""
    significant = held.astype(np.uint8)
    sign = np.zeros(len(held), dtype=np.uint8)
    sign[held] = negative
    full_lower = np.zeros(len(held))
    full_lower[held] = lower
    full_width = np.zeros(len(held))
    full_width[held] = width
    return significant.tobytes(), sign.tobytes(), full_lower.tolist(), full_width.tolist()


def test_encoder_states_match_the_decoder_at_every_mark(monkeypatch):
    late_signs = []
    late_sign = progressive._late_sign

    def counting_late_sign(*args):
        late_signs.append(args[1])
        return late_sign(*args)

    monkeypatch.setattr(progressive, "_late_sign", counting_late_sign)
    # the grid, and a budget past the last plane: its stream is zero-padded
    # and every mark in it holds the end state
    for seed in range(4):
        for n, budget in DIFFERENTIAL_SHAPES + [(50, 45 * 50)]:
            plain = progressive_gaussian_source(seed, n, Fraction(budget, n))
            full = 8 * len(plain.bitstream)
            # marks 0-33 (the 32-bit start-up read), a stride that is mostly
            # not byte-aligned, and the stream's last two bits
            stride = max(1, full // 40) | 1
            marks = set(range(34)) | set(range(1, full, stride)) | {full - 1, full}
            source = progressive_gaussian_source(seed, n, Fraction(budget, n), marks)
            assert source.bitstream == plain.bitstream
            assert set(source.states) == {mark for mark in marks if mark <= full}
            for mark, record in source.states.items():
                state = _expanded(*progressive._scan_state(source.samples, *record))
                significant, sign, lower, width = _decode_scan(source.bitstream, mark, n)
                expected = bytes(significant), bytes(sign), lower, width
                assert state == expected, (seed, n, budget, mark)
    # the grid must reach the sign a decoder reads past its prefix
    assert len(late_signs) > 0


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
    encoder = _Encoder(budget)
    _scan(encoder, magnitudes, signs)
    expected = encoder.finish()
    full = 8 * len(expected)
    stream, states = _encode_scan(magnitudes, signs, budget, range(full + 1))
    assert stream == expected
    # every prefix up to the limit is reached; past the planes' end, all are
    assert set(range(min(budget, full) + 1)) <= set(states)
    # a zero magnitude is never significant, so its sign is never read
    samples = np.where(signs, -np.array(magnitudes), magnitudes)
    for mark, record in states.items():
        state = _expanded(*progressive._scan_state(samples, *record))
        significant, sign, lower, width = _decode_scan(stream, mark, n)
        assert state == (bytes(significant), bytes(sign), lower, width), mark


def test_decode_prefix_scans_what_the_encoder_did_not_record(monkeypatch):
    n, mark = 300, 8 * 90
    source = progressive_gaussian_source(3, n, 4, marks={mark})
    own = source.bitstream[: mark // 8]
    flipped = bytearray(own)
    flipped[40] ^= 0x10
    other = progressive_gaussian_source(4, n, 4).bitstream[: mark // 8]
    scans = []
    decode_scan = progressive._decode_scan

    def recording_decode_scan(data, limit_bits, n):
        scans.append(limit_bits)
        return decode_scan(data, limit_bits, n)

    monkeypatch.setattr(progressive, "_decode_scan", recording_decode_scan)

    def reference(data, prefix_bits):
        state = _scan(_Decoder(data, prefix_bits), [0.0] * n, bytes(n))
        return reference_reconstruction(*state).tobytes()

    # the marked prefix of the source's own stream: the recorded state
    for data in (None, own, source.bitstream):
        assert source.decode_prefix(mark, data=data).tobytes() == reference(own, mark)
    assert scans == []
    # a flipped byte, another seed's stream, short data and an unmarked prefix
    for data, prefix_bits in (
        (bytes(flipped), mark), (other, mark), (own[:-1], mark), (None, mark + 8), (own, mark - 1)
    ):
        stream = source.bitstream if data is None else data
        decoded = source.decode_prefix(prefix_bits, data=data)
        assert decoded.tobytes() == reference(stream, prefix_bits)
        assert scans[-1] == prefix_bits
    assert len(scans) == 5
