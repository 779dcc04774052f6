import hashlib
import itertools
import random
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rainbownet import (
    CodecError,
    Description,
    PetProfile,
    description_from_bytes,
    description_to_bytes,
    gf256,
    pet,
    pet_decode,
    pet_encode,
)
from oracles import gf_inv
from rainbownet.gf256 import EXP, LOG, encode_block, gf_mul, recover_rows


def _recover(shares: dict, k: int) -> np.ndarray:
    """`recover_rows` on {point: row}, the rows stacked in the order given."""
    points = list(shares)
    return recover_rows(points, np.array([shares[point] for point in points]), k)


class TestField:
    def test_exp_log_inverse_tables(self):
        for value in range(1, 256):
            assert EXP[LOG[value]] == value
            assert gf_mul(value, gf_inv(value)) == 1

    def test_multiplication_properties(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b, c = (int(x) for x in rng.integers(0, 256, 3))
            assert gf_mul(a, b) == gf_mul(b, a)
            assert gf_mul(a, gf_mul(b, c)) == gf_mul(gf_mul(a, b), c)
            assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)

    def test_encode_recover_all_erasure_patterns(self):
        rng = np.random.default_rng(2)
        for k, total in ((1, 3), (2, 4), (3, 5)):
            data = rng.integers(0, 256, size=(k, 17), dtype=np.uint8)
            coded = encode_block(data, total)
            assert np.array_equal(coded[:k], data)
            for kept in itertools.combinations(range(total), k):
                assert np.array_equal(recover_rows(kept, coded[list(kept)], k), data)

    def test_recover_detects_corruption(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, size=(2, 9), dtype=np.uint8)
        coded = encode_block(data, 5)
        received = coded[[0, 1, 4]]
        received[2, 3] ^= 0x5A
        with pytest.raises(ValueError, match="parity row 4 is inconsistent"):
            recover_rows([0, 1, 4], received, 2)

    def test_too_few_shares(self, monkeypatch):
        # pet_decode recovers only the segments whose depth the received
        # count reaches, so no recovery is asked for from fewer than k rows
        depths = []

        def spy(points, block, k):
            depths.append((len(points), k))
            return recover(points, block, k)

        recover = pet.recover_rows
        monkeypatch.setattr(pet, "recover_rows", spy)
        profile = PetProfile(3, Fraction(1), 8 * 12, (3, 4, 5))
        payload = bytes(range(profile.source_bytes_required))
        descriptions = pet_encode(payload, profile).descriptions
        assert pet_decode(descriptions[2:]) == payload[:3]
        assert pet_decode(descriptions[:2]) == payload[:11]
        assert depths == [(1, 1), (2, 1), (2, 2)]

    def test_one_evaluation_recovers_and_checks(self, monkeypatch):
        calls = []

        def spy(sources, rows, targets):
            calls.append((tuple(sources), tuple(targets)))
            return evaluate(sources, rows, targets)

        data = np.random.default_rng(4).integers(0, 256, size=(3, 10), dtype=np.uint8)
        coded = encode_block(data, 7)
        evaluate = gf256._evaluate
        monkeypatch.setattr(gf256, "_evaluate", spy)
        points = [6, 1, 5, 4]
        assert np.array_equal(recover_rows(points, coded[points], 3), data)
        # missing data rows 0 and 2, then the extra row 6
        assert calls == [((1, 4, 5), (0, 2, 6))]

    def test_wide_encode_memory_is_bounded(self):
        # the product tables of one evaluation are (sources, targets, 256)
        # bytes, about 4 MiB here; a gather over every (target, source,
        # byte) triple would need over 100 MiB
        data = np.random.default_rng(5).integers(0, 256, size=(127, 1024), dtype=np.uint8)
        tracemalloc.start()
        try:
            encode_block(data, 255)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_coefficient_cache_is_bounded(self):
        # random K=32 subsets: far more distinct (sources, targets) pairs
        # than the cache holds
        K, n = 32, 256
        profile = PetProfile.quantize([1 / K] * K, 1, K, n)
        payload = random.Random(7).randbytes(profile.source_bytes_required)
        descriptions = pet_encode(payload, profile).descriptions
        rng = random.Random(8)
        gf256._coefficients.cache_clear()
        for _ in range(300):
            subset = rng.sample(descriptions, rng.randint(1, K))
            recovered = pet_decode(subset)
            assert recovered == payload[: len(recovered)]
        info = gf256._coefficients.cache_info()
        assert info.misses > info.maxsize == 4096
        assert info.currsize <= 4096


class TestProfile:
    def test_quantize_thirds(self):
        profile = PetProfile.quantize([Fraction(1, 3)] * 3, Fraction(1), 3, 24)
        assert profile.segment_bytes == (1, 1, 1)
        assert profile.y == (Fraction(1, 3),) * 3
        assert [profile.prefix_bits(l) for l in (0, 1, 2, 3)] == [0, 8, 24, 48]

    def test_quantize_absorbs_residual_in_largest_layer(self):
        profile = PetProfile.quantize([0.44, 0.44, 0.12], Fraction(1), 3, 80)
        assert sum(profile.segment_bytes) == 10
        assert profile.segment_bytes == (5, 4, 1)  # +1 residual goes to the first largest

    def test_rate_must_give_whole_bytes(self):
        with pytest.raises(CodecError, match="whole number of bytes"):
            PetProfile.quantize([1.0], Fraction(1), 1, 12)

    def test_weights_must_roughly_sum_to_one(self):
        with pytest.raises(CodecError, match="sum to 1"):
            PetProfile.quantize([0.5, 0.2], Fraction(1), 2, 16)

    def test_too_many_descriptions(self):
        with pytest.raises(CodecError, match="255"):
            PetProfile.quantize([1.0 / 256] * 256, Fraction(1), 256, 2048 * 8)

    @pytest.mark.parametrize("segments", [(0.5, 3), (True, 2), ("1", 2)])
    def test_segment_sizes_must_be_whole_numbers(self, segments):
        # int() would read (0.5, 3) as (0, 3), whose sum fits the 3-byte description
        with pytest.raises(CodecError, match="^segment size must be a whole number"):
            PetProfile(2, 1, 24, segments)
        assert PetProfile(2, 1, 24, (3.0, Fraction(0))).segment_bytes == (3, 0)

    def test_segment_arithmetic(self):
        profile = PetProfile(3, Fraction(1, 2), 48, (1, 2, 0))
        assert profile.description_bytes == 3
        # segment i holds i*s_i source bytes and (K-i)*s_i parity bytes,
        # so the whole segment spans K*s_i bytes across descriptions
        assert profile.source_bytes_required == 1 * 1 + 2 * 2
        assert profile.prefix_bytes(2) == 5
        total_cells = sum(3 * s for s in profile.segment_bytes)
        assert total_cells == 3 * profile.description_bytes


class TestCodec:
    def test_full_copy_profile(self):
        profile = PetProfile.quantize([1, 0], Fraction(1), 2, 64)
        data = bytes(range(64))
        encoded = pet_encode(data, profile)
        assert encoded.descriptions[0].payload == encoded.descriptions[1].payload
        assert profile.prefix_bits(1) == profile.prefix_bits(2) == 64
        for description in encoded.descriptions:
            assert pet_decode([description]) == data[:8]

    def test_joint_only_profile(self):
        profile = PetProfile.quantize([0, 1], Fraction(1), 2, 64)
        data = np.random.default_rng(0).integers(0, 256, 16, dtype=np.uint8).tobytes()
        encoded = pet_encode(data, profile)
        assert profile.prefix_bits(1) == 0
        assert pet_decode([encoded.descriptions[0]]) == b""
        assert pet_decode(encoded) == data[:16]

    def test_description_sizes(self):
        profile = PetProfile.quantize([0.25, 0.5, 0.25], Fraction(2), 3, 32)
        data = bytes(48)
        encoded = pet_encode(data, profile)
        for description in encoded.descriptions:
            assert len(description.payload) == profile.description_bytes == 8

    def test_balance_over_all_subsets(self):
        rng = np.random.default_rng(10)
        for num in (1, 2, 3, 4, 5):
            payload = rng.integers(0, 256, 5 * 64, dtype=np.uint8).tobytes()
            for _ in range(3):
                weights = rng.dirichlet(np.ones(num)).tolist()
                profile = PetProfile.quantize(weights, Fraction(1), num, 64 * 8)
                encoded = pet_encode(payload, profile)
                for size in range(num + 1):
                    expected = payload[: profile.prefix_bytes(size)]
                    for subset in itertools.combinations(encoded.descriptions, size):
                        assert pet_decode(list(subset)) == expected

    def test_prefixes_extend_never_rewrite(self):
        rng = np.random.default_rng(11)
        payload = rng.integers(0, 256, 4 * 100, dtype=np.uint8).tobytes()
        profile = PetProfile.quantize([0.25, 0.25, 0.25, 0.25], Fraction(1), 4, 100 * 8)
        encoded = pet_encode(payload, profile)
        previous = b""
        for size in range(1, 5):
            current = pet_decode(encoded.descriptions[:size])
            assert current.startswith(previous)
            previous = current

    def test_empty_subset(self):
        assert pet_decode([]) == b""

    def test_short_bitstream_rejected(self):
        profile = PetProfile.quantize([0.5, 0.5], Fraction(1), 2, 64)
        with pytest.raises(CodecError, match="too short"):
            pet_encode(bytes(profile.source_bytes_required - 1), profile)

    def test_mixed_headers_rejected(self):
        a = pet_encode(bytes(64), PetProfile.quantize([1, 0], Fraction(1), 2, 64))
        b = pet_encode(bytes(64), PetProfile.quantize([0, 1], Fraction(1), 2, 64))
        with pytest.raises(CodecError, match="inconsistent"):
            pet_decode([a.descriptions[0], b.descriptions[1]])

    def test_duplicate_indices_rejected(self):
        encoded = pet_encode(bytes(64), PetProfile.quantize([1, 0], Fraction(1), 2, 64))
        with pytest.raises(CodecError, match="duplicate"):
            pet_decode([encoded.descriptions[0], encoded.descriptions[0]])

    def test_corrupted_parity_detected(self):
        rng = np.random.default_rng(12)
        payload = rng.integers(0, 256, 300, dtype=np.uint8).tobytes()
        profile = PetProfile.quantize([0.5, 0.5, 0.0], Fraction(1), 3, 64 * 8)
        encoded = pet_encode(payload, profile)
        tampered_payload = bytearray(encoded.descriptions[2].payload)
        tampered_payload[0] ^= 0xFF
        tampered = Description(profile, 3, bytes(tampered_payload))
        with pytest.raises(CodecError, match="segment 1"):
            pet_decode([encoded.descriptions[0], encoded.descriptions[1], tampered])


def _header(magic=b"RNF1", K=1, index=1, n=64, num=1, den=1, bits=(64,), payload=bytes(8)):
    """A serialized description, field by field; the defaults are valid."""
    fields = struct.pack(">4sBBIII", magic, K, index, n, num, den)
    return fields + struct.pack(f">{len(bits)}I", *bits) + payload


class TestSerialization:
    def test_round_trip(self):
        profile = PetProfile.quantize([0.5, 0.25, 0.25], Fraction(3, 2), 3, 48)
        encoded = pet_encode(bytes(range(54)), profile)
        for description in encoded.descriptions:
            blob = description_to_bytes(description)
            again = description_from_bytes(blob)
            assert again == description
        recovered = pet_decode(
            [description_from_bytes(description_to_bytes(d)) for d in encoded.descriptions[:2]]
        )
        assert recovered == bytes(range(54))[: profile.prefix_bytes(2)]

    def test_magic_checked(self):
        blob = description_to_bytes(
            pet_encode(bytes(8), PetProfile.quantize([1.0], Fraction(1), 1, 64)).descriptions[0]
        )
        with pytest.raises(CodecError, match="magic"):
            description_from_bytes(b"XXXX" + blob[4:])

    def test_descriptions_of_one_header_share_one_profile(self):
        profile = PetProfile.quantize([0.5, 0.25, 0.25], Fraction(3, 2), 3, 48)
        encoded = pet_encode(bytes(range(54)), profile)
        parsed = [description_from_bytes(description_to_bytes(d)) for d in encoded.descriptions]
        assert parsed[0].profile == profile
        assert all(d.profile is parsed[0].profile for d in parsed)

    @pytest.mark.parametrize(
        "blob,message",
        [
            (b"RNF1\x01", "description file too short for its header"),
            (_header(magic=b"XXXX", den=0), "bad magic b'XXXX', expected b'RNF1'"),
            (
                _header(den=0, bits=(), payload=b""),
                "description header has a zero rate denominator",
            ),
            (_header(K=2, payload=b""), "description file truncated in the layer table"),
            (_header(bits=(60,), payload=b""), "layer sizes must be whole bytes"),
            (_header(K=0, bits=(), payload=b""), "num_descriptions must be in 1..255, got 0"),
            (
                _header(n=63, payload=b""),
                "block_symbols * rate must be a whole number of bytes, got 63 bits",
            ),
            (_header(bits=(56,), payload=b""), "segment sizes sum to 7, expected 8"),
            (_header(index=2, payload=bytes(7)), "payload is 7 bytes, expected 8"),
            (_header(index=2), "description index 2 outside 1..1"),
        ],
        ids=[
            "short", "magic", "zero-denominator", "truncated-table", "whole-bytes",
            "no-descriptions", "fractional-bytes", "segment-sum", "payload", "index",
        ],
    )
    def test_malformed_headers_keep_their_messages(self, blob, message):
        # most blobs also break a later check: the first check in header
        # order names the fault, on every parse
        for _ in range(2):
            with pytest.raises(CodecError) as raised:
                description_from_bytes(blob)
            assert str(raised.value) == message

    def test_truncated_payload_rejected(self):
        blob = description_to_bytes(
            pet_encode(bytes(8), PetProfile.quantize([1.0], Fraction(1), 1, 64)).descriptions[0]
        )
        with pytest.raises(CodecError, match="payload"):
            description_from_bytes(blob[:-1])


def _seeded_blocks(count: int):
    """Seeded (k, total, width) shapes: edge cases, then random codes of up to 40 rows."""
    rng = np.random.default_rng(20)
    shapes = [(1, 1, 5), (1, 255, 3), (12, 255, 2), (3, 4, 1)]
    while len(shapes) < count:
        total = int(rng.integers(1, 41))
        shapes.append((int(rng.integers(1, total + 1)), total, int(rng.integers(1, 33))))
    return rng, shapes


class TestBlockCodeAgainstReference:
    def test_encode_matches_per_coefficient_lagrange(self):
        rng, shapes = _seeded_blocks(40)
        for k, total, width in shapes:
            data = rng.integers(0, 256, size=(k, width), dtype=np.uint8)
            expected = oracles.reference_encode_block(data, total)
            assert np.array_equal(encode_block(data, total), expected)

    def test_recover_matches_reference_with_extra_shares(self):
        rng, shapes = _seeded_blocks(60)
        for k, total, width in shapes:
            data = rng.integers(0, 256, size=(k, width), dtype=np.uint8)
            coded = oracles.reference_encode_block(data, total)
            kept = [int(p) for p in rng.permutation(total)[: int(rng.integers(k, total + 1))]]
            shares = {point: coded[point] for point in kept}
            recovered = _recover(shares, k)
            assert np.array_equal(recovered, oracles.reference_recover_block(shares, k))
            assert np.array_equal(recovered, data)

    def test_first_inconsistent_share_in_given_order_is_named(self):
        rng, shapes = _seeded_blocks(60)
        checked = 0
        for k, total, width in shapes:
            if total - k < 2:
                continue
            data = rng.integers(0, 256, size=(k, width), dtype=np.uint8)
            coded = encode_block(data, total)
            kept = [int(p) for p in rng.permutation(total)[: int(rng.integers(k + 2, total + 1))]]
            shares = {point: coded[point].copy() for point in kept}
            extras = [point for point in kept if point not in sorted(kept)[:k]]
            for point in rng.choice(extras, size=2, replace=False):
                shares[int(point)][int(rng.integers(width))] ^= int(rng.integers(1, 256))
            with pytest.raises(ValueError) as expected:
                oracles.reference_recover_block(shares, k)
            with pytest.raises(ValueError, match="inconsistent") as raised:
                _recover(shares, k)
            assert str(raised.value) == str(expected.value)
            checked += 1
        assert checked >= 20


def _outcome(fn, *args):
    """What a call returns as bytes, or the type and message of what it raises."""
    try:
        result = fn(*args)
    except (ValueError, CodecError) as exc:
        return type(exc), str(exc)
    return result if isinstance(result, bytes) else result.tobytes()


def _reference_decode(descriptions) -> bytes:
    """pet_decode's contract, segment by segment, through the reference recovery."""
    profile = descriptions[0].profile
    out, position = bytearray(), 0
    for depth, size in enumerate(profile.segment_bytes[: len(descriptions)], start=1):
        if size == 0:
            continue
        shares = {
            d.index - 1: np.frombuffer(d.payload, dtype=np.uint8)[position : position + size]
            for d in descriptions
        }
        try:
            out += oracles.reference_recover_block(shares, depth).tobytes()
        except ValueError as exc:
            raise CodecError(f"segment {depth}: {exc}") from exc
        position += size
    return bytes(out)


def _corruption(count: int, width: int):
    """Nothing, or (received row, byte, nonzero xor mask) to corrupt one byte."""
    return st.none() | st.tuples(
        st.integers(0, count - 1), st.integers(0, width - 1), st.integers(1, 255)
    )


class TestRecoveryAgainstReference:
    """Random subsets in random order, with at most one corrupted byte."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_block_recovery(self, data):
        total = data.draw(st.integers(1, 8), label="K")
        k = data.draw(st.integers(1, total), label="k")
        width = data.draw(st.integers(1, 64), label="width")
        block = data.draw(st.binary(min_size=k * width, max_size=k * width))
        coded = encode_block(np.frombuffer(block, np.uint8).reshape(k, width), total)
        order = data.draw(st.permutations(range(total)), label="order")
        points = order[: data.draw(st.integers(k, total), label="received")]
        received = coded[points]
        corrupt = data.draw(_corruption(len(points), width), label="corrupt")
        if corrupt is not None:
            row, byte, mask = corrupt
            received[row, byte] ^= mask
        shares = dict(zip(points, received))
        expected = _outcome(oracles.reference_recover_block, shares, k)
        assert _outcome(recover_rows, points, received, k) == expected

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_pet_decode(self, data):
        K = data.draw(st.integers(1, 8), label="K")
        segments = data.draw(
            st.lists(st.integers(0, 64), min_size=K, max_size=K).filter(any), label="segments"
        )
        profile = PetProfile(K, Fraction(1), 8 * sum(segments), tuple(segments))
        size = profile.source_bytes_required
        payload = data.draw(st.binary(min_size=size, max_size=size))
        encoded = pet_encode(payload, profile).descriptions
        order = data.draw(st.permutations(encoded), label="order")
        subset = order[: data.draw(st.integers(1, K), label="received")]
        corrupt = data.draw(_corruption(len(subset), profile.description_bytes), label="corrupt")
        if corrupt is not None:
            row, byte, mask = corrupt
            tampered = bytearray(subset[row].payload)
            tampered[byte] ^= mask
            subset[row] = Description(profile, subset[row].index, bytes(tampered))
        reordered = data.draw(st.permutations(subset), label="reordered")
        outcomes = []
        for given_order in (subset, reordered):
            outcome = _outcome(pet_decode, given_order)
            assert outcome == _outcome(_reference_decode, given_order)
            outcomes.append(outcome)
        if isinstance(outcomes[0], bytes):
            # a corrupted byte that no extra row checks changes the decoded
            # bytes, but the same way in every order
            assert outcomes[1] == outcomes[0]
            if corrupt is None:
                assert outcomes[0] == payload[: profile.prefix_bytes(len(subset))]


def test_pet_decode_evaluates_once_per_segment(monkeypatch):
    calls = []

    def spy(sources, rows, targets):
        calls.append((tuple(sources), tuple(targets)))
        return evaluate(sources, rows, targets)

    profile = PetProfile(6, Fraction(1), 8 * 15, (3, 0, 2, 4, 1, 5))
    payload = random.Random(9).randbytes(profile.source_bytes_required)
    encoded = pet_encode(payload, profile).descriptions
    subset = [encoded[i - 1] for i in (5, 2, 6, 1, 4)]
    evaluate = gf256._evaluate
    monkeypatch.setattr(gf256, "_evaluate", spy)
    assert pet_decode(subset) == payload[: profile.prefix_bytes(5)]
    # points 4, 1, 5, 0, 3 in the order given; segment 2 is empty and
    # segment 6 needs a sixth description
    expected = [
        ((0,), (4, 1, 5, 3)),
        ((0, 1, 3), (2, 4, 5)),
        ((0, 1, 3, 4), (2, 5)),
        ((0, 1, 3, 4, 5), (2,)),
    ]
    assert calls == expected


# sha256 of the serialized descriptions of a seeded payload, and of the
# prefixes decoded from seeded subsets (in seeded order), per profile. The
# first case is the K=32, n=65536 uniform profile of the pet-wide benchmark;
# the others are small non-uniform profiles, two with zero-size layers.
PINNED_PET = [
    (0, 32, "1", 65536, [1 / 32] * 32,
     "bcfa31af2eda827706c9fe782a17ab453e9d17a75635ea0f83e0424ff18ac983",
     "6ae4c61c00d1de8d5c4fba78047b1ce5c23b5367c58333427553c080fd7be07c"),
    (1, 5, "2", 800, [0.1, 0.3, 0.0, 0.4, 0.2],
     "9aec9a838faa91bdfb7fe8edcc9c7c1c6f060e2bc12387efd1338a4530ca8eff",
     "4a7893e36eefc14b767ff03a33def855cbae4bad0a40f509ce35a545e8a56f33"),
    (2, 3, "1/2", 48, [0.0, 1.0, 0.0],
     "008767a81bb4a7eddd4966c04ce15fafed5264998c19afbc430e1d9b115d91f8",
     "e866d64c97249e8b4daef90c8620f42fd97ed8540b78d466446bb836dfe3d35c"),
    (3, 7, "3", 768, [0.05, 0.25, 0.1, 0.2, 0.15, 0.15, 0.1],
     "7d98157d0f479abe7f3da5002646ceaa89bd8a5279645dee2a374e638cec5adb",
     "4d8e0b7a508b09f446a81da366a0ca3470f968c330d4e72a11aa8a99bc050ec4"),
]


@pytest.mark.parametrize(
    "seed,K,rate,n,y,encode_sha,decode_sha", PINNED_PET, ids=[f"K{case[1]}" for case in PINNED_PET]
)
def test_pinned_pet_bytes(seed, K, rate, n, y, encode_sha, decode_sha):
    profile = PetProfile.quantize(y, Fraction(rate), K, n)
    rng = random.Random(f"pet:{seed}")
    payload = rng.randbytes(profile.source_bytes_required)
    encoded = pet_encode(payload, profile)
    blobs = b"".join(description_to_bytes(d) for d in encoded.descriptions)
    assert hashlib.sha256(blobs).hexdigest() == encode_sha
    digest = hashlib.sha256()
    for size in sorted({0, 1, K // 2, K - 1, K, rng.randrange(K + 1), rng.randrange(K + 1)}):
        digest.update(pet_decode(rng.sample(encoded.descriptions, size)))
    assert digest.hexdigest() == decode_sha
