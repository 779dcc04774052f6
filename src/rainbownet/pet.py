"""Balanced multiple-description codec built on priority encoding.

A progressive (prefix-significant) byte stream is cut into K segments.
Segment i occupies ``s_i`` bytes of every description and carries
``i * s_i`` fresh source bytes, protected by an (i, K) MDS erasure code:
at each byte offset of the segment the K descriptions hold one codeword
whose first i symbols are source bytes and whose remaining K - i symbols
are parity. Any l descriptions therefore recover segments 1..l, i.e.
exactly the first ``xi_l = 8 * sum_{k<=l} k * s_k`` bits of the stream
(``8 * description_rates(s, 1)[l]``, the table the distortion formula
reads), no matter which l descriptions arrive: the code is balanced.

Layer weights are grid-quantized so every segment is a whole number of
bytes; all rate bookkeeping downstream consumes the quantized weights.
Encode and decode are pure functions with byte-identical output
regardless of evaluation order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .distortion import description_rates
from .errors import CodecError
from .gf256 import encode_block, recover_rows
from .rationals import _whole_number

MAGIC = b"RNF1"
_U32_MAX = 2**32 - 1


def _description_byte_count(num_descriptions: int, rate: Fraction, block_symbols: int) -> int:
    """Check K, r and n of a profile; return the description size n*r/8 in bytes."""
    if not 1 <= num_descriptions <= 255:
        raise CodecError(f"num_descriptions must be in 1..255, got {num_descriptions}")
    if rate <= 0:
        raise CodecError("description rate must be positive")
    if block_symbols < 1:
        raise CodecError("block_symbols must be at least 1")
    bits = rate * block_symbols
    if bits.denominator != 1 or bits.numerator % 8:
        raise CodecError(
            f"block_symbols * rate must be a whole number of bytes, got {bits} bits"
        )
    return bits.numerator // 8


@dataclass(frozen=True)
class PetProfile:
    """One balanced multiple-description design.

    Fields:
        num_descriptions: K, at most 255 (one byte symbol per description).
        rate: description rate r in bits per source symbol.
        block_symbols: n, source symbols per block; n*r must be a whole
            number of bytes (times 8).
        segment_bytes: per-segment size s_i of each description, summing to
            the description size n*r/8; the quantized layer weight is
            y_i = s_i / (n*r/8).
    """

    num_descriptions: int
    rate: Fraction
    block_symbols: int
    segment_bytes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rate", Fraction(self.rate))
        try:
            segments = tuple(_whole_number(s, "segment size") for s in self.segment_bytes)
        except ValueError as exc:
            raise CodecError(str(exc)) from exc
        object.__setattr__(self, "segment_bytes", segments)
        total = _description_byte_count(self.num_descriptions, self.rate, self.block_symbols)
        if len(self.segment_bytes) != self.num_descriptions:
            raise CodecError("segment_bytes must have one entry per description")
        if any(s < 0 for s in self.segment_bytes):
            raise CodecError("segment sizes must be nonnegative")
        if sum(self.segment_bytes) != total:
            raise CodecError(
                f"segment sizes sum to {sum(self.segment_bytes)}, expected {total}"
            )
        if (
            self.block_symbols > _U32_MAX
            or self.rate.numerator > _U32_MAX
            or self.rate.denominator > _U32_MAX
        ):
            raise CodecError("profile parameters exceed the 32-bit header fields")

    @cached_property
    def description_bytes(self) -> int:
        bits = self.rate * self.block_symbols
        return bits.numerator // 8

    @property
    def y(self) -> tuple[Fraction, ...]:
        """Quantized layer weights, summing to exactly one."""
        total = self.description_bytes
        return tuple(Fraction(s, total) for s in self.segment_bytes)

    @property
    def source_bytes_required(self) -> int:
        return self.prefix_bytes(self.num_descriptions)

    def prefix_bytes(self, received: int) -> int:
        """Bytes recoverable from any `received` descriptions."""
        if not 0 <= received <= self.num_descriptions:
            raise ValueError(f"received count {received} outside 0..{self.num_descriptions}")
        return description_rates(self.segment_bytes, 1)[received]

    def prefix_bits(self, received: int) -> int:
        return 8 * self.prefix_bytes(received)

    @classmethod
    def quantize(
        cls, y: Sequence, rate, num_descriptions: int, block_symbols: int
    ) -> "PetProfile":
        """Quantize layer weights to the byte grid of one description.

        Each y_i is rounded to a whole number of bytes out of n*r/8; any
        rounding residual is absorbed by the largest component (smallest
        index on ties), so the result always sums to one.
        """
        rate = Fraction(rate)
        total = _description_byte_count(num_descriptions, rate, block_symbols)
        if len(y) != num_descriptions:
            raise CodecError(f"expected {num_descriptions} layer weights, got {len(y)}")
        if not all(isinstance(v, (int, Fraction)) or math.isfinite(v) for v in y):
            raise CodecError("layer weights must be finite")
        weights = [Fraction(v) if isinstance(v, (int, Fraction)) else Fraction(repr(float(v))) for v in y]
        if any(w < 0 for w in weights):
            raise CodecError("layer weights must be nonnegative")
        weight_sum = sum(weights)
        if abs(weight_sum - 1) > Fraction(1, 10**6):
            # Decimal, not float: a sum of finite weights can exceed the float range
            shown = Decimal(weight_sum.numerator) / weight_sum.denominator
            raise CodecError(f"layer weights must sum to 1, got {shown:.6g}")
        segments = [int(round(w * total)) for w in weights]
        residual = total - sum(segments)
        if residual:
            anchor = max(range(num_descriptions), key=lambda i: (segments[i], -i))
            if segments[anchor] + residual < 0:
                raise CodecError("layer weights cannot be quantized onto the byte grid")
            segments[anchor] += residual
        return cls(num_descriptions, rate, block_symbols, tuple(segments))


@dataclass(frozen=True)
class Description:
    """One description: shared profile header, its index, and payload bytes."""

    profile: PetProfile
    index: int
    payload: bytes

    def __post_init__(self):
        if not 1 <= self.index <= self.profile.num_descriptions:
            raise CodecError(
                f"description index {self.index} outside 1..{self.profile.num_descriptions}"
            )
        if len(self.payload) != self.profile.description_bytes:
            raise CodecError(
                f"description {self.index}: payload is {len(self.payload)} bytes, "
                f"expected {self.profile.description_bytes}"
            )


@dataclass(frozen=True)
class DescriptionSet:
    profile: PetProfile
    descriptions: tuple[Description, ...]


def pet_encode(bitstream: bytes, profile: PetProfile) -> DescriptionSet:
    """Encode a prefix-significant byte stream into K equal-size descriptions."""
    required = profile.source_bytes_required
    if len(bitstream) < required:
        raise CodecError(
            f"bitstream too short: need {required} bytes for this profile, got {len(bitstream)}"
        )
    K = profile.num_descriptions
    prefix = description_rates(profile.segment_bytes, 1)
    blocks = []
    for depth, size in enumerate(profile.segment_bytes, start=1):
        if size == 0:
            continue
        chunk = bitstream[prefix[depth - 1] : prefix[depth]]
        rows = np.frombuffer(chunk, dtype=np.uint8).reshape(depth, size)
        blocks.append(encode_block(rows, K))
    columns = np.concatenate(blocks, axis=1)
    descriptions = tuple(
        Description(profile, index=j + 1, payload=columns[j].tobytes()) for j in range(K)
    )
    return DescriptionSet(profile, descriptions)


def pet_decode(descriptions) -> bytes:
    """Recover the longest guaranteed prefix from any subset of descriptions.

    With l descriptions (of the same block) the result is bit-exact and has
    length ``xi_l / 8`` bytes, independent of which l arrived. An empty
    subset yields an empty prefix. Raises CodecError on mismatched headers,
    duplicate indices, or parity that contradicts the recovered data.

    The payloads are stacked once, in the order given, into a (received,
    description_bytes) matrix; each segment is recovered from its column
    slice by one `recover_rows` call, so an inconsistent row is named in
    the order given.
    """
    if isinstance(descriptions, DescriptionSet):
        descriptions = descriptions.descriptions
    subset = list(descriptions)
    if not subset:
        return b""
    profile = subset[0].profile
    for description in subset[1:]:
        if description.profile != profile:
            raise CodecError("descriptions carry inconsistent headers")
    indices = [d.index for d in subset]
    if len(set(indices)) != len(indices):
        raise CodecError(f"duplicate description indices: {sorted(indices)}")
    received = len(subset)
    points = [index - 1 for index in indices]
    matrix = np.frombuffer(b"".join(d.payload for d in subset), dtype=np.uint8)
    matrix = matrix.reshape(received, profile.description_bytes)

    out = bytearray()
    position = 0
    for depth, size in enumerate(profile.segment_bytes[:received], start=1):
        if size == 0:
            continue
        try:
            rows = recover_rows(points, matrix[:, position : position + size], depth)
        except ValueError as exc:
            raise CodecError(f"segment {depth}: {exc}") from exc
        out += rows.tobytes()
        position += size
    return bytes(out)


_HEADER = struct.Struct(">4sBBIII")


def description_to_bytes(description: Description) -> bytes:
    """Serialize one description with its self-describing header."""
    profile = description.profile
    head = _HEADER.pack(
        MAGIC,
        profile.num_descriptions,
        description.index,
        profile.block_symbols,
        profile.rate.numerator,
        profile.rate.denominator,
    )
    layers = struct.pack(
        f">{profile.num_descriptions}I", *(8 * s for s in profile.segment_bytes)
    )
    return head + layers + description.payload


@lru_cache(maxsize=16)
def _header_profile(
    K: int, block_symbols: int, rate_num: int, rate_den: int, layer_table: bytes
) -> PetProfile:
    """The profile of one header; every description of a block shares it."""
    layer_bits = struct.unpack(f">{K}I", layer_table)
    if any(bits % 8 for bits in layer_bits):
        raise CodecError("layer sizes must be whole bytes")
    return PetProfile(
        num_descriptions=K,
        rate=Fraction(rate_num, rate_den),
        block_symbols=block_symbols,
        segment_bytes=tuple(bits // 8 for bits in layer_bits),
    )


def description_from_bytes(data: bytes) -> Description:
    """Parse a serialized description, validating the header."""
    if len(data) < _HEADER.size:
        raise CodecError("description file too short for its header")
    magic, K, index, block_symbols, rate_num, rate_den = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if rate_den == 0:
        raise CodecError("description header has a zero rate denominator")
    layer_area = struct.calcsize(f">{K}I")
    if len(data) < _HEADER.size + layer_area:
        raise CodecError("description file truncated in the layer table")
    layer_table = bytes(data[_HEADER.size : _HEADER.size + layer_area])
    profile = _header_profile(K, block_symbols, rate_num, rate_den, layer_table)
    payload = data[_HEADER.size + layer_area :]
    if len(payload) != profile.description_bytes:
        raise CodecError(
            f"payload is {len(payload)} bytes, expected {profile.description_bytes}"
        )
    return Description(profile, index, payload)
