"""Fuzzing the input contract: malformed documents, description files and
progressive streams.

Scenario and flow documents are mutated structurally (values replaced by
arbitrary JSON or by tokens the parsers treat specially, entries deleted)
and as text (truncated); description files are mutated bytewise. Loading
them may succeed or fail with one of the errors the CLI maps to exit 1,
and the CLI itself answers 0 or 1, never 3 or an escaped exception. The
progressive decoder reads whatever bytes PET recovers, so it decodes
arbitrary bytes without raising, exactly as the per-codeword reference in
`oracles.py` does.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from oracles import reference_reconstruction, reference_rice_decode
from rainbownet import (
    PetProfile,
    description_from_bytes,
    description_to_bytes,
    load_flow,
    load_scenario,
    pet_encode,
    progressive_gaussian_source,
)
from rainbownet.cli import main
from rainbownet.errors import RainbowNetError

# What the CLI turns into exit 1; anything else escaping is an exit 3.
EXIT_ONE = (RainbowNetError, ValueError, ArithmeticError)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)
CLI_FUZZ = settings(max_examples=40, deadline=None, derandomize=True)

TOKENS = st.sampled_from(
    ["1", "2", "3", "4", "e12", "e35", "0", "-1", "1/0", "1/2", "nan", "inf", "1e400", "", " "]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats() | st.text(max_size=4) | TOKENS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4) | TOKENS, children, max_size=3),
    max_leaves=6,
)


def _paths(value, prefix=()):
    """Key paths of every node of a JSON document, the root first."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw, text: str):
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(JSON_VALUES)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return json.dumps(doc)


def _documents(text: str):
    return mutated_documents(text) | st.integers(0, len(text)).map(lambda cut: text[:cut])


@st.composite
def mutated_blobs(draw, blob: bytes):
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        position = draw(st.integers(0, max(len(data) - 1, 0)))
        action = draw(st.sampled_from(["flip", "cut", "insert"]))
        if action == "flip" and data:
            data[position] = draw(st.integers(0, 255))
        elif action == "cut":
            del data[position:]
        else:
            data[position:position] = draw(st.binary(max_size=8))
    return bytes(data)


SCENARIO = helpers.bundled_text("fig1")
FLOW = helpers.bundled_text("fig1_flow")
_PROFILE = PetProfile.quantize([0.5, 0.25, 0.25], Fraction(1), 3, 64)
FIRST, BLOB = (
    description_to_bytes(d)
    for d in pet_encode(bytes(range(_PROFILE.source_bytes_required)), _PROFILE).descriptions[:2]
)


def _loads_or_rejects(load, *args):
    try:
        load(*args)
    except EXIT_ONE:
        pass


@FUZZ
@given(st.text(max_size=40) | _documents(SCENARIO))
def test_load_scenario_accepts_or_rejects(text):
    _loads_or_rejects(load_scenario, text)


@FUZZ
@given(st.text(max_size=40) | _documents(FLOW))
def test_load_flow_accepts_or_rejects(text):
    _loads_or_rejects(load_flow, text, helpers.fig1_network())


@FUZZ
@given(st.binary(max_size=40) | mutated_blobs(BLOB))
def test_description_from_bytes_accepts_or_rejects(data):
    _loads_or_rejects(description_from_bytes, data)


def _run_cli(files: dict[str, bytes], argv: list[str]) -> int:
    """Write `files` to a fresh directory and run the CLI; "{dir}" in argv names it."""
    with tempfile.TemporaryDirectory() as workdir:
        for name, blob in files.items():
            with open(os.path.join(workdir, name), "wb") as handle:
                handle.write(blob)
        return main([a.format(dir=workdir) for a in argv])


@CLI_FUZZ
@given(_documents(SCENARIO), _documents(FLOW))
def test_validate_on_mutated_files_exits_zero_or_one(scenario, flow):
    files = {"scenario.json": scenario.encode(), "flow.json": flow.encode()}
    assert _run_cli(files, ["validate", "{dir}/scenario.json", "{dir}/flow.json"]) in (0, 1)


@CLI_FUZZ
@given(mutated_blobs(BLOB))
def test_pet_decode_on_mutated_files_exits_zero_or_one(blob):
    files = {"a.d01": FIRST, "b.d02": blob}
    argv = ["pet", "decode", "{dir}/a.d01", "{dir}/b.d02", "--out", "{dir}/out.bin"]
    assert _run_cli(files, argv) in (0, 1)


# a stream whose planes reach the refinement passes, to mutate
STREAM = progressive_gaussian_source(0, 64, 4).bitstream


@st.composite
def long_unary_streams(draw):
    """A first header of k >= 24, then runs of ones of up to 400 bits
    between arbitrary bits: unary parts whose runs, shifted by k, reach
    past 2**31 samples."""
    bits = [1, 1] + draw(st.lists(st.integers(0, 1), min_size=3, max_size=3))
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            bits += [1] * draw(st.integers(1, 400))
        else:
            bits += draw(st.lists(st.integers(0, 1), max_size=40))
    return np.packbits(np.array(bits, dtype=np.uint8)).tobytes()


@FUZZ
@given(
    st.integers(1, 64),
    st.binary(max_size=256) | mutated_blobs(STREAM) | long_unary_streams(),
    st.data(),
)
def test_progressive_decoder_on_arbitrary_bytes(n, data, draw):
    # Rice parameters up to 31 and unary runs past the data's end must end
    # the decode, never index past it; a prefix past 64 bits reads it all
    prefix_bits = draw.draw(st.integers(0, 8 * len(data) + 16) | st.just(2**70))
    source = progressive_gaussian_source(1, n, 1)
    reconstruction = source.decode_prefix(prefix_bits, data=data)
    assert reconstruction.shape == (n,)
    assert np.all(np.abs(reconstruction) < 8)
    expected = reference_reconstruction(*reference_rice_decode(data, prefix_bits, n))
    assert reconstruction.tobytes() == expected.tobytes()
