import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import helpers
from rainbownet import (
    PetProfile,
    cli,
    description_to_bytes,
    pet_encode,
    progressive,
    progressive_gaussian_source,
    search,
)
from rainbownet.cli import main
from rainbownet.flows import node_spectrum
from rainbownet.search import SearchConfig, alternating_search


DATA = os.path.join(os.path.dirname(__file__), "data")
# One edge s->t of capacity 1.
ONE_EDGE = os.path.join(DATA, "one_edge.json")
# s->a (42), a->t1 (42), a->t2 (33): at rate 3 the sinks hold 14 and 11 descriptions.
TWO_SINK_LINE = os.path.join(DATA, "two_sink_line.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_blocks(text):
    """CSV output -> {table header tuple: list of row lists}."""
    blocks = {}
    for chunk in text.strip().split("\n\n"):
        lines = chunk.strip().splitlines()
        header = tuple(lines[0].split(","))
        blocks[header] = [line.split(",") for line in lines[1:]]
    return blocks


class TestValidate:
    def test_bundled_flow_is_admissible(self, capsys):
        code, out, _ = run(capsys, "validate", "fig1", "fig1_flow")
        assert code == 0
        blocks = parse_blocks(out)
        rfv = blocks[("sink", "q")]
        assert rfv == [["2", "1"], ["3", "1"], ["4", "2"], ["5", "2"]]
        slack = blocks[("edge", "measure", "capacity", "slack", "ok")]
        assert all(row[4] == "true" and row[3] == "0" for row in slack)

    def test_inadmissible_flow_exits_one_and_names_edge(self, capsys, tmp_path):
        doc = json.loads(helpers.bundled_text("fig1_flow"))
        doc["paths"][0]["color"] = 2
        flow_path = tmp_path / "bad_flow.json"
        flow_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "fig1", str(flow_path))
        assert code == 1
        slack = parse_blocks(out)[("edge", "measure", "capacity", "slack", "ok")]
        bad = {row[0] for row in slack if row[4] == "false"}
        assert bad == {"e12"}

    def test_empty_flow_is_admissible(self, capsys, tmp_path):
        flow_path = tmp_path / "empty.json"
        flow_path.write_text(json.dumps({"rate": "1", "K": 2, "paths": []}))
        code, out, _ = run(capsys, "validate", "fig1", str(flow_path))
        assert code == 0
        assert parse_blocks(out)[("sink", "q")] == [[s, "0"] for s in "2345"]

    def test_strict_flag(self, capsys):
        code, _, _ = run(capsys, "validate", "--strict", "fig1", "fig1_flow")
        assert code == 1

    def test_missing_file_is_a_validation_error(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-scenario.json", "fig1_flow")
        assert code == 1
        assert "error" in err


class TestSearch:
    def test_exact_summary(self, capsys):
        code, out, _ = run(capsys, "search", "fig1", "--K", "2", "--rate", "1")
        assert code == 0
        header = ("objective", "K", "rate", "q_1", "q_2", "q_3", "q_4")
        assert parse_blocks(out)[header] == [["6", "2", "1", "1", "1", "2", "2"]]

    def test_writes_flow_document(self, capsys, tmp_path):
        out_flow = tmp_path / "found.json"
        code, _, _ = run(
            capsys, "search", "fig1", "--K", "2", "--rate", "1", "--out-flow", str(out_flow)
        )
        assert code == 0
        doc = json.loads(out_flow.read_text())
        assert doc["K"] == 2 and doc["rate"] == "1"
        code, out, _ = run(capsys, "validate", "fig1", str(out_flow))
        assert code == 0

    def test_greedy_mode(self, capsys):
        code, out, _ = run(
            capsys, "search", "fig2", "--K", "2", "--rate", "0.5", "--mode", "greedy"
        )
        assert code == 0

    def test_instance_guard_maps_to_exit_one(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "search",
            "fig1",
            "--K",
            "64",
            "--rate",
            "0.01",
            "--max-path-len",
            "2",
        )
        assert code == 1
        assert "guard" in err or "closure" in err

    @pytest.mark.parametrize("sinks", [["v5", "v6", "v7", "v8"], ["t"]], ids=["dense", "dead-end"])
    def test_path_enumeration_guard_maps_to_exit_one(self, capsys, tmp_path, sinks):
        # a complete digraph has more edge-simple paths of length <= 20 than
        # could be enumerated in hours; the path guard stops the walk early,
        # also when (dead-end) no walk through the digraph reaches a sink
        nodes = [f"v{i}" for i in range(9)]
        edges = [
            {"id": f"{a}-{b}", "tail": a, "head": b, "capacity": "1"}
            for a in nodes
            for b in nodes[1:]
            if a != b
        ]
        edges.append({"id": "v0-t", "tail": "v0", "head": "t", "capacity": "1"})
        doc = {"nodes": nodes + ["t"], "edges": edges, "sources": ["v0"], "sinks": sinks}
        scenario = tmp_path / "dense.json"
        scenario.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(
            capsys, "search", str(scenario), "--K", "3", "--rate", "1/2",
            "--mode", "greedy", "--max-path-len", "20",
        )
        assert time.perf_counter() - start < 5.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "paths" in err

    @pytest.mark.parametrize("command", ["search", "pipeline"])
    def test_path_longer_than_the_recursion_limit(self, capsys, tmp_path, command):
        # a chain of 1,500 edges holds one source-to-sink path
        nodes = [f"v{i}" for i in range(1501)]
        edges = [
            {"id": f"e{i}", "tail": nodes[i], "head": nodes[i + 1], "capacity": "1"}
            for i in range(1500)
        ]
        doc = {"nodes": nodes, "edges": edges, "sources": ["v0"], "sinks": ["v1500"]}
        scenario = tmp_path / "chain.json"
        scenario.write_text(json.dumps(doc))
        flow = tmp_path / "flow.json"
        extra = ["--out-flow", str(flow)] if command == "search" else ["--n", "256"]
        code, out, err = run(
            capsys, command, str(scenario), "--K", "1", "--rate", "1",
            "--max-path-len", "2000", *extra,
        )
        assert (code, err) == (0, "")
        if command == "search":
            assert parse_blocks(out)[("objective", "K", "rate", "q_1")] == [["1", "1", "1", "1"]]
            paths = json.loads(flow.read_text())["paths"]
            assert [len(path["edges"]) for path in paths] == [1500]


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
@pytest.mark.parametrize(
    "argv",
    [
        ["search", "fig1", "--K", "2", "--rate", "1", "--objective", "wd", "--weights", "{},1,1,1"],
        ["search", "fig1", "--K", "2", "--rate", "1", "--mode", "greedy", "--objective", "wd",
         "--weights", "{},1,1,1"],
        ["search", "fig1", "--K", "2", "--rate", "1", "--objective", "wd", "--y", "{},1"],
        ["pipeline", "fig1", "--K", "2", "--rate", "1", "--n", "256", "--weights", "{},1,1,1"],
        ["optimize", "fig1", "--flow", "fig1_flow", "--weights", "{},1,1,1"],
    ],
    ids=["search-wd", "greedy-wd", "search-wd-profile", "pipeline", "optimize"],
)
def test_non_finite_weights_and_profiles_exit_one(capsys, argv, value):
    code, out, err = run(capsys, *[arg.format(value) for arg in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "fig1", "--K", "2", "--rate", "1", "--objective", "wd", "--y", "1e308,1e308"],
        ["search", "fig1", "--K", "2", "--rate", "1", "--objective", "wd",
         "--weights", "1e308,1e308,1e308,1e308"],
        ["optimize", "fig1", "--flow", "fig1_flow", "--weights", "1e308,1e308,1e308,1e308"],
    ],
    ids=["search-wd-profile", "search-wd", "optimize"],
)
def test_vectors_whose_sum_overflows_exit_one(capsys, argv):
    # finite entries whose sum is inf would normalize to all zeros
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "finite sum" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "fig1", "--flow", "fig1_flow", "--K", "1000000000000"],
        ["lemmas", "--K", "1000000000000"],
        ["search", "fig1", "--K", "1000000000000", "--rate", "1/2", "--mode", "greedy",
         "--objective", "wd"],
        ["pipeline", "fig1", "--K", "1000000000000", "--rate", "1", "--n", "256"],
        ["search", "fig1", "--K", "1048577", "--rate", "1/2", "--mode", "exact"],
        ["search", "fig1", "--K", "1048577", "--rate", "1/2", "--mode", "greedy"],
    ],
    ids=["optimize", "lemmas", "search-wd", "pipeline", "search-exact", "search-greedy"],
)
def test_huge_layer_counts_exit_one_quickly(capsys, argv):
    # a profile of 10**12 layers would be terabytes; the layer cap refuses it.
    # A trf search has no profile, but its exact scan keeps a K + 1 level
    # floor and pushes up to K candidates, so the cap holds for it too
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "limit of 1048576" in err
    assert "Traceback" not in err


def test_trf_search_is_open_up_to_the_layer_limit(capsys):
    # greedy's work grows with the colors in use, not with K
    code, out, _ = run(
        capsys, "search", "fig1", "--K", str(search.MAX_LAYERS), "--rate", "1", "--mode", "greedy"
    )
    assert code == 0
    header = ("objective", "K", "rate", "q_1", "q_2", "q_3", "q_4")
    assert parse_blocks(out)[header] == [["6", "1048576", "1", "1", "1", "2", "2"]]


class TestOptimize:
    def test_skewed_weights_pick_joint_layer(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "fig1", "--flow", "fig1_flow", "--weights", "0,0,0.5,0.5"
        )
        assert code == 0
        blocks = parse_blocks(out)
        sinks = blocks[("sink", "q", "d")]
        assert [row[2] for row in sinks] == ["1.0", "1.0", "0.0625", "0.0625"]
        profile = blocks[("objective", "y_1", "y_2")][0]
        assert float(profile[0]) == pytest.approx(0.0625)
        assert float(profile[2]) == pytest.approx(1.0)

    def test_two_sink_line_reaches_the_single_layer_optimum(self, capsys, tmp_path):
        # sinks holding 14 and 11 descriptions of rate 3: all mass on layer 11
        # gives both 33 bits, D = 2**-66
        flow = tmp_path / "flow.json"
        code, _, _ = run(
            capsys, "search", TWO_SINK_LINE, "--K", "14", "--rate", "3", "--mode", "exact",
            "--out-flow", str(flow),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "optimize", TWO_SINK_LINE, "--flow", str(flow), "--K", "14", "--rate", "3",
            "--weights", "0.77,0.23",
        )
        assert code == 0
        blocks = parse_blocks(out)
        assert [row[1] for row in blocks[("sink", "q", "d")]] == ["42", "33"]
        profile = blocks[("objective",) + tuple(f"y_{i}" for i in range(1, 15))][0]
        assert float(profile[0]) <= 1e-19
        assert profile[11] == "1.0"

    def test_continuous_flow_needs_explicit_parameters(self, capsys):
        code, _, err = run(capsys, "optimize", "fig2", "--flow", "fig2_flow")
        assert code == 1
        assert "--K" in err

    def test_continuous_flow_with_compatible_rate(self, capsys):
        code, out, _ = run(
            capsys,
            "optimize",
            "fig2",
            "--flow",
            "fig2_flow",
            "--K",
            "5",
            "--rate",
            "0.5",
        )
        assert code == 0
        sinks = parse_blocks(out)[("sink", "q", "d")]
        assert [row[1] for row in sinks] == ["2.5", "0.5", "1"]

    @pytest.mark.parametrize("rate", ["0", "-1"])
    def test_nonpositive_rate_exits_one(self, capsys, rate):
        code, out, err = run(capsys, "optimize", "fig1", "--flow", "fig1_flow", "--rate", rate)
        assert (code, out, err) == (1, "", "error: rate must be positive\n")

    @pytest.mark.parametrize(
        "argv",
        [["fig1", "--flow", "fig1_flow"], ["fig2", "--flow", "fig2_flow", "--rate", "1/2"]],
        ids=["discrete", "continuous"],
    )
    @pytest.mark.parametrize("K", ["0", "-1"])
    def test_descriptions_below_one_exit_one(self, capsys, argv, K):
        code, out, err = run(capsys, "optimize", *argv, "--K", K)
        assert (code, out, err) == (1, "", f"error: --K must be at least 1, got {K}\n")


class TestPet:
    def test_encode_decode_round_trip(self, capsys, tmp_path):
        payload = bytes(range(256)) * 8
        source = tmp_path / "payload.bin"
        source.write_bytes(payload)
        prefix = tmp_path / "block"
        code, out, _ = run(
            capsys,
            "pet",
            "encode",
            "--y",
            "0.5,0.5",
            "--rate",
            "1",
            "--n",
            "8192",
            "--input",
            str(source),
            "--out-prefix",
            str(prefix),
        )
        assert code == 0
        files = [row[0] for row in parse_blocks(out)[("file", "index", "bytes")]]
        assert files == [f"{prefix}.d01", f"{prefix}.d02"]
        recovered = tmp_path / "rec.bin"
        code, out, _ = run(capsys, "pet", "decode", files[1], "--out", str(recovered))
        assert code == 0
        assert recovered.read_bytes() == payload[:512]
        code, out, _ = run(
            capsys, "pet", "decode", files[0], files[1], "--out", str(recovered)
        )
        assert code == 0
        assert recovered.read_bytes() == payload[:1536]

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_encode_rejects_non_finite_layer_weights(self, capsys, tmp_path, bad):
        source = tmp_path / "payload.bin"
        source.write_bytes(bytes(64))
        code, out, err = run(
            capsys, "pet", "encode", "--y", f"{bad},1", "--rate", "1", "--n", "8192",
            "--input", str(source), "--out-prefix", str(tmp_path / "block"),
        )
        assert (code, out, err) == (1, "", "error: layer weights must be finite\n")

    def test_encode_reports_a_sum_beyond_the_float_range(self, capsys, tmp_path):
        source = tmp_path / "payload.bin"
        source.write_bytes(bytes(64))
        code, out, err = run(
            capsys, "pet", "encode", "--y", "1e308,1e308", "--rate", "1", "--n", "8192",
            "--input", str(source), "--out-prefix", str(tmp_path / "block"),
        )
        assert (code, out) == (1, "")
        assert err == "error: layer weights must sum to 1, got 2.00000e+308\n"

    def test_decode_rejects_files_differing_only_in_the_layer_table(self, capsys, tmp_path):
        source = tmp_path / "payload.bin"
        source.write_bytes(bytes(range(256)) * 8)
        for name, y in (("a", "1,0"), ("b", "0,1")):
            code, _, _ = run(
                capsys, "pet", "encode", "--y", y, "--rate", "1", "--n", "8192",
                "--input", str(source), "--out-prefix", str(tmp_path / name),
            )
            assert code == 0
        first, second = (tmp_path / "a.d01").read_bytes(), (tmp_path / "b.d02").read_bytes()
        # magic, K, block size and rate agree; the index and the layer table do not
        assert first[:5] == second[:5] and first[6:18] == second[6:18]
        assert first[18:26] != second[18:26]
        code, out, err = run(
            capsys, "pet", "decode", str(tmp_path / "a.d01"), str(tmp_path / "b.d02"),
            "--out", str(tmp_path / "rec.bin"),
        )
        assert (code, out, err) == (1, "", "error: descriptions carry inconsistent headers\n")

    def test_decode_rejects_garbage(self, capsys, tmp_path):
        bad = tmp_path / "bad.d01"
        bad.write_bytes(b"not a description, but long enough to hold a header")
        code, _, err = run(capsys, "pet", "decode", str(bad), "--out", str(tmp_path / "x"))
        assert code == 1
        assert "magic" in err
        bad.write_bytes(b"short")
        code, _, err = run(capsys, "pet", "decode", str(bad), "--out", str(tmp_path / "x"))
        assert code == 1
        assert "too short" in err


class TestFig1Command:
    def test_single_rate_row(self, capsys):
        code, out, _ = run(capsys, "fig1", "--C", "1")
        assert code == 0
        header = ("C", "d_S", "d_M_star", "D_star", "D12_star", "improved")
        row = parse_blocks(out)[header][0]
        assert float(row[1]) == 0.25
        assert float(row[2]) == pytest.approx(0.1862, abs=1e-3)
        assert row[5] == "true"

    def test_default_grid_improves_everywhere(self, capsys):
        code, out, _ = run(capsys, "fig1")
        assert code == 0
        header = ("C", "d_S", "d_M_star", "D_star", "D12_star", "improved")
        rows = parse_blocks(out)[header]
        assert len(rows) == 5
        assert all(row[5] == "true" for row in rows)
        assert all(float(r[2]) < float(r[1]) for r in rows)

    @pytest.mark.parametrize("rate", ["16", "20", "50", "255"])
    def test_high_rates_reach_the_inverse_sqrt2_ratio(self, capsys, rate):
        # at high rate the balanced optimum is d_S/sqrt(2) + O(2**(-2*rate))
        code, out, err = run(capsys, "fig1", "--C", rate)
        assert (code, err) == (0, "")
        header = ("C", "d_S", "d_M_star", "D_star", "D12_star", "improved")
        [row] = parse_blocks(out)[header]
        assert float(row[2]) / float(row[1]) == pytest.approx(2**-0.5, abs=1e-6)

    @pytest.mark.parametrize("rate", ["255.6", "256", "1000", "inf", "nan"])
    def test_rates_past_double_precision_exit_one(self, capsys, rate):
        start = time.perf_counter()
        code, out, err = run(capsys, "fig1", "--C", rate)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error: rate must be a number no larger than 255.5")


class TestLemmas:
    def test_bundled_scenarios_pass(self, capsys):
        code, out, _ = run(capsys, "lemmas")
        assert code == 0
        header = ("property", "scenario", "passed", "detail")
        rows = parse_blocks(out)[header]
        assert {row[1] for row in rows} == {"fig1", "fig2"}
        assert all(row[2] == "true" for row in rows)

    def test_oversized_refinement_sweep_is_rejected_quickly(self, capsys):
        # 2 * 2**63 layers would be a matrix of exabytes; the cap refuses it
        # before any of that work starts
        start = time.perf_counter()
        code, out, err = run(capsys, "lemmas", "--steps", "64")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "limit" in err
        assert "Traceback" not in err

    def test_twenty_steps_at_two_descriptions_fit_the_cap(self, capsys):
        code, out, err = run(capsys, "lemmas", "--steps", "20", "--scenario", "fig1")
        assert (code, err) == (0, "")
        rows = parse_blocks(out)[("property", "scenario", "passed", "detail")]
        assert len(rows[-1][3].split()) == 20
        code, out, err = run(capsys, "lemmas", "--steps", "21", "--scenario", "fig1")
        assert (code, out) == (1, "") and "limit of 1048576" in err

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_steps_below_one_rejected(self, capsys, steps):
        code, out, err = run(capsys, "lemmas", "--steps", steps)
        assert (code, out, err) == (1, "", f"error: --steps must be at least 1, got {steps}\n")


class TestPipeline:
    def test_uniform_weights_match_baseline(self, capsys):
        code, out, _ = run(
            capsys, "pipeline", "fig1", "--K", "2", "--rate", "1", "--n", "4096"
        )
        assert code == 0
        rows = parse_blocks(out)[("sink", "q", "analytic_d", "empirical_mse")]
        assert [row[2] for row in rows] == ["0.25"] * 4
        assert all(0.0 < float(row[3]) < 1.0 for row in rows)

    def test_skewed_weights(self, capsys):
        code, out, _ = run(
            capsys,
            "pipeline",
            "fig1",
            "--K",
            "2",
            "--rate",
            "1",
            "--weights",
            "0,0,0.5,0.5",
            "--n",
            "4096",
        )
        assert code == 0
        rows = parse_blocks(out)[("sink", "q", "analytic_d", "empirical_mse")]
        assert [row[2] for row in rows] == ["1.0", "1.0", "0.0625", "0.0625"]
        assert float(rows[0][3]) == pytest.approx(1.0, abs=0.1)

    def test_empty_sink_set_rejected_at_load(self, capsys, tmp_path):
        doc = json.loads(helpers.bundled_text("fig1"))
        doc["sinks"] = []
        scenario = tmp_path / "broken.json"
        scenario.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "pipeline", str(scenario), "--K", "2", "--rate", "1"
        )
        assert code == 1
        assert "sinks" in err

    def test_rate_past_the_last_plane(self, capsys):
        # 60 bit/sample outlasts the coder's bit-planes; the stream is padded
        # to the length PET needs instead of coming up short
        code, out, err = run(
            capsys, "pipeline", "fig1", "--K", "2", "--rate", "30", "--n", "1000"
        )
        assert (code, err) == (0, "")
        rows = parse_blocks(out)[("sink", "q", "analytic_d", "empirical_mse")]
        assert len(rows) == 4

    def test_block_size_over_the_cap_rejected(self, capsys):
        n = progressive.MAX_BLOCK_SYMBOLS + 8
        code, out, err = run(
            capsys, "pipeline", "fig1", "--K", "2", "--rate", "1", "--n", str(n)
        )
        assert code == 1
        assert out == ""
        assert err == f"error: n must be at most {progressive.MAX_BLOCK_SYMBOLS}, got {n}\n"

    def test_block_size_is_checked_before_routing(self, capsys, monkeypatch):
        routed = []
        monkeypatch.setattr(
            "rainbownet.cli.alternating_search", lambda *args, **kw: routed.append(1)
        )
        code, out, err = run(
            capsys, "pipeline", "fig1", "--K", "2", "--rate", "1", "--n", "2000000"
        )
        assert (code, out, routed) == (1, "", [])
        assert err == f"error: n must be at most {progressive.MAX_BLOCK_SYMBOLS}, got 2000000\n"

    @pytest.mark.parametrize(
        "K, rate, message",
        [
            ("300", "1/2", "num_descriptions must be in 1..255, got 300"),
            ("3", "1/3", "block_symbols * rate must be a whole number of bytes, got 16/3 bits"),
        ],
        ids=["description-count", "whole-bytes"],
    )
    def test_pet_shape_is_checked_before_routing(self, capsys, monkeypatch, K, rate, message):
        routed = []
        monkeypatch.setattr(
            "rainbownet.cli.alternating_search", lambda *args, **kw: routed.append(1)
        )
        code, out, err = run(capsys, "pipeline", "fig2", "--K", K, "--rate", rate, "--n", "16")
        assert (code, out, routed) == (1, "", [])
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("rounds", ["0", "-1"])
    def test_rounds_below_one_rejected(self, capsys, rounds):
        code, out, err = run(
            capsys, "pipeline", "fig1", "--K", "2", "--rate", "1", "--rounds", rounds
        )
        assert code == 1
        assert out == ""
        assert err == f"error: --rounds must be at least 1, got {rounds}\n"


def _record_codec_work(monkeypatch):
    """Log the bit limit of every progressive scan and the profile PET encodes with."""
    work = {"encode_bits": [], "decode_bits": [], "profiles": []}
    encode_scan = progressive._encode_scan
    decode_scan = progressive._decode_scan

    def recording_encode_scan(magnitudes, signs, limit_bits):
        work["encode_bits"].append(limit_bits)
        return encode_scan(magnitudes, signs, limit_bits)

    def recording_decode_scan(data, limit_bits, n):
        work["decode_bits"].append(limit_bits)
        return decode_scan(data, limit_bits, n)

    encode = cli.pet_encode

    def recording_encode(bitstream, profile):
        work["profiles"].append(profile)
        return encode(bitstream, profile)

    monkeypatch.setattr(progressive, "_encode_scan", recording_encode_scan)
    monkeypatch.setattr(progressive, "_decode_scan", recording_decode_scan)
    monkeypatch.setattr(cli, "pet_encode", recording_encode)
    return work


class TestPipelineWork:
    @pytest.mark.parametrize(
        "scenario, K, rate, decodes",
        [("fig1", 2, "1", 1), ("fig2", 3, "1/2", 2)],
    )
    def test_one_encode_of_the_pet_prefix_and_one_decode_per_distinct_prefix(
        self, capsys, monkeypatch, scenario, K, rate, decodes
    ):
        work = _record_codec_work(monkeypatch)
        n, seed = 4096, 5
        code, out, _ = run(
            capsys, "pipeline", scenario, "--K", str(K), "--rate", rate,
            "--n", str(n), "--seed", str(seed),
        )
        assert code == 0
        [profile] = work["profiles"]
        assert work["encode_bits"] == [8 * profile.source_bytes_required]
        # prefixes of one stream differ exactly when their lengths differ
        assert len(work["decode_bits"]) == len(set(work["decode_bits"])) == decodes
        # reference: the full rate*K stream, one un-shared decode per sink
        rate = Fraction(rate)
        full = progressive_gaussian_source(seed, n, rate * K)
        rows = parse_blocks(out)[("sink", "q", "analytic_d", "empirical_mse")]
        for _, q, _, empirical in rows:
            received = int(Fraction(q) / rate)
            reference = full.empirical_mse(profile.prefix_bits(received))
            assert float(empirical) == reference

    def test_one_pet_decode_per_distinct_color_set(self, capsys, monkeypatch, tmp_path):
        scenario = tmp_path / "fanout.json"
        document = helpers.fanout_document(6, 3, 0)
        scenario.write_text(json.dumps(document))
        decoded = []
        decode = cli.pet_decode

        def recording_decode(descriptions):
            decoded.append(tuple(d.index for d in descriptions))
            return decode(descriptions)

        monkeypatch.setattr(cli, "pet_decode", recording_decode)
        code, _, _ = run(
            capsys, "pipeline", str(scenario), "--K", "3", "--rate", "1/2", "--n", "2048",
            "--rounds", "2",
        )
        assert code == 0
        net = helpers.document_network(document)
        cfg = SearchConfig(3, Fraction(1, 2), weights=(1 / 6,) * 6)
        result, _, _ = alternating_search(net, cfg, rounds=2)
        held = {tuple(node_spectrum(result.flow, sink)) for sink in net.sinks}
        assert sorted(decoded) == sorted(held)
        assert len(held) < len(net.sinks)


class TestOutputDiscipline:
    def test_json_mirror(self, capsys):
        code, out, _ = run(capsys, "validate", "--json", "fig1", "fig1_flow")
        assert code == 0
        doc = json.loads(out)
        assert [row["q"] for row in doc["rfv"]] == ["1", "1", "2", "2"]
        assert {row["edge"] for row in doc["slack"]} == {
            "e12", "e13", "e24", "e25", "e34", "e35"
        }

    def test_runs_are_byte_deterministic(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "pipeline", "fig1", "--K", "2", "--rate", "1", "--n", "2048",
                "--seed", "3",
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_seed_changes_empirical_column_only(self, capsys):
        _, out_a, _ = run(
            capsys, "pipeline", "fig1", "--K", "2", "--rate", "1", "--n", "2048",
            "--seed", "1",
        )
        _, out_b, _ = run(
            capsys, "pipeline", "fig1", "--K", "2", "--rate", "1", "--n", "2048",
            "--seed", "2",
        )
        rows_a = parse_blocks(out_a)[("sink", "q", "analytic_d", "empirical_mse")]
        rows_b = parse_blocks(out_b)[("sink", "q", "analytic_d", "empirical_mse")]
        assert [r[:3] for r in rows_a] == [r[:3] for r in rows_b]
        assert [r[3] for r in rows_a] != [r[3] for r in rows_b]

    def test_manifest_records_checksums(self, capsys, tmp_path):
        manifest_path = tmp_path / "run.json"
        checksums = []
        for _ in range(2):
            code, out, _ = run(
                capsys,
                "fig1",
                "--C",
                "1",
                "--manifest",
                str(manifest_path),
            )
            assert code == 0
            manifest = json.loads(manifest_path.read_text())
            checksums.append(manifest["outputs"]["stdout_sha256"])
            assert manifest["version"]
            assert manifest["command"] == "fig1"
        assert checksums[0] == checksums[1]

    def test_headers_always_present(self, capsys):
        for argv in (
            ["validate", "fig1", "fig1_flow"],
            ["search", "fig1", "--K", "1", "--rate", "1"],
            ["fig1", "--C", "0.5"],
        ):
            _, out, _ = run(capsys, *argv)
            first_line = out.splitlines()[0]
            assert any(c.isalpha() for c in first_line)
            assert "," in first_line

    def test_usage_errors_exit_two(self, capsys):
        assert main(["search", "fig1"]) == 2  # missing required --K/--rate
        capsys.readouterr()
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_decimal_point_never_locale_comma(self, capsys):
        _, out, _ = run(capsys, "fig1", "--C", "0.25")
        data_line = out.splitlines()[1]
        values = data_line.split(",")
        assert all("." in v or v in ("true", "false") for v in values[1:5])


SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_interpreter(*args):
    """Exit code, stdout and stderr of a new interpreter that can import rainbownet."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        encoding="utf-8",
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    return completed.returncode, completed.stdout, completed.stderr


def run_fresh_parser(capsys, *argv):
    """Exit code, stdout and stderr of a newly built parser on argv, which must exit."""
    with pytest.raises(SystemExit) as exit_info:
        cli._build_parser().parse_args(list(argv))
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


# the top level and every subcommand
COMMANDS = [
    [], ["validate"], ["search"], ["optimize"], ["pet"], ["pet", "encode"], ["pet", "decode"],
    ["fig1"], ["lemmas"], ["pipeline"],
]
# one usage error that each of them reports itself
USAGE_ERRORS = [
    ["no-such-command"],
    ["validate", "fig1"],
    ["search", "fig1"],
    ["optimize", "fig1"],
    ["pet", "no-such-command"],
    ["pet", "encode", "--n", "many"],
    ["pet", "decode"],
    ["fig1", "--C", "x"],
    ["lemmas", "--K", "x"],
    ["pipeline", "fig1", "--K", "2"],
]


class TestParserReuse:
    """main builds its parser once per process and reuses it on every call."""

    def test_calls_leak_no_state(self, capsys):
        sequence = [
            ["lemmas", "--scenario", "fig1", "--scenario", "fig2"],
            ["lemmas"],
            ["lemmas", "--scenario", "fig2"],
            ["search", "fig1", "--K", "2", "--rate", "1/2", "--json", "--strict"],
            ["search", "fig1", "--K", "2", "--rate", "1/2"],
            ["search", "fig1", "--K", "x", "--rate", "1/2"],
            ["search", "fig1", "--K", "2", "--rate", "1/2", "--mode", "greedy"],
            ["--version"],
            ["fig1", "--C", "1"],
            [],
            ["validate", "fig1", "fig1_flow"],
        ]
        in_process = []
        for argv in sequence:
            code, out, _ = run(capsys, *argv)
            in_process.append((code, out))
        assert [code for code, _ in in_process] == [0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 0]
        fresh = [run_interpreter("-m", "rainbownet.cli", *argv)[:2] for argv in sequence]
        assert in_process == fresh
        assert cli._parser().parse_args(["lemmas"]).scenario is None

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: " ".join(c) or "top")
    def test_help_matches_a_fresh_parser(self, capsys, command):
        fresh = run_fresh_parser(capsys, *command, "--help")
        assert fresh[0] == 0
        for _ in range(2):
            assert run(capsys, *command, "--help") == fresh

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
    def test_usage_errors_match_a_fresh_parser(self, capsys, argv):
        fresh = run_fresh_parser(capsys, *argv)
        assert fresh[0] == 2 and fresh[1] == "" and "error:" in fresh[2]
        for _ in range(2):
            assert run(capsys, *argv) == fresh

    def test_help_rewraps_when_the_width_changes(self, capsys, monkeypatch):
        outputs = []
        for columns in ("50", "150"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, _ = run(capsys, "search", "--help")
            assert (code, out) == run_fresh_parser(capsys, "search", "--help")[:2]
            outputs.append(out)
        assert len(outputs[0].splitlines()) > len(outputs[1].splitlines())

    def test_handlers_are_looked_up_when_called(self, capsys, monkeypatch):
        argv = ["search", "fig1", "--K", "1", "--rate", "1"]
        assert run(capsys, *argv)[0] == 0
        seen = []

        def fake(args):
            seen.append(args.scenario)
            return cli.CliOutput([cli.Table("fake", ["scenario"], [[args.scenario]])])

        monkeypatch.setattr(cli, "cmd_search", fake)
        assert run(capsys, *argv) == (0, "scenario\nfig1\n", "")
        assert seen == ["fig1"]


def test_route_fallback_leaves_the_output_streams_alone(capsys, monkeypatch):
    # a new interpreter configures no logging handler, so route's DEBUG
    # record for the fallback is dropped
    argv = ["lemmas", "--scenario", "fig1", "--K", "2", "--rate", "1", "--max-path-len", "2"]
    script = (
        "import sys; from rainbownet import cli, search; search.MAX_COLORINGS = 5; "
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    fresh = run_interpreter("-c", script, *argv)
    monkeypatch.setattr(search, "MAX_COLORINGS", 5)
    greedy_search, routed = search.greedy_search, []

    def greedy(*args):
        routed.append(1)
        return greedy_search(*args)

    monkeypatch.setattr(search, "greedy_search", greedy)
    assert (cli.main(argv), routed) == (0, [1])
    assert fresh == (0, capsys.readouterr().out, "")


# sha256 of stdout (and of the written flow document) for each README
# example that runs on bundled inputs, plus a multi-round pipeline: any
# change to routing, profile optimization or the codec shows up here.
GOLDEN = [
    (
        ["validate", "fig1", "fig1_flow"],
        "44558d325e09ecf9f13446efc4f40da805a38a3dd104172ff01b10da6c3811eb",
        None,
    ),
    (
        ["search", "fig1", "--K", "2", "--rate", "1", "--mode", "exact"],
        "c060d1ba5aaa71285f0d3f7ed39d9efa24391ad26886045c9dcc851e6ea9acd8",
        "2051bf42c1c89edf1e3628d14fdb8bc54d1ca28e420d04c145aa0fc04fe095ab",
    ),
    (
        ["optimize", "fig1", "--flow", "fig1_flow", "--weights", "0,0,0.5,0.5"],
        "642fefad89276ae6b7c23d4f330c3873373ac0139c9b91c765bb475529a7ecb7",
        None,
    ),
    (
        ["fig1", "--grid", "0.25,0.5,1,2,4"],
        "a90086c4ab17970bb9461220948d169209fa29cc8397168a90f86fa345f60153",
        None,
    ),
    (
        ["lemmas"],
        "842771e8e191201e7779a2b3a8e12edadd570b8ff444b56bfe7ba3c3bf56a6f6",
        None,
    ),
    (
        ["pipeline", "fig1", "--K", "2", "--rate", "1", "--seed", "0"],
        "3144d0d1c9a827e784cb1ebdda366cbae71357147e5613f962ffa9a1e1be7d86",
        None,
    ),
    (
        ["pipeline", "fig2", "--K", "3", "--rate", "1/2", "--rounds", "3",
         "--weights", "maxflow", "--n", "4096"],
        "e10eaf281d248c0072a4076371b55929ace3ee9e95a4f73ce44e8c4f829b3f21",
        None,
    ),
    (
        ["search", "fig2", "--K", "3", "--rate", "1/2", "--objective", "wd",
         "--weights", "maxflow"],
        "15542583d230f16a64666e799c8ec405c40f559ba70098589d96cb5644b2628a",
        "320b5a95942358d90d565465848b3e64cd49557cb96dcf4348887ce6b2333a7e",
    ),
    (
        ["search", "fig2", "--K", "2", "--rate", "1/2", "--mode", "greedy",
         "--max-path-len", "3"],
        "a9bf1859d26b4ecb88d7d70e715b765209165e1822fc248e2ef17c616fdc5d6d",
        "809777c697029bd8d33c41b6d024374a6a2731d8e1a783d0362ed5ae74cfe8da",
    ),
    (
        ["search", "fig1", "--K", "2", "--rate", "1", "--mode", "greedy", "--objective", "wd",
         "--weights", "0.1,0.2,0.3,0.4", "--y", "0.7,0.3"],
        "83adb721837d4486fb5d7965b4970c3013d7bff6b959cef9cdaca8e94240f9ca",
        "615d7268d713450bc8c4dcdc76fcbda917f6726b21abf1823abf9df2bf36866d",
    ),
    (
        ["pipeline", "fig1", "--K", "4", "--rate", "1/2", "--n", "16384", "--seed", "3"],
        "3996fc2eba230fde7295df4f1790548ec8bb3a86c9803a9809dafec0918b8f5c",
        None,
    ),
    (
        ["pipeline", "fig2", "--K", "2", "--rate", "1/2", "--seed", "1"],
        "5e0d9cb0e91f351fc865e12a50fb739c7050c93b53d6e77c505fde7c2bbec1c8",
        None,
    ),
    (
        ["pipeline", "fig2", "--K", "3", "--rate", "1", "--n", "3000", "--weights", "maxflow",
         "--rounds", "2", "--seed", "2"],
        "52a3d1287c0ecfe97d476cace1841cfa0316c34ed8cedcc6a8317152a0850e37",
        None,
    ),
    (
        # 3001 colorings of a 3000-deep scan: the walk must not recurse
        ["search", ONE_EDGE, "--K", "3000", "--rate", "1/2", "--mode", "exact"],
        "69dfa584710e4b8db4b12dbce4e8cb909d4dd49f174f04049ca57d0302591d70",
        "4d213d8e8243e467fdc703b92fa74c3fcda5a1aec562dc115afb04bc998b9a69",
    ),
]


def _golden_ids(cases):
    """Command and scenario file name; the whole argv where that pair is already taken."""
    ids = []
    for argv, _, _ in cases:
        short = " ".join(os.path.basename(arg) for arg in argv[:2])
        ids.append(" ".join(argv) if short in ids else short)
    return ids


@pytest.mark.parametrize("argv, stdout_sha256, flow_sha256", GOLDEN, ids=_golden_ids(GOLDEN))
def test_golden_output(capsys, tmp_path, argv, stdout_sha256, flow_sha256):
    argv = list(argv)
    out_flow = tmp_path / "found.json"
    if flow_sha256 is not None:
        argv += ["--out-flow", str(out_flow)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256
    if flow_sha256 is not None:
        assert hashlib.sha256(out_flow.read_bytes()).hexdigest() == flow_sha256


class TestUnreadableAndUnwritable:
    @pytest.mark.parametrize("position", ["scenario", "flow"])
    def test_deeply_nested_json_exits_one(self, capsys, tmp_path, position):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        argv = ["validate", str(deep), "fig1_flow"]
        if position == "flow":
            argv = ["validate", "fig1", str(deep)]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err == f"error: {position} document is nested too deeply to parse\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "fig1", "--K", "2", "--rate", "1", "--out-flow", "{missing}/f.json"],
            ["fig1", "--C", "1", "--manifest", "{missing}/m.json"],
            ["pet", "decode", "{description}", "--out", "{missing}/rec.bin"],
        ],
        ids=["out-flow", "manifest", "pet-decode-out"],
    )
    def test_unwritable_output_path_exits_one(self, capsys, tmp_path, argv):
        description = tmp_path / "block.d01"
        encoded = pet_encode(bytes(8), PetProfile.quantize([1.0], 1, 1, 64))
        description.write_bytes(description_to_bytes(encoded.descriptions[0]))
        missing = tmp_path / "no-such-dir"
        argv = [a.format(missing=missing, description=description) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith(f"error: cannot write '{argv[-1]}': ")
        assert "Traceback" not in err
        assert not missing.exists()
