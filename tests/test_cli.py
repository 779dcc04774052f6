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
# A continuous flow on fig1: e12->e24 carries [0, 1) and e12->e25 [1/2, 2),
# so e12's spectrum is [0, 2) and e25's measure 3/2, both over capacity 1.
FIG1_CONTINUOUS = os.path.join(DATA, "fig1_continuous_flow.json")


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

    @pytest.mark.parametrize(
        "field, value, message",
        [("K", 2.9, "K"), ("K", True, "K"), ("color", 1.7, "path #0: color"),
         ("color", True, "path #0: color")],
    )
    def test_non_integral_K_or_color_exits_one(self, capsys, tmp_path, field, value, message):
        # int() would read 2.9 as 2 and 1.7 as colour 1, and the flow would pass
        doc = json.loads(helpers.bundled_text("fig1_flow"))
        if field == "K":
            doc["K"] = value
        else:
            doc["paths"][0]["color"] = value
        flow_path = tmp_path / "flow.json"
        flow_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", "fig1", str(flow_path))
        assert (code, out) == (1, "")
        assert err == f"error: {message} must be a whole number, got {value!r}\n"

    def test_continuous_flow_over_capacity_exits_one(self, capsys):
        code, out, _ = run(capsys, "validate", "fig1", FIG1_CONTINUOUS)
        assert code == 1
        blocks = parse_blocks(out)
        slack = blocks[("edge", "measure", "capacity", "slack", "ok")]
        assert slack == [
            ["e12", "2", "1", "-1", "false"],
            ["e13", "0", "1", "1", "true"],
            ["e24", "1", "1", "0", "true"],
            ["e25", "1.5", "1", "-0.5", "false"],
            ["e34", "0", "1", "1", "true"],
            ["e35", "0", "1", "1", "true"],
        ]
        assert blocks[("sink", "q")] == [["2", "2"], ["3", "0"], ["4", "1"], ["5", "1.5"]]

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
        # 8001 multisets, but the exact scan would visit O(K^2) candidates
        code, _, err = run(
            capsys,
            "search",
            ONE_EDGE,
            "--mode",
            "exact",
            "--K",
            "8000",
            "--rate",
            "1/4000",
            "--max-path-len",
            "1",
        )
        assert code == 1
        assert "guard" in err or "closure" in err

    @staticmethod
    def _digraph_document(dead_end: bool) -> dict:
        """A complete digraph on v0..v8 (no edge into v0) and a node t.

        Dense: v5..v8 are the sinks, and t hangs off v0. Dead end: t is the
        only sink, v0 reaches it through h, h feeds v1..v8 and each of them
        leads back to v0, so every digraph node is 3 edges from t, yet no
        edge-simple path through the digraph gets there: it would need
        v0's one out-edge twice.
        """
        nodes = [f"v{i}" for i in range(9)]
        pairs = [(a, b) for a in nodes for b in nodes[1:] if a != b]
        sinks = nodes[5:]
        if dead_end:
            pairs = [(a, b) for a, b in pairs if a != "v0"] + [(b, "v0") for b in nodes[1:]]
            pairs += [("v0", "h"), ("h", "t")] + [("h", b) for b in nodes[1:]]
            nodes.append("h")
            sinks = ["t"]
        else:
            pairs.append(("v0", "t"))
        edges = [{"id": f"{a}-{b}", "tail": a, "head": b, "capacity": "1"} for a, b in pairs]
        return {"nodes": nodes + ["t"], "edges": edges, "sources": ["v0"], "sinks": sinks}

    @pytest.mark.parametrize("dead_end", [False, True], ids=["dense", "dead-end"])
    def test_path_enumeration_guard_maps_to_exit_one(self, capsys, tmp_path, dead_end):
        # a complete digraph has more edge-simple paths of length <= 20 than
        # could be enumerated in hours; the path guard stops the exact
        # search's walk early, also when (dead-end) no walk through the
        # digraph reaches a sink although the sink distances, which ignore
        # edge-simplicity, let the walk in
        scenario = tmp_path / "dense.json"
        scenario.write_text(json.dumps(self._digraph_document(dead_end)))
        start = time.perf_counter()
        code, out, err = run(
            capsys, "search", str(scenario), "--K", "3", "--rate", "1/2",
            "--mode", "exact", "--max-path-len", "20",
        )
        assert time.perf_counter() - start < 5.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "paths" in err

    def test_dense_benchmark_graph_past_the_path_guard_exits_one(self, capsys, tmp_path):
        # the benchmark's dense(12, 43, 4) graph at length 10: the exact
        # search's walk visits more than MAX_PATHS partial paths that can
        # reach a sink
        scenario = tmp_path / "dense.json"
        scenario.write_text(json.dumps(helpers.dense_document(12, 43, 4, 1144964661)))
        start = time.perf_counter()
        code, out, err = run(
            capsys, "search", str(scenario), "--K", "3", "--rate", "1/2",
            "--mode", "exact", "--max-path-len", "10",
        )
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (1, "")
        assert "path enumeration exceeded" in err

    def test_dense_benchmark_graph_routes_greedily_at_length_ten(
        self, capsys, tmp_path, monkeypatch
    ):
        # greedy walks no paths, so the graph past the path guard searches,
        # and the pipeline's route certifies greedy's flow by the cut bound
        scenario = tmp_path / "dense.json"
        scenario.write_text(json.dumps(helpers.dense_document(12, 43, 4, 1144964661)))
        start = time.perf_counter()
        code, _, err = run(
            capsys, "search", str(scenario), "--K", "3", "--rate", "1/2",
            "--mode", "greedy", "--max-path-len", "10",
        )
        assert (code, err) == (0, "")
        route, modes = search.route, []

        def recorded(*args):
            result = route(*args)
            modes.append(result.mode)
            return result

        monkeypatch.setattr(search, "route", recorded)
        code, _, err = run(
            capsys, "pipeline", str(scenario), "--K", "3", "--rate", "1/2",
            "--max-path-len", "10", "--n", "4096",
        )
        assert time.perf_counter() - start < 5.0
        assert (code, err, modes) == (0, "", ["certified-greedy"])

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


def test_huge_decimal_exponents_exit_one_quickly(capsys, tmp_path):
    # 10**30000 as an exact Fraction would make every capacity comparison
    # and the rendering cost seconds
    scenario = json.loads(helpers.bundled_text("fig1"))
    scenario["edges"][0]["capacity"] = "1e100000"
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    for argv, message in [
        (["search", "fig1", "--K", "2", "--rate", "1e-30000"], "rate: the exponent of '1e-30000'"),
        (["search", str(scenario_path), "--K", "2", "--rate", "1"], "capacity: the exponent"),
    ]:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err and "exceeds 4300" in err


def test_an_unprintable_result_exits_one_without_a_traceback(capsys):
    # 1e4300 parses, but the rate column's 4,301 digits exceed what str()
    # renders; format_rational refuses it in either format, before any output
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, "search", "fig1", "--K", "2", "--rate", "1e4300", *extra)
        assert (code, out) == (1, "")
        assert err == "error: a result of more than 4300 digits is too large to print\n"


@pytest.mark.parametrize(
    "extra",
    [["--y", "0.9,0.1"], ["--weights", "1,0,0,0"], ["--mode", "greedy", "--weights", "uniform"],
     ["--objective", "trf", "--y", "0.9,0.1", "--weights", "1,0,0,0"]],
    ids=["y", "weights", "greedy-weights", "both"],
)
def test_trf_search_refuses_wd_only_options(capsys, extra):
    code, out, err = run(capsys, "search", "fig1", "--K", "2", "--rate", "1", *extra)
    assert (code, out, err) == (1, "", "error: --y and --weights apply only to --objective wd\n")


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

    def test_continuous_flow_on_fig1(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "fig1", "--flow", FIG1_CONTINUOUS, "--K", "4", "--rate", "1/2"
        )
        assert code == 0
        blocks = parse_blocks(out)
        assert [row[1] for row in blocks[("sink", "q", "d")]] == ["2", "0", "1", "1.5"]
        assert blocks[("objective", "y_1", "y_2", "y_3", "y_4")] == [
            ["0.4375", "0.0", "1.0", "0.0", "0.0"]
        ]
        code, out, err = run(capsys, "optimize", "fig1", "--flow", FIG1_CONTINUOUS)
        assert (code, out) == (1, "")
        assert err == "error: a continuous flow needs explicit --K and --rate\n"

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


_EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()
_SWEEP_LIMIT = "needs K * 2**(steps - 1) layers, more than the limit of 1048576\n"
# (lemmas arguments, exit code, stdout sha256, stderr) away from the defaults
# the golden covers: each description count, rate, sweep length and scenario
# set, and the order in which the layer cap refuses an oversized suite.
LEMMA_PINS = [
    (["--K", "1"], 0, "cd05c7080ecfdb970d599790b9bd7df0be256057dac5b1a431939d144c067305", ""),
    (["--K", "3"], 0, "842771e8e191201e7779a2b3a8e12edadd570b8ff444b56bfe7ba3c3bf56a6f6", ""),
    (["--rate", "1"], 0, "b509e07661f13b43d957dbf7053ea2370f307a73cf710af9954c464f258eee59", ""),
    (["--rate", "1/3"], 0, "bb1fef7555dc90e40706313f66e710ef1045898d29f5d61f6d1bb49e99122f9b", ""),
    (["--steps", "1"], 0, "69f8ffacd9b7efffd8ba575f2c44ac93ca2ff05ea8937e0bdbb5e33d414d77c1", ""),
    (["--steps", "5"], 0, "b7bd94b2ee3387840c88f29ae34a3e2fc8926e001ad9bbb880ec0e310ceec011", ""),
    (["--steps", "20"], 0, "d1857613f70d31d19e4e25a0e25167c3effab77ccdf2ec68d4379f936a78431b", ""),
    (
        ["--scenario", "fig2"],
        0,
        "67900a06452f49c1f75c3ffd220d263a7e82edbcb4d35ee90b5ad4f0d5eb4cfc",
        "",
    ),
    (["--strict"], 0, "a24ecb1b15ceef15659bdcab7c09065fbc8ad2a7d305ac7f71bca22214258e9b", ""),
    (
        ["--K", "3", "--rate", "1/3", "--steps", "5"],
        0,
        "7d9f41f292d7a99c8c0bf868feaca9303030110a73a51547462defb3ea676d9c",
        "",
    ),
    (
        ["--scenario", "fig2", "--K", "1", "--rate", "1", "--max-path-len", "2"],
        0,
        "3ec8e5debb005158e40084de75a8b2cca0535ad5026d9ad72d1cdb9058cdc53a",
        "",
    ),
    (
        ["--steps", "21", "--scenario", "fig1"],
        1,
        _EMPTY_SHA256,
        "error: a refinement sweep of 21 steps at K=2 " + _SWEEP_LIMIT,
    ),
    (
        ["--steps", "64"],
        1,
        _EMPTY_SHA256,
        "error: a refinement sweep of 64 steps at K=2 " + _SWEEP_LIMIT,
    ),
    # K+2 descriptions pass the cap before the sweep is checked
    (
        ["--K", "1048575", "--steps", "1"],
        1,
        _EMPTY_SHA256,
        "error: 1048577 description layers exceed the limit of 1048576\n",
    ),
    (
        ["--K", "1048576", "--steps", "2"],
        1,
        _EMPTY_SHA256,
        "error: 1048577 description layers exceed the limit of 1048576\n",
    ),
]


@pytest.mark.parametrize(
    "argv, exit_code, stdout_sha256, stderr",
    LEMMA_PINS,
    ids=[" ".join(argv) for argv, _, _, _ in LEMMA_PINS],
)
def test_lemmas_output_is_pinned(capsys, argv, exit_code, stdout_sha256, stderr):
    code, out, err = run(capsys, "lemmas", *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (
        exit_code,
        stdout_sha256,
        stderr,
    )


class TestPipeline:
    def test_huge_stream_budget_exits_one_before_encoding(self, capsys, monkeypatch):
        # 16384 samples at 4e6 bit/sample would pad an 8.2 GB stream
        def refuse(*args):
            raise AssertionError("the encoder ran")

        monkeypatch.setattr(progressive, "_encode", refuse)
        code, out, err = run(
            capsys, "pipeline", "fig1", "--K", "1", "--rate", "4000000", "--n", "16384"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: stream budget n * max_rate must be at most 1073741824 bits, got 65536000000\n"
        )

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
    """Log every progressive encode's bit limit, every prefix reconstructed,
    every decoder's bit limit and the profile PET encodes with."""
    work = {"encode_bits": [], "decoded_prefixes": [], "decoder_bits": [], "profiles": []}
    encode_planes = progressive._encode
    decode_planes = progressive._decode
    decode_prefix = progressive.ProgressiveGaussianSource.decode_prefix

    def recording_encode_planes(magnitudes, negative, limit_bits):
        work["encode_bits"].append(limit_bits)
        return encode_planes(magnitudes, negative, limit_bits)

    def recording_decode_planes(data, limit_bits, n):
        work["decoder_bits"].append(limit_bits)
        return decode_planes(data, limit_bits, n)

    def recording_decode_prefix(self, prefix_bits, data=None):
        work["decoded_prefixes"].append(prefix_bits)
        return decode_prefix(self, prefix_bits, data=data)

    encode = cli.pet_encode

    def recording_encode(bitstream, profile):
        work["profiles"].append(profile)
        return encode(bitstream, profile)

    monkeypatch.setattr(progressive, "_encode", recording_encode_planes)
    monkeypatch.setattr(progressive, "_decode", recording_decode_planes)
    monkeypatch.setattr(
        progressive.ProgressiveGaussianSource, "decode_prefix", recording_decode_prefix
    )
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
        rate = Fraction(rate)
        rows = parse_blocks(out)[("sink", "q", "analytic_d", "empirical_mse")]
        prefixes = {profile.prefix_bits(int(Fraction(q) / rate)) for _, q, _, _ in rows}
        # each distinct sink prefix is decoded once
        assert sorted(work["decoded_prefixes"]) == sorted(prefixes)
        assert sorted(work["decoder_bits"]) == sorted(prefixes)
        assert len(prefixes) == decodes
        # reference: the full rate*K stream, one un-shared decode per sink
        full = progressive_gaussian_source(seed, n, rate * K)
        for _, q, _, empirical in rows:
            received = int(Fraction(q) / rate)
            reference = full.empirical_mse(profile.prefix_bits(received))
            assert float(empirical) == reference

    def test_one_pet_decode_per_distinct_prefix_size(self, capsys, monkeypatch, tmp_path):
        scenario = tmp_path / "fanout.json"
        document = helpers.fanout_document(6, 3, 0)
        scenario.write_text(json.dumps(document))
        decoded = []
        decode = cli.pet_decode

        def recording_decode(descriptions):
            recovered = decode(descriptions)
            decoded.append((descriptions[0].profile, len(recovered)))
            return recovered

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
        [profile] = {profile for profile, _ in decoded}
        # any l descriptions recover the same prefix_bytes(l) bytes
        prefixes = {profile.prefix_bytes(len(colors)) for colors in held}
        assert sorted(size for _, size in decoded) == sorted(prefixes)
        assert len(prefixes) < len(held)


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
        "import sys; from rainbownet import cli, search; search.MAX_SEARCH_STEPS = 5; "
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    fresh = run_interpreter("-c", script, *argv)
    monkeypatch.setattr(search, "MAX_SEARCH_STEPS", 5)
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
        "e1fdf9f3f2e8a8b192ea75a8a88473f264cfa1e1c95c6184342f3c5299511850",
        None,
    ),
    (
        ["pipeline", "fig2", "--K", "3", "--rate", "1/2", "--rounds", "3",
         "--weights", "maxflow", "--n", "4096"],
        "fc3e23b549733eb2d9872a180a2ce60898d4574266000a55aeabd8ee1d081c86",
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
        "0889a011f368f17d1a3e8b8a18e274d4b408f65266f15d53482722a238ab84d1",
    ),
    (
        ["search", "fig1", "--K", "2", "--rate", "1", "--mode", "greedy", "--objective", "wd",
         "--weights", "0.1,0.2,0.3,0.4", "--y", "0.7,0.3"],
        "83adb721837d4486fb5d7965b4970c3013d7bff6b959cef9cdaca8e94240f9ca",
        "f96a44a869c7355b6e35f2f3d0ccf9cb2547ff9d020e9773b0e80dcc54e634ac",
    ),
    (
        ["pipeline", "fig1", "--K", "4", "--rate", "1/2", "--n", "16384", "--seed", "3"],
        "92f60525edee9350f169dc1275e5849535a3bec50bdf4c595d7d7eb6531f6661",
        None,
    ),
    (
        ["pipeline", "fig2", "--K", "2", "--rate", "1/2", "--seed", "1"],
        "6fb9827eb1d3b2acaefcbfa078fdca4bc73ef4c142a21e4d654ace8caa5887a3",
        None,
    ),
    (
        ["pipeline", "fig2", "--K", "3", "--rate", "1", "--n", "3000", "--weights", "maxflow",
         "--rounds", "2", "--seed", "2"],
        "b7613e6ebd079c246227072534bcf70d3723cd948be7eb503cd2027f35b489ff",
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
